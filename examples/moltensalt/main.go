// Moltensalt: a reduced-scale version of the paper's experiment — tune
// the seven DeePMD training hyperparameters for the molten AlCl₃/KCl
// potential with NSGA-II against the Summit-training surrogate, then
// report the Pareto frontier and the chemically accurate picks of
// Table 3.
//
//	go run ./examples/moltensalt
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/hpo"
)

func main() {
	opts := experiments.PaperOptions()
	// Reduced scale: 2 runs × 40 individuals × 5 rounds = 400 simulated
	// trainings (the paper ran 5 × 100 × 7 = 3500 on Summit).
	opts.Runs, opts.PopSize, opts.Generations = 2, 40, 4

	fmt.Printf("tuning %d hyperparameters over %d simulated DeePMD trainings…\n",
		len(hpo.PaperRepresentation().Bounds), opts.Runs*opts.PopSize*(opts.Generations+1))
	c, err := experiments.RunPaperCampaign(context.Background(), opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfailures: %d of %d trainings (none should appear in the last generation: %d)\n",
		c.Result.TotalFailures(), c.Result.TotalEvaluations(), c.Result.LastGenFailures())

	fmt.Println("\nPareto frontier (energy eV/atom, force eV/Å):")
	for i, p := range experiments.Fig2(c) {
		fmt.Printf("  %2d  energy=%.4f  force=%.4f  runtime=%.0f min  %s\n",
			i+1, p.EnergyError, p.ForceError, p.Runtime.Minutes(), p.Params)
	}

	t3, err := experiments.Table3(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected chemically accurate solutions (Table 3):")
	fmt.Printf("  lowest force:   force=%.4f energy=%.4f  %s\n",
		t3.LowestForce.ForceError, t3.LowestForce.EnergyError, t3.LowestForce.Params)
	fmt.Printf("  lowest energy:  force=%.4f energy=%.4f  %s\n",
		t3.LowestEnergy.ForceError, t3.LowestEnergy.EnergyError, t3.LowestEnergy.Params)
	fmt.Printf("  lowest runtime: %.0f min  %s\n",
		t3.LowestRuntime.Runtime.Minutes(), t3.LowestRuntime.Params)
}
