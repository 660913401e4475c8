package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/hpo"
	"repro/internal/surrogate"
)

// paperGoal is paper-surrogate's hypervolume target, at the paper's
// Fig. 1 reference point.  Every campaign's pooled final
// populations exceed it (the lowest final hypervolume over 150 seeds is
// 0.0167783), and the generation that first reaches it is spread over
// the early generations, so time_to_hv_s.p50 follows convergence speed.
var paperGoal = hvGoal{ref: experiments.RefPoint, target: 0.01674}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 11

// campaignSeed maps the workload seed and a campaign's index to its
// BaseSeed.  Every eighth campaign repeats the seed of the campaign seven
// before it, so the outputs of a seed can be compared across repetitions
// while seven in eight campaigns stay distinct.
func campaignSeed(seed int64, i int) int64 {
	if i%8 == 7 {
		i -= 7
	}
	return seed*1_000_003 + int64(i)
}

// paperCampaignConfig is experiments.RunPaperCampaign's configuration:
// 5 runs × 100 individuals × 6 generations at parallelism 8 on the
// Summit surrogate seeded like the campaign.
func paperCampaignConfig(seed int64) (hpo.CampaignConfig, *surrogate.Evaluator) {
	opts := experiments.PaperOptions()
	ev := surrogate.NewEvaluator(surrogate.Config{Seed: seed})
	return hpo.CampaignConfig{
		Runs:         opts.Runs,
		PopSize:      opts.PopSize,
		Generations:  opts.Generations,
		Evaluator:    ev,
		Parallelism:  opts.Parallelism,
		EvalTimeout:  2 * time.Hour,
		AnnealFactor: 0.85,
		BaseSeed:     seed,
	}, ev
}

// paperSurrogate runs paper-shape campaigns back to back on the Summit
// surrogate: one caller, closed loop, no dispatch, I/O or training.
func paperSurrogate(ctx context.Context, rc *runConfig) (*outcome, error) {
	o := &outcome{}
	var clock *genClock
	if rc.probe != nil {
		clock = &genClock{p: rc.probe}
	}
	// Set-up is a warm-up campaign on a seed outside the measured range:
	// it lets the heap and the scheduler settle before timing.
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		cfg, _ := paperCampaignConfig(-rc.seed - int64(i) - 1)
		if _, err := hpo.RunCampaign(ctx, cfg); err != nil {
			return nil, fmt.Errorf("paper-surrogate warm-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	digests := map[int64][32]byte{}
	o.beginWindow()
	deadline := o.start.Add(rc.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		seed := campaignSeed(rc.seed, i)
		cfg, sur := paperCampaignConfig(seed)
		if clock != nil {
			cfg.Evaluator = &tracedEvaluator{inner: sur, clock: clock, leaf: true}
		}
		c, err := runHPOCampaign(ctx, cfg, paperGoal, clock)
		if err != nil {
			return nil, fmt.Errorf("paper-surrogate campaign %d: %w", seed, err)
		}
		checkPaperCampaign(o, c.result, seed, digests)
		o.campaign(c.start, c.start.Add(c.wall), c.toHV, c.result.TotalEvaluations(), true)
	}
	o.endWindow()
	return o, nil
}

// checkPaperCampaign counts each evaluation as an operation (failed only
// for an error other than the surrogate's simulated training failure,
// which is a MAXINT result, not an error of the program), plus two
// output checks: 3500 evaluations, and the same evaluations, fitness
// bytes included, as an earlier campaign on the same seed (so the same
// frontier).
func checkPaperCampaign(o *outcome, res *hpo.CampaignResult, seed int64, digests map[int64][32]byte) {
	var n, bad int64
	for _, run := range res.Runs {
		for _, gen := range run.Generations {
			for _, ind := range gen.Evaluated {
				n++
				if !ind.Evaluated || (ind.Err != nil && !simulatedFailure(ind.Err)) {
					bad++
				}
			}
		}
	}
	o.ops(n, bad, "evaluator error")
	o.op(res.TotalEvaluations() == 3500, fmt.Sprintf("seed %d: %d evaluations, want 3500", seed, res.TotalEvaluations()))
	d := evaluationDigest(res)
	if prev, seen := digests[seed]; seen {
		o.op(prev == d, fmt.Sprintf("seed %d: evaluations differ between repetitions", seed))
	} else {
		digests[seed] = d
	}
}

// simulatedFailure reports whether err is the surrogate's simulated
// training failure.
func simulatedFailure(err error) bool {
	return strings.HasPrefix(err.Error(), "surrogate: training failed")
}
