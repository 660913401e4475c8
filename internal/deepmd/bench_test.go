package deepmd

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/descriptor"
	"repro/internal/md"
	"repro/internal/nn"
)

func benchData(b *testing.B, frames int) *dataset.Dataset {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	species := []md.Species{md.Al, md.Cl, md.Cl, md.Cl, md.K, md.Cl}
	pot := md.NewPaperBMH(4.0)
	return dataset.Generate(rng, species, 7.0, 498, pot, 0.5, 50, 5, frames)
}

func BenchmarkEnergyForces(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewModel(rng, tinyModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	d := benchData(b, 1)
	fr := &d.Frames[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EnergyForces(fr.Coord, d.Types, fr.Box)
	}
}

// BenchmarkTrainStepByWorkers measures one optimizer step as the
// simulated data-parallel width grows (1, 2, 6 GPUs).
func BenchmarkTrainStepByWorkers(b *testing.B) {
	d := benchData(b, 8)
	train, val := d.Split(0.25)
	for _, workers := range []int{1, 2, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m, err := NewModel(rng, tinyModelConfig())
			if err != nil {
				b.Fatal(err)
			}
			cfg := TrainConfig{
				Steps: b.N, BatchSize: 1, StartLR: 0.001, StopLR: 1e-5,
				ScaleByWorker: "sqrt", Workers: workers,
				DispFreq: b.N + 1, // no validation inside the loop
				Seed:     4,
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Train(context.Background(), m, train, val, cfg, nil); err != nil && err != ErrDiverged {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTrainStepBatch measures one optimizer step of the whole-frame
// batched gradient path — the paper (bit-exact reduction order) and fast
// (cross-frame fused) modes at growing worker-batch sizes.  Per-frame
// cost is ns/op divided by batch; scripts/bench.sh computes the speedup
// against the previous PR's TrainStepByWorkers/workers=1 baseline.
func BenchmarkTrainStepBatch(b *testing.B) {
	d := benchData(b, 8)
	train, val := d.Split(0.25)
	for _, tc := range []struct {
		name  string
		batch int
		fast  bool
	}{
		{"mode=paper/batch=1", 1, false},
		{"mode=fast/batch=1", 1, true},
		{"mode=fast/batch=2", 2, true},
		{"mode=fast/batch=4", 4, true},
		{"mode=fast/batch=6", 6, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m, err := NewModel(rng, tinyModelConfig())
			if err != nil {
				b.Fatal(err)
			}
			// StartLR is kept small enough that the run cannot diverge at
			// any b.N: an early ErrDiverged abort would leave the remaining
			// claimed iterations free and understate ns/op.
			cfg := TrainConfig{
				Steps: b.N, BatchSize: tc.batch, StartLR: 1e-4, StopLR: 1e-6,
				ScaleByWorker: "sqrt", Workers: 1, Fast: tc.fast,
				DispFreq: b.N + 1, // no validation inside the loop
				Seed:     4,
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Train(context.Background(), m, train, val, cfg, nil); err != nil && err != ErrDiverged {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTrainStepPaperWidth measures one paper-mode optimizer step —
// one frame's energy and force gradient plus the Adam update — at the
// paper's network widths (embedding {25,50,100}, axis 4, fitting
// {240,240,240}) on a 50-atom AlCl₃/KCl cell (10 Al, 5 K, 35 Cl at the
// paper's number density), serially.  The toy-width benches above hide
// where paper-width time goes: here the nn/blas GEMMs dominate.  The
// step reuses its scratch, so allocs/op is 0 in steady state.
func BenchmarkTrainStepPaperWidth(b *testing.B) {
	species := make([]md.Species, 50)
	for i := range species {
		switch {
		case i < 10:
			species[i] = md.Al
		case i < 15:
			species[i] = md.K
		default:
			species[i] = md.Cl
		}
	}
	d := dataset.Generate(rand.New(rand.NewSource(1)), species, 12.106, 498, md.NewPaperBMH(5.5), 0.5, 50, 5, 4)
	for _, rcut := range []float64{6, 9} {
		b.Run(fmt.Sprintf("rcut=%v", rcut), func(b *testing.B) {
			m, err := NewModel(rand.New(rand.NewSource(3)), ModelConfig{
				Descriptor: descriptor.Config{
					RCut: rcut, RCutSmth: 2.42,
					EmbeddingSizes: []int{25, 50, 100},
					AxisNeurons:    4,
					Activation:     nn.Tanh,
					NumSpecies:     3,
				},
				FittingSizes:      []int{240, 240, 240},
				FittingActivation: nn.Tanh,
				NumSpecies:        3,
			})
			if err != nil {
				b.Fatal(err)
			}
			m.SetThreads(1)
			initBias(m, d)
			pe, pf := PaperPrefactors().At(1)
			params, opt := m.Params(), nn.NewAdam()
			ws := &batchScratch{}
			frames := make([]*dataset.Frame, 1)
			step := func(i int) {
				frames[0] = &d.Frames[i%len(d.Frames)]
				m.ZeroGrad()
				if err := m.accumulateBatchGrad(ws, d.Types, frames, pe, pf, 1e-4, false); err != nil {
					b.Fatal(err)
				}
				opt.Step(params, 1e-6)
			}
			for i := range d.Frames { // warm every frame's scratch
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

func BenchmarkEvalErrors(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewModel(rng, tinyModelConfig())
	d := benchData(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalErrors(m, d, 0)
	}
}

func BenchmarkParseInput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in, err := ParseInput(strings.NewReader(sampleInput))
		if err != nil {
			b.Fatal(err)
		}
		if err := in.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
