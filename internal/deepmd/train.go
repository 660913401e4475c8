package deepmd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ddp"
	"repro/internal/nn"
)

// TrainConfig parameterizes a training run; field names follow the
// corresponding DeePMD input.json entries where one exists.
type TrainConfig struct {
	// Steps is numb_steps; the paper trains every candidate for 40 000.
	Steps int
	// BatchSize is frames per worker per step.
	BatchSize int
	// StartLR and StopLR bound the exponential learning-rate decay (genes
	// start_lr and stop_lr).
	StartLR, StopLR float64
	// ScaleByWorker is "linear", "sqrt" or "none" (gene scale_by_worker).
	ScaleByWorker string
	// Workers is the simulated data-parallel width (6 GPUs per Summit
	// node in the paper).
	Workers int
	// Prefactors weight the loss; zero value means PaperPrefactors.
	Prefactors LossPrefactors
	// DispFreq is how often (in steps) validation errors are appended to
	// the learning curve (disp_freq).
	DispFreq int
	// ValFrames caps validation frames per evaluation (0 = all).
	ValFrames int
	// ForceFDh is the step for the central-difference directional
	// derivative used in the force-loss gradient; 0 means 1e-4 Å.
	ForceFDh float64
	// Threads bounds the evaluation worker pool: per-atom parallelism
	// inside gradient accumulation and per-frame parallelism in the
	// validation evaluations.  0 means GOMAXPROCS.  Training output is
	// bit-identical for every value — gradient shards are merged in a
	// fixed order — so Threads trades wall time only.
	//
	// The default stays GOMAXPROCS.  On a 2-vCPU Intel Xeon with the
	// AVX2 GEMM kernels, four concurrent paper-width trainings (50 atoms,
	// embedding {25,50,100}, fitting {240,240,240}) took 2.36–2.64 s at
	// Threads=1 and 2.20–2.47 s at the default: when a campaign already
	// fills every CPU with evaluations the pool neither helps nor hurts.
	// One training alone took 1.08–1.20 s at Threads=1 and 0.70–0.83 s
	// at the default, using the idle CPU.
	Threads int
	// Seed drives batch sampling.
	Seed int64
	// Fast selects the cross-frame fused gradient path: per-species
	// fitting-net batches span every frame of a worker batch and
	// embedding gradients accumulate directly instead of through
	// per-atom shards.  Training stays deterministic for any thread
	// count but follows a relaxed floating-point reduction order, so the
	// learning curve is NOT bit-identical to the default (paper) path;
	// EXPERIMENTS.md quantifies the divergence.
	Fast bool
}

// Validate checks the configuration.
func (c *TrainConfig) Validate() error {
	if c.Steps <= 0 {
		return errors.New("deepmd: Steps must be positive")
	}
	if c.StartLR <= 0 || c.StopLR <= 0 || c.StopLR > c.StartLR {
		return fmt.Errorf("deepmd: need 0 < stop_lr <= start_lr, got %g, %g", c.StopLR, c.StartLR)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return nil
}

// LCurveRecord is one line of the learning curve.
type LCurveRecord struct {
	Step     int
	RmseEVal float64 // eV/atom
	RmseETrn float64
	RmseFVal float64 // eV/Å
	RmseFTrn float64
	LR       float64
}

// TrainResult summarizes a completed training.
type TrainResult struct {
	LCurve []LCurveRecord
	// FinalEnergyRMSE and FinalForceRMSE are the last validation errors —
	// exactly what the EA reads from lcurve.out as fitness (§2.2.4).
	FinalEnergyRMSE float64
	FinalForceRMSE  float64
	StepsRun        int
}

// ErrDiverged is returned when the loss becomes NaN/Inf — the analogue of
// the hyperparameter combinations the paper observed crashing training.
var ErrDiverged = errors.New("deepmd: training diverged (non-finite loss)")

// Train fits the model to the in-memory training set; see TrainSource.
func Train(ctx context.Context, m *Model, train, val *dataset.Dataset, cfg TrainConfig, lcurve io.Writer) (*TrainResult, error) {
	return TrainSource(ctx, m, train, val, cfg, lcurve)
}

// TrainSource fits the model to the training source, evaluating on the
// validation source every DispFreq steps and appending lcurve.out lines
// to lcurve (if non-nil).  The context cancels long runs, standing in
// for the paper's two-hour subprocess limit.
//
// Sources are sampled by index only, so an out-of-core stream.Store and
// an in-memory dataset over the same system directory produce
// bit-identical training.  If the training source implements Prefetcher,
// each step's sample indices are announced one step ahead — the random
// sequence is unchanged (indices are drawn in the same order, just one
// step early) — letting the source overlap shard I/O with compute.
func TrainSource(ctx context.Context, m *Model, train, val FrameSource, cfg TrainConfig, lcurve io.Writer) (*TrainResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, errors.New("deepmd: empty training set")
	}
	if cfg.Prefactors == (LossPrefactors{}) {
		cfg.Prefactors = PaperPrefactors()
	}
	if cfg.DispFreq <= 0 {
		cfg.DispFreq = 100
	}
	h := cfg.ForceFDh
	if h <= 0 {
		h = 1e-4
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	initBias(m, train)
	m.SetThreads(cfg.Threads)
	types := train.AtomTypes()

	sched := nn.ExpDecaySchedule{Start: cfg.StartLR, Stop: cfg.StopLR, TotalSteps: cfg.Steps}
	opt := nn.NewAdam()
	params := m.Params()
	nParams := m.ParamCount()
	grads := make([][]float64, cfg.Workers)
	for w := range grads {
		grads[w] = make([]float64, nParams)
	}
	ws := &batchScratch{}
	batch := make([]*dataset.Frame, cfg.BatchSize)

	// Sampling is drawn one step ahead of consumption: idx holds the
	// current step's frame indices, nextIdx the following step's.  The
	// rng.Intn call sequence is exactly the scalar path's (step-major,
	// worker-major, batch-minor) — drawing early changes when the calls
	// happen, not their order — so seeded runs reproduce historical
	// learning curves byte for byte, with or without a prefetcher.
	prefetcher, _ := train.(Prefetcher)
	idx := make([]int, cfg.Workers*cfg.BatchSize)
	nextIdx := make([]int, cfg.Workers*cfg.BatchSize)
	drawIndices := func(dst []int) {
		for k := range dst {
			dst[k] = rng.Intn(train.Len())
		}
	}
	drawIndices(idx)
	if prefetcher != nil {
		prefetcher.Prefetch(idx)
	}

	// How many training frames each rmse_*_trn evaluation sees: ValFrames
	// capped to the training set, where 0 (like EvalErrors' contract)
	// means all frames.
	trnFrames := cfg.ValFrames
	if trnFrames <= 0 || trnFrames > train.Len() {
		trnFrames = train.Len()
	}

	res := &TrainResult{}
	writeHeader(lcurve)

	for step := 0; step < cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		baseLR := sched.At(step)
		lr := nn.WorkerScale(cfg.ScaleByWorker, baseLR, cfg.Workers)
		pe, pf := cfg.Prefactors.At(baseLR / cfg.StartLR)

		if step+1 < cfg.Steps {
			drawIndices(nextIdx)
			if prefetcher != nil {
				prefetcher.Prefetch(nextIdx)
			}
		}

		// Each simulated worker computes gradients on its own random
		// batch; the replicas are identical, so running them sequentially
		// against the shared parameters is equivalent to synchronized
		// data-parallel training.
		for w := 0; w < cfg.Workers; w++ {
			m.ZeroGrad()
			widx := idx[w*cfg.BatchSize : (w+1)*cfg.BatchSize]
			if cfg.Fast {
				for b, fi := range widx {
					fr, err := train.Frame(fi)
					if err != nil {
						return res, err
					}
					batch[b] = fr
				}
				if err := m.accumulateBatchGrad(ws, types, batch, pe, pf, h, true); err != nil {
					return res, err
				}
			} else {
				for _, fi := range widx {
					fr, err := train.Frame(fi)
					if err != nil {
						return res, err
					}
					batch[0] = fr
					if err := m.accumulateBatchGrad(ws, types, batch[:1], pe, pf, h, false); err != nil {
						return res, err
					}
				}
			}
			if cfg.BatchSize > 1 {
				scaleFlat(m, 1/float64(cfg.BatchSize))
			}
			m.FlatGrad(grads[w])
		}
		idx, nextIdx = nextIdx, idx
		if err := ddp.AllReduceMean(grads); err != nil {
			return res, err
		}
		m.SetFlatGrad(grads[0])
		opt.Step(params, lr)
		res.StepsRun = step + 1

		if (step+1)%cfg.DispFreq == 0 || step == cfg.Steps-1 {
			rec := LCurveRecord{Step: step + 1, LR: lr}
			var err error
			if rec.RmseEVal, rec.RmseFVal, err = EvalErrorsSource(m, val, cfg.ValFrames); err != nil {
				return res, err
			}
			if rec.RmseETrn, rec.RmseFTrn, err = EvalErrorsSource(m, train, trnFrames); err != nil {
				return res, err
			}
			res.LCurve = append(res.LCurve, rec)
			writeRecord(lcurve, rec)
			if !finite(rec.RmseEVal) || !finite(rec.RmseFVal) {
				return res, ErrDiverged
			}
		}
	}
	if n := len(res.LCurve); n > 0 {
		res.FinalEnergyRMSE = res.LCurve[n-1].RmseEVal
		res.FinalForceRMSE = res.LCurve[n-1].RmseFVal
	}
	return res, nil
}

// initBias sets the per-species energy bias so the untrained network
// predicts the training-set mean energy, the same trick DeePMD uses to
// avoid learning a huge constant.
func initBias(m *Model, src FrameSource) {
	natoms := len(src.AtomTypes())
	if src.Len() == 0 || natoms == 0 {
		// An empty source has no frames or no atoms to average over;
		// dividing by the atom count would poison the biases.
		return
	}
	perAtom := src.MeanEnergy() / float64(natoms)
	for t := range m.Bias {
		m.Bias[t] = perAtom
	}
}

// scaleFlat multiplies every gradient accumulator by s.
func scaleFlat(m *Model, s float64) {
	for _, pg := range m.Params() {
		for i := range pg.Grad {
			pg.Grad[i] *= s
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
