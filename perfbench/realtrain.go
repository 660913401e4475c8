package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/dataset/stream"
	"repro/internal/deepmd"
	"repro/internal/ea"
	"repro/internal/experiments"
	"repro/internal/hpo"
	"repro/internal/md"
)

// The real-train system: a 50-atom AlCl₃/KCl cell with the paper's
// composition ratio (32 Al : 16 K : 112 Cl, scaled to 10 : 5 : 35) at the
// paper's number density (160 atoms in a 17.84 Å box).
const (
	rtBox        = 12.106 // Å: 17.84 · (50/160)^(1/3)
	rtFrames     = 48     // 36 training + 12 validation frames
	rtSetFrames  = 8      // frames per set.NNN shard
	rtCacheShare = 3      // the frame cache holds a third of the training set
	rtPop        = 4
	rtSteps      = 10
)

// realGoal is real-train's hypervolume target.  Ten-step trainings are
// far from the paper's losses, so its reference point is wide: a
// training reaches the target unless its energy error exceeds about
// 4.6 eV/atom.
var realGoal = hvGoal{ref: ea.Fitness{10, 10}, target: 50}

// realData is the generated data set, opened out of core.
type realData struct {
	train, val *stream.Store
	trainDir   string
	valDir     string
}

func (d *realData) close() {
	d.train.Close()
	d.val.Close()
}

// newRealData generates the reference trajectory with the MD engine,
// saves it as DeePMD npy sets and opens both halves with a frame cache
// smaller than the training set.
func newRealData(seed int64, dir string) (*realData, error) {
	var species []md.Species
	for i := 0; i < 50; i++ {
		switch {
		case i < 10:
			species = append(species, md.Al)
		case i < 15:
			species = append(species, md.K)
		default:
			species = append(species, md.Cl)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	data := dataset.Generate(rng, species, rtBox, 498, md.NewPaperBMH(5.5), 0.5, 200, 5, rtFrames)
	data.Shuffle(rng)
	train, val := data.Split(0.25)
	d := &realData{trainDir: filepath.Join(dir, "train"), valDir: filepath.Join(dir, "val")}
	if err := train.Save(d.trainDir, rtSetFrames); err != nil {
		return nil, err
	}
	if err := val.Save(d.valDir, rtSetFrames); err != nil {
		return nil, err
	}
	// Budget in the store's own accounting: 16·3N bytes plus overhead
	// per frame.
	perFrame := int64(16*3*len(species)) + 64
	var err error
	if d.train, err = stream.Open(d.trainDir, stream.Options{CacheBytes: perFrame * int64(train.Len()/rtCacheShare), Prefetch: 8}); err != nil {
		return nil, err
	}
	if d.val, err = stream.Open(d.valDir, stream.Options{CacheBytes: perFrame * int64(val.Len()/rtCacheShare), Prefetch: 8}); err != nil {
		d.train.Close()
		return nil, err
	}
	return d, nil
}

// realTrain runs reduced real-trainer campaigns (4 individuals, one
// offspring generation, ten steps per training at the paper's network
// widths) back to back through the §2.2.4 workflow.  The workload seed
// draws the MD data and the training seed.  Every campaign starts from
// the paper's campaign seed: a training's cost depends on its cutoff and
// activations, and candidates drawn per workload seed would move the
// campaign time from seed to seed by more than the benchmark's bound.
// Each campaign after the first repeats it, and its fitness bytes are
// compared with the first one's.
func realTrain(ctx context.Context, rc *runConfig) (*outcome, error) {
	o := &outcome{}
	var data *realData
	for i := 0; i < setupRepeats; i++ {
		if data != nil {
			data.close()
		}
		start := time.Now()
		var err error
		if data, err = newRealData(rc.seed, filepath.Join(rc.work, fmt.Sprintf("data%d", i))); err != nil {
			return nil, fmt.Errorf("real-train set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}
	defer data.close()

	var clock *genClock
	if rc.probe != nil {
		clock = &genClock{p: rc.probe}
	}
	digests := map[int64][32]byte{}
	trainStats0, valStats0 := data.train.Stats(), data.val.Stats()
	o.beginWindow()
	deadline := o.start.Add(rc.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		seed := experiments.PaperOptions().Seed
		runDir := filepath.Join(rc.work, fmt.Sprintf("campaign%d", i))
		c, err := data.campaign(ctx, rc.seed, seed, 1, runDir, rc.probe, clock)
		if err != nil {
			return nil, fmt.Errorf("real-train campaign %d: %w", seed, err)
		}
		checkRealCampaign(o, c.result, seed, runDir, digests)
		o.campaign(c.start, c.start.Add(c.wall), c.toHV, c.result.TotalEvaluations(), true)
		if err := os.RemoveAll(runDir); err != nil {
			return nil, err
		}
	}
	o.endWindow()

	if p := rc.probe; p != nil {
		ts, vs := data.train.Stats(), data.val.Stats()
		hits := float64(ts.Hits - trainStats0.Hits + vs.Hits - valStats0.Hits)
		misses := float64(ts.Misses - trainStats0.Misses + vs.Misses - valStats0.Misses)
		prefetched := float64(ts.Prefetched - trainStats0.Prefetched + vs.Prefetched - valStats0.Prefetched)
		// A frame load reads one coordinate and one force row of 3N
		// float64s and a 9-float64 box row.
		rowBytes := float64(2*8*3*ts.NAtoms + 9*8)
		p.set("stream.hit_ratio", ratio(hits, hits+misses))
		p.set("stream.evictions", float64(ts.Evictions-trainStats0.Evictions+vs.Evictions-valStats0.Evictions))
		p.set("stream.prefetched", prefetched)
		p.set("stream.bytes_read_computed", (misses+prefetched)*rowBytes)
	}
	return o, nil
}

// campaign runs one reduced campaign with BaseSeed seed and the given
// number of offspring generations through the workflow evaluator, which
// keeps every training's run directory under runDir.  Trainings draw
// their model and sampling seed from the workload seed.  With a probe,
// the evaluator, the trainer and both frame sources are traced.
func (d *realData) campaign(ctx context.Context, workloadSeed, seed int64, gens int, runDir string, p *probe, clock *genClock) (hpoCampaign, error) {
	var train, val deepmd.FrameSource = d.train, d.val
	if p != nil {
		train, val = traceSource(train, p), traceSource(val, p)
	}
	rt := &hpo.RealTrainer{Train: train, Val: val, Workers: 1, ValFrames: 4}
	var trainer hpo.Trainer = hpo.TrainerFunc(rt.TrainRun)
	if p != nil {
		trainer = &tracedTrainer{inner: trainer, p: p}
	}
	var ev ea.Evaluator = &hpo.WorkflowEvaluator{
		WorkDir: runDir, Steps: rtSteps, DispFreq: rtSteps, Seed: workloadSeed,
		TrainDir: d.trainDir, ValDir: d.valDir,
		Trainer: trainer, Keep: true,
	}
	if clock != nil {
		ev = &tracedEvaluator{inner: ev, clock: clock}
	}
	return runHPOCampaign(ctx, hpo.CampaignConfig{
		Runs: 1, PopSize: rtPop, Generations: gens, Parallelism: rtPop,
		Evaluator: ev, AnnealFactor: 0.85, BaseSeed: seed,
	}, realGoal, clock)
}

// checkRealCampaign counts each training as an operation (failed for any
// error but divergence, the paper's MAXINT training failure), plus the
// output checks: every training left an lcurve.out, and a repeated seed
// produced the same fitness bytes.
func checkRealCampaign(o *outcome, res *hpo.CampaignResult, seed int64, runDir string, digests map[int64][32]byte) {
	var n, bad int64
	for _, run := range res.Runs {
		for _, gen := range run.Generations {
			for _, ind := range gen.Evaluated {
				n++
				if !ind.Evaluated || (ind.Err != nil && !errors.Is(ind.Err, deepmd.ErrDiverged)) {
					bad++
				}
			}
		}
	}
	o.ops(n, bad, "training error")
	curves, _ := filepath.Glob(filepath.Join(runDir, "*", "lcurve.out"))
	o.op(len(curves) == res.TotalEvaluations(), fmt.Sprintf("seed %d: %d lcurve.out files for %d trainings", seed, len(curves), res.TotalEvaluations()))
	d := evaluationDigest(res)
	if prev, seen := digests[seed]; seen {
		o.op(prev == d, fmt.Sprintf("seed %d: fitness bytes differ between repetitions", seed))
	} else {
		digests[seed] = d
	}
}
