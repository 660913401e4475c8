package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
	"repro/internal/nsga2"
)

// hvGoal is a hypervolume target at a reference point.
type hvGoal struct {
	ref    ea.Fitness
	target float64
}

// hpoCampaign is one finished hpo.RunCampaign as the benchmark saw it.
type hpoCampaign struct {
	result *hpo.CampaignResult
	start  time.Time
	wall   time.Duration
	// toHV is the wall time from the campaign's start to the end of the
	// first generation whose pooled frontier reached the goal; negative
	// if it never did.
	toHV time.Duration
}

// runHPOCampaign runs cfg under an observer that pools the latest
// survivors of every run started so far and checks them against goal
// after each generation.  Runs execute one after another, so the pool at
// run r, generation g holds the final populations of runs 0..r-1 and the
// current survivors of run r.  clock is nil in untraced runs.
func runHPOCampaign(ctx context.Context, cfg hpo.CampaignConfig, goal hvGoal, clock *genClock) (hpoCampaign, error) {
	survivors := make([]ea.Population, cfg.Runs)
	c := hpoCampaign{toHV: -1}
	cfg.Observer = func(run, gen int, _, surv ea.Population) {
		end := time.Now()
		if c.toHV < 0 {
			survivors[run] = surv
			var pool ea.Population
			for _, p := range survivors {
				pool = append(pool, p...)
			}
			if nsga2.Hypervolume2D(pool, goal.ref) >= goal.target {
				c.toHV = end.Sub(c.start)
			}
		}
		if clock != nil {
			clock.generationDone(run, gen, gen == cfg.Generations, end, time.Now())
		}
	}
	c.start = time.Now()
	if clock != nil {
		clock.begin(c.start)
	}
	res, err := hpo.RunCampaign(ctx, cfg)
	end := time.Now()
	c.wall = end.Sub(c.start)
	c.result = res
	if clock != nil {
		clock.end(cfg.BaseSeed, c.start, end)
	}
	return c, err
}

// evaluationDigest hashes every evaluated genome and its fitness bits in
// campaign order: equal digests mean byte-identical fitness output.
func evaluationDigest(res *hpo.CampaignResult) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, run := range res.Runs {
		for _, gen := range run.Generations {
			for _, ind := range gen.Evaluated {
				for _, v := range ind.Genome {
					put(v)
				}
				for _, v := range ind.Fitness {
					put(v)
				}
			}
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
