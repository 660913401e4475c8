package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ea"
	"repro/internal/hpo"
)

// Spec is the client-supplied description of one campaign: the JSON body
// of POST /v1/campaigns.  Zero fields take the documented defaults.
type Spec struct {
	// Tenant is the owning namespace; required.  Quotas and fairness are
	// enforced per tenant.
	Tenant string `json:"tenant"`
	// Name is a human label; defaults to a prefix of the campaign ID.
	Name string `json:"name,omitempty"`
	// Runs is the number of independent NSGA-II runs (default 1, max 16).
	Runs int `json:"runs,omitempty"`
	// PopSize is parents = offspring per generation (default 20, max 512).
	PopSize int `json:"pop_size,omitempty"`
	// Generations is the number of offspring generations (default 3,
	// max 10000; 0 evaluates only the initial population).
	Generations *int `json:"generations,omitempty"`
	// BaseSeed seeds the campaign's RNG streams (default 0).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// AnnealFactor multiplies mutation σ per generation (default 0.85).
	AnnealFactor float64 `json:"anneal_factor,omitempty"`
	// Parallelism is concurrent evaluations per run (default: the
	// evaluation pool's own default; the tenant in-flight quota applies
	// regardless).
	Parallelism int `json:"parallelism,omitempty"`
	// EvalTimeoutMS bounds one evaluation in milliseconds (0 = none).
	EvalTimeoutMS int64 `json:"eval_timeout_ms,omitempty"`
}

// gens returns the target offspring-generation count with the default
// applied; callers must have run validate first.
func (sp *Spec) gens() int { return *sp.Generations }

func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// validate normalizes defaults in place and rejects malformed specs.
func (sp *Spec) validate() error {
	if !validName(sp.Tenant) {
		return fmt.Errorf("service: tenant must be 1-64 chars of [a-zA-Z0-9._-], got %q", sp.Tenant)
	}
	if sp.Name != "" && !validName(sp.Name) {
		return fmt.Errorf("service: name must be 1-64 chars of [a-zA-Z0-9._-], got %q", sp.Name)
	}
	if sp.Runs == 0 {
		sp.Runs = 1
	}
	if sp.Runs < 0 || sp.Runs > 16 {
		return fmt.Errorf("service: runs must be in [1,16], got %d", sp.Runs)
	}
	if sp.PopSize == 0 {
		sp.PopSize = 20
	}
	if sp.PopSize < 0 || sp.PopSize > 512 {
		return fmt.Errorf("service: pop_size must be in [1,512], got %d", sp.PopSize)
	}
	if sp.Generations == nil {
		g := 3
		sp.Generations = &g
	}
	if *sp.Generations < 0 || *sp.Generations > 10000 {
		return fmt.Errorf("service: generations must be in [0,10000], got %d", *sp.Generations)
	}
	if sp.AnnealFactor == 0 {
		sp.AnnealFactor = 0.85
	}
	if sp.AnnealFactor < 0 || sp.AnnealFactor > 2 {
		return fmt.Errorf("service: anneal_factor must be in (0,2], got %g", sp.AnnealFactor)
	}
	if sp.Parallelism < 0 {
		return fmt.Errorf("service: parallelism must be >= 0, got %d", sp.Parallelism)
	}
	if sp.EvalTimeoutMS < 0 {
		return fmt.Errorf("service: eval_timeout_ms must be >= 0, got %d", sp.EvalTimeoutMS)
	}
	return nil
}

// State is a campaign's lifecycle position.
type State string

const (
	// StateQueued: created, awaiting admission.
	StateQueued State = "queued"
	// StateRunning: admitted, legs executing.
	StateRunning State = "running"
	// StateDone: all generations completed.
	StateDone State = "done"
	// StateFailed: a leg failed for a non-cancellation reason.
	StateFailed State = "failed"
	// StateCancelled: stopped by client request.
	StateCancelled State = "cancelled"
	// StateSuspended: interrupted by drain; resumable via Restore.
	StateSuspended State = "suspended"
)

// Terminal reports whether the state is final for the campaign (a
// suspended campaign is final only for this process — Restore requeues
// it).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Campaign is one tenant-owned NSGA-II campaign inside the service.
// Exported fields are immutable after creation; everything else is
// guarded by mu.
type Campaign struct {
	ID      string
	Tenant  string
	Spec    Spec
	Created time.Time
	ring    *Ring

	mu        sync.Mutex
	state     State
	cancel    context.CancelFunc
	cancelled bool // Cancel() requested while running (vs. drain)
	admitSeq  int64
	result    *hpo.CampaignResult
	errMsg    string
}

// emit appends an event to the campaign's ring, stamping campaign ID and
// wall time.
func (c *Campaign) emit(e Event) {
	e.Campaign = c.ID
	e.Time = now()
	c.ring.Append(e)
}

// State returns the current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Result returns the accumulated campaign result (nil before the first
// completed generation).  The returned structure is safe to read: legs
// replace it wholesale and never mutate published individuals' genomes
// or fitnesses.
func (c *Campaign) Result() *hpo.CampaignResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// Events returns the campaign's event ring.
func (c *Campaign) Events() *Ring { return c.ring }

// gensDoneLocked counts completed offspring generations.  Caller holds
// c.mu.  Generation 0 (the initial-population evaluation) is round
// zero: a result whose runs hold n generation records has n-1 offspring
// generations behind it.
func (c *Campaign) gensDoneLocked() int {
	if c.result == nil || len(c.result.Runs) == 0 {
		return 0
	}
	n := len(c.result.Runs[0].Generations) - 1
	if n < 0 {
		return 0
	}
	return n
}

// Status is the JSON shape of GET /v1/campaigns/{id}.
type Status struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Name        string `json:"name"`
	State       State  `json:"state"`
	Generations int    `json:"generations"`
	GensDone    int    `json:"gens_done"`
	Evaluations int    `json:"evaluations"`
	Failures    int    `json:"failures"`
	Frontier    int    `json:"frontier_size"`
	// AdmitSeq is the global admission order (1 = first admitted, 0 =
	// not yet admitted): the observable form of round-robin fairness.
	AdmitSeq int64  `json:"admit_seq,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Status snapshots the campaign for API responses.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:          c.ID,
		Tenant:      c.Tenant,
		Name:        c.Spec.Name,
		State:       c.state,
		Generations: c.Spec.gens(),
		GensDone:    c.gensDoneLocked(),
		AdmitSeq:    c.admitSeq,
		Error:       c.errMsg,
	}
	if c.result != nil {
		st.Evaluations = c.result.TotalEvaluations()
		st.Failures = c.result.TotalFailures()
		st.Frontier = len(c.result.ParetoFront())
	}
	return st
}

// campaignConfig builds the hpo config for one leg of c.  The evaluator
// chain is shared-memo behind the tenant's in-flight gate; gens is the
// leg length (0 for the initial-population leg, since RunCampaign's
// generation count excludes generation 0).
func (s *Service) campaignConfig(c *Campaign, t *tenant, gens int) hpo.CampaignConfig {
	return hpo.CampaignConfig{
		Runs:         c.Spec.Runs,
		PopSize:      c.Spec.PopSize,
		Generations:  gens,
		Evaluator:    gatedEvaluator{inner: s.eval, gate: t.gate},
		Parallelism:  c.Spec.Parallelism,
		EvalTimeout:  time.Duration(c.Spec.EvalTimeoutMS) * time.Millisecond,
		AnnealFactor: c.Spec.AnnealFactor,
		BaseSeed:     c.Spec.BaseSeed,
	}
}

// run executes a campaign as a sequence of one-generation legs,
// checkpointing after each.  Leg 0 evaluates the initial population
// (hpo.RunCampaign with Generations=0); every later leg resumes the
// accumulated result for exactly one generation, so each leg's RNG seed
// is hpo.ResumeSeed(BaseSeed, run, gensDone) — a pure function of how
// far the campaign has come, never of which process is executing it.
// That invariance is the whole checkpoint/resume story: a bounced
// service replays the same legs and lands on the same frontier.
func (s *Service) run(ctx context.Context, c *Campaign, t *tenant) {
	defer s.wg.Done()
	defer s.release(c, t)

	c.emit(Event{Type: "admitted"})
	s.logf("campaign_admitted", "id", c.ID, "tenant", c.Tenant, "gens_done", func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.gensDoneLocked()
	}())

	for {
		c.mu.Lock()
		prev := c.result
		target := c.Spec.gens()
		finished := prev != nil && c.gensDoneLocked() >= target
		c.mu.Unlock()
		if finished {
			break
		}

		var res *hpo.CampaignResult
		var err error
		if prev == nil {
			res, err = hpo.RunCampaign(ctx, s.campaignConfig(c, t, 0))
		} else {
			res, err = hpo.ResumeCampaign(ctx, prev, s.campaignConfig(c, t, 0), 1)
		}
		if err != nil {
			s.finishLeg(ctx, c, err)
			return
		}

		c.mu.Lock()
		c.result = res
		gd := c.gensDoneLocked()
		evals := res.TotalEvaluations()
		fails := res.TotalFailures()
		frontier := len(res.ParetoFront())
		c.mu.Unlock()

		if err := s.checkpoint(c, ""); err != nil {
			s.logf("checkpoint_error", "id", c.ID, "err", err)
		}
		c.emit(Event{Type: "generation", Gen: gd, Evals: evals, Failures: fails, Frontier: frontier})
		s.logf("campaign_generation", "id", c.ID, "tenant", c.Tenant,
			"gen", gd, "of", target, "evals", evals, "failures", fails, "frontier", frontier)
	}

	s.end(c, StateDone, Event{Type: "done"})
	s.logf("campaign_done", "id", c.ID, "tenant", c.Tenant)
}

// end moves c to a state that ends its event feed (terminal, or
// suspended by a drain) and emits the event announcing it.  The
// checkpoint recording st is written first; st and e then appear
// together under c.mu.  So once anyone can observe st, the checkpoint
// on disk already holds it, and a reader that observes st (streamSSE)
// also finds e in the ring: the feed never closes before its final
// event is written.
func (s *Service) end(c *Campaign, st State, e Event) {
	if err := s.checkpoint(c, st); err != nil {
		s.logf("checkpoint_error", "id", c.ID, "err", err)
	}
	c.mu.Lock()
	c.state = st
	c.emit(e)
	c.mu.Unlock()
}

// finishLeg classifies a failed leg: context cancellation is either a
// client cancel or a drain suspension; anything else fails the campaign.
// Either way the campaign is checkpointed so no completed generation is
// lost.
func (s *Service) finishLeg(ctx context.Context, c *Campaign, legErr error) {
	c.mu.Lock()
	var st State
	switch {
	case ctx.Err() != nil && c.cancelled:
		st = StateCancelled
	case ctx.Err() != nil:
		st = StateSuspended
	default:
		st = StateFailed
		c.errMsg = legErr.Error()
	}
	typ := string(st)
	gd := c.gensDoneLocked()
	c.mu.Unlock()

	s.end(c, st, Event{Type: typ, Gen: gd, Detail: legErr.Error()})
	s.logf("campaign_"+typ, "id", c.ID, "tenant", c.Tenant, "gens_done", gd, "err", legErr)
}

// lcurve returns the per-generation frontier-size / evaluation history
// used by GET /v1/campaigns/{id}/lcurve.
type lcurvePoint struct {
	Gen      int `json:"gen"`
	Evals    int `json:"evals"`
	Failures int `json:"failures"`
}

// Lcurve summarizes evaluation effort per completed generation round
// (round 0 is the initial population).
func (c *Campaign) Lcurve() []lcurvePoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.result == nil {
		return []lcurvePoint{}
	}
	byGen := map[int]*lcurvePoint{}
	var gens []int
	for _, run := range c.result.Runs {
		for _, rec := range run.Generations {
			p, ok := byGen[rec.Gen]
			if !ok {
				p = &lcurvePoint{Gen: rec.Gen}
				byGen[rec.Gen] = p
				gens = append(gens, rec.Gen)
			}
			p.Evals += len(rec.Evaluated)
			p.Failures += rec.Failures
		}
	}
	// Generation records arrive in order within each run, and runs are
	// lockstep, so gens is already ascending.
	out := make([]lcurvePoint, 0, len(gens))
	for _, g := range gens {
		out = append(out, *byGen[g])
	}
	return out
}

var _ ea.Evaluator = gatedEvaluator{}
