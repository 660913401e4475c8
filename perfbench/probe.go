package main

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/deepmd"
	"repro/internal/ea"
	"repro/internal/hpo"
)

// probe collects the per-layer numbers of a traced run.  Every sample is
// taken in the benchmark's own code: around calls into public functions
// and in wrappers of the interfaces the program accepts.  The wrappers
// pass arguments and results through untouched, so a traced run computes
// exactly what an untraced one does.
type probe struct {
	tr *tracer

	genStep    samples // nsga2.step_ms: generation wall minus evaluation window
	evalWindow samples // ea.eval_window_ms
	evalBusyMS float64 // Σ evaluation time inside generation windows
	evalWinMS  float64 // Σ generation evaluation windows

	surrogateUS samples // surrogate.eval_us

	workflowMS samples // hpo.workflow_ms: Evaluate minus Trainer time
	trainS     samples // deepmd.train_s
	stepMS     samples // deepmd.step_ms
	trainSteps int64
	frameUS    samples // stream.frame_us

	dispatchUS  samples // cluster.dispatch_us
	handlerBusy samples // handler seconds, for cluster.worker_busy_ratio
	handlerMu   sync.Mutex
	handlerByID map[string]time.Duration

	createMS    samples // service.create_ms
	admissionMS samples // service.admission_wait_ms
	ckptSum     samples // checkpoint.bytes_per_campaign
	ckptFinal   samples // checkpoint.final_bytes

	mu     sync.Mutex
	layers map[string]float64 // counter-derived per-layer values
}

func newProbe(tr *tracer) *probe {
	return &probe{tr: tr, handlerByID: map[string]time.Duration{}, layers: map[string]float64{}}
}

func (p *probe) set(name string, v float64) {
	p.mu.Lock()
	p.layers[name] = v
	p.mu.Unlock()
}

// bump adds one to a counter-derived per-layer value; a nil probe
// ignores it.
func (p *probe) bump(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.layers[name]++
	p.mu.Unlock()
}

// reset forgets the samples taken so far, for work done before the
// measurement window.  Nothing may be using the probe meanwhile.  A nil
// probe is left alone.
func (p *probe) reset() {
	if p == nil {
		return
	}
	for _, s := range []*samples{&p.genStep, &p.evalWindow, &p.surrogateUS, &p.workflowMS, &p.trainS,
		&p.stepMS, &p.frameUS, &p.dispatchUS, &p.handlerBusy, &p.createMS, &p.admissionMS, &p.ckptSum, &p.ckptFinal} {
		s.reset()
	}
	p.evalBusyMS, p.evalWinMS, p.trainSteps = 0, 0, 0
	p.mu.Lock()
	p.layers = map[string]float64{}
	p.mu.Unlock()
}

// evalRecord travels in the context of one traced evaluation so the
// trainer wrapper can hand its time back to the evaluator wrapper.
type evalRecord struct {
	id    uint64
	train time.Duration
}

type evalRecordKey struct{}

// genClock follows one hpo campaign through its runs and generations
// (campaigns of the hpo workloads run one at a time).  It turns the
// campaign observer's callbacks and the traced evaluator's calls into
// generation windows and spans.
type genClock struct {
	p *probe

	mu         sync.Mutex
	campaignID uint64
	runID      uint64
	genID      uint64
	runStart   time.Time
	genStart   time.Time
	first      time.Time // first evaluation start in this generation
	last       time.Time // last evaluation end in this generation
	busy       time.Duration
}

func (c *genClock) begin(start time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.campaignID = c.p.tr.newID()
	c.runID = c.p.tr.newID()
	c.genID = c.p.tr.newID()
	c.runStart, c.genStart = start, start
	c.first, c.last, c.busy = time.Time{}, time.Time{}, 0
}

func (c *genClock) evalDone(g ea.Genome, id uint64, start, end time.Time) {
	c.mu.Lock()
	if c.first.IsZero() || start.Before(c.first) {
		c.first = start
	}
	if end.After(c.last) {
		c.last = end
	}
	c.busy += end.Sub(start)
	parent := c.genID
	c.mu.Unlock()
	c.p.tr.record("ea.evaluate", id, parent, genomeID(g), start, end)
}

// generationDone closes generation gen of run at end; lastGen marks the
// run's final generation.  resume is when the campaign continues (after
// the benchmark's own observer work).
func (c *genClock) generationDone(run, gen int, lastGen bool, end, resume time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wall := end.Sub(c.genStart)
	var window time.Duration
	if !c.first.IsZero() {
		window = c.last.Sub(c.first)
	}
	c.p.genStep.add(ms(wall - window))
	c.p.evalWindow.add(ms(window))
	c.p.evalBusyMS += ms(c.busy)
	c.p.evalWinMS += ms(window)
	c.p.tr.record("nsga2.generation", c.genID, c.runID, uint64(gen), c.genStart, end)
	if lastGen {
		c.p.tr.record("hpo.run", c.runID, c.campaignID, uint64(run), c.runStart, end)
		c.runID = c.p.tr.newID()
		c.runStart = resume
	}
	c.genID = c.p.tr.newID()
	c.genStart = resume
	c.first, c.last, c.busy = time.Time{}, time.Time{}, 0
}

func (c *genClock) end(seed int64, start, end time.Time) {
	c.mu.Lock()
	id := c.campaignID
	c.mu.Unlock()
	c.p.tr.record("hpo.campaign", id, 0, uint64(seed), start, end)
}

// tracedEvaluator wraps the ea.Evaluator a campaign scores genomes with.
type tracedEvaluator struct {
	inner ea.Evaluator
	clock *genClock
	// leaf marks an inner evaluator that is the surrogate itself, whose
	// time is then the surrogate layer's.
	leaf bool
}

func (e *tracedEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	p := e.clock.p
	rec := &evalRecord{id: p.tr.newID()}
	start := time.Now()
	fit, err := e.inner.Evaluate(context.WithValue(ctx, evalRecordKey{}, rec), g)
	end := time.Now()
	e.clock.evalDone(g, rec.id, start, end)
	if e.leaf {
		p.surrogateUS.add(us(end.Sub(start)))
	}
	if rec.train > 0 {
		p.workflowMS.add(ms(end.Sub(start) - rec.train))
	}
	return fit, err
}

// tracedTrainer wraps the hpo.Trainer of the workflow evaluator.
type tracedTrainer struct {
	inner hpo.Trainer
	p     *probe
}

func (t *tracedTrainer) Train(ctx context.Context, inputPath, runDir string) error {
	start := time.Now()
	err := t.inner.Train(ctx, inputPath, runDir)
	end := time.Now()
	d := end.Sub(start)
	var parent uint64
	if rec, ok := ctx.Value(evalRecordKey{}).(*evalRecord); ok {
		rec.train = d
		parent = rec.id
	}
	t.p.tr.record("deepmd.train", t.p.tr.newID(), parent, 0, start, end)
	if steps := lcurveSteps(runDir); steps > 0 {
		t.p.trainS.add(d.Seconds())
		t.p.stepMS.add(ms(d) / float64(steps))
		t.p.mu.Lock()
		t.p.trainSteps += int64(steps)
		t.p.mu.Unlock()
	}
	return err
}

// tracedSource wraps a deepmd.FrameSource and times every frame read.
type tracedSource struct {
	inner deepmd.FrameSource
	p     *probe
}

func (s *tracedSource) Len() int            { return s.inner.Len() }
func (s *tracedSource) AtomTypes() []int    { return s.inner.AtomTypes() }
func (s *tracedSource) MeanEnergy() float64 { return s.inner.MeanEnergy() }

func (s *tracedSource) Frame(i int) (*dataset.Frame, error) {
	start := time.Now()
	fr, err := s.inner.Frame(i)
	s.p.frameUS.add(us(time.Since(start)))
	return fr, err
}

// prefetchingSource is a tracedSource over a source that prefetches.
// Training looks for deepmd.Prefetcher on the source it is given; hiding
// it would make the traced run a different program.
type prefetchingSource struct {
	*tracedSource
	pf deepmd.Prefetcher
}

func (s prefetchingSource) Prefetch(indices []int) { s.pf.Prefetch(indices) }

func traceSource(src deepmd.FrameSource, p *probe) deepmd.FrameSource {
	ts := &tracedSource{inner: src, p: p}
	if pf, ok := src.(deepmd.Prefetcher); ok {
		return prefetchingSource{tracedSource: ts, pf: pf}
	}
	return ts
}

// traceHandler wraps a worker's cluster.Handler: its time is the
// worker's busy time, keyed by genome so the client-side evaluator
// wrapper can subtract it from the round trip.
func traceHandler(h cluster.Handler, p *probe) cluster.Handler {
	return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		start := time.Now()
		out, err := h(ctx, payload)
		d := time.Since(start)
		p.handlerBusy.add(d.Seconds())
		var task struct {
			Genome []float64 `json:"genome"`
		}
		if json.Unmarshal(payload, &task) == nil {
			p.handlerMu.Lock()
			p.handlerByID[ea.GenomeKey(task.Genome)] = d
			p.handlerMu.Unlock()
		}
		return out, err
	}
}

// dispatchEvaluator wraps the cluster evaluator the service scores
// genomes with: Evaluate wall time minus the handler time of the same
// task is the time spent in dispatch (queue, lease, wire, mux).
type dispatchEvaluator struct {
	inner ea.Evaluator
	p     *probe
	// returned counts Evaluate calls that have returned, for the
	// balanced-books check.
	returned *atomic.Int64
}

func (e *dispatchEvaluator) Evaluate(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
	start := time.Now()
	fit, err := e.inner.Evaluate(ctx, g)
	end := time.Now()
	key := ea.GenomeKey(g)
	e.p.handlerMu.Lock()
	h, ok := e.p.handlerByID[key]
	delete(e.p.handlerByID, key)
	e.p.handlerMu.Unlock()
	if ok {
		e.p.dispatchUS.add(us(end.Sub(start) - h))
	}
	e.p.tr.record("cluster.evaluate", e.p.tr.newID(), 0, genomeID(g), start, end)
	e.returned.Add(1)
	return fit, err
}

// traceHTTP wraps service.Handler() and times campaign creation.
func traceHTTP(h http.Handler, p *probe) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaigns") {
			p.createMS.add(ms(end.Sub(start)))
			p.tr.record("service.create", p.tr.newID(), 0, 0, start, end)
		}
	})
}

// lcurveSteps is the last step a training wrote to its lcurve.out, or 0.
func lcurveSteps(runDir string) int {
	recs, err := deepmd.ReadLCurveFile(filepath.Join(runDir, "lcurve.out"))
	if err != nil || len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Step
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
