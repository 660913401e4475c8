package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ea"
	"repro/internal/experiments"
	"repro/internal/hpo"
	"repro/internal/nsga2"
	"repro/internal/service"
	"repro/internal/surrogate"
)

const (
	// fleetWorkers is one worker per individual, as on Summit.
	fleetWorkers = 100
	// fleetBatch is larger than the service's default
	// MaxActivePerTenant (2), so every batch queues for admission.
	fleetBatch = 3
	// simulatedHour is what one hour of simulated training sleeps for.
	simulatedHour = 3 * time.Millisecond
)

// fleetGoal is service-fleet's hypervolume target at the paper's
// reference point.  About 98% of campaigns reach it with generation 0,
// so time_to_hv_s reads the latency to the first generation, admission
// wait included.  Higher targets split campaigns between generations 0
// and 1 and put the median on that boundary.
var fleetGoal = hvGoal{ref: experiments.RefPoint, target: 0.0167}

// fleet is an in-process service in front of a local cluster, served
// over HTTP, with one client per tenant.
type fleet struct {
	lc      *cluster.LocalCluster
	svc     *service.Service
	srv     *http.Server
	served  chan struct{}
	base    string
	ckptDir string
	tenants [2]*http.Client

	simFailures atomic.Int64 // simulated training failures returned by handlers
	handlerErrs atomic.Int64 // handler errors of any other kind
	returned    atomic.Int64 // cluster evaluations that returned (traced runs)
}

func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// newFleet starts the scheduler with its 100 workers over a
// 2-connection mux pool, the service (checkpointing, memo on) on top of
// it, and an HTTP server for its handler; each tenant client holds one
// keep-alive connection (HTTP/2 without TLS, so a tenant's requests and
// event streams share that one connection).
func newFleet(dir string, p *probe) (*fleet, error) {
	f := &fleet{ckptDir: dir, served: make(chan struct{})}
	// The surrogate is the simulated fleet's physics, the same for every
	// run; the workload seed draws the campaigns.
	sur := surrogate.NewEvaluator(surrogate.Config{Seed: experiments.PaperOptions().Seed})
	handler := cluster.EvalHandler(ea.EvaluatorFunc(func(ctx context.Context, g ea.Genome) (ea.Fitness, error) {
		start := time.Now()
		r, err := sur.EvaluateGenome(g)
		if p != nil {
			p.surrogateUS.add(us(time.Since(start)))
		}
		if err != nil {
			f.handlerErrs.Add(1)
			return nil, err
		}
		t := time.NewTimer(time.Duration(float64(r.Runtime) / float64(time.Hour) * float64(simulatedHour)))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			f.handlerErrs.Add(1)
			return nil, ctx.Err()
		}
		if r.Failed {
			f.simFailures.Add(1)
			return nil, fmt.Errorf("surrogate: training failed after %v", r.Runtime)
		}
		return ea.Fitness{r.EnergyLoss, r.ForceLoss}, nil
	}))
	if p != nil {
		handler = traceHandler(handler, p)
	}
	lc, err := cluster.NewLocalCluster(fleetWorkers, handler, 0, cluster.WithMuxConns(2))
	if err != nil {
		return nil, err
	}
	f.lc = lc
	for deadline := time.Now().Add(30 * time.Second); lc.Scheduler.Stats().Workers < fleetWorkers; {
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("workers did not register"), lc.Close())
		}
		time.Sleep(100 * time.Microsecond)
	}
	var ev ea.Evaluator = &cluster.Evaluator{Client: lc.Client}
	if p != nil {
		ev = &dispatchEvaluator{inner: ev, p: p, returned: &f.returned}
	}
	// A tenant's in-flight quota fits both of its running campaigns at
	// full parallelism, so each generation's 100 individuals are out at
	// once, as on Summit.  At the default (64) the two campaigns starve
	// each other at the quota, and the time to the first generation
	// spread too widely for a steady median.
	svcCfg := service.Config{Evaluator: ev, CheckpointDir: dir, MaxInFlightPerTenant: 2 * fleetWorkers}
	if f.svc, err = service.New(svcCfg); err != nil {
		return nil, errors.Join(err, lc.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, lc.Close())
	}
	h := f.svc.Handler()
	if p != nil {
		h = traceHTTP(h, p)
	}
	f.srv = &http.Server{Handler: h, Protocols: h2c()}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed from close
	}()
	f.base = "http://" + ln.Addr().String()
	for i := range f.tenants {
		f.tenants[i] = &http.Client{Transport: &http.Transport{Protocols: h2c()}}
		resp, err := f.tenants[i].Get(f.base + "/healthz")
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return f, nil
}

func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.svc.Drain(ctx)
	for _, c := range f.tenants {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	err = errors.Join(err, f.srv.Close())
	<-f.served
	return errors.Join(err, f.lc.Close())
}

// request performs one HTTP call as an operation: a transport error or
// a non-2xx status fails it.
func (f *fleet) request(o *outcome, c *http.Client, method, path string, body []byte, hdr map[string]string) (*http.Response, error) {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		o.op(false, fmt.Sprintf("%s %s: %v", method, path, err))
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.op(false, fmt.Sprintf("%s %s: %s %s", method, path, resp.Status, bytes.TrimSpace(b)))
		return nil, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	o.op(true, "")
	return resp, nil
}

func (f *fleet) get(o *outcome, c *http.Client, path string) ([]byte, error) {
	resp, err := f.request(o, c, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// campaignOutput is what a finished campaign served: the bytes of its
// /frontier and /lcurve documents.
type campaignOutput struct {
	frontier, lcurve []byte
}

func (co campaignOutput) digest() [32]byte {
	return sha256.Sum256(append(append([]byte(nil), co.frontier...), co.lcurve...))
}

// runCampaign creates one paper-shape campaign, follows its event stream
// until done and fetches its outputs.  Time to the hypervolume target
// is taken at the first generation event after which the served
// frontier reaches it.  timed selects whether the campaign's times are
// samples of campaign_s and time_to_hv_s.
func (f *fleet) runCampaign(o *outcome, p *probe, c *http.Client, tenant string, seed int64, timed bool) (campaignOutput, bool) {
	spec, _ := json.Marshal(map[string]interface{}{
		"tenant": tenant, "runs": 5, "pop_size": 100, "generations": 6,
		"base_seed": seed, "parallelism": fleetWorkers,
	})
	start := time.Now()
	resp, err := f.request(o, c, http.MethodPost, "/v1/campaigns", spec, map[string]string{"Content-Type": "application/json"})
	if err != nil {
		return campaignOutput{}, false
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		o.op(false, "decoding campaign status: "+err.Error())
		return campaignOutput{}, false
	}
	ckpt := filepath.Join(f.ckptDir, st.ID+".json")
	toHV := time.Duration(-1)
	var created time.Time
	var evals int
	var ckptSum int64
	var after uint64
	done := false
	// handle reacts to one event; it returns false when the campaign
	// ended in any state but done.
	handle := func(ev service.Event) bool {
		after = ev.Seq
		switch ev.Type {
		case "created":
			created = ev.Time
		case "admitted":
			if p != nil {
				p.admissionMS.add(ms(ev.Time.Sub(created)))
			}
		case "generation":
			at := time.Now()
			evals = ev.Evals
			if p != nil {
				if fi, err := os.Stat(ckpt); err == nil {
					ckptSum += fi.Size()
				}
			}
			if toHV < 0 {
				if reached, err := f.frontierReaches(o, c, st.ID); err == nil && reached {
					toHV = at.Sub(start)
				}
			}
		case "done":
			done = true
		case "failed", "cancelled", "suspended":
			o.op(false, fmt.Sprintf("campaign %d ended %s: %s", seed, ev.Type, ev.Detail))
			return false
		}
		return true
	}
	// Follow the event stream until a terminal event.  A stream that
	// closes before delivering one is counted, and the rest of the events
	// are taken from the service's long-poll feed, which waits for them.
	resp, err = f.request(o, c, http.MethodGet, "/v1/campaigns/"+st.ID+"/events", nil, map[string]string{"Accept": "text/event-stream"})
	if err != nil {
		return campaignOutput{}, false
	}
	sc := bufio.NewScanner(resp.Body)
	for !done && sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			o.op(false, "decoding event: "+err.Error())
			resp.Body.Close()
			return campaignOutput{}, false
		}
		if !handle(ev) {
			resp.Body.Close()
			return campaignOutput{}, false
		}
	}
	resp.Body.Close()
	if !done {
		p.bump("service.sse_early_closes")
	}
	for !done {
		b, err := f.get(o, c, fmt.Sprintf("/v1/campaigns/%s/events?after=%d&wait_ms=60000", st.ID, after))
		if err != nil {
			return campaignOutput{}, false
		}
		var batch struct {
			Events []service.Event `json:"events"`
		}
		if err := json.Unmarshal(b, &batch); err != nil {
			o.op(false, "decoding events: "+err.Error())
			return campaignOutput{}, false
		}
		for _, ev := range batch.Events {
			if !handle(ev) {
				return campaignOutput{}, false
			}
		}
	}
	end := time.Now()
	if p != nil {
		ret := f.returned.Load()
		books := f.lc.Scheduler.Stats()
		if books.Completed+books.Failed < ret {
			p.bump("cluster.books_unbalanced")
		}
		p.ckptSum.add(float64(ckptSum))
		if fi, err := os.Stat(ckpt); err == nil {
			p.ckptFinal.add(float64(fi.Size()))
		}
	}
	o.campaign(start, end, toHV, evals, timed)
	var out campaignOutput
	if out.frontier, err = f.get(o, c, "/v1/campaigns/"+st.ID+"/frontier"); err != nil {
		return out, false
	}
	if out.lcurve, err = f.get(o, c, "/v1/campaigns/"+st.ID+"/lcurve"); err != nil {
		return out, false
	}
	return out, true
}

func (f *fleet) frontierReaches(o *outcome, c *http.Client, id string) (bool, error) {
	b, err := f.get(o, c, "/v1/campaigns/"+id+"/frontier")
	if err != nil {
		return false, err
	}
	var doc struct {
		Points []struct {
			Fitness hpo.JSONFloats `json:"fitness"`
		} `json:"points"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		o.op(false, "decoding frontier: "+err.Error())
		return false, err
	}
	pop := make(ea.Population, len(doc.Points))
	for i, pt := range doc.Points {
		pop[i] = &ea.Individual{Fitness: ea.Fitness(pt.Fitness), Evaluated: true}
	}
	return nsga2.Hypervolume2D(pop, fleetGoal.ref) >= fleetGoal.target, nil
}

// replayLog holds tenant A's finished seeds and their outputs.  Tenant
// B replays each seed once, in the order A finished them, so its load
// follows A's seed for seed.
type replayLog struct {
	mu      sync.Mutex
	ready   *sync.Cond
	seeds   []int64
	outputs map[int64][32]byte
	next    int
	closed  bool
}

func newReplayLog() *replayLog {
	r := &replayLog{outputs: map[int64][32]byte{}}
	r.ready = sync.NewCond(&r.mu)
	return r
}

func (r *replayLog) finished(seed int64, d [32]byte) {
	r.mu.Lock()
	r.seeds = append(r.seeds, seed)
	r.outputs[seed] = d
	r.mu.Unlock()
	r.ready.Broadcast()
}

// close wakes a waiting take for good: tenant A submits no more.
func (r *replayLog) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.ready.Broadcast()
}

// take waits for n seeds not yet replayed and returns them, or nil once
// the log is closed without n more.
func (r *replayLog) take(n int) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.seeds)-r.next < n && !r.closed {
		r.ready.Wait()
	}
	if len(r.seeds)-r.next < n {
		return nil
	}
	out := append([]int64(nil), r.seeds[r.next:r.next+n]...)
	r.next += n
	return out
}

func (r *replayLog) original(seed int64) [32]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outputs[seed]
}

// serviceFleet drives the service with two tenants in a closed loop.
// Tenant A submits batches of fresh seeds, so its campaigns fill the
// memo; tenant B replays seeds A has finished, so its campaigns read
// the memo, and checks that a replay serves the same frontier and lcurve
// bytes as the original.  campaign_s and time_to_hv_s are taken over A's
// campaigns: a replay is answered from the memo in a fraction of the
// time, so a median over both would depend on the mix, not on the
// service.  Both tenants' evaluations count in evals_per_s.
func serviceFleet(ctx context.Context, rc *runConfig) (*outcome, error) {
	o := &outcome{}
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = newFleet(filepath.Join(rc.work, fmt.Sprintf("ckpt%d", i)), rc.probe); err != nil {
			return nil, fmt.Errorf("service-fleet set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	log := newReplayLog()
	fresh := 0
	freshBatch := func() []int64 {
		seeds := make([]int64, fleetBatch)
		for i := range seeds {
			seeds[i] = rc.seed*1_000_003 + int64(fresh)
			fresh++
		}
		return seeds
	}
	// batch runs one tenant's batch and waits for all of it.
	batch := func(o *outcome, tenant int, seeds []int64, each func(seed int64, out campaignOutput)) {
		timed := tenant == 0
		var wg sync.WaitGroup
		for _, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if out, ok := f.runCampaign(o, rc.probe, f.tenants[tenant], []string{"tenant-a", "tenant-b"}[tenant], seed, timed); ok {
					each(seed, out)
				}
			}()
		}
		wg.Wait()
	}
	recordFresh := func(seed int64, out campaignOutput) { log.finished(seed, out.digest()) }

	// Prime: tenant A's first batch gives tenant B seeds to replay.  It
	// runs before the window and counts in no metric.
	prime := &outcome{}
	batch(prime, 0, freshBatch(), recordFresh)
	if len(log.seeds) == 0 {
		return nil, fmt.Errorf("service-fleet: priming batch failed: %v", prime.problems)
	}
	rc.probe.reset()

	st0, memo0 := f.lc.Scheduler.Stats(), f.svc.MemoStats()
	wire0, smux0, dmux0 := f.lc.Scheduler.Wire(), f.lc.Scheduler.Mux(), f.lc.Dialer.Stats()
	sim0, herr0 := f.simFailures.Load(), f.handlerErrs.Load()
	o.beginWindow()
	deadline := o.start.Add(rc.duration)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer log.close()
		for time.Now().Before(deadline) {
			batch(o, 0, freshBatch(), recordFresh)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			seeds := log.take(fleetBatch)
			if seeds == nil {
				return
			}
			batch(o, 1, seeds, func(seed int64, out campaignOutput) {
				o.op(out.digest() == log.original(seed), fmt.Sprintf("seed %d: replayed /frontier or /lcurve bytes differ from the original", seed))
			})
		}
	}()
	wg.Wait()
	o.endWindow()

	st, memo := f.lc.Scheduler.Stats(), f.svc.MemoStats()
	// Every evaluation is an operation; it failed if the scheduler failed
	// its task for any reason but a simulated training failure.
	sim, herr := f.simFailures.Load()-sim0, f.handlerErrs.Load()-herr0
	o.ops(o.evals, st.Failed-st0.Failed-sim, "cluster task failed (not a simulated training failure)")
	if herr > 0 {
		o.ops(0, herr, "worker handler error")
	}
	if p := rc.probe; p != nil {
		wire, smux, dmux := f.lc.Scheduler.Wire(), f.lc.Scheduler.Mux(), f.lc.Dialer.Stats()
		tasks := float64(st.Submitted - st0.Submitted)
		hits, misses := float64(memo.Hits-memo0.Hits), float64(memo.Misses-memo0.Misses)
		framesOut := float64(smux.FramesOut - smux0.FramesOut + dmux.FramesOut - dmux0.FramesOut)
		flushes := float64(smux.Flushes - smux0.Flushes + dmux.Flushes - dmux0.Flushes)
		coalesced := float64(smux.CoalescedFrames - smux0.CoalescedFrames + dmux.CoalescedFrames - dmux0.CoalescedFrames)
		p.set("memo.hits", hits)
		p.set("memo.misses", misses)
		p.set("memo.hit_ratio", ratio(hits, hits+misses))
		p.set("cluster.reassigned", float64(st.Reassigned-st0.Reassigned))
		p.set("cluster.stale", float64(st.Stale-st0.Stale))
		p.set("cluster.queue_waits", float64(st.QueueWaits-st0.QueueWaits))
		p.set("wire.bytes_per_task", ratio(float64(wire.BytesIn-wire0.BytesIn+wire.BytesOut-wire0.BytesOut), tasks))
		p.set("wire.frames_per_task", ratio(float64(wire.FramesIn-wire0.FramesIn+wire.FramesOut-wire0.FramesOut), tasks))
		p.set("wire.decode_errors", float64(wire.DecodeErrors-wire0.DecodeErrors))
		p.set("mux.frames_per_flush", ratio(framesOut, flushes))
		p.set("mux.coalesced_share", ratio(coalesced, framesOut))
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	return o, nil
}
