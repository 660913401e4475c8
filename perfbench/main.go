// Command perfbench is the repository's campaign benchmark.  It runs one
// workload for a fixed wall time from a single process, checks the
// outputs, and prints every metric by name with its unit.  The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run is split into an untraced and a traced half and
// the metrics are the per-layer ones, plus the tracing overhead.
//
//	bash perfbench/run.sh --workload paper-surrogate --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runConfig is what a workload gets: its seed, how long to measure, a
// scratch directory of its own, and a probe when the run is traced.
type runConfig struct {
	seed     int64
	duration time.Duration
	work     string
	probe    *probe
}

// outcome is what a workload measured.
type outcome struct {
	mu        sync.Mutex
	setup     []float64 // seconds, one entry per set-up
	campaigns samples   // seconds from campaign start to its end
	toHV      samples   // seconds from campaign start to the HV target
	evals     int64     // individuals evaluated, memo hits included
	attempted int64
	failed    int64
	problems  []string // one line per failed operation kind

	start, end   time.Time // the measurement window
	memA, memB   runtime.MemStats
	cpuA, cpuB   hostCPU
	campaignSpan []interval
}

// op counts one operation; a failed one is reported with why.
func (o *outcome) op(ok bool, why string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, why)
		}
	}
}

// ops counts n operations of which bad failed.
func (o *outcome) ops(n, bad int64, why string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += n
	o.failed += bad
	if bad > 0 && len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf("%d× %s", bad, why))
	}
}

// campaign records a finished campaign: its evaluations, its span, and
// reaching the hypervolume target as an operation.  Only timed campaigns
// are samples of campaign_s and time_to_hv_s.
func (o *outcome) campaign(start, end time.Time, toHV time.Duration, evals int, timed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.campaignSpan = append(o.campaignSpan, interval{start, end})
	o.evals += int64(evals)
	o.attempted++
	if toHV < 0 {
		o.failed++
		o.problems = append(o.problems, "campaign never reached the hypervolume target")
	}
	if !timed {
		return
	}
	o.campaigns.add(end.Sub(start).Seconds())
	if toHV >= 0 {
		o.toHV.add(toHV.Seconds())
	}
}

func (o *outcome) beginWindow() {
	runtime.ReadMemStats(&o.memA)
	o.cpuA = readHostCPU()
	o.start = time.Now()
}

func (o *outcome) endWindow() {
	o.end = time.Now()
	o.cpuB = readHostCPU()
	runtime.ReadMemStats(&o.memB)
}

// hostCPU is the machine's CPU time so far, in clock ticks: all of it,
// and the part the hypervisor gave to other guests (steal).
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var c hostCPU
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return hostCPU{}
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealShare is the share of the machine's CPU time taken by other
// guests during the window; a run with a high share measured the host.
func (o *outcome) stealShare() float64 {
	return ratio(o.cpuB.steal-o.cpuA.steal, o.cpuB.total-o.cpuA.total)
}

func (o *outcome) window() time.Duration { return o.end.Sub(o.start) }

func (o *outcome) evalsPerSecond() float64 { return ratio(float64(o.evals), o.window().Seconds()) }

type workload func(ctx context.Context, rc *runConfig) (*outcome, error)

var workloads = map[string]workload{
	"paper-surrogate": paperSurrogate,
	"service-fleet":   serviceFleet,
	"real-train":      realTrain,
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"campaign_s.p50", "s"},
	{"time_to_hv_s.p50", "s"},
	{"evals_per_s", "1/s"},
	{"ok_rate", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"campaign_s.tail", "s"},
	{"nsga2.step_ms.p50", "ms"},
	{"ea.eval_window_ms.p50", "ms"},
	{"ea.eval_concurrency", "ratio"},
	{"runtime.alloc_bytes_per_eval", "B"},
	{"runtime.gc_cycles", "count"},
	{"surrogate.eval_us.p50", "us"},
	{"surrogate.evals", "count"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.hit_ratio", "ratio"},
	{"service.create_ms.p50", "ms"},
	{"service.create_ms.tail", "ms"},
	{"service.admission_wait_ms.p50", "ms"},
	{"service.sse_early_closes", "count"},
	{"checkpoint.bytes_per_campaign", "B"},
	{"checkpoint.final_bytes", "B"},
	{"cluster.dispatch_us.p50", "us"},
	{"cluster.dispatch_us.tail", "us"},
	{"cluster.worker_busy_ratio", "ratio"},
	{"cluster.reassigned", "count"},
	{"cluster.stale", "count"},
	{"cluster.queue_waits", "count"},
	{"cluster.books_unbalanced", "count"},
	{"wire.bytes_per_task", "B"},
	{"wire.frames_per_task", "count"},
	{"wire.decode_errors", "count"},
	{"mux.frames_per_flush", "count"},
	{"mux.coalesced_share", "ratio"},
	{"hpo.workflow_ms.p50", "ms"},
	{"deepmd.train_s.p50", "s"},
	{"deepmd.step_ms.p50", "ms"},
	{"train_steps_per_s", "1/s"},
	{"stream.frame_us.p50", "us"},
	{"stream.frame_us.tail", "us"},
	{"stream.wait_share", "ratio"},
	{"stream.hit_ratio", "ratio"},
	{"stream.evictions", "count"},
	{"stream.prefetched", "count"},
	{"stream.bytes_read_computed", "B"},
	{"error_rate", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
	{"peak_rss_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-surrogate, service-fleet or real-train")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(*name, wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, wl workload, seed int64, dur time.Duration, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	fp := fingerprint(root)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", fpJSON)

	ctx := context.Background()
	tag := fmt.Sprintf("%s-seed%d-trace0", name, seed)
	if traced {
		tag = fmt.Sprintf("%s-seed%d-trace1", name, seed)
	}
	metrics := map[string]metricValue{}
	var o *outcome
	var notes []string
	if !traced {
		if o, err = wl(ctx, &runConfig{seed: seed, duration: dur, work: filepath.Join(work, "run")}); err != nil {
			return err
		}
		for k, v := range endToEnd(o) {
			metrics[k] = v
		}
		tailV, pct, blocks := o.campaigns.blockTail()
		notes = append(notes, fmt.Sprintf("campaign_s.tail %s s (not gated; p%.1f, blocks=%d) of %d samples",
			strconv.FormatFloat(tailV, 'g', -1, 64), pct, blocks, o.campaigns.count()),
			fmt.Sprintf("time_to_hv_s samples=%d", o.toHV.count()),
			fmt.Sprintf("error_rate %.6g ratio (%d failed of %d operations)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted),
			fmt.Sprintf("peak_rss_mb %.6g MB", peakRSSMB()),
			fmt.Sprintf("host steal share %.4f of CPU time during the window", o.stealShare()))
	} else {
		base, err := wl(ctx, &runConfig{seed: seed, duration: dur / 2, work: filepath.Join(work, "untraced")})
		if err != nil {
			return err
		}
		tr := newTracer()
		p := newProbe(tr)
		if o, err = wl(ctx, &runConfig{seed: seed, duration: dur / 2, work: filepath.Join(work, "traced"), probe: p}); err != nil {
			return err
		}
		// The untraced half's operations count too: both halves check outputs.
		o.attempted += base.attempted
		o.failed += base.failed
		o.problems = append(o.problems, base.problems...)
		for k, v := range perLayer(o, p, base) {
			metrics[k] = v
		}
		kept, dropped := tr.count()
		spanFile := filepath.Join(outDir, "results", tag+".spans.jsonl")
		if err := tr.write(spanFile); err != nil {
			return err
		}
		notes = append(notes, fmt.Sprintf("spans kept=%d dropped=%d file=%s", kept, dropped, spanFile),
			fmt.Sprintf("host steal share %.4f (untraced half), %.4f (traced half) of CPU time", base.stealShare(), o.stealShare()),
			fmt.Sprintf("untraced half: %d campaigns, %.6g evals/s; traced half: %d campaigns, %.6g evals/s",
				base.campaigns.count(), base.evalsPerSecond(), o.campaigns.count(), o.evalsPerSecond()))
	}
	notes = append(notes, o.problems...)

	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		v := metrics[d.name]
		fmt.Printf("%s %s %s %s\n", name, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), d.unit)
	}
	for _, n := range notes {
		fmt.Printf("%s note %s\n", name, n)
	}

	result := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	record, err := json.MarshalIndent(struct {
		Workload    string          `json:"workload"`
		Seed        int64           `json:"seed"`
		Seconds     float64         `json:"seconds"`
		Traced      bool            `json:"traced"`
		Fingerprint fingerprintInfo `json:"fingerprint"`
		Notes       []string        `json:"notes"`
		Result      interface{}     `json:"result"`
	}{name, seed, dur.Seconds(), traced, fp, notes, result}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results", tag+".json"), record, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func endToEnd(o *outcome) map[string]metricValue {
	setup := append([]float64(nil), o.setup...)
	sort.Float64s(setup)
	return map[string]metricValue{
		"setup_s":          {median(setup), "s"},
		"campaign_s.p50":   {o.campaigns.p50(), "s"},
		"time_to_hv_s.p50": {o.toHV.p50(), "s"},
		"evals_per_s":      {o.evalsPerSecond(), "1/s"},
		"ok_rate":          {1 - ratio(float64(o.failed), float64(o.attempted)), "ratio"},
	}
}

func perLayer(o *outcome, p *probe, base *outcome) map[string]metricValue {
	win := o.window().Seconds()
	campaignTail, _, _ := o.campaigns.blockTail()
	frameTail, _, _ := p.frameUS.blockTail()
	createTail, _, _ := p.createMS.blockTail()
	dispatchTail, _, _ := p.dispatchUS.blockTail()
	kept, _ := p.tr.count()
	vals := map[string]float64{
		"campaign_s.tail":               campaignTail,
		"nsga2.step_ms.p50":             p.genStep.p50(),
		"ea.eval_window_ms.p50":         p.evalWindow.p50(),
		"ea.eval_concurrency":           ratio(p.evalBusyMS, p.evalWinMS),
		"runtime.alloc_bytes_per_eval":  ratio(float64(o.memB.TotalAlloc-o.memA.TotalAlloc), float64(o.evals)),
		"runtime.gc_cycles":             float64(o.memB.NumGC - o.memA.NumGC),
		"surrogate.eval_us.p50":         p.surrogateUS.p50(),
		"surrogate.evals":               float64(p.surrogateUS.count()),
		"service.create_ms.p50":         p.createMS.p50(),
		"service.create_ms.tail":        createTail,
		"service.admission_wait_ms.p50": p.admissionMS.p50(),
		"checkpoint.bytes_per_campaign": p.ckptSum.p50(),
		"checkpoint.final_bytes":        p.ckptFinal.p50(),
		"cluster.dispatch_us.p50":       p.dispatchUS.p50(),
		"cluster.dispatch_us.tail":      dispatchTail,
		"cluster.worker_busy_ratio":     ratio(p.handlerBusy.total(), fleetWorkers*win),
		"hpo.workflow_ms.p50":           p.workflowMS.p50(),
		"deepmd.train_s.p50":            p.trainS.p50(),
		"deepmd.step_ms.p50":            p.stepMS.p50(),
		"train_steps_per_s":             ratio(float64(p.trainSteps), win),
		"stream.frame_us.p50":           p.frameUS.p50(),
		"stream.frame_us.tail":          frameTail,
		"stream.wait_share":             ratio(p.frameUS.total()/1e6, p.trainS.total()),
		"error_rate":                    ratio(float64(o.failed), float64(o.attempted)),
		"trace.coverage":                coverage(o.campaignSpan, o.start, o.end),
		"trace.overhead":                ratio(base.evalsPerSecond(), o.evalsPerSecond()) - 1,
		"trace.spans":                   float64(kept),
		"peak_rss_mb":                   peakRSSMB(),
	}
	p.mu.Lock()
	for k, v := range p.layers {
		vals[k] = v
	}
	p.mu.Unlock()
	out := map[string]metricValue{}
	for _, d := range perLayerMetrics {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
