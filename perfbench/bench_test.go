package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/deepmd"
)

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists of
// the program and of BENCHMARK.json identical.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestTracingKeepsOutputs runs each workload's campaign untraced and
// traced and requires identical output digests: the wrappers only
// observe.
func TestTracingKeepsOutputs(t *testing.T) {
	ctx := context.Background()

	t.Run("paper-surrogate", func(t *testing.T) {
		var digests [2][32]byte
		for i, traced := range []bool{false, true} {
			cfg, sur := paperCampaignConfig(42)
			var clock *genClock
			if traced {
				clock = &genClock{p: newProbe(newTracer())}
				cfg.Evaluator = &tracedEvaluator{inner: sur, clock: clock, leaf: true}
			}
			c, err := runHPOCampaign(ctx, cfg, paperGoal, clock)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = evaluationDigest(c.result)
		}
		if digests[0] != digests[1] {
			t.Fatal("traced campaign evaluated differently")
		}
	})

	t.Run("service-fleet", func(t *testing.T) {
		var digests [2][32]byte
		for i, traced := range []bool{false, true} {
			var p *probe
			if traced {
				p = newProbe(newTracer())
			}
			f, err := newFleet(filepath.Join(t.TempDir(), "ckpt"), p)
			if err != nil {
				t.Fatal(err)
			}
			o := &outcome{}
			out, ok := f.runCampaign(o, p, f.tenants[0], "tenant-a", 42, true)
			if err := f.close(); err != nil {
				t.Error(err)
			}
			if !ok || o.failed > 0 {
				t.Fatalf("campaign failed: %v", o.problems)
			}
			digests[i] = out.digest()
		}
		if digests[0] != digests[1] {
			t.Fatal("traced service served a different frontier or lcurve")
		}
	})

	t.Run("real-train", func(t *testing.T) {
		if testing.Short() {
			t.Skip("trains paper-width networks")
		}
		data, err := newRealData(3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer data.close()
		var digests [2][32]byte
		for i, traced := range []bool{false, true} {
			var p *probe
			var clock *genClock
			if traced {
				p = newProbe(newTracer())
				clock = &genClock{p: p}
			}
			c, err := data.campaign(ctx, 3, 42, 0, t.TempDir(), p, clock)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = evaluationDigest(c.result)
		}
		if digests[0] != digests[1] {
			t.Fatal("traced trainings produced different fitness bytes")
		}
	})
}

// prefetchSource is a frame source that records prefetch requests.
type prefetchSource struct {
	*dataset.Dataset
	requested []int
}

func (s *prefetchSource) Prefetch(indices []int) { s.requested = append(s.requested, indices...) }

// TestTracedSourceForwardsPrefetch: training only prefetches through a
// source that implements deepmd.Prefetcher, so the traced wrapper must
// keep that method and pass the requests on, and must not add it to a
// source without one.
func TestTracedSourceForwardsPrefetch(t *testing.T) {
	p := newProbe(newTracer())
	src := &prefetchSource{Dataset: &dataset.Dataset{}}
	pf, ok := traceSource(src, p).(deepmd.Prefetcher)
	if !ok {
		t.Fatal("traced source hides the prefetcher")
	}
	pf.Prefetch([]int{3, 1})
	if len(src.requested) != 2 || src.requested[0] != 3 || src.requested[1] != 1 {
		t.Fatalf("prefetch requests reached the source as %v", src.requested)
	}
	if _, ok := traceSource(src.Dataset, p).(deepmd.Prefetcher); ok {
		t.Fatal("traced source claims a prefetcher the source lacks")
	}
}
