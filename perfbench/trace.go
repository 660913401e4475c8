package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ea"
)

// maxSpans bounds the in-memory span log.  Spans past the cap are
// counted as dropped; the per-layer numbers do not depend on the log,
// they come from the samples taken at the same boundaries.
const maxSpans = 1 << 18

// span is one timed call across a layer boundary.  Key identifies the
// thing the span is about: the campaign seed, the run or generation
// index, or a genome hash.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    uint64 `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is
// valid and records nothing, so untraced runs share the code path.
type tracer struct {
	origin  time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(name string, id, parent, key uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key,
			Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) count() (kept int, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}

// write stores the span log as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// genomeID is the span key of a genome: a hash of its exact bits.
func genomeID(g ea.Genome) uint64 {
	h := fnv.New64a()
	h.Write([]byte(ea.GenomeKey(g)))
	return h.Sum64()
}

// interval is a closed stretch of wall time.
type interval struct{ start, end time.Time }

// coverage is the share of [from, to] covered by the union of ivs.
func coverage(ivs []interval, from, to time.Time) float64 {
	total := to.Sub(from)
	if total <= 0 {
		return 0
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	var covered time.Duration
	cur := from
	for _, iv := range sorted {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			covered += e.Sub(s)
			cur = e
		}
	}
	return float64(covered) / float64(total)
}
