package main

import (
	"math"
	"sort"
	"sync"
)

// maxSamples bounds every sample set so that a long traced run of a
// microsecond-scale layer keeps its memory fixed; past the cap a sample
// set keeps counting and summing but stops storing values.
const maxSamples = 1 << 18

// samples is a concurrency-safe set of float64 observations.
type samples struct {
	mu   sync.Mutex
	vals []float64
	n    int
	sum  float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.n++
	s.sum += v
	if len(s.vals) < maxSamples {
		s.vals = append(s.vals, v)
	}
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.vals, s.n, s.sum = nil, 0, 0
	s.mu.Unlock()
}

// count reports every observation, stored or not.
func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *samples) total() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// p50 is the median (mean of the two middle values for an even count),
// or 0 for an empty set.
func (s *samples) p50() float64 { return median(s.sorted()) }

// tailBlock is the fewest consecutive samples that make one block of
// blockTail: enough for a p90 with ten samples beyond it.
const tailBlock = 110

// blockTail is the tail the benchmark reports.  Below two blocks' worth
// of samples it is tail over all of them.  With more, the samples are
// cut, in the order they were taken, into blocks of at least tailBlock
// consecutive ones; each block's tail is taken by the same rule, and the
// median over the blocks is reported.  A stall of the host that slows a
// few seconds of a run then moves one block's tail instead of setting
// the run's.  It also returns the percentile used in a block and the
// number of blocks.
func (s *samples) blockTail() (v, pct float64, blocks int) {
	s.mu.Lock()
	vals := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	blocks = len(vals) / tailBlock
	if blocks < 2 {
		sort.Float64s(vals)
		v, pct = tail(vals)
		return v, pct, 1
	}
	size := len(vals) / blocks
	tails := make([]float64, blocks)
	for b := range tails {
		block := vals[b*size : (b+1)*size]
		if b == blocks-1 {
			block = vals[b*size:]
		}
		sort.Float64s(block)
		tails[b], pct = tail(block)
	}
	sort.Float64s(tails)
	return median(tails), pct, blocks
}

func median(v []float64) float64 {
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// tail is the highest percentile of the ascending values v with at
// least ten values beyond it: the value at rank n-11.  Below 21 values
// no such percentile above the median exists, and the median is
// reported.  The second result is the percentile used, so it can be
// stated next to the sample count.
func tail(v []float64) (float64, float64) {
	n := len(v)
	if n < 21 {
		return median(v), 50
	}
	k := n - 11
	return v[k], 100 * float64(k+1) / float64(n)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
