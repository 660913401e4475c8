package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// paperLayers are the paper's layer shapes at a batch size typical of a
// 50-atom AlCl₃/KCl frame: the embedding net (1→25→50→100) over one
// species pair's neighbour rows, and the fitting net (400→240→240→240→1)
// over one species' 35 atoms.
var paperLayers = []struct {
	name       string
	n, in, out int
}{
	{"embed/1x25", 512, 1, 25},
	{"embed/25x50", 512, 25, 50},
	{"embed/50x100", 512, 50, 100},
	{"fit/400x240", 35, 400, 240},
	{"fit/240x240", 35, 240, 240},
	{"fit/240x1", 35, 240, 1},
}

// benchKernel runs fn over every paper layer shape; each reports
// allocs/op, which is 0.
func benchKernel(b *testing.B, fn func(x, w, bias, g, y, z []float64, n, in, out int)) {
	for _, l := range paperLayers {
		b.Run(fmt.Sprintf("%s/n=%d", l.name, l.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w := randSlice(rng, l.n*l.in), randSlice(rng, l.out*l.in)
			bias, g := randSlice(rng, l.out), randSlice(rng, l.n*l.out)
			y, z := make([]float64, l.n*l.out), make([]float64, l.n*l.in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(x, w, bias, g, y, z, l.n, l.in, l.out)
			}
		})
	}
}

func BenchmarkGemmBiasAct(b *testing.B) {
	preact := make([]float64, 512*240)
	benchKernel(b, func(x, w, bias, g, y, z []float64, n, in, out int) {
		GemmBiasAct(preact, y, x, w, bias, n, in, out, math.Tanh)
	})
}

func BenchmarkGemmNN(b *testing.B) {
	benchKernel(b, func(x, w, bias, g, y, z []float64, n, in, out int) {
		GemmNN(z, g, w, n, in, out)
	})
}

func BenchmarkAccumGrad(b *testing.B) {
	gradW, gradB := make([]float64, 400*240), make([]float64, 240)
	benchKernel(b, func(x, w, bias, g, y, z []float64, n, in, out int) {
		AccumGrad(gradW, gradB, g, x, n, in, out)
	})
}
