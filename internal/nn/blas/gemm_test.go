package blas

import (
	"math"
	"math/rand"
	"testing"
)

// scalarForward is the reference: the per-sample loop from nn's
// Dense.forwardInto, applied row by row.
func scalarForward(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	for r := 0; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		for o := 0; o < outDim; o++ {
			s := bias[o]
			row := w[o*in : (o+1)*in]
			for k, xk := range xr {
				s += row[k] * xk
			}
			preact[r*outDim+o] = s
			out[r*outDim+o] = act(s)
		}
	}
}

// refBackward is the bit-exact scalar reference for GemmNN + AccumGrad:
// n sequential per-sample Backward calls (outputs outermost, dx zeroed
// per sample) with weights wm, mirroring nn's Dense.Backward.
func refBackward(dx, gradW, gradB, g, x, wm []float64, n, in, outDim int) {
	for r := 0; r < n; r++ {
		dr := dx[r*in : (r+1)*in]
		for i := range dr {
			dr[i] = 0
		}
		xr := x[r*in : (r+1)*in]
		for o := 0; o < outDim; o++ {
			a := g[r*outDim+o]
			gradB[o] += a
			row := wm[o*in : (o+1)*in]
			grow := gradW[o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				grow[i] += a * xr[i]
				dr[i] += a * row[i]
			}
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// shapes covers n = 0, 1, exact blocks, ragged tails, and k/i remainder
// lanes.
var shapes = []struct{ n, in, out int }{
	{0, 3, 2}, {1, 1, 1}, {1, 5, 3}, {2, 4, 4}, {3, 7, 2}, {4, 8, 8},
	{5, 3, 9}, {7, 13, 5}, {8, 16, 4}, {9, 6, 6}, {16, 1, 10}, {33, 10, 7},
}

func TestGemmBiasActMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	act := math.Tanh
	for _, sh := range shapes {
		x := randSlice(rng, sh.n*sh.in)
		wm := randSlice(rng, sh.out*sh.in)
		bias := randSlice(rng, sh.out)
		gotP := make([]float64, sh.n*sh.out)
		gotY := make([]float64, sh.n*sh.out)
		wantP := make([]float64, sh.n*sh.out)
		wantY := make([]float64, sh.n*sh.out)
		GemmBiasAct(gotP, gotY, x, wm, bias, sh.n, sh.in, sh.out, act)
		scalarForward(wantP, wantY, x, wm, bias, sh.n, sh.in, sh.out, act)
		for i := range wantP {
			if gotP[i] != wantP[i] || gotY[i] != wantY[i] {
				t.Fatalf("shape %+v: element %d: preact %v vs %v, out %v vs %v",
					sh, i, gotP[i], wantP[i], gotY[i], wantY[i])
			}
		}
	}
}

func TestBackwardKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range shapes {
		x := randSlice(rng, sh.n*sh.in)
		wm := randSlice(rng, sh.out*sh.in)
		g := randSlice(rng, sh.n*sh.out)
		// Start both gradient accumulators from the same nonzero state so
		// the test also pins the += accumulation order.
		seedW := randSlice(rng, sh.out*sh.in)
		seedB := randSlice(rng, sh.out)

		gotDx := make([]float64, sh.n*sh.in)
		gotW := append([]float64(nil), seedW...)
		gotB := append([]float64(nil), seedB...)
		GemmNN(gotDx, g, wm, sh.n, sh.in, sh.out)
		AccumGrad(gotW, gotB, g, x, sh.n, sh.in, sh.out)

		wantDx := make([]float64, sh.n*sh.in)
		wantW := append([]float64(nil), seedW...)
		wantB := append([]float64(nil), seedB...)
		refBackward(wantDx, wantW, wantB, g, x, wm, sh.n, sh.in, sh.out)

		for i := range wantDx {
			if gotDx[i] != wantDx[i] {
				t.Fatalf("shape %+v: dx[%d] = %v, want %v", sh, i, gotDx[i], wantDx[i])
			}
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("shape %+v: gradW[%d] = %v, want %v", sh, i, gotW[i], wantW[i])
			}
		}
		for i := range wantB {
			if gotB[i] != wantB[i] {
				t.Fatalf("shape %+v: gradB[%d] = %v, want %v", sh, i, gotB[i], wantB[i])
			}
		}
	}
}

func TestGemmNNOverwritesDx(t *testing.T) {
	// dx must be fully overwritten, not accumulated into.
	wm := []float64{1, 2, 3, 4}
	g := []float64{1, 1}
	dx := []float64{99, 99}
	GemmNN(dx, g, wm, 1, 2, 2)
	if dx[0] != 1+3 || dx[1] != 2+4 {
		t.Fatalf("dx = %v, want [4 6]", dx)
	}
}

// fillSpecial fills s with normal deviates and gives roughly one row in
// four a ±0, ±Inf or NaN entry, so the bitwise comparisons also cover
// signed zeros and non-finite propagation.
func fillSpecial(rng *rand.Rand, s []float64, cols int) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	for r := 0; r*cols < len(s); r++ {
		if rng.Intn(4) == 0 {
			s[r*cols+rng.Intn(cols)] = specials[rng.Intn(len(specials))]
		}
	}
}

// diffShapes are the shapes the dispatched kernels are compared on: n
// 0–9 and beyond a row block, in and out at every residue mod 8, the
// paper's embedding (1→25→50→100) and fitting (400/240→240→240→1)
// layers at per-species atom counts, and layers past the assembly's
// packing and row-chunk sizes.
func diffShapes() []struct{ n, in, out int } {
	var shapes []struct{ n, in, out int }
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 25, 31}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 40} {
		for _, in := range dims {
			for _, out := range dims {
				shapes = append(shapes, struct{ n, in, out int }{n, in, out})
			}
		}
	}
	for _, n := range []int{5, 10, 35, 37} {
		for _, l := range [][2]int{{1, 25}, {25, 50}, {50, 100}, {400, 240}, {240, 240}, {240, 1}} {
			shapes = append(shapes, struct{ n, in, out int }{n, l[0], l[1]})
		}
	}
	return append(shapes, struct{ n, in, out int }{70, 530, 270}, struct{ n, in, out int }{133, 9, 3})
}

// sameBits fails unless got and want hold the same bits, except that any
// NaN matches any NaN.  A NaN's payload is not part of the contract: on
// amd64 an operation on two NaNs returns its first operand's payload, and
// the Go compiler orders the operands of a commutative a*b or s+t as its
// register allocation prefers, so the payload can change between two
// builds of the same Go source.
func sameBits(t *testing.T, what string, sh struct{ n, in, out int }, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("shape %+v: %s[%d] = %v (%#x), generic %v (%#x)", sh, what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchGenericBitwise compares the exported kernels — the
// assembly ones where the CPU has them — with the portable Go kernels
// bit for bit.
func TestKernelsMatchGenericBitwise(t *testing.T) {
	if !useAVX2 {
		t.Log("no assembly kernels on this machine: comparing the portable kernels with themselves")
	}
	rng := rand.New(rand.NewSource(13))
	for _, sh := range diffShapes() {
		x := make([]float64, sh.n*sh.in)
		wm := make([]float64, sh.out*sh.in)
		bias := make([]float64, sh.out)
		g := make([]float64, sh.n*sh.out)
		seedW := make([]float64, sh.out*sh.in)
		seedB := make([]float64, sh.out)
		fillSpecial(rng, x, sh.in)
		fillSpecial(rng, wm, sh.in)
		fillSpecial(rng, bias, 1)
		fillSpecial(rng, g, sh.out)
		fillSpecial(rng, seedW, sh.in)
		fillSpecial(rng, seedB, 1)

		gotP, gotY := make([]float64, sh.n*sh.out), make([]float64, sh.n*sh.out)
		wantP, wantY := make([]float64, sh.n*sh.out), make([]float64, sh.n*sh.out)
		GemmBiasAct(gotP, gotY, x, wm, bias, sh.n, sh.in, sh.out, math.Tanh)
		gemmBiasActGeneric(wantP, wantY, x, wm, bias, sh.n, sh.in, sh.out, math.Tanh)
		sameBits(t, "preact", sh, gotP, wantP)
		sameBits(t, "out", sh, gotY, wantY)

		gotDx, wantDx := make([]float64, sh.n*sh.in), make([]float64, sh.n*sh.in)
		for i := range gotDx {
			gotDx[i] = math.NaN() // dx must be overwritten, not accumulated into
		}
		GemmNN(gotDx, g, wm, sh.n, sh.in, sh.out)
		gemmNNGeneric(wantDx, g, wm, sh.n, sh.in, sh.out)
		sameBits(t, "dx", sh, gotDx, wantDx)

		gotW, gotB := append([]float64(nil), seedW...), append([]float64(nil), seedB...)
		wantW, wantB := append([]float64(nil), seedW...), append([]float64(nil), seedB...)
		AccumGrad(gotW, gotB, g, x, sh.n, sh.in, sh.out)
		accumGradGeneric(wantW, wantB, g, x, sh.n, sh.in, sh.out)
		sameBits(t, "gradW", sh, gotW, wantW)
		sameBits(t, "gradB", sh, gotB, wantB)
	}
}
