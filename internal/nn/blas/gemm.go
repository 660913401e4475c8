// Package blas holds the cache-blocked, register-blocked batched kernels
// behind nn's ForwardBatch/BackwardBatch paths.  Everything is row-major
// float64, shaped exactly like the scalar loops in internal/nn:
//
//	x      n×in        batch of inputs (rows are samples)
//	w      out×in      layer weights, w[o][k] at o*in+k
//	g      n×out       upstream gradients scaled by the activation
//	                   derivative
//
// Fixed-reduction-order contract: for every output element the reduction
// index — k (inputs) in the forward pass, o (outputs) in the
// input-gradient pass, r (samples) in the parameter-gradient pass — is
// summed strictly in ascending order into a single accumulator, exactly
// like the scalar per-sample loops.  Blocking, unrolling and SIMD lanes
// are applied only across rows and output columns (independent
// accumulators) or as sequential adds into one accumulator, never as a
// reassociation of a reduction.  Every product is rounded before it is
// added: the Go kernels write it as float64(a*b), which the language spec
// forbids the compiler to fuse into an FMA (arm64 and ppc64 fuse a bare
// s += a*b), and the assembly kernels issue VMULPD then VADDPD, never
// VFMADD.  So every kernel here is bit-identical to its scalar
// counterpart for any batch size on every GOARCH, which is what keeps
// lcurve.out and the golden campaign byte-stable with batching enabled.
//
// On amd64 CPUs with AVX2 (detected once at init from CPUID and XGETBV)
// the exported kernels run Go-assembly implementations; elsewhere they
// run the portable Go kernels, which also serve as the tests' reference.
package blas

// GemmBiasAct computes the fused dense forward pass over a batch:
//
//	preact[r][o] = bias[o] + Σ_k x[r][k]·w[o][k]   (k ascending)
//	out[r][o]    = act(preact[r][o])
//
// preact and out are n×out and fully overwritten.
func GemmBiasAct(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	if useAVX2 {
		gemmBiasActAVX2(preact, out, x, w, bias, n, in, outDim, act)
		return
	}
	gemmBiasActGeneric(preact, out, x, w, bias, n, in, outDim, act)
}

// GemmNN computes the transpose-aware input-gradient product dX = G·W:
//
//	dx[r][i] = Σ_o g[r][o]·w[o][i]   (o ascending)
//
// dx is n×in and fully overwritten.
func GemmNN(dx, g, w []float64, n, in, outDim int) {
	if useAVX2 {
		gemmNNAVX2(dx, g, w, n, in, outDim)
		return
	}
	gemmNNGeneric(dx, g, w, n, in, outDim)
}

// AccumGrad accumulates the transpose-aware parameter gradients
// dW += Gᵀ·X and dB += column sums of G:
//
//	gradW[o][i] += Σ_r g[r][o]·x[r][i]   (r ascending)
//	gradB[o]    += Σ_r g[r][o]           (r ascending)
//
// The result is bit-identical to n sequential scalar Backward calls.
func AccumGrad(gradW, gradB, g, x []float64, n, in, outDim int) {
	if useAVX2 {
		accumGradAVX2(gradW, gradB, g, x, n, in, outDim)
		return
	}
	accumGradGeneric(gradW, gradB, g, x, n, in, outDim)
}

// gemmBiasActGeneric is the portable GemmBiasAct.  Rows are processed in
// blocks of eight (then four) so each weight row is loaded once per
// block; the k loop is unrolled with sequential adds into each row's
// accumulator, preserving the scalar summation order bit-for-bit.
func gemmBiasActGeneric(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	r := 0
	for ; r+8 <= n; r += 8 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		x4 := x[(r+4)*in : (r+4)*in+in]
		x5 := x[(r+5)*in : (r+5)*in+in]
		x6 := x[(r+6)*in : (r+6)*in+in]
		x7 := x[(r+7)*in : (r+7)*in+in]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			b := bias[o]
			s0, s1, s2, s3 := b, b, b, b
			s4, s5, s6, s7 := b, b, b, b
			k := 0
			for ; k+2 <= in; k += 2 {
				w0, w1 := wrow[k], wrow[k+1]
				s0 += float64(w0 * x0[k])
				s0 += float64(w1 * x0[k+1])
				s1 += float64(w0 * x1[k])
				s1 += float64(w1 * x1[k+1])
				s2 += float64(w0 * x2[k])
				s2 += float64(w1 * x2[k+1])
				s3 += float64(w0 * x3[k])
				s3 += float64(w1 * x3[k+1])
				s4 += float64(w0 * x4[k])
				s4 += float64(w1 * x4[k+1])
				s5 += float64(w0 * x5[k])
				s5 += float64(w1 * x5[k+1])
				s6 += float64(w0 * x6[k])
				s6 += float64(w1 * x6[k+1])
				s7 += float64(w0 * x7[k])
				s7 += float64(w1 * x7[k+1])
			}
			for ; k < in; k++ {
				wk := wrow[k]
				s0 += float64(wk * x0[k])
				s1 += float64(wk * x1[k])
				s2 += float64(wk * x2[k])
				s3 += float64(wk * x3[k])
				s4 += float64(wk * x4[k])
				s5 += float64(wk * x5[k])
				s6 += float64(wk * x6[k])
				s7 += float64(wk * x7[k])
			}
			preact[r*outDim+o], out[r*outDim+o] = s0, act(s0)
			preact[(r+1)*outDim+o], out[(r+1)*outDim+o] = s1, act(s1)
			preact[(r+2)*outDim+o], out[(r+2)*outDim+o] = s2, act(s2)
			preact[(r+3)*outDim+o], out[(r+3)*outDim+o] = s3, act(s3)
			preact[(r+4)*outDim+o], out[(r+4)*outDim+o] = s4, act(s4)
			preact[(r+5)*outDim+o], out[(r+5)*outDim+o] = s5, act(s5)
			preact[(r+6)*outDim+o], out[(r+6)*outDim+o] = s6, act(s6)
			preact[(r+7)*outDim+o], out[(r+7)*outDim+o] = s7, act(s7)
		}
	}
	for ; r+4 <= n; r += 4 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		p0 := preact[r*outDim : r*outDim+outDim]
		p1 := preact[(r+1)*outDim : (r+1)*outDim+outDim]
		p2 := preact[(r+2)*outDim : (r+2)*outDim+outDim]
		p3 := preact[(r+3)*outDim : (r+3)*outDim+outDim]
		y0 := out[r*outDim : r*outDim+outDim]
		y1 := out[(r+1)*outDim : (r+1)*outDim+outDim]
		y2 := out[(r+2)*outDim : (r+2)*outDim+outDim]
		y3 := out[(r+3)*outDim : (r+3)*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			b := bias[o]
			s0, s1, s2, s3 := b, b, b, b
			k := 0
			for ; k+4 <= in; k += 4 {
				w0, w1, w2, w3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
				s0 += float64(w0 * x0[k])
				s0 += float64(w1 * x0[k+1])
				s0 += float64(w2 * x0[k+2])
				s0 += float64(w3 * x0[k+3])
				s1 += float64(w0 * x1[k])
				s1 += float64(w1 * x1[k+1])
				s1 += float64(w2 * x1[k+2])
				s1 += float64(w3 * x1[k+3])
				s2 += float64(w0 * x2[k])
				s2 += float64(w1 * x2[k+1])
				s2 += float64(w2 * x2[k+2])
				s2 += float64(w3 * x2[k+3])
				s3 += float64(w0 * x3[k])
				s3 += float64(w1 * x3[k+1])
				s3 += float64(w2 * x3[k+2])
				s3 += float64(w3 * x3[k+3])
			}
			for ; k < in; k++ {
				wk := wrow[k]
				s0 += float64(wk * x0[k])
				s1 += float64(wk * x1[k])
				s2 += float64(wk * x2[k])
				s3 += float64(wk * x3[k])
			}
			p0[o], p1[o], p2[o], p3[o] = s0, s1, s2, s3
			y0[o], y1[o], y2[o], y3[o] = act(s0), act(s1), act(s2), act(s3)
		}
	}
	for ; r < n; r++ { // ragged tail, one row at a time
		xr := x[r*in : r*in+in]
		pr := preact[r*outDim : r*outDim+outDim]
		yr := out[r*outDim : r*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			s := bias[o]
			k := 0
			for ; k+4 <= in; k += 4 {
				s += float64(wrow[k] * xr[k])
				s += float64(wrow[k+1] * xr[k+1])
				s += float64(wrow[k+2] * xr[k+2])
				s += float64(wrow[k+3] * xr[k+3])
			}
			for ; k < in; k++ {
				s += float64(wrow[k] * xr[k])
			}
			pr[o] = s
			yr[o] = act(s)
		}
	}
}

// gemmNNGeneric is the portable GemmNN.  The o loop is outermost per row
// block — matching the scalar Backward, which walks outputs outermost —
// so each dx element accumulates its o terms in the scalar order; the
// four-wide unroll is across i (independent accumulators).
func gemmNNGeneric(dx, g, w []float64, n, in, outDim int) {
	dx = dx[:n*in]
	for i := range dx {
		dx[i] = 0
	}
	r := 0
	for ; r+4 <= n; r += 4 {
		d0 := dx[r*in : r*in+in]
		d1 := dx[(r+1)*in : (r+1)*in+in]
		d2 := dx[(r+2)*in : (r+2)*in+in]
		d3 := dx[(r+3)*in : (r+3)*in+in]
		g0 := g[r*outDim : r*outDim+outDim]
		g1 := g[(r+1)*outDim : (r+1)*outDim+outDim]
		g2 := g[(r+2)*outDim : (r+2)*outDim+outDim]
		g3 := g[(r+3)*outDim : (r+3)*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			a0, a1, a2, a3 := g0[o], g1[o], g2[o], g3[o]
			k := 0
			for ; k+4 <= in; k += 4 {
				w0, w1, w2, w3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
				d0[k] += float64(a0 * w0)
				d0[k+1] += float64(a0 * w1)
				d0[k+2] += float64(a0 * w2)
				d0[k+3] += float64(a0 * w3)
				d1[k] += float64(a1 * w0)
				d1[k+1] += float64(a1 * w1)
				d1[k+2] += float64(a1 * w2)
				d1[k+3] += float64(a1 * w3)
				d2[k] += float64(a2 * w0)
				d2[k+1] += float64(a2 * w1)
				d2[k+2] += float64(a2 * w2)
				d2[k+3] += float64(a2 * w3)
				d3[k] += float64(a3 * w0)
				d3[k+1] += float64(a3 * w1)
				d3[k+2] += float64(a3 * w2)
				d3[k+3] += float64(a3 * w3)
			}
			for ; k < in; k++ {
				wk := wrow[k]
				d0[k] += float64(a0 * wk)
				d1[k] += float64(a1 * wk)
				d2[k] += float64(a2 * wk)
				d3[k] += float64(a3 * wk)
			}
		}
	}
	for ; r < n; r++ {
		dr := dx[r*in : r*in+in]
		gr := g[r*outDim : r*outDim+outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : o*in+in]
			a := gr[o]
			k := 0
			for ; k+4 <= in; k += 4 {
				dr[k] += float64(a * wrow[k])
				dr[k+1] += float64(a * wrow[k+1])
				dr[k+2] += float64(a * wrow[k+2])
				dr[k+3] += float64(a * wrow[k+3])
			}
			for ; k < in; k++ {
				dr[k] += float64(a * wrow[k])
			}
		}
	}
}

// accumGradGeneric is the portable AccumGrad.  The sample reduction is a
// sequence of rank-1 updates applied in ascending row order — four rows
// are loaded per block but their terms are added one after another into
// each accumulator.
func accumGradGeneric(gradW, gradB, g, x []float64, n, in, outDim int) {
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x[r*in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in]
		g0 := g[r*outDim : r*outDim+outDim]
		g1 := g[(r+1)*outDim : (r+1)*outDim+outDim]
		g2 := g[(r+2)*outDim : (r+2)*outDim+outDim]
		g3 := g[(r+3)*outDim : (r+3)*outDim+outDim]
		for o := 0; o < outDim; o++ {
			a0, a1, a2, a3 := g0[o], g1[o], g2[o], g3[o]
			b := gradB[o]
			b += a0
			b += a1
			b += a2
			b += a3
			gradB[o] = b
			grow := gradW[o*in : o*in+in]
			for k := 0; k < in; k++ {
				s := grow[k]
				s += float64(a0 * x0[k])
				s += float64(a1 * x1[k])
				s += float64(a2 * x2[k])
				s += float64(a3 * x3[k])
				grow[k] = s
			}
		}
	}
	for ; r < n; r++ {
		xr := x[r*in : r*in+in]
		gr := g[r*outDim : r*outDim+outDim]
		for o := 0; o < outDim; o++ {
			a := gr[o]
			gradB[o] += a
			grow := gradW[o*in : o*in+in]
			k := 0
			for ; k+4 <= in; k += 4 {
				grow[k] += float64(a * xr[k])
				grow[k+1] += float64(a * xr[k+1])
				grow[k+2] += float64(a * xr[k+2])
				grow[k+3] += float64(a * xr[k+3])
			}
			for ; k < in; k++ {
				grow[k] += float64(a * xr[k])
			}
		}
	}
}
