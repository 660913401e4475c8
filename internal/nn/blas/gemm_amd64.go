package blas

// useAVX2 selects the assembly kernels.  It is set once at package init
// from what the CPU and the OS report.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.  XGETBV is only issued once
// CPUID has reported OSXSAVE.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return maxLeaf >= 7 && ecx1&osxsave != 0 && ecx1&avx != 0 && osSavesYMM() && ebx7&avx2 != 0
}

// osSavesYMM reports whether XCR0 enables both the XMM and YMM state.
func osSavesYMM() bool {
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// Block sizes of the forward kernel's stack buffers.  A row block packs
// at most packK inputs of xᵀ and accumulates at most packO outputs at a
// time; larger layers are walked in chunks, storing and reloading the
// accumulators between k chunks, which keeps k ascending.
const (
	packK = 256
	packO = 128
)

// gradRows is the number of rows one accumTile call reduces, so that
// those rows of x stay in cache while every output row of gradW visits
// them.
const gradRows = 64

// gemmBiasActAVX2 is GemmBiasAct over blocks of four rows.  Each block's
// inputs are packed as xᵀ, pack[4k+j] = x[r+j][k], so biasTile can hold
// the four rows' accumulators of one output in a single YMM register and
// add w[o][k]·xᵀ[k] for k ascending.  A ragged last block leaves its
// unused lanes holding stale inputs; those lanes are computed and never
// stored.
func gemmBiasActAVX2(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	x, w, bias = x[:n*in], w[:outDim*in], bias[:outDim]
	preact, out = preact[:n*outDim], out[:n*outDim]
	var pack [4 * packK]float64
	var acc [4 * packO]float64
	for r := 0; r < n; r += 4 {
		rows := min(4, n-r)
		for o0 := 0; o0 < outDim; o0 += packO {
			oc := min(packO, outDim-o0)
			for o, b := range bias[o0 : o0+oc] {
				acc[4*o], acc[4*o+1], acc[4*o+2], acc[4*o+3] = b, b, b, b
			}
			for k0 := 0; k0 < in; k0 += packK {
				kc := min(packK, in-k0)
				for j := 0; j < rows; j++ {
					row := x[(r+j)*in+k0 : (r+j)*in+k0+kc]
					for k, v := range row {
						pack[4*k+j] = v
					}
				}
				biasTile(acc[:4*oc], pack[:4*kc], w[o0*in+k0:], kc, oc, in)
			}
			for j := 0; j < rows; j++ {
				p := preact[(r+j)*outDim+o0 : (r+j)*outDim+o0+oc]
				y := out[(r+j)*outDim+o0 : (r+j)*outDim+o0+oc]
				for o := range p {
					s := acc[4*o+j]
					p[o] = s
					y[o] = act(s)
				}
			}
		}
	}
}

// gemmNNAVX2 is GemmNN over blocks of four rows, then single rows; the
// kernels hold eight dx columns per row in YMM registers while o runs
// ascending.
func gemmNNAVX2(dx, g, w []float64, n, in, outDim int) {
	dx, g, w = dx[:n*in], g[:n*outDim], w[:outDim*in]
	r := 0
	for ; r+4 <= n; r += 4 {
		gemmNNTile4(dx[r*in:], g[r*outDim:], w, in, outDim)
	}
	for ; r < n; r++ {
		gemmNNTile1(dx[r*in:], g[r*outDim:], w, in, outDim)
	}
}

// accumGradAVX2 is AccumGrad with gradW updated by accumTile, eight
// columns of four (then one) gradW rows per YMM block, over rows in
// ascending order.
func accumGradAVX2(gradW, gradB, g, x []float64, n, in, outDim int) {
	gradW, gradB = gradW[:outDim*in], gradB[:outDim]
	g, x = g[:n*outDim], x[:n*in]
	for r := 0; r < n; r++ {
		for o, a := range g[r*outDim : (r+1)*outDim] {
			gradB[o] += a
		}
	}
	for r := 0; r < n; r += gradRows {
		accumTile(gradW, g[r*outDim:], x[r*in:], min(gradRows, n-r), in, outDim)
	}
}

// biasTile adds Σ_k w[o][k]·xᵀ[k] (k < kc ascending) into the four
// lanes acc[4o:4o+4] for every o < oc.  w rows are in apart.
//
//go:noescape
func biasTile(acc, pack, w []float64, kc, oc, in int)

// gemmNNTile4 writes dx[j][i] = Σ_o g[j][o]·w[o][i] for rows j < 4 and
// every i < in; dx rows are in apart and g rows outDim apart.
//
//go:noescape
func gemmNNTile4(dx, g, w []float64, in, outDim int)

// gemmNNTile1 is gemmNNTile4 for one row.
//
//go:noescape
func gemmNNTile1(dx, g, w []float64, in, outDim int)

// accumTile adds Σ_r g[r][o]·x[r][i] (r < rows ascending) into
// gradW[o][i]; x rows are in apart and g rows outDim apart.
//
//go:noescape
func accumTile(gradW, g, x []float64, rows, in, outDim int)
