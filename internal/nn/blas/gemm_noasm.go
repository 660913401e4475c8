//go:build !amd64

package blas

// useAVX2 is false off amd64: the exported kernels always run the
// portable Go code, and the functions below are never called.
const useAVX2 = false

func gemmBiasActAVX2(preact, out, x, w, bias []float64, n, in, outDim int, act func(float64) float64) {
	panic("blas: no assembly kernels on this GOARCH")
}

func gemmNNAVX2(dx, g, w []float64, n, in, outDim int) {
	panic("blas: no assembly kernels on this GOARCH")
}

func accumGradAVX2(gradW, gradB, g, x []float64, n, in, outDim int) {
	panic("blas: no assembly kernels on this GOARCH")
}
