package blas

import "testing"

// TestPortableKernelsOnAMD64 runs the scalar-reference tests with the
// assembly switched off, so the portable dispatch path is exercised on
// AVX2 machines too.
func TestPortableKernelsOnAMD64(t *testing.T) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	TestGemmBiasActMatchesScalar(t)
	TestBackwardKernelsMatchScalar(t)
}
