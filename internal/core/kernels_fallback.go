//go:build purego || (!amd64 && !arm64)

package core

// pickDamageKernels under the purego tag (or on an architecture
// without a tuned variant) keeps the scalar reference kernels — the
// escape hatch when a vector path is suspected of misbehaving.
func pickDamageKernels() (split, fused func(*damageKernArgs), level string) {
	return damageSplitScalar, damageFusedScalar, "scalar"
}
