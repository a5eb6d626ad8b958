//go:build purego || !amd64

package core

// pickDamageKernels under the purego tag (the escape hatch when the
// vector path is suspected of misbehaving) and on every architecture
// but amd64 keeps the scalar reference kernels.
func pickDamageKernels() (split, fused func(*damageKernArgs), level string) {
	return damageSplitScalar, damageFusedScalar, "scalar"
}
