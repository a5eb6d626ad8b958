//go:build amd64 && !purego

package core

import "rowfuse/internal/cpu"

// The AVX2 kernels in kernels_amd64.s. Each processes n/4 full YMM
// lanes; callers guarantee n is a multiple of solveLanes. noescape
// keeps the solveBatch-owned args struct off the heap.
//
//go:noescape
func damageSplitAVX2(k *damageKernArgs)

//go:noescape
func damageFusedAVX2(k *damageKernArgs)

// pickDamageKernels chooses the kernel for the running CPU: AVX2
// assembly when CPUID says so (whatever GOAMD64 the binary was
// compiled for), otherwise the scalar reference. AVX2 is also the
// choice where AVX-512 is available: the damage kernels are
// divide-bound, VDIVPD's per-element throughput does not improve at
// 512 bits on current parts, and row batches are too short to amortize
// a wider pipeline's startup, so no AVX-512 variant is kept. The
// selection is per-process and happens before main.
func pickDamageKernels() (split, fused func(*damageKernArgs), level string) {
	if cpu.X86.HasAVX2 {
		return damageSplitAVX2, damageFusedAVX2, "avx2"
	}
	return damageSplitScalar, damageFusedScalar, "scalar"
}
