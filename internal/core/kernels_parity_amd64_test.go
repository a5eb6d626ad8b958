//go:build amd64 && !purego

package core

import "rowfuse/internal/cpu"

// vectorKernelsUnderTest enumerates every vector kernel compiled into
// this binary that the running CPU can execute.
func vectorKernelsUnderTest() []kernelUnderTest {
	var ks []kernelUnderTest
	if cpu.X86.HasAVX2 {
		ks = append(ks, kernelUnderTest{"avx2", damageSplitAVX2, damageFusedAVX2})
	}
	return ks
}
