//go:build amd64 && !purego

package cpu

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return
	}
	// XCR0: the OS must save/restore the register state a kernel
	// clobbers, XMM+YMM for AVX2.
	xcr0, _ := xgetbv()
	const ymmState = 0x6 // XMM (bit 1) + YMM (bit 2)
	if xcr0&ymmState != ymmState {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	X86.HasAVX2 = ebx7&avx2Bit != 0
}
