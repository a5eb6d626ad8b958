// Package cpu detects the vector capabilities of the processor the
// binary is running on, so hot-loop kernels can pick the widest safe
// implementation at init time instead of trusting build-time flags.
//
// The package deliberately exposes only what the repository's kernels
// dispatch on. Detection runs once, from this package's init: the
// amd64 build probes CPUID/XGETBV (a GOAMD64=v1 binary still uses AVX2
// kernels on a machine that has it, and a GOAMD64=v3 binary degrades
// to scalar kernels instead of faulting if the feature bits are
// missing); every other architecture — and any build with the `purego`
// tag — reports no vector features at all and runs the pure-Go
// reference kernels.
package cpu

// X86 reports the amd64 vector features of the running processor. All
// fields are false on other architectures and under the purego tag.
var X86 struct {
	// HasAVX2 reports AVX2 with OS-saved YMM state: the 4-lane float64
	// kernels are safe to run.
	HasAVX2 bool
	// HasAVX512 reports AVX-512 F+DQ with OS-saved ZMM state: the
	// 8-lane float64 kernels are safe to run.
	HasAVX512 bool
}

// Level names the widest vector tier detection found, for bench
// snapshots and logs: "avx512", "avx2" or "scalar". Binaries built
// with the purego tag always report "scalar".
func Level() string {
	switch {
	case X86.HasAVX512:
		return "avx512"
	case X86.HasAVX2:
		return "avx2"
	default:
		return "scalar"
	}
}
