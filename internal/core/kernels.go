package core

import (
	"unsafe"

	"rowfuse/internal/device"
)

// The damage kernels: the act-major damage phase of solveBatch.solve,
// extracted so the amd64 vector implementation (kernels_amd64.s) can be
// dispatched behind build tags while the pure-Go scalar bodies below
// stay the bit-exactness reference and the kernels of purego builds
// and every other architecture.
//
// One kernel call computes, for every cell lane c in [0, n):
//
//	hs    = boost * synS[c]
//	sf    = weakSide * ws[c]
//	st[c] = tf * (hs/th[c] + (se*sf)/tp[c])
//	tot[c] += st[c]
//
// and, in the split variant only, the first-iteration counterpart
//
//	hf    = boost * synF[c]
//	fi[c] = tf * (hf/th[c] + (fe*sf)/tp[c])
//	ft[c] += fi[c]
//
// while the fused variant (acts whose first-iteration damage is
// defined by the same synergy flag and exposure as the steady one, so
// fi would be bit-identical to st) accumulates ft[c] += st[c] and
// leaves fi unwritten.
//
// The bit-exactness contract, shared by every implementation:
//
//   - Lanes parallelize across CELLS, never across acts: every float
//     operation on one cell happens in exactly the order written
//     above, which is the order the scalar firstFlip oracle uses.
//   - No FMA contraction: each multiply, divide and add rounds
//     individually. (Fusing hs/th + (se*sf)/tp would change results;
//     the expression contains no a*b+c shape by construction, and the
//     assembly kernels use separate VMULPD/VDIVPD/VADDPD only.)
//   - Uniform flag handling by exact identity multiplies: when an
//     act has no synergy the caller passes synS/synF = the ones
//     vector, and when the act disturbs from the strong side it
//     passes ws = ones with weakSide = 1. x*1.0 is exact for every
//     float64 x (including NaN/Inf propagation), so the branch-free
//     kernels and the branching scalar oracle agree bit for bit.
//   - Inputs are the physical damage-model quantities: thresholds
//     th/tp are positive (possibly +Inf, possibly subnormal),
//     synergy/side factors and exposures are non-negative. The
//     kernels do not defend against negative inputs.
//
// n is always a multiple of solveLanes: callers pad their buffers
// (and device.SolveView pads its backing arrays past Len()) so vector
// loads and stores of full lanes never touch unowned memory. Lanes at
// or past the view's logical length compute garbage into pad slots
// that no consumer reads.

// solveLanes is the lane padding of every kernel buffer: a multiple of
// every kernel's lane step (4 x float64), so no kernel needs a scalar
// tail. It is pinned to device.SolveLanes, the padding SolveView
// guarantees.
const solveLanes = device.SolveLanes

// damageKernArgs carries one kernel call's operands in a fixed layout
// the assembly implementations index by byte offset (asserted by
// TestDamageKernArgsLayout). It lives on the solveBatch so building it
// per act allocates nothing.
type damageKernArgs struct {
	st   *float64 // +0   steady-damage output row
	fi   *float64 // +8   first-damage output row (split only)
	tot  *float64 // +16  steady-total accumulator
	ft   *float64 // +24  first-total accumulator
	synS *float64 // +32  steady synergy factors (or ones)
	synF *float64 // +40  first synergy factors (split only; or ones)
	ws   *float64 // +48  weak-side coupling factors (or ones)
	th   *float64 // +56  hammer thresholds
	tp   *float64 // +64  press thresholds

	boost    float64 // +72
	se       float64 // +80  steady exposure
	fe       float64 // +88  first exposure (split only)
	weakSide float64 // +96  weak-side coupling (1 when strong side)
	tf       float64 // +104 temperature factor

	n int64 // +112 lanes to process (multiple of solveLanes)
	// init nonzero makes the kernel STORE into tot/ft instead of
	// accumulating: the first act of a solve defines the totals, so
	// the caller never zeroes them. (The scalar oracle's accumulator
	// starts at +0, and storing x differs from 0+x only in the sign of
	// a zero — unobservable downstream, where the totals feed only
	// comparisons and 1-acc / acc+y arithmetic.)
	init int64 // +120
}

// damageSplit and damageFused are the dispatched kernel entry points,
// selected once at init by pickDamageKernels (per-arch build-tagged
// files).
var damageSplit, damageFused = pickDamageKernels()

// damageSplitScalar is the reference split kernel: the exact
// arithmetic of the pre-extraction solveBatch damage loop, one cell at
// a time.
func damageSplitScalar(k *damageKernArgs) {
	n := int(k.n)
	st, fi := unsafe.Slice(k.st, n), unsafe.Slice(k.fi, n)
	tot, ft := unsafe.Slice(k.tot, n), unsafe.Slice(k.ft, n)
	synS, synF := unsafe.Slice(k.synS, n), unsafe.Slice(k.synF, n)
	ws, th, tp := unsafe.Slice(k.ws, n), unsafe.Slice(k.th, n), unsafe.Slice(k.tp, n)
	boost, se, fe, weakSide, tf := k.boost, k.se, k.fe, k.weakSide, k.tf
	if k.init != 0 {
		for c := 0; c < n; c++ {
			hs := boost * synS[c]
			hf := boost * synF[c]
			sf := weakSide * ws[c]
			stv := tf * (hs/th[c] + se*sf/tp[c])
			fiv := tf * (hf/th[c] + fe*sf/tp[c])
			st[c] = stv
			tot[c] = stv
			fi[c] = fiv
			ft[c] = fiv
		}
		return
	}
	for c := 0; c < n; c++ {
		hs := boost * synS[c]
		hf := boost * synF[c]
		sf := weakSide * ws[c]
		stv := tf * (hs/th[c] + se*sf/tp[c])
		fiv := tf * (hf/th[c] + fe*sf/tp[c])
		st[c] = stv
		tot[c] += stv
		fi[c] = fiv
		ft[c] += fiv
	}
}

// damageFusedScalar is the reference fused kernel.
func damageFusedScalar(k *damageKernArgs) {
	n := int(k.n)
	st := unsafe.Slice(k.st, n)
	tot, ft := unsafe.Slice(k.tot, n), unsafe.Slice(k.ft, n)
	synS := unsafe.Slice(k.synS, n)
	ws, th, tp := unsafe.Slice(k.ws, n), unsafe.Slice(k.th, n), unsafe.Slice(k.tp, n)
	boost, se, weakSide, tf := k.boost, k.se, k.weakSide, k.tf
	if k.init != 0 {
		for c := 0; c < n; c++ {
			hs := boost * synS[c]
			sf := weakSide * ws[c]
			stv := tf * (hs/th[c] + se*sf/tp[c])
			st[c] = stv
			tot[c] = stv
			ft[c] = stv
		}
		return
	}
	for c := 0; c < n; c++ {
		hs := boost * synS[c]
		sf := weakSide * ws[c]
		stv := tf * (hs/th[c] + se*sf/tp[c])
		st[c] = stv
		tot[c] += stv
		ft[c] += stv
	}
}
