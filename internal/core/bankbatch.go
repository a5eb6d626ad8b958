// Integer binade stepping: the bank fast-forward's solver.
//
// Within one binade, adding a steady delta d to the accumulator
// advances its mantissa by a fixed integer (bankfast.go), and that
// integer is pure bit surgery: a delta d = md * 2^(ed-1075) splits
// against an accumulator binade of exponent e into quotient md>>s and
// remainder md&(2^s-1) with s = e - ed, and the round direction is one
// integer compare against the half-ulp bit 2^(s-1). bankSolve projects
// a whole damage profile's steady deltas into (mantissa, exponent) form
// once per characterization, and bulkIterationsPre advances an
// accumulator through as many whole iterations as the binade allows
// with integer shifts and compares only. The warm-up iteration and the
// fallback single-steps (binade boundaries, exact half-ulp remainders,
// the lowest binades) use real float additions.
//
// The projection rejects profiles containing a negative, NaN or
// infinite steady delta (the damage model produces none);
// solveFlipHorizon then reports the profile unsolvable and the engines
// run it act by act. The tests fuzz this stepper against a float
// stepper that re-derives every ulp decomposition with divides, floors
// and Ldexp (FuzzBankBatchParity), and check both against executing
// every addition (TestFastForwardKernelMatchesNaive).

package core

import "math"

// bankSolve holds one damage profile's steady deltas in projected
// integer form, cell-major like DamageProfile.Steady: md is the
// mantissa with the implicit bit ORed in for normal values, ed the
// effective biased exponent (1 for subnormals, whose scale matches the
// lowest normal binade). It lives on the BankEngine so steady-state
// characterizations do not allocate.
type bankSolve struct {
	md []uint64
	ed []int32
}

// project decomposes every steady delta of a profile. It reports false
// if any delta is negative (including -0), NaN or infinite.
func (s *bankSolve) project(steady []float64) bool {
	n := len(steady)
	if cap(s.md) < n {
		s.md = make([]uint64, n)
		s.ed = make([]int32, n)
	}
	s.md, s.ed = s.md[:n], s.ed[:n]
	for i, d := range steady {
		bits := math.Float64bits(d)
		exp := int32(bits >> 52 & 0x7ff)
		if bits>>63 != 0 || exp == 0x7ff {
			return false
		}
		m := bits & (1<<52 - 1)
		if exp == 0 {
			exp = 1 // subnormal: same scale as the lowest normal binade
		} else {
			m |= 1 << 52
		}
		s.md[i], s.ed[i] = m, exp
	}
	return true
}

// bulkIterationsPre advances the accumulator by up to maxK whole
// iterations of a projected steady delta row in closed form, returning
// the new accumulator and the number of iterations consumed. k = 0
// means the caller must single-step one iteration with real float
// additions: the accumulator is at or below the lowest normal binade
// (where half an ulp is not representable) or non-finite, a delta
// reaches the next binade in one add, or a delta's remainder is an
// exact half ulp (round-half-even then depends on mantissa parity,
// which varies step to step).
//
// Correctness: the accumulator is m*ulp with m in [2^52, 2^53). Each
// add of d = q*ulp + r yields a true sum (m'+q)*ulp + r that rounds to
// m'+q ulps (r < ulp/2) or m'+q+1 ulps (r > ulp/2) — independent of m'
// — provided the sum stays below the binade top. One iteration
// therefore advances the mantissa by the constant t = sum of per-act
// increments, and the cap keeps every intermediate true sum strictly
// inside the binade: rounded mantissas stay <= m+k*t and every true sum
// is < (m+k*t+1)*ulp < 2^(e+1).
//
// capped reports that the advance stopped at the binade's room rather
// than at maxK. The leftover room is then provably under one
// iteration's increment (room mod t < t), so re-probing before the
// boundary single-step would always return k = 0 — callers go
// straight to the single-step instead.
func bulkIterationsPre(acc float64, md []uint64, ed []int32, maxK int64) (next float64, k int64, capped bool) {
	bits := math.Float64bits(acc)
	exp := int32(bits >> 52 & 0x7ff)
	// The sign guard is unreachable for real damage trajectories
	// (deltas are non-negative, accumulators start at 0) and falls
	// back to exact single-stepping rather than mis-composing a
	// negative accumulator's bits.
	if exp <= 1 || exp == 0x7ff || bits>>63 != 0 {
		return acc, 0, false
	}
	m := int64(1)<<52 | int64(bits&(1<<52-1))
	ed = ed[:len(md)]
	var t int64
	for i, mv := range md {
		s := exp - ed[i]
		if uint32(s-1) < 53 { // 1 <= s <= 53, the common case
			half := uint64(1) << (s - 1)
			rb := mv & (half<<1 - 1)
			q := int64(mv >> s)
			if rb > half {
				q++
			} else if rb == half {
				// Exact half ulp: round-half-even depends on mantissa
				// parity, which varies step to step.
				return acc, 0, false
			}
			t += q
		} else if s >= 54 {
			// The delta is under half an ulp: every add rounds to a
			// no-op for this delta.
		} else if s < 0 {
			return acc, 0, false // a single add exits the binade
		} else {
			t += int64(mv) // s == 0: the delta is a whole number of ulps
		}
	}
	if t == 0 {
		// Every add rounds to a no-op; the accumulator never moves
		// again in this binade.
		return acc, maxK, false
	}
	room := (int64(1)<<53 - 1) - int64(len(md)) - 1 - m
	k = room / t
	if k >= maxK {
		k = maxK
	} else {
		capped = true
	}
	if k <= 0 {
		return acc, 0, false
	}
	// m+k*t stays in [2^52, 2^53), so masking off the implicit bit and
	// keeping the binade exponent composes exactly the float64 that
	// Ldexp(float64(m+k*t), exp-1075) would build.
	return math.Float64frombits(uint64(exp)<<52 | uint64(m+k*t)&(1<<52-1)), k, capped
}

// flipIterationPre returns the first 1-based iteration at which
// repeated float64 addition of the per-act deltas (first for iteration
// 1, steady from iteration 2 on) drives an accumulator starting at 0 to
// >= 1, or ok=false if that does not happen within maxIters
// iterations. md and ed are steady's projection. The returned
// iteration is exact for the real float trajectory, including rounding
// stalls where the additions stop changing the accumulator. Crossing 1
// requires leaving the accumulator's current binade, so the in-binade
// bulk advance can never skip past it.
func flipIterationPre(first, steady []float64, md []uint64, ed []int32, maxIters int64) (int64, bool) {
	if maxIters <= 0 {
		return 0, false
	}
	acc := 0.0
	for _, d := range first {
		acc += d
		if acc >= 1 {
			return 1, true
		}
	}
	for iter := int64(2); iter <= maxIters; {
		if next, k, capped := bulkIterationsPre(acc, md, ed, maxIters-iter+1); k > 0 {
			acc = next
			iter += k
			if !capped || iter > maxIters {
				continue
			}
			// Room-capped: fall through to the boundary single-step
			// without the provably fruitless re-probe.
		}
		prev := acc
		for _, d := range steady {
			acc += d
			if acc >= 1 {
				return iter, true
			}
		}
		if acc == prev {
			// A whole iteration rounded to no-ops with the bookkeeping
			// already steady: the state repeats forever.
			return 0, false
		}
		iter++
	}
	return 0, false
}

// accAfterPre returns the exact accumulator value after `iters`
// completed iterations of the delta schedule, with no crossing check —
// callers use it for jump states strictly before a cell's flip, and for
// masked cells whose accumulator keeps growing past 1 without an
// observable flip.
func accAfterPre(first, steady []float64, md []uint64, ed []int32, iters int64) float64 {
	if iters <= 0 {
		return 0
	}
	acc := 0.0
	for _, d := range first {
		acc += d
	}
	for done := int64(1); done < iters; {
		if next, k, capped := bulkIterationsPre(acc, md, ed, iters-done); k > 0 {
			acc = next
			done += k
			if !capped || done >= iters {
				continue
			}
		}
		prev := acc
		for _, d := range steady {
			acc += d
		}
		if acc == prev {
			return acc
		}
		done++
	}
	return acc
}
