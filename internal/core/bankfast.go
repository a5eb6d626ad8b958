// Event-horizon fast-forward for the ground-truth bank engine.
//
// The bank applies a fixed per-cell damage delta at every activation of
// a periodic access pattern (one delta set for the warm-up first
// iteration, one for the steady state — see device.DamageProfile), so a
// victim cell's accumulator trajectory is repeated IEEE-754 addition of
// known constants. That trajectory can be reproduced bit for bit
// without executing the adds one by one: within one binade [2^e,
// 2^(e+1)) every representable float64 is an integer count of
// ulp = 2^(e-52), and adding a constant d = q*ulp + r (0 <= r < ulp)
// rounds the same way at every step — down to q ulps when r < ulp/2, up
// to q+1 when r > ulp/2 — so one whole iteration advances the mantissa
// by a fixed integer and k iterations advance it by k times that,
// computed in one multiplication. Only binade boundaries, exact
// half-ulp remainders (whose round-to-nearest-even direction depends on
// mantissa parity) and subnormals fall back to single-stepping with
// real float additions, which are exact by definition.
//
// fastForward solves every eligible cell's first flip iteration this
// way, jumps the bank to a guard window before the earliest one
// (device.Bank.SeekRowDisturb with exact accumulators and side
// bookkeeping), and replays only the window act by act, so the flip
// activation, CompareRow readback and all engine bookkeeping come from
// the real machinery and the RowResult is byte-identical to full
// act-by-act execution.
package core

import (
	"math"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
)

// guardIters is how many whole iterations before the computed flip
// horizon the fast path re-enters act-by-act execution. The horizon is
// exact, so one iteration of slack would do; two keep the steady-state
// bookkeeping exercised ahead of the flip at negligible cost.
const guardIters = 2

// fastForward runs the fast-forward path. It reports done=false (with
// the bank untouched) when the configuration cannot be profiled or the
// flip horizon is too close to the start to be worth jumping — the
// caller then falls back to exact act-by-act execution.
func (e *BankEngine) fastForward(victim int, spec pattern.Spec, acts []pattern.Act, maxIters int64, res *RowResult) (bool, error) {
	e.profActs = e.profActs[:0]
	start := time.Duration(0)
	for _, a := range acts {
		e.profActs = append(e.profActs, device.ProfileAct{RowOffset: a.RowOffset, OnTime: a.OnTime, Start: start})
		start += a.OnTime + spec.Timings.TRP
	}
	iterTime := start
	if iterTime <= 0 {
		return false, nil
	}
	if err := e.bank.FillDamageProfile(&e.prof, victim, e.profActs, iterTime); err != nil {
		// Anything unusual — a mapper aliasing aggressors onto the
		// victim, a pre-disturbed row — falls back to exact execution.
		return false, nil
	}

	horizon, fast := solveFlipHorizon(&e.prof, &e.bsolve, maxIters)

	startIter := horizon - guardIters
	if horizon > maxIters {
		// No flip within the budget: skip the whole schedule and let
		// hammer run only the end-of-experiment readback.
		startIter = maxIters + 1
	}
	if startIter < 2 {
		return false, nil
	}

	// Jump state: exact per-cell accumulators and side bookkeeping at
	// the end of iteration startIter-1, counters advanced over the
	// skipped activations.
	skipped := startIter - 1
	a := e.prof.NumActs()
	e.accs = seekAccsAt(&e.prof, &e.bsolve, fast, skipped, e.accs)
	strong, weak := e.prof.SideSeekAt(skipped, iterTime)
	if err := e.bank.SeekRowDisturb(victim, e.accs, strong, weak, skipped*int64(a)); err != nil {
		return false, nil
	}
	err := e.hammer(victim, spec, acts, maxIters, startIter, time.Duration(skipped)*iterTime, res)
	return true, err
}

// solveFlipHorizon returns the event horizon of a captured damage
// profile: the earliest 1-based iteration any eligible cell's
// accumulator reaches 1, or maxIters+1 when no cell flips within the
// budget. The returned fast flag reports whether the vector-dispatched
// integer binade stepping of bankbatch.go engaged (it also conditions
// which accumulator-seek variant matches the solve); purego builds and
// profiles the projection rejects keep the float reference path. The
// bank engine's fast-forward and the bender trace executor share this
// solve.
func solveFlipHorizon(prof *device.DamageProfile, bs *bankSolve, maxIters int64) (horizon int64, fast bool) {
	a := prof.NumActs()
	n := prof.NumCells()
	fast = bankFastEnabled && bs.project(prof.Steady)

	// Later cells only need solving up to the current horizon — flips
	// past it cannot win.
	horizon = maxIters + 1
	for c := 0; c < n; c++ {
		if !prof.Eligible[c] {
			continue
		}
		lim := horizon
		if lim > maxIters {
			lim = maxIters
		}
		var it int64
		var ok bool
		if fast {
			it, ok = flipIterationPre(prof.CellFirst(c), prof.CellSteady(c), bs.md[c*a:(c+1)*a], bs.ed[c*a:(c+1)*a], lim)
		} else {
			it, ok = flipIteration(prof.CellFirst(c), prof.CellSteady(c), lim)
		}
		if ok && it < horizon {
			horizon = it
		}
	}
	return horizon, fast
}

// seekAccsAt fills accs (reusing its backing storage) with every
// profiled cell's exact accumulator value after `skipped` completed
// iterations, using the same stepping variant the horizon was solved
// with.
func seekAccsAt(prof *device.DamageProfile, bs *bankSolve, fast bool, skipped int64, accs []float64) []float64 {
	a := prof.NumActs()
	n := prof.NumCells()
	if cap(accs) < n {
		accs = make([]float64, n)
	}
	accs = accs[:n]
	for c := 0; c < n; c++ {
		if fast {
			accs[c] = accAfterPre(prof.CellFirst(c), prof.CellSteady(c), bs.md[c*a:(c+1)*a], bs.ed[c*a:(c+1)*a], skipped)
		} else {
			accs[c] = accAfter(prof.CellFirst(c), prof.CellSteady(c), skipped)
		}
	}
	return accs
}

// flipIteration returns the first 1-based iteration at which repeated
// float64 addition of the per-act deltas (first for iteration 1, steady
// from iteration 2 on) drives an accumulator starting at 0 to >= 1, or
// ok=false if that does not happen within maxIters iterations. The
// returned iteration is exact for the real float trajectory, including
// rounding stalls where the additions stop changing the accumulator.
func flipIteration(first, steady []float64, maxIters int64) (int64, bool) {
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
		// Crossing 1 requires leaving the accumulator's current binade,
		// so the in-binade bulk advance below can never skip past it.
		next, k := bulkIterations(acc, steady, maxIters-iter+1)
		if k > 0 {
			acc = next
			iter += k
			continue
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

// accAfter returns the exact accumulator value after `iters` completed
// iterations of the delta schedule, with no crossing check — callers
// use it for jump states strictly before a cell's flip, and for masked
// cells whose accumulator keeps growing past 1 without an observable
// flip.
func accAfter(first, steady []float64, iters int64) float64 {
	if iters <= 0 {
		return 0
	}
	acc := 0.0
	for _, d := range first {
		acc += d
	}
	for done := int64(1); done < iters; {
		next, k := bulkIterations(acc, steady, iters-done)
		if k > 0 {
			acc = next
			done += k
			continue
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

// bulkIterations advances the accumulator by up to maxK whole
// iterations of the steady per-act deltas in closed form, returning the
// new accumulator and the number of iterations consumed. 0 means the
// caller must single-step one iteration with real float additions:
// the accumulator is too close to its binade top (where the rounding
// granularity changes), is zero/subnormal/non-finite, or a delta's
// remainder is an exact half ulp (round-half-even then depends on
// mantissa parity, which varies step to step).
//
// Correctness: the accumulator is m*ulp with m in [2^52, 2^53). Each
// add of d = q*ulp + r yields a true sum (m'+q)*ulp + r that rounds to
// m'+q ulps (r < ulp/2) or m'+q+1 ulps (r > ulp/2) — independent of m'
// — provided the sum stays below the binade top. One iteration
// therefore advances the mantissa by the constant t = sum of per-act
// increments, and the cap keeps every intermediate true sum strictly
// inside the binade: rounded mantissas stay <= m+k*t and every true sum
// is < (m+k*t+1)*ulp < 2^(e+1).
func bulkIterations(acc float64, steady []float64, maxK int64) (float64, int64) {
	bits := math.Float64bits(acc)
	exp := int(bits >> 52 & 0x7ff)
	// exp <= 1 also excludes the lowest normal binade, where half an ulp
	// of the binade is not representable and the tie test below would
	// misround.
	if exp <= 1 || exp == 0x7ff {
		return acc, 0
	}
	ulp := math.Ldexp(1, exp-1023-52)
	binadeTop := math.Ldexp(1, exp-1023+1)
	half := ulp / 2
	m := int64(1)<<52 | int64(bits&(1<<52-1))
	var t int64
	for _, d := range steady {
		if d >= binadeTop {
			return acc, 0 // a single add exits the binade
		}
		// Exact by construction: ulp is a power of two, and q*ulp / r
		// are the high / low mantissa bits of d (a subnormal quotient
		// can only round when d < ulp, where floor is 0 either way).
		q := math.Floor(d / ulp)
		r := d - q*ulp
		inc := int64(q)
		if r > half {
			inc++
		} else if r == half && r != 0 {
			return acc, 0
		}
		t += inc
	}
	if t == 0 {
		// Every add rounds to a no-op; the accumulator never moves
		// again in this binade.
		return acc, maxK
	}
	room := (int64(1)<<53 - 1) - int64(len(steady)) - 1 - m
	k := room / t
	if k > maxK {
		k = maxK
	}
	if k <= 0 {
		return acc, 0
	}
	return math.Ldexp(float64(m+k*t), exp-1023-52), k
}
