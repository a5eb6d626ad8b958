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
// real float additions, which are exact by definition. bankbatch.go
// carries the stepping out in integer arithmetic.
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
// the bank untouched) when the configuration cannot be profiled, the
// profile cannot be solved, or the flip horizon is too close to the
// start to be worth jumping — the caller then falls back to exact
// act-by-act execution.
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

	horizon, ok := solveFlipHorizon(&e.prof, &e.bsolve, maxIters)
	if !ok {
		return false, nil
	}
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
	e.accs = seekAccsAt(&e.prof, &e.bsolve, skipped, e.accs)
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
// budget. Each cell steps with the integer binade stepper of
// bankbatch.go. ok=false means the projection rejected the profile (a
// negative, NaN or infinite steady delta, which the damage model never
// produces); the caller then runs act by act, as it does for rows that
// cannot be profiled. The bank engine's fast-forward and the bender
// trace executor share this solve.
func solveFlipHorizon(prof *device.DamageProfile, bs *bankSolve, maxIters int64) (horizon int64, ok bool) {
	if !bs.project(prof.Steady) {
		return 0, false
	}
	a := prof.NumActs()
	n := prof.NumCells()
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
		it, flips := flipIterationPre(prof.CellFirst(c), prof.CellSteady(c), bs.md[c*a:(c+1)*a], bs.ed[c*a:(c+1)*a], lim)
		if flips && it < horizon {
			horizon = it
		}
	}
	return horizon, true
}

// seekAccsAt fills accs (reusing its backing storage) with every
// profiled cell's exact accumulator value after `skipped` completed
// iterations, from the projection solveFlipHorizon made.
func seekAccsAt(prof *device.DamageProfile, bs *bankSolve, skipped int64, accs []float64) []float64 {
	a := prof.NumActs()
	n := prof.NumCells()
	if cap(accs) < n {
		accs = make([]float64, n)
	}
	accs = accs[:n]
	for c := 0; c < n; c++ {
		accs[c] = accAfterPre(prof.CellFirst(c), prof.CellSteady(c), bs.md[c*a:(c+1)*a], bs.ed[c*a:(c+1)*a], skipped)
	}
	return accs
}
