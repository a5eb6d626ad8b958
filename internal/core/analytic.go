package core

import (
	"fmt"
	"math"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
)

// AnalyticEngine computes first-flip points in closed form from the
// device damage model, without executing individual commands. It matches
// BankEngine exactly (see the cross-validation test) while being orders
// of magnitude faster, which makes the paper's full sweep (14 modules x
// 3K rows x 14 tAggON points x 3 patterns x 3 repeats) tractable.
//
// The engine memoizes per-spec damage terms and per-row base cell
// populations and reuses all hot-path scratch buffers, so steady-state
// characterization (revisiting a row across run repeats, or any row
// served by a warm shared PopCache) performs no allocations. The caches
// make an engine NOT safe for concurrent use; give each goroutine its
// own engine (they can share one PopCache, which is concurrency-safe).
type AnalyticEngine struct {
	profile  device.Profile
	params   device.DisturbParams
	weakSide float64
	bank     int
	numRows  int
	rowBits  int

	// shared is the optional cross-engine base-population cache.
	shared *device.PopulationCache

	// Hot-path memoization and scratch state.
	termsSpec   pattern.Spec
	termsOK     bool
	terms       []actTerms
	iterTime    time.Duration
	actsPerIter int
	maxIters    int64
	miBudget    time.Duration
	miOK        bool
	tf          float64
	tfTemp      float64
	tfOK        bool
	popRow      int
	pop         *device.RowPopulation
	batch       solveBatch
	view        device.SolveView
}

var _ Engine = (*AnalyticEngine)(nil)

// AnalyticConfig configures an AnalyticEngine.
type AnalyticConfig struct {
	Profile device.Profile
	Params  device.DisturbParams
	// Bank is the bank index (seeds the cell populations).
	Bank int
	// NumRows defaults to 65536, RowBytes to 1024.
	NumRows  int
	RowBytes int
	// PopCache optionally shares base cell populations across engines
	// that characterize the same die (it must match Profile, Params,
	// Bank and RowBytes). Without it the engine keeps a private
	// single-row cache, which is enough for run-repeat loops.
	PopCache *device.PopulationCache
}

// NewAnalyticEngine validates the configuration and builds the engine.
func NewAnalyticEngine(cfg AnalyticConfig) (*AnalyticEngine, error) {
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumRows == 0 {
		cfg.NumRows = 65536
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = 1024
	}
	if cfg.PopCache != nil && !cfg.PopCache.Matches(cfg.Profile, cfg.Params, cfg.Bank, cfg.RowBytes*8) {
		return nil, fmt.Errorf("core: PopCache was built for a different die than this engine")
	}
	return &AnalyticEngine{
		profile:  cfg.Profile,
		params:   cfg.Params,
		weakSide: device.WeakSideCouplingOf(cfg.Profile, cfg.Params),
		bank:     cfg.Bank,
		numRows:  cfg.NumRows,
		rowBits:  cfg.RowBytes * 8,
		shared:   cfg.PopCache,
		popRow:   -1,
	}, nil
}

// actTerms is the per-activation damage decomposition for one pattern.
type actTerms struct {
	// boost is hs(t) for this activation.
	boost float64
	// side is which neighbour the victim is disturbed from.
	side device.Side
	// steadyExposure / firstExposure are the raw press exposures in
	// seconds under steady-state and first-iteration interleaving
	// conditions (side coupling is applied per cell).
	steadyExposure float64
	firstExposure  float64
	// steadySynergy / firstSynergy indicate whether the double-sided
	// hammer synergy applies.
	steadySynergy bool
	firstSynergy  bool
	// end is the time offset of this activation's precharge within the
	// iteration.
	end time.Duration
}

// decompose computes the per-activation damage terms of a pattern into
// dst. The steady/first split mirrors BankEngine's state rules exactly:
// the very first activation of the strong aggressor sees no synergy (the
// other side has not activated yet) and no interleave penalty.
func (e *AnalyticEngine) decompose(dst []actTerms, spec pattern.Spec) []actTerms {
	acts := spec.Acts()
	multi := len(acts) > 1
	for i, a := range acts {
		side := device.SideStrong
		if a.RowOffset > 0 {
			side = device.SideWeak
		}
		first := i > 0 // only act 0 of iteration 1 lacks synergy/interleave
		dst = append(dst, actTerms{
			boost:          e.params.HammerBoost(a.OnTime),
			side:           side,
			steadyExposure: e.params.PressExposure(a.OnTime, multi),
			firstExposure:  e.params.PressExposure(a.OnTime, multi && first),
			steadySynergy:  multi,
			firstSynergy:   multi && first,
			end:            spec.ActEnd(i),
		})
	}
	return dst
}

// termsFor returns the memoized damage decomposition of spec. Specs are
// fixed across a whole (module, pattern, tAggON) cell, so in campaign
// loops this is computed once per cell instead of once per row. The
// spec-derived schedule constants (iteration time, acts per iteration)
// are memoized alongside, and the budget-derived iteration cap is
// invalidated here so maxItersFor can key on the budget alone.
func (e *AnalyticEngine) termsFor(spec *pattern.Spec) []actTerms {
	if e.termsOK && spec.Eq(&e.termsSpec) {
		return e.terms
	}
	e.terms = e.decompose(e.terms[:0], *spec)
	e.termsSpec = *spec
	e.termsOK = true
	e.iterTime = spec.IterationTime()
	e.actsPerIter = spec.ActsPerIteration()
	e.miOK = false
	return e.terms
}

// maxItersFor memoizes MaxIterations for the memoized spec (it must be
// called after termsFor, whose memo key it reuses).
func (e *AnalyticEngine) maxItersFor(budget time.Duration) int64 {
	if !e.miOK || budget != e.miBudget {
		e.maxIters = e.termsSpec.MaxIterations(budget)
		e.miBudget = budget
		e.miOK = true
	}
	return e.maxIters
}

// tempFactorFor memoizes params.TempFactor (an exp call) by setpoint;
// campaigns run whole sweeps at one temperature.
func (e *AnalyticEngine) tempFactorFor(tempC float64) float64 {
	if !e.tfOK || tempC != e.tfTemp {
		e.tf = e.params.TempFactor(tempC)
		e.tfTemp = tempC
		e.tfOK = true
	}
	return e.tf
}

// solveBatch evaluates firstFlip, the per-cell scalar solver kept as
// the oracle in analytic_batch_test.go, over a whole row's eligible
// cells at once, in struct-of-arrays form: per-cell thresholds come in as a
// device.SolveView, per-(act, cell) dose terms and the per-cell
// iteration results live in contiguous slices laid out act-major with
// a lane-padded stride. The damage phase runs the dispatched vector
// kernels (kernels.go); the locate phase replays the scalar solver's
// control flow per cell, so every float operation happens in the same
// order as the scalar path and the results are bit-identical (pinned
// by the scalar-vs-batched cross-check test, the kernel parity fuzzer
// and the rendering goldens).
type solveBatch struct {
	// steady and first are the per-act damages, act-major with lane
	// stride np: steady[a*np+c] is act a's steady-state damage to cell
	// c. Acts whose first-iteration damage is bit-identical to the
	// steady one run the fused kernel and leave their first row
	// unwritten; fused[a] tells readers to use the steady row instead.
	steady []float64
	first  []float64
	fused  []bool
	// steadyTotal[c] / firstTotal[c] are the damage one steady-state /
	// first iteration deals to cell c (the sums over acts, accumulated
	// in act order — bit-identical to the scalar walk's accumulator).
	steadyTotal []float64
	firstTotal  []float64
	// ones stands in for the synergy / side-coupling columns of acts
	// where those factors do not apply: x*1.0 is exact for every x, so
	// the branch-free kernels match the branching scalar oracle.
	ones []float64
	// iter[c] is the 1-based flip iteration of cell c and act[c] the
	// 0-based act index within it. 0 means no flip at or before the
	// running-best iteration: the batch exists to find the earliest
	// flip, so cells that provably cannot win are dropped without a
	// locate walk and keep iter 0.
	iter []int64
	act  []int32
	// np is the lane-padded cell count (the stride of steady/first).
	np int

	// kargs is the reused kernel argument block (see damageKernArgs);
	// keeping it on the batch keeps the indirect kernel calls
	// allocation-free.
	kargs damageKernArgs

	// Winner fold: the earliest (iteration, act) across the row and
	// the view indices sharing it, in view order. lim is the inclusive
	// iteration horizon: min(maxIters, bestIter).
	bestIter int64
	bestAct  int32
	bestIdx  []int
	lim      int64
}

func (b *solveBatch) resize(acts, n int) {
	np := (n + solveLanes - 1) &^ (solveLanes - 1)
	if np == b.np && len(b.iter) == n && len(b.fused) == acts {
		return // steady state: every slice already has exactly this shape
	}
	b.np = np
	// Capacity checks are deliberately one per slice: the columns are
	// sized by two different extents (np per cell, acts*np per plane),
	// and a joint check keyed on one slice would quietly over-reslice
	// a sibling whose capacity drifted smaller.
	if cap(b.steadyTotal) < np {
		b.steadyTotal = make([]float64, np)
	}
	if cap(b.firstTotal) < np {
		b.firstTotal = make([]float64, np)
	}
	if cap(b.ones) < np {
		ones := make([]float64, np)
		for i := range ones {
			ones[i] = 1
		}
		b.ones = ones
	}
	b.steadyTotal = b.steadyTotal[:np]
	b.firstTotal = b.firstTotal[:np]
	b.ones = b.ones[:np]
	if cap(b.iter) < n {
		b.iter = make([]int64, n)
	}
	if cap(b.act) < n {
		b.act = make([]int32, n)
	}
	b.iter, b.act = b.iter[:n], b.act[:n]
	if cap(b.fused) < acts {
		b.fused = make([]bool, acts)
	}
	b.fused = b.fused[:acts]
	// The damage planes are not pre-zeroed: the kernels rewrite every
	// lane of every act row each solve (including the pad lanes), and
	// fused acts' first rows are never read — locate redirects them to
	// the steady row — so a shrink-then-grow cycle cannot surface a
	// previous batch's damages through lane-padded reads.
	if cap(b.steady) < acts*np {
		b.steady = make([]float64, acts*np)
	}
	if cap(b.first) < acts*np {
		b.first = make([]float64, acts*np)
	}
	b.steady = b.steady[:acts*np]
	b.first = b.first[:acts*np]
}

// solve fills b.iter/b.act and the winner fold for every cell of the
// view. The arithmetic per cell is exactly firstFlip's,
// loop-interchanged: damages are computed act-major by the dispatched
// kernels (the per-term synergy/side selects are uniform across cells,
// folded into exact ones-vector multiplies), then the flip point is
// located per cell.
func (b *solveBatch) solve(v *device.SolveView, terms []actTerms, weakSide, tf float64, maxIters int64) {
	n := v.Len()
	acts := len(terms)
	b.resize(acts, n)
	b.bestIter, b.bestAct = math.MaxInt64, math.MaxInt32
	b.bestIdx = b.bestIdx[:0]
	b.lim = maxIters
	if n == 0 || maxIters <= 0 || acts == 0 {
		for c := range b.iter {
			b.iter[c] = 0
		}
		return
	}
	np := b.np

	k := &b.kargs
	k.tot, k.ft = &b.steadyTotal[0], &b.firstTotal[0]
	k.th, k.tp = &v.Th[0], &v.Tp[0]
	k.tf = tf
	k.n = int64(np)
	for i := range terms {
		t := &terms[i]
		// Act 0 stores the totals rather than accumulating into them,
		// so they never need pre-zeroing (see damageKernArgs.init).
		if i == 0 {
			k.init = 1
		} else {
			k.init = 0
		}
		k.st = &b.steady[i*np]
		k.boost, k.se = t.boost, t.steadyExposure
		if t.side == device.SideWeak {
			k.ws, k.weakSide = &v.WeakSide[0], weakSide
		} else {
			k.ws, k.weakSide = &b.ones[0], 1
		}
		if t.steadySynergy {
			k.synS = &v.Syn[0]
		} else {
			k.synS = &b.ones[0]
		}
		// An act whose first-iteration damage is defined by the same
		// synergy flag and exposure as its steady-state damage (every
		// act but the warm-up first of a multi-act pattern) produces
		// bit-identical fi and st; the fused kernel computes them once.
		fused := t.firstSynergy == t.steadySynergy && t.firstExposure == t.steadyExposure
		b.fused[i] = fused
		if fused {
			damageFused(k)
		} else {
			k.fi = &b.first[i*np]
			k.fe = t.firstExposure
			if t.firstSynergy {
				k.synF = &v.Syn[0]
			} else {
				k.synF = &b.ones[0]
			}
			damageSplit(k)
		}
	}
	b.locate(n, acts)
}

// locate replays the scalar solver's per-cell control flow over the
// kernel-computed damages, folding winner extraction in. Every float
// operation a cell performs happens in firstFlip's order; the only
// divergences are pure skips: a cell whose iteration-1 total stayed
// below 1 skips the act walk (damages are non-negative, so prefix
// sums are monotone and cannot cross if the full sum did not), and a
// cell whose closed-form jump lands past the running-best iteration
// cannot win and is dropped without its locate walk.
func (b *solveBatch) locate(n, acts int) {
	np := b.np
	steady, first := b.steady, b.first
	for c := 0; c < n; c++ {
		b.iter[c] = 0 // overwritten by note when the cell flips in time
		acc := b.firstTotal[c]
		if !(acc < 1) {
			// Iteration 1 crossed (or a damage is NaN): replay the
			// exact walk to find the act.
			a := 0.0
			crossed := int32(-1)
			for i := 0; i < acts; i++ {
				row := first
				if b.fused[i] {
					row = steady
				}
				a += row[i*np+c]
				if a >= 1 {
					crossed = int32(i)
					break
				}
			}
			if crossed >= 0 {
				b.note(c, 1, crossed)
				continue
			}
			// Reachable only with NaN damages; keep the scalar flow.
			acc = a
		}
		total := b.steadyTotal[c]
		if total <= 0 {
			continue
		}
		remaining := 1 - acc
		// Prefilter: the cell's jump lands past the running-best
		// iteration — so it cannot win and keeps iter 0 — exactly when
		// remaining/total > lim-1, i.e. remaining > (lim-1)*total. One
		// multiply decides that for almost every losing cell, replacing
		// the divide+ceil+convert chain below. The float product p
		// carries a rounding (and float64(lim-1) another, when lim-1
		// exceeds 2^53), so only a margin comparison is conclusive:
		// p*skipMargin >= the exact product whenever p is normal.
		// Borderline cells, subnormal/zero/overflowed/NaN products and
		// lim == 1 all fall through to the exact sequence.
		const skipMargin = 1 + 0x1p-50 // > 1 + 4 ulps, exactly representable
		if p := float64(b.lim-1) * total; p > 0x1p-1000 && remaining > p*skipMargin {
			continue
		}
		// Steady iterations 2..N: closed-form jump, then the same
		// rounding-robust locate loop as the scalar solver.
		k := int64(math.Ceil(remaining / total))
		if k < 1 {
			k = 1
		}
		iter := 1 + k
		if iter > b.lim {
			continue
		}
		base := acc + float64(k-1)*total
		for {
			a := base
			crossed := int32(-1)
			for i := 0; i < acts; i++ {
				a += steady[i*np+c]
				if a >= 1 {
					crossed = int32(i)
					break
				}
			}
			if crossed >= 0 {
				b.note(c, iter, crossed)
				break
			}
			base = a
			iter++
			if iter > b.lim {
				break
			}
		}
	}
}

// note records cell c's flip point and folds it into the winner state.
// Cells arrive in view order, so bestIdx stays view-ordered; tightening
// lim to the new best iteration keeps later ties reachable (the locate
// horizon is inclusive) while letting strictly later flips skip out.
func (b *solveBatch) note(c int, iter int64, act int32) {
	b.iter[c], b.act[c] = iter, act
	switch {
	case iter < b.bestIter || (iter == b.bestIter && act < b.bestAct):
		b.bestIter, b.bestAct = iter, act
		b.bestIdx = append(b.bestIdx[:0], c)
		b.lim = iter
	case iter == b.bestIter && act == b.bestAct:
		b.bestIdx = append(b.bestIdx, c)
	}
}

// viewFor returns the victim row's solver view for one (run, data
// pattern) realization. With a shared PopCache the view is cached on
// the row population, so every (pattern, tAggON) cell of a campaign
// that revisits the same (row, run) shares one noise application; a
// private engine rebuilds into its own scratch view instead (caching
// per-realization views for every row it ever visits would trade
// unbounded memory for nothing — private engines re-generate the
// population on row change anyway).
func (e *AnalyticEngine) viewFor(victim int, runSeed int64, data device.DataPattern) *device.SolveView {
	if e.popRow != victim {
		if e.shared != nil {
			e.pop = e.shared.Get(victim)
		} else {
			e.pop = device.NewRowPopulation(e.profile, e.params, e.bank, victim, e.rowBits)
		}
		e.popRow = victim
	}
	if e.shared != nil {
		return e.pop.SolveView(runSeed, data)
	}
	e.pop.FillSolveView(&e.view, runSeed, data)
	return &e.view
}

// CharacterizeRow implements Engine.
func (e *AnalyticEngine) CharacterizeRow(victim int, spec pattern.Spec, opts RunOpts) (RowResult, error) {
	var res RowResult
	err := e.CharacterizeRowInto(victim, spec, opts, &res)
	return res, err
}

// CharacterizeRowInto is CharacterizeRow writing into a caller-owned
// result, reusing res.Flips' backing storage. Campaign loops recycle one
// RowResult so the whole steady-state hot path is allocation-free; the
// flips are only valid until the next call with the same res.
//
// It is a thin wrapper over the batched solver: the row's eligible
// cells are solved in one solveBatch pass and the winner (earliest
// (iteration, act), ties in cell order) is extracted afterwards — the
// output is bit-identical to solving cell by cell with firstFlip.
func (e *AnalyticEngine) CharacterizeRowInto(victim int, spec pattern.Spec, opts RunOpts, res *RowResult) error {
	opts = opts.withDefaults()
	if err := checkVictim(victim, e.numRows); err != nil {
		*res = RowResult{}
		return err
	}
	// Field-wise reset (not a struct literal): the struct copy showed
	// up in the solve hot path, and Flips' backing storage must be
	// kept anyway. The Spec copy is guarded for the same reason —
	// campaign loops recycle one result across a fixed spec.
	res.Victim = victim
	if !spec.Eq(&res.Spec) {
		res.Spec = spec
	}
	res.NoBitflip = true
	res.Iterations = 0
	res.ACmin = 0
	res.TimeToFirst = 0
	res.Flips = res.Flips[:0]

	terms := e.termsFor(&spec)
	tf := e.tempFactorFor(opts.TempC)
	maxIters := e.maxItersFor(opts.Budget)
	view := e.viewFor(victim, opts.Run, opts.Data)

	e.batch.solve(view, terms, e.weakSide, tf, maxIters)
	if len(e.batch.bestIdx) == 0 {
		return nil
	}
	bestIter, bestAct := e.batch.bestIter, int(e.batch.bestAct)

	timeToFirst := time.Duration(bestIter-1)*e.iterTime + terms[bestAct].end
	if timeToFirst > opts.Budget {
		return nil
	}
	res.NoBitflip = false
	res.Iterations = bestIter
	res.ACmin = (bestIter-1)*int64(e.actsPerIter) + int64(bestAct) + 1
	res.TimeToFirst = timeToFirst
	for _, i := range e.batch.bestIdx {
		res.Flips = append(res.Flips, device.Bitflip{
			Row:  victim,
			Bit:  int(view.Bit[i]),
			Dir:  view.Dir[i],
			Mech: view.Mech[i],
		})
	}
	return nil
}
