package core

import (
	"math"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// table2GridSpecs enumerates every (pattern, tAggON) cell behind the
// Table 2 columns — the grid the batched kernel must reproduce exactly.
func table2GridSpecs(t *testing.T) []pattern.Spec {
	t.Helper()
	var specs []pattern.Spec
	for _, c := range []struct {
		kind  pattern.Kind
		aggOn time.Duration
	}{
		{pattern.DoubleSided, timing.TRAS},
		{pattern.DoubleSided, 7800 * time.Nanosecond},
		{pattern.DoubleSided, timing.AggOnNineTREFI},
		{pattern.Combined, 7800 * time.Nanosecond},
		{pattern.Combined, timing.AggOnNineTREFI},
		// The third family rides along so every pattern kind is pinned.
		{pattern.SingleSided, timing.TRAS},
		{pattern.SingleSided, timing.AggOnNineTREFI},
	} {
		specs = append(specs, testSpec(t, c.kind, c.aggOn))
	}
	return specs
}

// scalarEngine is the reference implementation of CharacterizeRowInto:
// cell-by-cell firstFlip over the materialized []WeakCell population.
// It is the oracle the scalar-vs-batched cross-check tests pin the
// batched kernel to, bit for bit. It borrows its engine's damage terms
// and population cache.
type scalarEngine struct {
	e       *AnalyticEngine
	cells   []device.WeakCell
	scratch flipScratch
}

func (s *scalarEngine) characterizeRowInto(victim int, spec pattern.Spec, opts RunOpts, res *RowResult) error {
	e := s.e
	opts = opts.withDefaults()
	if err := checkVictim(victim, e.numRows); err != nil {
		*res = RowResult{}
		return err
	}
	*res = RowResult{Victim: victim, Spec: spec, NoBitflip: true, Flips: res.Flips[:0]}

	terms := e.termsFor(&spec)
	tf := e.params.TempFactor(opts.TempC)
	maxIters := spec.MaxIterations(opts.Budget)
	cells := s.cellsFor(victim, opts.Run)

	bestIter := int64(math.MaxInt64)
	bestAct := 0
	var bestIdx []int
	for i := range cells {
		c := &cells[i]
		// A cell only produces an observable flip if the victim data
		// pattern stores the value its mechanism attacks.
		if opts.Data.VictimBitAt(c.Bit) != c.Dir.From() {
			continue
		}
		fp, ok := firstFlip(c, terms, e.weakSide, tf, maxIters, &s.scratch)
		if !ok {
			continue
		}
		switch {
		case fp.iter < bestIter || (fp.iter == bestIter && fp.act < bestAct):
			bestIter, bestAct = fp.iter, fp.act
			bestIdx = append(bestIdx[:0], i)
		case fp.iter == bestIter && fp.act == bestAct:
			bestIdx = append(bestIdx, i)
		}
	}
	if len(bestIdx) == 0 {
		return nil
	}

	timeToFirst := time.Duration(bestIter-1)*spec.IterationTime() + terms[bestAct].end
	if timeToFirst > opts.Budget {
		return nil
	}
	res.NoBitflip = false
	res.Iterations = bestIter
	res.ACmin = (bestIter-1)*int64(spec.ActsPerIteration()) + int64(bestAct) + 1
	res.TimeToFirst = timeToFirst
	for _, i := range bestIdx {
		c := &cells[i]
		res.Flips = append(res.Flips, device.Bitflip{
			Row:  victim,
			Bit:  c.Bit,
			Dir:  c.Dir,
			Mech: c.Mech,
		})
	}
	return nil
}

// flipScratch holds firstFlip's per-act damage buffers, hoisted out of
// the per-cell loop so the solver does not allocate per call.
type flipScratch struct {
	steady []float64
	first  []float64
}

func (s *flipScratch) resize(n int) {
	if cap(s.steady) < n {
		s.steady = make([]float64, n)
		s.first = make([]float64, n)
	}
	s.steady = s.steady[:n]
	s.first = s.first[:n]
}

// cellsFor materializes the victim row's cell population for one run,
// reusing the engine's cached base population (private for the last
// row, or the shared PopCache) and the oracle's cells buffer.
func (s *scalarEngine) cellsFor(victim int, runSeed int64) []device.WeakCell {
	e := s.e
	if e.popRow != victim {
		if e.shared != nil {
			e.pop = e.shared.Get(victim)
		} else {
			e.pop = device.NewRowPopulation(e.profile, e.params, e.bank, victim, e.rowBits)
		}
		e.popRow = victim
	}
	s.cells = e.pop.AppendCells(s.cells[:0], runSeed)
	return s.cells
}

// cellFlip is a first-flip point for one cell.
type cellFlip struct {
	iter int64 // 1-based iteration of the flip
	act  int   // 0-based act index within the iteration
}

// firstFlip solves for the first (iteration, act) at which the cell's
// accumulated damage reaches 1, or ok=false if it never does. scr
// provides the per-act damage buffers (callers hoist it out of their
// cell loops).
func firstFlip(c *device.WeakCell, terms []actTerms, weakSide, tf float64, maxIters int64, scr *flipScratch) (cellFlip, bool) {
	if maxIters <= 0 {
		return cellFlip{}, false
	}
	// Per-act steady and first-iteration damages.
	var steadyTotal float64
	scr.resize(len(terms))
	steady := scr.steady
	first := scr.first
	for i := range terms {
		t := &terms[i]
		hs := t.boost
		hf := t.boost
		if t.steadySynergy {
			hs *= c.Syn
		}
		if t.firstSynergy {
			hf *= c.Syn
		}
		sideFactor := device.SideFactor(t.side, weakSide, c.WeakSide)
		steady[i] = tf * (hs/c.Th + t.steadyExposure*sideFactor/c.Tp)
		first[i] = tf * (hf/c.Th + t.firstExposure*sideFactor/c.Tp)
		steadyTotal += steady[i]
	}

	// Iteration 1.
	acc := 0.0
	for i := range first {
		acc += first[i]
		if acc >= 1 {
			return cellFlip{iter: 1, act: i}, true
		}
	}
	if steadyTotal <= 0 {
		return cellFlip{}, false
	}

	// Steady iterations 2..N.
	remaining := 1 - acc
	n := int64(math.Ceil(remaining / steadyTotal))
	if n < 1 {
		n = 1
	}
	iter := 1 + n
	if iter > maxIters {
		return cellFlip{}, false
	}
	// Locate the act within the flip iteration. Floating-point rounding
	// in the ceil above may leave the crossing one iteration later.
	base := acc + float64(n-1)*steadyTotal
	for {
		a := base
		for i := range steady {
			a += steady[i]
			if a >= 1 {
				return cellFlip{iter: iter, act: i}, true
			}
		}
		base = a
		iter++
		if iter > maxIters {
			return cellFlip{}, false
		}
	}
}

// TestSolveBatchMatchesScalar is the scalar-vs-batched cross-check: for
// every pattern spec of the Table 2 grid, across several modules, rows
// and noise seeds, the batched CharacterizeRowInto must agree with the
// retained cell-by-cell scalar reference bit for bit — NoBitflip,
// ACmin, iteration, time to first flip, and the exact flip set.
func TestSolveBatchMatchesScalar(t *testing.T) {
	for _, moduleID := range []string{"S0", "H1", "M1"} {
		batched := testEngine(t, moduleID)
		scalar := scalarEngine{e: testEngine(t, moduleID)}
		var got, want RowResult
		for _, spec := range table2GridSpecs(t) {
			for victim := 1200; victim < 1230; victim++ {
				for run := int64(0); run < 4; run++ { // seeds 0 (noise-free) .. 3
					opts := RunOpts{Run: run}
					if err := batched.CharacterizeRowInto(victim, spec, opts, &got); err != nil {
						t.Fatal(err)
					}
					if err := scalar.characterizeRowInto(victim, spec, opts, &want); err != nil {
						t.Fatal(err)
					}
					if got.NoBitflip != want.NoBitflip || got.ACmin != want.ACmin ||
						got.Iterations != want.Iterations || got.TimeToFirst != want.TimeToFirst ||
						len(got.Flips) != len(want.Flips) {
						t.Fatalf("%s %s@%v victim %d run %d: batched %+v != scalar %+v",
							moduleID, spec.Kind.Short(), spec.AggOn, victim, run, got, want)
					}
					for i := range want.Flips {
						if got.Flips[i] != want.Flips[i] {
							t.Fatalf("%s %s victim %d run %d: flip %d: batched %v != scalar %v",
								moduleID, spec.Kind.Short(), victim, run, i, got.Flips[i], want.Flips[i])
						}
					}
				}
			}
		}
	}
}

// TestSolveBatchMatchesScalarSharedCache repeats the cross-check with a
// shared PopulationCache, where the batched path serves cached
// per-(run, data) solver views instead of rebuilding scratch.
func TestSolveBatchMatchesScalarSharedCache(t *testing.T) {
	mi, err := chipdb.ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	profile := mi.Profile(params)
	cache := device.NewPopulationCache(profile, params, 0, 1024*8)
	batched, err := NewAnalyticEngine(AnalyticConfig{Profile: profile, Params: params, NumRows: 8192, PopCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	scalar := scalarEngine{e: testEngine(t, "S0")}
	var got, want RowResult
	for _, spec := range table2GridSpecs(t) {
		for victim := 4000; victim < 4010; victim++ {
			for run := int64(0); run < 3; run++ {
				if err := batched.CharacterizeRowInto(victim, spec, RunOpts{Run: run}, &got); err != nil {
					t.Fatal(err)
				}
				if err := scalar.characterizeRowInto(victim, spec, RunOpts{Run: run}, &want); err != nil {
					t.Fatal(err)
				}
				if got.NoBitflip != want.NoBitflip || got.ACmin != want.ACmin ||
					got.TimeToFirst != want.TimeToFirst || len(got.Flips) != len(want.Flips) {
					t.Fatalf("victim %d run %d: cached-view batched %+v != scalar %+v", victim, run, got, want)
				}
			}
		}
	}
}

// TestSolveBatchSteadyStateAllocs pins the batched kernel itself at 0
// steady-state allocations on the private-engine path, where the
// solver view is rebuilt into engine scratch every call (the shared
// PopCache path is covered by TestCharacterizeRowSteadyStateAllocs).
func TestSolveBatchSteadyStateAllocs(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.Combined, 636*time.Nanosecond)
	var res RowResult
	warm := func() {
		for run := int64(0); run < 3; run++ {
			if err := e.CharacterizeRowInto(1000, spec, RunOpts{Run: run}, &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("steady-state batched solve allocates %v times per sweep, want 0", allocs)
	}
}
