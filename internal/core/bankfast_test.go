package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// naiveFlip is the brute-force oracle for the fast-forward kernel: it
// executes every float addition one by one.
func naiveFlip(first, steady []float64, maxIters int64) (int64, bool) {
	acc := 0.0
	for iter := int64(1); iter <= maxIters; iter++ {
		ds := steady
		if iter == 1 {
			ds = first
		}
		for _, d := range ds {
			acc += d
			if acc >= 1 {
				return iter, true
			}
		}
	}
	return 0, false
}

func naiveAccAfter(first, steady []float64, iters int64) float64 {
	acc := 0.0
	for iter := int64(1); iter <= iters; iter++ {
		ds := steady
		if iter == 1 {
			ds = first
		}
		for _, d := range ds {
			acc += d
		}
	}
	return acc
}

// The float stepper: the integer stepper's oracle. flipIteration,
// accAfter and bulkIterations step the same trajectories as
// flipIterationPre, accAfterPre and bulkIterationsPre (bankbatch.go),
// but re-derive each steady delta's ulp decomposition with float
// divides, floors and Ldexp scalings on every binade.

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

// TestFastForwardKernelMatchesNaive cross-checks the float and the
// integer stepper (flipIteration and accAfter, flipIterationPre and
// accAfterPre) against executing the additions one by one, over random
// delta schedules spanning many magnitudes plus hand-built adversarial
// cases (rounding stalls, exact round-half-even ties, zero deltas).
func TestFastForwardKernelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfa57))
	check := func(name string, first, steady []float64, maxIters int64) {
		t.Helper()
		var bs bankSolve
		if !bs.project(steady) {
			t.Fatalf("%s: project rejected steady=%v", name, steady)
		}
		wantIter, wantOK := naiveFlip(first, steady, maxIters)
		gotIter, gotOK := flipIteration(first, steady, maxIters)
		if gotIter != wantIter || gotOK != wantOK {
			t.Fatalf("%s: flipIteration = %d,%v, naive = %d,%v (first=%v steady=%v)",
				name, gotIter, gotOK, wantIter, wantOK, first, steady)
		}
		gotIter, gotOK = flipIterationPre(first, steady, bs.md, bs.ed, maxIters)
		if gotIter != wantIter || gotOK != wantOK {
			t.Fatalf("%s: flipIterationPre = %d,%v, naive = %d,%v (first=%v steady=%v)",
				name, gotIter, gotOK, wantIter, wantOK, first, steady)
		}
		cap := wantIter - 1
		if !wantOK {
			cap = maxIters
		}
		for _, iters := range []int64{0, 1, 2, cap / 2, cap} {
			if iters < 0 {
				continue
			}
			want := naiveAccAfter(first, steady, iters)
			got := accAfter(first, steady, iters)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: accAfter(%d) = %v (%x), naive = %v (%x)",
					name, iters, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			got = accAfterPre(first, steady, bs.md, bs.ed, iters)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: accAfterPre(%d) = %v (%x), naive = %v (%x)",
					name, iters, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	for i := 0; i < 300; i++ {
		acts := 1 + rng.Intn(2)
		scale := math.Ldexp(1, -(8 + rng.Intn(24))) // per-act deltas 2^-31..2^-8
		first := make([]float64, acts)
		steady := make([]float64, acts)
		for a := 0; a < acts; a++ {
			steady[a] = rng.Float64() * scale
			if rng.Intn(4) == 0 {
				first[a] = steady[a] // warm-up == steady for some acts
			} else {
				first[a] = rng.Float64() * scale
			}
		}
		check("random", first, steady, int64(10+rng.Intn(200000)))
	}

	ulp := math.Ldexp(1, -53) // ulp of the [0.5, 1) binade
	check("stall even tie", []float64{0.5}, []float64{ulp / 2}, 100000)
	check("odd tie climbs", []float64{0.5 + ulp}, []float64{ulp / 2}, 100000)
	check("tiny stall", []float64{0.25}, []float64{math.Ldexp(1, -80)}, 100000)
	check("zero deltas", []float64{0}, []float64{0}, 100000)
	check("mixed zero act", []float64{0.001, 0}, []float64{0.0005, 0}, 100000)
	check("first iter flip", []float64{0.6, 0.6}, []float64{0.1, 0.1}, 10)
	check("huge delta", []float64{0.9}, []float64{64.0}, 10)
	check("crossing near one", []float64{0.125}, []float64{0.12499999999}, 100)
}

// TestSolveFlipHorizonRejectsUnprojectableProfile pins the one branch
// of the integer-only solve: a real damage profile (captured by a bank
// engine's fast-forward) solves, and the same profile with one steady
// delta overwritten by +Inf, -1 or NaN reports not-ok, which sends the
// engines to act-by-act execution.
func TestSolveFlipHorizonRejectsUnprojectableProfile(t *testing.T) {
	mi, err := chipdb.ByID("S1")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	spec, err := pattern.New(pattern.DoubleSided, timing.Table2Marks()[1], timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := NewBankEngine(mkBank(t, mi.Profile(params), params, 0, nil))
	if _, err := e.CharacterizeRow(100, spec, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	prof := &e.prof
	if prof.NumCells() == 0 {
		t.Fatal("the engine captured no damage profile")
	}
	const maxIters = 1 << 20
	want, ok := solveFlipHorizon(prof, &e.bsolve, maxIters)
	if !ok {
		t.Fatal("solveFlipHorizon rejected a real damage profile")
	}
	for _, bad := range []float64{math.Inf(1), -1, math.NaN()} {
		for _, i := range []int{0, len(prof.Steady) / 2, len(prof.Steady) - 1} {
			saved := prof.Steady[i]
			prof.Steady[i] = bad
			if h, ok := solveFlipHorizon(prof, &e.bsolve, maxIters); ok {
				t.Errorf("Steady[%d] = %v: solveFlipHorizon = %d, ok; want not ok", i, bad, h)
			}
			prof.Steady[i] = saved
		}
	}
	if got, ok := solveFlipHorizon(prof, &e.bsolve, maxIters); !ok || got != want {
		t.Errorf("restored profile: solveFlipHorizon = %d, %v; want %d, true", got, ok, want)
	}
}

// mkBank builds a bank for one engine comparison run.
func mkBank(t *testing.T, profile device.Profile, params device.DisturbParams, runSeed int64, mapper device.RowMapper) *device.Bank {
	t.Helper()
	b, err := device.NewBank(device.BankConfig{
		Profile: profile,
		Params:  params,
		NumRows: 4096,
		RunSeed: runSeed,
		Mapper:  mapper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compareFastExact characterizes the same (victim, spec, opts) with the
// fast-forward and the exact-replay engine on twin banks and asserts
// byte-identical RowResults plus identical victim-row microstate
// (accumulators, flip flags) and ACT/PRE counters.
func compareFastExact(t *testing.T, label string, fastBank, exactBank *device.Bank, victim int, spec pattern.Spec, opts RunOpts) {
	t.Helper()
	fast := NewBankEngine(fastBank)
	exact := NewBankEngine(exactBank, WithExactReplay())
	got, err := fast.CharacterizeRow(victim, spec, opts)
	if err != nil {
		t.Fatalf("%s: fast: %v", label, err)
	}
	want, err := exact.CharacterizeRow(victim, spec, opts)
	if err != nil {
		t.Fatalf("%s: exact: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RowResult differs:\nfast:  %+v\nexact: %+v", label, got, want)
	}
	fc := fastBank.VictimCells(victim)
	ec := exactBank.VictimCells(victim)
	if len(fc) != len(ec) {
		t.Fatalf("%s: cell counts differ: %d vs %d", label, len(fc), len(ec))
	}
	for i := range fc {
		if math.Float64bits(fc[i].Accumulated()) != math.Float64bits(ec[i].Accumulated()) {
			t.Fatalf("%s: cell %d (bit %d) acc differs: fast %v exact %v",
				label, i, fc[i].Bit, fc[i].Accumulated(), ec[i].Accumulated())
		}
		if fc[i].Flipped() != ec[i].Flipped() {
			t.Fatalf("%s: cell %d flipped differs: fast %v exact %v",
				label, i, fc[i].Flipped(), ec[i].Flipped())
		}
	}
	fa, fp, _ := fastBank.Counters()
	ea, ep, _ := exactBank.Counters()
	if fa != ea || fp != ep {
		t.Fatalf("%s: counters differ: fast %d/%d exact %d/%d", label, fa, fp, ea, ep)
	}
}

// TestBankFastMatchesExactReplay sweeps the Table 2 grid (all three
// pattern families at the paper's tAggON marks) across both data
// patterns and four run-noise seeds and requires the fast-forward path
// to be byte-identical to full act-by-act execution — flip bits,
// iterations, act index, time, NoBitflip, and the victim row's
// post-experiment microstate.
func TestBankFastMatchesExactReplay(t *testing.T) {
	mi, err := chipdb.ByID("S1")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	profile := mi.Profile(params)

	kinds := []pattern.Kind{pattern.SingleSided, pattern.DoubleSided, pattern.Combined}
	datas := []device.DataPattern{device.Checkerboard, device.RowStripe}
	for _, kind := range kinds {
		for _, aggOn := range timing.Table2Marks() {
			spec, err := pattern.New(kind, aggOn, timing.Default())
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range datas {
				for seed := int64(0); seed < 4; seed++ {
					label := kind.Short() + "@" + aggOn.String() + "/" + data.String() + "/seed" + string(rune('0'+seed))
					fastBank := mkBank(t, profile, params, seed, nil)
					exactBank := mkBank(t, profile, params, seed, nil)
					victim := 100 + int(seed)*911
					compareFastExact(t, label, fastBank, exactBank, victim, spec, RunOpts{Data: data})
				}
			}
		}
	}
}

// TestBankFastPropertyFuzz fuzzes (module, spec, run seed, temperature,
// data pattern, budget, mapper) tuples — including oversized budgets
// that trip retention contamination, no-flip boundary rows, and
// multi-flip ties — and asserts fast-forward vs exact-replay equality
// on every one.
func TestBankFastPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbeef))
	mods := chipdb.Modules()
	params := device.DefaultParams()
	kinds := []pattern.Kind{pattern.SingleSided, pattern.DoubleSided, pattern.Combined}
	datas := []device.DataPattern{
		device.Checkerboard, device.CheckerboardInv,
		device.AllOnes, device.AllZeros, device.RowStripe,
	}

	for i := 0; i < 48; i++ {
		mi := mods[rng.Intn(len(mods))]
		profile := mi.Profile(params)
		kind := kinds[rng.Intn(len(kinds))]

		// Budgets pair with tAggON so the exact oracle stays fast: short
		// aggressor on-times get small budgets, long on-times can afford
		// budgets past tREFW (exercising the retention readback).
		var aggOn, budget time.Duration
		switch rng.Intn(3) {
		case 0:
			aggOn = timing.TRAS + time.Duration(rng.Intn(1200))*time.Nanosecond
			budget = time.Duration(50+rng.Intn(1500)) * time.Microsecond
		case 1:
			aggOn = time.Duration(2+rng.Intn(20)) * time.Microsecond
			budget = time.Duration(1+rng.Intn(20)) * time.Millisecond
		default:
			aggOn = timing.AggOnNineTREFI + time.Duration(rng.Intn(200))*time.Microsecond
			budget = time.Duration(20+rng.Intn(70)) * time.Millisecond
		}
		spec, err := pattern.New(kind, aggOn, timing.Default())
		if err != nil {
			t.Fatal(err)
		}

		var mapper device.RowMapper
		if rng.Intn(4) == 0 {
			mapper = xorShuffle{mask: 1 << (2 + rng.Intn(4))}
		}
		seed := int64(rng.Intn(5))
		opts := RunOpts{
			Budget: budget,
			Data:   datas[rng.Intn(len(datas))],
			TempC:  30 + 60*rng.Float64(),
			Run:    0,
		}
		victim := 2 + rng.Intn(4092)
		label := mi.ID + "/" + spec.String() + "/" + opts.Data.String()
		fastBank := mkBank(t, profile, params, seed, mapper)
		exactBank := mkBank(t, profile, params, seed, mapper)
		compareFastExact(t, label, fastBank, exactBank, victim, spec, opts)
	}
}

// xorShuffle is an in-DRAM remapping test double (bijective on
// power-of-two banks). Under it the logical aggressors are not the
// physical neighbours, so the fast path must profile the true physical
// distances or fall back.
type xorShuffle struct{ mask int }

func (m xorShuffle) Physical(l int) int { return l ^ m.mask }
func (m xorShuffle) Logical(p int) int  { return p ^ m.mask }

// TestBankFastReusedEngine pins engine reuse: repeated
// characterizations with one engine (the campaign shape — spec memo,
// scratch reuse, rows revisited) stay identical to fresh exact runs.
func TestBankFastReusedEngine(t *testing.T) {
	mi, err := chipdb.ByID("M4")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	profile := mi.Profile(params)
	fastBank := mkBank(t, profile, params, 1, nil)
	exactBank := mkBank(t, profile, params, 1, nil)
	fast := NewBankEngine(fastBank)
	exact := NewBankEngine(exactBank, WithExactReplay())
	spec, err := pattern.New(pattern.Combined, timing.AggOnTREFI, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := pattern.New(pattern.DoubleSided, 636*time.Nanosecond, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, s := range []pattern.Spec{spec, spec2} {
			for _, victim := range []int{512, 513, 512} {
				got, err := fast.CharacterizeRow(victim, s, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := exact.CharacterizeRow(victim, s, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d %v victim %d: %+v vs %+v", round, s, victim, got, want)
				}
			}
		}
	}
}
