package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func testEngine(t *testing.T, moduleID string) *AnalyticEngine {
	t.Helper()
	mi, err := chipdb.ByID(moduleID)
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	e, err := NewAnalyticEngine(AnalyticConfig{
		Profile: mi.Profile(params),
		Params:  params,
		NumRows: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testSpec(t *testing.T, k pattern.Kind, aggOn time.Duration) pattern.Spec {
	t.Helper()
	s, err := pattern.New(k, aggOn, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyticEngineValidation(t *testing.T) {
	if _, err := NewAnalyticEngine(AnalyticConfig{Params: device.DefaultParams()}); err == nil {
		t.Error("accepted empty profile")
	}
}

func TestVictimRangeChecks(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.Combined, timing.TRAS)
	for _, victim := range []int{0, -5, 8191, 9000} {
		if _, err := e.CharacterizeRow(victim, spec, RunOpts{}); !errors.Is(err, ErrVictimOutOfRange) {
			t.Errorf("victim %d: err = %v, want ErrVictimOutOfRange", victim, err)
		}
	}
	if _, err := e.CharacterizeRow(1, spec, RunOpts{}); err != nil {
		t.Errorf("victim 1 should be legal: %v", err)
	}
}

func TestCharacterizeRowBasics(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.DoubleSided, timing.TRAS)
	res, err := e.CharacterizeRow(1000, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoBitflip {
		t.Fatal("RowHammer on S0 must flip within 60ms")
	}
	if res.ACmin <= 0 || res.Iterations <= 0 || res.TimeToFirst <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.ACmin > 2*res.Iterations {
		t.Errorf("ACmin %d exceeds 2x iterations %d", res.ACmin, res.Iterations)
	}
	if len(res.Flips) == 0 {
		t.Error("flip reported but no flip records")
	}
	for _, f := range res.Flips {
		if f.Row != 1000 {
			t.Errorf("flip in row %d, want 1000", f.Row)
		}
	}
	// Deterministic.
	res2, err := e.CharacterizeRow(1000, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ACmin != res.ACmin || res2.TimeToFirst != res.TimeToFirst {
		t.Error("repeat measurement with same run seed differs")
	}
}

func TestBudgetEnforcement(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.DoubleSided, timing.TRAS)
	full, err := e.CharacterizeRow(1000, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// A budget below the measured first-flip time must yield NoBitflip.
	tight, err := e.CharacterizeRow(1000, spec, RunOpts{Budget: full.TimeToFirst / 2})
	if err != nil {
		t.Fatal(err)
	}
	if !tight.NoBitflip {
		t.Error("flip reported past the budget")
	}
	// A budget just above must still flip.
	loose, err := e.CharacterizeRow(1000, spec, RunOpts{Budget: full.TimeToFirst * 2})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NoBitflip {
		t.Error("flip lost with a sufficient budget")
	}
}

func TestPressImmuneModuleNoBitflip(t *testing.T) {
	e := testEngine(t, "M1")
	for _, aggOn := range []time.Duration{timing.AggOnTREFI, timing.AggOnNineTREFI, timing.AggOnMax} {
		for _, kind := range []pattern.Kind{pattern.DoubleSided, pattern.Combined, pattern.SingleSided} {
			res, err := e.CharacterizeRow(2000, testSpec(t, kind, aggOn), RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.NoBitflip {
				t.Errorf("M1 %s@%v flipped (ACmin %d); the paper reports No Bitflip", kind.Short(), aggOn, res.ACmin)
			}
		}
	}
	// But RowHammer at minimal on-time still flips M1.
	res, err := e.CharacterizeRow(2000, testSpec(t, pattern.DoubleSided, timing.TRAS), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoBitflip {
		t.Error("M1 must still be RowHammer-vulnerable")
	}
}

func TestDataPatternChangesOutcome(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.DoubleSided, timing.TRAS)
	var results []RowResult
	for _, dp := range []device.DataPattern{device.Checkerboard, device.AllOnes, device.AllZeros} {
		res, err := e.CharacterizeRow(1500, spec, RunOpts{Data: dp})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	// All-ones permits only 1->0 flips; all-zeros only 0->1.
	for _, f := range results[1].Flips {
		if f.Dir != device.OneToZero {
			t.Errorf("all-ones victim flipped %v", f.Dir)
		}
	}
	for _, f := range results[2].Flips {
		if f.Dir != device.ZeroToOne {
			t.Errorf("all-zeros victim flipped %v", f.Dir)
		}
	}
}

func TestRunNoisePerturbsACmin(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.DoubleSided, timing.TRAS)
	base, err := e.CharacterizeRow(1200, spec, RunOpts{Run: 0})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := e.CharacterizeRow(1200, spec, RunOpts{Run: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.ACmin == noisy.ACmin {
		t.Error("run noise did not perturb ACmin")
	}
	ratio := float64(noisy.ACmin) / float64(base.ACmin)
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("run-to-run ratio %g exceeds the 3%% noise model", ratio)
	}
}

func TestTemperatureAcceleratesFlips(t *testing.T) {
	e := testEngine(t, "S0")
	spec := testSpec(t, pattern.DoubleSided, timing.TRAS)
	cold, err := e.CharacterizeRow(1300, spec, RunOpts{TempC: 50})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := e.CharacterizeRow(1300, spec, RunOpts{TempC: 85})
	if err != nil {
		t.Fatal(err)
	}
	if hot.ACmin >= cold.ACmin {
		t.Errorf("85C ACmin %d >= 50C ACmin %d", hot.ACmin, cold.ACmin)
	}
}

func TestPaperRows(t *testing.T) {
	rows := PaperRows(65536, 1000)
	if len(rows) != 3000 {
		t.Fatalf("got %d rows, want 3000", len(rows))
	}
	seen := make(map[int]bool)
	for _, r := range rows {
		if r < 1 || r > 65534 {
			t.Errorf("victim %d out of safe range", r)
		}
		if seen[r] {
			t.Errorf("duplicate victim %d", r)
		}
		seen[r] = true
	}
	// The three regions are represented.
	if rows[0] != 1 {
		t.Errorf("first region starts at %d, want 1", rows[0])
	}
	if rows[len(rows)-1] != 65534 {
		t.Errorf("last region ends at %d, want 65534", rows[len(rows)-1])
	}
	if PaperRows(65536, 0) != nil || PaperRows(4, 10) != nil {
		t.Error("degenerate inputs should return nil")
	}
}

// TestCharacterizeRowSteadyStateAllocs is the hot-path allocation
// guard: once the engine's caches are warm (terms memoized, base
// population cached, scratch and result buffers grown), characterizing
// a row must not allocate — across repeats of one row, across run-noise
// seeds, and across rows served by a warm shared PopCache.
func TestCharacterizeRowSteadyStateAllocs(t *testing.T) {
	mi, err := chipdb.ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	profile := mi.Profile(params)
	cache := device.NewPopulationCache(profile, params, 0, 1024*8)
	e, err := NewAnalyticEngine(AnalyticConfig{
		Profile:  profile,
		Params:   params,
		NumRows:  8192,
		PopCache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, pattern.Combined, 636*time.Nanosecond)
	victims := []int{1000, 1001, 1002, 1003}
	var res RowResult
	warm := func() {
		for _, v := range victims {
			for run := int64(0); run < 3; run++ {
				if err := e.CharacterizeRowInto(v, spec, RunOpts{Run: run}, &res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	warm() // populate every cache
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("steady-state CharacterizeRowInto allocates %v times per sweep, want 0", allocs)
	}
	if !res.NoBitflip && len(res.Flips) == 0 {
		t.Error("warm path lost the flip records")
	}
}

// TestCharacterizeRowIntoMatchesCharacterizeRow pins the reuse API to
// the allocating one, including across cache-state transitions.
func TestCharacterizeRowIntoMatchesCharacterizeRow(t *testing.T) {
	e := testEngine(t, "S0")
	fresh := testEngine(t, "S0")
	var res RowResult
	for _, kind := range []pattern.Kind{pattern.DoubleSided, pattern.Combined} {
		spec := testSpec(t, kind, 636*time.Nanosecond)
		for victim := 990; victim < 1010; victim++ {
			for run := int64(0); run < 2; run++ {
				if err := e.CharacterizeRowInto(victim, spec, RunOpts{Run: run}, &res); err != nil {
					t.Fatal(err)
				}
				want, err := fresh.CharacterizeRow(victim, spec, RunOpts{Run: run})
				if err != nil {
					t.Fatal(err)
				}
				if res.NoBitflip != want.NoBitflip || res.ACmin != want.ACmin ||
					res.TimeToFirst != want.TimeToFirst || res.Iterations != want.Iterations ||
					len(res.Flips) != len(want.Flips) {
					t.Fatalf("victim %d run %d: Into %+v != CharacterizeRow %+v", victim, run, res, want)
				}
				for i := range want.Flips {
					if res.Flips[i] != want.Flips[i] {
						t.Fatalf("victim %d run %d flip %d differs", victim, run, i)
					}
				}
			}
		}
	}
}

// TestSharedPopCacheMatchesPrivate verifies that engines sharing a
// PopulationCache measure exactly what an engine with private
// generation measures.
func TestSharedPopCacheMatchesPrivate(t *testing.T) {
	mi, err := chipdb.ByID("H0")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	profile := mi.Profile(params)
	cache := device.NewPopulationCache(profile, params, 0, 1024*8)
	shared, err := NewAnalyticEngine(AnalyticConfig{Profile: profile, Params: params, NumRows: 8192, PopCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	private := testEngine(t, "H0")
	spec := testSpec(t, pattern.SingleSided, timing.AggOnTREFI)
	for victim := 500; victim < 520; victim++ {
		a, err := shared.CharacterizeRow(victim, spec, RunOpts{Run: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := private.CharacterizeRow(victim, spec, RunOpts{Run: 2})
		if err != nil {
			t.Fatal(err)
		}
		if a.NoBitflip != b.NoBitflip || a.ACmin != b.ACmin || a.TimeToFirst != b.TimeToFirst {
			t.Fatalf("victim %d: shared-cache result %+v != private %+v", victim, a, b)
		}
	}
	// The engine filled the shared cache: a row it measured comes back
	// without a build.
	if n := mallocs(func() { cache.Get(510) }); n != 0 {
		t.Errorf("shared cache was never populated: getting a measured row made %d allocations", n)
	}
	// A cache built for a different die must be rejected.
	if _, err := NewAnalyticEngine(AnalyticConfig{
		Profile: device.DieProfile(profile, 1), Params: params, NumRows: 8192, PopCache: cache,
	}); err == nil {
		t.Error("engine accepted a PopCache built for a different die")
	}
}

// mallocs counts the heap allocations of one call of f. Unlike
// testing.AllocsPerRun it makes no warm-up call, so it tells a call
// that fills a cache from one that finds it filled.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestACminParityWithinIteration(t *testing.T) {
	// For two-activation patterns, ACmin can be odd when the flip lands
	// on the first activation of the final iteration; the relation
	// ACmin = 2*(iters-1) + 1 or 2*iters must always hold.
	e := testEngine(t, "S0")
	for _, aggOn := range []time.Duration{timing.TRAS, timing.AggOnTREFI} {
		spec := testSpec(t, pattern.Combined, aggOn)
		for victim := 100; victim < 130; victim++ {
			res, err := e.CharacterizeRow(victim, spec, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if res.NoBitflip {
				continue
			}
			lo := 2 * (res.Iterations - 1)
			if res.ACmin != lo+1 && res.ACmin != lo+2 {
				t.Errorf("victim %d: ACmin %d inconsistent with %d iterations", victim, res.ACmin, res.Iterations)
			}
		}
	}
}
