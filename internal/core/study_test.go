package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func tinyStudyConfig(t *testing.T) StudyConfig {
	t.Helper()
	s0 := mustModule(t, "S0")
	m4 := mustModule(t, "M4")
	return StudyConfig{
		Modules:       []chipdb.ModuleInfo{s0, m4},
		Sweep:         []time.Duration{timing.TRAS, timing.AggOnTREFI},
		RowsPerRegion: 6,
		Dies:          1,
		Runs:          1,
	}
}

func TestStudyRunPopulatesAllCells(t *testing.T) {
	s := NewStudy(tinyStudyConfig(t))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, mi := range s.Config().Modules {
		for _, k := range s.Config().Patterns {
			for _, aggOn := range s.Config().Sweep {
				r, ok := s.Result(mi.ID, k, aggOn)
				if !ok {
					t.Fatalf("missing cell %s/%s/%v", mi.ID, k.Short(), aggOn)
				}
				if r.Observations() != 18 { // 3 regions x 6 rows x 1 die x 1 run
					t.Errorf("cell %s/%s/%v has %d observations, want 18", mi.ID, k.Short(), aggOn, r.Observations())
				}
			}
		}
	}
}

func TestStudyDeterministicAcrossConcurrency(t *testing.T) {
	cfgSerial := tinyStudyConfig(t)
	cfgSerial.Concurrency = 1
	cfgParallel := tinyStudyConfig(t)
	cfgParallel.Concurrency = 8

	a := NewStudy(cfgSerial)
	b := NewStudy(cfgParallel)
	if err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, mi := range cfgSerial.Modules {
		for _, k := range []pattern.Kind{pattern.SingleSided, pattern.DoubleSided, pattern.Combined} {
			ra, _ := a.Result(mi.ID, k, timing.TRAS)
			rb, _ := b.Result(mi.ID, k, timing.TRAS)
			sa, sb := ra.ACminStats(), rb.ACminStats()
			if sa.Mean != sb.Mean || sa.Min != sb.Min {
				t.Errorf("%s/%s: serial vs parallel stats differ: %+v vs %+v", mi.ID, k.Short(), sa, sb)
			}
		}
	}
}

func TestStudyContextCancellation(t *testing.T) {
	cfg := StudyConfig{
		Modules:       chipdb.Modules(),
		RowsPerRegion: 200,
		Dies:          1,
		Runs:          3,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewStudy(cfg)
	if err := s.Run(ctx); err == nil {
		t.Error("cancelled study returned nil error")
	}
}

func TestMustResultError(t *testing.T) {
	s := NewStudy(tinyStudyConfig(t))
	if _, err := s.mustResult("S0", pattern.Combined, timing.AggOnMax); err == nil {
		t.Error("mustResult on unpopulated cell succeeded")
	}
}

func TestModuleResultAggregates(t *testing.T) {
	s := NewStudy(tinyStudyConfig(t))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Result("S0", pattern.DoubleSided, timing.TRAS)
	ac := r.ACminStats()
	ts := r.TimeStats()
	if !ac.Flipped() || !ts.Flipped() {
		t.Fatal("RowHammer on S0 must flip")
	}
	if ac.Min > ac.Mean {
		t.Errorf("min %g above mean %g", ac.Min, ac.Mean)
	}
	if ac.N != ac.Total {
		t.Errorf("every row should flip: %d/%d", ac.N, ac.Total)
	}
	if ts.Mean <= 0 {
		t.Errorf("mean time %g", ts.Mean)
	}
	frac, n := r.OneToZeroFraction()
	if n == 0 {
		t.Fatal("no flips recorded")
	}
	if frac < 0 || frac > 1 {
		t.Errorf("fraction %g out of range", frac)
	}
	keys := r.FlipKeys()
	if len(keys) == 0 || len(keys) > n {
		t.Errorf("flip key set size %d inconsistent with %d flips", len(keys), n)
	}
}

func TestFig4WellFormed(t *testing.T) {
	s := NewStudy(tinyStudyConfig(t))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Only Mfr. S and Mfr. M modules are in the tiny study.
	if _, ok := data[chipdb.MfrS]; !ok {
		t.Fatal("missing Mfr. S panel")
	}
	if _, ok := data[chipdb.MfrH]; ok {
		t.Error("unexpected Mfr. H panel")
	}
	for mfr, series := range data {
		for k, pts := range series {
			if len(pts) != 2 {
				t.Errorf("%v/%v: %d points, want 2", mfr, k, len(pts))
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].AggOn <= pts[i-1].AggOn {
					t.Errorf("%v/%v: sweep not sorted", mfr, k)
				}
			}
		}
	}
	// At tAggON = tRAS, combined and double-sided are identical
	// patterns; their curve points must coincide exactly.
	sPanel := data[chipdb.MfrS]
	if c, d := sPanel[pattern.Combined][0], sPanel[pattern.DoubleSided][0]; c.TimeMeanMs != d.TimeMeanMs || c.ACminMean != d.ACminMean {
		t.Errorf("combined and double-sided differ at tRAS: %+v vs %+v", c, d)
	}
}

func TestFig5And6WellFormed(t *testing.T) {
	s := NewStudy(tinyStudyConfig(t))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	f5, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for mfr, byDie := range f5 {
		for die, pts := range byDie {
			for _, pt := range pts {
				if pt.OneToZeroFrac < 0 || pt.OneToZeroFrac > 1 {
					t.Errorf("%v/%s: fraction %g out of range", mfr, die, pt.OneToZeroFrac)
				}
			}
		}
	}
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for mfr, byDie := range f6 {
		for die, curves := range byDie {
			if len(curves.VsSingle) != 2 || len(curves.VsDouble) != 2 {
				t.Errorf("%v/%s: wrong curve lengths", mfr, die)
			}
			// Overlap with double-sided at tRAS is exactly 1 (identical
			// patterns).
			if pt := curves.VsDouble[0]; pt.ConvFlips > 0 && pt.Overlap != 1.0 {
				t.Errorf("%v/%s: overlap with double at tRAS = %g, want 1", mfr, die, pt.Overlap)
			}
		}
	}
}

func TestTable2RequiresMarks(t *testing.T) {
	cfg := tinyStudyConfig(t)
	s := NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The tiny sweep lacks 70.2us, so Table2 must fail loudly.
	if _, err := s.Table2(); err == nil {
		t.Error("Table2 with incomplete sweep succeeded")
	}
}

func TestStatsSummarize(t *testing.T) {
	st := summarize(nil, 5)
	if st.Flipped() || st.Total != 5 {
		t.Errorf("empty summary: %+v", st)
	}
	st = summarize([]float64{2, 4, 6}, 3)
	if st.Mean != 4 || st.Min != 2 || st.N != 3 {
		t.Errorf("summary: %+v", st)
	}
	if st.Std < 1.9 || st.Std > 2.1 {
		t.Errorf("std = %g, want 2", st.Std)
	}
}

// TestStudyLeavesNoGoroutines: the worker pool must be fully drained
// when Run returns (including on cancellation).
func TestStudyLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewStudy(tinyStudyConfig(t))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s2 := NewStudy(tinyStudyConfig(t))
	_ = s2.Run(ctx)
	// Allow the scheduler a moment to retire worker stacks.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
