package core

import (
	"context"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// crossoverModule runs S0 over the sweep with the given patterns (nil
// for all three, as -exp crossover does) and returns its crossover
// sweep.
func crossoverModule(t *testing.T, patterns []pattern.Kind, sweep []time.Duration) CrossoverModule {
	t.Helper()
	s := NewStudy(StudyConfig{
		Modules:       []chipdb.ModuleInfo{mustModule(t, "S0")},
		Patterns:      patterns,
		Sweep:         sweep,
		RowsPerRegion: 10,
		Dies:          1,
		Runs:          1,
	})
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mods, err := s.CrossoverSweep()
	if err != nil {
		t.Fatal(err)
	}
	return mods[0]
}

// TestCombinedSingleCrossover locates the tAggON where single-sided
// RowPress overtakes the combined pattern (Fig. 4 / Observation 3: the
// combined pattern wins at small on-times; the curves converge — and
// the combined pattern falls slightly behind — at large ones).
func TestCombinedSingleCrossover(t *testing.T) {
	m := crossoverModule(t, nil, timing.PaperSweep())
	// At tAggON = tRAS the combined pattern is double-sided RowHammer
	// (Fig. 3): the two tie, and a tie has no winner.
	first := m.Cells[0]
	if first.AggOn != timing.TRAS || first.Winner != 0 ||
		first.TimesMs[pattern.Combined] != first.TimesMs[pattern.DoubleSided] {
		t.Errorf("at %v: winner %v, combined %.4gms, double %.4gms; want a tie with no winner",
			first.AggOn, first.Winner, first.TimesMs[pattern.Combined], first.TimesMs[pattern.DoubleSided])
	}
	if !m.HasCrossover {
		t.Fatal("no crossover found; the curves must cross inside the sweep")
	}
	pt := m.Crossover
	// The crossover sits in the press-transition region (paper: the
	// curves converge between ~5 and ~70us).
	if pt.Below < 2*time.Microsecond || pt.Above > 100*time.Microsecond {
		t.Errorf("crossover bracket [%v, %v] outside the expected transition region", pt.Below, pt.Above)
	}
	for _, c := range m.Cells {
		want := pattern.Kind(0)
		switch {
		case c.AggOn == pt.Below:
			want = pattern.Combined
		case c.AggOn == pt.Above:
			want = pattern.SingleSided
		}
		if want != 0 && c.Winner != want {
			t.Errorf("winner at %v = %v, want %v", c.AggOn, c.Winner, want)
		}
	}
}

// TestNoCrossoverBetweenIdenticalPatterns: a sweep one pattern wins at
// every point never crosses.
func TestNoCrossoverBetweenIdenticalPatterns(t *testing.T) {
	m := crossoverModule(t, []pattern.Kind{pattern.Combined},
		[]time.Duration{timing.TRAS, timing.AggOnTREFI, timing.AggOnNineTREFI})
	for _, c := range m.Cells {
		if c.Winner != pattern.Combined {
			t.Errorf("winner at %v = %v, want combined", c.AggOn, c.Winner)
		}
	}
	if m.HasCrossover {
		t.Errorf("a single pattern reported a crossover at %+v", m.Crossover)
	}
}
