package pattern

import (
	"testing"
	"time"

	"rowfuse/internal/timing"
)

func mustSpec(t *testing.T, k Kind, aggOn time.Duration) Spec {
	t.Helper()
	s, err := New(k, aggOn, timing.Default())
	if err != nil {
		t.Fatalf("New(%v, %v): %v", k, aggOn, err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	ts := timing.Default()
	if _, err := New(Kind(0), timing.TRAS, ts); err == nil {
		t.Error("accepted invalid kind")
	}
	if _, err := New(Combined, 10*time.Nanosecond, ts); err == nil {
		t.Error("accepted tAggON below tRAS")
	}
	if _, err := New(Combined, timing.TRAS, timing.Set{}); err == nil {
		t.Error("accepted invalid timing set")
	}
}

func TestActsShape(t *testing.T) {
	aggOn := 636 * time.Nanosecond
	tests := []struct {
		kind     Kind
		acts     int
		offsets  []int
		onTimes  []time.Duration
		iterTime time.Duration
	}{
		{SingleSided, 1, []int{-1}, []time.Duration{aggOn}, aggOn + timing.TRP},
		{DoubleSided, 2, []int{-1, 1}, []time.Duration{aggOn, aggOn}, 2 * (aggOn + timing.TRP)},
		{Combined, 2, []int{-1, 1}, []time.Duration{aggOn, timing.TRAS}, aggOn + timing.TRAS + 2*timing.TRP},
	}
	for _, tc := range tests {
		t.Run(tc.kind.Short(), func(t *testing.T) {
			s := mustSpec(t, tc.kind, aggOn)
			acts := s.Acts()
			if len(acts) != tc.acts {
				t.Fatalf("got %d acts, want %d", len(acts), tc.acts)
			}
			if s.ActsPerIteration() != tc.acts {
				t.Errorf("ActsPerIteration = %d, want %d", s.ActsPerIteration(), tc.acts)
			}
			for i, a := range acts {
				if a.RowOffset != tc.offsets[i] {
					t.Errorf("act %d offset = %d, want %d", i, a.RowOffset, tc.offsets[i])
				}
				if a.OnTime != tc.onTimes[i] {
					t.Errorf("act %d onTime = %v, want %v", i, a.OnTime, tc.onTimes[i])
				}
			}
			if got := s.IterationTime(); got != tc.iterTime {
				t.Errorf("IterationTime = %v, want %v", got, tc.iterTime)
			}
		})
	}
}

// TestDegenerateRowHammer checks the paper's Fig. 3 note: at tAggON =
// tRAS the combined pattern and the double-sided RowPress pattern are
// the same conventional double-sided RowHammer pattern.
func TestDegenerateRowHammer(t *testing.T) {
	comb := mustSpec(t, Combined, timing.TRAS)
	dbl := mustSpec(t, DoubleSided, timing.TRAS)
	ca, da := comb.Acts(), dbl.Acts()
	if len(ca) != len(da) {
		t.Fatalf("act counts differ: %d vs %d", len(ca), len(da))
	}
	for i := range ca {
		if ca[i] != da[i] {
			t.Errorf("act %d differs: %+v vs %+v", i, ca[i], da[i])
		}
	}
}

func TestActEnd(t *testing.T) {
	aggOn := 100 * time.Nanosecond
	s := mustSpec(t, Combined, aggOn)
	// Act 0 precharge fires after its on-time.
	if got := s.ActEnd(0); got != aggOn {
		t.Errorf("ActEnd(0) = %v, want %v", got, aggOn)
	}
	// Act 1 precharge fires after act0 + tRP + act1's on-time (tRAS).
	want := aggOn + timing.TRP + timing.TRAS
	if got := s.ActEnd(1); got != want {
		t.Errorf("ActEnd(1) = %v, want %v", got, want)
	}
}

func TestMaxIterations(t *testing.T) {
	s := mustSpec(t, DoubleSided, timing.TRAS)
	it := s.IterationTime()
	if got := s.MaxIterations(10 * it); got != 10 {
		t.Errorf("MaxIterations = %d, want 10", got)
	}
	if got := s.MaxIterations(0); got != 0 {
		t.Errorf("MaxIterations(0) = %d, want 0", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := mustSpec(t, Combined, 636*time.Nanosecond)
	if s.String() == "" || s.Kind.String() == "" || s.Kind.Short() == "" {
		t.Error("empty string rendering")
	}
	if Kind(0).Short() != "unknown" {
		t.Errorf("Kind(0).Short() = %q", Kind(0).Short())
	}
}
