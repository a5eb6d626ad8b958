package timing

import (
	"testing"
	"time"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default timing set invalid: %v", err)
	}
}

func TestJEDECConstants(t *testing.T) {
	if TRC != TRAS+TRP {
		t.Errorf("tRC = %v, want tRAS+tRP = %v", TRC, TRAS+TRP)
	}
	if TRAS != 36*time.Nanosecond {
		t.Errorf("tRAS = %v, want 36ns (the paper's minimal tAggON)", TRAS)
	}
	if TREFI != 7800*time.Nanosecond {
		t.Errorf("tREFI = %v, want 7.8us", TREFI)
	}
	if TREFW != 64*time.Millisecond {
		t.Errorf("tREFW = %v, want 64ms", TREFW)
	}
	if AggOnNineTREFI != 70200*time.Nanosecond {
		t.Errorf("9 x tREFI = %v, want 70.2us", AggOnNineTREFI)
	}
}

func TestValidateRejectsBadSets(t *testing.T) {
	base := Default()
	tests := []struct {
		name   string
		mutate func(*Set)
	}{
		{"zero tRAS", func(s *Set) { s.TRAS = 0 }},
		{"negative tRAS", func(s *Set) { s.TRAS = -time.Nanosecond }},
		{"zero tRP", func(s *Set) { s.TRP = 0 }},
		{"tRC below tRAS+tRP", func(s *Set) { s.TRC = s.TRAS }},
		{"tREFW below tREFI", func(s *Set) { s.TREFW = s.TREFI / 2 }},
		{"zero tCK", func(s *Set) { s.TCK = 0 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestPaperSweepProperties(t *testing.T) {
	sweep := PaperSweep()
	if len(sweep) < 10 {
		t.Fatalf("sweep has %d points, want a dense log sweep", len(sweep))
	}
	if sweep[0] != AggOnMin {
		t.Errorf("sweep starts at %v, want tRAS", sweep[0])
	}
	if sweep[len(sweep)-1] != AggOnMax {
		t.Errorf("sweep ends at %v, want 300us", sweep[len(sweep)-1])
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i] <= sweep[i-1] {
			t.Errorf("sweep not strictly increasing at %d: %v <= %v", i, sweep[i], sweep[i-1])
		}
	}
	// The paper-highlighted marks must be present.
	for _, mark := range []time.Duration{AggOnMin, 636 * time.Nanosecond, AggOnTREFI, AggOnNineTREFI, AggOnMax} {
		found := false
		for _, d := range sweep {
			if d == mark {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sweep missing paper mark %v", mark)
		}
	}
}

func TestTable2Marks(t *testing.T) {
	marks := Table2Marks()
	want := []time.Duration{36 * time.Nanosecond, 7800 * time.Nanosecond, 70200 * time.Nanosecond}
	if len(marks) != len(want) {
		t.Fatalf("got %d marks, want %d", len(marks), len(want))
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("mark %d = %v, want %v", i, marks[i], want[i])
		}
	}
}
