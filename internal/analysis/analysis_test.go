package analysis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{4, 2, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 {
		t.Errorf("summary %+v", s)
	}
	if s.Median != 5 {
		t.Errorf("median = %g, want 5", s.Median)
	}
	if math.Abs(s.Std-2.582) > 0.01 {
		t.Errorf("std = %g, want ~2.582", s.Std)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty input: %v", err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Summarize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("input mutated")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {105, 50},
	}
	for _, tc := range tests {
		if got := Percentile(sorted, tc.p); got != tc.want {
			t.Errorf("P%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	sorted := []float64{1, 2, 4, 8, 16, 32}
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(sorted, a) <= Percentile(sorted, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(v)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Total() != 5 {
		t.Errorf("total = %d, want 5", h.Total())
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin 0 = %d, want 2", h.Counts[0])
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
}

func setOf(keys ...int) map[int]struct{} {
	m := make(map[int]struct{}, len(keys))
	for _, k := range keys {
		m[k] = struct{}{}
	}
	return m
}

func TestOverlap(t *testing.T) {
	a := setOf(1, 2, 3)
	b := setOf(2, 3, 4, 5)
	ratio, ok := Overlap(a, b)
	if !ok || ratio != 0.5 {
		t.Errorf("overlap = %g/%v, want 0.5/true", ratio, ok)
	}
	if _, ok := Overlap(a, setOf()); ok {
		t.Error("empty reference set should report not-ok")
	}
	// The paper's definition is asymmetric.
	ra, _ := Overlap(b, a)
	if ra != 2.0/3.0 {
		t.Errorf("reverse overlap = %g, want 2/3", ra)
	}
}
