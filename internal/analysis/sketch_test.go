package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSketchQuantileErrorBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSketch(SketchAlpha)
	var vals []float64
	for i := 0; i < 20000; i++ {
		// Lognormal spanning several decades, like ACmin counts.
		v := math.Exp(rng.NormFloat64()*1.5 + 10)
		vals = append(vals, v)
		s.Add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		rank := int(math.Ceil(q * float64(len(vals))))
		if rank < 1 {
			rank = 1
		}
		want := vals[rank-1]
		got := s.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > SketchAlpha {
			t.Errorf("q=%v: got %v want %v (rel err %.4f > %v)", q, got, want, rel, SketchAlpha)
		}
	}
	if got := s.Quantile(0); got != vals[0] {
		t.Errorf("q=0 not exact min: got %v want %v", got, vals[0])
	}
	if got := s.Quantile(1); got != vals[len(vals)-1] {
		t.Errorf("q=1 not exact max: got %v want %v", got, vals[len(vals)-1])
	}
}

func TestSketchZerosAndClamp(t *testing.T) {
	s := NewSketch(SketchAlpha)
	s.Add(0)
	s.Add(1e-15) // below floor -> zero bin
	s.Add(5)
	s.Add(math.Inf(1)) // clamps to ceiling
	if s.total != 4 {
		t.Fatalf("count = %d, want 4", s.total)
	}
	if got := s.Quantile(0.25); got != 0 {
		t.Errorf("q=0.25 = %v, want 0 (zero bin)", got)
	}
	if got := s.Quantile(1); got > sketchValueCeil*(1+SketchAlpha) {
		t.Errorf("q=1 = %v beyond clamped ceiling", got)
	}
	if got := s.Quantile(0.6); math.Abs(got-5)/5 > SketchAlpha {
		t.Errorf("q=0.6 = %v, want ~5", got)
	}
}

func TestSketchMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	parts := make([]*Sketch, 4)
	for i := range parts {
		parts[i] = NewSketch(SketchAlpha)
		for j := 0; j < 500; j++ {
			parts[i].Add(rng.Float64() * 1e6)
		}
	}
	mergeAll := func(order []int) []byte {
		m := NewSketch(SketchAlpha)
		for _, i := range order {
			if err := m.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m.AppendBinary(nil)
	}
	ref := mergeAll([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := mergeAll(order); !bytes.Equal(got, ref) {
			t.Errorf("merge order %v changed serialized bytes", order)
		}
	}
	// Merging in a tree must match a chain.
	left := NewSketch(SketchAlpha)
	left.Merge(parts[0])
	left.Merge(parts[1])
	right := NewSketch(SketchAlpha)
	right.Merge(parts[2])
	right.Merge(parts[3])
	left.Merge(right)
	if got := left.AppendBinary(nil); !bytes.Equal(got, ref) {
		t.Error("tree merge differs from chain merge")
	}
}

func TestSketchSerializationRoundTrip(t *testing.T) {
	s := NewSketch(0.02)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i) * 3.7)
	}
	s.AddN(0, 5)
	b := s.AppendBinary(nil)
	got, n, err := SketchFromBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("consumed %d of %d bytes", n, len(b))
	}
	if !bytes.Equal(got.AppendBinary(nil), b) {
		t.Error("round trip not byte-identical")
	}
	if got.total != s.total || got.Quantile(0.5) != s.Quantile(0.5) {
		t.Error("round trip changed contents")
	}
}

func TestSketchFromBinaryRejectsCorrupt(t *testing.T) {
	s := NewSketch(SketchAlpha)
	for i := 0; i < 100; i++ {
		s.Add(float64(i + 1))
	}
	good := s.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:10],
		"bad magic": append([]byte{'x', 'x', 'x', 9}, good[4:]...),
		"truncated": good[:len(good)-5],
	}
	for name, b := range cases {
		if _, _, err := SketchFromBinary(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Corrupt total so bin sum mismatches.
	bad := append([]byte(nil), good...)
	bad[20]++
	if _, _, err := SketchFromBinary(bad); err == nil {
		t.Error("count mismatch: expected error")
	}
}

func TestSketchBinsBounded(t *testing.T) {
	s := NewSketch(SketchAlpha)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		s.Add(math.Exp(rng.Float64()*62 - 27)) // full representable range
	}
	// ceil(log_gamma(1e15/1e-12)) ≈ 62/log(1.0202…) ≈ 3108 bins max.
	// The sketch's resident size is O(bins + 1), never O(observations).
	if len(s.counts) > 3200 {
		t.Errorf("bins = %d, want bounded structural maximum", len(s.counts))
	}
}

func TestMomentsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var all Moments
	var a, b Moments
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*3 + 7
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N != all.N {
		t.Fatalf("N = %d, want %d", a.N, all.N)
	}
	if math.Abs(a.Mean-all.Mean) > 1e-9 {
		t.Errorf("mean = %v, want %v", a.Mean, all.Mean)
	}
	if math.Abs(a.Std()-all.Std()) > 1e-9 {
		t.Errorf("std = %v, want %v", a.Std(), all.Std())
	}
	var empty Moments
	empty.Merge(a)
	if empty != a {
		t.Error("merge into empty should copy")
	}
}
