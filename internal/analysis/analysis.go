// Package analysis provides the statistical utilities behind the
// characterization results: summaries with percentiles, histograms, the
// paper's Fig. 6 set-overlap definition, and the mergeable quantile
// sketch and moments that fleet campaigns fold distributions into.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData reports an empty input.
var ErrNoData = errors.New("analysis: no data")

// Summary is a descriptive statistics bundle.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P05    float64
	P95    float64
}

// Summarize computes a Summary of the values.
func Summarize(values []float64) (Summary, error) {
	if len(values) == 0 {
		return Summary{}, ErrNoData
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Percentile(sorted, 50),
		P05:    Percentile(sorted, 5),
		P95:    Percentile(sorted, 95),
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range sorted {
		d := v - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s, nil
}

// Percentile returns the p-th percentile (0-100) of an ascending-sorted
// slice using linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width-bin histogram.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
}

// NewHistogram builds a histogram over [lo, hi) with n bins.
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("analysis: histogram needs positive bin count, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("analysis: histogram range [%g, %g) empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}, nil
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) {
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Overlap implements the paper's Fig. 6 definition: the number of unique
// elements present in both sets divided by the size of the reference set
// b. Returns ok=false when b is empty.
func Overlap[K comparable](a, b map[K]struct{}) (ratio float64, ok bool) {
	if len(b) == 0 {
		return 0, false
	}
	inter := 0
	for k := range b {
		if _, in := a[k]; in {
			inter++
		}
	}
	return float64(inter) / float64(len(b)), true
}
