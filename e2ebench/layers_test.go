package main

import (
	"testing"
	"time"
)

func TestCoveredIn(t *testing.T) {
	iv := []interval{{5, 10}, {0, 2}, {8, 12}, {20, 20}, {1, 3}}
	for _, tc := range []struct {
		lo, hi, want int64
	}{
		{0, 30, 3 + 7},     // [0,3] and [5,12] after merging
		{2, 9, 1 + 4},      // clipped on both sides
		{12, 20, 0},        // the gap, and an empty interval
		{-5, 1, 1},         // window starting before the first span
		{11, 100, 12 - 11}, // window past the last span
	} {
		if got := coveredIn(iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("coveredIn(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestOverlapTime(t *testing.T) {
	for _, tc := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 0},
		{[]interval{{0, 10}, {10, 20}}, 0}, // touching is not overlapping
		{[]interval{{0, 10}, {5, 20}}, 5},
		{[]interval{{0, 10}, {2, 4}, {3, 8}}, 6}, // [2,8] has two or more in flight
	} {
		if got := overlapTime(tc.iv); got != tc.want {
			t.Errorf("overlapTime(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	// Ten samples (91..100) lie beyond the 90th.
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 2 || pct != 50 {
		t.Errorf("tail of three samples = %v at p%v, want the median 2 at p50", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestParseCPULine(t *testing.T) {
	for _, tc := range []struct {
		line         string
		steal, ticks uint64
	}{
		// Guest ticks (the last two) are already in user time.
		{"cpu  943348 0 81825 1252544 52113 0 17726 209972 7 9", 209972, 943348 + 81825 + 1252544 + 52113 + 17726 + 209972},
		{"cpu  10 0 5 100 0 0 0 3", 3, 118},
		{"cpu0 10 0 5 100 0 0 0 3 0 0", 0, 0}, // a per-vCPU line
		{"cpu  10 0 5 100 0 0 0", 0, 0},       // no steal column
		{"cpu  10 x 5 100 0 0 0 3", 0, 0},
	} {
		steal, ticks := parseCPULine(tc.line)
		if steal != tc.steal || ticks != tc.ticks {
			t.Errorf("parseCPULine(%q) = %d, %d; want %d, %d", tc.line, steal, ticks, tc.steal, tc.ticks)
		}
	}
}

func TestUnstolen(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		wall, stolen, cpu, want time.Duration
	}{
		{1000 * ms, 0, 1500 * ms, 1000 * ms},        // nothing stolen: the wall time
		{1400 * ms, 800 * ms, 900 * ms, 600 * ms},   // a serial chain held up by steal
		{1000 * ms, 900 * ms, 1600 * ms, 800 * ms},  // overlapping steal: the CPU floor
		{1000 * ms, 1200 * ms, 1000 * ms, 500 * ms}, // never below cpu over the vCPUs
	} {
		if got := unstolen(tc.wall, tc.stolen, tc.cpu, 2); got != tc.want {
			t.Errorf("unstolen(%v, %v, %v, 2) = %v, want %v", tc.wall, tc.stolen, tc.cpu, got, tc.want)
		}
	}
}
