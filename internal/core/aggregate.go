package core

import (
	"math"
	"sort"

	"rowfuse/internal/analysis"
	"rowfuse/internal/device"
)

// welford is an online mean/variance/min accumulator: analysis.Moments
// (Welford's algorithm) plus the running minimum, used so module-scale
// studies aggregate observations in O(1) memory instead of retaining
// every row result.
type welford struct {
	analysis.Moments
	min float64
}

func (w *welford) add(v float64) {
	if w.N == 0 || v < w.min {
		w.min = v
	}
	w.Add(v)
}

// merge folds another accumulator into w (Chan et al.'s parallel
// update). Merging with an empty accumulator is exact; merging two
// non-empty halves matches the sequential fold up to float rounding.
func (w *welford) merge(o welford) {
	if o.N == 0 {
		return
	}
	if w.N == 0 || o.min < w.min {
		w.min = o.min
	}
	w.Merge(o.Moments)
}

func (w *welford) stats(total int) Stats {
	st := Stats{N: int(w.N), Total: total}
	if w.N == 0 {
		return st
	}
	st.Mean = w.Mean
	st.Min = w.min
	if w.N > 1 {
		st.Std = math.Sqrt(w.M2 / float64(w.N-1))
	}
	return st
}

func (w welford) state() WelfordState {
	return WelfordState{N: int(w.N), Mean: w.Mean, M2: w.M2, Min: w.min}
}

func welfordFromState(st WelfordState) welford {
	return welford{Moments: analysis.Moments{N: uint64(st.N), Mean: st.Mean, M2: st.M2}, min: st.Min}
}

// cellAggregate accumulates one (module, pattern, tAggON) cell's
// observations incrementally.
type cellAggregate struct {
	total     int
	acmin     welford
	timeSec   welford
	flips     int
	oneToZero int
	flipKeys  map[uint64]struct{}
}

func newCellAggregate() *cellAggregate {
	return &cellAggregate{flipKeys: make(map[uint64]struct{})}
}

// WelfordState is the serializable state of an online mean/variance/min
// accumulator. Round-tripping through JSON is exact: Go encodes float64
// with the shortest representation that parses back bit-identically.
type WelfordState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
}

// AggregateState is the complete, serializable state of one cell's
// aggregate. It is what checkpoints persist: restoring it and resuming
// observation is indistinguishable from never having stopped.
type AggregateState struct {
	Total     int          `json:"total"`
	ACmin     WelfordState `json:"acmin"`
	TimeSec   WelfordState `json:"timeSec"`
	Flips     int          `json:"flips"`
	OneToZero int          `json:"oneToZero"`
	// FlipKeys is the sorted unique (die, row, bit) flip set.
	FlipKeys []uint64 `json:"flipKeys,omitempty"`
	// Fleet is the distribution-fold state of a fleet cell (nil for
	// dense grid cells, so every pre-fleet checkpoint — and every
	// default-grid checkpoint written today — serializes exactly as
	// before the fold abstraction existed).
	Fleet *FleetAggState `json:"fleet,omitempty"`
}

// State exports the aggregate for persistence. FlipKeys are sorted so
// the export is deterministic.
func (a *cellAggregate) State() AggregateState {
	st := AggregateState{
		Total:     a.total,
		ACmin:     a.acmin.state(),
		TimeSec:   a.timeSec.state(),
		Flips:     a.flips,
		OneToZero: a.oneToZero,
	}
	if len(a.flipKeys) > 0 {
		st.FlipKeys = make([]uint64, 0, len(a.flipKeys))
		for k := range a.flipKeys {
			st.FlipKeys = append(st.FlipKeys, k)
		}
		sort.Slice(st.FlipKeys, func(i, j int) bool { return st.FlipKeys[i] < st.FlipKeys[j] })
	}
	return st
}

// aggregateFromState reconstructs an aggregate from persisted state.
func aggregateFromState(st AggregateState) *cellAggregate {
	a := &cellAggregate{
		total:     st.Total,
		acmin:     welfordFromState(st.ACmin),
		timeSec:   welfordFromState(st.TimeSec),
		flips:     st.Flips,
		oneToZero: st.OneToZero,
		flipKeys:  make(map[uint64]struct{}, len(st.FlipKeys)),
	}
	for _, k := range st.FlipKeys {
		a.flipKeys[k] = struct{}{}
	}
	return a
}

// MergeAggregates fuses two cell aggregates, as when two shards (or a
// checkpoint and a live run) both contributed observations to the same
// cell. Merging with an empty aggregate returns the other side
// bit-identically; merging two non-empty halves of one observation
// stream matches the sequential fold up to float rounding. ShardPlan
// partitions at cell granularity precisely so that campaign merges only
// ever hit the exact path.
func MergeAggregates(a, b AggregateState) AggregateState {
	if a.Total == 0 {
		return b
	}
	if b.Total == 0 {
		return a
	}
	if a.Fleet != nil || b.Fleet != nil {
		return mergeFleetStates(a, b)
	}
	ma, mb := aggregateFromState(a), aggregateFromState(b)
	ma.total += mb.total
	ma.acmin.merge(mb.acmin)
	ma.timeSec.merge(mb.timeSec)
	ma.flips += mb.flips
	ma.oneToZero += mb.oneToZero
	for k := range mb.flipKeys {
		ma.flipKeys[k] = struct{}{}
	}
	return ma.State()
}

// Total reports the number of observations folded in (Fold).
func (a *cellAggregate) Total() int { return a.total }

// Observe folds one row measurement into the aggregate (Fold).
func (a *cellAggregate) Observe(die int, rr RowResult) {
	a.total++
	if rr.NoBitflip {
		return
	}
	a.acmin.add(float64(rr.ACmin))
	a.timeSec.add(rr.TimeToFirst.Seconds())
	for _, f := range rr.Flips {
		a.flips++
		if f.Dir == device.OneToZero {
			a.oneToZero++
		}
		key := uint64(die)<<40 | uint64(f.Row)<<13 | uint64(f.Bit)
		a.flipKeys[key] = struct{}{}
	}
}
