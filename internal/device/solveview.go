package device

import (
	"math"
	"sync"
	"sync/atomic"
)

// SolveLanes is the lane padding contract between SolveView and the
// batch solvers: the float columns' backing arrays always extend to the
// next multiple of SolveLanes past Len(), so vector kernels may load
// full lanes without reading unowned memory. The value is a multiple
// of every kernel's lane step (4 x float64: one AVX2 register), so no
// kernel needs a scalar tail.
const SolveLanes = 8

// SolveView is the batch-friendly, struct-of-arrays projection of one
// row's weak-cell population under one (runSeed, data pattern)
// realization: exactly the inputs the analytic first-flip solver needs,
// in contiguous parallel slices, restricted to the cells that can
// produce an observable flip under the data pattern (a cell only flips
// if the victim stores the value its mechanism attacks). Solvers
// iterate the slices with branch-light inner loops instead of walking
// []WeakCell structs, and the view is built once per (row, run) and
// shared by every (pattern, tAggON) cell that revisits the row.
//
// The slices are parallel: index i describes one eligible cell, in base
// population order (so tie-breaking by view index matches tie-breaking
// by cell index in the AoS path). A view is immutable once built and
// safe for concurrent readers.
//
// The float columns (Th, Tp, Syn, WeakSide) carry lane padding: their
// backing arrays extend to the next multiple of SolveLanes past Len(),
// filled with 1.0, so SIMD kernels can process ceil(Len()/SolveLanes)
// full lanes. FillSolveView maintains the padding; views assembled by
// hand (tests) must call PadLanes before solving.
type SolveView struct {
	// Bit is the cell's bit offset within the row.
	Bit []int32
	// Th is the hammer threshold in unit-activations.
	Th []float64
	// Tp is the press threshold in seconds.
	Tp []float64
	// Syn is the double-sided hammer synergy factor.
	Syn []float64
	// WeakSide is the per-cell weak-side coupling variance factor.
	WeakSide []float64
	// Dir and Mech label the flip the cell produces.
	Dir  []Polarity
	Mech []Mechanism
}

// Len returns the number of eligible cells in the view.
func (v *SolveView) Len() int { return len(v.Th) }

// PadLanes extends the float columns' backing arrays to the next
// multiple of SolveLanes past Len(), filling the pad slots with 1.0
// (finite, so padded kernel lanes compute harmless garbage). The
// logical length is unchanged. FillSolveView calls this automatically;
// it is exported for tests that assemble views by hand.
func (v *SolveView) PadLanes() {
	n := len(v.Th)
	np := (n + SolveLanes - 1) &^ (SolveLanes - 1)
	v.Th = padLanes(v.Th, np)
	v.Tp = padLanes(v.Tp, np)
	v.Syn = padLanes(v.Syn, np)
	v.WeakSide = padLanes(v.WeakSide, np)
}

// padLanes grows s's backing array to np slots, writes 1.0 into the
// pad region, and returns s at its original length.
func padLanes(s []float64, np int) []float64 {
	n := len(s)
	for len(s) < np {
		s = append(s, 1)
	}
	return s[:n]
}

// solveViewKey identifies one cached realization of a row population.
type solveViewKey struct {
	runSeed int64
	data    DataPattern
}

// solveViewEntry is one cached (realization key, view) pair.
type solveViewEntry struct {
	key  solveViewKey
	view *SolveView
}

// solveViewCache is the lazily-built view store embedded in a
// RowPopulation. It has its own type so RowPopulation's documented
// immutability story stays simple: the base cells never change; the
// cache only memoizes derived, deterministic projections of them.
//
// The store is a copy-on-write list behind an atomic pointer: readers
// do one load and a short linear scan (campaign loops hold a handful
// of realizations per row, so a scan beats hashing), writers serialize
// on the mutex and publish a fresh list. Lock-free hits matter because
// every warm CharacterizeRowInto call in the shared-cache path goes
// through here.
type solveViewCache struct {
	views  atomic.Pointer[[]solveViewEntry]
	viewMu sync.Mutex
}

// SolveView returns the row's solver view for one noise realization and
// data pattern, building and caching it on first touch. The threshold
// values are byte-identical to what AppendCells produces for the same
// runSeed (the same noise stream is drawn in the same order; ineligible
// cells still consume their draw), so solving over the view matches
// solving over the materialized []WeakCell exactly.
func (rp *RowPopulation) SolveView(runSeed int64, data DataPattern) *SolveView {
	key := solveViewKey{runSeed: runSeed, data: data}
	if list := rp.views.Load(); list != nil {
		for i := range *list {
			if (*list)[i].key == key {
				return (*list)[i].view
			}
		}
	}
	rp.viewMu.Lock()
	defer rp.viewMu.Unlock()
	// Re-check under the lock: another writer may have published the
	// view between the lock-free scan and acquiring the mutex.
	old := rp.views.Load()
	if old != nil {
		for i := range *old {
			if (*old)[i].key == key {
				return (*old)[i].view
			}
		}
	}
	v := &SolveView{}
	rp.FillSolveView(v, runSeed, data)
	var next []solveViewEntry
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, solveViewEntry{key: key, view: v})
	rp.views.Store(&next)
	return v
}

// FillSolveView rebuilds v in place for one (runSeed, data pattern)
// realization, reusing v's backing slices — the allocation-free variant
// of SolveView for callers that own a scratch view (an engine without a
// shared population cache rebuilds per call instead of caching
// per-realization views on every row it ever visits). The rebuilt view
// carries the SolveLanes padding.
func (rp *RowPopulation) FillSolveView(v *SolveView, runSeed int64, data DataPattern) {
	v.Bit = v.Bit[:0]
	v.Th = v.Th[:0]
	v.Tp = v.Tp[:0]
	v.Syn = v.Syn[:0]
	v.WeakSide = v.WeakSide[:0]
	v.Dir = v.Dir[:0]
	v.Mech = v.Mech[:0]
	// Pre-size to the padded length so the append loop and PadLanes
	// never reallocate mid-build (a growth realloc right at the end —
	// from the pad slots — would roughly double every column's
	// footprint on a fresh view).
	n := 0
	for i := range rp.cells {
		if data.VictimBitAt(rp.cells[i].bit) == rp.cells[i].dir.From() {
			n++
		}
	}
	np := (n + SolveLanes - 1) &^ (SolveLanes - 1)
	if cap(v.Th) < np {
		v.Th = make([]float64, 0, np)
		v.Tp = make([]float64, 0, np)
		v.Syn = make([]float64, 0, np)
		v.WeakSide = make([]float64, 0, np)
	}
	if cap(v.Bit) < n {
		v.Bit = make([]int32, 0, n)
		v.Dir = make([]Polarity, 0, n)
		v.Mech = make([]Mechanism, 0, n)
	}
	var nr rng
	noisy := runSeed != 0 && rp.runSigma > 0
	if noisy {
		nr.seed(rp.serialHash, rp.rowWord, uint64(runSeed), 0x4015e)
	}
	for i := range rp.cells {
		c := &rp.cells[i]
		// The noise stream advances per base cell, eligible or not, so
		// the values match AppendCells draw for draw.
		f := 1.0
		if noisy {
			f = nr.meanOneLognormal(rp.runSigma)
		}
		if data.VictimBitAt(c.bit) != c.dir.From() {
			continue
		}
		var th, tp float64
		switch c.mech {
		case MechHammer:
			doubleACmin := c.base * f
			th = doubleACmin * c.syn
			tp = math.Inf(1)
			if rp.hasPressSens {
				tp = doubleACmin * rp.synergy / rp.pressSensDenom
			}
		default: // MechPress
			th = c.th
			tp = c.base * f
		}
		v.Bit = append(v.Bit, int32(c.bit))
		v.Th = append(v.Th, th)
		v.Tp = append(v.Tp, tp)
		v.Syn = append(v.Syn, c.syn)
		v.WeakSide = append(v.WeakSide, c.weakSide)
		v.Dir = append(v.Dir, c.dir)
		v.Mech = append(v.Mech, c.mech)
	}
	v.PadLanes()
}
