package dispatch

import (
	"fmt"

	"rowfuse/internal/core"
	"rowfuse/internal/pattern"
)

// costModel estimates per-cell compute cost from observed submissions.
//
// Before any submission reports its elapsed time, estimates are pure
// priors: a cell's cost is proportional to the number of dies it
// characterizes (an 8/16-die module cell is an 8/16-fold fatter unit of
// work than a 1-die cell; rows, runs and repeats are grid-constant).
// Every completed submission then refines the model: the unit's elapsed
// nanoseconds are attributed to its cells in proportion to their
// estimates before the submission and folded into per-class EWMAs,
// where a class is a (die count, pattern kind) pair. The split is only
// as exact as those estimates: a re-planned unit is a contiguous run
// of the grid that mixes patterns, so its time scales all of its
// classes by one factor, and classes separate only as far as units
// differ in their class mix. Observed classes predict in nanoseconds;
// unobserved classes extrapolate through the global ns-per-die rate.
//
// The model is deliberately advisory: it feeds unit re-planning and
// acquire ordering, never correctness — a wildly wrong estimate costs
// balance, not results.
type costModel struct {
	// weight is the per-cell prior (die count), indexed by grid cell.
	weight []float64
	// class maps each grid cell to its (dies, kind) class index.
	class   []int
	classNs []ewma // observed mean ns per cell, per class
	nsPerW  ewma   // observed ns per unit of prior weight
}

// ewma is a fixed-coefficient exponentially weighted moving average.
type ewma struct {
	mean float64
	ok   bool
}

const ewmaAlpha = 0.3

func (e *ewma) observe(v float64) {
	if !e.ok {
		e.mean, e.ok = v, true
		return
	}
	e.mean += ewmaAlpha * (v - e.mean)
}

// newCostModel builds the prior model for a manifest's cell grid.
// cellsByIdx is the canonical grid order (core.Study.Cells()).
func newCostModel(m Manifest, cellsByIdx []core.CellKey) *costModel {
	diesByModule := make(map[string]int, len(m.Campaign.Modules))
	for _, mi := range m.Campaign.Modules {
		dies := mi.NumChips
		if m.Campaign.Dies > 0 && m.Campaign.Dies < dies {
			dies = m.Campaign.Dies
		}
		if dies < 1 {
			dies = 1
		}
		diesByModule[mi.ID] = dies
	}
	type classKey struct {
		dies int
		kind pattern.Kind
	}
	classIdx := make(map[classKey]int)
	cm := &costModel{
		weight: make([]float64, len(cellsByIdx)),
		class:  make([]int, len(cellsByIdx)),
	}
	for i, key := range cellsByIdx {
		dies := diesByModule[key.Module]
		// Fleet cells weigh in at their block's chip count: a fleet
		// cell is chips-per-cell times fatter than a one-die grid cell,
		// and the trailing (ragged) block proportionally cheaper.
		if f := m.Campaign.Fleet; f != nil {
			if b, ok := core.ParseFleetBlockID(key.Module); ok {
				lo, hi := f.BlockRange(b)
				dies = hi - lo
			}
		}
		if dies < 1 {
			dies = 1
		}
		ck := classKey{dies: dies, kind: key.Kind}
		idx, ok := classIdx[ck]
		if !ok {
			idx = len(cm.classNs)
			classIdx[ck] = idx
			cm.classNs = append(cm.classNs, ewma{})
		}
		cm.weight[i] = float64(dies)
		cm.class[i] = idx
	}
	return cm
}

// estimate returns the cell's expected cost — nanoseconds once any
// submission has been observed, relative prior weight before that. The
// two regimes never mix within one campaign state: unitCost sums are
// only compared against each other, and every estimate switches to the
// ns scale at the first observation.
func (cm *costModel) estimate(cell int) float64 {
	if c := &cm.classNs[cm.class[cell]]; c.ok {
		return c.mean
	}
	if cm.nsPerW.ok {
		return cm.weight[cell] * cm.nsPerW.mean
	}
	return cm.weight[cell]
}

// unitCost sums the expected cost of a unit's cells.
func (cm *costModel) unitCost(cells []int) float64 {
	var total float64
	for _, c := range cells {
		total += cm.estimate(c)
	}
	return total
}

// observe folds one completed submission (cells computed in elapsedNs
// nanoseconds) into the model. Zero or negative elapsed means the
// submitter did not measure; the observation is skipped.
func (cm *costModel) observe(cells []int, elapsedNs int64) {
	if elapsedNs <= 0 || len(cells) == 0 {
		return
	}
	// Every share comes from the estimates taken before any update: the
	// first observation switches estimates from prior weight to
	// nanoseconds, and each class EWMA folded would otherwise feed the
	// next cell's share.
	est := make([]float64, len(cells))
	var totalW, totalEst float64
	for i, c := range cells {
		totalW += cm.weight[c]
		est[i] = cm.estimate(c)
		totalEst += est[i]
	}
	if totalW > 0 {
		cm.nsPerW.observe(float64(elapsedNs) / totalW)
	}
	if totalEst <= 0 {
		return
	}
	for i, c := range cells {
		cm.classNs[cm.class[c]].observe(float64(elapsedNs) * est[i] / totalEst)
	}
}

// observed reports whether the model has folded at least one real
// submission (until then, re-planning has nothing to act on).
func (cm *costModel) observed() bool { return cm.nsPerW.ok }

// costState is the serializable learned state of a cost model. The
// priors (weights, class layout) are derived from the manifest, which
// is deterministic, so only the EWMAs need persisting; class index
// order is the canonical grid order and therefore stable across
// restarts of the same campaign.
type costState struct {
	NsPerW  ewmaState   `json:"nsPerW"`
	ClassNs []ewmaState `json:"classNs"`
}

// ewmaState is one serialized EWMA.
type ewmaState struct {
	Mean float64 `json:"mean"`
	Ok   bool    `json:"ok,omitempty"`
}

// snapshot captures the learned state.
func (cm *costModel) snapshot() costState {
	s := costState{
		NsPerW:  ewmaState{Mean: cm.nsPerW.mean, Ok: cm.nsPerW.ok},
		ClassNs: make([]ewmaState, len(cm.classNs)),
	}
	for i, e := range cm.classNs {
		s.ClassNs[i] = ewmaState{Mean: e.mean, Ok: e.ok}
	}
	return s
}

// load replaces the learned state. The class count is structural
// (derived from the manifest), so a mismatch means the snapshot was
// taken under a different campaign.
func (cm *costModel) load(s costState) error {
	if len(s.ClassNs) != len(cm.classNs) {
		return fmt.Errorf("cost model has %d classes, snapshot %d", len(cm.classNs), len(s.ClassNs))
	}
	cm.nsPerW = ewma{mean: s.NsPerW.Mean, ok: s.NsPerW.Ok}
	for i, e := range s.ClassNs {
		cm.classNs[i] = ewma{mean: e.Mean, ok: e.Ok}
	}
	return nil
}
