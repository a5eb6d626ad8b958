package dispatch

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/resultio"
)

// MemQueue is the in-memory Queue behind cmd/campaignd's HTTP server
// (and the natural choice for in-process tests). All methods are safe
// for concurrent use; lease expiry is evaluated lazily against the
// queue's clock on every call, so no background sweeper goroutine is
// needed.
//
// The record is the transition: every mutator validates its request,
// decides the outcome (a minted token and expiry, a strike count, plan
// deltas), and commits it as a record (see record) whose apply is the
// only code that changes the queue's state. WALQueue journals those
// same records and replays them through the same apply, so a reopened
// queue reaches the live one's state by construction. The one change
// without a record is the lazy expiry sweep, which is derived from the
// expiry timestamps already on record.
//
// MemQueue is the coordinator-ful mode, so it owns the campaign's unit
// table outright and re-plans it as cost observations arrive: after a
// submission reports its elapsed time, the still-pending units without
// intra-unit progress are re-partitioned into contiguous runs of the
// module-major grid whose expected costs equalize (see replan), so a
// unit builds the row populations of few modules rather than of
// every module. Unit identity is a slot index; re-planning rewrites
// pending slots' cell sets, retires slots it empties, and appends new
// slots when splitting calls for more units than exist.
type MemQueue struct {
	manifest   Manifest
	grid       map[core.CellKey]int
	cellsByIdx []core.CellKey
	now        func() time.Time
	adapt      bool

	mu    sync.Mutex
	units []memUnit
	cost  *costModel
	// replanDirty marks a re-plan as due: a timed submit's record sets
	// it, and only an applied plan record clears it.
	replanDirty bool
	// canceled stops the campaign: every worker-facing mutation fails
	// with ErrCanceled; Status and Merged keep answering so operators
	// can inspect and render what completed.
	canceled bool
	// journal, when non-nil, receives every committed record (called
	// with mu held): WALQueue's hook.
	journal func(record)
}

// PlanDelta is one slot rewrite of a re-planning pass: the unit's new
// state (pending or retired) and cell set. A slot index at or past
// the current table length appends a new slot.
type PlanDelta struct {
	Unit  int    `json:"unit"`
	State string `json:"state"`
	Cells []int  `json:"cells,omitempty"`
}

// memUnit is one unit slot, in the encoding compaction snapshots use.
// Cell sets and checkpoints are replaced, never edited in place, so
// copies of a slot may share them.
type memUnit struct {
	State   string               `json:"state"`
	Cells   []int                `json:"cells,omitempty"` // grid indices, canonical order
	Worker  string               `json:"worker,omitempty"`
	Token   string               `json:"token,omitempty"`
	Expires time.Time            `json:"expires"`
	Done    *resultio.Checkpoint `json:"done,omitempty"`
	Partial *resultio.Checkpoint `json:"partial,omitempty"`
	// Strikes counts lease expiries that led to a re-grant plus
	// worker-reported failures; at Manifest.Strikes() the unit
	// quarantines. LastFailure is the latest strike's reason.
	Strikes     int    `json:"strikes,omitempty"`
	LastFailure string `json:"lastFailure,omitempty"`
}

// UnitRetired marks a slot emptied by re-planning (its cells moved to
// other units); retired slots never appear in Status.
const UnitRetired = "retired"

// MemQueueOption customizes a MemQueue.
type MemQueueOption func(*MemQueue)

// WithClock substitutes the queue's time source (tests drive lease
// expiry without sleeping).
func WithClock(now func() time.Time) MemQueueOption {
	return func(q *MemQueue) { q.now = now }
}

// WithoutReplanning freezes the manifest's static unit partition (the
// cost model still learns, for Status estimates). Mostly for tests
// that pin the static ShardPlan layout.
func WithoutReplanning() MemQueueOption {
	return func(q *MemQueue) { q.adapt = false }
}

// NewMemQueue builds a queue for the manifest's units.
func NewMemQueue(m Manifest, opts ...MemQueueOption) (*MemQueue, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	grid, cellsByIdx, err := m.grid()
	if err != nil {
		return nil, err
	}
	q := &MemQueue{
		manifest:   m,
		grid:       grid,
		cellsByIdx: cellsByIdx,
		now:        time.Now,
		adapt:      true,
		units:      make([]memUnit, m.Units),
		cost:       newCostModel(m, cellsByIdx),
	}
	for i := range q.units {
		q.units[i] = memUnit{State: UnitPending, Cells: m.UnitCells(i)}
	}
	for _, o := range opts {
		o(q)
	}
	return q, nil
}

// Manifest implements Queue.
func (q *MemQueue) Manifest() (Manifest, error) { return q.manifest, nil }

// commit applies a decided record and hands it to the journal hook;
// callers hold q.mu.
func (q *MemQueue) commit(r record) error {
	if err := r.apply(q); err != nil {
		return fmt.Errorf("dispatch: apply record kind %d: %w", r.kind(), err)
	}
	if q.journal != nil {
		q.journal(r)
	}
	return nil
}

// sweep re-queues expired leases; callers hold q.mu. The worker and
// token are kept: until the unit is actually re-granted (Acquire mints
// a fresh token), the late holder may still revive its lease with a
// heartbeat or land its submit — matching DirQueue, where the lease
// file stays in place until a thief replaces it.
func (q *MemQueue) sweep(now time.Time) {
	for i := range q.units {
		u := &q.units[i]
		if u.State == UnitLeased && now.After(u.Expires) {
			u.State = UnitPending
		}
	}
}

// replan re-partitions the pending units so their expected costs
// equalize; callers hold q.mu. Only units that are pending and carry
// no intra-unit checkpoint participate — leased units belong to their
// workers, done units are history, and a unit with a partial must keep
// its cell set or the stored progress becomes unusable. The pooled
// cells are sorted into canonical grid order, which is module-major,
// and cut into contiguous runs of equal expected cost, so units
// holding fat cells split finer and cheap cells coalesce. A run
// touches few modules (one or two when units outnumber modules), and
// its Study.Run builds each of their (die, row) populations once for
// every (pattern, tAggON) cell; cells dealt across all units would
// make every unit rebuild them all. Each bin
// costs less than total/bins plus its costliest cell, and a monster
// cell of more than two bins' worth becomes its own unit. The bin size
// targets the campaign-wide expected cost divided by the manifest's
// unit count — a fixed point of the re-planning itself (targeting
// observed unit durations would chase the units it just resized into
// ever-smaller pieces). A pass with nothing to re-plan commits no
// record and so leaves the re-plan due, exactly as replay leaves it.
func (q *MemQueue) replan() error {
	if !q.adapt || !q.replanDirty || !q.cost.observed() {
		return nil
	}
	var pool []int  // slot indices participating
	var cells []int // their pooled grid cells
	for i := range q.units {
		u := &q.units[i]
		// token != "" marks an expired-but-never-re-granted lease:
		// sweep deliberately keeps it so the slow (not dead) holder can
		// revive via heartbeat or land a late submit. Re-planning such
		// a unit would wipe that token and throw the holder's
		// nearly-done work away, so only never-leased pending units
		// without intra-unit progress are pooled. Units with strikes
		// are excluded too: redistributing a failing unit's cells would
		// launder its strike history into fresh zero-strike units and
		// defeat quarantine.
		if u.State == UnitPending && u.Partial == nil && u.Token == "" && u.Strikes == 0 {
			pool = append(pool, i)
			cells = append(cells, u.Cells...)
		}
	}
	if len(pool) < 1 || len(cells) < 2 {
		return nil
	}
	total := q.cost.unitCost(cells)
	var campaign float64
	for idx := range q.cellsByIdx {
		campaign += q.cost.estimate(idx)
	}
	target := campaign / float64(q.manifest.Units)
	bins := len(pool)
	if target > 0 {
		bins = int(math.Round(total / target))
	}
	if bins < 1 {
		bins = 1
	}
	if bins > len(cells) {
		bins = len(cells)
	}
	// Cut the grid-ordered pool where the running cost crosses a
	// multiple of total/bins: each cell goes to the bin its cost
	// midpoint falls in. A cell spanning several cut points leaves bins
	// empty, and no unit is made for them. A pool with no positive cost
	// is cut by cell count instead.
	est := q.cost.estimate
	if !(total > 0) {
		est, total = func(int) float64 { return 1 }, float64(len(cells))
	}
	sort.Ints(cells)
	var binCells [][]int
	var run float64
	last := -1
	for _, c := range cells {
		e := est(c)
		if b := min(int((run+e/2)/total*float64(bins)), bins-1); b != last {
			binCells, last = append(binCells, nil), b
		}
		binCells[len(binCells)-1] = append(binCells[len(binCells)-1], c)
		run += e
	}
	// Write the bins back into the pooled slots; retire leftovers or
	// append fresh slots as the bin count dictates.
	var deltas []PlanDelta
	for i, slot := range pool {
		if i < len(binCells) {
			deltas = append(deltas, PlanDelta{Unit: slot, State: UnitPending, Cells: binCells[i]})
		} else {
			deltas = append(deltas, PlanDelta{Unit: slot, State: UnitRetired})
		}
	}
	for i := len(pool); i < len(binCells); i++ {
		deltas = append(deltas, PlanDelta{Unit: len(q.units) + i - len(pool), State: UnitPending, Cells: binCells[i]})
	}
	return q.commit(&recPlan{Deltas: deltas})
}

// Acquire implements Queue. Among pending units the most expensive one
// is granted first (LPT ordering — with the equalized re-plan this
// mostly degenerates to "any", but after lease expiries it again
// prefers the biggest remaining chunk).
func (q *MemQueue) Acquire(worker string) (Lease, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return Lease{}, fmt.Errorf("dispatch: acquire: %w", ErrCanceled)
	}
	now := q.now()
	q.sweep(now)
	if err := q.replan(); err != nil {
		return Lease{}, err
	}
	for {
		best, terminal, live := -1, 0, 0
		var bestCost float64
		for i := range q.units {
			u := &q.units[i]
			switch u.State {
			case UnitRetired:
				continue
			case UnitDone, UnitQuarantined, UnitDropped:
				terminal++
			case UnitPending:
				c := q.cost.unitCost(u.Cells)
				if best < 0 || c > bestCost {
					best, bestCost = i, c
				}
			}
			live++
		}
		if best < 0 {
			if terminal == live {
				return Lease{}, ErrDrained
			}
			return Lease{}, ErrNoWork
		}
		u := &q.units[best]
		stolen := u.Token != "" // an expired predecessor held the unit
		if stolen {
			// Stealing is a strike. Its record releases the lease, so the
			// reason is read first; at the threshold the unit quarantines
			// instead of being re-granted, and the scan re-runs for the
			// next candidate.
			strikes, state, reason := q.manifest.strike(u.Strikes, u.Worker, true, "")
			if err := q.commit(&recStrike{Unit: best, Strikes: strikes, State: state, Reason: reason}); err != nil {
				return Lease{}, err
			}
			if state == UnitQuarantined {
				continue
			}
		}
		l := Lease{
			Unit: best, Worker: worker,
			Token:   newToken(), // invalidates any expired holder's lease
			Expires: now.Add(q.manifest.LeaseTTL()),
			Cells:   append([]int(nil), u.Cells...),
		}
		if err := q.commit(&recGrant{Lease: l, stolen: stolen}); err != nil {
			return Lease{}, err
		}
		return l, nil
	}
}

// slot bounds-checks a unit index; callers hold q.mu. The error reads
// "<what> for unit N of M".
func (q *MemQueue) slot(unit int, what string) (*memUnit, error) {
	if unit < 0 || unit >= len(q.units) {
		return nil, fmt.Errorf("%s for unit %d of %d", what, unit, len(q.units))
	}
	return &q.units[unit], nil
}

// unitFor bounds-checks a lease's slot; callers hold q.mu.
func (q *MemQueue) unitFor(l Lease, op string) (*memUnit, error) {
	u, err := q.slot(l.Unit, op)
	if err != nil {
		return nil, err
	}
	if u.State == UnitRetired {
		return nil, fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	return u, nil
}

// Heartbeat implements Queue. A heartbeat under an expired lease whose
// unit was not yet re-granted revives it (state back to leased, fresh
// TTL): the worker was slow, not dead, and aborting its nearly-done
// run to recompute the identical bytes helps no one. ErrLeaseLost is
// reserved for what its name says — the unit went to someone else.
func (q *MemQueue) Heartbeat(l Lease) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return fmt.Errorf("dispatch: heartbeat: %w", ErrCanceled)
	}
	now := q.now()
	q.sweep(now)
	u, err := q.unitFor(l, "dispatch: heartbeat")
	if err != nil {
		return err
	}
	if u.State == UnitDone || u.Token != l.Token {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	return q.commit(&recHeartbeat{Unit: l.Unit, Token: u.Token, Expires: now.Add(q.manifest.LeaseTTL())})
}

// Submit implements Queue. A submit under a lease that expired but was
// not yet re-granted is accepted: the work is deterministic and valid,
// and accepting it avoids a pointless re-run.
func (q *MemQueue) Submit(l Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return fmt.Errorf("dispatch: submit: %w", ErrCanceled)
	}
	q.sweep(q.now())
	u, err := q.unitFor(l, "dispatch: submit")
	if err != nil {
		return err
	}
	switch u.State {
	case UnitDone:
		return fmt.Errorf("unit %d: %w", l.Unit, ErrDuplicateSubmit)
	case UnitDropped:
		// The operator discarded the unit; its late result is refused.
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	case UnitLeased:
		if u.Token != l.Token {
			return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
		}
		// A late submit for a pending (expired, not re-granted) or even a
		// quarantined unit is accepted: the work is deterministic and
		// valid, and completing beats re-running or staying dead-lettered.
	}
	if err := validateUnitCheckpoint(q.manifest, q.grid, l.Unit, u.Cells, cp, false); err != nil {
		return err
	}
	return q.commit(&recSubmit{Unit: l.Unit, Worker: l.Worker, ElapsedNs: elapsed.Nanoseconds(), Checkpoint: cp})
}

// SavePartial implements Queue: merge the lease's newly finished cells
// into the unit's stored intra-unit checkpoint. Only the new cells are
// journaled.
func (q *MemQueue) SavePartial(l Lease, cp *resultio.Checkpoint) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return fmt.Errorf("dispatch: save partial: %w", ErrCanceled)
	}
	q.sweep(q.now())
	u, err := q.unitFor(l, "dispatch: save partial")
	if err != nil {
		return err
	}
	if u.State == UnitDone || u.Token != l.Token {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	if err := validateUnitCheckpoint(q.manifest, q.grid, l.Unit, u.Cells, cp, true); err != nil {
		return err
	}
	return q.commit(&recPartial{Unit: l.Unit, Token: u.Token, Checkpoint: cp})
}

// Fail implements Queue: a worker reports that its unit's work errored
// under a live lease. The lease is released with a strike; at the
// manifest's threshold the unit quarantines. A Fail under a lost lease
// returns ErrLeaseLost and records nothing — the failure belongs to
// whoever holds the unit now.
func (q *MemQueue) Fail(l Lease, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return fmt.Errorf("dispatch: fail: %w", ErrCanceled)
	}
	q.sweep(q.now())
	u, err := q.unitFor(l, "dispatch: fail")
	if err != nil {
		return err
	}
	if u.State == UnitDone || u.Token != l.Token {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	strikes, state, text := q.manifest.strike(u.Strikes, l.Worker, false, reason)
	return q.commit(&recStrike{Unit: l.Unit, Strikes: strikes, State: state, Reason: text})
}

// Quarantined implements Queue: list the dead-letter units.
func (q *MemQueue) Quarantined() ([]QuarantineEntry, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []QuarantineEntry
	for i := range q.units {
		u := &q.units[i]
		if u.State != UnitQuarantined && u.State != UnitDropped {
			continue
		}
		out = append(out, QuarantineEntry{
			Unit: i, State: u.State, Strikes: u.Strikes,
			LastFailure: u.LastFailure,
			Cells:       append([]int(nil), u.Cells...),
			HasPartial:  u.Partial != nil,
		})
	}
	return out, nil
}

// Requeue implements Queue: return a dead-lettered unit to the pending
// pool with its strikes reset. Stored intra-unit progress is kept, so
// the next lease resumes instead of recomputing.
func (q *MemQueue) Requeue(unit int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return fmt.Errorf("dispatch: requeue: %w", ErrCanceled)
	}
	u, err := q.slot(unit, "dispatch: requeue")
	if err != nil {
		return err
	}
	if u.State != UnitQuarantined && u.State != UnitDropped {
		return fmt.Errorf("dispatch: requeue unit %d: state %s (want quarantined or dropped)", unit, u.State)
	}
	return q.commit(&recStrike{Unit: unit, State: UnitPending})
}

// Drop implements Queue: permanently discard a quarantined unit. Its
// cells stay excluded; the campaign drains (degraded) without them.
func (q *MemQueue) Drop(unit int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return fmt.Errorf("dispatch: drop: %w", ErrCanceled)
	}
	u, err := q.slot(unit, "dispatch: drop")
	if err != nil {
		return err
	}
	if u.State != UnitQuarantined {
		return fmt.Errorf("dispatch: drop unit %d: state %s (want quarantined)", unit, u.State)
	}
	return q.commit(&recStrike{Unit: unit, Strikes: u.Strikes, State: UnitDropped, Reason: u.LastFailure})
}

// Cancel stops the campaign: subsequent Acquire, Heartbeat, Submit
// and SavePartial calls fail with ErrCanceled. Status and Merged keep
// working, so a canceled campaign's completed cells stay inspectable
// and renderable. Idempotent.
func (q *MemQueue) Cancel() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.canceled {
		return nil
	}
	return q.commit(&recCancel{})
}

// Canceled reports whether the campaign was canceled.
func (q *MemQueue) Canceled() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.canceled
}

// LoadPartial implements Queue: return the unit's stored intra-unit
// checkpoint (typically a dead predecessor's progress), or nil.
func (q *MemQueue) LoadPartial(l Lease) (*resultio.Checkpoint, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	u, err := q.unitFor(l, "dispatch: load partial")
	if err != nil {
		return nil, err
	}
	if u.Token != l.Token {
		return nil, fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	return u.Partial, nil
}

// Status implements Queue. Retired slots (emptied by re-planning) are
// invisible: Units counts live units only.
func (q *MemQueue) Status() (Status, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	q.sweep(now)
	st := Status{}
	for i := range q.units {
		u := &q.units[i]
		if u.State == UnitRetired {
			continue
		}
		st.Units++
		us := UnitStatus{
			Unit: i, State: u.State, Worker: u.Worker,
			CellCount:  len(u.Cells),
			HasPartial: u.Partial != nil,
			Strikes:    u.Strikes,
		}
		if q.cost.observed() {
			us.EstCostMs = int64(q.cost.unitCost(u.Cells) / 1e6)
		}
		switch u.State {
		case UnitPending:
			st.Pending++
		case UnitLeased:
			st.Leased++
			us.ExpiresInMs = u.Expires.Sub(now).Milliseconds()
		case UnitDone:
			st.Done++
		case UnitQuarantined:
			st.Quarantined++
		case UnitDropped:
			st.Dropped++
		}
		st.PerUnit = append(st.PerUnit, us)
	}
	return st, nil
}

// Merged implements Queue. Unit checkpoints are disjoint by the
// submit-side cell-set validation, and the fold still goes through
// resultio's overlap-checked merge as defense in depth.
func (q *MemQueue) Merged() (*resultio.Checkpoint, error) {
	q.mu.Lock()
	var cps []*resultio.Checkpoint
	for i := range q.units {
		if q.units[i].State == UnitDone {
			cps = append(cps, q.units[i].Done)
		}
	}
	q.mu.Unlock()
	if len(cps) == 0 {
		return resultio.NewCheckpoint(q.manifest.Fingerprint, core.ShardPlan{}, nil), nil
	}
	return resultio.MergeCheckpoints(cps...)
}
