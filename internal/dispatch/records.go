package dispatch

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"rowfuse/internal/resultio"
)

// record is one queue state transition, and the only way a MemQueue's
// state changes. An operation decides the transition's outcome (the
// minted token and expiry, the strike count, the plan deltas), applies
// the record and hands it to the journal; replay decodes the journaled
// record and calls the same apply. A record carries outcomes, never the
// inputs that produced them, so apply reads no clock, mints nothing and
// re-plans nothing: replay can diverge from the live queue only if
// apply itself is wrong.
type record interface {
	// kind is the record's journal kind.
	kind() uint8
	// apply writes the transition into q's state; callers hold q.mu.
	apply(q *MemQueue) error
}

// Journal record kinds: every queue state transition has one.
const (
	kindInit      uint8 = 1 // campaign manifest (first record of a fresh log)
	kindPlan      uint8 = 2 // re-planned unit boundaries (slot deltas)
	kindGrant     uint8 = 3 // lease granted on a never-leased unit
	kindSteal     uint8 = 4 // lease granted over an expired predecessor
	kindHeartbeat uint8 = 5 // lease extended
	kindSubmit    uint8 = 6 // unit checkpoint accepted
	kindPartial   uint8 = 7 // intra-unit checkpoint stored
	kindCancel    uint8 = 8 // campaign canceled
	kindStrike    uint8 = 9 // unit strike / quarantine / requeue / drop
)

// decodeRecord parses one journaled record.
func decodeRecord(kind uint8, payload []byte) (record, error) {
	var r record
	switch kind {
	case kindInit:
		r = &recInit{}
	case kindPlan:
		r = &recPlan{}
	case kindGrant:
		r = &recGrant{}
	case kindSteal:
		r = &recGrant{stolen: true}
	case kindHeartbeat:
		r = &recHeartbeat{}
	case kindSubmit:
		r = &recSubmit{}
	case kindPartial:
		r = &recPartial{}
	case kindCancel:
		r = &recCancel{}
	case kindStrike:
		r = &recStrike{}
	default:
		return nil, fmt.Errorf("unknown record kind %d", kind)
	}
	if err := json.Unmarshal(payload, r); err != nil {
		return nil, err
	}
	return r, nil
}

// recInit opens a fresh journal with the campaign's manifest.
type recInit struct {
	Manifest Manifest `json:"manifest"`
}

func (*recInit) kind() uint8 { return kindInit }

// apply checks that the journal belongs to the queue's campaign; the
// queue itself is built from the manifest before replay starts.
func (r *recInit) apply(q *MemQueue) error {
	if r.Manifest.Fingerprint != q.manifest.Fingerprint {
		return fmt.Errorf("init fingerprint %s vs %s", r.Manifest.Fingerprint, q.manifest.Fingerprint)
	}
	return nil
}

// recPlan is a re-planning pass's slot rewrites.
type recPlan struct {
	Deltas []PlanDelta `json:"deltas"`
}

func (*recPlan) kind() uint8 { return kindPlan }

// apply rewrites the pooled slots, appends new ones, and settles the
// re-plan the last timed submit made due. It is the only transition
// that clears replanDirty: a pass that finds nothing to re-plan leaves
// no record, so it must leave the re-plan due as well.
func (r *recPlan) apply(q *MemQueue) error {
	q.replanDirty = false
	for _, d := range r.Deltas {
		switch d.State {
		case UnitPending, UnitRetired:
		default:
			return fmt.Errorf("plan delta for unit %d: state %q", d.Unit, d.State)
		}
		switch {
		case d.Unit >= 0 && d.Unit < len(q.units):
			q.units[d.Unit] = memUnit{State: d.State, Cells: d.Cells}
		case d.Unit == len(q.units):
			q.units = append(q.units, memUnit{State: d.State, Cells: d.Cells})
		default:
			return fmt.Errorf("plan delta for unit %d of %d", d.Unit, len(q.units))
		}
	}
	return nil
}

// recGrant is a lease grant; a steal (a grant over an expired
// predecessor, after the strike that expiry earned) journals as
// kindSteal with the same payload.
type recGrant struct {
	Lease  Lease `json:"lease"`
	stolen bool
}

func (r *recGrant) kind() uint8 {
	if r.stolen {
		return kindSteal
	}
	return kindGrant
}

// apply lands the lease's worker, token and expiry on the unit exactly
// as minted. Any stored partial survives, for the new holder to resume
// from.
func (r *recGrant) apply(q *MemQueue) error {
	l := &r.Lease
	u, err := q.slot(l.Unit, "grant")
	if err != nil {
		return err
	}
	if u.State == UnitDone || u.State == UnitRetired {
		return fmt.Errorf("grant for unit %d in state %q", l.Unit, u.State)
	}
	u.State = UnitLeased
	u.Worker, u.Token, u.Expires = l.Worker, l.Token, l.Expires
	if len(l.Cells) > 0 && !slices.Equal(l.Cells, u.Cells) {
		u.Cells = append([]int(nil), l.Cells...)
	}
	return nil
}

// recHeartbeat is a lease extension.
type recHeartbeat struct {
	Unit    int       `json:"unit"`
	Token   string    `json:"token"`
	Expires time.Time `json:"expires"`
}

func (*recHeartbeat) kind() uint8 { return kindHeartbeat }

// apply extends the lease, reviving one that expired but was not yet
// re-granted.
func (r *recHeartbeat) apply(q *MemQueue) error {
	u, err := q.slot(r.Unit, "heartbeat")
	if err != nil {
		return err
	}
	if u.Token != r.Token {
		return fmt.Errorf("heartbeat for unit %d under a foreign token", r.Unit)
	}
	u.State = UnitLeased
	u.Expires = r.Expires
	return nil
}

// recSubmit is an accepted unit checkpoint.
type recSubmit struct {
	Unit       int                  `json:"unit"`
	Worker     string               `json:"worker"`
	ElapsedNs  int64                `json:"elapsedNs,omitempty"`
	Checkpoint *resultio.Checkpoint `json:"checkpoint"`
}

func (*recSubmit) kind() uint8 { return kindSubmit }

// apply completes the unit and feeds its elapsed time to the cost
// model; a timed submit makes a re-plan due.
func (r *recSubmit) apply(q *MemQueue) error {
	u, err := q.slot(r.Unit, "submit")
	if err != nil {
		return err
	}
	if u.State == UnitRetired {
		return fmt.Errorf("submit for retired unit %d", r.Unit)
	}
	u.State = UnitDone
	u.Worker = r.Worker
	u.Token = ""
	u.Done = r.Checkpoint
	u.Partial = nil
	q.cost.observe(u.Cells, r.ElapsedNs)
	if r.ElapsedNs > 0 {
		q.replanDirty = true
	}
	return nil
}

// recPartial is an intra-unit checkpoint: the cells finished since the
// lease's last one.
type recPartial struct {
	Unit       int                  `json:"unit"`
	Token      string               `json:"token"`
	Checkpoint *resultio.Checkpoint `json:"checkpoint"`
}

func (*recPartial) kind() uint8 { return kindPartial }

// apply merges the record's cells into the unit's stored partial. A
// journal written before partials became incremental holds cumulative
// records, each containing the one before, so merging replays it to
// the same state replacing did.
func (r *recPartial) apply(q *MemQueue) error {
	u, err := q.slot(r.Unit, "partial")
	if err != nil {
		return err
	}
	if u.Token != r.Token {
		return fmt.Errorf("partial for unit %d under a foreign token", r.Unit)
	}
	if r.Checkpoint == nil {
		return fmt.Errorf("partial for unit %d without a checkpoint", r.Unit)
	}
	u.Partial = resultio.MergePartial(u.Partial, r.Checkpoint)
	return nil
}

// recStrike carries the *resulting* strike state of a unit: expiry
// strikes, worker-reported failures, operator requeues (strikes back
// to 0, state pending) and drops all journal as this one kind.
type recStrike struct {
	Unit    int    `json:"unit"`
	Strikes int    `json:"strikes"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
}

func (*recStrike) kind() uint8 { return kindStrike }

// apply sets the unit's strike count, reason and state (pending,
// quarantined or dropped) and releases its lease; when a steal follows
// the strike, the grant record after it installs the thief's.
func (r *recStrike) apply(q *MemQueue) error {
	u, err := q.slot(r.Unit, "strike")
	if err != nil {
		return err
	}
	switch r.State {
	case UnitPending, UnitQuarantined, UnitDropped:
	default:
		return fmt.Errorf("strike for unit %d: state %q", r.Unit, r.State)
	}
	if u.State == UnitDone || u.State == UnitRetired {
		return fmt.Errorf("strike for unit %d in state %q", r.Unit, u.State)
	}
	u.State = r.State
	u.Strikes = r.Strikes
	u.LastFailure = r.Reason
	u.Worker, u.Token = "", ""
	return nil
}

// recCancel stops the campaign.
type recCancel struct{}

func (*recCancel) kind() uint8 { return kindCancel }

// MarshalJSON keeps the payload cancel records have always had: null.
func (*recCancel) MarshalJSON() ([]byte, error) { return []byte("null"), nil }

func (*recCancel) apply(q *MemQueue) error {
	q.canceled = true
	return nil
}
