package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rowfuse/internal/dispatch/wal"
	"rowfuse/internal/resultio"
)

// WALQueue is a MemQueue whose every state transition is journaled to
// a write-ahead log before it is acknowledged, so a coordinator crash
// or restart loses nothing: reopening the directory replays the
// journal back to the exact in-memory queue state — granted leases
// (with their tokens and expiries), accepted submissions, intra-unit
// partials, re-planned unit boundaries and the learned cost model all
// survive.
//
// Journal discipline: the record is the transition. Every operation
// runs MemQueue's decide-then-commit code; each record it commits (see
// record) is applied to the in-memory state and staged, and the
// operation ends with one append of its staged records and — unless
// they are all heartbeats — one fsync, before the caller sees a
// result. Nothing externally visible (a granted lease, an accepted
// submit) can therefore be forgotten by a restart. Applying before
// appending lets an operation's later steps see its earlier ones
// (Acquire grants from the table its own re-plan just rewrote) for one
// fsync per operation rather than per record. Reopening decodes the
// same records and runs them through the same apply, so live
// operations and replay cannot drift apart. Heartbeats are journaled
// but not individually fsynced: losing the tail of a heartbeat run
// merely re-opens the lease to expiry-based stealing, which the
// at-least-once execution model already tolerates, and it spares the
// journal one fsync per worker per TTL/3.
//
// The log is compacted by atomic snapshot+reset: the full queue state
// is written to a sibling snapshot file (temp+fsync+rename), then the
// log is truncated. The snapshot records the last sequence number it
// folds in and replay skips log records at or below it, so a crash
// between the two steps is harmless. Sequence numbers never restart.
//
// Nondeterminism never reaches replay: records carry the minted
// tokens, expiry timestamps and re-planned cell sets, not the inputs
// that produced them, so replay is pure state application — no clock,
// no randomness, no cost-model arithmetic whose drift could fork the
// state.
type WALQueue struct {
	mu  sync.Mutex
	mem *MemQueue
	log *wal.Log
	dir string

	nosync       bool
	compactEvery int
	sinceCompact int

	// buf stages the records of the operation in flight (filled by
	// stage, drained by flushLocked).
	buf    []walRec
	bufErr error

	recovered wal.RecoverInfo
	// failed poisons the queue after a journal write error: the
	// in-memory state no longer matches the durable state, and serving
	// from it would hand out leases a restart has never heard of.
	failed error
	closed bool
}

// walRec is one encoded record awaiting its flush.
type walRec struct {
	kind    uint8
	payload []byte
}

// walSnapshot is the compaction snapshot payload.
type walSnapshot struct {
	Manifest Manifest   `json:"manifest"`
	State    queueState `json:"state"`
}

const (
	walFile  = "queue.wal"
	snapFile = "queue.snap"
	// defaultCompactEvery bounds journal growth: after this many
	// records the state is snapshotted and the log reset.
	defaultCompactEvery = 512
)

// WALQueueOption customizes a WALQueue.
type WALQueueOption func(*WALQueue)

// WALWithClock substitutes the queue's time source (tests drive lease
// expiry without sleeping).
func WALWithClock(now func() time.Time) WALQueueOption {
	return func(q *WALQueue) { q.mem.now = now }
}

// WALWithoutSync skips per-record fsync. Appends still go straight to
// the OS (a process crash loses nothing); only machine-crash
// durability is traded away. For benchmarks and tests.
func WALWithoutSync() WALQueueOption {
	return func(q *WALQueue) { q.nosync = true }
}

// WALCompactEvery overrides the journal's compaction threshold.
func WALCompactEvery(n int) WALQueueOption {
	return func(q *WALQueue) {
		if n > 0 {
			q.compactEvery = n
		}
	}
}

// CreateWALQueue initializes a durable campaign queue in dir (created
// if missing). Fails if dir already holds a queue — reopen one with
// OpenWALQueue instead.
func CreateWALQueue(dir string, m Manifest, opts ...WALQueueOption) (*WALQueue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mem, err := NewMemQueue(m)
	if err != nil {
		return nil, err
	}
	log, err := wal.Create(filepath.Join(dir, walFile))
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("dispatch: %s already holds a campaign queue (reopen it with OpenWALQueue)", dir)
		}
		return nil, err
	}
	q := &WALQueue{mem: mem, log: log, dir: dir, compactEvery: defaultCompactEvery}
	for _, o := range opts {
		o(q)
	}
	payload, err := json.Marshal(&recInit{Manifest: m})
	if err != nil {
		log.Close()
		return nil, err
	}
	if _, err := log.Append(kindInit, payload); err != nil {
		log.Close()
		return nil, err
	}
	if !q.nosync {
		if err := log.Sync(); err != nil {
			log.Close()
			return nil, err
		}
	}
	mem.journal = q.stage
	return q, nil
}

// OpenWALQueue reopens the durable campaign queue in dir, replaying
// snapshot and journal back to the exact state the last acknowledged
// mutation left behind. A torn journal tail (crash mid-append) heals
// silently; real corruption surfaces its wal sentinel through
// Recovered() after the queue falls back to the last consistent
// state. Snapshot damage is a hard error: the records it folded away
// are gone, so there is nothing consistent to fall back to.
func OpenWALQueue(dir string, opts ...WALQueueOption) (*WALQueue, error) {
	var (
		snap     walSnapshot
		snapSeq  uint64
		haveSnap bool
	)
	payload, seq, err := wal.ReadSnapshot(filepath.Join(dir, snapFile))
	switch {
	case err == nil:
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", wal.ErrBadSnapshot, dir, err)
		}
		snapSeq, haveSnap = seq, true
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, err
	}

	log, recs, info, err := wal.Open(filepath.Join(dir, walFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%s holds no campaign queue: %w", dir, err)
		}
		return nil, err
	}

	var m Manifest
	if haveSnap {
		m = snap.Manifest
	} else {
		if len(recs) == 0 || recs[0].Kind != kindInit {
			log.Close()
			return nil, fmt.Errorf("%w: %s: journal does not start with an init record", wal.ErrBadRecord, dir)
		}
		var init recInit
		if err := json.Unmarshal(recs[0].Payload, &init); err != nil {
			log.Close()
			return nil, fmt.Errorf("%w: init record: %v", wal.ErrBadRecord, err)
		}
		m = init.Manifest
	}
	mem, err := NewMemQueue(m)
	if err != nil {
		log.Close()
		return nil, err
	}
	q := &WALQueue{mem: mem, log: log, dir: dir, compactEvery: defaultCompactEvery, recovered: info}
	for _, o := range opts {
		o(q)
	}
	if haveSnap {
		if err := mem.loadState(snap.State); err != nil {
			log.Close()
			return nil, fmt.Errorf("%w: %s: %v", wal.ErrBadSnapshot, dir, err)
		}
	}
	if err := mem.replay(recs, snapSeq); err != nil {
		log.Close()
		return nil, fmt.Errorf("%w: %s: %v", wal.ErrBadRecord, dir, err)
	}
	mem.journal = q.stage
	return q, nil
}

// replay applies the journal records after seq `after` (those the
// snapshot did not fold in) through the same apply live operations
// use, with the queue lock held as they hold it.
func (q *MemQueue) replay(recs []wal.Record, after uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, rec := range recs {
		if rec.Seq <= after {
			continue
		}
		r, err := decodeRecord(rec.Kind, rec.Payload)
		if err == nil {
			err = r.apply(q)
		}
		if err != nil {
			return fmt.Errorf("replay seq %d: %v", rec.Seq, err)
		}
	}
	return nil
}

// stage is the MemQueue's journal hook: it encodes each committed
// record for the flush that ends the operation. It runs under q.mu,
// which mutate holds around every MemQueue mutator.
func (q *WALQueue) stage(r record) {
	payload, err := json.Marshal(r)
	if err != nil {
		q.bufErr = fmt.Errorf("dispatch: encode journal record kind %d: %w", r.kind(), err)
		return
	}
	q.buf = append(q.buf, walRec{kind: r.kind(), payload: payload})
}

// mutate runs one MemQueue mutator under the journal discipline:
// refuse a closed or poisoned queue, let op apply and stage its
// records, then flush them before returning op's result.
func (q *WALQueue) mutate(op func() error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("dispatch: queue %s: %w", q.dir, wal.ErrClosed)
	}
	if q.failed != nil {
		return fmt.Errorf("dispatch: queue %s: journal failed earlier: %w", q.dir, q.failed)
	}
	q.buf, q.bufErr = q.buf[:0], nil
	err := op()
	if ferr := q.flushLocked(); ferr != nil {
		return ferr
	}
	return err
}

// flushLocked appends the staged records, fsyncing when any demands
// durability. A write failure poisons the queue: the in-memory state
// has already advanced past what the journal can replay, so serving
// on would acknowledge transitions a restart silently forgets.
func (q *WALQueue) flushLocked() error {
	if q.bufErr != nil {
		q.failed = q.bufErr
		return q.bufErr
	}
	if len(q.buf) == 0 {
		return nil
	}
	durable := false
	for _, r := range q.buf {
		if _, err := q.log.Append(r.kind, r.payload); err != nil {
			q.failed = err
			return err
		}
		durable = durable || r.kind != kindHeartbeat
	}
	if durable && !q.nosync {
		if err := q.log.Sync(); err != nil {
			q.failed = err
			return err
		}
	}
	q.sinceCompact += len(q.buf)
	q.buf = q.buf[:0]
	if q.sinceCompact >= q.compactEvery {
		// Best-effort: compaction failure leaves a longer journal, not
		// a wrong one — the next flush simply tries again.
		_ = q.compactLocked()
	}
	return nil
}

// compactLocked snapshots the full queue state and resets the log.
// Crash-safe in both windows: before the snapshot rename the old
// snapshot+journal still replay; after it but before the reset, the
// journal's surviving records carry sequence numbers at or below the
// snapshot's and replay skips them.
func (q *WALQueue) compactLocked() error {
	state := q.mem.snapshotState()
	payload, err := json.Marshal(walSnapshot{Manifest: q.mem.manifest, State: state})
	if err != nil {
		return err
	}
	if err := wal.WriteSnapshot(filepath.Join(q.dir, snapFile), q.log.LastSeq(), payload); err != nil {
		return err
	}
	if err := q.log.Reset(); err != nil {
		return err
	}
	q.sinceCompact = 0
	return nil
}

// Recovered reports how reopening found the journal: a zero-value
// info (nil Err) means a clean replay; otherwise the sentinel behind
// the truncation back to the last consistent state.
func (q *WALQueue) Recovered() wal.RecoverInfo { return q.recovered }

// Close fsyncs and closes the journal. Subsequent mutations fail with
// wal.ErrClosed; reads keep answering from memory so a final report
// and checkpoint can still be written.
func (q *WALQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	return q.log.Close()
}

// Manifest implements Queue.
func (q *WALQueue) Manifest() (Manifest, error) { return q.mem.Manifest() }

// Acquire implements Queue; the grant (and any re-plan it triggered)
// is journaled and fsynced before the lease is returned.
func (q *WALQueue) Acquire(worker string) (Lease, error) {
	var l Lease
	err := q.mutate(func() (err error) {
		l, err = q.mem.Acquire(worker)
		return err
	})
	if err != nil {
		return Lease{}, err
	}
	return l, nil
}

// Heartbeat implements Queue; journaled without an fsync of its own
// (see the type comment for why that is safe).
func (q *WALQueue) Heartbeat(l Lease) error {
	return q.mutate(func() error { return q.mem.Heartbeat(l) })
}

// Submit implements Queue; the accepted checkpoint is journaled and
// fsynced before the worker hears "accepted".
func (q *WALQueue) Submit(l Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	return q.mutate(func() error { return q.mem.Submit(l, cp, elapsed) })
}

// SavePartial implements Queue.
func (q *WALQueue) SavePartial(l Lease, cp *resultio.Checkpoint) error {
	return q.mutate(func() error { return q.mem.SavePartial(l, cp) })
}

// Fail implements Queue; the strike (and a possible quarantine) is
// journaled and fsynced before the worker hears "recorded".
func (q *WALQueue) Fail(l Lease, reason string) error {
	return q.mutate(func() error { return q.mem.Fail(l, reason) })
}

// Quarantined implements Queue (read-only: nothing to journal).
func (q *WALQueue) Quarantined() ([]QuarantineEntry, error) { return q.mem.Quarantined() }

// Requeue implements Queue; the reset is journaled and fsynced.
func (q *WALQueue) Requeue(unit int) error {
	return q.mutate(func() error { return q.mem.Requeue(unit) })
}

// Drop implements Queue; the drop is journaled and fsynced.
func (q *WALQueue) Drop(unit int) error {
	return q.mutate(func() error { return q.mem.Drop(unit) })
}

// Failed returns the journal error that poisoned the queue, or nil.
// A poisoned queue rejects every mutation; the owner should reopen
// the directory (OpenWALQueue) to resume from the durable state —
// chaos tests use exactly that loop.
func (q *WALQueue) Failed() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// LoadPartial implements Queue (read-only: nothing to journal).
func (q *WALQueue) LoadPartial(l Lease) (*resultio.Checkpoint, error) {
	return q.mem.LoadPartial(l)
}

// Status implements Queue.
func (q *WALQueue) Status() (Status, error) { return q.mem.Status() }

// Merged implements Queue.
func (q *WALQueue) Merged() (*resultio.Checkpoint, error) { return q.mem.Merged() }

// Cancel stops the campaign durably: the cancel record is journaled
// and fsynced, so a reopened queue stays canceled.
func (q *WALQueue) Cancel() error { return q.mutate(q.mem.Cancel) }

// Canceled reports whether the campaign was canceled.
func (q *WALQueue) Canceled() bool { return q.mem.Canceled() }

// queueState is a MemQueue's full serializable state, as captured by
// compaction snapshots.
type queueState struct {
	Units       []memUnit `json:"units"`
	ReplanDirty bool      `json:"replanDirty,omitempty"`
	Canceled    bool      `json:"canceled,omitempty"`
	Cost        costState `json:"cost"`
}

// snapshotState captures the queue's full state for a compaction
// snapshot.
func (q *MemQueue) snapshotState() queueState {
	q.mu.Lock()
	defer q.mu.Unlock()
	return queueState{
		Units:       slices.Clone(q.units),
		ReplanDirty: q.replanDirty,
		Canceled:    q.canceled,
		Cost:        q.cost.snapshot(),
	}
}

// loadState replaces the queue's state with a snapshot's.
func (q *MemQueue) loadState(s queueState) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, u := range s.Units {
		switch u.State {
		case UnitPending, UnitLeased, UnitDone, UnitRetired, UnitQuarantined, UnitDropped:
		default:
			return fmt.Errorf("unit %d: unknown state %q", i, u.State)
		}
	}
	if err := q.cost.load(s.Cost); err != nil {
		return err
	}
	q.units = s.Units
	q.replanDirty = s.ReplanDirty
	q.canceled = s.Canceled
	return nil
}
