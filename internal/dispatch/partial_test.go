package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/wal"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

// taggedCells builds a partial for an explicit cell-index set whose
// aggregates encode the cell and a record tag, so a test can tell which
// of two records for one cell a queue kept.
func taggedCells(t *testing.T, m dispatch.Manifest, tag int, cells ...int) map[core.CellKey]core.AggregateState {
	t.Helper()
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	grid := core.NewStudy(cfg).Cells()
	out := make(map[core.CellKey]core.AggregateState, len(cells))
	for _, idx := range cells {
		out[grid[idx]] = core.AggregateState{Total: 100*tag + idx, FlipKeys: []uint64{uint64(idx), uint64(tag)}}
	}
	return out
}

func checkpointBytes(t *testing.T, cp *resultio.Checkpoint) []byte {
	t.Helper()
	if cp == nil {
		t.Fatal("no stored partial")
	}
	var buf bytes.Buffer
	if err := resultio.SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// leaseUnit acquires until it holds the lease on unit, so every backend
// runs the same sequence on the same cells whatever order it grants in.
func leaseUnit(t *testing.T, q dispatch.Queue, unit int) dispatch.Lease {
	t.Helper()
	for i := 0; i < 4; i++ {
		l, err := q.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		if l.Unit == unit {
			return l
		}
	}
	t.Fatalf("never granted unit %d", unit)
	return dispatch.Lease{}
}

// TestSavePartialMergesDeltas pins the incremental partial contract on
// every queue: each SavePartial carries only new cells and the queue
// merges them into the stored partial, a repeated cell's later record
// wins, validation is what it was, and LoadPartial answers the merged
// partial in NewCheckpoint order — the same bytes from every backend,
// from a WAL journal replayed alone and from one compacted into a
// snapshot.
func TestSavePartialMergesDeltas(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	own, foreign := m.UnitCells(0), m.UnitCells(1)
	if len(own) < 4 {
		t.Fatalf("unit 0 has %d cells, the sequence needs 4", len(own))
	}
	union := taggedCells(t, m, 1, own[0], own[1])
	for k, v := range taggedCells(t, m, 2, own[2], own[3]) {
		union[k] = v
	}
	want := checkpointBytes(t, resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, union))

	delta := func(tag int, cells ...int) *resultio.Checkpoint {
		return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, taggedCells(t, m, tag, cells...))
	}
	backends := []struct {
		name string
		// open builds the queue in dir; reopen returns every view of
		// its stored state LoadPartial must answer from.
		open   func(t *testing.T, dir string) dispatch.Queue
		reopen func(t *testing.T, dir string, q dispatch.Queue, l dispatch.Lease) []dispatch.Queue
	}{
		{
			name: "mem",
			open: func(t *testing.T, dir string) dispatch.Queue {
				q, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			reopen: func(t *testing.T, dir string, q dispatch.Queue, l dispatch.Lease) []dispatch.Queue {
				return []dispatch.Queue{q}
			},
		},
		{
			name: "wal",
			open: func(t *testing.T, dir string) dispatch.Queue {
				q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithoutSync())
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			reopen: func(t *testing.T, dir string, q dispatch.Queue, l dispatch.Lease) []dispatch.Queue {
				q.(*dispatch.WALQueue).Close()
				journal, err := dispatch.OpenWALQueue(dir, dispatch.WALWithoutSync())
				if err != nil {
					t.Fatal(err)
				}
				journal.Close()
				// Reopen with a one-record threshold: the heartbeat's
				// record compacts the replayed state into a snapshot.
				compactor, err := dispatch.OpenWALQueue(dir, dispatch.WALWithoutSync(), dispatch.WALCompactEvery(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := compactor.Heartbeat(l); err != nil {
					t.Fatal(err)
				}
				compactor.Close()
				if _, err := os.Stat(filepath.Join(dir, "queue.snap")); err != nil {
					t.Fatalf("no compaction snapshot: %v", err)
				}
				snapped, err := dispatch.OpenWALQueue(dir, dispatch.WALWithoutSync())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { snapped.Close() })
				return []dispatch.Queue{journal, snapped}
			},
		},
		{
			name: "dir",
			open: func(t *testing.T, dir string) dispatch.Queue {
				if err := dispatch.InitDir(dir, m); err != nil {
					t.Fatal(err)
				}
				q, err := dispatch.OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			reopen: func(t *testing.T, dir string, q dispatch.Queue, l dispatch.Lease) []dispatch.Queue {
				fresh, err := dispatch.OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				return []dispatch.Queue{q, fresh}
			},
		},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			q := b.open(t, dir)
			l := leaseUnit(t, q, 0)
			steps := []struct {
				what string
				cp   *resultio.Checkpoint
				l    dispatch.Lease
				err  error
			}{
				{"first cell", delta(1, own[0]), l, nil},
				{"two new cells", delta(1, own[1], own[2]), l, nil},
				{"a repeated cell and a new one", delta(2, own[2], own[3]), l, nil},
				{"a cell of another unit", delta(1, own[0], foreign[0]), l, resultio.ErrConfigMismatch},
				{"a stale token", delta(1, own[0]), dispatch.Lease{Unit: l.Unit, Worker: l.Worker, Token: "stale", Expires: l.Expires, Cells: l.Cells}, dispatch.ErrLeaseLost},
			}
			for _, s := range steps {
				err := q.SavePartial(s.l, s.cp)
				if s.err == nil && err != nil || s.err != nil && !errors.Is(err, s.err) {
					t.Fatalf("%s: SavePartial = %v, want %v", s.what, err, s.err)
				}
			}
			for i, view := range b.reopen(t, dir, q, l) {
				got, err := view.LoadPartial(l)
				if err != nil {
					t.Fatal(err)
				}
				if g := checkpointBytes(t, got); !bytes.Equal(g, want) {
					t.Fatalf("view %d: LoadPartial =\n%s\nwant the merged partial\n%s", i, g, want)
				}
			}
		})
	}

	// A journal written before partials became incremental holds
	// cumulative records, each containing the one before; merging them
	// on replay must land where replacing them did.
	t.Run("cumulative journal", func(t *testing.T) {
		dir := t.TempDir()
		q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithoutSync())
		if err != nil {
			t.Fatal(err)
		}
		l := leaseUnit(t, q, 0)
		for n := 1; n <= 3; n++ {
			if err := q.SavePartial(l, delta(1, own[:n]...)); err != nil {
				t.Fatal(err)
			}
		}
		q.Close()
		_, recs, _, err := wal.Open(filepath.Join(dir, dispatch.WALFile))
		if err != nil {
			t.Fatal(err)
		}
		partials := 0
		for _, rec := range recs {
			if rec.Kind == dispatch.KindPartial {
				partials++
			}
		}
		if partials != 3 {
			t.Fatalf("journal holds %d partial records, want the 3 cumulative ones", partials)
		}
		replayed, err := dispatch.OpenWALQueue(dir, dispatch.WALWithoutSync())
		if err != nil {
			t.Fatal(err)
		}
		defer replayed.Close()
		got, err := replayed.LoadPartial(l)
		if err != nil {
			t.Fatal(err)
		}
		last := checkpointBytes(t, delta(1, own[:3]...))
		if g := checkpointBytes(t, got); !bytes.Equal(g, last) {
			t.Fatalf("replayed cumulative journal =\n%s\nwant its last record\n%s", g, last)
		}
	})
}

// lossyPartialQueue fails chosen SavePartial calls (numbered from 1)
// in the two ways a network can: drop ones fail before the queue sees
// the cells, lose ones after it applied them, as when the response
// goes missing. At each submit it records the unit's stored partial.
type lossyPartialQueue struct {
	dispatch.Queue
	drop, lose map[int]bool

	mu       sync.Mutex
	calls    int
	sent     []int // cells per SavePartial call
	atSubmit map[int]*resultio.Checkpoint
}

func (q *lossyPartialQueue) SavePartial(l dispatch.Lease, cp *resultio.Checkpoint) error {
	q.mu.Lock()
	q.calls++
	n := q.calls
	q.sent = append(q.sent, len(cp.Cells))
	q.mu.Unlock()
	if q.drop[n] {
		return errors.New("injected: partial dropped before reaching the queue")
	}
	err := q.Queue.SavePartial(l, cp)
	if err == nil && q.lose[n] {
		return errors.New("injected: partial applied but its response lost")
	}
	return err
}

func (q *lossyPartialQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	part, err := q.Queue.LoadPartial(l)
	if err != nil {
		return err
	}
	q.mu.Lock()
	q.atSubmit[l.Unit] = part
	q.mu.Unlock()
	return q.Queue.Submit(l, cp, elapsed)
}

// prefetchProbe tells a tail prefetch from the worker's own acquires:
// the worker runs one unit at a time and acquires its next one only
// after submitting, so a second grant that lands before the first
// submit came from the prefetch. The first submit waits for it, as
// the unit's tail would if its compute were slow.
type prefetchProbe struct {
	dispatch.Queue
	grants, submits atomic.Int32
	prefetched      atomic.Bool
}

func (q *prefetchProbe) Acquire(worker string) (dispatch.Lease, error) {
	l, err := q.Queue.Acquire(worker)
	if err == nil {
		q.grants.Add(1)
	}
	return l, err
}

func (q *prefetchProbe) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	if q.submits.Add(1) == 1 {
		for deadline := time.Now().Add(5 * time.Second); q.grants.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		q.prefetched.Store(q.grants.Load() >= 2)
	}
	return q.Queue.Submit(l, cp, elapsed)
}

// TestWorkerResendsUnacknowledgedPartials drives the real unit runner
// through a queue whose partial saves fail both before and after being
// applied. A failed save's cells must ride along with the next one, so
// when each unit ends its stored partial holds every non-final cell
// exactly once, with the submitted records; and the tail prefetch,
// which counts only acknowledged cells, must still fire.
func TestWorkerResendsUnacknowledgedPartials(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	mq, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	perUnit := len(m.UnitCells(0))
	if perUnit < 6 || len(m.UnitCells(1)) != perUnit {
		t.Fatalf("units of %d and %d cells; the schedule needs two equal units of at least 6", perUnit, len(m.UnitCells(1)))
	}
	// With one compute goroutine each unit makes perUnit-1 partial
	// calls, one per non-final cell. Fail the second and fourth of
	// each, never its last: nothing after it would carry its cells.
	probe := &prefetchProbe{Queue: mq}
	q := &lossyPartialQueue{
		Queue:    probe,
		drop:     map[int]bool{2: true, perUnit + 1: true},
		lose:     map[int]bool{4: true, perUnit + 3: true},
		atSubmit: map[int]*resultio.Checkpoint{},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	n, err := dispatch.Work(ctx, q, dispatch.WorkerOptions{Name: "lossy", Concurrency: 1, PartialEvery: 1, Log: t.Logf})
	if err != nil || n != 2 {
		t.Fatalf("worker submitted %d of 2 units: %v", n, err)
	}
	// One new cell per call; the calls after the two failed ones carry
	// the failed call's cell again.
	wantSent := make([]int, perUnit-1)
	for i := range wantSent {
		wantSent[i] = 1
	}
	wantSent[2], wantSent[4] = 2, 2
	if len(q.sent) != 2*len(wantSent) {
		t.Fatalf("worker made %d partial calls, want %d per unit: %v", len(q.sent), len(wantSent), q.sent)
	}
	for unit := 0; unit < 2; unit++ {
		if got := q.sent[unit*len(wantSent) : (unit+1)*len(wantSent)]; !slices.Equal(got, wantSent) {
			t.Fatalf("unit %d sent partials of %v cells, want %v", unit, got, wantSent)
		}
	}
	merged, err := mq.Merged()
	if err != nil {
		t.Fatal(err)
	}
	final, err := merged.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.atSubmit) != 2 {
		t.Fatalf("recorded stored partials for %d units, want 2", len(q.atSubmit))
	}
	for unit, part := range q.atSubmit {
		cells, err := part.CellMap() // fails on a repeated cell
		if err != nil {
			t.Fatalf("unit %d: stored partial: %v", unit, err)
		}
		if len(cells) != perUnit-1 {
			t.Fatalf("unit %d: stored partial holds %d cells, want the %d non-final ones", unit, len(cells), perUnit-1)
		}
		for key, st := range cells {
			if want, ok := final[key]; !ok || !reflect.DeepEqual(st, want) {
				t.Fatalf("unit %d: stored partial's cell %v differs from the submitted one", unit, key)
			}
		}
	}
	if !probe.prefetched.Load() {
		t.Fatal("the first unit's tail never prefetched the second unit")
	}
}

// TestWorkerPrefetchCountsResumedCells resumes a unit whose
// predecessor checkpointed all but two of its cells. Its first partial
// then carries one cell, and only by counting the resumed cells does
// the worker see it is down to the last cell and prefetch the next
// unit.
func TestWorkerPrefetchCountsResumedCells(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	clk := newFakeClock()
	mq, err := dispatch.NewMemQueue(m, dispatch.WithClock(clk.Now), dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := mq.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := mq.SavePartial(doomed, checkpointForCells(t, m, doomed.Cells[:len(doomed.Cells)-2])); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)

	probe := &prefetchProbe{Queue: mq}
	var stats []dispatch.UnitRunStats
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	n, err := dispatch.Work(ctx, probe, dispatch.WorkerOptions{
		Name: "survivor",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			cp, st, err := dispatch.RunUnitWork(ctx, m, u, 1)
			stats = append(stats, st)
			return cp, st, err
		},
		Log: t.Logf,
	})
	if err != nil || n != 2 {
		t.Fatalf("worker submitted %d of 2 units: %v", n, err)
	}
	if st := stats[0]; st.ResumedCells != st.TotalCells-2 {
		t.Fatalf("first unit run %+v, want the doomed unit resumed with two cells to go", st)
	}
	if !probe.prefetched.Load() {
		t.Fatal("the resumed unit's last cell did not prefetch the next unit: resumed cells not counted")
	}
}

// TestPartialUploadsAreLinear pins the O(n) checkpoint cost: one unit
// of 42 cells run into a WALQueue journals partials whose payloads sum
// to at most 3x the submit's. Each record's fixed envelope keeps the
// ratio near 2 for small cells; cumulative partials would make it
// about n/2.
func TestPartialUploadsAreLinear(t *testing.T) {
	mi, err := chipdb.ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.StudyConfig{
		Modules:       []chipdb.ModuleInfo{mi},
		Sweep:         timing.PaperSweep(),
		RowsPerRegion: 1,
		Dies:          1,
		Runs:          1,
	}
	m := dispatch.NewManifest(cfg, 1, time.Minute)
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Cells) < 30 {
		t.Fatalf("unit of %d cells, want at least 30", len(l.Cells))
	}
	cp, _, err := dispatch.RunUnitWork(context.Background(), m, dispatch.UnitWork{
		Unit:         l.Unit,
		Cells:        l.Cells,
		SavePartial:  func(cp *resultio.Checkpoint) error { return q.SavePartial(l, cp) },
		PartialEvery: 1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, cp, 0); err != nil {
		t.Fatal(err)
	}
	q.Close()

	_, recs, _, err := wal.Open(filepath.Join(dir, dispatch.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	var partialBytes, submitBytes, partials int
	for _, rec := range recs {
		switch rec.Kind {
		case dispatch.KindPartial:
			partialBytes += len(rec.Payload)
			partials++
		case dispatch.KindSubmit:
			submitBytes += len(rec.Payload)
		}
	}
	if partials != len(l.Cells)-1 {
		t.Fatalf("journal holds %d partials, want one per non-final cell (%d)", partials, len(l.Cells)-1)
	}
	if submitBytes == 0 || partialBytes > 3*submitBytes {
		t.Fatalf("partials journaled %d bytes against the submit's %d (%.1fx), want at most 3x",
			partialBytes, submitBytes, float64(partialBytes)/float64(submitBytes))
	}
	t.Logf("%d partials: %d bytes, submit %d bytes (%.2fx)", partials, partialBytes, submitBytes, float64(partialBytes)/float64(submitBytes))
}
