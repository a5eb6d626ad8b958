package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/wal"
	"rowfuse/internal/faultpoint"
)

// mergedJSON canonicalizes a queue's merged checkpoint for equality
// checks across a journal replay.
func mergedJSON(t *testing.T, q dispatch.Queue) []byte {
	t.Helper()
	cp, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func queueStatus(t *testing.T, q dispatch.Queue) dispatch.Status {
	t.Helper()
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWALQueueReplayExactState drives every journaled transition kind
// — grants, steals, heartbeats, timed submits (which re-plan unit
// boundaries and train the cost model), intra-unit partials — then
// reopens the directory and demands the replayed queue be
// indistinguishable: same Status (including the re-planned cell
// counts and cost estimates), same merged checkpoint, and a live
// lease that still heartbeats under its original token.
func TestWALQueueReplayExactState(t *testing.T) {
	clk := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 4, time.Minute)
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}

	// Timed submit: trains the cost model and marks re-planning due.
	l0, err := q.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l0, checkpointForCells(t, m, l0.Cells), 90*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// This acquire triggers the re-plan, so its lease reflects the
	// journaled plan deltas.
	l1, err := q.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Heartbeat(l1); err != nil {
		t.Fatal(err)
	}
	if err := q.SavePartial(l1, checkpointForCells(t, m, l1.Cells[:1])); err != nil {
		t.Fatal(err)
	}
	// A steal: l2's lease expires un-heartbeated and gamma takes it.
	l2, err := q.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(61 * time.Second)
	if err := q.Heartbeat(l1); err != nil { // keep beta's lease alive
		t.Fatal(err)
	}
	stolen, err := q.Acquire("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if stolen.Unit != l2.Unit {
		t.Fatalf("gamma got unit %d, want the expired unit %d", stolen.Unit, l2.Unit)
	}
	if err := q.Submit(stolen, checkpointForCells(t, m, stolen.Cells), 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	wantStatus := queueStatus(t, q)
	wantMerged := mergedJSON(t, q)

	// Kill -9: the queue is abandoned without Close. Every
	// acknowledged transition was already journaled.
	q2, err := dispatch.OpenWALQueue(dir, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if info := q2.Recovered(); info.Err != nil {
		t.Fatalf("clean journal reported damage: %+v", info)
	}
	if got := queueStatus(t, q2); !reflect.DeepEqual(got, wantStatus) {
		t.Fatalf("replayed status differs:\n got %+v\nwant %+v", got, wantStatus)
	}
	if got := mergedJSON(t, q2); !bytes.Equal(got, wantMerged) {
		t.Fatal("replayed merged checkpoint differs")
	}
	// Beta's live lease replayed token and all.
	if err := q2.Heartbeat(l1); err != nil {
		t.Fatalf("replayed queue rejected the live lease's heartbeat: %v", err)
	}
	// Beta's intra-unit checkpoint replayed too.
	part, err := q2.LoadPartial(l1)
	if err != nil {
		t.Fatal(err)
	}
	if part == nil || len(part.Cells) != 1 {
		t.Fatalf("replayed partial: %+v", part)
	}
	// The dead original lease on the stolen unit stays dead.
	if err := q2.Submit(l2, checkpointForCells(t, m, l2.Cells), 0); err == nil {
		t.Fatal("stale pre-steal lease accepted after replay")
	}
}

// grantCapped turns a queue drained for test purposes: after n grants
// it reports ErrDrained so dispatch.Work exits cleanly mid-campaign —
// the in-process stand-in for kill -9'ing the worker host.
type grantCapped struct {
	dispatch.Queue
	mu   sync.Mutex
	left int
}

func (g *grantCapped) Acquire(worker string) (dispatch.Lease, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left <= 0 {
		return dispatch.Lease{}, dispatch.ErrDrained
	}
	l, err := g.Queue.Acquire(worker)
	if err == nil {
		g.left--
	}
	return l, err
}

// TestWALQueueKillRestartEndToEnd is the durability acceptance path:
// a real campaign drains halfway through one coordinator process, the
// process dies without any shutdown (the queue is simply abandoned,
// journal un-Closed, with a granted-unsubmitted lease in flight), a
// new process reopens the directory, the orphaned lease expires and
// is re-granted, and the finished campaign renders Table 2 / Fig 4
// byte-identical to an uninterrupted single-process run.
func TestWALQueueKillRestartEndToEnd(t *testing.T) {
	cfg := testConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(t, single)

	dir := t.TempDir()
	const units = 4
	ttl := 500 * time.Millisecond
	q1, err := dispatch.CreateWALQueue(dir, dispatch.NewManifest(cfg, units, ttl))
	if err != nil {
		t.Fatal(err)
	}

	// Incarnation one: a worker computes two real units (training the
	// cost model, so re-planning traffic hits the journal too) …
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	n, err := dispatch.Work(ctx, &grantCapped{Queue: q1, left: 2}, dispatch.WorkerOptions{Name: "early", Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("first incarnation submitted %d units, want 2", n)
	}
	// … and a doomed worker takes a lease it will never finish.
	doomedLease, err := q1.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}
	// Kill -9: no Close, no flush, nothing. Appends went straight to
	// the OS on acknowledgment, so abandoning the handle loses nothing.

	q2, err := dispatch.OpenWALQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	st := queueStatus(t, q2)
	if st.Done != 2 || st.Leased != 1 {
		t.Fatalf("restart state: %d done, %d leased (want 2 done, 1 leased): %+v", st.Done, st.Leased, st)
	}
	// The orphaned lease survived the restart intact — it still
	// heartbeats under its pre-crash token …
	if err := q2.Heartbeat(doomedLease); err != nil {
		t.Fatalf("orphaned lease did not survive the restart: %v", err)
	}
	// … and once its owner stays silent past the TTL, a live worker
	// steals it and drains the campaign.
	n, err = dispatch.Work(ctx, q2, dispatch.WorkerOptions{Name: "late", Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// Re-planning may have resized the remaining units, so assert the
	// late worker finished the campaign rather than an exact count.
	if n < 1 {
		t.Fatal("second incarnation submitted no units")
	}
	if st := queueStatus(t, q2); !st.Drained() {
		t.Fatalf("campaign not drained after restart: %+v", st)
	}
	if err := q2.Submit(doomedLease, emptyCheckpoint(dispatchManifest(t, q2), doomedLease.Unit), 0); err == nil {
		t.Fatal("dead worker's stale submit was accepted")
	}

	got := renderCampaign(t, seedFromQueue(t, q2))
	if !bytes.Equal(got, want) {
		t.Fatalf("killed-and-restarted campaign rendering differs from the uninterrupted run:\n--- restarted ---\n%s\n--- single ---\n%s", got, want)
	}
}

// TestWALQueueCompaction forces snapshot+truncate compaction
// mid-campaign and proves the compacted directory replays to the same
// state a never-compacted journal would.
func TestWALQueueCompaction(t *testing.T) {
	clk := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 6, time.Minute)
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m,
		dispatch.WALWithClock(clk.Now), dispatch.WALCompactEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l, err := q.Acquire("worker")
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Submit(l, checkpointForCells(t, m, l.Cells), 30*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.snap")); err != nil {
		t.Fatalf("compaction never wrote a snapshot: %v", err)
	}
	wantStatus := queueStatus(t, q)
	wantMerged := mergedJSON(t, q)

	q2, err := dispatch.OpenWALQueue(dir, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := queueStatus(t, q2); !reflect.DeepEqual(got, wantStatus) {
		t.Fatalf("post-compaction replay differs:\n got %+v\nwant %+v", got, wantStatus)
	}
	if got := mergedJSON(t, q2); !bytes.Equal(got, wantMerged) {
		t.Fatal("post-compaction merged checkpoint differs")
	}
	// The compacted queue keeps draining.
	for {
		l, err := q2.Acquire("worker")
		if errors.Is(err, dispatch.ErrDrained) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := q2.Submit(l, checkpointForCells(t, m, l.Cells), 30*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if st := queueStatus(t, q2); !st.Drained() {
		t.Fatalf("not drained: %+v", st)
	}
}

// TestWALQueueFailedCompactionBacksOff: a compaction that fails is
// retried after another compactEvery records, not by every flush that
// follows, and the journal stays the durable state meanwhile.
func TestWALQueueFailedCompactionBacksOff(t *testing.T) {
	clk := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m,
		dispatch.WALWithClock(clk.Now), dispatch.WALWithoutSync(), dispatch.WALCompactEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(&faultpoint.Schedule{Rules: []faultpoint.Rule{{Point: "wal.snapshot"}}})
	defer faultpoint.Disarm()
	// Twelve records, one flush each: the grant and eleven heartbeats.
	l, err := q.Acquire("worker")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if err := q.Heartbeat(l); err != nil {
			t.Fatal(err)
		}
	}
	attempts := 0
	for _, p := range faultpoint.Fired() {
		if p == "wal.snapshot" {
			attempts++
		}
	}
	if attempts != 4 {
		t.Fatalf("%d compaction attempts over 12 records, want 4 (one per 3 records)", attempts)
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed compaction left a snapshot: %v", err)
	}
	faultpoint.Disarm()
	for i := 0; i < 3; i++ {
		if err := q.Heartbeat(l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.snap")); err != nil {
		t.Fatalf("compaction never succeeded once the fault cleared: %v", err)
	}
	want := queueStatus(t, q)
	q2, err := dispatch.OpenWALQueue(dir, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := queueStatus(t, q2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after the failed compactions differs:\n got %+v\nwant %+v", got, want)
	}
	if err := q2.Heartbeat(l); err != nil {
		t.Fatalf("replayed queue rejected the live lease: %v", err)
	}
}

// TestWALQueueRefusesOversizedRecord: a submit whose journal record
// the log would refuse fails with wal.ErrTooLarge before the queue
// applies it, so the unit stays leased, the queue keeps serving, and
// the holder's next submit lands and replays.
func TestWALQueueRefusesOversizedRecord(t *testing.T) {
	clk := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now), dispatch.WALWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("worker")
	if err != nil {
		t.Fatal(err)
	}
	cp := checkpointForCells(t, m, l.Cells)
	big := *cp
	big.Shard = strings.Repeat("x", wal.MaxPayload) // the shard label is not validated
	if err := q.Submit(l, &big, 0); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("oversized submit: %v, want ErrTooLarge", err)
	}
	if err := q.Failed(); err != nil {
		t.Fatalf("a refused record poisoned the queue: %v", err)
	}
	if st := queueStatus(t, q); st.Done != 0 || st.Leased != 1 {
		t.Fatalf("after the refused submit: %+v, want the unit still leased", st)
	}
	if err := q.Submit(l, cp, 0); err != nil {
		t.Fatalf("submit after a refusal: %v", err)
	}
	wantStatus, wantMerged := queueStatus(t, q), mergedJSON(t, q)
	q2, err := dispatch.OpenWALQueue(dir, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := queueStatus(t, q2); !reflect.DeepEqual(got, wantStatus) {
		t.Fatalf("replayed status differs:\n got %+v\nwant %+v", got, wantStatus)
	}
	if got := mergedJSON(t, q2); !bytes.Equal(got, wantMerged) {
		t.Fatal("replayed merged checkpoint differs")
	}
}

// TestWALQueueJournalCorruptionRecovers damages the journal's tail in
// each characteristic way and demands the reopened queue (a) surface
// the exact wal sentinel through Recovered and (b) stand at the last
// consistent state — the transitions before the damage intact, the
// one inside it forgotten and re-grantable.
func TestWALQueueJournalCorruptionRecovers(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func([]byte) []byte
		wantErr error
	}{
		{
			name:    "truncated tail",
			corrupt: func(b []byte) []byte { return b[:len(b)-5] },
			wantErr: wal.ErrTruncated,
		},
		{
			name: "flipped checksum byte",
			corrupt: func(b []byte) []byte {
				b[len(b)-1] ^= 0x40
				return b
			},
			wantErr: wal.ErrBadChecksum,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			m := dispatch.NewManifest(testConfig(t), 3, time.Minute)
			dir := t.TempDir()
			q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now))
			if err != nil {
				t.Fatal(err)
			}
			l0, err := q.Acquire("alpha")
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Submit(l0, checkpointForCells(t, m, l0.Cells), 0); err != nil {
				t.Fatal(err)
			}
			// The final journaled transition: a grant the damage will
			// erase.
			if _, err := q.Acquire("beta"); err != nil {
				t.Fatal(err)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, "queue.wal")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			q2, err := dispatch.OpenWALQueue(dir, dispatch.WALWithClock(clk.Now))
			if err != nil {
				t.Fatal(err)
			}
			defer q2.Close()
			info := q2.Recovered()
			if !errors.Is(info.Err, tc.wantErr) {
				t.Fatalf("recover sentinel: got %v, want %v", info.Err, tc.wantErr)
			}
			if info.DroppedBytes <= 0 {
				t.Fatalf("damage reported but zero bytes dropped: %+v", info)
			}
			// Last consistent state: alpha's submit survives, beta's
			// grant is forgotten — its unit is pending again and a new
			// worker picks it up.
			st := queueStatus(t, q2)
			if st.Done != 1 || st.Leased != 0 || st.Pending != 2 {
				t.Fatalf("recovered state: %+v (want 1 done, 0 leased, 2 pending)", st)
			}
			if _, err := q2.Acquire("gamma"); err != nil {
				t.Fatalf("recovered queue refused a fresh grant: %v", err)
			}
		})
	}
}

// TestWALQueueCancelDurable proves campaign cancellation is a
// journaled transition like any other: a reopened queue stays
// canceled and keeps refusing worker mutations, while Status and
// Merged still answer.
func TestWALQueueCancelDurable(t *testing.T) {
	clk := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 3, time.Minute)
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, checkpointForCells(t, m, l.Cells), 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("alpha"); !errors.Is(err, dispatch.ErrCanceled) {
		t.Fatalf("acquire after cancel: %v", err)
	}

	q2, err := dispatch.OpenWALQueue(dir, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if !q2.Canceled() {
		t.Fatal("cancellation did not survive the restart")
	}
	if _, err := q2.Acquire("beta"); !errors.Is(err, dispatch.ErrCanceled) {
		t.Fatalf("acquire on reopened canceled queue: %v", err)
	}
	if st := queueStatus(t, q2); st.Done != 1 {
		t.Fatalf("canceled queue lost its completed work: %+v", st)
	}
}
