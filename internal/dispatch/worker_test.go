package dispatch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// checkpointForCells builds a structurally complete checkpoint for an
// explicit cell-index set — the unit coverage submit-side validation
// requires, without the cost of actually running the campaign. Unlike
// emptyCheckpoint it follows the lease's (possibly re-planned) cell
// set rather than the manifest's static plan.
func checkpointForCells(t *testing.T, m dispatch.Manifest, cells []int) *resultio.Checkpoint {
	t.Helper()
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	grid := core.NewStudy(cfg).Cells()
	out := make(map[core.CellKey]core.AggregateState, len(cells))
	for _, idx := range cells {
		out[grid[idx]] = core.AggregateState{}
	}
	return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, out)
}

// flakySubmitQueue wraps a Queue, failing Submit with a transient error
// until failFor has elapsed since the first attempt, and counts the
// heartbeats that arrive while submits are being rejected.
type flakySubmitQueue struct {
	dispatch.Queue
	failFor time.Duration

	mu             sync.Mutex
	firstAttempt   time.Time
	rejected       int
	beatsWhileDown int
}

func (q *flakySubmitQueue) failing(now time.Time) bool {
	if q.firstAttempt.IsZero() {
		return false
	}
	return now.Sub(q.firstAttempt) < q.failFor
}

func (q *flakySubmitQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	q.mu.Lock()
	now := time.Now()
	if q.firstAttempt.IsZero() {
		q.firstAttempt = now
	}
	if q.failing(now) {
		q.rejected++
		q.mu.Unlock()
		return errors.New("injected transient submit failure")
	}
	q.mu.Unlock()
	return q.Queue.Submit(l, cp, elapsed)
}

func (q *flakySubmitQueue) Heartbeat(l dispatch.Lease) error {
	q.mu.Lock()
	if q.failing(time.Now()) {
		q.beatsWhileDown++
	}
	q.mu.Unlock()
	return q.Queue.Heartbeat(l)
}

// TestWorkerRetriesTransientSubmitWithoutAbandoningUnit is the
// regression test for the submit hardening: a finished unit whose
// submission hits transient queue errors must be retried with backoff
// while the lease is kept alive by heartbeats — not abandoned, not
// recomputed, and not allowed to expire mid-retry.
func TestWorkerRetriesTransientSubmitWithoutAbandoningUnit(t *testing.T) {
	ttl := 400 * time.Millisecond
	m := dispatch.NewManifest(testConfig(t), 2, ttl)
	inner, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	// Reject submits for well over one TTL: only a worker that keeps
	// heartbeating through the retry loop still owns the lease when the
	// queue recovers.
	q := &flakySubmitQueue{Queue: inner, failFor: ttl + ttl/2}

	var mu sync.Mutex
	runs := 0
	_, err = dispatch.Work(context.Background(), q, dispatch.WorkerOptions{
		Name: "retry-worker",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			st := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
			return checkpointForCells(t, m, u.Cells), st, nil
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("worker failed instead of retrying the transient submit: %v", err)
	}
	if runs != m.Units {
		t.Fatalf("RunShard ran %d times for %d units; a transient submit error must not force a recompute", runs, m.Units)
	}
	st, err := inner.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("campaign not drained after submit retries: %+v", st)
	}
	q.mu.Lock()
	rejected, beats := q.rejected, q.beatsWhileDown
	q.mu.Unlock()
	if rejected == 0 {
		t.Fatal("test never exercised the failing-submit window")
	}
	if beats == 0 {
		t.Fatalf("no heartbeats during the %d rejected submits; the lease would have expired mid-retry", rejected)
	}
}

// TestWorkerOneShotSubmitFailure pins the minimal satellite case: a
// single injected submit failure delays the unit, nothing more.
func TestWorkerOneShotSubmitFailure(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 1, time.Minute)
	inner, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	q := &flakySubmitQueue{Queue: inner, failFor: time.Nanosecond} // first call fails, clock has moved by the second
	runs := 0
	done, err := dispatch.Work(context.Background(), q, dispatch.WorkerOptions{
		Name: "oneshot",
		Poll: 20 * time.Millisecond,
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			runs++
			st := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
			return checkpointForCells(t, m, u.Cells), st, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 || runs != 1 {
		t.Fatalf("submitted %d units with %d runs, want 1 and 1", done, runs)
	}
}

// TestWorkerResumesFromIntraUnitCheckpoint is the kill-a-worker resume
// path: a worker dies mid-unit after writing intra-unit checkpoints;
// once its lease expires, the re-granted lease must resume from the
// stored partial — computing strictly fewer cells than the unit holds —
// and the fused campaign must still render byte-identical output.
func TestWorkerResumesFromIntraUnitCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(t, single)

	dir := t.TempDir()
	ttl := 400 * time.Millisecond
	if err := dispatch.InitDir(dir, dispatch.NewManifest(cfg, 2, ttl)); err != nil {
		t.Fatal(err)
	}

	// The doomed worker: leases a unit, computes a few cells (writing
	// an intra-unit checkpoint after each), then dies — modelled as a
	// canceled context and no further touches.
	doomed, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := dispatchManifest(t, doomed)
	lease, err := doomed.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}
	const dieAfter = 3
	ctx, die := context.WithCancel(context.Background())
	saved := 0
	_, _, runErr := dispatch.RunUnitWork(ctx, m, dispatch.UnitWork{
		Unit:  lease.Unit,
		Cells: lease.Cells,
		SavePartial: func(cp *resultio.Checkpoint) error {
			if err := doomed.SavePartial(lease, cp); err != nil {
				return err
			}
			if saved++; saved >= dieAfter {
				die()
			}
			return nil
		},
		PartialEvery: 1,
	}, 1)
	die()
	if runErr == nil {
		t.Fatal("doomed worker finished its whole unit; the test wanted it dead mid-unit")
	}
	if saved < dieAfter {
		t.Fatalf("doomed worker saved %d partials before dying, want >= %d", saved, dieAfter)
	}

	// A survivor drains the campaign once the dead lease expires.
	wq, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		stats = map[int]dispatch.UnitRunStats{}
		logs  strings.Builder
	)
	workCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err = dispatch.Work(workCtx, wq, dispatch.WorkerOptions{
		Name: "survivor",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			cp, st, err := dispatch.RunUnitWork(ctx, m, u, 0)
			mu.Lock()
			stats[u.Unit] = st
			mu.Unlock()
			return cp, st, err
		},
		Log: func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&logs, format+"\n", args...)
			mu.Unlock()
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	st, ok := stats[lease.Unit]
	if !ok {
		t.Fatalf("survivor never ran the doomed unit %d (stats: %+v)", lease.Unit, stats)
	}
	if st.ResumedCells < dieAfter {
		t.Fatalf("re-granted unit resumed %d cells, want >= %d (partial not used)", st.ResumedCells, dieAfter)
	}
	if st.ComputedCells >= st.TotalCells {
		t.Fatalf("re-granted unit recomputed all %d cells despite an intra-unit checkpoint", st.TotalCells)
	}
	if !strings.Contains(logs.String(), "resuming from intra-unit checkpoint") {
		t.Error("worker log never mentioned the intra-unit resume")
	}

	coord, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	status, err := coord.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !status.Drained() {
		t.Fatalf("campaign not drained: %+v", status)
	}
	got := renderCampaign(t, seedFromQueue(t, coord))
	if string(got) != string(want) {
		t.Fatalf("resumed campaign rendering differs from the unsharded run:\n--- resumed ---\n%s\n--- single ---\n%s", got, want)
	}
}
