package dispatch_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/faultpoint"
	"rowfuse/internal/resultio"
)

// TestChaosCampaignQuarantinesPoisonUnit is the acceptance chaos run:
// a WAL-backed HTTP campaign with three workers, a deterministic
// seeded fault schedule injecting failures at the journal, server and
// client fault points (including one journal failure that kill-9s the
// coordinator, which a monitor reopens from the WAL), and one poison
// unit whose shard runner always panics. The poison unit must
// quarantine after MaxStrikes reports, the campaign must drain
// degraded, quarantine must survive the mid-chaos coordinator restart,
// and every non-quarantined cell must carry aggregates byte-identical
// to a fault-free unsharded run.
func TestChaosCampaignQuarantinesPoisonUnit(t *testing.T) {
	cfg := testConfig(t)

	// Fault-free reference: the whole grid computed in-process.
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := single.Snapshot()
	grid := single.Cells()

	dir := t.TempDir()
	m := dispatch.NewManifest(cfg, 6, 500*time.Millisecond)
	m.MaxStrikes = 2
	q0, err := dispatch.CreateWALQueue(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[dispatch.WALQueue]
	cur.Store(q0)
	var handler atomic.Value // http.Handler
	handler.Store(dispatch.NewHandler(q0))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	// The deterministic schedule: a few transport faults on both sides,
	// one journal-append failure (fails the coordinator mid-campaign)
	// and one fsync failure (fails the reopened coordinator again) —
	// every fault-point class this topology crosses. Unused dir.* and
	// registry.op rules are armed too, proving unexercised points cost
	// nothing.
	//
	// The wal.sync rule lands on the reopened coordinator by
	// construction, not by a count of fsyncs a run happens to journal:
	// wal.sync is checked only in Log.Sync, and every sync follows at
	// least one append in the same flush. wal.append fails the 11th
	// append, so at most 10 syncs come before it, and the 11th sync
	// runs after the reopen.
	sched, err := faultpoint.ParseSchedule(
		"seed=42" +
			";http.client:skip=4,count=3" +
			";http.server:skip=9,count=3" +
			";wal.append:skip=10,count=1" +
			";wal.sync:skip=10,count=1" +
			";dir.claim:count=1;dir.replace:count=1;registry.op:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(sched)
	defer faultpoint.Disarm()

	// The monitor is the "operator": whenever the coordinator's journal
	// fails (our kill -9 analogue), it abandons the handle without
	// Close and reopens the campaign from the WAL.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	restarts := 0
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			if cur.Load().Failed() == nil {
				continue
			}
			nq, err := dispatch.OpenWALQueue(dir)
			if err != nil {
				continue // e.g. an injected snapshot fault; next tick retries
			}
			restarts++
			cur.Store(nq)
			handler.Store(dispatch.NewHandler(nq))
		}
	}()

	// Three workers over HTTP. Unit cells covering grid index 0 are the
	// poison: their runner always panics, so every grant of that unit
	// converts to a reported failure.
	poisonRun := func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
		for _, c := range u.Cells {
			if c == 0 {
				panic("poison cell 0")
			}
		}
		return dispatch.RunUnitWork(ctx, m, u, 1)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	var logs syncedLog
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dispatch.Dial(srv.URL, srv.Client())
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = dispatch.Work(ctx, c, dispatch.WorkerOptions{
				Name:     []string{"alpha", "beta", "gamma"}[i],
				RunShard: poisonRun,
				Log:      logs.logf(t),
			})
		}(i)
	}
	wg.Wait()
	cancel()
	<-monitorDone
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	q := cur.Load()
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() || !st.Degraded() || st.Quarantined == 0 {
		t.Fatalf("status %+v, want drained+degraded with the poison unit quarantined", st)
	}
	entries, err := q.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := false
	for _, e := range entries {
		for _, c := range e.Cells {
			if c == 0 {
				poisoned = true
			}
		}
		if e.Strikes < m.MaxStrikes {
			t.Fatalf("entry %+v quarantined below the strike threshold", e)
		}
	}
	if !poisoned {
		t.Fatalf("quarantine ledger %+v does not contain the poison cell", entries)
	}

	// The chaos actually happened: the schedule's wal and http rules
	// all fired, and the journal failure forced at least one restart.
	firedSet := map[string]bool{}
	for _, p := range faultpoint.Fired() {
		firedSet[p] = true
	}
	for _, p := range []string{"http.client", "http.server", "wal.append", "wal.sync"} {
		if !firedSet[p] {
			t.Fatalf("fault point %s never fired (fired: %v)", p, faultpoint.Fired())
		}
	}
	if restarts == 0 {
		t.Fatal("the injected journal failures never forced a coordinator restart")
	}

	// Every submitted (non-quarantined) cell is byte-identical to the
	// fault-free run: injected faults may delay or reroute work, but
	// they must never corrupt it.
	cp, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("degraded campaign merged zero cells")
	}
	if len(got) >= len(grid) {
		t.Fatalf("merged %d cells of %d despite a quarantined unit", len(got), len(grid))
	}
	for key, agg := range got {
		ref, ok := want[key]
		if !ok {
			t.Fatalf("campaign produced cell %+v the reference run does not have", key)
		}
		if !reflect.DeepEqual(agg, ref) {
			t.Fatalf("cell %+v diverged from the fault-free run", key)
		}
	}

	// And the degraded report renders, annotated.
	var buf strings.Builder
	if err := dispatch.RenderQueueReport(&buf, q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quarantined") {
		t.Fatalf("final degraded report not annotated:\n%s", buf.String())
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
