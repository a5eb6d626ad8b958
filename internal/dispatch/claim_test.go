package dispatch_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/dispatch"
)

// TestStaleClaimBrokenWithoutLiveLock is the regression test for the
// lock-file claim protocol: a crashed creator's stale claim must be
// broken by exactly one of many racing creators, and the racers that
// observe the claim vanishing mid-race must retry (with backoff)
// rather than erroring out — the old single-shot behavior could leave
// the name unclaimed with every racer reporting ErrExist.
func TestStaleClaimBrokenWithoutLiveLock(t *testing.T) {
	dir := t.TempDir()
	const name = "unit_0000.json"

	// The crashed creator: a claim with no payload, an hour old.
	claim := filepath.Join(dir, name+".claim")
	if err := os.WriteFile(claim, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(claim, old, old); err != nil {
		t.Fatal(err)
	}

	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dispatch.ExclusiveCreateForTest(dir, name, []byte("payload"), time.Minute)
		}(i)
	}
	wg.Wait()

	winners := 0
	for i, err := range errs {
		switch {
		case err == nil:
			winners++
		case errors.Is(err, os.ErrExist):
		default:
			t.Fatalf("racer %d: unexpected error %v", i, err)
		}
	}
	if winners != 1 {
		t.Fatalf("%d racers won the stale claim, want exactly 1 (errors: %v)", winners, errs)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("winner left no payload: %v", err)
	}
	if string(data) != "payload" {
		t.Fatalf("payload %q torn", data)
	}
	if _, err := os.Stat(claim); err != nil {
		t.Fatalf("winner's claim missing (stale one never broken cleanly): %v", err)
	}
}

// TestDirQueueQuarantineDurable drives the strike ledger through the
// filesystem queue: worker-reported failures quarantine a unit via
// durable sidecar files, every reopen of the directory sees the same
// ledger, requeue clears it, and a dropped unit refuses late results.
func TestDirQueueQuarantineDurable(t *testing.T) {
	dir := t.TempDir()
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	m.MaxStrikes = 1
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}
	q, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Fail(l, "bad dimm"); err != nil {
		t.Fatal(err)
	}
	if err := q.Fail(l, "bad dimm"); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("double Fail under a released lease: %v, want ErrLeaseLost", err)
	}

	// A fresh handle (another process) sees the quarantine and the
	// survivor drains around it.
	q2, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := q2.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Unit != l.Unit || entries[0].State != dispatch.UnitQuarantined {
		t.Fatalf("reopened ledger: %+v", entries)
	}
	if !strings.Contains(entries[0].LastFailure, "bad dimm (worker w1)") {
		t.Fatalf("LastFailure %q", entries[0].LastFailure)
	}
	other, err := q2.Acquire("w2")
	if err != nil {
		t.Fatal(err)
	}
	if other.Unit == l.Unit {
		t.Fatalf("quarantined unit %d re-granted", l.Unit)
	}
	if err := q2.Submit(other, checkpointForCells(t, m, other.Cells), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Acquire("w2"); !errors.Is(err, dispatch.ErrDrained) {
		t.Fatalf("acquire with only a quarantined unit left: %v, want ErrDrained", err)
	}
	st, err := q2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() || !st.Degraded() || st.Quarantined != 1 {
		t.Fatalf("status %+v, want drained+degraded", st)
	}

	// Requeue clears strikes and the unit completes normally.
	if err := q2.Requeue(l.Unit); err != nil {
		t.Fatal(err)
	}
	l2, err := q2.Acquire("w3")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Unit != l.Unit {
		t.Fatalf("requeued unit not re-granted: got %d, want %d", l2.Unit, l.Unit)
	}

	// Back to quarantine, then Drop: late submits are refused, and the
	// ledger survives yet another reopen.
	if err := q2.Fail(l2, "still bad"); err != nil {
		t.Fatal(err)
	}
	if err := q2.Drop(l.Unit); err != nil {
		t.Fatal(err)
	}
	q3, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err = q3.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].State != dispatch.UnitDropped {
		t.Fatalf("ledger after drop: %+v", entries)
	}
	if err := q3.Submit(l2, checkpointForCells(t, m, l2.Cells), 0); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("late submit to a dropped unit: %v, want ErrLeaseLost", err)
	}
}

// TestDirQueueLateSubmitUnquarantines: a quarantined (not dropped)
// unit whose deterministic result nevertheless arrives is completed
// and leaves the dead-letter list.
func TestDirQueueLateSubmitUnquarantines(t *testing.T) {
	dir := t.TempDir()
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	m.MaxStrikes = 1
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}
	q, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Fail(l, "transient wedge"); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, checkpointForCells(t, m, l.Cells), 0); err != nil {
		t.Fatalf("late submit to quarantined unit: %v", err)
	}
	entries, err := q.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("completed unit still dead-lettered: %+v", entries)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Quarantined != 0 {
		t.Fatalf("status %+v, want the late submit counted done", st)
	}
}

// TestStaleBreakLockDoesNotWedgeClaim: a creator that crashed while
// breaking a stale claim leaves its break lock behind. Once that lock
// is stale too, the next creator must clear both and take the name.
func TestStaleBreakLockDoesNotWedgeClaim(t *testing.T) {
	dir := t.TempDir()
	const name = "unit_0000.json"
	claim := filepath.Join(dir, name+".claim")
	old := time.Now().Add(-time.Hour)
	for _, p := range []string{claim, claim + ".break"} {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := dispatch.ExclusiveCreateForTest(dir, name, []byte("payload"), time.Minute); err != nil {
		t.Fatalf("stale claim plus stale break lock wedged the name: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil || string(data) != "payload" {
		t.Fatalf("payload %q, %v", data, err)
	}
	if fi, err := os.Stat(claim); err != nil || time.Since(fi.ModTime()) > time.Minute {
		t.Fatalf("claim not retaken: %v", err)
	}
	if _, err := os.Stat(claim + ".break"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("break lock left behind: %v", err)
	}
}
