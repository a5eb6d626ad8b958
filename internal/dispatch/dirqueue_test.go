package dispatch_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

func initDirQueue(t *testing.T, units int, ttl time.Duration) (*dispatch.DirQueue, dispatch.Manifest, string) {
	t.Helper()
	dir := t.TempDir()
	m := dispatch.NewManifest(testConfig(t), units, ttl)
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}
	q, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return q, m, dir
}

func TestInitDirRefusesSecondCampaign(t *testing.T) {
	dir := t.TempDir()
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.InitDir(dir, m); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("second init: %v", err)
	}
}

func TestDirQueueLeaseExpiryAndStealing(t *testing.T) {
	clock := newFakeClock()
	q, m, dir := initDirQueue(t, 3, time.Second)
	q.SetClock(clock.Now)

	l0, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if l0.Unit != 0 {
		t.Fatalf("first lease got unit %d", l0.Unit)
	}
	if _, err := q.Acquire("w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("w3"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("w4"); !errors.Is(err, dispatch.ErrNoWork) {
		t.Fatalf("all leased: want ErrNoWork, got %v", err)
	}

	// Heartbeats extend the on-disk lease.
	for i := 0; i < 3; i++ {
		clock.Advance(900 * time.Millisecond)
		if err := q.Heartbeat(l0); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}

	// A second queue handle models a separate worker process sharing
	// the directory; after expiry it steals the silent worker's unit.
	thief, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	thief.SetClock(clock.Now)
	clock.Advance(1100 * time.Millisecond)
	stolen, err := thief.Acquire("thief")
	if err != nil {
		t.Fatal(err)
	}
	if stolen.Unit != 0 {
		t.Fatalf("expected the expired unit 0 re-granted, got %d", stolen.Unit)
	}
	if err := q.Heartbeat(l0); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("stale heartbeat: want ErrLeaseLost, got %v", err)
	}

	// Exactly one submission per unit wins, no matter who submits.
	if err := thief.Submit(stolen, emptyCheckpoint(m, 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l0, emptyCheckpoint(m, 0), 0); !errors.Is(err, dispatch.ErrDuplicateSubmit) {
		t.Fatalf("late duplicate submit: want ErrDuplicateSubmit, got %v", err)
	}

	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	// w2 and w3 never heartbeat either, so their leases show as
	// expired (pending, stealable) by now — only the submitted unit
	// counts done.
	if st.Done != 1 || st.Pending != 2 {
		t.Fatalf("status: %+v", st)
	}
}

func TestDirQueueSubmitValidatesFingerprint(t *testing.T) {
	q, m, _ := initDirQueue(t, 2, time.Minute)
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	foreign := resultio.NewCheckpoint("deadbeef", m.Plan(l.Unit), nil)
	if err := q.Submit(l, foreign, 0); !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("foreign fingerprint: want ErrConfigMismatch, got %v", err)
	}
}

// TestDirQueueMergedRejectsPlantedDuplicate verifies the fold-side
// defense in depth: even if a duplicate done file appears (operator
// copy, tampering), the overlap check refuses to double-count it.
func TestDirQueueMergedRejectsPlantedDuplicate(t *testing.T) {
	q, m, dir := initDirQueue(t, 2, time.Minute)
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty unit checkpoint: actually run unit 0's shard.
	cp, _, err := dispatch.RunUnitWork(context.Background(), m, dispatch.UnitWork{Unit: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, cp, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Merged(); err != nil {
		t.Fatal(err)
	}
	// Plant unit 0's checkpoint as unit 1's done file.
	data, err := os.ReadFile(filepath.Join(dir, "done_0000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "done_0001.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = q.Merged()
	if !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("planted duplicate: want ErrConfigMismatch via the overlap check, got %v", err)
	}
	if !strings.Contains(err.Error(), "done_0001.json") || !strings.Contains(err.Error(), "done_0000.json") {
		t.Fatalf("overlap error should name both files: %v", err)
	}
}
