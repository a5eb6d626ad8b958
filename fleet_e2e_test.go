package rowfuse_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/pattern"
	"rowfuse/internal/report"
	"rowfuse/internal/timing"
)

// fleetE2EConfig is the acceptance-scale fleet campaign: 10^5 synthetic
// chips in 6250-chip blocks — 16 cells, enough for real work stealing —
// at the shallowest per-chip depth (breadth is the point of a fleet).
func fleetE2EConfig() core.StudyConfig {
	return core.StudyConfig{
		Fleet:         &core.FleetPlan{Chips: 100000, ChipsPerCell: 6250, RowsPerChip: 1, Seed: 42},
		Patterns:      []pattern.Kind{pattern.DoubleSided},
		Sweep:         []time.Duration{timing.AggOnTREFI},
		RowsPerRegion: 1,
		Runs:          1,
	}
}

// TestFleetDispatchWorkerKillByteIdentical drives a 10^5-chip fleet
// campaign through the dispatch stack — three workers, one of which
// dies holding a lease — and requires the merged distribution fold to
// be byte-identical to an unsharded Study.Run: same checkpoint bytes,
// same rendered fleet distribution.
func TestFleetDispatchWorkerKillByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10^5-chip fleet campaign twice")
	}
	cfg := fleetE2EConfig()
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBytes := checkpointBytes(t, cfg, single)
	wantStats, err := core.FleetStats(single.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var wantTable bytes.Buffer
	if err := report.FleetDistribution(&wantTable, wantStats, 16); err != nil {
		t.Fatal(err)
	}
	if wantStats[0].Chips() != 100000 {
		t.Fatalf("unsharded run observed %d chips, want 100000", wantStats[0].Chips())
	}

	dir := t.TempDir()
	const units = 8
	m := dispatch.NewManifest(cfg, units, 500*time.Millisecond)
	if m.GridSize() != 16 {
		t.Fatalf("manifest grid size %d, want 16 (fleet axis lost on the wire?)", m.GridSize())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}

	// The doomed worker leases a unit and crashes without ever
	// heartbeating; its lease must expire and the unit be re-granted to
	// a live worker.
	doomed, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Acquire("doomed"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		submitted int
		firstErr  error
	)
	for w := 0; w < 2; w++ {
		name := []string{"alpha", "beta"}[w]
		wq, err := dispatch.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := dispatch.Work(ctx, wq, dispatch.WorkerOptions{Name: name, Log: t.Logf})
			mu.Lock()
			defer mu.Unlock()
			submitted += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if submitted != units {
		t.Fatalf("live workers submitted %d units, want all %d (incl. the dead worker's re-granted unit)", submitted, units)
	}

	coord, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := coord.Merged()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	fused := core.NewStudy(fleetE2EConfig())
	if err := fused.Seed(cells); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, cfg, fused); !bytes.Equal(got, wantBytes) {
		t.Fatal("dispatched fleet checkpoint differs from the unsharded run")
	}

	gotStats, err := core.FleetStats(fused.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var gotTable bytes.Buffer
	if err := report.FleetDistribution(&gotTable, gotStats, 16); err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Fatalf("dispatched fleet distribution differs:\n--- dispatched ---\n%s\n--- single ---\n%s",
			gotTable.String(), wantTable.String())
	}

	// The coordinator-side partial renderer must produce the same
	// complete distribution from the merged checkpoint.
	var partial bytes.Buffer
	if err := dispatch.RenderPartialDegraded(&partial, m, cp, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fleet distribution", "complete: 16/16 cells", "campaign coverage: 16/16 cells"} {
		if !strings.Contains(partial.String(), want) {
			t.Fatalf("RenderPartialDegraded output missing %q:\n%s", want, partial.String())
		}
	}
}
