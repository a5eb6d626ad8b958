package dispatch

import (
	"context"
	"strings"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/pattern"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

func fleetManifestConfig() core.StudyConfig {
	return core.StudyConfig{
		Fleet:         &core.FleetPlan{Chips: 100, ChipsPerCell: 32, RowsPerChip: 1, Seed: 3},
		Patterns:      []pattern.Kind{pattern.DoubleSided},
		Sweep:         []time.Duration{timing.AggOnTREFI},
		RowsPerRegion: 1,
		Runs:          1,
	}
}

// The campaign spec round-trips the fleet plan exactly: same
// fingerprint, fleet-aware grid size, and a validating manifest.
func TestFleetManifestRoundTrip(t *testing.T) {
	cfg := fleetManifestConfig()
	m := NewManifest(cfg, 64, time.Second)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 100 chips / 32 per cell = 4 blocks, one pattern, one sweep point.
	if got := m.GridSize(); got != 4 {
		t.Fatalf("GridSize() = %d, want 4", got)
	}
	// The unit clamp must use the fleet grid, not the (empty) module
	// inventory.
	if m.Units != 4 {
		t.Fatalf("units = %d, want clamp to 4 cells", m.Units)
	}
	back, err := m.Campaign.StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	if back.Fleet == nil || back.Fleet.Chips != 100 {
		t.Fatalf("fleet plan lost on the wire: %+v", back.Fleet)
	}
	if back.Fingerprint() != cfg.Fingerprint() {
		t.Fatal("fleet spec round trip changed the fingerprint")
	}
}

// Fleet cells weigh in at their block's chip count, so the cost model
// plans a fat block as proportionally more expensive — and the ragged
// trailing block as cheaper.
func TestFleetCostPriors(t *testing.T) {
	m := NewManifest(fleetManifestConfig(), 4, time.Second)
	grid, cells, err := m.grid()
	if err != nil {
		t.Fatal(err)
	}
	_ = grid
	cm := newCostModel(m, cells)
	if got := cm.estimate(0); got != 32 {
		t.Fatalf("full block prior = %v, want 32 (chips per cell)", got)
	}
	// Block 3 covers chips [96, 100): the ragged tail.
	if got := cm.estimate(3); got != 4 {
		t.Fatalf("ragged block prior = %v, want 4", got)
	}
}

// RenderPartialDegraded on a fleet campaign reports the population
// distribution with partial coverage, and stays readable before any
// submission lands.
func TestFleetRenderPartial(t *testing.T) {
	cfg := fleetManifestConfig()
	m := NewManifest(cfg, 4, time.Second)

	var empty strings.Builder
	if err := RenderPartialDegraded(&empty, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no cells submitted yet (0/4)") {
		t.Fatalf("empty fleet render: %q", empty.String())
	}

	// Run one unit's worth of cells and render the partial fold.
	shard := fleetManifestConfig()
	shard.CellIndices = []int{0, 1}
	s := core.NewStudy(shard)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp := resultio.NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, s.Snapshot())
	var partial strings.Builder
	if err := RenderPartialDegraded(&partial, m, cp, nil); err != nil {
		t.Fatal(err)
	}
	out := partial.String()
	for _, want := range []string{"Fleet distribution", "partial: 2/4 cells", "campaign coverage: 2/4 cells", "Survival"} {
		if !strings.Contains(out, want) {
			t.Fatalf("partial fleet render missing %q:\n%s", want, out)
		}
	}
}
