package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/analysis"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// sketchCount reads a sketch's observation count from its binary
// header: magic[4] | alpha f64 | zeros u64 | total u64 | ...
func sketchCount(s *analysis.Sketch) uint64 {
	return binary.LittleEndian.Uint64(s.AppendBinary(nil)[20:28])
}

func fleetTestConfig(chips, perCell int) StudyConfig {
	return StudyConfig{
		Fleet:         &FleetPlan{Chips: chips, ChipsPerCell: perCell, RowsPerChip: 2, Seed: 99},
		Patterns:      []pattern.Kind{pattern.DoubleSided},
		Sweep:         []time.Duration{timing.AggOnTREFI},
		RowsPerRegion: 1,
		Runs:          1,
		Concurrency:   2,
	}
}

func TestFleetPlanBlocks(t *testing.T) {
	f := FleetPlan{Chips: 1000, ChipsPerCell: 512, RowsPerChip: 3}
	if got := f.Blocks(); got != 2 {
		t.Fatalf("Blocks() = %d, want 2", got)
	}
	lo, hi := f.BlockRange(1)
	if lo != 512 || hi != 1000 {
		t.Fatalf("BlockRange(1) = [%d, %d), want [512, 1000)", lo, hi)
	}
	for _, b := range []int{0, 7, 12345678} {
		id := FleetBlockID(b)
		got, ok := ParseFleetBlockID(id)
		if !ok || got != b {
			t.Fatalf("ParseFleetBlockID(%q) = %d, %v", id, got, ok)
		}
	}
	for _, bad := range []string{"", "S0", "fleet[]", "fleet[12]", "fleet[-0000001]", "fleet[00000001"} {
		if _, ok := ParseFleetBlockID(bad); ok {
			t.Errorf("ParseFleetBlockID(%q) accepted", bad)
		}
	}
}

func TestFleetShardedByteIdentical(t *testing.T) {
	const chips, perCell = 96, 16
	snapshotJSON := func(s *Study) map[CellKey]string {
		out := make(map[CellKey]string)
		for k, st := range s.Snapshot() {
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = string(b)
		}
		return out
	}

	whole := NewStudy(fleetTestConfig(chips, perCell))
	if err := whole.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref := snapshotJSON(whole)
	if len(ref) != 6 {
		t.Fatalf("got %d cells, want 6 blocks", len(ref))
	}

	// Three shards, merged, must match cell-for-cell byte-identically.
	merged := make(map[CellKey]string)
	for i := 0; i < 3; i++ {
		cfg := fleetTestConfig(chips, perCell)
		cfg.Shard = ShardPlan{Index: i, Count: 3}
		sh := NewStudy(cfg)
		if err := sh.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for k, v := range snapshotJSON(sh) {
			if _, dup := merged[k]; dup {
				t.Fatalf("cell %v computed by two shards", k)
			}
			merged[k] = v
		}
	}
	if !reflect.DeepEqual(merged, ref) {
		t.Error("sharded-and-merged fleet fold differs from unsharded run")
	}

	// Seed/Snapshot round trip preserves fleet state bytes.
	reseed := NewStudy(fleetTestConfig(chips, perCell))
	if err := reseed.Seed(whole.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := snapshotJSON(reseed); !reflect.DeepEqual(got, ref) {
		t.Error("Seed/Snapshot round trip changed fleet state")
	}
}

func TestFleetStatsAndSurvival(t *testing.T) {
	s := NewStudy(fleetTestConfig(64, 16))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats, err := FleetStats(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(stats))
	}
	sc := stats[0]
	if sc.Chips() != 64 {
		t.Fatalf("observed %d chips, want 64", sc.Chips())
	}
	if sc.Cells != 4 {
		t.Fatalf("folded %d cells, want 4", sc.Cells)
	}
	var flipped uint64
	for _, g := range sc.Groups {
		flipped += g.Flipped
		if g.Survival() < 0 || g.Survival() > 1 {
			t.Fatalf("group %s survival %v out of range", g.Key, g.Survival())
		}
		if g.Flipped > 0 {
			if n := sketchCount(g.ACmin); n != g.Flipped {
				t.Fatalf("group %s sketch count %d != flipped %d", g.Key, n, g.Flipped)
			}
			if p50 := g.ACmin.Quantile(0.5); p50 <= 0 {
				t.Fatalf("group %s p50 ACmin = %v", g.Key, p50)
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no chip flipped — double-sided hammer at tREFI should flip most chips")
	}
}

// TestFleetFoldBoundedMemory asserts the fold abstraction's core
// promise: resident fold state is O(sketch), not O(chips). A fleet
// 8x larger must serialize to essentially the same state size (the
// sketch has a fixed structural bin budget; only bin occupancy can
// grow, logarithmically at that).
func TestFleetFoldBoundedMemory(t *testing.T) {
	stateBytes := func(chips int) int {
		cfg := fleetTestConfig(chips, chips) // one block: worst case for one fold
		s := NewStudy(cfg)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, st := range s.Snapshot() {
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			n += len(b)
		}
		return n
	}
	small := stateBytes(800)
	big := stateBytes(6400)
	// 8x the chips must not come close to 8x the state: occupancy of
	// the fixed bin budget grows at most logarithmically, while an
	// O(chips) fold would scale linearly.
	if big > 3*small {
		t.Errorf("fold state grew from %dB (800 chips) to %dB (6400 chips): not O(sketch)", small, big)
	}
	const structuralCap = 256 << 10
	if big > structuralCap {
		t.Errorf("fold state %dB exceeds the structural sketch budget", big)
	}
}
