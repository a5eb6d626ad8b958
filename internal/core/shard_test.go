package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func TestParseShard(t *testing.T) {
	good := map[string]ShardPlan{
		"1/1":  {Index: 0, Count: 1},
		"1/3":  {Index: 0, Count: 3},
		"3/3":  {Index: 2, Count: 3},
		" 2/4": {Index: 1, Count: 4},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{"", "3", "0/3", "4/3", "-1/3", "a/3", "1/b", "1/0"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

func TestShardPlanPartitions(t *testing.T) {
	// Every cell index belongs to exactly one of n shards, for several n.
	for _, n := range []int{1, 2, 3, 7} {
		for i := 0; i < 100; i++ {
			owners := 0
			for s := 0; s < n; s++ {
				if (ShardPlan{Index: s, Count: n}).Contains(i) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("cell %d owned by %d of %d shards", i, owners, n)
			}
		}
	}
	if !(ShardPlan{}).Contains(42) {
		t.Error("zero plan must contain every cell")
	}
	for _, p := range []ShardPlan{{Index: 0, Count: -3}, {Index: -1, Count: 2}, {Index: 1, Count: 1}, {Index: 2, Count: 2}} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	for _, p := range []ShardPlan{{}, {Index: 0, Count: 1}, {Index: 1, Count: 2}} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", p, err)
		}
	}
	if (ShardPlan{}).IsSharded() || !(ShardPlan{Index: 0, Count: 2}).IsSharded() {
		t.Error("IsSharded misreports")
	}
	if got := (ShardPlan{Index: 1, Count: 3}).String(); got != "2/3" {
		t.Errorf("String() = %q, want 2/3", got)
	}
	if got := (ShardPlan{}).String(); got != "" {
		t.Errorf("zero plan String() = %q, want empty", got)
	}
}

func TestStudyCellsDeterministicOrder(t *testing.T) {
	a := NewStudy(tinyStudyConfig(t)).Cells()
	b := NewStudy(tinyStudyConfig(t)).Cells()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Cells() order differs between identical configs")
	}
	// 2 modules x 3 patterns x 2 sweep points.
	if len(a) != 12 {
		t.Fatalf("got %d cells, want 12", len(a))
	}
	// The grid is sized once: one allocation per call, for a module
	// grid and for a fleet's chip blocks.
	for _, s := range []*Study{NewStudy(tinyStudyConfig(t)), NewStudy(fleetTestConfig(40, 8))} {
		if allocs := testing.AllocsPerRun(10, func() { s.Cells() }); allocs != 1 {
			t.Errorf("Cells allocates %v times per call, want 1", allocs)
		}
	}
}

func TestWelfordMergeWithEmptyIsExact(t *testing.T) {
	var w welford
	for _, v := range []float64{3.25, 1.5, 9.125, 2.75} {
		w.add(v)
	}
	merged := w
	merged.merge(welford{})
	if merged != w {
		t.Errorf("merge with empty changed state: %+v vs %+v", merged, w)
	}
	var empty welford
	empty.merge(w)
	if empty != w {
		t.Errorf("empty.merge(w) = %+v, want %+v", empty, w)
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	vals := []float64{4.2, 17.5, 0.25, 3.125, 88, 1e-3, 42.42, 7}
	for split := 0; split <= len(vals); split++ {
		var a, b, whole welford
		for i, v := range vals {
			if i < split {
				a.add(v)
			} else {
				b.add(v)
			}
			whole.add(v)
		}
		a.merge(b)
		sa, sw := a.stats(len(vals)), whole.stats(len(vals))
		if sa.N != sw.N || sa.Min != sw.Min {
			t.Fatalf("split %d: N/Min differ: %+v vs %+v", split, sa, sw)
		}
		if math.Abs(sa.Mean-sw.Mean) > 1e-12*math.Abs(sw.Mean) {
			t.Errorf("split %d: mean %g vs %g", split, sa.Mean, sw.Mean)
		}
		if math.Abs(sa.Std-sw.Std) > 1e-9*math.Abs(sw.Std) {
			t.Errorf("split %d: std %g vs %g", split, sa.Std, sw.Std)
		}
	}
}

func TestMergeAggregatesWithEmptyIsBitIdentical(t *testing.T) {
	a := newCellAggregate()
	a.Observe(0, RowResult{ACmin: 1234, TimeToFirst: 5 * time.Millisecond,
		Flips: []device.Bitflip{
			{Row: 10, Bit: 3, Dir: device.OneToZero},
			{Row: 10, Bit: 9, Dir: device.ZeroToOne},
		}})
	st := a.State()
	if got := MergeAggregates(st, AggregateState{}); !reflect.DeepEqual(got, st) {
		t.Errorf("merge with empty: %+v vs %+v", got, st)
	}
	if got := MergeAggregates(AggregateState{}, st); !reflect.DeepEqual(got, st) {
		t.Errorf("empty merge: %+v vs %+v", got, st)
	}
}

func TestAggregateStateRoundTrip(t *testing.T) {
	cfg := tinyStudyConfig(t)
	s := NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for key, st := range s.Snapshot() {
		back := aggregateFromState(st).State()
		if !reflect.DeepEqual(back, st) {
			t.Errorf("cell %v: state round trip changed: %+v vs %+v", key, back, st)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := tinyStudyConfig(t).Fingerprint()
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	// Execution details must not change the fingerprint.
	same := tinyStudyConfig(t)
	same.Concurrency = 7
	same.Shard = ShardPlan{Index: 1, Count: 3}
	same.CheckpointEvery = 2
	same.Progress = func(int, int) {}
	same.Checkpoint = func(map[CellKey]AggregateState) error { return nil }
	if same.Fingerprint() != base {
		t.Error("execution details changed the fingerprint")
	}
	// Result-determining fields must.
	diff := tinyStudyConfig(t)
	diff.RowsPerRegion = 7
	if diff.Fingerprint() == base {
		t.Error("RowsPerRegion change kept the fingerprint")
	}
	diff = tinyStudyConfig(t)
	diff.Sweep = []time.Duration{timing.TRAS}
	if diff.Fingerprint() == base {
		t.Error("sweep change kept the fingerprint")
	}
	diff = tinyStudyConfig(t)
	diff.Patterns = []pattern.Kind{pattern.Combined}
	if diff.Fingerprint() == base {
		t.Error("pattern change kept the fingerprint")
	}
	diff = tinyStudyConfig(t)
	diff.Modules = diff.Modules[:1]
	if diff.Fingerprint() == base {
		t.Error("module change kept the fingerprint")
	}
	diff = tinyStudyConfig(t)
	diff.Opts.TempC = 85
	if diff.Fingerprint() == base {
		t.Error("temperature change kept the fingerprint")
	}
}

// TestShardedRunsMergeBitIdentical is the core determinism property the
// campaign runner rests on: running the grid as n shards and seeding
// the union of their snapshots reproduces the unsharded study's
// aggregates bit for bit (each cell is computed wholly in one shard).
func TestShardedRunsMergeBitIdentical(t *testing.T) {
	whole := NewStudy(tinyStudyConfig(t))
	if err := whole.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := whole.Snapshot()

	for _, n := range []int{2, 3, 5} {
		merged := NewStudy(tinyStudyConfig(t))
		seen := 0
		for i := 0; i < n; i++ {
			cfg := tinyStudyConfig(t)
			cfg.Shard = ShardPlan{Index: i, Count: n}
			sh := NewStudy(cfg)
			if err := sh.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			snap := sh.Snapshot()
			seen += len(snap)
			if err := merged.Seed(snap); err != nil {
				t.Fatal(err)
			}
		}
		if seen != len(want) {
			t.Fatalf("n=%d: shards produced %d cells, want %d (overlap or gap)", n, seen, len(want))
		}
		got := merged.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: merged shards differ from the unsharded run", n)
		}
	}
}

// TestStudyResumeSkipsSeededCells proves Run treats seeded cells as
// done: a deliberately poisoned aggregate must survive the run
// untouched, and only the missing cells are computed.
func TestStudyResumeSkipsSeededCells(t *testing.T) {
	full := NewStudy(tinyStudyConfig(t))
	if err := full.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := full.Snapshot()

	poisonKey := CellKey{Module: "S0", Kind: pattern.DoubleSided, AggOn: timing.TRAS}
	poison, ok := snap[poisonKey]
	if !ok {
		t.Fatal("poison cell missing from snapshot")
	}
	poison.Total += 1000
	resumed := NewStudy(tinyStudyConfig(t))
	if err := resumed.Seed(map[CellKey]AggregateState{poisonKey: poison}); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := resumed.Snapshot()
	if got[poisonKey].Total != poison.Total {
		t.Errorf("seeded cell was recomputed: total %d, want %d", got[poisonKey].Total, poison.Total)
	}
	// Every other cell matches the fresh run exactly.
	for key, st := range snap {
		if key == poisonKey {
			continue
		}
		if !reflect.DeepEqual(got[key], st) {
			t.Errorf("cell %v differs after resume", key)
		}
	}
}

func TestStudyCheckpointCadence(t *testing.T) {
	cfg := tinyStudyConfig(t)
	cfg.Concurrency = 1
	cfg.CheckpointEvery = 4
	var sizes []int
	cfg.Checkpoint = func(cells map[CellKey]AggregateState) error {
		sizes = append(sizes, len(cells))
		return nil
	}
	s := NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 12 cells at cadence 4: checkpoints at 4 and 8 completions plus the
	// final one.
	if len(sizes) != 3 {
		t.Fatalf("got %d checkpoints (%v), want 3", len(sizes), sizes)
	}
	if sizes[len(sizes)-1] != 12 {
		t.Errorf("final checkpoint has %d cells, want 12", sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Errorf("checkpoint shrank: %v", sizes)
		}
	}
}

func TestStudyCheckpointErrorAborts(t *testing.T) {
	cfg := tinyStudyConfig(t)
	cfg.Concurrency = 1
	cfg.CheckpointEvery = 2
	cfg.Checkpoint = func(map[CellKey]AggregateState) error {
		return context.DeadlineExceeded
	}
	if err := NewStudy(cfg).Run(context.Background()); err == nil {
		t.Fatal("checkpoint error did not abort the run")
	}
}

func TestStudyRunRejectsBadShard(t *testing.T) {
	cfg := tinyStudyConfig(t)
	cfg.Shard = ShardPlan{Index: 5, Count: 3}
	if err := NewStudy(cfg).Run(context.Background()); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestStudyRunRejectsBadBank: a bank no chip has is refused before any
// engine runs, whichever engine the scenario selects.
func TestStudyRunRejectsBadBank(t *testing.T) {
	for _, bank := range []int{-1, device.ChipBanks} {
		for _, set := range []string{"default", "bank", "bender"} {
			cfg := tinyStudyConfig(t)
			cfg.Bank = bank
			scens, err := ParseScenarioSet(set)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scenarios = scens
			if err := NewStudy(cfg).Run(context.Background()); err == nil {
				t.Errorf("bank %d accepted under the %s scenario set", bank, set)
			}
		}
	}
}

func TestSeedRejectsOffGridCells(t *testing.T) {
	s := NewStudy(tinyStudyConfig(t))
	bad := map[CellKey]AggregateState{
		{Module: "NOPE", Kind: pattern.Combined, AggOn: timing.TRAS}: {Total: 1},
	}
	if err := s.Seed(bad); err == nil {
		t.Error("unknown module accepted")
	}
	bad = map[CellKey]AggregateState{
		{Module: "S0", Kind: pattern.Combined, AggOn: 999 * time.Hour}: {Total: 1},
	}
	if err := s.Seed(bad); err == nil {
		t.Error("off-sweep tAggON accepted")
	}
}
