package core_test

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

// stepClock is a clock that moves only when told to.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock { return &stepClock{t: time.Unix(1000, 0)} }

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// cadenceConfig is a 9-cell grid (one module, three patterns, three
// tAggON points) small enough to run in milliseconds.
func cadenceConfig(t *testing.T) core.StudyConfig {
	t.Helper()
	mi, err := chipdb.ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	return core.StudyConfig{
		Modules:       []chipdb.ModuleInfo{mi},
		Sweep:         []time.Duration{timing.TRAS, 7800 * time.Nanosecond, timing.AggOnNineTREFI},
		RowsPerRegion: 1,
		Dies:          1,
		Runs:          1,
		Concurrency:   1,
	}
}

// TestCheckpointByComputeTime pins the default cadence on the grid and
// the fleet run loops: a checkpoint fires at the first completed cell
// once the budget has passed since the previous checkpoint (not since
// the run started), none fires before, and the final one still covers
// every cell. An explicit CheckpointEvery ignores the clock.
func TestCheckpointByComputeTime(t *testing.T) {
	fleet := cadenceConfig(t)
	fleet.Modules = nil
	fleet.Fleet = &core.FleetPlan{Chips: 3, ChipsPerCell: 1, RowsPerChip: 1}
	for _, tc := range []struct {
		name  string
		cfg   core.StudyConfig
		every int
		want  []int
	}{
		{name: "grid by time", cfg: cadenceConfig(t), want: []int{3, 7, 9}},
		{name: "fleet by time", cfg: fleet, want: []int{3, 7, 27}},
		{name: "grid every 4 cells", cfg: cadenceConfig(t), every: 4, want: []int{4, 8, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newStepClock()
			defer core.SetCheckpointClock(clk.Now)()
			cfg := tc.cfg
			cfg.CheckpointEvery = tc.every
			// Cell 3 completes one budget after the start; cell 5 one
			// nanosecond short of a budget after that checkpoint, though
			// two budgets after the start; cell 7 past it.
			cfg.Progress = func(done, total int) {
				switch done {
				case 3, 7:
					clk.Advance(core.CheckpointBudget)
				case 5:
					clk.Advance(core.CheckpointBudget - time.Nanosecond)
				}
			}
			var got []int
			cfg.Checkpoint = func(cells map[core.CellKey]core.AggregateState) error {
				got = append(got, len(cells))
				return nil
			}
			s := core.NewStudy(cfg)
			if s.Config().CheckpointEvery != tc.every {
				t.Fatalf("defaulted CheckpointEvery = %d, want %d", s.Config().CheckpointEvery, tc.every)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("checkpoints covered %v cells, want %v", got, tc.want)
			}
		})
	}
}

// TestCheckpointByComputeTimeConcurrent runs the time rule from four
// pool goroutines with the clock passing a budget at every cell.
// Checkpoints must never overlap, each must cover at least the cells
// of the one before, and the last must cover the whole grid.
func TestCheckpointByComputeTimeConcurrent(t *testing.T) {
	clk := newStepClock()
	defer core.SetCheckpointClock(clk.Now)()
	cfg := cadenceConfig(t)
	cfg.Concurrency = 4
	cfg.Progress = func(done, total int) { clk.Advance(core.CheckpointBudget) }
	var inFlight atomic.Int32
	var got []int
	cfg.Checkpoint = func(cells map[core.CellKey]core.AggregateState) error {
		if inFlight.Add(1) != 1 {
			t.Error("two checkpoints ran at once")
		}
		defer inFlight.Add(-1)
		got = append(got, len(cells))
		return nil
	}
	if err := core.NewStudy(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || got[len(got)-1] != 9 || !slices.IsSorted(got) {
		t.Fatalf("checkpoints covered %v cells, want a non-decreasing series of at least two ending at all 9", got)
	}
}

// TestResumeAfterComputeTimeCheckpoint measures the cost side of the
// compute-time cadence. A worker under the default options computes k
// cells, crosses the budget, saves one partial and dies. The survivor
// of its stolen lease must resume exactly those k cells and compute
// only the rest, and the campaign must render the same bytes as an
// uninterrupted run.
func TestResumeAfterComputeTimeCheckpoint(t *testing.T) {
	clk := newStepClock()
	defer core.SetCheckpointClock(clk.Now)()
	cfg := cadenceConfig(t)
	ref := core.NewStudy(cfg)
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	m := dispatch.NewManifest(cfg, 1, time.Minute)
	leaseClk := newStepClock()
	q, err := dispatch.NewMemQueue(m, dispatch.WithClock(leaseClk.Now), dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := q.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	ctx, die := context.WithCancel(context.Background())
	defer die()
	saves := 0
	_, _, err = dispatch.RunUnitWork(ctx, m, dispatch.UnitWork{
		Unit:  doomed.Unit,
		Cells: doomed.Cells,
		Progress: func(done, total int) {
			if done == k {
				clk.Advance(core.CheckpointBudget)
			}
		},
		SavePartial: func(cp *resultio.Checkpoint) error {
			saves++
			defer die()
			return q.SavePartial(doomed, cp)
		},
	}, 1)
	if err == nil {
		t.Fatal("doomed worker finished its whole unit; the test wanted it dead mid-unit")
	}
	if saves != 1 {
		t.Fatalf("doomed worker saved %d partials, want 1", saves)
	}
	leaseClk.Advance(2 * time.Minute)

	var stats []dispatch.UnitRunStats
	wctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	n, err := dispatch.Work(wctx, q, dispatch.WorkerOptions{
		Name: "survivor",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			cp, st, err := dispatch.RunUnitWork(ctx, m, u, 1)
			stats = append(stats, st)
			return cp, st, err
		},
		Log: t.Logf,
	})
	if err != nil || n != 1 {
		t.Fatalf("survivor submitted %d of 1 units: %v", n, err)
	}
	st := stats[0]
	if st.ResumedCells != k || st.ComputedCells != st.TotalCells-k {
		t.Fatalf("survivor's run %+v, want %d cells resumed and the other %d computed", st, k, st.TotalCells-k)
	}

	merged, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	want := resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, ref.Snapshot())
	var gotBuf, wantBuf bytes.Buffer
	if err := resultio.SaveCheckpoint(&gotBuf, merged); err != nil {
		t.Fatal(err)
	}
	if err := resultio.SaveCheckpoint(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("the resumed campaign's cells differ from an uninterrupted run's")
	}
}
