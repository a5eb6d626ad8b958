package dispatch_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// heteroConfig is a campaign whose cells differ sharply in cost: S0
// characterizes 8 dies per cell, H1 is capped at... nothing — Dies: 0
// keeps every die, so S0 cells carry 8 dies and H1 cells 4.
func heteroConfig(t *testing.T) core.StudyConfig {
	t.Helper()
	cfg := testConfig(t)
	cfg.Dies = 0
	return cfg
}

// drainWithCosts drains q, submitting synthetic checkpoints whose
// reported elapsed time is proportional to the unit's true per-cell
// weight (dies), as a real campaign's would be. Returns the per-lease
// cell counts in grant order.
func drainWithCosts(t *testing.T, q dispatch.Queue, m dispatch.Manifest, cfg core.StudyConfig) [][]int {
	t.Helper()
	grid := core.NewStudy(cfg).Cells()
	byID := make(map[string]chipdb.ModuleInfo)
	for _, mi := range cfg.Modules {
		byID[mi.ID] = mi
	}
	weight := func(idx int) int {
		mi := byID[grid[idx].Module]
		dies := mi.NumChips
		if cfg.Dies > 0 && cfg.Dies < dies {
			dies = cfg.Dies
		}
		return dies
	}
	var leases [][]int
	for {
		l, err := q.Acquire("synthetic")
		if errors.Is(err, dispatch.ErrDrained) {
			return leases
		}
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l.Cells)
		elapsed := time.Duration(0)
		for _, idx := range l.Cells {
			elapsed += time.Duration(weight(idx)) * 10 * time.Millisecond
		}
		if err := q.Submit(l, checkpointForCells(t, m, l.Cells), elapsed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemQueueReplanEqualizesUnitCosts drives the adaptive re-planner:
// once submissions report per-unit cost, the still-pending units must
// be re-partitioned so their expected costs equalize — units rich in
// fat 8-die cells hold fewer cells than units of cheap 4-die cells —
// and the re-planned campaign must still drain to exactly the full
// grid with no cell lost or duplicated.
func TestMemQueueReplanEqualizesUnitCosts(t *testing.T) {
	cfg := heteroConfig(t)
	m := dispatch.NewManifest(cfg, 4, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}

	leases := drainWithCosts(t, q, m, cfg)

	// Exactly-once coverage despite re-planned boundaries.
	seen := make(map[int]int)
	for _, cells := range leases {
		for _, idx := range cells {
			seen[idx]++
		}
	}
	if len(seen) != 18 {
		t.Fatalf("drained leases covered %d distinct cells, want 18", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d granted %d times", idx, n)
		}
	}
	cp, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) != 18 {
		t.Fatalf("merged checkpoint has %d cells, want 18", len(cp.Cells))
	}

	// After the first cost observation the re-planner owns the pending
	// boundaries; the remaining grants must be cost-balanced: no later
	// unit may cost more than ~2x the cheapest (the static partition's
	// spread is what re-planning removes).
	grid := core.NewStudy(cfg).Cells()
	cost := func(cells []int) (total float64) {
		for _, idx := range cells {
			if strings.HasPrefix(grid[idx].Module, "S") {
				total += 8
			} else {
				total += 4
			}
		}
		return total
	}
	var lo, hi float64
	for i, cells := range leases[1:] { // skip the pre-observation grant
		c := cost(cells)
		if i == 0 || c < lo {
			lo = c
		}
		if i == 0 || c > hi {
			hi = c
		}
	}
	if hi > 2.2*lo {
		t.Errorf("post-replan unit costs spread %vx (lo %v hi %v); expected cost equalization", hi/lo, lo, hi)
	}
}

// TestReplanKeepsModulesTogether pins the locality of re-planned units
// on the shape of e2ebench's grid-http campaign (14 modules, 588
// cells, 16 units). A unit's Study.Run builds the row populations of
// every module it touches, so the re-planner must hand out contiguous
// runs of the module-major grid instead of dealing each module's cells
// across every unit. Every lease after the first is re-planned; as
// contiguous runs they touch one module each, plus at most one more
// per module boundary (13 in all). Dealing cells round-robin touches
// about 200.
func TestReplanKeepsModulesTogether(t *testing.T) {
	cfg, err := core.NewCampaignSpecBuilder(core.WithExp("all"), core.WithScale(4, 1, 1)).StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	m := dispatch.NewManifest(cfg, 16, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.NewStudy(cfg).Cells()
	leases := drainWithCosts(t, q, m, cfg)
	spread := 0
	for _, cells := range leases[1:] {
		modules := make(map[string]bool)
		for _, idx := range cells {
			modules[grid[idx].Module] = true
		}
		spread += len(modules)
	}
	if limit := len(leases) - 1 + len(cfg.Modules) - 1; spread > limit {
		t.Errorf("%d re-planned leases touch %d (lease, module) pairs, want at most %d", len(leases)-1, spread, limit)
	}
}

// TestCostModelFirstObservation pins the scale of the first timed
// submit's attribution: every cell's share comes from the estimates
// taken before the update, so the unit's estimate afterwards is the
// elapsed time it reported.
func TestCostModelFirstObservation(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 4, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, checkpointForCells(t, m, l.Cells), 90*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range st.PerUnit {
		if us.Unit == l.Unit {
			if us.EstCostMs != 90 {
				t.Fatalf("unit %d estimated at %d ms after a 90 ms submit, want 90", us.Unit, us.EstCostMs)
			}
			return
		}
	}
	t.Fatalf("status lists no unit %d", l.Unit)
}

// TestMemQueueWithoutReplanningKeepsStaticUnits pins the opt-out: the
// manifest's ShardPlan partition must survive cost observations.
func TestMemQueueWithoutReplanningKeepsStaticUnits(t *testing.T) {
	cfg := heteroConfig(t)
	m := dispatch.NewManifest(cfg, 4, time.Minute)
	q, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	leases := drainWithCosts(t, q, m, cfg)
	if len(leases) != m.Units {
		t.Fatalf("static queue granted %d leases, want %d", len(leases), m.Units)
	}
	for _, cells := range leases {
		// Every lease must match a static plan unit exactly.
		matched := false
		for unit := 0; unit < m.Units; unit++ {
			want := m.UnitCells(unit)
			if len(want) != len(cells) {
				continue
			}
			same := true
			for i := range want {
				if want[i] != cells[i] {
					same = false
					break
				}
			}
			if same {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("lease cells %v match no static unit", cells)
		}
	}
}

// TestDirQueueAcquireOrdersByExpectedCost pins the serverless side of
// cost awareness: once a cost sidecar exists, a DirQueue grants the
// most expensive remaining unit first (LPT), not the lowest-numbered.
func TestDirQueueAcquireOrdersByExpectedCost(t *testing.T) {
	cfg := heteroConfig(t)
	// One unit per cell: unit i covers grid cell i, so units 0-8 are
	// fat S0 cells (8 dies) and 9-17 cheap H1 cells (4 dies).
	m := dispatch.NewManifest(cfg, 18, time.Minute)
	dir := t.TempDir()
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}
	q, err := dispatch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Before any observation the prior alone ranks S0 units first.
	l, err := q.Acquire("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Cells) != 1 || l.Cells[0] > 8 {
		t.Fatalf("prior-cost acquire granted cell %v; want one of the fat S0 cells (0-8)", l.Cells)
	}
	// Submit it with a measured cost; the next acquire must still pick
	// a fat unit, now driven by the refreshed model.
	if err := q.Submit(l, checkpointForCells(t, m, l.Cells), 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	l2, err := q.Acquire("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.Cells) != 1 || l2.Cells[0] > 8 {
		t.Fatalf("cost-ordered acquire granted cell %v; want a remaining S0 cell", l2.Cells)
	}
}

// TestDirQueueLockFileFallback exercises the no-hard-links path end to
// end: exclusive claims, duplicate-acquire rejection, heartbeats,
// stealing an expired lease, partial checkpoints, exactly-one submit,
// and a clean drain — all through O_CREATE|O_EXCL claim files.
func TestDirQueueLockFileFallback(t *testing.T) {
	cfg := testConfig(t)
	dir := t.TempDir()
	m := dispatch.NewManifest(cfg, 2, time.Second)
	if err := dispatch.InitDir(dir, m); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.ForceLockFiles(dir); err != nil {
		t.Fatal(err)
	}
	if !dispatch.DirUsesLockFiles(dir) {
		t.Fatal("campaign dir not in lock-file mode")
	}
	open := func() *dispatch.DirQueue {
		q, err := dispatch.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	clock := newFakeClock()
	a, b := open(), open()
	a.SetClock(clock.Now)
	b.SetClock(clock.Now)

	la, err := a.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	if la.Unit == lb.Unit {
		t.Fatalf("exclusive claim failed: both workers hold unit %d", la.Unit)
	}
	if _, err := b.Acquire("beta"); !errors.Is(err, dispatch.ErrNoWork) {
		t.Fatalf("all units leased, want ErrNoWork, got %v", err)
	}
	if err := a.Heartbeat(la); err != nil {
		t.Fatal(err)
	}

	// Intra-unit checkpoint round trip through lock-file mode.
	part := checkpointForCells(t, m, la.Cells[:2])
	if err := a.SavePartial(la, part); err != nil {
		t.Fatal(err)
	}
	got, err := a.LoadPartial(la)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Cells) != 2 {
		t.Fatalf("partial round trip lost cells: %+v", got)
	}

	// Alpha goes silent; beta keeps heartbeating (reviving its own
	// expired-but-unstolen lease), then steals alpha's unit and resumes
	// from the stored partial.
	clock.Advance(1500 * time.Millisecond)
	if err := b.Heartbeat(lb); err != nil {
		t.Fatalf("heartbeat on expired-but-unstolen lease: %v", err)
	}
	stolen, err := b.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	if stolen.Unit != la.Unit {
		t.Fatalf("steal granted unit %d, want the expired unit %d", stolen.Unit, la.Unit)
	}
	if resumed, err := b.LoadPartial(stolen); err != nil || resumed == nil {
		t.Fatalf("stolen lease lost the intra-unit checkpoint: %v %v", resumed, err)
	}

	// Exactly one submission per unit.
	if err := b.Submit(stolen, checkpointForCells(t, m, stolen.Cells), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(la, checkpointForCells(t, m, la.Cells), 0); !errors.Is(err, dispatch.ErrDuplicateSubmit) && !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("dead worker's submit: want duplicate/lost, got %v", err)
	}
	if err := b.Submit(lb, checkpointForCells(t, m, lb.Cells), 0); err != nil {
		t.Fatal(err)
	}
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("lock-file campaign not drained: %+v", st)
	}
	if cp, err := b.Merged(); err != nil || len(cp.Cells) != 18 {
		t.Fatalf("merged checkpoint: %v cells, err %v", len(cp.Cells), err)
	}
}

// TestSupportsHardLinksProbe sanity-checks the filesystem probe runs
// and that InitDir succeeds whichever mode it picks.
func TestSupportsHardLinksProbe(t *testing.T) {
	dir := t.TempDir()
	_ = dispatch.SupportsHardLinks(dir) // either answer is valid; must not wedge or leak
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("probe leaked files: %v", ents)
	}
}

// TestRenderPartialDegenerateGrids guards the live-report path against
// grids the strict renderers never see: a campaign restricted to one
// pattern family, and a zero-cell grid from an explicitly empty module
// list. Both must render cleanly — no panic, no NaN.
func TestRenderPartialDegenerateGrids(t *testing.T) {
	// Single-pattern campaign: Fig 4's other two families have no
	// series at all.
	cfg := testConfig(t)
	cfg.Patterns = []pattern.Kind{pattern.SingleSided}
	m := dispatch.NewManifest(cfg, 2, time.Minute)
	var buf bytes.Buffer
	if err := dispatch.RenderPartialDegraded(&buf, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "partial: 0 of 6 cells (0.0%)") {
		t.Errorf("single-pattern report lacks coverage annotation:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("single-pattern report contains NaN:\n%s", out)
	}

	// Zero-cell grid: a manifest whose campaign spec has an explicitly
	// empty module list (e.g. hand-edited; an empty non-nil list
	// survives the spec round trip where nil would pick up defaults).
	empty := cfg
	empty.Modules = []chipdb.ModuleInfo{}
	empty.Sweep = []time.Duration{timing.TRAS}
	spec := dispatch.NewCampaignSpec(empty)
	zc := dispatch.Manifest{
		Version:     dispatch.ManifestVersion,
		Fingerprint: empty.Fingerprint(),
		Units:       1,
		LeaseTTLMs:  60000,
		Campaign:    spec,
	}
	if err := zc.Validate(); err != nil {
		t.Fatalf("zero-cell manifest rejected: %v", err)
	}
	buf.Reset()
	if err := dispatch.RenderPartialDegraded(&buf, zc, nil, nil); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "empty grid") {
		t.Errorf("zero-cell report lacks the empty-grid tag:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "complete") {
		t.Errorf("zero-cell report renders NaN or claims completeness:\n%s", out)
	}
}
