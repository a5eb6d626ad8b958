package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// StudyConfig configures a full characterization campaign across modules,
// patterns and tAggON values.
type StudyConfig struct {
	// Modules is the DIMM set (default: the full Table 1 inventory).
	Modules []chipdb.ModuleInfo
	// Params are the disturbance model constants (default calibrated).
	Params device.DisturbParams
	// Timings is the DDR4 timing set (default timing.Default()).
	Timings timing.Set
	// Sweep is the list of tAggON values (default timing.PaperSweep()).
	Sweep []time.Duration
	// Patterns lists the pattern families (default all three).
	Patterns []pattern.Kind
	// RowsPerRegion is the victim sample per bank region; the paper
	// uses 1000 (x3 regions = 3K rows). Defaults to 1000.
	RowsPerRegion int
	// Dies limits how many dies per module are characterized
	// (0 = all dies, as in the paper).
	Dies int
	// Runs is the repeat count per measurement (paper: 3).
	Runs int
	// Bank is the bank under test (the paper picks one arbitrary bank).
	Bank int
	// Fleet, when non-nil, turns the campaign into a synthetic-fleet
	// study: the module axis becomes chip blocks drawn from a
	// chipdb.PopulationModel and every cell folds into a bounded
	// distribution sketch instead of the dense grid aggregate.
	// Modules is ignored as a grid axis (the population model is
	// calibrated against the full Table 2 inventory regardless).
	Fleet *FleetPlan
	// Scenarios is the scenario axis of the grid: engine selection and
	// operating-condition overrides per cell (nil or a single default
	// scenario = the classic module x pattern x tAggON grid, hashed,
	// keyed and checkpointed exactly as before the axis existed).
	// Non-default scenarios need unique, non-empty IDs.
	Scenarios []Scenario
	// Opts are the per-row run options (budget, data pattern, temp).
	// Scenarios may override Data and TempC per cell.
	Opts RunOpts
	// Concurrency bounds the worker pool (default GOMAXPROCS).
	Concurrency int
	// KeepObservations retains every raw RowObservation on the
	// ModuleResult (memory-heavy at paper scale; the figure and table
	// extractors only need the incremental aggregates). Raw
	// observations are not part of the checkpointable aggregate state:
	// cells restored via Seed have empty Rows (see Snapshot).
	KeepObservations bool
	// Progress, when set, is invoked after each completed cell with the
	// done and total cell counts (called from worker goroutines; must be
	// safe for concurrent use).
	Progress func(done, total int)
	// Shard restricts Run to a deterministic subset of the cell grid so
	// independent processes can split one campaign (zero = all cells).
	Shard ShardPlan
	// CellIndices, when non-nil, restricts Run to an explicit set of
	// grid cell indices (positions in Cells() order) instead of Shard's
	// arithmetic partition. Dynamic dispatchers use it to run
	// cost-rebalanced work units whose cell sets no longer follow any
	// i/n plan. Like Shard, it is an execution detail excluded from the
	// config fingerprint.
	CellIndices []int
	// Checkpoint, when set, receives a consistent snapshot of every
	// completed cell whenever the CheckpointEvery rule makes one due,
	// and once more when Run finishes. Returning an error aborts the
	// run.
	Checkpoint func(cells map[CellKey]AggregateState) error
	// CheckpointEvery is the checkpoint cadence (only meaningful with
	// Checkpoint set). N > 0 checkpoints after every N completed cells.
	// The default, 0, checkpoints by compute time: after the first
	// cell that completes once about two seconds of wall time have
	// passed since the run started or last checkpointed, so a crash
	// loses at most that much compute and no snapshot is built between
	// checkpoints.
	CheckpointEvery int
}

func (c StudyConfig) withDefaults() StudyConfig {
	if c.Modules == nil {
		c.Modules = chipdb.Modules()
	}
	if c.Params == (device.DisturbParams{}) {
		c.Params = device.DefaultParams()
	}
	if c.Timings == (timing.Set{}) {
		c.Timings = timing.Default()
	}
	if c.Sweep == nil {
		c.Sweep = timing.PaperSweep()
	}
	if c.Patterns == nil {
		c.Patterns = []pattern.Kind{pattern.SingleSided, pattern.DoubleSided, pattern.Combined}
	}
	if c.RowsPerRegion == 0 {
		c.RowsPerRegion = 1000
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.Concurrency == 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.Fleet != nil {
		f := c.Fleet.withDefaults()
		c.Fleet = &f
	}
	c.Opts = c.Opts.withDefaults()
	return c
}

// RowObservation is one row measurement with its die and repeat indices.
type RowObservation struct {
	Die int
	Run int
	RowResult
}

// ModuleResult aggregates the observations of one (module, pattern,
// tAggON) cell. Aggregation is incremental (constant memory per cell);
// raw observations are retained only with StudyConfig.KeepObservations.
type ModuleResult struct {
	Info chipdb.ModuleInfo
	Spec pattern.Spec
	// Rows holds the raw observations when KeepObservations is set.
	Rows []RowObservation

	// agg is the cell's fold: a dense grid aggregate for module
	// cells, a distribution sketch for fleet cells.
	agg Fold
	// st caches agg.State() once the cell is stored in a study (see
	// state); guarded by the study's lock.
	st *AggregateState
}

// state returns the stored cell's exported aggregate, computing it on
// first use; callers hold the owning study's lock. A stored cell's
// fold never changes again — Seed replaces the whole ModuleResult —
// so checkpoints reuse one export instead of re-sorting the flip keys
// of every finished cell each time.
func (r *ModuleResult) state() AggregateState {
	if r.st == nil {
		st := r.agg.State()
		r.st = &st
	}
	return *r.st
}

// gridAgg returns the dense grid aggregate behind this cell, or an
// empty one for fleet cells (whose per-row stats the grid extractors
// never consume — fleet campaigns report through FleetStats).
func (r *ModuleResult) gridAgg() *cellAggregate {
	if a, ok := r.agg.(*cellAggregate); ok {
		return a
	}
	return newCellAggregate()
}

// Stats is a mean/min/std summary of a per-row metric.
type Stats struct {
	Mean float64
	Min  float64
	Std  float64
	// N is the number of observations that flipped.
	N int
	// Total is the number of observations attempted.
	Total int
}

// Flipped reports whether at least one observation produced a bitflip
// ("No Bitflip" in Table 2 corresponds to Flipped() == false).
func (s Stats) Flipped() bool { return s.N > 0 }

func summarize(values []float64, total int) Stats {
	st := Stats{N: len(values), Total: total}
	if len(values) == 0 {
		return st
	}
	st.Min = values[0]
	var sum float64
	for _, v := range values {
		sum += v
		if v < st.Min {
			st.Min = v
		}
	}
	st.Mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - st.Mean
		ss += d * d
	}
	st.Std = 0
	if len(values) > 1 {
		st.Std = math.Sqrt(ss / float64(len(values)-1))
	}
	return st
}

// Observations returns the number of row measurements folded into the
// cell.
func (r *ModuleResult) Observations() int { return r.agg.Total() }

// ACminStats summarizes ACmin across flipped observations.
func (r *ModuleResult) ACminStats() Stats {
	a := r.gridAgg()
	return a.acmin.stats(a.total)
}

// TimeStats summarizes time-to-first-bitflip (in seconds) across flipped
// observations.
func (r *ModuleResult) TimeStats() Stats {
	a := r.gridAgg()
	return a.timeSec.stats(a.total)
}

// OneToZeroFraction returns the fraction of observed bitflips with 1->0
// direction, and the flip count.
func (r *ModuleResult) OneToZeroFraction() (float64, int) {
	a := r.gridAgg()
	if a.flips == 0 {
		return 0, 0
	}
	return float64(a.oneToZero) / float64(a.flips), a.flips
}

// FlipKeys returns the set of unique bitflips across all observations,
// keyed by (die, row, bit). The returned map is the aggregate's own
// storage; callers must not mutate it.
func (r *ModuleResult) FlipKeys() map[uint64]struct{} {
	return r.gridAgg().flipKeys
}

// Study runs and caches a characterization campaign.
type Study struct {
	cfg StudyConfig

	mu      sync.Mutex
	results map[CellKey]*ModuleResult
	// unavailable marks cells whose results will never arrive (the
	// cells of quarantined campaign units); see SetUnavailable.
	unavailable map[CellKey]bool
}

// NewStudy builds a study with defaults applied.
func NewStudy(cfg StudyConfig) *Study {
	return &Study{
		cfg:     cfg.withDefaults(),
		results: make(map[CellKey]*ModuleResult),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Study) Config() StudyConfig { return s.cfg }

// cellJob is one cell of a run: a (module, pattern, tAggON, scenario)
// cell of the grid, split into per-die tasks so fat cells (8/16-die
// modules) spread across the worker pool instead of serializing behind
// one worker, or a fleet block, which is one task (its chips must
// stream through the fold in ascending order, and blocks are numerous
// enough to keep the pool busy).
type cellJob struct {
	key  CellKey
	spec pattern.Spec
	// scenario is the cell's point on the scenario axis and opts the
	// study RunOpts with the scenario's overrides already resolved
	// (thermal settle included).
	scenario Scenario
	opts     RunOpts

	// block is a fleet cell's chip block.
	block int

	// The grid cell's module, its module-level profile (DieProfile is
	// applied per die), victim rows and geometry.
	mi       chipdb.ModuleInfo
	profile  device.Profile
	rows     []int
	numRows  int
	rowBytes int
	// pending counts die tasks still running; the worker that drops it
	// to zero folds dieObs into the cell's aggregate.
	pending atomic.Int32
	// dieObs holds each die's observations in (run, row) order, so the
	// final fold (die, run, row) replays the exact observation order of
	// a sequential run and the aggregate state stays byte-identical.
	dieObs [][]RowObservation
}

// task is one schedulable work unit: one die of a grid cell, or a
// whole fleet block.
type task struct {
	job *cellJob
	die int
}

// popCacheKey scopes a shared base-population cache to one (module, die).
type popCacheKey struct {
	module string
	die    int
}

// popCaches hands the per-die engines of one (module, die) a shared
// device.PopulationCache and drops it as soon as the last cell
// referencing it completes, so campaign memory stays bounded by the
// number of module-dies in flight rather than the whole inventory.
type popCaches struct {
	mu      sync.Mutex
	entries map[popCacheKey]*popCacheEntry
	// cells counts each module's analytic-engine cells in the run: a
	// (module, die) cache starts with that many references.
	cells map[string]int
}

type popCacheEntry struct {
	cache *device.PopulationCache
	refs  int
}

// acquire returns the (module, die) cache, creating it on first touch.
func (p *popCaches) acquire(key popCacheKey, mk func() *device.PopulationCache) *device.PopulationCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[key]
	if !ok {
		e = &popCacheEntry{cache: mk(), refs: p.cells[key.module]}
		p.entries[key] = e
	}
	return e.cache
}

// release drops one reference, freeing the cache at zero.
func (p *popCaches) release(key popCacheKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key]; ok {
		if e.refs--; e.refs <= 0 {
			delete(p.entries, key)
		}
	}
}

// Run executes every cell of this study's shard on a bounded worker
// pool, skipping cells already present (for example after Seed
// restored them from a checkpoint). Grid cells and fleet blocks share
// the pool, the checkpoint and progress rule, and the per-goroutine
// engine storage; only the tasks differ. A grid cell is split into
// per-die tasks and completes (for progress and checkpoint purposes)
// when all of its dies have been folded in; a fleet block is one task.
// It is safe to call once; results are cached for the figure and table
// extractors.
func (s *Study) Run(ctx context.Context) error {
	if err := s.cfg.Shard.Validate(); err != nil {
		return err
	}
	if err := s.cfg.validateScenarios(); err != nil {
		return err
	}
	fleet := s.cfg.Fleet
	if fleet != nil {
		if err := fleet.Validate(); err != nil {
			return err
		}
	}
	byID := make(map[string]chipdb.ModuleInfo, len(s.cfg.Modules))
	for _, mi := range s.cfg.Modules {
		byID[mi.ID] = mi
	}
	// Resolve each scenario's effective RunOpts once (a thermal settle
	// runs a whole control loop; cells of the same scenario share it).
	scByID := make(map[string]Scenario)
	optsByID := make(map[string]RunOpts)
	for _, sc := range s.cfg.scenarios() {
		opts, err := sc.resolveOpts(s.cfg.Opts)
		if err != nil {
			return err
		}
		scByID[sc.ID] = sc
		optsByID[sc.ID] = opts
	}
	// Cells() is the one source of truth for the grid order shard
	// indices refer to; every process of a campaign must agree on it.
	grid := s.Cells()
	selected, err := s.selectCells(grid)
	if err != nil {
		return err
	}
	// pops.cells counts only analytic-engine grid cells: it seeds the
	// population-cache refcounts, and fleet chips and bank-backed
	// scenario engines never touch the cache.
	pops := &popCaches{entries: make(map[popCacheKey]*popCacheEntry), cells: make(map[string]int)}
	var tasks []task
	cells := 0
	for idx, key := range grid {
		if !selected(idx) {
			continue
		}
		if _, ok := s.ResultCell(key); ok {
			continue // restored from a checkpoint
		}
		spec, err := pattern.New(key.Kind, key.AggOn, s.cfg.Timings)
		if err != nil {
			return fmt.Errorf("cell %v: %w", key, err)
		}
		job := &cellJob{key: key, spec: spec, scenario: scByID[key.Scenario], opts: optsByID[key.Scenario]}
		cells++
		if fleet != nil {
			block, ok := ParseFleetBlockID(key.Module)
			if !ok || block >= fleet.Blocks() {
				return fmt.Errorf("core: fleet cell %v: bad block id", key)
			}
			job.block = block
			tasks = append(tasks, task{job: job})
			continue
		}
		mi := byID[key.Module]
		numRows, rowBytes := mi.Geometry()
		dies := mi.NumChips
		if s.cfg.Dies > 0 && s.cfg.Dies < dies {
			dies = s.cfg.Dies
		}
		job.mi = mi
		job.profile = mi.Profile(s.cfg.Params)
		job.rows = PaperRows(numRows, s.cfg.RowsPerRegion)
		job.numRows, job.rowBytes = numRows, rowBytes
		job.dieObs = make([][]RowObservation, dies)
		job.pending.Store(int32(dies))
		if job.scenario.usesAnalytic() {
			pops.cells[key.Module]++
		}
		for die := 0; die < dies; die++ {
			tasks = append(tasks, task{job: job, die: die})
		}
	}
	ck := s.newCheckpointer(cells)

	taskCh := make(chan task)
	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := new(EngineScratch)
			for t := range taskCh {
				var res *ModuleResult
				var err error
				if fleet != nil {
					res, err = s.runBlock(t.job, scratch)
				} else {
					res, err = s.runDie(t.job, t.die, pops, scratch)
				}
				if err != nil {
					fail(err)
					return
				}
				if res == nil {
					continue // other dies of the cell are still running
				}
				s.mu.Lock()
				s.results[t.job.key] = res
				s.mu.Unlock()
				if err := ck.cellDone(); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

feed:
	for _, t := range tasks {
		select {
		case taskCh <- t:
		case <-ctx.Done():
			break feed
		case err := <-errCh:
			close(taskCh)
			wg.Wait()
			return err
		}
	}
	close(taskCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Final checkpoint: the shard's complete state in one file.
	return ck.save()
}

// checkpointBudget is the compute time Run lets pass between
// checkpoints under the default CheckpointEvery of 0. Young's
// first-order optimum interval, sqrt(2·δ·M) (Young, CACM 1974), is
// 1.9 s for a checkpoint cost δ of 0.5 ms (a worker's partial round
// trip to the coordinator, WAL fsync included) and a mean time between
// worker failures M of one hour. A crash then loses at most this much
// compute per unit in flight, far less than the two minutes of
// campaignd's default lease TTL that a steal waits out anyway.
const checkpointBudget = 2 * time.Second

// checkpointNow is the checkpoint rule's clock; tests replace it.
var checkpointNow = time.Now

// checkpointer counts a run's completed cells, reports progress and
// applies the CheckpointEvery rule. The pool goroutines call cellDone
// concurrently.
type checkpointer struct {
	s     *Study
	total int
	done  atomic.Int64
	// mu serializes checkpoints, so overlapping triggers from the pool
	// cannot interleave writes, and guards last, when the previous one
	// finished (or the run started).
	mu   sync.Mutex
	last time.Time
}

func (s *Study) newCheckpointer(total int) *checkpointer {
	return &checkpointer{s: s, total: total, last: checkpointNow()}
}

// cellDone records one more completed cell: it reports progress, then
// checkpoints if one is due. The last cell's checkpoint is left to
// save, which Run calls once the pool has drained.
func (c *checkpointer) cellDone() error {
	n := int(c.done.Add(1))
	cfg := &c.s.cfg
	if cfg.Progress != nil {
		cfg.Progress(n, c.total)
	}
	if cfg.Checkpoint == nil || n >= c.total {
		return nil
	}
	if every := cfg.CheckpointEvery; every > 0 {
		if n%every != 0 {
			return nil
		}
		return c.save()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if checkpointNow().Sub(c.last) < checkpointBudget {
		return nil
	}
	return c.saveLocked()
}

// save checkpoints every completed cell now.
func (c *checkpointer) save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked()
}

func (c *checkpointer) saveLocked() error {
	if c.s.cfg.Checkpoint == nil {
		return nil
	}
	err := c.s.cfg.Checkpoint(c.s.Snapshot())
	c.last = checkpointNow()
	return err
}

// selectCells resolves the run's cell filter: CellIndices when set,
// otherwise the shard plan's arithmetic partition. Both grid and
// fleet runs index the same Cells() order.
func (s *Study) selectCells(grid []CellKey) (func(int) bool, error) {
	if s.cfg.CellIndices == nil {
		return s.cfg.Shard.Contains, nil
	}
	in := make(map[int]bool, len(s.cfg.CellIndices))
	for _, idx := range s.cfg.CellIndices {
		if idx < 0 || idx >= len(grid) {
			return nil, fmt.Errorf("core: cell index %d outside the %d-cell grid", idx, len(grid))
		}
		in[idx] = true
	}
	return func(idx int) bool { return in[idx] }, nil
}

// Snapshot exports the aggregate state of every completed cell. The
// snapshot is consistent (taken under the results lock) and safe to
// serialize concurrently with an ongoing Run. Only the mergeable
// aggregates are exported: raw observations kept under
// KeepObservations do not survive a Snapshot/Seed round trip (restored
// cells report Observations() > 0 with empty Rows). Each cell's state
// is exported once and cached, so the returned states share their flip
// keys and fleet state with the study and with other snapshots:
// callers must treat them as read-only.
func (s *Study) Snapshot() map[CellKey]AggregateState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[CellKey]AggregateState, len(s.results))
	for k, r := range s.results {
		out[k] = r.state()
	}
	return out
}

// Seed restores cells from persisted aggregate state, as when resuming
// from a checkpoint or fusing shard checkpoints. Every key must lie on
// this study's cell grid (callers are expected to have verified the
// config fingerprint first). Seeding a cell that already has results
// merges the two aggregates. Restored cells carry aggregates only —
// raw rows kept under KeepObservations are not persisted, so their
// Rows slice stays empty.
func (s *Study) Seed(cells map[CellKey]AggregateState) error {
	byID := make(map[string]chipdb.ModuleInfo, len(s.cfg.Modules))
	for _, mi := range s.cfg.Modules {
		byID[mi.ID] = mi
	}
	inSweep := make(map[time.Duration]bool, len(s.cfg.Sweep))
	for _, t := range s.cfg.Sweep {
		inSweep[t] = true
	}
	inPatterns := make(map[pattern.Kind]bool, len(s.cfg.Patterns))
	for _, k := range s.cfg.Patterns {
		inPatterns[k] = true
	}
	inScenarios := make(map[string]bool)
	for _, sc := range s.cfg.scenarios() {
		inScenarios[sc.ID] = true
	}
	for key, st := range cells {
		mi, ok := byID[key.Module]
		switch {
		case s.cfg.Fleet != nil:
			block, blockOK := ParseFleetBlockID(key.Module)
			if !blockOK || block >= s.cfg.Fleet.Blocks() {
				return fmt.Errorf("core: seed cell %v: not a block of this fleet", key)
			}
			if st.Fleet == nil {
				return fmt.Errorf("core: seed cell %v: fleet campaign but non-fleet aggregate state", key)
			}
			mi = chipdb.ModuleInfo{ID: key.Module}
		case !ok:
			return fmt.Errorf("core: seed cell %v: module not in study config", key)
		case st.Fleet != nil:
			return fmt.Errorf("core: seed cell %v: fleet aggregate state on a grid campaign", key)
		}
		if !inPatterns[key.Kind] || !inSweep[key.AggOn] || !inScenarios[key.Scenario] {
			return fmt.Errorf("core: seed cell %v: not on the study's cell grid", key)
		}
		spec, err := pattern.New(key.Kind, key.AggOn, s.cfg.Timings)
		if err != nil {
			return fmt.Errorf("core: seed cell %v: %w", key, err)
		}
		s.mu.Lock()
		if prev, ok := s.results[key]; ok {
			st = MergeAggregates(prev.state(), st)
		}
		fold, err := foldFromState(st)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("core: seed cell %v: %w", key, err)
		}
		s.results[key] = &ModuleResult{Info: mi, Spec: spec, agg: fold}
		s.mu.Unlock()
	}
	return nil
}

// runDie characterizes one die of a grid cell. Analytic-engine cells
// share the (module, die) base-population cache across every cell of
// the die. The goroutine that finishes the cell's last die folds the
// cell and returns it; the others return nil.
func (s *Study) runDie(job *cellJob, die int, pops *popCaches, scratch *EngineScratch) (*ModuleResult, error) {
	env := EngineEnv{
		Profile:  device.DieProfile(job.profile, die),
		Params:   s.cfg.Params,
		Timings:  s.cfg.Timings,
		Bank:     s.cfg.Bank,
		NumRows:  job.numRows,
		RowBytes: job.rowBytes,
		Scratch:  scratch,
	}
	if job.scenario.usesAnalytic() {
		key := popCacheKey{module: job.mi.ID, die: die}
		env.PopCache = pops.acquire(key, func() *device.PopulationCache {
			return device.NewPopulationCache(env.Profile, s.cfg.Params, s.cfg.Bank, job.rowBytes*8)
		})
		defer pops.release(key)
	}
	obs := make([]RowObservation, s.cfg.Runs*len(job.rows))
	if _, err := s.characterize(job, env, job.rows, die, obs, nil); err != nil {
		return nil, err
	}
	job.dieObs[die] = obs
	if job.pending.Add(-1) != 0 {
		return nil, nil
	}
	return s.finishCell(job), nil
}

// characterize measures every (run, row) of one die of a grid cell, or
// of one chip of a fleet block (die is then the chip index), on the
// cell's scenario engine built from env. The analytic engine iterates
// row-major, so each row's base population serves every run.
// Bank-backed engines iterate run-major instead: each run gets a
// freshly built engine whose bank carries that run's noise seed (the
// bank ignores RunOpts.Run), built from env.Scratch, the calling pool
// goroutine's storage. Either way result (run, ri) lands in
// obs[run*len(rows)+ri], so a fold reading obs in order replays a
// sequential run's (run, row) order. Engines reuse res.Flips, so each
// result's flips are copied out once, into arena (one amortized
// allocation instead of one per flipped row), which is returned grown.
func (s *Study) characterize(job *cellJob, env EngineEnv, rows []int, die int, obs []RowObservation, arena []device.Bitflip) ([]device.Bitflip, error) {
	runs := s.cfg.Runs
	opts := job.opts
	store := func(run, ri int, res *RowResult) {
		o := &obs[run*len(rows)+ri]
		o.Die = die
		o.Run = run
		o.RowResult = *res
		o.Flips = nil
		if n := len(res.Flips); n > 0 {
			start := len(arena)
			arena = append(arena, res.Flips...)
			o.Flips = arena[start : start+n : start+n]
		}
	}

	if job.scenario.usesAnalytic() {
		eng, err := NewAnalyticEngine(AnalyticConfig{
			Profile:  env.Profile,
			Params:   env.Params,
			Bank:     env.Bank,
			NumRows:  env.NumRows,
			RowBytes: env.RowBytes,
			PopCache: env.PopCache,
		})
		if err != nil {
			return arena, fmt.Errorf("%s: %w", s.where(job, die), err)
		}
		// The engine reuses res.Flips; store copies each row's flips out.
		res := &env.Scratch.res
		for ri, victim := range rows {
			for run := 0; run < runs; run++ {
				opts.Run = int64(run)
				if err := eng.CharacterizeRowInto(victim, job.spec, opts, res); err != nil {
					return arena, fmt.Errorf("%s row %d: %w", s.where(job, die), victim, err)
				}
				store(run, ri, res)
			}
		}
		return arena, nil
	}

	for run := 0; run < runs; run++ {
		env.Run = int64(run)
		eng, err := newScenarioEngine(env, job.scenario)
		if err != nil {
			return arena, fmt.Errorf("%s scenario %q: %w", s.where(job, die), job.key.Scenario, err)
		}
		opts.Run = int64(run)
		for ri, victim := range rows {
			res, err := eng.CharacterizeRow(victim, job.spec, opts)
			if err != nil {
				return arena, fmt.Errorf("%s scenario %q row %d: %w", s.where(job, die), job.key.Scenario, victim, err)
			}
			store(run, ri, &res)
		}
	}
	return arena, nil
}

// where names a grid cell's die, or a fleet chip, in errors.
func (s *Study) where(job *cellJob, die int) string {
	if s.cfg.Fleet != nil {
		return fmt.Sprintf("fleet chip %d", die)
	}
	return fmt.Sprintf("module %s die %d", job.mi.ID, die)
}

// finishCell folds the per-die observations of a completed cell into
// its aggregate, in the (die, run, row) order a sequential run would
// have used, so checkpointed aggregate state is byte-identical to the
// pre-split scheduler's.
func (s *Study) finishCell(job *cellJob) *ModuleResult {
	res := &ModuleResult{Info: job.mi, Spec: job.spec, agg: newCellAggregate()}
	for _, dieObs := range job.dieObs {
		for i := range dieObs {
			o := &dieObs[i]
			res.agg.Observe(o.Die, o.RowResult)
			if s.cfg.KeepObservations {
				res.Rows = append(res.Rows, *o)
			}
		}
	}
	// The job (and the run's task list holding it) outlives the cell;
	// drop the folded observations so campaign memory stays bounded by
	// cells in flight, not cells completed.
	job.dieObs = nil
	return res
}

// Result returns the cached cell for (moduleID, kind, aggOn) on the
// study's primary scenario — the default scenario when configured,
// otherwise the first one. The table and figure extractors are built
// on it, so a default campaign renders exactly as before the scenario
// axis, a mitigation campaign renders its baseline, and a pure
// bender-trace campaign renders its only scenario. Use ResultCell for
// an explicit scenario.
func (s *Study) Result(moduleID string, kind pattern.Kind, aggOn time.Duration) (*ModuleResult, bool) {
	return s.ResultCell(CellKey{Module: moduleID, Kind: kind, AggOn: aggOn, Scenario: s.cfg.primaryScenarioID()})
}

// ResultCell returns the cached cell for an exact grid key, scenario
// included.
func (s *Study) ResultCell(key CellKey) (*ModuleResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[key]
	return r, ok
}

// mustResult is Result for internal extractors that know the cell exists.
func (s *Study) mustResult(moduleID string, kind pattern.Kind, aggOn time.Duration) (*ModuleResult, error) {
	r, ok := s.Result(moduleID, kind, aggOn)
	if !ok {
		return nil, fmt.Errorf("core: study has no result for %s/%s/%v (was Run called with it in the sweep?)",
			moduleID, kind.Short(), aggOn)
	}
	return r, nil
}

// SweepSorted returns the study's tAggON sweep in ascending order.
func (s *Study) SweepSorted() []time.Duration {
	sw := make([]time.Duration, len(s.cfg.Sweep))
	copy(sw, s.cfg.Sweep)
	sort.Slice(sw, func(i, j int) bool { return sw[i] < sw[j] })
	return sw
}
