package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/resultio"
)

// jitter spreads a timer ±10% so a worker fleet started in lockstep
// (one orchestrator, one boot script) does not heartbeat and poll the
// coordinator in synchronized bursts forever.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
}

// UnitWork describes one leased unit to a shard runner: which cells to
// compute, and what a dead predecessor already finished.
type UnitWork struct {
	// Unit is the unit's id (for logging; the lease carries the truth).
	Unit int
	// Cells are the grid cell indices the unit covers. Empty means the
	// unit follows the manifest's static plan for Unit.
	Cells []int
	// Resume, when non-nil, is the unit's intra-unit checkpoint: cells
	// already computed under a previous lease, to be seeded instead of
	// recomputed.
	Resume *resultio.Checkpoint
	// SavePartial, when non-nil, receives intra-unit checkpoints as
	// the PartialEvery rule makes them due. Each carries only the cells
	// finished since the last call that returned nil (the queue merges
	// them into the unit's stored partial); the cells of a call that
	// failed ride along with the next one, since the queue may have
	// applied them anyway. A runner never overlaps calls. Errors are
	// the runner's to tolerate: partials are an optimization, the unit
	// result must not depend on them.
	SavePartial func(*resultio.Checkpoint) error
	// PartialEvery is the intra-unit checkpoint cadence: N > 0 saves a
	// partial after every N completed cells; 0 (the default) saves one
	// by compute time, as core.StudyConfig.CheckpointEvery does, so a
	// unit that finishes within about two seconds makes no partial.
	PartialEvery int
	// Progress, when non-nil, is called as cells complete with the
	// unit's done and total cell counts; done includes the cells seeded
	// from Resume. Calls come from the runner's pool goroutines and may
	// overlap.
	Progress func(done, total int)
}

// UnitRunStats reports how much of a unit was actually computed — the
// observability hook the resume path is tested through.
type UnitRunStats struct {
	// TotalCells is the number of cells the unit covers.
	TotalCells int
	// ResumedCells were seeded from the intra-unit checkpoint.
	ResumedCells int
	// ComputedCells = TotalCells - ResumedCells.
	ComputedCells int
}

// WorkerOptions customizes a worker loop.
type WorkerOptions struct {
	// Name identifies the worker in leases and status output
	// (default: hostname-pid).
	Name string
	// Poll is how long to wait after ErrNoWork before asking again
	// (default: half the lease TTL, clamped to [50ms, 5s] — an expired
	// lease becomes stealable within one TTL, so polling much slower
	// than the TTL would leave dead workers' units idle).
	Poll time.Duration
	// Concurrency bounds this worker's study pool (0 = GOMAXPROCS).
	// A per-machine execution detail: it does not touch the campaign
	// fingerprint.
	Concurrency int
	// PartialEvery is the intra-unit checkpoint cadence. The default,
	// 0, checkpoints by compute time: a partial goes to the coordinator
	// once about two seconds of compute have passed since the last one,
	// so a worker death loses at most that much work per unit in flight
	// while cells far cheaper than a round trip no longer wait on one.
	// N > 0 checkpoints after every N completed cells instead (1 makes
	// every cell durable at once). Each checkpoint uploads only the
	// cells the coordinator has not yet acknowledged, so the cadence
	// sets the round-trip count, not the bytes.
	PartialEvery int
	// UnitTimeout bounds a single unit's compute (0 = unbounded). A
	// unit that exceeds it is canceled and reported to the queue as a
	// failure — converting a wedged solve into a strike toward
	// quarantine instead of a worker that never comes back.
	UnitTimeout time.Duration
	// RunShard computes one unit, reporting how much of it was really
	// computed vs resumed (the stats scale the elapsed time submitted
	// to the queue's cost model). Nil means RunUnitWork (the real
	// campaign); tests substitute crashing or instrumented runners.
	RunShard func(ctx context.Context, m Manifest, u UnitWork) (*resultio.Checkpoint, UnitRunStats, error)
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

func (o WorkerOptions) withDefaults(ttl time.Duration) WorkerOptions {
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Poll == 0 {
		o.Poll = ttl / 2
		if o.Poll < 50*time.Millisecond {
			o.Poll = 50 * time.Millisecond
		}
		if o.Poll > 5*time.Second {
			o.Poll = 5 * time.Second
		}
	}
	if o.RunShard == nil {
		conc := o.Concurrency
		o.RunShard = func(ctx context.Context, m Manifest, u UnitWork) (*resultio.Checkpoint, UnitRunStats, error) {
			return RunUnitWork(ctx, m, u, conc)
		}
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// RunUnitWork computes one unit: reconstruct the campaign config from
// the manifest, restrict it to the unit's cells, seed the intra-unit
// resume checkpoint (completed cells are skipped, not recomputed),
// stream the newly finished cells through u.SavePartial at the
// u.PartialEvery cadence, report progress through u.Progress, and pack
// the unit's complete aggregate state.
func RunUnitWork(ctx context.Context, m Manifest, u UnitWork, concurrency int) (*resultio.Checkpoint, UnitRunStats, error) {
	var stats UnitRunStats
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		return nil, stats, err
	}
	cells := u.Cells
	if cells == nil {
		cells = m.UnitCells(u.Unit)
	}
	cfg.CellIndices = cells
	cfg.Concurrency = concurrency
	cfg.CheckpointEvery = u.PartialEvery
	stats.TotalCells = len(cells)
	if u.Progress != nil {
		progress, total := u.Progress, len(cells)
		// Run counts only the cells it computes; stats.ResumedCells is
		// final before it starts.
		cfg.Progress = func(done, _ int) { progress(stats.ResumedCells+done, total) }
	}
	// acked holds the cells the queue already has: the seeded resume
	// cells, then those of every partial whose save returned nil. Each
	// partial carries only the finished cells outside it, so a unit of
	// n cells uploads O(n) checkpoint bytes rather than O(n²). Study.Run
	// serializes its checkpoint calls, which are the only users.
	acked := make(map[core.CellKey]bool)
	if u.SavePartial != nil {
		save := u.SavePartial
		total := len(cells)
		cfg.Checkpoint = func(done map[core.CellKey]core.AggregateState) error {
			// Partials are best-effort by contract; the runner's own
			// result does not depend on them landing. The final
			// checkpoint Study.Run fires covers the complete unit —
			// Submit is about to deliver those exact bytes, so
			// forwarding it as a partial would be a redundant round
			// trip.
			if len(done) >= total {
				return nil
			}
			fresh := make(map[core.CellKey]core.AggregateState)
			for key, st := range done {
				if !acked[key] {
					fresh[key] = st
				}
			}
			if len(fresh) == 0 {
				return nil
			}
			if save(resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, fresh)) == nil {
				for key := range fresh {
					acked[key] = true
				}
			}
			return nil
		}
	}
	study := core.NewStudy(cfg)
	if u.Resume != nil {
		seeded, err := u.Resume.CellMap()
		if err == nil {
			if err := study.Seed(seeded); err == nil {
				stats.ResumedCells = len(seeded)
				for key := range seeded {
					acked[key] = true
				}
			}
		}
	}
	stats.ComputedCells = stats.TotalCells - stats.ResumedCells
	if err := study.Run(ctx); err != nil {
		return nil, stats, err
	}
	return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, study.Snapshot()), stats, nil
}

// Work drains the queue: acquire a lease, heartbeat it on a TTL/3
// ticker while the shard runs AND while its submission is retried,
// submit the checkpoint, repeat until the campaign is drained (nil
// error) or ctx is canceled. A lost lease (this worker was presumed
// dead and its unit re-granted) abandons the unit and continues — the
// thief resumes from our last intra-unit checkpoint and its result is
// byte-identical, so nothing is lost. Returns the number of units this
// worker submitted.
func Work(ctx context.Context, q Queue, opt WorkerOptions) (int, error) {
	m, err := q.Manifest()
	if err != nil {
		return 0, err
	}
	opt = opt.withDefaults(m.LeaseTTL())
	beat := m.LeaseTTL() / 3
	if beat < 10*time.Millisecond {
		beat = 10 * time.Millisecond
	}
	// A worker exists to outlive coordinator restarts and network
	// blips — the same transient faults heartbeats already tolerate.
	// Only persistent failure (a couple of TTLs' worth of consecutive
	// errors; with the backoff capped at TTL/3, eight strikes span
	// roughly 2.5 lease TTLs) or a deterministic rejection of our own
	// checkpoint is fatal.
	maxStrikes := 8
	strikes := 0
	transient := func(op string, err error) error {
		if errors.Is(err, resultio.ErrConfigMismatch) || errors.Is(err, resultio.ErrBadCheckpoint) {
			return err // deterministic: retrying cannot help
		}
		if strikes++; strikes > maxStrikes {
			return fmt.Errorf("dispatch: %s failed %d times in a row: %w", op, strikes, err)
		}
		opt.Log("worker %s: %s: %v (retry %d/%d)", opt.Name, op, err, strikes, maxStrikes)
		return nil
	}
	// Submit retries back off exponentially but stay well inside the
	// heartbeat cadence's reach: the lease must outlive the whole retry
	// budget, or a finished unit's result is thrown away with it.
	backoff := func(attempt int) time.Duration {
		d := opt.Poll / 4
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		for i := 0; i < attempt && d < m.LeaseTTL()/3; i++ {
			d *= 2
		}
		if max := m.LeaseTTL() / 3; d > max {
			d = max
		}
		return d
	}
	// Lease pipelining: when the running unit is down to its tail
	// cells, a background goroutine overlaps the next Acquire with the
	// remaining compute and babysits the prefetched lease (heartbeats
	// it) until the main loop adopts it — hiding the acquire round
	// trip behind the tail of the current unit. pipeCtx ends the
	// babysitter when Work returns, letting an unadopted lease expire
	// exactly like a crashed worker's would.
	pipeCtx, pipeCancel := context.WithCancel(context.Background())
	defer pipeCancel()
	prefetchCh := make(chan *prefetchedLease, 1)
	var next *prefetchedLease
	var prefetching atomic.Bool // the one prefetchLease goroutine has not been received from yet
	defer func() {
		if next != nil {
			next.release()
		}
	}()
	// awaitPrefetch waits out an in-flight prefetch and reports whether
	// it delivered a lease to adopt. A no-work or drained answer to this
	// worker's own Acquire says nothing about a grant still in flight:
	// the prefetch may hold the very unit that answer missed.
	awaitPrefetch := func() (bool, error) {
		if !prefetching.Load() {
			return false, nil
		}
		select {
		case next = <-prefetchCh:
			prefetching.Store(false)
			return next != nil, nil
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	done := 0
	for {
		if next == nil && prefetching.Load() {
			select {
			case next = <-prefetchCh:
				prefetching.Store(false)
			default:
			}
		}
		if err := ctx.Err(); err != nil {
			return done, err
		}
		var lease Lease
		var err error
		if next != nil {
			lease = next.lease
			next.release()
			next = nil
			opt.Log("worker %s: adopting prefetched lease for unit %d", opt.Name, lease.Unit)
		} else {
			lease, err = q.Acquire(opt.Name)
		}
		switch {
		case errors.Is(err, ErrDrained):
			// Adopt an in-flight prefetch before concluding, or its
			// unit would be abandoned to TTL expiry.
			if ok, err := awaitPrefetch(); err != nil {
				return done, err
			} else if ok {
				continue
			}
			opt.Log("worker %s: campaign drained after %d units", opt.Name, done)
			return done, nil
		case errors.Is(err, ErrNoWork):
			strikes = 0
			// Adopt an in-flight prefetch instead of sleeping a whole
			// poll while it holds the unit.
			if ok, err := awaitPrefetch(); err != nil {
				return done, err
			} else if ok {
				continue
			}
			select {
			case <-ctx.Done():
				return done, ctx.Err()
			case <-time.After(jitter(opt.Poll)):
			}
			continue
		case err != nil:
			if ferr := transient("acquire", err); ferr != nil {
				return done, ferr
			}
			select {
			case <-ctx.Done():
				return done, ctx.Err()
			case <-time.After(jitter(opt.Poll)):
			}
			continue
		}
		strikes = 0
		opt.Log("worker %s: leased unit %d (%d cells)", opt.Name, lease.Unit, len(lease.Cells))

		// The heartbeat goroutine spans the unit's whole lifetime on
		// this worker — compute and submission retries alike. A
		// finished unit whose first submit hits a transient queue error
		// must not lose its lease while the retry loop sleeps.
		unitCtx, cancel := context.WithCancel(ctx)
		var lost atomic.Bool
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			t := time.NewTimer(jitter(beat))
			defer t.Stop()
			for {
				select {
				case <-unitCtx.Done():
					return
				case <-t.C:
					if err := q.Heartbeat(lease); err != nil {
						if errors.Is(err, ErrLeaseLost) {
							lost.Store(true)
							cancel()
							return
						}
						// Transient (e.g. a network blip to the
						// coordinator): keep ticking; the lease
						// survives until the TTL runs out.
						opt.Log("worker %s: heartbeat unit %d: %v", opt.Name, lease.Unit, err)
					}
					t.Reset(jitter(beat))
				}
			}
		}()

		// A dead predecessor's intra-unit checkpoint turns a re-granted
		// lease into a resume instead of a recompute. Failure to load
		// it is strictly a lost optimization.
		resume, perr := q.LoadPartial(lease)
		if perr != nil {
			opt.Log("worker %s: unit %d: loading intra-unit checkpoint: %v (computing from scratch)", opt.Name, lease.Unit, perr)
			resume = nil
		}
		if resume != nil {
			opt.Log("worker %s: unit %d: resuming from intra-unit checkpoint (%d of %d cells done)",
				opt.Name, lease.Unit, len(resume.Cells), len(lease.Cells))
		}
		unitCells := len(lease.Cells)
		if unitCells == 0 {
			unitCells = len(m.UnitCells(lease.Unit))
		}
		// Pipelining trigger: once the unit is into its last
		// checkpoint interval's worth of cells (its last cell under the
		// compute-time cadence), overlap the next Acquire with the tail
		// compute. One attempt per unit. Two paths report progress: the
		// runner's progress hook (resumed plus computed cells), and each
		// acknowledged partial (resumed plus acknowledged cells; partials
		// carry only new cells, so none is counted twice). A runner that
		// only checkpoints still arms the trigger through the second.
		pipeThreshold := max(opt.PartialEvery, 1)
		var prefetchOnce sync.Once
		progressed := func(done int) {
			if unitCells > 0 && unitCells-done <= pipeThreshold {
				prefetchOnce.Do(func() {
					// One prefetch in flight at a time: the previous
					// unit's may not have answered yet, and a second
					// delivery would strand its lease in prefetchCh
					// with nothing left to read it.
					if prefetching.CompareAndSwap(false, true) {
						go prefetchLease(pipeCtx, q, opt, beat, prefetchCh)
					}
				})
			}
		}
		acked := 0
		if resume != nil {
			acked = len(resume.Cells)
		}
		work := UnitWork{
			Unit:         lease.Unit,
			Cells:        lease.Cells,
			Resume:       resume,
			PartialEvery: opt.PartialEvery,
			Progress:     func(done, _ int) { progressed(done) },
			SavePartial: func(cp *resultio.Checkpoint) error {
				err := q.SavePartial(lease, cp)
				switch {
				case err == nil:
					acked += len(cp.Cells)
				case !errors.Is(err, ErrLeaseLost):
					opt.Log("worker %s: unit %d: intra-unit checkpoint: %v", opt.Name, lease.Unit, err)
				}
				progressed(acked)
				return err
			},
		}
		start := time.Now()
		cp, stats, runErr := runUnit(unitCtx, opt, m, work)
		elapsed := time.Since(start)
		// A resumed unit's wall time covers only the cells actually
		// computed; scale it to the full-unit equivalent so the queue's
		// cost model is not fed a 99%-resumed unit as "cheap". A run
		// that computed nothing measured nothing.
		switch {
		case stats.ComputedCells <= 0:
			elapsed = 0
		case stats.ComputedCells < stats.TotalCells:
			elapsed = time.Duration(float64(elapsed) * float64(stats.TotalCells) / float64(stats.ComputedCells))
		}
		if runErr != nil {
			cancel()
			<-hbDone
			if lost.Load() {
				opt.Log("worker %s: unit %d lease lost mid-run; abandoning", opt.Name, lease.Unit)
				continue
			}
			if err := ctx.Err(); err != nil {
				// The worker itself is shutting down; the lease expires
				// and another worker resumes from the last partial. Not
				// the unit's fault — no strike.
				return done, err
			}
			// A run failure is the unit's problem, not the worker's:
			// report it so the queue can strike the unit toward
			// quarantine, and move on to other work. A poison unit thus
			// burns MaxStrikes grants fleet-wide instead of crashing
			// every worker that touches it.
			reason := runErr.Error()
			if errors.Is(runErr, context.DeadlineExceeded) {
				reason = fmt.Sprintf("unit timeout %v exceeded", opt.UnitTimeout)
			}
			if ferr := q.Fail(lease, reason); ferr != nil && !errors.Is(ferr, ErrLeaseLost) {
				opt.Log("worker %s: unit %d: reporting failure: %v", opt.Name, lease.Unit, ferr)
			}
			opt.Log("worker %s: unit %d failed: %v", opt.Name, lease.Unit, runErr)
			continue
		}
		submitted := false
		for attempt := 0; ; attempt++ {
			err := q.Submit(lease, cp, elapsed)
			if err == nil {
				submitted = true
				strikes = 0
				break
			}
			if errors.Is(err, ErrDuplicateSubmit) || errors.Is(err, ErrLeaseLost) {
				// Another worker's (byte-identical) result won the race.
				opt.Log("worker %s: unit %d already submitted elsewhere", opt.Name, lease.Unit)
				break
			}
			if ferr := transient("submit", err); ferr != nil {
				cancel()
				<-hbDone
				return done, ferr
			}
			if lost.Load() {
				opt.Log("worker %s: unit %d lease lost during submit retries; abandoning", opt.Name, lease.Unit)
				break
			}
			select {
			case <-ctx.Done():
				cancel()
				<-hbDone
				return done, ctx.Err()
			case <-time.After(jitter(backoff(attempt))):
			}
		}
		cancel()
		<-hbDone
		if !submitted {
			continue
		}
		done++
		opt.Log("worker %s: submitted unit %d", opt.Name, lease.Unit)
	}
}

// runUnit executes one unit's shard runner under the worker's optional
// unit timeout, converting a panic into an ordinary run error so one
// poison unit cannot kill the worker process.
func runUnit(parent context.Context, opt WorkerOptions, m Manifest, u UnitWork) (cp *resultio.Checkpoint, stats UnitRunStats, err error) {
	ctx := parent
	if opt.UnitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, opt.UnitTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			cp, err = nil, fmt.Errorf("shard runner panicked: %v", r)
		}
	}()
	cp, stats, err = opt.RunShard(ctx, m, u)
	// Surface the timeout as the canonical sentinel even when the
	// runner wrapped or swallowed the context error, but never mistake
	// the worker's own shutdown for a unit timeout.
	if err != nil && parent.Err() == nil && errors.Is(ctx.Err(), context.DeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%v: %w", err, context.DeadlineExceeded)
	}
	return cp, stats, err
}

// prefetchedLease is a lease acquired ahead of need: a babysitter
// goroutine keeps it heartbeated until the worker's main loop adopts
// it (or Work returns and the lease is left to expire).
type prefetchedLease struct {
	lease Lease
	stop  chan struct{}
	done  chan struct{}
}

// release stops the babysitter and waits it out; the caller owns the
// lease from here (or abandons it to TTL expiry).
func (p *prefetchedLease) release() {
	close(p.stop)
	<-p.done
}

// prefetchLease overlaps the next Acquire with the current unit's
// tail cells. On success the lease is handed to ch with a babysitter
// heartbeating it; any acquire error (ErrNoWork, ErrDrained,
// transient faults alike) simply means nothing was pipelined — the
// main loop's own acquire path remains authoritative. Either way
// exactly one value is delivered (nil on failure), so the main loop
// can always tell an in-flight prefetch from a finished one.
func prefetchLease(ctx context.Context, q Queue, opt WorkerOptions, beat time.Duration, ch chan *prefetchedLease) {
	l, err := q.Acquire(opt.Name)
	if err != nil {
		select {
		case ch <- nil:
		case <-ctx.Done():
		}
		return
	}
	p := &prefetchedLease{lease: l, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTimer(jitter(beat))
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := q.Heartbeat(p.lease); errors.Is(err, ErrLeaseLost) {
					return
				}
				t.Reset(jitter(beat))
			}
		}
	}()
	opt.Log("worker %s: prefetched lease for unit %d while finishing the current unit", opt.Name, l.Unit)
	select {
	case ch <- p:
	case <-ctx.Done():
		p.release()
	}
}
