package core

import (
	"fmt"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
)

// aggressorOffsets are the victim-relative rows an experiment
// initializes, hoisted so CharacterizeRow does not allocate it per call.
var aggressorOffsets = [...]int{-1, +1}

// BankEngine measures first-flip points by driving a simulated
// device.Bank, observably exactly as the FPGA infrastructure drives a
// real chip. It is the ground-truth execution path; AnalyticEngine must
// (and is tested to) agree with it.
//
// By default the engine fast-forwards over the event horizon: the
// access pattern is periodic, so one captured device.DamageProfile
// determines every victim cell's bit-exact accumulator trajectory, the
// engine solves for the first iteration any cell can flip, jumps the
// bank state there in one step (device.Bank.SeekRowDisturb), and
// replays only a small guard window act by act to recover the exact
// flip activation, time and CompareRow readback. RowResults are
// byte-identical to full act-by-act execution (pinned by the
// fast-vs-exact grid and property tests); WithExactReplay opts out.
// Under a driver with periodic refresh the fast-forward is off, and a
// RefreshReplayer driver (a TRR guard) gets the refresh-window skip of
// bankwindow.go instead, byte-identical the same way.
//
// The engine uses the bank's construction-time run seed for cell
// populations; RunOpts.Run is ignored here. Like the bank it drives, a
// BankEngine is not safe for concurrent use: its row-fill buffers and
// flip bookkeeping are reused across CharacterizeRow calls.
type BankEngine struct {
	bank *device.Bank

	// exact forces act-by-act execution from iteration 1.
	exact bool
	// drv, when set, receives every ACT/PRE/REF instead of the bank
	// (a mitigation guard, say). A driver may mutate bank state the
	// damage-profile solve cannot see, so it turns the event-horizon
	// fast-forward off; a RefreshReplayer driver gets the
	// refresh-window skip instead (see skipWindows).
	drv BankDriver
	// refEvery injects a REF through the driver whenever the hammer
	// clock passes the next multiple of it (0 = refresh disabled, the
	// paper's characterization methodology).
	refEvery  time.Duration
	refreshes int64

	// Per-row scratch, hoisted so repeated characterizations do not
	// allocate: the victim/aggressor fill buffers, the set of bits
	// already flipped before the experiment starts, the memoized act
	// schedule, and the fast-forward working state (see bankfast.go).
	victimBuf     []byte
	aggBuf        []byte
	flippedBefore device.Bitset
	actsSpec      pattern.Spec
	actsOK        bool
	acts          []pattern.Act
	prof          device.DamageProfile
	profActs      []device.ProfileAct
	accs          []float64
	bsolve        bankSolve
	// The current row's memoized refresh-window classes, their closing
	// REF targets flattened into windowRows, and the class of the
	// window now running act by act (see skipWindows).
	windows    []refWindow
	windowRows []int
	open       refWindow
	openOK     bool
}

var _ Engine = (*BankEngine)(nil)

// BankEngineOption configures a BankEngine.
type BankEngineOption func(*BankEngine)

// BankDriver issues row commands on behalf of the engine's hammer
// loop. *device.Bank satisfies it (the default); a mitigation guard
// wraps one to observe activations and fire targeted refreshes, which
// is how a guarded bank rides the engine's loop instead of keeping a
// bespoke copy of it.
type BankDriver interface {
	Activate(row int, now time.Duration) error
	Precharge(now time.Duration) error
	Refresh(now time.Duration) error
}

var _ BankDriver = (*device.Bank)(nil)

// RefreshReplayer is an optional BankDriver extension that lets the
// hammer loop skip whole refresh windows (the runs of activations
// between two REFs; see skipWindows). A driver implementing it
// promises that when it is quiescent at the start of a window, its
// REF closing that window depends only on the window's activations,
// and that replaying that REF's targets reproduces it exactly.
// mitigation.Guard implements it; the interface lives here because
// core cannot import the mitigation package.
type RefreshReplayer interface {
	BankDriver
	// Quiescent reports that the driver has observed no activation
	// since its last REF.
	Quiescent() bool
	// RefreshTargets returns the rows the last REF refreshed on the
	// driver's own behalf, after the bank's round-robin batch, in
	// order. The slice is valid until the next REF.
	RefreshTargets() []int
	// ReplayRefresh issues a REF whose targets are rows: the bank's
	// round-robin refresh, then rows, with the driver's bookkeeping
	// (counters, tracker reset) exactly as if it had chosen them.
	ReplayRefresh(now time.Duration, rows []int) error
}

// WithDriver routes the hammer loop's ACT/PRE (and any injected REF)
// through d instead of the bare bank. The event-horizon fast-forward
// is off under a driver: a driver may mutate cell state (TRR refreshes
// victims) in ways the damage-profile solve cannot model. A driver
// that implements RefreshReplayer gets the refresh-window skip instead;
// any other driver runs act by act.
func WithDriver(d BankDriver) BankEngineOption {
	return func(e *BankEngine) { e.drv = d }
}

// WithRefreshEvery injects a REF through the driver every interval of
// hammering time, before the activation that first reaches it — the
// cadence mitigation evaluations hammer against. Zero disables refresh
// (the default, matching the paper's methodology). Refresh turns the
// event-horizon fast-forward off; with a RefreshReplayer driver the
// loop skips repeated refresh windows, and without one (refresh alone,
// or another driver) it runs act by act.
func WithRefreshEvery(interval time.Duration) BankEngineOption {
	return func(e *BankEngine) { e.refEvery = interval }
}

// WithExactReplay disables the event-horizon fast-forward and the
// refresh-window skip: every activation of every iteration is executed
// one by one. Results are byte-identical either way; exact replay is
// the bit-exact reference the fast paths are validated against, and
// the mode to reach for when debugging the device model itself.
func WithExactReplay() BankEngineOption {
	return func(e *BankEngine) { e.exact = true }
}

// NewBankEngine wraps a bank.
func NewBankEngine(b *device.Bank, opts ...BankEngineOption) *BankEngine {
	e := &BankEngine{bank: b}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Refreshes returns how many periodic REFs WithRefreshEvery injected
// during the most recent CharacterizeRow call.
func (e *BankEngine) Refreshes() int64 { return e.refreshes }

// actsFor returns the memoized act schedule of spec (specs repeat
// across campaign loops; pattern.Spec.Acts allocates per call).
func (e *BankEngine) actsFor(spec pattern.Spec) []pattern.Act {
	if !e.actsOK || spec != e.actsSpec {
		e.acts = spec.Acts()
		e.actsSpec, e.actsOK = spec, true
	}
	return e.acts
}

// iterationTime mirrors pattern.Spec.IterationTime over a memoized act
// slice.
func iterationTime(acts []pattern.Act, trp time.Duration) time.Duration {
	var d time.Duration
	for _, a := range acts {
		d += a.OnTime + trp
	}
	return d
}

// CharacterizeRow implements Engine. It initializes the victim and
// aggressor rows with the data pattern, applies the access pattern —
// fast-forwarded to the flip horizon unless WithExactReplay — and stops
// at the first observed bitflip or when the time budget is exhausted.
func (e *BankEngine) CharacterizeRow(victim int, spec pattern.Spec, opts RunOpts) (RowResult, error) {
	opts = opts.withDefaults()
	if err := checkVictim(victim, e.bank.NumRows()); err != nil {
		return RowResult{}, err
	}
	res := RowResult{Victim: victim, Spec: spec, NoBitflip: true}
	e.refreshes = 0

	e.bank.SetTemperature(opts.TempC)
	rowBytes := e.bank.RowBytes()
	e.victimBuf = device.FillRowInto(e.victimBuf, rowBytes, opts.Data.VictimByte())
	e.aggBuf = device.FillRowInto(e.aggBuf, rowBytes, opts.Data.AggressorByte())
	if err := e.bank.WriteRow(victim, e.victimBuf, 0); err != nil {
		return RowResult{}, fmt.Errorf("init victim: %w", err)
	}
	for _, off := range aggressorOffsets {
		if err := e.bank.WriteRow(victim+off, e.aggBuf, 0); err != nil {
			return RowResult{}, fmt.Errorf("init aggressor: %w", err)
		}
	}

	acts := e.actsFor(spec)
	var maxIters int64
	if it := iterationTime(acts, spec.Timings.TRP); it > 0 && opts.Budget > 0 {
		maxIters = int64(opts.Budget / it)
	}
	cells := e.bank.VictimCells(victim)
	e.flippedBefore.Reset(rowBytes * 8)
	for i := range cells {
		if cells[i].Flipped() {
			e.flippedBefore.Set(cells[i].Bit)
		}
	}

	if !e.exact && e.drv == nil && e.refEvery == 0 && len(acts) > 0 && maxIters > 0 {
		if done, err := e.fastForward(victim, spec, acts, maxIters, &res); done {
			if err != nil {
				return RowResult{}, err
			}
			return res, nil
		}
	}
	if err := e.hammer(victim, spec, acts, maxIters, 1, 0, &res); err != nil {
		return RowResult{}, err
	}
	return res, nil
}

// hammer drives the bank act by act from startIter (1-based) with the
// given running clock, stopping at the first new victim-row bitflip,
// and performs the end-of-experiment readback when the iteration
// budget runs out — the shared back half of the exact and the
// fast-forward path. Every caller has issued (startIter-1) whole
// iterations before it, so the act position doubles as the activation
// count. Under a RefreshReplayer driver it skips repeated refresh
// windows (skipWindows).
func (e *BankEngine) hammer(victim int, spec pattern.Spec, acts []pattern.Act, maxIters, startIter int64, now time.Duration, res *RowResult) error {
	cells := e.bank.VictimCells(victim)
	gen := e.bank.FlipGeneration()
	nextRef := e.refEvery
	rep, _ := e.drv.(RefreshReplayer)
	if e.exact || e.refEvery <= 0 || iterationTime(acts, spec.Timings.TRP) <= 0 {
		rep = nil
	}
	e.windows, e.windowRows, e.openOK = e.windows[:0], e.windowRows[:0], false
	n := int64(len(acts))
	end := maxIters * n
	for pos := (startIter - 1) * n; pos < end; pos++ {
		if e.refEvery > 0 && now >= nextRef {
			refresh := e.bank.Refresh
			if e.drv != nil {
				refresh = e.drv.Refresh
			}
			if err := refresh(now); err != nil {
				return fmt.Errorf("iter %d ref: %w", pos/n+1, err)
			}
			e.refreshes++
			nextRef += e.refEvery
			if rep != nil {
				var err error
				if pos, now, nextRef, err = e.skipWindows(rep, victim, acts, spec.Timings.TRP, pos, end, now, nextRef); err != nil {
					return fmt.Errorf("iter %d ref: %w", pos/n+1, err)
				}
			}
			// A REF may heal (or, through TRR, reset) victim cells;
			// resync the generation watermark so the flip scan below
			// still fires only on genuinely new flips.
			gen = e.bank.FlipGeneration()
		}
		iter, ai := pos/n+1, int(pos%n)
		a := acts[ai]
		row := victim + a.RowOffset
		var err error
		if e.drv != nil {
			err = e.drv.Activate(row, now)
		} else {
			err = e.bank.Activate(row, now)
		}
		if err != nil {
			return fmt.Errorf("iter %d act %d: %w", iter, ai, err)
		}
		now += a.OnTime
		if e.drv != nil {
			err = e.drv.Precharge(now)
		} else {
			err = e.bank.Precharge(now)
		}
		if err != nil {
			return fmt.Errorf("iter %d pre %d: %w", iter, ai, err)
		}
		preAt := now
		now += spec.Timings.TRP

		// First-flip check after every precharge (damage is applied
		// at precharge time). The flip-generation counter makes the
		// common no-flip case one integer compare; the cell
		// population is only walked after a generation change (which
		// may also come from a flip in a non-victim row — the walk
		// then finds nothing and the hammering continues).
		if e.bank.FlipGeneration() == gen {
			continue
		}
		gen = e.bank.FlipGeneration()
		newFlip := false
		for i := range cells {
			if cells[i].Flipped() && !e.flippedBefore.Has(cells[i].Bit) {
				newFlip = true
				break
			}
		}
		if !newFlip {
			continue
		}
		flips, err := e.bank.CompareRow(victim, preAt)
		if err != nil {
			return err
		}
		res.NoBitflip = false
		res.Iterations = iter
		res.ACmin = pos + 1
		res.TimeToFirst = preAt
		res.Flips = flips
		return nil
	}

	// Final readback, as the real methodology does at the end of every
	// experiment: any flips found here were not caused by the weak-cell
	// disturbance model — with a budget past tREFW they are retention
	// failures, which is exactly the contamination the paper's 60 ms
	// rule exists to exclude.
	flips, err := e.bank.CompareRow(victim, now)
	if err != nil {
		return err
	}
	if len(flips) > 0 {
		res.NoBitflip = false
		res.Iterations = maxIters
		res.ACmin = end
		res.TimeToFirst = now
		res.Flips = flips
	}
	return nil
}
