// The "mitigated" scenario engine: a guarded bank riding the
// ground-truth BankEngine hammer loop. The guard plugs into
// core.BankEngine as a BankDriver and the periodic REF cadence comes
// from core.WithRefreshEvery, so there is exactly one hammer loop in
// the tree and mitigation evaluations inherit its flip detection and
// budget accounting. The unguarded, refresh-free baseline inherits the
// event-horizon fast-forward; a guarded bank inherits the
// refresh-window skip, because Guard implements core.RefreshReplayer:
// once a window between two REFs has run act by act and its REF
// refreshed the victim, later windows with the same schedule are
// skipped and close by replaying that REF. Both stay byte-identical to
// act-by-act execution; refresh without a guard runs act by act.
package mitigation

import (
	"fmt"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
)

// Engine implements core.Engine for mitigation scenarios: hammering
// against an optional TRR guard, an optional periodic-refresh cadence,
// and optional rank-level SEC-DED ECC applied to the readback.
type Engine struct {
	inner *core.BankEngine
	bank  *device.Bank
	guard *Guard
	ecc   bool

	goldenBuf []byte
}

var _ core.Engine = (*Engine)(nil)

// EngineConfig configures a mitigation engine.
type EngineConfig struct {
	Bank *device.Bank
	// Guard is optional; nil hammers the unguarded bank (and, with
	// RefInterval zero, the paper's refresh-disabled baseline — which
	// then runs on the fast-forwarding bank path). A guard with a
	// RefInterval gets the bank engine's refresh-window skip.
	Guard *Guard
	// RefInterval issues a REF every such period of hammering time
	// (zero disables refresh, the paper's methodology).
	RefInterval time.Duration
	// ECC masks flips that rank-level SEC-DED corrects: a readback
	// whose every ECC word has at most one flipped bit reads clean.
	ECC bool
}

// NewEngine builds a mitigation engine over a bank.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Bank == nil {
		return nil, ErrNilBank
	}
	var opts []core.BankEngineOption
	if cfg.Guard != nil {
		opts = append(opts, core.WithDriver(cfg.Guard))
	}
	if cfg.RefInterval > 0 {
		opts = append(opts, core.WithRefreshEvery(cfg.RefInterval))
	}
	return &Engine{
		inner: core.NewBankEngine(cfg.Bank, opts...),
		bank:  cfg.Bank,
		guard: cfg.Guard,
		ecc:   cfg.ECC,
	}, nil
}

// Refreshes returns how many periodic REFs the last CharacterizeRow
// issued; TRRRefreshes how many targeted refreshes the guard has fired
// over the engine's lifetime (0 without a guard).
func (e *Engine) Refreshes() int64 { return e.inner.Refreshes() }

// TRRRefreshes returns the guard's cumulative targeted-refresh count.
func (e *Engine) TRRRefreshes() int64 {
	if e.guard == nil {
		return 0
	}
	return e.guard.TRRRefreshes()
}

// CharacterizeRow implements core.Engine: hammer the victim under the
// configured mitigations, then — with ECC on — re-judge the first-flip
// readback through SEC-DED word decoding. A flip every word of which
// is single-bit-correctable reads back clean and the row counts as
// surviving (the evaluation stops at the first raw flip, so ECC
// survival is judged at that point, not over the remaining budget).
func (e *Engine) CharacterizeRow(victim int, spec pattern.Spec, opts core.RunOpts) (core.RowResult, error) {
	res, err := e.inner.CharacterizeRow(victim, spec, opts)
	if err != nil {
		return core.RowResult{}, err
	}
	if !e.ecc || res.NoBitflip {
		return res, nil
	}
	masked, err := e.eccMasks(victim, res)
	if err != nil {
		return core.RowResult{}, err
	}
	if masked {
		// The correctable flip is invisible to the host: report the
		// clean no-flip shape the rest of the pipeline expects.
		return core.RowResult{Victim: res.Victim, Spec: res.Spec, NoBitflip: true}, nil
	}
	return res, nil
}

// eccMasks reports whether SEC-DED fully corrects the victim row's
// observed state at the first-flip readback time.
func (e *Engine) eccMasks(victim int, res core.RowResult) (bool, error) {
	observed, err := e.bank.RowData(victim, res.TimeToFirst)
	if err != nil {
		return false, err
	}
	if cap(e.goldenBuf) < len(observed) {
		e.goldenBuf = make([]byte, len(observed))
	}
	e.goldenBuf = e.goldenBuf[:len(observed)]
	copy(e.goldenBuf, observed)
	for _, f := range res.Flips {
		flipBit(e.goldenBuf, f.Bit)
	}
	outcome, err := EvaluateRow(e.goldenBuf, observed)
	if err != nil {
		return false, err
	}
	return outcome.ResidualErr == 0, nil
}

// flipBit toggles bit i of a row buffer (LSB-first within each byte,
// the device package's bit addressing).
func flipBit(data []byte, i int) {
	data[i>>3] ^= 1 << uint(i&7)
}

// init registers the "mitigated" engine kind so campaign scenarios can
// select it by name: importing this package is all a binary needs.
func init() {
	core.RegisterEngineKind(core.EngineMitigated, newScenarioEngine)
}

// newScenarioEngine is the core.EngineFactory of the "mitigated" kind.
// Its bank comes from env.Scratch, so a Study's pool goroutine reuses
// one bank's row storage across the cells it runs.
func newScenarioEngine(env core.EngineEnv, sc core.Scenario) (core.Engine, error) {
	spec := sc.Mitigation
	if spec == nil {
		spec = &core.MitigationSpec{}
	}
	bank, err := env.Scratch.NewBank(device.BankConfig{
		Profile:  env.Profile,
		Params:   env.Params,
		Index:    env.Bank,
		NumRows:  env.NumRows,
		RowBytes: env.RowBytes,
		RunSeed:  env.Run,
	})
	if err != nil {
		return nil, err
	}
	var guard *Guard
	if spec.TRRCounters > 0 {
		guard, err = NewGuard(GuardConfig{
			Bank:          bank,
			Tracker:       NewMisraGries(spec.TRRCounters),
			VictimsPerRef: spec.VictimsPerRef,
		})
		if err != nil {
			return nil, err
		}
	}
	var refInterval time.Duration
	if spec.RefreshMult > 0 {
		refInterval = time.Duration(float64(env.Timings.TREFI) / spec.RefreshMult)
	}
	if refInterval < 0 {
		return nil, fmt.Errorf("mitigation: refresh multiplier %v yields a negative interval", spec.RefreshMult)
	}
	return NewEngine(EngineConfig{Bank: bank, Guard: guard, RefInterval: refInterval, ECC: spec.ECC})
}
