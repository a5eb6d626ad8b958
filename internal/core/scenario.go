// The scenario axis: a fourth campaign grid dimension next to module,
// pattern and tAggON. A Scenario selects the execution engine and the
// operating conditions of a cell — mitigation configuration, thermal
// setpoint, data pattern — as pure serializable data, so campaign
// specs carrying scenarios shard, checkpoint, dispatch and fingerprint
// exactly like plain grids. A default (empty) scenario reproduces the
// pre-scenario pipeline byte for byte: it adds nothing to the config
// fingerprint, nothing to cell keys and nothing to checkpoints (pinned
// by the golden compatibility suite at the repo root).
package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/thermal"
	"rowfuse/internal/timing"
)

// Engine kinds core implements itself. Additional kinds (like the
// mitigation package's "mitigated") join through RegisterEngineKind.
const (
	// EngineAnalytic is the closed-form engine ("" selects it too).
	EngineAnalytic = "analytic"
	// EngineBank drives a simulated device.Bank command by command
	// (with the event-horizon fast-forward).
	EngineBank = "bank"
	// EngineBenderTrace compiles the cell's access pattern to a bender
	// program and executes it on the cycle-accurate interpreter, with
	// the same event-horizon fast-forward applied to the trace's
	// hammer loop (see bendertrace.go).
	EngineBenderTrace = "bender-trace"
	// EngineMitigated is registered by rowfuse/internal/mitigation: a
	// guarded bank with TRR, periodic refresh and rank ECC.
	EngineMitigated = "mitigated"
)

// Scenario is one point on the campaign's scenario axis. The zero
// value is the default scenario: the analytic engine under the study's
// own RunOpts, which is what every pre-scenario campaign ran. All
// fields are data, never callbacks, so a Scenario serializes into
// manifests and hashes into config fingerprints.
type Scenario struct {
	// ID names the scenario inside cell keys and reports. It must be
	// unique within a config and non-empty for any non-default
	// scenario ("" is reserved for the default).
	ID string `json:"id,omitempty"`
	// Engine selects the execution engine kind ("" = analytic).
	Engine string `json:"engine,omitempty"`
	// TempC overrides the study's die temperature (0 = inherit).
	TempC float64 `json:"tempC,omitempty"`
	// Data overrides the study's data pattern (0 = inherit).
	Data device.DataPattern `json:"data,omitempty"`
	// Mitigation configures the "mitigated" engine.
	Mitigation *MitigationSpec `json:"mitigation,omitempty"`
	// Thermal, when set, derives the effective die temperature from a
	// simulated heater-pad controller settled at a setpoint, instead
	// of taking TempC at face value.
	Thermal *ThermalSpec `json:"thermal,omitempty"`
	// Trace configures the "bender-trace" engine.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// MitigationSpec configures the mitigated engine: which defenses are
// switched on while the cell's pattern hammers. It lives in core (not
// the mitigation package) so manifests and fingerprints can carry it
// without core importing the engine implementation.
type MitigationSpec struct {
	// TRRCounters enables a Misra-Gries TRR tracker with this many
	// counters (0 = no TRR).
	TRRCounters int `json:"trrCounters,omitempty"`
	// VictimsPerRef is how many tracked aggressors TRR neutralizes per
	// REF (0 = the guard's default of 2).
	VictimsPerRef int `json:"victimsPerRef,omitempty"`
	// RefreshMult enables periodic refresh at RefreshMult times the
	// nominal rate (1 = every tREFI, 2 = twice as often; 0 disables
	// refresh, the paper's characterization methodology).
	RefreshMult float64 `json:"refreshMult,omitempty"`
	// ECC applies rank-level SEC-DED to the first surviving flip: rows
	// whose every ECC word has at most one flipped bit read back clean.
	ECC bool `json:"ecc,omitempty"`
}

// ThermalSpec derives a cell's effective temperature from the
// simulated heater-pad/PID loop of internal/thermal: the controller is
// settled at the setpoint and the achieved plant temperature (within
// the paper's ±0.2 °C band, not exactly the setpoint) feeds the
// device model. Deterministic: the plant's disturbance is a hash of
// the step index.
type ThermalSpec struct {
	// SetpointC is the controller target.
	SetpointC float64 `json:"setpointC"`
	// AmbientC is the ambient the plant starts from (default 30).
	AmbientC float64 `json:"ambientC,omitempty"`
	// SettleNs is how long the loop runs before the temperature is
	// read (default 2 simulated minutes).
	SettleNs int64 `json:"settleNs,omitempty"`
}

// TraceSpec configures the bender-trace engine.
type TraceSpec struct {
	// Burst is the RD/WR burst size in bytes (default 8).
	Burst int `json:"burst,omitempty"`
	// Exact disables the trace fast-forward: the whole program runs
	// instruction by instruction. Results are byte-identical either
	// way; exact is the reference the fast path is validated against.
	Exact bool `json:"exact,omitempty"`
}

// IsDefault reports whether the scenario is the zero value — the
// pre-scenario behaviour every default campaign gets.
func (sc Scenario) IsDefault() bool { return sc == Scenario{} }

// usesAnalytic reports whether the scenario runs on the analytic
// engine (and therefore wants the shared per-die population cache).
func (sc Scenario) usesAnalytic() bool {
	return sc.Engine == "" || sc.Engine == EngineAnalytic
}

// Validate checks the scenario's structural invariants (engine kinds
// are resolved later, at cell execution, so coordinators can carry
// scenarios whose engine package they never import).
func (sc Scenario) Validate() error {
	if m := sc.Mitigation; m != nil {
		if m.TRRCounters < 0 || m.VictimsPerRef < 0 || m.RefreshMult < 0 {
			return fmt.Errorf("core: scenario %q: negative mitigation parameter", sc.ID)
		}
	}
	if t := sc.Thermal; t != nil {
		if t.SetpointC <= 0 {
			return fmt.Errorf("core: scenario %q: thermal setpoint must be positive", sc.ID)
		}
		if t.SettleNs < 0 {
			return fmt.Errorf("core: scenario %q: negative thermal settle", sc.ID)
		}
	}
	if t := sc.Trace; t != nil && t.Burst < 0 {
		return fmt.Errorf("core: scenario %q: negative trace burst", sc.ID)
	}
	if sc.TempC < 0 {
		return fmt.Errorf("core: scenario %q: negative temperature", sc.ID)
	}
	return nil
}

// fingerprint is the scenario's canonical hash contribution: its JSON
// form, which is deterministic (struct field order) and shared with
// the dispatch manifest encoding.
func (sc Scenario) fingerprint() string {
	b, err := json.Marshal(sc)
	if err != nil {
		// Scenario is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("core: scenario fingerprint: %v", err))
	}
	return string(b)
}

// resolveOpts applies the scenario's operating-condition overrides to
// the study's base RunOpts. Thermal resolution runs the controller
// settle once; Study.Run memoizes the result per scenario.
func (sc Scenario) resolveOpts(base RunOpts) (RunOpts, error) {
	opts := base
	if sc.TempC != 0 {
		opts.TempC = sc.TempC
	}
	if sc.Data != 0 {
		opts.Data = sc.Data
	}
	if sc.Thermal != nil {
		t, err := sc.Thermal.settle()
		if err != nil {
			return RunOpts{}, fmt.Errorf("core: scenario %q: %w", sc.ID, err)
		}
		opts.TempC = t
	}
	return opts, nil
}

// settle runs the heater-pad control loop to its settled temperature.
func (ts ThermalSpec) settle() (float64, error) {
	ambient := ts.AmbientC
	if ambient == 0 {
		ambient = 30
	}
	settle := time.Duration(ts.SettleNs)
	if settle == 0 {
		settle = 2 * time.Minute
	}
	plant := thermal.NewPlant(ambient)
	ctl, err := thermal.NewController(thermal.ControllerConfig{Plant: plant, Setpoint: ts.SetpointC})
	if err != nil {
		return 0, err
	}
	return ctl.Run(settle), nil
}

// EngineEnv is the per-(cell, die, run) environment an engine factory
// builds from: the die-level profile, the model constants, the bank
// geometry, the run index for noise realizations, and the building
// goroutine's scratch storage.
type EngineEnv struct {
	// Profile is the die-level profile (DieProfile already applied).
	Profile device.Profile
	// Params are the disturbance model constants.
	Params device.DisturbParams
	// Timings is the study's DDR4 timing set.
	Timings timing.Set
	// Bank is the bank index under test.
	Bank int
	// NumRows and RowBytes are the bank geometry.
	NumRows  int
	RowBytes int
	// Run is the run-to-run noise realization index.
	Run int64
	// PopCache is the shared per-die population cache; non-nil only
	// for analytic-engine scenarios.
	PopCache *device.PopulationCache
	// Scratch is storage owned by the goroutine building the engine and
	// reused across the engines it builds: factories get their banks
	// from Scratch.NewBank. An engine built from a scratch is valid
	// only until the next engine is built from the same scratch. Nil
	// (the zero EngineEnv) builds every engine from fresh storage.
	Scratch *EngineScratch
}

// EngineScratch is one goroutine's reusable engine storage. Study.Run
// gives each of its pool goroutines one, so the bank-backed engines of
// successive cells reuse one bank's row storage instead of allocating
// it per (cell, die, run), and the row results of successive dies and
// fleet chips pass through one set of buffers. Not safe for concurrent
// use.
type EngineScratch struct {
	bank *device.Bank
	// res is the analytic engine's reused row result; obs and flips
	// hold a fleet chip's results (see Study.runBlock).
	res   RowResult
	obs   []RowObservation
	flips []device.Bitflip
}

// NewBank returns a bank in exactly the state device.NewBank(cfg)
// would build. A nil scratch calls device.NewBank; otherwise the
// scratch's one bank is Reset to cfg and returned, which ends the
// validity of every engine built from this scratch before.
func (s *EngineScratch) NewBank(cfg device.BankConfig) (*device.Bank, error) {
	if s == nil {
		return device.NewBank(cfg)
	}
	if s.bank == nil {
		s.bank = new(device.Bank)
	}
	if err := s.bank.Reset(cfg); err != nil {
		return nil, err
	}
	return s.bank, nil
}

// EngineFactory builds a scenario's engine for one (die, run).
type EngineFactory func(env EngineEnv, sc Scenario) (Engine, error)

var (
	engineMu        sync.RWMutex
	engineFactories = map[string]EngineFactory{}
)

// RegisterEngineKind installs a factory for an engine kind, letting
// packages that depend on core (like internal/mitigation) contribute
// scenario engines without an import cycle. Registering a core builtin
// kind or registering twice panics — both are wiring bugs.
func RegisterEngineKind(kind string, f EngineFactory) {
	switch kind {
	case "", EngineAnalytic, EngineBank, EngineBenderTrace:
		panic(fmt.Sprintf("core: engine kind %q is built in", kind))
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, ok := engineFactories[kind]; ok {
		panic(fmt.Sprintf("core: engine kind %q registered twice", kind))
	}
	engineFactories[kind] = f
}

// NewScenarioEngine resolves a scenario to a ready engine: the
// counterpart to RegisterEngineKind for callers that want to run a
// scenario's engine outside a Study (tools, benchmarks, tests). The
// scenario's non-engine axes (thermal settling, temperature and data
// overrides) are the Study's job; this resolves the engine only.
func NewScenarioEngine(env EngineEnv, sc Scenario) (Engine, error) {
	return newScenarioEngine(env, sc)
}

// newScenarioEngine resolves a scenario to a ready engine.
func newScenarioEngine(env EngineEnv, sc Scenario) (Engine, error) {
	switch sc.Engine {
	case "", EngineAnalytic:
		return NewAnalyticEngine(AnalyticConfig{
			Profile:  env.Profile,
			Params:   env.Params,
			Bank:     env.Bank,
			NumRows:  env.NumRows,
			RowBytes: env.RowBytes,
			PopCache: env.PopCache,
		})
	case EngineBank:
		b, err := env.Scratch.NewBank(device.BankConfig{
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
		return NewBankEngine(b), nil
	case EngineBenderTrace:
		return newTraceEngineFor(env, sc)
	}
	engineMu.RLock()
	f, ok := engineFactories[sc.Engine]
	engineMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown scenario engine %q (is the package providing it imported?)", sc.Engine)
	}
	return f(env, sc)
}

// scenarios returns the configured scenario axis, defaulting to the
// single default scenario so the grid is never empty.
func (c StudyConfig) scenarios() []Scenario {
	if len(c.Scenarios) == 0 {
		return []Scenario{{}}
	}
	return c.Scenarios
}

// scenariosAreDefault reports whether the axis is indistinguishable
// from a pre-scenario campaign (nil, or exactly one default scenario):
// such configs hash, key and checkpoint without any scenario content.
func (c StudyConfig) scenariosAreDefault() bool {
	switch len(c.Scenarios) {
	case 0:
		return true
	case 1:
		return c.Scenarios[0].IsDefault()
	}
	return false
}

// validateScenarios checks the axis as a whole: per-scenario
// invariants, ID uniqueness, and that only the default scenario may go
// nameless.
func (c StudyConfig) validateScenarios() error {
	seen := make(map[string]bool, len(c.Scenarios))
	for i, sc := range c.Scenarios {
		if err := sc.Validate(); err != nil {
			return err
		}
		if sc.ID == "" && !sc.IsDefault() {
			return fmt.Errorf("core: scenario %d: non-default scenarios need an ID", i)
		}
		if seen[sc.ID] {
			return fmt.Errorf("core: duplicate scenario ID %q", sc.ID)
		}
		seen[sc.ID] = true
	}
	return nil
}

// primaryScenarioID is the scenario the 3-argument Result (and every
// table/figure extractor built on it) reads: the default scenario when
// configured, otherwise the first one. A mitigation campaign that
// lists the unprotected baseline first therefore renders its Table 2
// from the baseline, and a pure bender-trace campaign renders from its
// only scenario.
func (c StudyConfig) primaryScenarioID() string {
	scens := c.scenarios()
	for _, sc := range scens {
		if sc.ID == "" {
			return ""
		}
	}
	return scens[0].ID
}
