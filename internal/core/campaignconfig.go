package core

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/timing"
)

// CampaignSpecBuilder is the canonical flag-to-config assembly shared
// by cmd/characterize and cmd/campaignd. Both commands must build the
// result-determining fields — module set, sweep, scenario axis, scale,
// operating point — identically, because the config fingerprint is what
// lets a campaignd-coordinated campaign be rendered later with
// `characterize -merge` under the same flags. That assembly therefore
// lives in exactly one place: either binary binds the shared flags with
// BindCampaignFlags (or sets the fields through options) and calls
// StudyConfig. Execution details (concurrency, progress, shard,
// checkpoint cadence) are set by each caller; they are excluded from
// the fingerprint.
type CampaignSpecBuilder struct {
	// Exp selects the campaign grid. "table2", "mitigation", "bender"
	// and "fleet" narrow the sweep to the three Table 2 marks;
	// everything else runs the paper sweep. "fleet" additionally swaps
	// the Table 1 module inventory for Chips synthetic chips.
	Exp string
	// Module restricts the campaign to one module ID ("" = the whole
	// Table 1 inventory).
	Module string
	// Rows, Dies and Runs set the campaign scale.
	Rows, Dies, Runs int
	// Chips sets the synthetic-fleet size; it only takes effect with
	// Exp == "fleet", which swaps the module inventory for generated
	// chip blocks.
	Chips int
	// Temp and Budget set the operating point.
	Temp   float64
	Budget time.Duration
	// ScenarioSet names the scenario axis ("" picks a default from
	// Exp); see ParseScenarioSet for the accepted names.
	ScenarioSet string
}

// CampaignOption adjusts a builder (the programmatic alternative to
// flag binding, used by tests and embedding callers).
type CampaignOption func(*CampaignSpecBuilder)

// WithExp selects the experiment grid.
func WithExp(exp string) CampaignOption {
	return func(b *CampaignSpecBuilder) { b.Exp = exp }
}

// WithModule restricts the campaign to one module.
func WithModule(id string) CampaignOption {
	return func(b *CampaignSpecBuilder) { b.Module = id }
}

// WithScale sets rows per region, dies per module and runs.
func WithScale(rows, dies, runs int) CampaignOption {
	return func(b *CampaignSpecBuilder) { b.Rows, b.Dies, b.Runs = rows, dies, runs }
}

// WithOperatingPoint sets the die temperature and time budget.
func WithOperatingPoint(temp float64, budget time.Duration) CampaignOption {
	return func(b *CampaignSpecBuilder) { b.Temp, b.Budget = temp, budget }
}

// WithScenarioSet names the scenario axis.
func WithScenarioSet(set string) CampaignOption {
	return func(b *CampaignSpecBuilder) { b.ScenarioSet = set }
}

// WithChips sets the synthetic-fleet size (effective with
// WithExp("fleet")).
func WithChips(n int) CampaignOption {
	return func(b *CampaignSpecBuilder) { b.Chips = n }
}

// NewCampaignSpecBuilder returns a builder with the shared flag
// defaults applied, then opts.
func NewCampaignSpecBuilder(opts ...CampaignOption) *CampaignSpecBuilder {
	b := &CampaignSpecBuilder{
		Exp:    "all",
		Rows:   200,
		Dies:   1,
		Runs:   3,
		Temp:   50,
		Budget: DefaultBudget,
		Chips:  100000,
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// BindCampaignFlags declares the shared campaign flags on fs and
// returns the builder they populate; read it after fs.Parse. Flag
// names, defaults and semantics are identical in every binary that
// binds them — that is the point.
func BindCampaignFlags(fs *flag.FlagSet) *CampaignSpecBuilder {
	b := NewCampaignSpecBuilder()
	fs.StringVar(&b.Exp, "exp", b.Exp, "experiment grid (table2/mitigation/bender/fleet narrow the sweep to the Table 2 marks)")
	fs.IntVar(&b.Rows, "rows", b.Rows, "victim rows per bank region (paper: 1000)")
	fs.IntVar(&b.Dies, "dies", b.Dies, "dies per module to characterize (0 = all, as in the paper)")
	fs.IntVar(&b.Runs, "runs", b.Runs, "repeats per measurement (paper: 3)")
	fs.StringVar(&b.Module, "module", b.Module, "restrict to one module ID (e.g. S0)")
	fs.IntVar(&b.Chips, "chips", b.Chips, "fleet size for -exp fleet (synthetic chips drawn from the population model)")
	fs.Float64Var(&b.Temp, "temp", b.Temp, "die temperature in Celsius (paper: 50)")
	fs.DurationVar(&b.Budget, "budget", b.Budget, "per-experiment time budget (paper: 60ms)")
	fs.StringVar(&b.ScenarioSet, "scenarios", b.ScenarioSet,
		"scenario axis: default, mitigations, bender, bank, or thermal:T1,T2,... (empty picks a default from -exp)")
	return b
}

// StrayFlags lists, as "-a -b" in flag order, the flags explicitly set
// on fs that allowed does not name: in a mode that takes its campaign
// from a manifest or a coordinator, they would be silently ignored. It
// returns "" when every set flag is allowed.
func StrayFlags(fs *flag.FlagSet, allowed ...string) string {
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(allowed, f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	return strings.Join(stray, " ")
}

// scenarioSet resolves the effective scenario-set name: an explicit
// -scenarios wins, otherwise the experiment implies one (mitigation
// campaigns hammer the mitigation grid, bender campaigns the trace
// engine, everything else the default single-scenario axis).
func (b *CampaignSpecBuilder) scenarioSet() string {
	if b.ScenarioSet != "" {
		return b.ScenarioSet
	}
	switch b.Exp {
	case "mitigation":
		return "mitigations"
	case "bender":
		return "bender"
	}
	return "default"
}

// StudyConfig assembles the campaign configuration. Every
// result-determining field is set here and only here; callers add
// execution details afterwards.
func (b *CampaignSpecBuilder) StudyConfig() (StudyConfig, error) {
	mods := chipdb.Modules()
	if b.Module != "" {
		mi, err := chipdb.ByID(b.Module)
		if err != nil {
			return StudyConfig{}, err
		}
		mods = []chipdb.ModuleInfo{mi}
	}
	sweep := timing.PaperSweep()
	switch b.Exp {
	case "table2", "mitigation", "bender", "fleet":
		sweep = timing.Table2Marks()
	}
	scens, err := ParseScenarioSet(b.scenarioSet())
	if err != nil {
		return StudyConfig{}, err
	}
	var fleet *FleetPlan
	if b.Exp == "fleet" {
		if b.Module != "" {
			return StudyConfig{}, fmt.Errorf("core: -exp fleet draws synthetic chips from the population model; -module %s selects inventory hardware", b.Module)
		}
		if b.Chips < 1 {
			return StudyConfig{}, fmt.Errorf("core: -exp fleet needs at least 1 chip (got %d)", b.Chips)
		}
		mods = nil
		fleet = &FleetPlan{Chips: b.Chips}
	}
	cfg := StudyConfig{
		Fleet:         fleet,
		Modules:       mods,
		Sweep:         sweep,
		RowsPerRegion: b.Rows,
		Dies:          b.Dies,
		Runs:          b.Runs,
		Scenarios:     scens,
		Opts: RunOpts{
			Budget: b.Budget,
			TempC:  b.Temp,
			Data:   device.Checkerboard,
		},
	}
	if err := cfg.validateScenarios(); err != nil {
		return StudyConfig{}, err
	}
	return cfg, nil
}

// ParseScenarioSet resolves a scenario-set name into the scenario axis:
//
//	default          the single default scenario (nil axis — the
//	                 pre-scenario grid, fingerprints unchanged)
//	mitigations      MitigationScenarios(): unprotected baseline plus
//	                 TRR, refresh-rate and ECC variants
//	bender           the cycle-accurate bender-trace engine
//	bank             the command-by-command bank engine
//	thermal:T1,T2    one scenario per setpoint, each settled through
//	                 the heater-pad/PID loop
func ParseScenarioSet(set string) ([]Scenario, error) {
	switch set {
	case "", "default":
		return nil, nil
	case "mitigations":
		return MitigationScenarios(), nil
	case "bender":
		return []Scenario{{ID: "bender", Engine: EngineBenderTrace}}, nil
	case "bank":
		return []Scenario{{ID: "bank", Engine: EngineBank}}, nil
	}
	if temps, ok := strings.CutPrefix(set, "thermal:"); ok {
		var out []Scenario
		for _, s := range strings.Split(temps, ",") {
			t, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || t <= 0 {
				return nil, fmt.Errorf("core: scenario set %q: bad setpoint %q", set, s)
			}
			out = append(out, Scenario{
				ID:      fmt.Sprintf("t%g", t),
				Thermal: &ThermalSpec{SetpointC: t},
			})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("core: scenario set %q names no setpoints", set)
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown scenario set %q (default, mitigations, bender, bank, or thermal:T1,T2,...)", set)
}

// MitigationScenarios is the standard mitigation-evaluation axis: the
// unprotected baseline and TRR/refresh-rate/ECC variants, all riding
// the "mitigated" engine (import rowfuse/internal/mitigation to
// register it). TRR acts on REF commands, so every TRR variant also
// enables periodic refresh.
func MitigationScenarios() []Scenario {
	return []Scenario{
		{ID: "baseline", Engine: EngineMitigated, Mitigation: &MitigationSpec{}},
		{ID: "trr4", Engine: EngineMitigated, Mitigation: &MitigationSpec{TRRCounters: 4, RefreshMult: 1}},
		{ID: "trr16", Engine: EngineMitigated, Mitigation: &MitigationSpec{TRRCounters: 16, RefreshMult: 1}},
		{ID: "trr16-2x", Engine: EngineMitigated, Mitigation: &MitigationSpec{TRRCounters: 16, RefreshMult: 2}},
		{ID: "ecc", Engine: EngineMitigated, Mitigation: &MitigationSpec{ECC: true}},
		{ID: "trr16-ecc", Engine: EngineMitigated, Mitigation: &MitigationSpec{TRRCounters: 16, RefreshMult: 1, ECC: true}},
	}
}
