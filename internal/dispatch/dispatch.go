package dispatch

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

// ManifestVersion identifies the manifest schema.
const ManifestVersion = 1

// Sentinel errors; callers branch with errors.Is. Submit additionally
// returns resultio.ErrConfigMismatch for checkpoints written under a
// foreign configuration.
var (
	// ErrNoWork reports that every pending unit is currently leased;
	// the caller should poll again after a lease TTL's worth of
	// patience (an expired lease is re-granted on the next Acquire).
	ErrNoWork = errors.New("dispatch: no unit available (all leased)")
	// ErrDrained reports that every unit of the campaign has been
	// submitted; workers can exit.
	ErrDrained = errors.New("dispatch: campaign drained (all units submitted)")
	// ErrLeaseLost reports a heartbeat or submit under a lease that
	// expired and was re-granted to another worker.
	ErrLeaseLost = errors.New("dispatch: lease lost (expired and re-granted)")
	// ErrDuplicateSubmit reports a submit for a unit that already has
	// an accepted checkpoint.
	ErrDuplicateSubmit = errors.New("dispatch: unit already submitted")
	// ErrCanceled reports an operation against a campaign an operator
	// canceled; workers should stop, results so far stay renderable.
	ErrCanceled = errors.New("dispatch: campaign canceled")
	// ErrUnknownCampaign reports a campaign-scoped request naming an
	// ID the coordinator does not host.
	ErrUnknownCampaign = errors.New("dispatch: unknown campaign")
	// ErrBadCampaignToken reports a campaign-scoped request whose
	// worker token does not match the campaign's — a worker pointed at
	// the wrong campaign, or a token that leaked across campaigns.
	ErrBadCampaignToken = errors.New("dispatch: bad campaign worker token")
)

// CampaignSpec is the serializable subset of core.StudyConfig — every
// result-determining field, none of the execution callbacks. The
// coordinator embeds it in the manifest so workers rebuild the exact
// configuration (and therefore the exact fingerprint) from the wire.
type CampaignSpec struct {
	Modules       []chipdb.ModuleInfo  `json:"modules"`
	Params        device.DisturbParams `json:"params"`
	Timings       timing.Set           `json:"timings"`
	SweepNs       []int64              `json:"sweepNs"`
	Patterns      []string             `json:"patterns"`
	RowsPerRegion int                  `json:"rowsPerRegion"`
	Dies          int                  `json:"dies"`
	Runs          int                  `json:"runs"`
	Bank          int                  `json:"bank"`
	BudgetNs      int64                `json:"budgetNs"`
	Data          int                  `json:"data"`
	TempC         float64              `json:"tempC"`
	NoiseRun      int64                `json:"noiseRun"`
	// Scenarios is the campaign's scenario axis. Empty means the
	// default single-scenario grid; the field is omitted then, so
	// pre-scenario manifests parse (and re-serialize) unchanged.
	Scenarios []core.Scenario `json:"scenarios,omitempty"`
	// Fleet, when set, makes this a fleet campaign: the module axis
	// carries synthetic chip blocks instead of the Table 1 inventory
	// (Modules is empty then). Omitted for grid campaigns, so their
	// manifests are unchanged.
	Fleet *core.FleetPlan `json:"fleet,omitempty"`
}

// NewCampaignSpec captures cfg (with defaults applied) as a spec.
func NewCampaignSpec(cfg core.StudyConfig) CampaignSpec {
	cfg = core.NewStudy(cfg).Config() // apply defaults once, canonically
	sp := CampaignSpec{
		Modules:       cfg.Modules,
		Params:        cfg.Params,
		Timings:       cfg.Timings,
		RowsPerRegion: cfg.RowsPerRegion,
		Dies:          cfg.Dies,
		Runs:          cfg.Runs,
		Bank:          cfg.Bank,
		BudgetNs:      cfg.Opts.Budget.Nanoseconds(),
		Data:          int(cfg.Opts.Data),
		TempC:         cfg.Opts.TempC,
		NoiseRun:      cfg.Opts.Run,
	}
	for _, t := range cfg.Sweep {
		sp.SweepNs = append(sp.SweepNs, t.Nanoseconds())
	}
	for _, k := range cfg.Patterns {
		sp.Patterns = append(sp.Patterns, k.Short())
	}
	if len(cfg.Scenarios) > 0 {
		sp.Scenarios = append(sp.Scenarios, cfg.Scenarios...)
	}
	if cfg.Fleet != nil {
		f := *cfg.Fleet // defaults already applied by Config()
		sp.Fleet = &f
	}
	return sp
}

// StudyConfig reconstructs the core.StudyConfig the spec was built
// from. The round trip is exact: the reconstructed config's
// fingerprint equals the original's.
func (sp CampaignSpec) StudyConfig() (core.StudyConfig, error) {
	if err := device.CheckBank(sp.Bank); err != nil {
		return core.StudyConfig{}, fmt.Errorf("dispatch: campaign spec: %w", err)
	}
	cfg := core.StudyConfig{
		Modules:       sp.Modules,
		Params:        sp.Params,
		Timings:       sp.Timings,
		RowsPerRegion: sp.RowsPerRegion,
		Dies:          sp.Dies,
		Runs:          sp.Runs,
		Bank:          sp.Bank,
		Opts: core.RunOpts{
			Budget: time.Duration(sp.BudgetNs),
			Data:   device.DataPattern(sp.Data),
			TempC:  sp.TempC,
			Run:    sp.NoiseRun,
		},
	}
	for _, ns := range sp.SweepNs {
		cfg.Sweep = append(cfg.Sweep, time.Duration(ns))
	}
	for _, s := range sp.Patterns {
		k, err := pattern.ParseShort(s)
		if err != nil {
			return core.StudyConfig{}, fmt.Errorf("dispatch: campaign spec: %w", err)
		}
		cfg.Patterns = append(cfg.Patterns, k)
	}
	if len(sp.Scenarios) > 0 {
		cfg.Scenarios = append(cfg.Scenarios, sp.Scenarios...)
	}
	if sp.Fleet != nil {
		f := *sp.Fleet
		cfg.Fleet = &f
	}
	return cfg, nil
}

// Manifest fully describes one distributed campaign: what to compute
// (the embedded campaign spec and its fingerprint) and how the cell
// grid is partitioned into leased work units.
type Manifest struct {
	Version int `json:"version"`
	// Fingerprint is core.StudyConfig.Fingerprint() of the campaign;
	// every submitted checkpoint must carry it.
	Fingerprint string `json:"fingerprint"`
	// Units is the number of work units the grid is split into; unit i
	// is core.ShardPlan{Index: i, Count: Units}.
	Units int `json:"units"`
	// LeaseTTLMs bounds how long a unit may go without a heartbeat
	// before its lease expires and the unit is re-granted.
	LeaseTTLMs int64 `json:"leaseTtlMs"`
	// MaxStrikes is the quarantine threshold: after this many strikes
	// (lease expiries that led to a re-grant, or worker-reported unit
	// failures) a unit moves to the quarantined dead-letter state
	// instead of back to the pending pool. 0 means the default
	// (DefaultMaxStrikes); omitted then, so pre-quarantine manifests
	// parse unchanged. Excluded from the config fingerprint — it is an
	// operational knob, not a result-determining one.
	MaxStrikes int `json:"maxStrikes,omitempty"`
	// Campaign is the serializable study configuration.
	Campaign CampaignSpec `json:"campaign"`
}

// DefaultMaxStrikes is the quarantine threshold applied when the
// manifest does not set one.
const DefaultMaxStrikes = 3

// Strikes returns the effective quarantine threshold.
func (m Manifest) Strikes() int {
	if m.MaxStrikes > 0 {
		return m.MaxStrikes
	}
	return DefaultMaxStrikes
}

// strike is the strike rule every queue shares: a unit holding prior
// strikes takes one more, and at m.Strikes() it quarantines instead of
// returning to the pending pool. The reason charges worker with either
// an expired lease or the failure it reported (empty for a generic
// one).
func (m Manifest) strike(prior int, worker string, expired bool, reported string) (strikes int, state, reason string) {
	strikes, state = prior+1, UnitPending
	if strikes >= m.Strikes() {
		state = UnitQuarantined
	}
	switch {
	case expired:
		return strikes, state, fmt.Sprintf("lease expired (worker %s)", worker)
	case reported == "":
		reported = "worker-reported failure"
	}
	return strikes, state, fmt.Sprintf("%s (worker %s)", reported, worker)
}

// GridSize returns the number of cells on the campaign grid. Fleet
// campaigns put chip blocks on the module axis, so their grid size is
// blocks x patterns x sweep x scenarios.
func (m Manifest) GridSize() int {
	return gridSize(m.Campaign)
}

func gridSize(sp CampaignSpec) int {
	modules := len(sp.Modules)
	if sp.Fleet != nil {
		modules = sp.Fleet.Blocks()
	}
	return modules * len(sp.Patterns) * len(sp.SweepNs) * scenarioCount(sp.Scenarios)
}

// scenarioCount is the scenario axis's contribution to the grid size:
// an empty axis still enumerates the single default scenario.
func scenarioCount(scs []core.Scenario) int {
	if len(scs) == 0 {
		return 1
	}
	return len(scs)
}

// UnitCells expands a unit's initial shard plan into the explicit grid
// cell indices it covers. Queues that re-plan units hold their own
// (possibly rebalanced) cell sets; this is the static partition every
// campaign starts from.
func (m Manifest) UnitCells(unit int) []int {
	plan := m.Plan(unit)
	var cells []int
	for idx := 0; idx < m.GridSize(); idx++ {
		if plan.Contains(idx) {
			cells = append(cells, idx)
		}
	}
	return cells
}

// NewManifest builds a manifest for cfg split into units leased for
// ttl. Units is clamped to [1, number of grid cells] so no unit is
// structurally empty.
func NewManifest(cfg core.StudyConfig, units int, ttl time.Duration) Manifest {
	spec := NewCampaignSpec(cfg)
	if cells := gridSize(spec); units > cells {
		units = cells
	}
	if units < 1 {
		units = 1
	}
	return Manifest{
		Version:     ManifestVersion,
		Fingerprint: cfg.Fingerprint(),
		Units:       units,
		LeaseTTLMs:  ttl.Milliseconds(),
		Campaign:    spec,
	}
}

// LeaseTTL returns the lease duration.
func (m Manifest) LeaseTTL() time.Duration { return time.Duration(m.LeaseTTLMs) * time.Millisecond }

// Plan maps a unit index to its shard of the cell grid.
func (m Manifest) Plan(unit int) core.ShardPlan {
	return core.ShardPlan{Index: unit, Count: m.Units}
}

// Validate checks the manifest's invariants, including that the
// embedded campaign spec reproduces the advertised fingerprint (a
// mismatch means the manifest was hand-edited or the schema drifted).
func (m Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("dispatch: manifest version %d (want %d)", m.Version, ManifestVersion)
	}
	if m.Units < 1 {
		return fmt.Errorf("dispatch: manifest has %d units (want >= 1)", m.Units)
	}
	if m.LeaseTTLMs <= 0 {
		return fmt.Errorf("dispatch: manifest lease TTL %dms (want > 0)", m.LeaseTTLMs)
	}
	if m.MaxStrikes < 0 {
		return fmt.Errorf("dispatch: manifest max strikes %d (want >= 0)", m.MaxStrikes)
	}
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		return err
	}
	if fp := cfg.Fingerprint(); fp != m.Fingerprint {
		return fmt.Errorf("dispatch: manifest fingerprint %s does not match its campaign spec (%s)", m.Fingerprint, fp)
	}
	return nil
}

// grid maps every cell of the manifest's campaign to its index in the
// canonical core.Study.Cells() order, the order shard plans partition,
// and returns the inverse (index -> key) alongside.
func (m Manifest) grid() (map[core.CellKey]int, []core.CellKey, error) {
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		return nil, nil, err
	}
	cells := core.NewStudy(cfg).Cells()
	out := make(map[core.CellKey]int, len(cells))
	for i, key := range cells {
		out[key] = i
	}
	return out, cells, nil
}

// validateUnitCheckpoint enforces the submit-side contract: the
// checkpoint carries the campaign fingerprint and covers cells of the
// unit's set — no foreign cells; and unless partial is set, no missing
// ones either. The completeness half matters as much as the subset
// half for final submissions: accepting an incomplete (or empty)
// checkpoint would mark the unit done, its missing cells would never
// be re-granted, and the "drained" campaign would be silently
// unrenderable. Intra-unit (partial) checkpoints relax only the
// completeness rule — a resumed worker must still never be seeded with
// foreign state. grid is Manifest.grid(); unitCells is the unit's
// current cell-index set.
func validateUnitCheckpoint(m Manifest, grid map[core.CellKey]int, unit int, unitCells []int, cp *resultio.Checkpoint, partial bool) error {
	if cp == nil {
		return fmt.Errorf("%w: unit %d: nil checkpoint", resultio.ErrBadCheckpoint, unit)
	}
	if cp.Fingerprint != m.Fingerprint {
		return fmt.Errorf("unit %d: %w: checkpoint %s vs campaign %s",
			unit, resultio.ErrConfigMismatch, cp.Fingerprint, m.Fingerprint)
	}
	cells, err := cp.CellMap()
	if err != nil {
		return fmt.Errorf("unit %d: %w", unit, err)
	}
	inUnit := make(map[int]bool, len(unitCells))
	for _, idx := range unitCells {
		inUnit[idx] = true
	}
	for key := range cells {
		idx, ok := grid[key]
		if !ok {
			return fmt.Errorf("unit %d: %w: cell %v not on the campaign grid", unit, resultio.ErrConfigMismatch, key)
		}
		if !inUnit[idx] {
			return fmt.Errorf("unit %d: %w: cell %v belongs to another unit", unit, resultio.ErrConfigMismatch, key)
		}
	}
	if !partial && len(cells) != len(unitCells) {
		return fmt.Errorf("unit %d: %w: checkpoint covers %d of the unit's %d cells (incomplete shard run?)",
			unit, resultio.ErrBadCheckpoint, len(cells), len(unitCells))
	}
	return nil
}

// Lease is a time-bounded grant of one work unit to one worker. The
// token authenticates heartbeats, partial checkpoints and submits:
// after expiry the unit may be re-granted under a fresh token, at
// which point the old holder's calls fail with ErrLeaseLost.
type Lease struct {
	Unit    int       `json:"unit"`
	Worker  string    `json:"worker"`
	Token   string    `json:"token"`
	Expires time.Time `json:"expires"`
	// Cells are the grid cell indices (positions in the canonical
	// core.Study.Cells() order) this unit covers. Cost-aware queues
	// re-plan unit boundaries, so the lease — not the manifest's static
	// i/n partition — is authoritative for what to compute. Empty means
	// the unit still follows Manifest.Plan(Unit). Advisory on the wire:
	// submissions are validated against the queue's own record.
	Cells []int `json:"cells,omitempty"`
}

// newToken mints an unguessable lease token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Unit lifecycle states as reported by Status.
const (
	UnitPending = "pending"
	UnitLeased  = "leased"
	UnitDone    = "done"
	// UnitQuarantined is the dead-letter state: the unit struck out
	// (Manifest.Strikes() lease expiries or reported failures) and is
	// no longer granted. An operator can Requeue it (strikes reset) or
	// Drop it (permanently excluded); either way the campaign drains —
	// degraded — without it.
	UnitQuarantined = "quarantined"
	// UnitDropped is an operator-discarded quarantined unit: its cells
	// are permanently excluded from the campaign, which still counts
	// as drained.
	UnitDropped = "dropped"
)

// QuarantineEntry describes one quarantined (or dropped) unit for the
// operator-facing dead-letter listing.
type QuarantineEntry struct {
	Unit    int    `json:"unit"`
	State   string `json:"state"` // UnitQuarantined or UnitDropped
	Strikes int    `json:"strikes"`
	// LastFailure is the most recent strike's reason — a lease-expiry
	// note or the error a worker reported via Fail.
	LastFailure string `json:"lastFailure,omitempty"`
	// Cells are the grid cell indices the unit covers; the cells a
	// degraded report annotates as quarantined.
	Cells []int `json:"cells,omitempty"`
	// HasPartial reports stored intra-unit progress, which a Requeue
	// resumes from.
	HasPartial bool `json:"hasPartial,omitempty"`
}

// UnitStatus is one unit's place in the lifecycle.
type UnitStatus struct {
	Unit   int    `json:"unit"`
	State  string `json:"state"`
	Worker string `json:"worker,omitempty"`
	// ExpiresInMs is the lease's remaining TTL (leased units only).
	ExpiresInMs int64 `json:"expiresInMs,omitempty"`
	// CellCount is the number of grid cells the unit currently covers
	// (re-planning queues resize units as cost observations arrive).
	CellCount int `json:"cellCount,omitempty"`
	// EstCostMs is the unit's expected compute cost in milliseconds, 0
	// until the queue has observed at least one timed submission.
	EstCostMs int64 `json:"estCostMs,omitempty"`
	// HasPartial reports that an intra-unit checkpoint is stored for
	// the unit, so a re-granted lease will resume rather than recompute.
	HasPartial bool `json:"hasPartial,omitempty"`
	// Strikes is the unit's accumulated failure count (lease expiries
	// plus worker-reported failures); Manifest.Strikes() of them
	// quarantine the unit.
	Strikes int `json:"strikes,omitempty"`
}

// Status summarizes a campaign's progress.
type Status struct {
	Units       int          `json:"units"`
	Pending     int          `json:"pending"`
	Leased      int          `json:"leased"`
	Done        int          `json:"done"`
	Quarantined int          `json:"quarantined,omitempty"`
	Dropped     int          `json:"dropped,omitempty"`
	PerUnit     []UnitStatus `json:"perUnit"`
}

// Drained reports whether every unit reached a terminal state: an
// accepted checkpoint, quarantine, or an operator drop. A campaign
// with quarantined units drains *degraded* — workers exit, the report
// renders with its quarantined cells annotated — instead of hanging on
// units that will never succeed.
func (s Status) Drained() bool { return s.Done+s.Quarantined+s.Dropped == s.Units }

// Degraded reports a drained-but-incomplete campaign: some units ended
// in quarantine or were dropped rather than submitting a checkpoint.
func (s Status) Degraded() bool { return s.Quarantined+s.Dropped > 0 }

// Queue is the worker-facing coordination surface, implemented by
// MemQueue (in-process / behind cmd/campaignd), DirQueue (shared
// directory, no server) and Client (HTTP).
type Queue interface {
	// Manifest returns the campaign description.
	Manifest() (Manifest, error)
	// Acquire leases an available unit, re-granting expired leases
	// first. Cost-aware queues pick by expected cost; otherwise the
	// lowest-numbered unit wins. ErrNoWork means try again later;
	// ErrDrained means the campaign is complete.
	Acquire(worker string) (Lease, error)
	// Heartbeat extends the lease by a full TTL. ErrLeaseLost means
	// the unit was re-granted: abandon it.
	Heartbeat(l Lease) error
	// Submit delivers the unit's checkpoint, along with the wall time
	// the worker spent computing it (0 = unmeasured; the queue's cost
	// model simply learns nothing). The checkpoint is validated against
	// the campaign fingerprint and the unit's cell set.
	// ErrDuplicateSubmit and ErrLeaseLost mean another worker's result
	// was accepted instead — not a failure of the campaign.
	Submit(l Lease, cp *resultio.Checkpoint, elapsed time.Duration) error
	// SavePartial stores an intra-unit checkpoint under the lease: cp
	// holds the cells finished since the caller's last successful
	// SavePartial under this lease, and the queue merges them into the
	// unit's stored partial. A cell may arrive again (a lost response
	// makes the worker resend it); the later record replaces the
	// stored one, and since cells are deterministic whole-cell
	// aggregates the two are equal. Validated like a submission but
	// without the completeness requirement: the fingerprint, every
	// cell on the grid and in the unit, no cell twice within cp.
	// Best-effort by contract: losing a partial costs recompute time,
	// never correctness.
	SavePartial(l Lease, cp *resultio.Checkpoint) error
	// LoadPartial returns the unit's stored intra-unit checkpoint —
	// every partial merged, in resultio.NewCheckpoint order — or
	// (nil, nil) if none: typically a dead predecessor's progress that
	// a freshly re-granted lease resumes from.
	LoadPartial(l Lease) (*resultio.Checkpoint, error)
	// Fail reports that the unit's work errored under a live lease (a
	// crash, a panic, a unit-timeout) — a strike. The lease is
	// released; at Manifest.Strikes() strikes the unit quarantines
	// instead of returning to the pending pool. ErrLeaseLost means the
	// report arrived after the unit went elsewhere and was ignored.
	Fail(l Lease, reason string) error
	// Quarantined lists the dead-letter units (quarantined and
	// dropped), lowest unit first.
	Quarantined() ([]QuarantineEntry, error)
	// Requeue returns a quarantined (or dropped) unit to the pending
	// pool with its strikes reset; stored intra-unit progress is kept,
	// so the next lease resumes from it.
	Requeue(unit int) error
	// Drop permanently discards a quarantined unit: its cells are
	// excluded from the campaign, which still drains (degraded).
	Drop(unit int) error
	// Status reports per-unit progress.
	Status() (Status, error)
	// Merged folds every accepted checkpoint into one (possibly
	// partial) campaign checkpoint.
	Merged() (*resultio.Checkpoint, error)
}
