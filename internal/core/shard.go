package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rowfuse/internal/pattern"
)

// CellKey identifies one (module, pattern, tAggON, scenario) cell of a
// campaign's cell grid. It is the unit of sharding and checkpointing:
// each cell is computed wholly within one shard, so merging shard
// checkpoints is bit-identical to a single monolithic run.
type CellKey struct {
	Module string
	Kind   pattern.Kind
	AggOn  time.Duration
	// Scenario is the scenario ID ("" = the default scenario, which is
	// what every pre-scenario campaign's keys carry).
	Scenario string
}

// String renders the key as "module/pattern/tAggON" with a "/scenario"
// suffix for non-default scenarios.
func (k CellKey) String() string {
	if k.Scenario == "" {
		return fmt.Sprintf("%s/%s/%v", k.Module, k.Kind.Short(), k.AggOn)
	}
	return fmt.Sprintf("%s/%s/%v/%s", k.Module, k.Kind.Short(), k.AggOn, k.Scenario)
}

// ShardPlan deterministically partitions a campaign's cell grid into
// Count disjoint shards so independent processes (or machines) can each
// run one. The zero value means "the whole grid".
type ShardPlan struct {
	// Index is the shard to run, 0-based, in [0, Count).
	Index int
	// Count is the total number of shards (<= 1 means unsharded).
	Count int
}

// ParseShard parses the CLI form "i/n" with 1-based i (e.g. "2/3" is
// the second of three shards).
func ParseShard(s string) (ShardPlan, error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return ShardPlan{}, fmt.Errorf("core: shard %q not of the form i/n", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(lhs))
	if err != nil {
		return ShardPlan{}, fmt.Errorf("core: shard index %q: %w", lhs, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(rhs))
	if err != nil {
		return ShardPlan{}, fmt.Errorf("core: shard count %q: %w", rhs, err)
	}
	if n < 1 || i < 1 || i > n {
		return ShardPlan{}, fmt.Errorf("core: shard %q out of range (want 1 <= i <= n)", s)
	}
	return ShardPlan{Index: i - 1, Count: n}, nil
}

// Validate checks Index against Count.
func (p ShardPlan) Validate() error {
	if p.Count < 0 || p.Index < 0 || (p.Count <= 1 && p.Index != 0) || (p.Count > 1 && p.Index >= p.Count) {
		return fmt.Errorf("core: shard %d/%d out of range", p.Index+1, p.Count)
	}
	return nil
}

// IsSharded reports whether the plan selects a strict subset of cells.
func (p ShardPlan) IsSharded() bool { return p.Count > 1 }

// Contains reports whether cell index i of the grid belongs to this
// shard (round-robin assignment, which balances the per-pattern and
// per-tAggON cost variation across shards).
func (p ShardPlan) Contains(i int) bool {
	if !p.IsSharded() {
		return true
	}
	return i%p.Count == p.Index
}

// String renders the 1-based CLI form "i/n" ("" when unsharded).
func (p ShardPlan) String() string {
	if !p.IsSharded() {
		return ""
	}
	return fmt.Sprintf("%d/%d", p.Index+1, p.Count)
}

// Cells enumerates the study's full cell grid in the deterministic
// order sharding indexes it: modules x patterns x sweep x scenarios,
// as configured. Every shard of every process sees the same order; the
// scenario axis is innermost so a single-scenario grid enumerates
// exactly like a pre-scenario one.
func (s *Study) Cells() []CellKey {
	scens := s.cfg.scenarios()
	// Fleet campaigns put chip blocks on the module axis; block order is
	// ascending so checkpoint sort order, grid order and chip order all
	// agree.
	modules := len(s.cfg.Modules)
	if s.cfg.Fleet != nil {
		modules = len(s.blockIDs)
	}
	cells := make([]CellKey, 0, modules*len(s.cfg.Patterns)*len(s.cfg.Sweep)*len(scens))
	for m := 0; m < modules; m++ {
		var id string
		if s.cfg.Fleet != nil {
			id = s.blockIDs[m]
		} else {
			id = s.cfg.Modules[m].ID
		}
		for _, k := range s.cfg.Patterns {
			for _, t := range s.cfg.Sweep {
				for _, sc := range scens {
					cells = append(cells, CellKey{Module: id, Kind: k, AggOn: t, Scenario: sc.ID})
				}
			}
		}
	}
	return cells
}

// Fingerprint hashes every result-determining field of the
// configuration: the module inventory (including the paper ground truth
// each profile is calibrated against), the disturbance parameters,
// timings, sweep, patterns, sampling depth and run options. Execution
// details (shard, concurrency, checkpoint cadence, progress callbacks)
// are deliberately excluded — two shards of one campaign share a
// fingerprint, and a checkpoint may only be resumed or merged under the
// fingerprint it was written with.
func (c StudyConfig) Fingerprint() string {
	c = c.withDefaults()
	h := sha256.New()
	for _, mi := range c.Modules {
		fmt.Fprintf(h, "module %+v\n", mi)
	}
	fmt.Fprintf(h, "params %+v\n", c.Params)
	fmt.Fprintf(h, "timings %+v\n", c.Timings)
	for _, t := range c.Sweep {
		fmt.Fprintf(h, "sweep %d\n", int64(t))
	}
	for _, k := range c.Patterns {
		fmt.Fprintf(h, "pattern %d\n", int(k))
	}
	fmt.Fprintf(h, "rows %d dies %d runs %d bank %d\n", c.RowsPerRegion, c.Dies, c.Runs, c.Bank)
	fmt.Fprintf(h, "opts %+v\n", c.Opts)
	// The scenario axis joins the hash only when it deviates from the
	// default, so every pre-scenario fingerprint — and with it every
	// checkpoint and manifest in the field — stays valid (golden-pinned
	// by TestScenarioGoldenFingerprints).
	if !c.scenariosAreDefault() {
		for _, sc := range c.Scenarios {
			fmt.Fprintf(h, "scenario %s\n", sc.fingerprint())
		}
	}
	// Like the scenario axis, the fleet plan joins the hash only when
	// present, so every grid-campaign fingerprint is unchanged.
	if c.Fleet != nil {
		fmt.Fprintf(h, "fleet %+v\n", *c.Fleet)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
