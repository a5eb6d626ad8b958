// Extractors for scenario-axis campaigns: the mitigation survival
// summary (flip survival vs TRR variant, ECC and refresh multiplier),
// the thermal summary and the combined-attack crossover sweep. Each
// reads the study's completed cells the way Table2/Fig4 do, so they
// render from live campaigns, resumed checkpoints and merged shards
// alike.
package core

import (
	"fmt"
	"math"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/pattern"
)

// MitigationModuleStat is one module's survival accounting under one
// scenario, folded across every (pattern, tAggON) cell of the grid.
type MitigationModuleStat struct {
	Module string
	// FlippedObs / TotalObs count row observations: an observation
	// survives when no bitflip escaped the scenario's mitigations
	// within the budget.
	FlippedObs int
	TotalObs   int
	// FastestMs is the smallest per-cell mean time-to-first-bitflip
	// (milliseconds) among the module's flipped cells; zero when every
	// cell survived.
	FastestMs float64
}

// Survived is the fraction of observations without a surviving flip.
func (m MitigationModuleStat) Survived() float64 {
	if m.TotalObs == 0 {
		return 1
	}
	return 1 - float64(m.FlippedObs)/float64(m.TotalObs)
}

// MitigationRow is one scenario of the mitigation table: the
// configuration under test and the per-module survival it achieved.
type MitigationRow struct {
	Scenario Scenario
	// Modules follows the study's module order.
	Modules []MitigationModuleStat
}

// MitigationSummary folds every completed cell into per-(scenario,
// module) survival rows, in the configured scenario order. Every cell
// of the grid must have results (run the campaign, or seed it from a
// checkpoint, first).
func (s *Study) MitigationSummary() ([]MitigationRow, error) {
	sweep := s.SweepSorted()
	rows := make([]MitigationRow, 0, len(s.cfg.scenarios()))
	for _, sc := range s.cfg.scenarios() {
		row := MitigationRow{Scenario: sc, Modules: make([]MitigationModuleStat, 0, len(s.cfg.Modules))}
		for _, mi := range s.cfg.Modules {
			stat := MitigationModuleStat{Module: mi.ID}
			for _, kind := range s.cfg.Patterns {
				for _, aggOn := range sweep {
					key := CellKey{Module: mi.ID, Kind: kind, AggOn: aggOn, Scenario: sc.ID}
					r, ok := s.ResultCell(key)
					if !ok {
						return nil, fmt.Errorf("core: study has no result for cell %v", key)
					}
					ts := r.TimeStats()
					stat.FlippedObs += ts.N
					stat.TotalObs += ts.Total
					if ts.N > 0 {
						ms := ts.Mean * 1000
						if stat.FastestMs == 0 || ms < stat.FastestMs {
							stat.FastestMs = ms
						}
					}
				}
			}
			row.Modules = append(row.Modules, stat)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ThermalModuleStat is one module's disturbance summary at one thermal
// operating point, folded across every (pattern, tAggON) cell.
type ThermalModuleStat struct {
	Module string
	// ACminMean is the observation-weighted mean ACmin across the
	// module's flipped observations (0 when nothing flipped).
	ACminMean float64
	// FlippedObs / TotalObs count row observations with/without flips.
	FlippedObs int
	TotalObs   int
	// FastestMs is the smallest per-cell mean time-to-first-bitflip in
	// milliseconds (0 when every cell survived).
	FastestMs float64
}

// ThermalRow is one scenario (operating point) of the thermal table.
type ThermalRow struct {
	Scenario Scenario
	// SettledC is the effective die temperature of the scenario's
	// cells: the heater-pad controller's settled plant temperature for
	// thermal scenarios, the resolved TempC override otherwise.
	SettledC float64
	// Modules follows the study's module order.
	Modules []ThermalModuleStat
}

// ThermalSummary folds every completed cell into per-(scenario,
// module) thermal rows, in the configured scenario order — the
// extractor behind report.ThermalTable for `-scenarios thermal:...`
// campaigns. Every cell of the grid must have results.
func (s *Study) ThermalSummary() ([]ThermalRow, error) {
	sweep := s.SweepSorted()
	rows := make([]ThermalRow, 0, len(s.cfg.scenarios()))
	for _, sc := range s.cfg.scenarios() {
		opts, err := sc.resolveOpts(s.cfg.Opts)
		if err != nil {
			return nil, err
		}
		row := ThermalRow{Scenario: sc, SettledC: opts.TempC, Modules: make([]ThermalModuleStat, 0, len(s.cfg.Modules))}
		for _, mi := range s.cfg.Modules {
			stat := ThermalModuleStat{Module: mi.ID}
			var acSum float64
			for _, kind := range s.cfg.Patterns {
				for _, aggOn := range sweep {
					key := CellKey{Module: mi.ID, Kind: kind, AggOn: aggOn, Scenario: sc.ID}
					r, ok := s.ResultCell(key)
					if !ok {
						return nil, fmt.Errorf("core: study has no result for cell %v", key)
					}
					ac := r.ACminStats()
					stat.FlippedObs += ac.N
					stat.TotalObs += ac.Total
					acSum += ac.Mean * float64(ac.N)
					if ts := r.TimeStats(); ts.N > 0 {
						ms := ts.Mean * 1000
						if stat.FastestMs == 0 || ms < stat.FastestMs {
							stat.FastestMs = ms
						}
					}
				}
			}
			if stat.FlippedObs > 0 {
				stat.ACminMean = acSum / float64(stat.FlippedObs)
			}
			row.Modules = append(row.Modules, stat)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CrossoverCell is one tAggON position of one module's crossover sweep.
type CrossoverCell struct {
	AggOn time.Duration
	// TimesMs maps each pattern to its mean time-to-first-bitflip in
	// milliseconds; patterns that never flipped at this tAggON are
	// absent.
	TimesMs map[pattern.Kind]float64
	// Winner is the fastest flipping pattern. It is zero when nothing
	// flips, and when two patterns share the fastest time: at tAggON =
	// tRAS the combined pattern is double-sided RowHammer (Fig. 3), so
	// the two tie exactly there.
	Winner pattern.Kind
}

// CrossoverPoint describes where the fastest pattern changes as tAggON
// grows (Fig. 4's qualitative structure, Observation 3: the combined
// pattern wins at small on-times, single-sided RowPress catches up at
// large ones).
type CrossoverPoint struct {
	// Below and Above bracket the crossover: adjacent sweep points with
	// different winners.
	Below time.Duration
	Above time.Duration
}

// CrossoverModule is one module's sweep: which pattern family wins at
// each tAggON, and where the winner changes hands (the paper's
// Observations 1 and 3 — the combined pattern dominates small-to-medium
// on-times and converges to single-sided RowPress at large ones).
type CrossoverModule struct {
	Info chipdb.ModuleInfo
	// Cells covers the sweep in ascending tAggON order.
	Cells []CrossoverCell
	// Crossover brackets the first winner change; valid only when
	// HasCrossover is set (a module one pattern dominates throughout
	// has none).
	Crossover    CrossoverPoint
	HasCrossover bool
}

// CrossoverSweep extracts the per-module crossover structure from the
// study's primary scenario: every configured pattern's mean
// time-to-first-bitflip at every sweep point, the per-point winner, and
// the bracket where the winner first changes. Every cell must have
// results.
func (s *Study) CrossoverSweep() ([]CrossoverModule, error) {
	sweep := s.SweepSorted()
	out := make([]CrossoverModule, 0, len(s.cfg.Modules))
	for _, mi := range s.cfg.Modules {
		cm := CrossoverModule{Info: mi, Cells: make([]CrossoverCell, 0, len(sweep))}
		for _, aggOn := range sweep {
			cell := CrossoverCell{AggOn: aggOn, TimesMs: make(map[pattern.Kind]float64, len(s.cfg.Patterns))}
			best := math.Inf(1)
			for _, kind := range s.cfg.Patterns {
				r, err := s.mustResult(mi.ID, kind, aggOn)
				if err != nil {
					return nil, err
				}
				if ts := r.TimeStats(); ts.N > 0 {
					ms := ts.Mean * 1000
					cell.TimesMs[kind] = ms
					switch {
					case ms < best:
						best, cell.Winner = ms, kind
					case ms == best:
						cell.Winner = 0 // a tie has no winner
					}
				}
			}
			cm.Cells = append(cm.Cells, cell)
		}
		cm.Crossover, cm.HasCrossover = crossoverBracket(cm.Cells)
		out = append(out, cm)
	}
	return out, nil
}

// crossoverBracket finds the first adjacent pair of sweep points whose
// winners differ. A point without a winner (nothing flips, or a tie)
// ends the run before it and belongs to no bracket.
func crossoverBracket(cells []CrossoverCell) (CrossoverPoint, bool) {
	var prev CrossoverCell
	havePrev := false
	for _, c := range cells {
		if c.Winner == 0 {
			havePrev = false
			continue
		}
		if havePrev && c.Winner != prev.Winner {
			return CrossoverPoint{Below: prev.AggOn, Above: c.AggOn}, true
		}
		prev, havePrev = c, true
	}
	return CrossoverPoint{}, false
}
