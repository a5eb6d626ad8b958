package rowfuse_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/report"
	"rowfuse/internal/resultio"
)

// The engine goldens. One small campaign per experiment kind and engine
// — the bank and mitigated engines, the bender-trace engine, fleets on
// the analytic and the bank engine, thermal sweeps and the crossover
// sweep — is pinned here in absolute bytes: the SHA-256 of its
// checkpoint file and its rendered report. (The default analytic grid
// is pinned by TestGoldenRenderings and the scenario compat suite.) The
// cases mirror characterize invocations:
//
//	mitigation-s0:  -exp mitigation -module S0 -rows 2 -runs 2 -budget 2ms
//	mitigation-all: -exp mitigation -rows 1 -runs 1 -dies 2 -budget 1ms -workers 2
//	bank-table2:    -exp table2 -scenarios bank -rows 1 -runs 2 -dies 1 -workers 2
//	fleet:          -exp fleet -chips 700 -runs 2 -workers 2
//	fleet-bank:     -exp fleet -chips 40 -scenarios bank -runs 2 -workers 2
//	bender:         -exp bender -module S0 -rows 1 -runs 2 -workers 2
//	thermal-table2: -exp table2 -scenarios thermal:45,85 -module S0 -rows 2 -runs 2 -workers 2
//	crossover:      -exp crossover -module S0 -rows 1 -runs 1 -workers 2
//
// With two pool goroutines the cells reach each goroutine in an order
// unrelated to the grid's, so any state one cell's engine leaves behind
// for the next shows up as drifted bytes. The 700-chip fleet spans two
// blocks, the second one partial. Each rendering is the command's
// stdout. Regenerate deliberately with:
//
//	go test -run TestEngineGoldens -update
type engineGolden struct {
	name        string
	opts        []core.CampaignOption
	concurrency int
	render      func(s *core.Study) ([]byte, error)
}

func renderMitigation(s *core.Study) ([]byte, error) {
	rows, err := s.MitigationSummary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = report.MitigationTable(&buf, rows)
	return buf.Bytes(), err
}

func renderTable2(s *core.Study) ([]byte, error) {
	rows, err := s.Table2()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = report.Table2(&buf, rows)
	return buf.Bytes(), err
}

func renderFleet(s *core.Study) ([]byte, error) {
	stats, err := core.FleetStats(s.Snapshot())
	if err != nil {
		return nil, err
	}
	perScenario := len(s.Cells()) / max(1, len(s.Config().Scenarios))
	var buf bytes.Buffer
	err = report.FleetDistribution(&buf, stats, perScenario)
	return buf.Bytes(), err
}

// renderThermalTable2 is a thermal axis's stdout: the thermal sweep
// table, then Table 2.
func renderThermalTable2(s *core.Study) ([]byte, error) {
	rows, err := s.ThermalSummary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.ThermalTable(&buf, rows); err != nil {
		return nil, err
	}
	table2, err := renderTable2(s)
	return append(buf.Bytes(), table2...), err
}

func renderCrossover(s *core.Study) ([]byte, error) {
	mods, err := s.CrossoverSweep()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = report.CrossoverTable(&buf, mods)
	return buf.Bytes(), err
}

func engineGoldens() []engineGolden {
	return []engineGolden{
		{
			name: "mitigation-s0",
			opts: []core.CampaignOption{
				core.WithExp("mitigation"), core.WithModule("S0"), core.WithScale(2, 1, 2),
				core.WithOperatingPoint(50, 2*time.Millisecond),
			},
			render: renderMitigation,
		},
		{
			name: "mitigation-all",
			opts: []core.CampaignOption{
				core.WithExp("mitigation"), core.WithScale(1, 2, 1),
				core.WithOperatingPoint(50, time.Millisecond),
			},
			concurrency: 2,
			render:      renderMitigation,
		},
		{
			name: "bank-table2",
			opts: []core.CampaignOption{
				core.WithExp("table2"), core.WithScenarioSet("bank"), core.WithScale(1, 1, 2),
			},
			concurrency: 2,
			render:      renderTable2,
		},
		{
			name: "fleet",
			opts: []core.CampaignOption{
				core.WithExp("fleet"), core.WithChips(700), core.WithScale(200, 1, 2),
			},
			concurrency: 2,
			render:      renderFleet,
		},
		{
			name: "fleet-bank",
			opts: []core.CampaignOption{
				core.WithExp("fleet"), core.WithChips(40), core.WithScenarioSet("bank"), core.WithScale(200, 1, 2),
			},
			concurrency: 2,
			render:      renderFleet,
		},
		{
			name: "bender",
			opts: []core.CampaignOption{
				core.WithExp("bender"), core.WithModule("S0"), core.WithScale(1, 1, 2),
			},
			concurrency: 2,
			render:      renderTable2,
		},
		{
			name: "thermal-table2",
			opts: []core.CampaignOption{
				core.WithExp("table2"), core.WithScenarioSet("thermal:45,85"), core.WithModule("S0"), core.WithScale(2, 1, 2),
			},
			concurrency: 2,
			render:      renderThermalTable2,
		},
		{
			name: "crossover",
			opts: []core.CampaignOption{
				core.WithExp("crossover"), core.WithModule("S0"), core.WithScale(1, 1, 1),
			},
			concurrency: 2,
			render:      renderCrossover,
		},
	}
}

// TestEngineGoldens runs each campaign and compares its checkpoint
// digest and rendering with the committed goldens.
func TestEngineGoldens(t *testing.T) {
	var digests bytes.Buffer
	for _, g := range engineGoldens() {
		cfg, err := core.NewCampaignSpecBuilder(g.opts...).StudyConfig()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		cfg.Concurrency = g.concurrency
		s := core.NewStudy(cfg)
		if err := s.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		var cp bytes.Buffer
		if err := resultio.SaveCheckpoint(&cp, resultio.NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, s.Snapshot())); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&digests, "%s %x\n", g.name, sha256.Sum256(cp.Bytes()))
		rendered, err := g.render(s)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		checkGolden(t, "golden_engine_"+g.name+".txt", rendered)
	}
	checkGolden(t, "golden_engine_checkpoints.txt", digests.Bytes())
}
