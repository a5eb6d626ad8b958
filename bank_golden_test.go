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

// The bank-engine goldens. Every campaign whose cells run on a
// simulated device.Bank (the "bank" and "mitigated" scenario engines)
// is pinned here in absolute bytes: the SHA-256 of its checkpoint file
// and its rendered report. The cases mirror characterize invocations:
//
//	mitigation-s0:  -exp mitigation -module S0 -rows 2 -runs 2 -budget 2ms
//	mitigation-all: -exp mitigation -rows 1 -runs 1 -dies 2 -budget 1ms -workers 2
//	bank-table2:    -exp table2 -scenarios bank -rows 1 -runs 2 -dies 1 -workers 2
//
// With two pool goroutines the cells reach each goroutine in an order
// unrelated to the grid's, so any state one cell's engine leaves behind
// for the next shows up as drifted bytes. Regenerate deliberately with:
//
//	go test -run TestBankEngineGoldens -update
type bankGolden struct {
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

func bankGoldens() []bankGolden {
	return []bankGolden{
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
	}
}

// TestBankEngineGoldens runs each bank-engine campaign and compares its
// checkpoint digest and rendering with the committed goldens.
func TestBankEngineGoldens(t *testing.T) {
	var digests bytes.Buffer
	for _, g := range bankGoldens() {
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
		checkGolden(t, "golden_bank_"+g.name+".txt", rendered)
	}
	checkGolden(t, "golden_bank_checkpoints.txt", digests.Bytes())
}
