package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/report"
)

// workload is one campaign shape. The seed reaches the program only
// through the generated config, which the manifest carries to the
// workers as a CampaignSpec.
type workload struct {
	name string
	// units is the manifest's work-unit count.
	units int
	// config builds the campaign from the seed.
	config func(seed int64) (core.StudyConfig, error)
	// render writes the campaign's final report from a study holding
	// every cell.
	render func(s *core.Study) ([]byte, error)
}

// Workload scale. The grid runs the full -exp all grid at reduced rows,
// so its hundreds of cells are cheap and the dispatch layers dominate;
// the fleet and mitigation sizes keep one campaign near two seconds of
// compute on two cores, so a run repeats each several times.
const (
	gridRows         = 4
	gridUnits        = 16
	fleetChips       = 2048
	fleetUnits       = 8
	mitigationRows   = 1
	mitigationBudget = 2 * time.Millisecond
	mitigationUnits  = 2
	// leaseTTL is campaignd's -ttl default; dispatch.Work derives its
	// poll interval from it (half the TTL, clamped to 5s).
	leaseTTL = 2 * time.Minute
)

var workloads = []workload{
	{
		name:  "grid-http",
		units: gridUnits,
		config: func(seed int64) (core.StudyConfig, error) {
			return seededGrid(seed, core.WithExp("all"), core.WithScale(gridRows, 1, 1))
		},
		render: renderGrid,
	},
	{
		name:  "fleet-http",
		units: fleetUnits,
		config: func(seed int64) (core.StudyConfig, error) {
			cfg, err := core.NewCampaignSpecBuilder(core.WithExp("fleet"), core.WithChips(fleetChips)).StudyConfig()
			if err != nil {
				return cfg, err
			}
			cfg.Fleet.Seed = seed
			return cfg, nil
		},
		render: renderFleet,
	},
	{
		name:  "mitigation-http",
		units: mitigationUnits,
		config: func(seed int64) (core.StudyConfig, error) {
			return seededGrid(seed, core.WithExp("mitigation"), core.WithModule("S0"),
				core.WithScale(mitigationRows, 1, 1), core.WithOperatingPoint(50, mitigationBudget))
		},
		render: renderMitigation,
	},
}

// seededGrid builds an inventory-grid campaign whose bank under test
// and noise run come from the seed (run 0 would be noise-free).
func seededGrid(seed int64, opts ...core.CampaignOption) (core.StudyConfig, error) {
	cfg, err := core.NewCampaignSpecBuilder(opts...).StudyConfig()
	if err != nil {
		return cfg, err
	}
	u := uint64(seed)
	cfg.Bank = int(u % 16)
	cfg.Opts.Run = 1 + int64(u%(1<<32))
	return cfg, nil
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// renderGrid is the acceptance rendering of the paper grid: Table 2
// and Fig 4.
func renderGrid(s *core.Study) ([]byte, error) {
	var buf bytes.Buffer
	rows, err := s.Table2()
	if err != nil {
		return nil, err
	}
	if err := report.Table2(&buf, rows); err != nil {
		return nil, err
	}
	fig4, err := s.Fig4()
	if err != nil {
		return nil, err
	}
	if err := report.Fig4(&buf, fig4); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renderFleet is characterize -exp fleet's percentile table.
func renderFleet(s *core.Study) ([]byte, error) {
	var buf bytes.Buffer
	stats, err := core.FleetStats(s.Snapshot())
	if err != nil {
		return nil, err
	}
	perScenario := len(s.Cells()) / max(1, len(s.Config().Scenarios))
	if err := report.FleetDistribution(&buf, stats, perScenario); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renderMitigation is characterize -exp mitigation's survival table.
func renderMitigation(s *core.Study) ([]byte, error) {
	var buf bytes.Buffer
	rows, err := s.MitigationSummary()
	if err != nil {
		return nil, err
	}
	if err := report.MitigationTable(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceRun is the single-process oracle every campaign's report is
// compared against.
type referenceRun struct {
	output []byte
	// cells and rows state the input size: grid cells and row
	// measurements (victim rows x dies x runs, summed over cells).
	cells, rows int
	// paperErrPct is the mean relative error of the Table 2 average
	// ACmin against the paper (grid workload only).
	paperErrPct float64
}

func reference(w workload, cfg core.StudyConfig) (*referenceRun, error) {
	s := core.NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		return nil, err
	}
	out, err := w.render(s)
	if err != nil {
		return nil, err
	}
	ref := &referenceRun{output: out}
	for _, key := range s.Cells() {
		r, ok := s.ResultCell(key)
		if ok {
			ref.cells++
			ref.rows += r.Observations()
		}
	}
	if cfg.Fleet != nil || len(cfg.Scenarios) > 0 {
		return ref, nil // no Table 2 on a fleet or scenario grid
	}
	rows, err := s.Table2()
	if err != nil {
		return nil, err
	}
	ref.paperErrPct = paperErrPct(rows)
	return ref, nil
}

// paperErrPct is the mean relative error, in percent, of the reproduced
// Table 2 average ACmin against chipdb's paper ground truth, over every
// module and ACmin column where either side reports a flip. A flip on
// only one side counts as 100%.
func paperErrPct(rows []core.Table2Row) float64 {
	var sum float64
	var n int
	for _, r := range rows {
		p, m := r.Info.Paper, r.Measured
		for _, c := range [][2]chipdb.PaperACmin{
			{m.RH, p.RH}, {m.RP78, p.RP78}, {m.RP702, p.RP702}, {m.C78, p.C78}, {m.C702, p.C702},
		} {
			got, want := c[0], c[1]
			switch {
			case got.NoBitflip() && want.NoBitflip():
				continue
			case got.NoBitflip() || want.NoBitflip():
				sum++
			default:
				sum += math.Abs(got.Avg/want.Avg - 1)
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}
