package dispatch

import (
	"fmt"
	"io"
	"sort"

	"rowfuse/internal/core"
	"rowfuse/internal/report"
	"rowfuse/internal/resultio"
)

// RenderPartialDegraded renders the coverage-annotated partial Table 2
// and Fig 4 reproductions from a campaign's rolling merged checkpoint —
// what cmd/campaignd prints while a distributed campaign converges and
// what GET /v1/report serves. cp may be nil (nothing submitted yet).
// The cells of the campaign's dead-lettered units are annotated:
// quarCells (grid indices in the canonical cell order) render as
// "quarantined" instead of "pending", and the coverage line reports the
// campaign as degraded once every remaining cell is quarantined. An
// all-quarantined grid renders a fully-annotated (never NaN, never
// panicking) report.
func RenderPartialDegraded(w io.Writer, m Manifest, cp *resultio.Checkpoint, quarCells []int) error {
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		return err
	}
	if cfg.Fleet != nil {
		return renderFleetPartial(w, m, cp, len(quarCells))
	}
	study := core.NewStudy(cfg)
	if cp != nil {
		cells, err := cp.CellMap()
		if err != nil {
			return err
		}
		if err := study.Seed(cells); err != nil {
			return err
		}
	}
	if len(quarCells) > 0 {
		grid := study.Cells()
		var keys []core.CellKey
		for _, idx := range quarCells {
			if idx >= 0 && idx < len(grid) {
				keys = append(keys, grid[idx])
			}
		}
		study.SetUnavailable(keys)
	}
	rows, cov := study.PartialTable2()
	if err := report.Table2Partial(w, rows, cov); err != nil {
		return err
	}
	if err := report.Fig4Partial(w, study.PartialFig4()); err != nil {
		return err
	}
	if cov.Quarantined > 0 {
		_, err = fmt.Fprintf(w, "\ncampaign coverage: %s (%d cells quarantined)\n", cov, cov.Quarantined)
		return err
	}
	_, err = fmt.Fprintf(w, "\ncampaign coverage: %s\n", cov)
	return err
}

// QuarantinedCells flattens the queue's dead-letter list into the set
// of grid cell indices no result is coming for, sorted ascending.
func QuarantinedCells(q Queue) ([]int, error) {
	entries, err := q.Quarantined()
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var cells []int
	for _, e := range entries {
		for _, idx := range e.Cells {
			if !seen[idx] {
				seen[idx] = true
				cells = append(cells, idx)
			}
		}
	}
	sort.Ints(cells)
	return cells, nil
}

// RenderQueueReport renders a queue's live report — the partial grid
// from its rolling merged checkpoint, with the cells of dead-lettered
// units annotated as quarantined. What GET /v1/report serves.
func RenderQueueReport(w io.Writer, q Queue) error {
	m, err := q.Manifest()
	if err != nil {
		return err
	}
	cp, err := q.Merged()
	if err != nil {
		return err
	}
	quarCells, err := QuarantinedCells(q)
	if err != nil {
		return err
	}
	return RenderPartialDegraded(w, m, cp, quarCells)
}

// renderFleetPartial renders a fleet campaign's live population
// distribution from whatever cells have been submitted so far. The
// per-scenario sketches merge in canonical cell order, so the same
// checkpoint always renders the same bytes, and a complete campaign
// renders identically to an unsharded run's FleetStats. quarCells
// annotates the coverage line with how many cells are dead-lettered.
func renderFleetPartial(w io.Writer, m Manifest, cp *resultio.Checkpoint, quarCells int) error {
	cells := map[core.CellKey]core.AggregateState{}
	if cp != nil {
		var err error
		if cells, err = cp.CellMap(); err != nil {
			return err
		}
	}
	stats, err := core.FleetStats(cells)
	if err != nil {
		return err
	}
	perScenario := 0
	if n := scenarioCount(m.Campaign.Scenarios); n > 0 {
		perScenario = m.GridSize() / n
	}
	if len(stats) == 0 {
		if _, err := fmt.Fprintf(w, "Fleet distribution: no cells submitted yet (0/%d)\n", m.GridSize()); err != nil {
			return err
		}
	} else if err := report.FleetDistribution(w, stats, perScenario); err != nil {
		return err
	}
	if quarCells > 0 {
		_, err = fmt.Fprintf(w, "\ncampaign coverage: %d/%d cells (%d quarantined)\n", len(cells), m.GridSize(), quarCells)
		return err
	}
	_, err = fmt.Fprintf(w, "\ncampaign coverage: %d/%d cells\n", len(cells), m.GridSize())
	return err
}
