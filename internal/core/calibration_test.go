package core

import (
	"context"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// smallStudy runs a reduced-scale study (fewer rows/dies/runs than the
// paper) sufficient for statistical assertions.
func smallStudy(t *testing.T, cfg StudyConfig) *Study {
	t.Helper()
	if cfg.RowsPerRegion == 0 {
		cfg.RowsPerRegion = 40
	}
	if cfg.Dies == 0 {
		cfg.Dies = 1
	}
	if cfg.Runs == 0 {
		cfg.Runs = 1
	}
	s := NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("study run: %v", err)
	}
	return s
}

func relErr(measured, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := measured/want - 1
	if d < 0 {
		d = -d
	}
	return d
}

// TestCalibrationTable2KeyCells checks that the simulated modules
// reproduce the paper's Table 2 ACmin ground truth at the calibration
// marks within tolerance.
func TestCalibrationTable2KeyCells(t *testing.T) {
	mods := []chipdb.ModuleInfo{
		mustModule(t, "S0"), mustModule(t, "H1"), mustModule(t, "M4"), mustModule(t, "M1"), mustModule(t, "S4"),
	}
	s := smallStudy(t, StudyConfig{
		Modules: mods,
		Sweep:   timing.Table2Marks(),
		Patterns: []pattern.Kind{
			pattern.DoubleSided, pattern.Combined,
		},
	})
	rows, err := s.Table2()
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	const tol = 0.25
	for _, row := range rows {
		paper := row.Info.Paper
		got := row.Measured
		id := row.Info.ID
		check := func(name string, gotCell, wantCell chipdb.PaperACmin) {
			t.Helper()
			if wantCell.NoBitflip() {
				if !gotCell.NoBitflip() {
					t.Errorf("%s %s: paper says No Bitflip, measured avg %.0f", id, name, gotCell.Avg)
				}
				return
			}
			if gotCell.NoBitflip() {
				t.Errorf("%s %s: measured No Bitflip, paper avg %.0f", id, name, wantCell.Avg)
				return
			}
			if e := relErr(gotCell.Avg, wantCell.Avg); e > tol {
				t.Errorf("%s %s: ACmin avg %.0f vs paper %.0f (%.0f%% off)", id, name, gotCell.Avg, wantCell.Avg, e*100)
			}
		}
		check("RH@36ns", got.RH, paper.RH)
		check("RP@7.8us", got.RP78, paper.RP78)
		check("RP@70.2us", got.RP702, paper.RP702)
		check("C@7.8us", got.C78, paper.C78)
		check("C@70.2us", got.C702, paper.C702)
	}
}

func mustModule(t *testing.T, id string) chipdb.ModuleInfo {
	t.Helper()
	mi, err := chipdb.ByID(id)
	if err != nil {
		t.Fatalf("module %s: %v", id, err)
	}
	return mi
}

// TestCalibrationTimeColumns checks the derived time-to-first-bitflip
// columns of Table 2 for a representative module.
func TestCalibrationTimeColumns(t *testing.T) {
	s := smallStudy(t, StudyConfig{
		Modules:  []chipdb.ModuleInfo{mustModule(t, "S0")},
		Sweep:    timing.Table2Marks(),
		Patterns: []pattern.Kind{pattern.DoubleSided, pattern.Combined},
	})
	rows, err := s.Table2()
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	got := rows[0].Measured
	paper := rows[0].Info.Paper
	cases := []struct {
		name string
		got  chipdb.PaperTime
		want chipdb.PaperTime
	}{
		{"TRH", got.TRH, paper.TRH},
		{"TRP78", got.TRP78, paper.TRP78},
		{"TRP702", got.TRP702, paper.TRP702},
		{"TC78", got.TC78, paper.TC78},
		{"TC702", got.TC702, paper.TC702},
	}
	for _, c := range cases {
		if c.want.NoBitflip() {
			continue
		}
		if e := relErr(c.got.AvgMs, c.want.AvgMs); e > 0.25 {
			t.Errorf("S0 %s: %.1f ms vs paper %.1f ms (%.0f%% off)", c.name, c.got.AvgMs, c.want.AvgMs, e*100)
		}
	}
}

// TestObservation1 asserts the headline result: at tAggON = 636 ns the
// combined pattern induces the first bitflip substantially faster than
// both conventional RowPress patterns.
func TestObservation1(t *testing.T) {
	s := smallStudy(t, StudyConfig{
		Sweep: []time.Duration{636 * time.Nanosecond},
	})
	for _, mfr := range []chipdb.Manufacturer{chipdb.MfrS, chipdb.MfrH, chipdb.MfrM} {
		fig4, err := s.Fig4()
		if err != nil {
			t.Fatalf("fig4: %v", err)
		}
		series := fig4[mfr]
		comb := series[pattern.Combined][0]
		dbl := series[pattern.DoubleSided][0]
		sgl := series[pattern.SingleSided][0]
		if comb.Modules == 0 || dbl.Modules == 0 || sgl.Modules == 0 {
			t.Fatalf("%v: missing flips at 636ns (comb=%d dbl=%d sgl=%d modules)",
				mfr, comb.Modules, dbl.Modules, sgl.Modules)
		}
		if comb.TimeMeanMs >= dbl.TimeMeanMs {
			t.Errorf("%v: combined (%.2f ms) not faster than double-sided RP (%.2f ms)",
				mfr, comb.TimeMeanMs, dbl.TimeMeanMs)
		}
		if comb.TimeMeanMs >= sgl.TimeMeanMs {
			t.Errorf("%v: combined (%.2f ms) not faster than single-sided RP (%.2f ms)",
				mfr, comb.TimeMeanMs, sgl.TimeMeanMs)
		}
		speedupVsDouble := 1 - comb.TimeMeanMs/dbl.TimeMeanMs
		if speedupVsDouble < 0.10 || speedupVsDouble > 0.60 {
			t.Errorf("%v: speedup vs double-sided %.0f%% outside the paper's regime (33-46%%)",
				mfr, speedupVsDouble*100)
		}
	}
}

// TestObservation3 asserts that at tAggON = 70.2 us the combined pattern
// takes a similar but slightly longer time than single-sided RowPress.
func TestObservation3(t *testing.T) {
	s := smallStudy(t, StudyConfig{
		// Exclude press-immune modules: they produce no flips at all
		// here, matching the paper (which averages over flipping dies).
		Modules: flippingModules(),
		Sweep:   []time.Duration{timing.AggOnNineTREFI},
	})
	fig4, err := s.Fig4()
	if err != nil {
		t.Fatalf("fig4: %v", err)
	}
	for _, mfr := range []chipdb.Manufacturer{chipdb.MfrS, chipdb.MfrH, chipdb.MfrM} {
		comb := fig4[mfr][pattern.Combined][0]
		sgl := fig4[mfr][pattern.SingleSided][0]
		if comb.Modules == 0 || sgl.Modules == 0 {
			t.Fatalf("%v: missing flips at 70.2us", mfr)
		}
		ratio := comb.TimeMeanMs / sgl.TimeMeanMs
		if ratio < 1.0 || ratio > 1.15 {
			t.Errorf("%v: combined/single time ratio %.3f, want slightly above 1 (paper: 1.03-1.04)", mfr, ratio)
		}
	}
}

func flippingModules() []chipdb.ModuleInfo {
	var out []chipdb.ModuleInfo
	for _, mi := range chipdb.Modules() {
		if !mi.Profile(device.DefaultParams()).PressImmune {
			out = append(out, mi)
		}
	}
	return out
}
