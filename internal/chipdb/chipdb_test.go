package chipdb

import (
	"testing"

	"rowfuse/internal/device"
)

func TestInventoryMatchesTable1(t *testing.T) {
	mods := Modules()
	if len(mods) != 14 {
		t.Fatalf("inventory has %d modules, paper tests 14", len(mods))
	}
	if TotalChips() != 84 {
		t.Fatalf("inventory has %d chips, paper tests 84", TotalChips())
	}
	seen := make(map[string]bool)
	for _, mi := range mods {
		if seen[mi.ID] {
			t.Errorf("duplicate module ID %s", mi.ID)
		}
		seen[mi.ID] = true
		if mi.DIMMPart == "" || mi.DRAMPart == "" || mi.DieRev == "" {
			t.Errorf("%s: missing part identifiers", mi.ID)
		}
		if mi.Org != "x8" && mi.Org != "x16" {
			t.Errorf("%s: org %q", mi.ID, mi.Org)
		}
	}
}

func TestByManufacturerCounts(t *testing.T) {
	counts := map[Manufacturer]int{}
	for _, mi := range Modules() {
		counts[mi.Mfr]++
	}
	if counts[MfrS] != 5 || counts[MfrH] != 4 || counts[MfrM] != 5 {
		t.Errorf("per-mfr module counts = %v, want S:5 H:4 M:5", counts)
	}
}

func TestByID(t *testing.T) {
	mi, err := ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	if mi.DRAMPart != "K4A8G045WC-BCTD" {
		t.Errorf("S0 DRAM part = %s", mi.DRAMPart)
	}
	if _, err := ByID("X9"); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestPressImmuneModules(t *testing.T) {
	for _, mi := range Modules() {
		want := mi.ID == "M1" || mi.ID == "M2"
		if got := mi.PressImmune(); got != want {
			t.Errorf("%s: PressImmune = %v, want %v", mi.ID, got, want)
		}
	}
}

func TestAllProfilesValid(t *testing.T) {
	params := device.DefaultParams()
	for _, mi := range Modules() {
		p := mi.Profile(params)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid profile: %v", mi.ID, err)
		}
		if p.HammerACmin != mi.Paper.RH.Avg {
			t.Errorf("%s: HammerACmin %g != Table 2 RH avg %g", mi.ID, p.HammerACmin, mi.Paper.RH.Avg)
		}
		if !p.PressImmune && p.PressTau <= 0 {
			t.Errorf("%s: non-immune profile without press tau", mi.ID)
		}
		if p.HammerPressSens < 0 || p.HammerPressSens > 1.888 {
			t.Errorf("%s: hammer press sensitivity %g outside [0, 1.888]", mi.ID, p.HammerPressSens)
		}
		if p.RunSigma <= 0 || p.RunSigma > 0.03 {
			t.Errorf("%s: run sigma %g outside (0, 0.03]", mi.ID, p.RunSigma)
		}
	}
}

func TestWeakSideCouplingCalibration(t *testing.T) {
	params := device.DefaultParams()
	// H2's Table 2 ratios imply a nearly symmetric coupling (>1), H1 a
	// strongly asymmetric one (~0.27).
	h2, _ := ByID("H2")
	h1, _ := ByID("H1")
	if eps := h2.Profile(params).WeakSideCoupling; eps < 0.9 {
		t.Errorf("H2 coupling = %g, want ~1.07 (nearly symmetric)", eps)
	}
	if eps := h1.Profile(params).WeakSideCoupling; eps > 0.45 {
		t.Errorf("H1 coupling = %g, want ~0.27", eps)
	}
	// Press-immune modules fall back to the global constant.
	m1, _ := ByID("M1")
	if eps := m1.Profile(params).WeakSideCoupling; eps != params.WeakSideCoupling {
		t.Errorf("M1 coupling = %g, want global default %g", eps, params.WeakSideCoupling)
	}
}

func TestTightModulesGetSmallRunSigma(t *testing.T) {
	params := device.DefaultParams()
	s4, _ := ByID("S4")
	s0, _ := ByID("S0")
	tight := s4.Profile(params).RunSigma
	loose := s0.Profile(params).RunSigma
	if tight >= loose {
		t.Errorf("S4 run sigma %g should be below S0's %g (its Table 2 avg == min)", tight, loose)
	}
}

func TestDirectionalityByDieLayout(t *testing.T) {
	params := device.DefaultParams()
	// Mfr. S/H: press flips are predominantly 1->0.
	s0, _ := ByID("S0")
	if p := s0.Profile(params); p.PressOneToZeroFrac < 0.9 {
		t.Errorf("S0 press 1->0 frac = %g, want ~0.97", p.PressOneToZeroFrac)
	}
	// Mfr. M (except 16Gb B): inverted.
	m4, _ := ByID("M4")
	if p := m4.Profile(params); p.PressOneToZeroFrac > 0.3 {
		t.Errorf("M4 press 1->0 frac = %g, want ~0.10 (inverted layout)", p.PressOneToZeroFrac)
	}
	// The 16Gb B-die (M3) follows the S/H trend (paper footnote 2).
	m3, _ := ByID("M3")
	if p := m3.Profile(params); p.PressOneToZeroFrac < 0.9 {
		t.Errorf("M3 (16Gb B) press 1->0 frac = %g, want S/H-like ~0.97", p.PressOneToZeroFrac)
	}
}

func TestDieLabel(t *testing.T) {
	s0, _ := ByID("S0")
	if got := s0.DieLabel(); got != "8Gb C-Die" {
		t.Errorf("S0 die label = %q", got)
	}
}

func TestGeometry(t *testing.T) {
	s0, _ := ByID("S0") // 8Gb
	s4, _ := ByID("S4") // 16Gb
	r8, w8 := s0.Geometry()
	r16, w16 := s4.Geometry()
	if r8 != 65536 || r16 != 131072 || w8 != 1024 || w16 != 1024 {
		t.Errorf("geometries: 8Gb=(%d,%d) 16Gb=(%d,%d)", r8, w8, r16, w16)
	}
}

func TestNewModuleBuildsDevice(t *testing.T) {
	h0, _ := ByID("H0")
	m, err := h0.NewModule(device.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChips() != h0.NumChips {
		t.Errorf("device chips = %d, want %d", m.NumChips(), h0.NumChips)
	}
}

func TestManufacturerNames(t *testing.T) {
	if MfrS.String() != "Mfr. S" || MfrS.Name() != "Samsung" {
		t.Error("Mfr. S naming wrong")
	}
	if MfrH.Name() != "SK Hynix" || MfrM.Name() != "Micron" {
		t.Error("manufacturer de-anonymization wrong")
	}
	if Manufacturer(9).Name() != "unknown" {
		t.Error("unknown manufacturer name")
	}
}

func TestPaperNumbersSanity(t *testing.T) {
	for _, mi := range Modules() {
		p := mi.Paper
		if p.RH.Avg <= 0 || p.RH.Min <= 0 {
			t.Errorf("%s: missing RowHammer ground truth", mi.ID)
		}
		if p.RH.Min > p.RH.Avg {
			t.Errorf("%s: RH min %g above avg %g", mi.ID, p.RH.Min, p.RH.Avg)
		}
		// RowPress at 70.2us always needs fewer activations than at
		// 7.8us when both flip.
		if !p.RP78.NoBitflip() && !p.RP702.NoBitflip() && p.RP702.Avg >= p.RP78.Avg {
			t.Errorf("%s: RP ACmin not decreasing with tAggON", mi.ID)
		}
		// Combined never beats double-sided RowPress on ACmin
		// (Observation 2).
		if !p.RP702.NoBitflip() && !p.C702.NoBitflip() && p.C702.Avg < p.RP702.Avg {
			t.Errorf("%s: combined ACmin below double-sided at 70.2us", mi.ID)
		}
	}
}
