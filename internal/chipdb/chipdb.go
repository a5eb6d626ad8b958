// Package chipdb holds the inventory of the 14 DDR4 modules (84 chips)
// the paper tests (Table 1) together with the per-DIMM read-disturbance
// ground truth from Table 2, and inverts those numbers into device
// profiles for the simulator.
//
// Table 2 is the only fully numeric ground truth in the paper, so it is
// the calibration anchor: RowHammer ACmin at tAggON = 36 ns fixes the
// hammer thresholds, double-sided RowPress ACmin at 70.2 us fixes the
// press thresholds, and the Avg/Min ratios fix the row-to-row spreads.
package chipdb

import (
	"fmt"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/timing"
)

// Manufacturer identifies a DRAM manufacturer as anonymized in the paper.
type Manufacturer int

// The three major DRAM manufacturers.
const (
	MfrS Manufacturer = iota + 1 // Samsung
	MfrH                         // SK Hynix
	MfrM                         // Micron
)

// String returns the paper's anonymized name ("Mfr. S" etc.).
func (m Manufacturer) String() string {
	switch m {
	case MfrS:
		return "Mfr. S"
	case MfrH:
		return "Mfr. H"
	case MfrM:
		return "Mfr. M"
	default:
		return fmt.Sprintf("Manufacturer(%d)", int(m))
	}
}

// Name returns the de-anonymized manufacturer name given in Table 1.
func (m Manufacturer) Name() string {
	switch m {
	case MfrS:
		return "Samsung"
	case MfrH:
		return "SK Hynix"
	case MfrM:
		return "Micron"
	default:
		return "unknown"
	}
}

// PaperACmin carries one "Avg. (Min.)" ACmin cell of Table 2 in total
// aggressor-row activations. Zero values mean the paper reports
// "No Bitflip" for that cell.
type PaperACmin struct {
	Avg float64
	Min float64
}

// NoBitflip reports whether the cell is a "No Bitflip" entry.
func (p PaperACmin) NoBitflip() bool { return p.Avg == 0 }

// PaperTime carries one "Avg. (Min.)" time-to-first-bitflip cell of
// Table 2 in milliseconds. Zero means "No Bitflip".
type PaperTime struct {
	AvgMs float64
	MinMs float64
}

// NoBitflip reports whether the cell is a "No Bitflip" entry.
func (p PaperTime) NoBitflip() bool { return p.AvgMs == 0 }

// PaperNumbers is one full Table 2 row.
type PaperNumbers struct {
	// ACmin at the three tAggON marks. RH is double-sided RowHammer at
	// 36 ns; RP78/RP702 are double-sided RowPress at 7.8/70.2 us;
	// C78/C702 are the combined pattern at 7.8/70.2 us.
	RH, RP78, RP702, C78, C702 PaperACmin
	// Time-to-first-bitflip at the same marks.
	TRH, TRP78, TRP702, TC78, TC702 PaperTime
}

// ModuleInfo describes one tested DIMM (a Table 1 + Table 2 row pair).
type ModuleInfo struct {
	// ID is the paper's module identifier (S0..S4, H0..H3, M0..M4).
	ID string
	// Mfr is the DRAM die manufacturer.
	Mfr Manufacturer
	// Vendor is the module (DIMM) vendor, which may differ from the die
	// manufacturer (e.g. Kingston modules with Hynix dies).
	Vendor string
	// DIMMPart and DRAMPart are the module and die part numbers.
	DIMMPart string
	DRAMPart string
	// DieRev is the die revision letter.
	DieRev string
	// DensityGbit is the die density in gigabits.
	DensityGbit int
	// Org is the die organization (x8 / x16).
	Org string
	// NumChips is the number of DRAM chips on the module.
	NumChips int
	// DateCode is the manufacturing date code (empty if N/A).
	DateCode string
	// Paper holds the module's Table 2 ground truth.
	Paper PaperNumbers
}

// DieLabel returns the per-die-type label used in Figs. 5 and 6
// ("8Gb C-Die" etc.).
func (mi ModuleInfo) DieLabel() string {
	return fmt.Sprintf("%dGb %s-Die", mi.DensityGbit, mi.DieRev)
}

// PressImmune reports whether the module shows no RowPress-driven flips
// within the 60 ms experiment budget (Micron 8Gb B dies).
func (mi ModuleInfo) PressImmune() bool {
	return mi.Paper.RP78.NoBitflip() && mi.Paper.RP702.NoBitflip() &&
		mi.Paper.C78.NoBitflip() && mi.Paper.C702.NoBitflip()
}

// Modules returns the full Table 1 inventory in paper order.
func Modules() []ModuleInfo {
	out := make([]ModuleInfo, len(moduleTable))
	copy(out, moduleTable)
	return out
}

// ByID returns one module by its paper identifier.
func ByID(id string) (ModuleInfo, error) {
	for _, mi := range moduleTable {
		if mi.ID == id {
			return mi, nil
		}
	}
	return ModuleInfo{}, fmt.Errorf("chipdb: unknown module %q", id)
}

// TotalChips returns the total chip count across the inventory (84 in the
// paper).
func TotalChips() int {
	n := 0
	for _, mi := range moduleTable {
		n += mi.NumChips
	}
	return n
}

// kilo scales Table 2's "45.0K"-style entries.
func kilo(v float64) float64 { return v * 1000 }

// moduleTable transcribes Tables 1 and 2 of the paper.
var moduleTable = []ModuleInfo{
	{
		ID: "S0", Mfr: MfrS, Vendor: "Samsung",
		DIMMPart: "M393A2K40CB2-CTD", DRAMPart: "K4A8G045WC-BCTD",
		DieRev: "C", DensityGbit: 8, Org: "x8", NumChips: 8, DateCode: "2135",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(45.0), kilo(22.6)},
			RP78:  PaperACmin{kilo(6.9), kilo(2.9)},
			RP702: PaperACmin{762, 316},
			C78:   PaperACmin{kilo(11.4), kilo(3.2)},
			C702:  PaperACmin{kilo(1.3), 354},
			TRH:   PaperTime{2.4, 1.2}, TRP78: PaperTime{53.8, 22.7},
			TRP702: PaperTime{53.5, 22.2}, TC78: PaperTime{44.8, 12.6},
			TC702: PaperTime{45.6, 12.4},
		},
	},
	{
		ID: "S1", Mfr: MfrS, Vendor: "Samsung",
		DIMMPart: "M378A1K43DB2-CTD", DRAMPart: "K4A8G085WD-BCTD",
		DieRev: "D", DensityGbit: 8, Org: "x8", NumChips: 8, DateCode: "2110",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(28.6), kilo(16.2)},
			RP78:  PaperACmin{kilo(6.7), kilo(2.5)},
			RP702: PaperACmin{739, 280},
			C78:   PaperACmin{kilo(10.3), kilo(2.5)},
			C702:  PaperACmin{kilo(1.2), 292},
			TRH:   PaperTime{1.6, 0.9}, TRP78: PaperTime{52.4, 19.2},
			TRP702: PaperTime{51.8, 19.7}, TC78: PaperTime{40.5, 9.7},
			TC702: PaperTime{41.2, 10.3},
		},
	},
	{
		ID: "S2", Mfr: MfrS, Vendor: "Samsung",
		DIMMPart: "M378A1K43DB2-CTD", DRAMPart: "K4A8G085WD-BCTD",
		DieRev: "D", DensityGbit: 8, Org: "x8", NumChips: 8, DateCode: "2110",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(28.8), kilo(16.0)},
			RP78:  PaperACmin{kilo(5.8), kilo(1.6)},
			RP702: PaperACmin{648, 180},
			C78:   PaperACmin{kilo(7.2), kilo(1.6)},
			C702:  PaperACmin{798, 184},
			TRH:   PaperTime{1.6, 0.9}, TRP78: PaperTime{45.5, 12.3},
			TRP702: PaperTime{45.5, 12.6}, TC78: PaperTime{28.2, 6.4},
			TC702: PaperTime{28.0, 6.5},
		},
	},
	{
		ID: "S3", Mfr: MfrS, Vendor: "Samsung",
		DIMMPart: "M378A1K43DB2-CTD", DRAMPart: "K4A8G085WD-BCTD",
		DieRev: "D", DensityGbit: 8, Org: "x8", NumChips: 8, DateCode: "2110",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(29.2), kilo(15.8)},
			RP78:  PaperACmin{kilo(6.5), kilo(1.6)},
			RP702: PaperACmin{717, 186},
			C78:   PaperACmin{kilo(9.0), kilo(1.6)},
			C702:  PaperACmin{kilo(1.0), 174},
			TRH:   PaperTime{1.6, 0.9}, TRP78: PaperTime{50.5, 12.8},
			TRP702: PaperTime{50.3, 13.0}, TC78: PaperTime{35.2, 6.4},
			TC702: PaperTime{35.3, 6.1},
		},
	},
	{
		ID: "S4", Mfr: MfrS, Vendor: "Samsung",
		DIMMPart: "M471A4G43AB1-CWE", DRAMPart: "K4AAG085WA-BCWE",
		DieRev: "A", DensityGbit: 16, Org: "x8", NumChips: 8, DateCode: "2212",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(31.3), kilo(17.0)},
			RP78:  PaperACmin{kilo(7.6), kilo(7.5)},
			RP702: PaperACmin{}, // No Bitflip within the 60 ms budget.
			C78:   PaperACmin{kilo(14.0), kilo(9.4)},
			C702:  PaperACmin{kilo(1.5), kilo(1.5)},
			TRH:   PaperTime{1.7, 0.9}, TRP78: PaperTime{59.6, 58.2},
			TRP702: PaperTime{}, TC78: PaperTime{55.1, 36.9},
			TC702: PaperTime{54.4, 51.4},
		},
	},
	{
		ID: "H0", Mfr: MfrH, Vendor: "Kingston",
		DIMMPart: "KSM32RD8/16HDR", DRAMPart: "H5AN8G8NDJR-XNC",
		DieRev: "D", DensityGbit: 8, Org: "x8", NumChips: 4, DateCode: "2048",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(43.4), kilo(16.0)},
			RP78:  PaperACmin{kilo(6.5), kilo(3.0)},
			RP702: PaperACmin{724, 312},
			C78:   PaperACmin{kilo(8.2), kilo(3.0)},
			C702:  PaperACmin{935, 324},
			TRH:   PaperTime{2.3, 0.9}, TRP78: PaperTime{51.0, 23.1},
			TRP702: PaperTime{50.8, 21.9}, TC78: PaperTime{32.3, 11.7},
			TC702: PaperTime{32.8, 11.4},
		},
	},
	{
		ID: "H1", Mfr: MfrH, Vendor: "Kingston",
		DIMMPart: "KSM32RD8/16HDR", DRAMPart: "H5AN8G8NDJR-XNC",
		DieRev: "D", DensityGbit: 8, Org: "x8", NumChips: 4, DateCode: "2048",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(45.6), kilo(21.4)},
			RP78:  PaperACmin{kilo(4.7), kilo(1.6)},
			RP702: PaperACmin{509, 170},
			C78:   PaperACmin{kilo(6.0), kilo(1.7)},
			C702:  PaperACmin{646, 184},
			TRH:   PaperTime{2.5, 1.2}, TRP78: PaperTime{36.4, 12.1},
			TRP702: PaperTime{35.8, 11.9}, TC78: PaperTime{23.6, 6.7},
			TC702: PaperTime{22.7, 6.5},
		},
	},
	{
		ID: "H2", Mfr: MfrH, Vendor: "SK Hynix",
		DIMMPart: "HMAA4GU6AJR8N-XN", DRAMPart: "H5ANAG8NAJR-XN",
		DieRev: "C", DensityGbit: 16, Org: "x8", NumChips: 4, DateCode: "2051",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(33.1), kilo(15.8)},
			RP78:  PaperACmin{kilo(6.9), kilo(3.5)},
			RP702: PaperACmin{699, 376},
			C78:   PaperACmin{kilo(13.7), kilo(3.5)},
			C702:  PaperACmin{kilo(1.5), 386},
			TRH:   PaperTime{1.8, 0.9}, TRP78: PaperTime{54.1, 27.3},
			TRP702: PaperTime{54.8, 20.5}, TC78: PaperTime{53.6, 13.7},
			TC702: PaperTime{51.5, 13.6},
		},
	},
	{
		ID: "H3", Mfr: MfrH, Vendor: "SK Hynix",
		DIMMPart: "HMAA4GU6AJR8N-XN", DRAMPart: "H5ANAG8NAJR-XN",
		DieRev: "C", DensityGbit: 16, Org: "x8", NumChips: 4, DateCode: "2051",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(32.9), kilo(15.9)},
			RP78:  PaperACmin{kilo(7.6), kilo(6.7)},
			RP702: PaperACmin{839, 814},
			C78:   PaperACmin{kilo(13.7), kilo(7.0)},
			C702:  PaperACmin{kilo(1.4), 794},
			TRH:   PaperTime{1.8, 0.9}, TRP78: PaperTime{59.5, 52.8},
			TRP702: PaperTime{58.9, 57.1}, TC78: PaperTime{53.9, 27.3},
			TC702: PaperTime{50.1, 27.9},
		},
	},
	{
		ID: "M0", Mfr: MfrM, Vendor: "Crucial",
		DIMMPart: "CT4G4DFS8266.C8FF", DRAMPart: "CT40K512M8SA-075E:F",
		DieRev: "F", DensityGbit: 4, Org: "x16", NumChips: 4, DateCode: "2107",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(71.0), kilo(31.0)},
			RP78:  PaperACmin{kilo(6.9), kilo(3.6)},
			RP702: PaperACmin{755, 396},
			C78:   PaperACmin{kilo(12.7), kilo(3.7)},
			C702:  PaperACmin{kilo(1.5), 410},
			TRH:   PaperTime{3.8, 1.7}, TRP78: PaperTime{53.6, 27.9},
			TRP702: PaperTime{53.0, 27.8}, TC78: PaperTime{49.9, 14.3},
			TC702: PaperTime{51.0, 14.4},
		},
	},
	{
		ID: "M1", Mfr: MfrM, Vendor: "Micron",
		DIMMPart: "MTA18ASF2G72PZ-2G3B1", DRAMPart: "MT40A2G4WE-083E:B",
		DieRev: "B", DensityGbit: 8, Org: "x8", NumChips: 8, DateCode: "1911",
		Paper: PaperNumbers{
			RH:  PaperACmin{kilo(192.7), kilo(83.6)},
			TRH: PaperTime{10.4, 4.5},
			// All RowPress and combined cells: No Bitflip.
		},
	},
	{
		ID: "M2", Mfr: MfrM, Vendor: "Micron",
		DIMMPart: "MTA18ASF2G72PZ-2G3B1", DRAMPart: "MT40A2G4WE-083E:B",
		DieRev: "B", DensityGbit: 8, Org: "x8", NumChips: 8, DateCode: "1903",
		Paper: PaperNumbers{
			RH:  PaperACmin{kilo(170.0), kilo(75.2)},
			TRH: PaperTime{9.2, 4.1},
		},
	},
	{
		ID: "M3", Mfr: MfrM, Vendor: "Micron",
		DIMMPart: "MTA4ATF1G64HZ-3G2B2", DRAMPart: "MT40A1G16RC-062E:B",
		DieRev: "B", DensityGbit: 16, Org: "x16", NumChips: 4, DateCode: "2126",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(53.5), kilo(26.0)},
			RP78:  PaperACmin{kilo(7.6), kilo(7.3)},
			RP702: PaperACmin{833, 802},
			C78:   PaperACmin{kilo(13.6), kilo(9.0)},
			C702:  PaperACmin{kilo(1.6), kilo(1.0)},
			TRH:   PaperTime{2.9, 1.4}, TRP78: PaperTime{59.2, 59.3},
			TRP702: PaperTime{58.5, 56.3}, TC78: PaperTime{53.4, 35.2},
			TC702: PaperTime{54.8, 35.5},
		},
	},
	{
		ID: "M4", Mfr: MfrM, Vendor: "Micron",
		DIMMPart: "MTA4ATF1G64HZ-3G2E1", DRAMPart: "MT40A1G16KD-062E:E",
		DieRev: "E", DensityGbit: 16, Org: "x16", NumChips: 4, DateCode: "2046",
		Paper: PaperNumbers{
			RH:    PaperACmin{kilo(20.2), kilo(10.7)},
			RP78:  PaperACmin{kilo(7.1), kilo(2.6)},
			RP702: PaperACmin{790, 272},
			C78:   PaperACmin{kilo(8.9), kilo(2.7)},
			C702:  PaperACmin{kilo(1.3), 296},
			TRH:   PaperTime{1.1, 0.6}, TRP78: PaperTime{55.2, 20.4},
			TRP702: PaperTime{55.5, 19.1}, TC78: PaperTime{34.9, 10.7},
			TC702: PaperTime{44.3, 10.4},
		},
	},
}

// rowsTested is the paper's per-module row sample (3 x 1K rows).
const rowsTested = 3000

// Profile inverts the module's Table 2 ground truth into a device profile
// (DESIGN.md section 6).
func (mi ModuleInfo) Profile(params device.DisturbParams) device.Profile {
	p := device.Profile{
		Serial:           fmt.Sprintf("%s-%s-%s", mi.ID, mi.DRAMPart, mi.DateCode),
		HammerACmin:      mi.Paper.RH.Avg,
		RowSigmaHammer:   device.RowSigmaFromAvgMinRatio(ratioOr(mi.Paper.RH), rowsTested),
		RunSigma:         mi.runSigma(),
		WeakCellsPerMech: 24,
		CellSpacing:      0.04,
		RetentionMin:     70 * time.Millisecond,
	}

	// Per-module weak-side press coupling: Table 2's combined-vs-double
	// ACmin ratios directly measure (1 + coupling); use the mean of the
	// 7.8 us and 70.2 us ratios when available.
	p.WeakSideCoupling = mi.weakSideCoupling(params)

	// Press calibration: prefer double-sided RowPress at 70.2 us; if the
	// paper reports No Bitflip there (S4), fall back to the combined
	// pattern at 70.2 us. If every press cell is No Bitflip (M1, M2) the
	// die is press-immune.
	extra702 := (timing.AggOnNineTREFI - timing.TRAS).Seconds()
	weakGain := 1 + p.WeakSideCoupling
	interLoss := 1 - params.InterleavePenalty
	switch {
	case !mi.Paper.RP702.NoBitflip():
		iters := mi.Paper.RP702.Avg / 2
		p.PressTau = secondsToDuration(iters * weakGain * interLoss * extra702)
		p.RowSigmaPress = device.RowSigmaFromAvgMinRatio(ratioOr(mi.Paper.RP702), rowsTested)
	case !mi.Paper.C702.NoBitflip():
		// The double-sided pattern is "No Bitflip" on this module
		// (S4): its 2x-longer iterations push the press threshold past
		// the 60 ms budget while the combined pattern's single long
		// open still fits. Inflate the derived threshold by 6% so the
		// boundary survives run-to-run noise, mirroring the margin a
		// real chip evidently has.
		iters := mi.Paper.C702.Avg / 2
		p.PressTau = secondsToDuration(iters * interLoss * extra702 * 1.10)
		p.RowSigmaPress = device.RowSigmaFromAvgMinRatio(ratioOr(mi.Paper.C702), rowsTested)
	default:
		p.PressImmune = true
		p.RowSigmaPress = 0.15
	}

	p.HammerPressSens = mi.hammerPressSens(params, p)

	// Bitflip directionality by die layout (Fig. 5): Mfr. S and H dies
	// show mostly 0->1 hammer flips and almost exclusively 1->0 press
	// flips; Mfr. M dies are inverted, except the 16Gb B-die which
	// follows the S/H trend (paper footnote 2).
	switch {
	case mi.Mfr == MfrM && !(mi.DensityGbit == 16 && mi.DieRev == "B"):
		p.HammerOneToZeroFrac = 0.82
		p.PressOneToZeroFrac = 0.10
	default:
		p.HammerOneToZeroFrac = 0.28
		p.PressOneToZeroFrac = 0.97
	}
	return p
}

// weakSideCoupling inverts the per-module weak-side press coupling from
// the combined/double ACmin ratios of Table 2: under press-dominated
// conditions ACmin_combined / ACmin_double = 1 + coupling (the combined
// pattern loses the weak aggressor's press contribution entirely).
func (mi ModuleInfo) weakSideCoupling(params device.DisturbParams) float64 {
	var ratios []float64
	if !mi.Paper.RP702.NoBitflip() && !mi.Paper.C702.NoBitflip() {
		ratios = append(ratios, mi.Paper.C702.Avg/mi.Paper.RP702.Avg)
	}
	if !mi.Paper.RP78.NoBitflip() && !mi.Paper.C78.NoBitflip() {
		ratios = append(ratios, mi.Paper.C78.Avg/mi.Paper.RP78.Avg)
	}
	if len(ratios) == 0 {
		return params.WeakSideCoupling
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	eps := sum/float64(len(ratios)) - 1
	if eps < 0.05 {
		eps = 0.05
	}
	if eps > 1.5 {
		eps = 1.5
	}
	return eps
}

// hammerPressSens picks the hammer-cell press coupling. The global fit
// (1.888/us, from the single-sided time at tAggON = 636 ns, DESIGN.md
// section 3) is capped per DIMM by two families of constraints:
//
//  1. Undercut caps: hammer-weak cells must not flip before the press
//     cells at Table 2's flipping RowPress points, or the measured ACmin
//     would fall below the paper's value.
//  2. Budget caps: at Table 2's "No Bitflip" cells the hammer-cell press
//     path — for the module's weakest row and the worst-case per-cell
//     weak-side factor — must stay beyond the 60 ms experiment budget.
func (mi ModuleInfo) hammerPressSens(params device.DisturbParams, p device.Profile) float64 {
	const global = 1.888 // 1/us
	best := global
	eps := device.WeakSideCouplingOf(p, params)
	interLoss := 1 - params.InterleavePenalty
	tras := timing.TRAS
	trp := timing.TRP

	th := p.HammerACmin * params.Synergy // mean weakest hammer cell threshold
	minACmin := mi.Paper.RH.Min
	if minACmin <= 0 {
		minACmin = mi.Paper.RH.Avg / 2
	}

	type cellCase struct {
		aggOn    time.Duration
		target   PaperACmin
		combined bool
	}
	cases := []cellCase{
		{timing.AggOnTREFI, mi.Paper.RP78, false},
		{timing.AggOnNineTREFI, mi.Paper.RP702, false},
		{timing.AggOnTREFI, mi.Paper.C78, true},
		{timing.AggOnNineTREFI, mi.Paper.C702, true},
		// Budget-only guards at the sweep extreme for No-Bitflip dies.
		{timing.AggOnMax, extendNoBitflip(mi.Paper.RP702), false},
		{timing.AggOnMax, extendNoBitflip(mi.Paper.C702), true},
	}
	for _, cc := range cases {
		extraUs := (cc.aggOn - tras).Seconds() * 1e6
		hs := params.HammerBoost(cc.aggOn)
		// Per-iteration hammer and press terms, normalized so a cell
		// with double-sided ACmin N has per-iteration damage
		// (H + u*P) / N.
		var hTerm, pGain float64
		var iterTime time.Duration
		if cc.combined {
			hTerm = hs + 1
			pGain = 1 // the short weak-side act presses nothing
			iterTime = cc.aggOn + tras + 2*trp
		} else {
			hTerm = 2 * hs
			pGain = 1 + eps*device.WeakSideVarMax
			iterTime = 2 * (cc.aggOn + trp)
		}
		pTerm := pGain * interLoss * extraUs / params.Synergy

		switch {
		case cc.target.Avg < 0:
			// Sentinel from extendNoBitflip: the die flips at 70.2 us,
			// so no budget guard is needed at the sweep extreme.
			continue
		case !cc.target.NoBitflip():
			// Undercut cap (mean row): hammer iterations >= 1.15x the
			// press-cell iterations the paper implies.
			itersPress := cc.target.Avg / 2
			maxU := (th/params.Synergy/(1.15*itersPress) - hTerm) / pTerm
			if maxU < best {
				best = maxU
			}
		default:
			// Budget cap: the hammer path must need more than 1.6x the
			// iterations that fit in the 60 ms budget, evaluated for
			// the weakest row and the worst-case weak-side factor. The
			// 1.6 margin covers the extreme-value gap between the
			// paper's 3K-row sample (which sets minACmin) and a full
			// run's deeper tail (all dies x 3K rows x 3 repeats).
			budgetIters := float64(core60ms / iterTime)
			if budgetIters <= 0 {
				continue
			}
			maxU := (minACmin/(1.6*budgetIters) - hTerm) / pTerm
			if maxU < best {
				best = maxU
			}
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// core60ms mirrors core.DefaultBudget without importing it (chipdb is a
// leaf package).
const core60ms = 60 * time.Millisecond

// extendNoBitflip propagates a No-Bitflip marker to larger tAggON: if a
// die shows no press flips at 70.2 us it shows none at 300 us either
// (fewer activations fit in the budget). Flipping cells return a
// sentinel that the budget guard skips.
func extendNoBitflip(c PaperACmin) PaperACmin {
	if c.NoBitflip() {
		return PaperACmin{}
	}
	return PaperACmin{Avg: -1, Min: -1}
}

// runSigma derives the run-to-run measurement noise from the paper's own
// avg/min spread: a module whose press columns show avg == min (S4, H3)
// is evidently a tight, repeatable part, so its noise must be small or
// Table 2's budget-boundary "No Bitflip" cells would not be stable.
func (mi ModuleInfo) runSigma() float64 {
	minRatio := 1e9
	for _, c := range []PaperACmin{mi.Paper.RP78, mi.Paper.RP702, mi.Paper.C78, mi.Paper.C702} {
		if c.NoBitflip() {
			continue
		}
		if r := ratioOr(c); r < minRatio {
			minRatio = r
		}
	}
	if minRatio > 1e8 {
		return 0.03
	}
	s := (minRatio - 1) / 4
	if s > 0.03 {
		s = 0.03
	}
	if s < 0.002 {
		s = 0.002
	}
	return s
}

// ratioOr returns Avg/Min or a tight default when the paper's avg and min
// coincide.
func ratioOr(a PaperACmin) float64 {
	if a.Min <= 0 || a.Avg <= 0 {
		return 1.5
	}
	r := a.Avg / a.Min
	if r < 1.001 {
		r = 1.001
	}
	return r
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Geometry returns the per-bank row count and row width used for this
// module's density class.
func (mi ModuleInfo) Geometry() (numRows, rowBytes int) {
	numRows = 65536
	if mi.DensityGbit >= 16 {
		numRows = 131072
	}
	return numRows, 1024
}

// NewModule builds a simulated device for this DIMM with the inventory's
// chip count and a density-appropriate geometry.
func (mi ModuleInfo) NewModule(params device.DisturbParams, runSeed int64) (*device.Module, error) {
	rows, rowBytes := mi.Geometry()
	return device.NewModule(device.ModuleConfig{
		Profile:  mi.Profile(params),
		Params:   params,
		NumChips: mi.NumChips,
		NumRows:  rows,
		RowBytes: rowBytes,
		RunSeed:  runSeed,
	})
}
