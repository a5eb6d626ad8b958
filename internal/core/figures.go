package core

import (
	"time"

	"rowfuse/internal/analysis"
	"rowfuse/internal/chipdb"
	"rowfuse/internal/pattern"
)

// Fig4Point is one x-position of one curve of Fig. 4: the
// across-module mean and standard deviation of the per-module average
// time-to-first-bitflip and ACmin.
type Fig4Point struct {
	AggOn time.Duration
	// TimeMeanMs / TimeStdMs summarize per-module average time to the
	// first bitflip, in milliseconds.
	TimeMeanMs float64
	TimeStdMs  float64
	// ACminMean / ACminStd summarize per-module average ACmin.
	ACminMean float64
	ACminStd  float64
	// Modules is how many modules produced at least one bitflip at this
	// point; zero means the whole curve point is "No Bitflip".
	Modules int
}

// Fig4Series is one pattern's curve.
type Fig4Series []Fig4Point

// Fig4Data maps manufacturer -> pattern -> curve, i.e. the full content
// of Fig. 4 (both rows of plots).
type Fig4Data map[chipdb.Manufacturer]map[pattern.Kind]Fig4Series

// Fig4 extracts Fig. 4 from the study results. Every cell of the grid
// must have results; use PartialFig4 to render a live (incomplete)
// campaign.
func (s *Study) Fig4() (Fig4Data, error) {
	p := s.PartialFig4()
	sweep := s.SweepSorted()
	for _, mfr := range []chipdb.Manufacturer{chipdb.MfrS, chipdb.MfrH, chipdb.MfrM} {
		pend, ok := p.Pending[mfr]
		if !ok {
			continue
		}
		for _, k := range s.cfg.Patterns {
			for i, aggOn := range sweep {
				if pend[k][i] == 0 {
					continue
				}
				for _, mi := range modulesOf(s.cfg.Modules, mfr) {
					if _, err := s.mustResult(mi.ID, k, aggOn); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return p.Data, nil
}

// Fig5Point is one x-position of one die-type curve of Fig. 5.
type Fig5Point struct {
	AggOn time.Duration
	// OneToZeroFrac is the fraction of observed combined-pattern
	// bitflips with direction 1->0.
	OneToZeroFrac float64
	// Flips is the observation count behind the fraction.
	Flips int
}

// Fig5Data maps manufacturer -> die label -> curve.
type Fig5Data map[chipdb.Manufacturer]map[string][]Fig5Point

// Fig5 extracts the bitflip-directionality figure (combined pattern
// only, grouped per die type).
func (s *Study) Fig5() (Fig5Data, error) {
	out := make(Fig5Data)
	sweep := s.SweepSorted()
	for _, mfr := range []chipdb.Manufacturer{chipdb.MfrS, chipdb.MfrH, chipdb.MfrM} {
		byDie := make(map[string][]Fig5Point)
		for _, label := range dieLabels(s.cfg.Modules, mfr) {
			mods := modulesOfDie(s.cfg.Modules, mfr, label)
			curve := make([]Fig5Point, 0, len(sweep))
			for _, aggOn := range sweep {
				one, n := 0.0, 0
				for _, mi := range mods {
					r, err := s.mustResult(mi.ID, pattern.Combined, aggOn)
					if err != nil {
						return nil, err
					}
					f, cnt := r.OneToZeroFraction()
					one += f * float64(cnt)
					n += cnt
				}
				pt := Fig5Point{AggOn: aggOn, Flips: n}
				if n > 0 {
					pt.OneToZeroFrac = one / float64(n)
				}
				curve = append(curve, pt)
			}
			byDie[label] = curve
		}
		if len(byDie) > 0 {
			out[mfr] = byDie
		}
	}
	return out, nil
}

// Fig6Point is one x-position of one die-type overlap curve of Fig. 6.
type Fig6Point struct {
	AggOn time.Duration
	// Overlap is |combined ∩ conventional| / |conventional| over unique
	// bitflips, the paper's definition.
	Overlap float64
	// CombinedFlips / ConvFlips are the unique flip counts of the two
	// sets.
	CombinedFlips int
	ConvFlips     int
}

// Fig6Curves holds the two rows of Fig. 6 for one die type.
type Fig6Curves struct {
	// VsSingle is the overlap with the conventional single-sided
	// RowPress (RowHammer) pattern (top row of Fig. 6).
	VsSingle []Fig6Point
	// VsDouble is the overlap with the conventional double-sided
	// pattern (bottom row of Fig. 6).
	VsDouble []Fig6Point
}

// Fig6Data maps manufacturer -> die label -> curves.
type Fig6Data map[chipdb.Manufacturer]map[string]Fig6Curves

// Fig6 extracts the bitflip-overlap figure.
func (s *Study) Fig6() (Fig6Data, error) {
	out := make(Fig6Data)
	sweep := s.SweepSorted()
	for _, mfr := range []chipdb.Manufacturer{chipdb.MfrS, chipdb.MfrH, chipdb.MfrM} {
		byDie := make(map[string]Fig6Curves)
		for _, label := range dieLabels(s.cfg.Modules, mfr) {
			mods := modulesOfDie(s.cfg.Modules, mfr, label)
			var curves Fig6Curves
			for _, conv := range []pattern.Kind{pattern.SingleSided, pattern.DoubleSided} {
				pts := make([]Fig6Point, 0, len(sweep))
				for _, aggOn := range sweep {
					comb := make(map[uint64]struct{})
					convSet := make(map[uint64]struct{})
					for _, mi := range mods {
						rc, err := s.mustResult(mi.ID, pattern.Combined, aggOn)
						if err != nil {
							return nil, err
						}
						rv, err := s.mustResult(mi.ID, conv, aggOn)
						if err != nil {
							return nil, err
						}
						// Module index disambiguates keys across
						// modules of the same die type.
						off := uint64(hash16(mi.ID)) << 48
						for k := range rc.FlipKeys() {
							comb[off|k] = struct{}{}
						}
						for k := range rv.FlipKeys() {
							convSet[off|k] = struct{}{}
						}
					}
					overlap, _ := analysis.Overlap(comb, convSet)
					pts = append(pts, Fig6Point{
						AggOn:         aggOn,
						Overlap:       overlap,
						CombinedFlips: len(comb),
						ConvFlips:     len(convSet),
					})
				}
				if conv == pattern.SingleSided {
					curves.VsSingle = pts
				} else {
					curves.VsDouble = pts
				}
			}
			byDie[label] = curves
		}
		if len(byDie) > 0 {
			out[mfr] = byDie
		}
	}
	return out, nil
}

// Table2Row pairs a module's paper ground truth with the measured
// reproduction values in the same units and layout.
type Table2Row struct {
	Info chipdb.ModuleInfo
	// Measured reuses the PaperNumbers layout: ACmin in total
	// activations, times in milliseconds, zero = No Bitflip.
	Measured chipdb.PaperNumbers
}

// Table2 regenerates Table 2 of the paper. The study's sweep must
// include the three tAggON marks and the double-sided and combined
// patterns, and every mark cell must have results; use PartialTable2
// to render a live (incomplete) campaign.
func (s *Study) Table2() ([]Table2Row, error) {
	prows, _ := s.PartialTable2()
	rows := make([]Table2Row, 0, len(prows))
	for _, pr := range prows {
		for j, pending := range pr.Pending {
			if pending {
				c := table2MarkCells[j]
				if _, err := s.mustResult(pr.Info.ID, c.Kind, c.AggOn); err != nil {
					return nil, err
				}
			}
		}
		rows = append(rows, pr.Table2Row)
	}
	return rows, nil
}

func modulesOf(mods []chipdb.ModuleInfo, mfr chipdb.Manufacturer) []chipdb.ModuleInfo {
	var out []chipdb.ModuleInfo
	for _, mi := range mods {
		if mi.Mfr == mfr {
			out = append(out, mi)
		}
	}
	return out
}

func dieLabels(mods []chipdb.ModuleInfo, mfr chipdb.Manufacturer) []string {
	var labels []string
	seen := make(map[string]bool)
	for _, mi := range mods {
		if mi.Mfr != mfr {
			continue
		}
		l := mi.DieLabel()
		if !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	return labels
}

func modulesOfDie(mods []chipdb.ModuleInfo, mfr chipdb.Manufacturer, label string) []chipdb.ModuleInfo {
	var out []chipdb.ModuleInfo
	for _, mi := range mods {
		if mi.Mfr == mfr && mi.DieLabel() == label {
			out = append(out, mi)
		}
	}
	return out
}

// hash16 folds a module ID into 16 bits for flip-set key namespacing.
func hash16(s string) uint16 {
	var h uint16
	for i := 0; i < len(s); i++ {
		h = h*31 + uint16(s[i])
	}
	return h
}
