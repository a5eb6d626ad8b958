// overlap_analysis compares WHICH bits flip under the combined pattern
// versus the conventional patterns on one module (the paper's Fig. 6 and
// Takeaway 2): at tAggON = tRAS the combined and double-sided patterns
// are identical (overlap 1.0); at intermediate on-times the patterns
// flip different cells; at large on-times both converge on the same
// press-vulnerable cells.
//
// Run with:
//
//	go run ./examples/overlap_analysis [module]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"rowfuse/internal/analysis"
	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func main() {
	moduleID := "H0"
	if len(os.Args) > 1 {
		moduleID = os.Args[1]
	}
	if err := run(moduleID); err != nil {
		log.Fatal(err)
	}
}

func run(moduleID string) error {
	mi, err := chipdb.ByID(moduleID)
	if err != nil {
		return err
	}
	params := device.DefaultParams()
	numRows, rowBytes := mi.Geometry()
	eng, err := core.NewAnalyticEngine(core.AnalyticConfig{
		Profile:  mi.Profile(params),
		Params:   params,
		NumRows:  numRows,
		RowBytes: rowBytes,
	})
	if err != nil {
		return err
	}

	rows := core.PaperRows(numRows, 120)
	fmt.Printf("module %s (%s): bitflip-set overlap of the combined pattern with the conventional patterns\n\n", mi.ID, mi.Mfr)
	fmt.Printf("%-10s %12s %12s %16s\n", "tAggON", "vs single", "vs double", "1->0 fraction")

	flipSet := func(kind pattern.Kind, aggOn time.Duration) (map[uint64]struct{}, int, float64, error) {
		spec, err := pattern.New(kind, aggOn, timing.Default())
		if err != nil {
			return nil, 0, 0, err
		}
		set := make(map[uint64]struct{})
		oneToZero, total := 0, 0
		for _, victim := range rows {
			res, err := eng.CharacterizeRow(victim, spec, core.RunOpts{})
			if err != nil {
				return nil, 0, 0, err
			}
			for _, f := range res.Flips {
				set[f.Key()] = struct{}{}
				total++
				if f.Dir == device.OneToZero {
					oneToZero++
				}
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(oneToZero) / float64(total)
		}
		return set, total, frac, nil
	}

	for _, aggOn := range timing.PaperSweep() {
		comb, _, frac, err := flipSet(pattern.Combined, aggOn)
		if err != nil {
			return err
		}
		single, _, _, err := flipSet(pattern.SingleSided, aggOn)
		if err != nil {
			return err
		}
		double, _, _, err := flipSet(pattern.DoubleSided, aggOn)
		if err != nil {
			return err
		}
		fmt.Printf("%-10v %12s %12s %16.2f\n",
			aggOn, overlap(comb, single), overlap(comb, double), frac)
	}
	return nil
}

// overlap renders |a ∩ b| / |b|, the paper's overlap definition.
func overlap(a, b map[uint64]struct{}) string {
	ratio, ok := analysis.Overlap(a, b)
	if !ok {
		return "no flips"
	}
	return fmt.Sprintf("%.2f", ratio)
}
