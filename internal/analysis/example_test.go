package analysis_test

import (
	"fmt"

	"rowfuse/internal/analysis"
)

// ExampleOverlap demonstrates the paper's Fig. 6 overlap definition:
// |A ∩ B| / |B|, asymmetric in its arguments.
func ExampleOverlap() {
	combined := map[string]struct{}{"r5:b100": {}, "r7:b8": {}, "r9:b63": {}}
	double := map[string]struct{}{"r5:b100": {}, "r7:b8": {}, "r8:b2": {}, "r9:b1": {}}
	ratio, ok := analysis.Overlap(combined, double)
	fmt.Printf("%v %.2f\n", ok, ratio)
	// Output: true 0.50
}
