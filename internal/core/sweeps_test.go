package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func TestTempSweep(t *testing.T) {
	spec := testSpec(t, pattern.Combined, 636*time.Nanosecond)
	pts, err := TempSweep(TempSweepConfig{
		Module:        mustModule(t, "S1"),
		Spec:          spec,
		Temps:         []float64{40, 50, 65, 85},
		RowsPerRegion: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	// ACmin must fall monotonically with temperature (Arrhenius
	// acceleration).
	for i := 1; i < len(pts); i++ {
		if pts[i].Flipped == 0 || pts[i-1].Flipped == 0 {
			continue
		}
		if pts[i].ACmin.Mean >= pts[i-1].ACmin.Mean {
			t.Errorf("ACmin not decreasing with temperature: %.0f@%gC >= %.0f@%gC",
				pts[i].ACmin.Mean, pts[i].TempC, pts[i-1].ACmin.Mean, pts[i-1].TempC)
		}
	}
	if _, err := TempSweep(TempSweepConfig{Module: mustModule(t, "S1"), Spec: spec}); err == nil {
		t.Error("empty temperature list accepted")
	}
}

func TestDataPatternSweep(t *testing.T) {
	spec := testSpec(t, pattern.DoubleSided, timing.TRAS)
	pts, err := DataPatternSweep(DataPatternSweepConfig{
		Module:        mustModule(t, "S1"),
		Spec:          spec,
		RowsPerRegion: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d patterns", len(pts))
	}
	byPattern := map[device.DataPattern]DataPatternPoint{}
	for _, pt := range pts {
		byPattern[pt.Pattern] = pt
	}
	// All-ones victims can only flip 1->0; all-zeros only 0->1.
	if p := byPattern[device.AllOnes]; p.Flipped > 0 && p.OneToZeroFrac != 1 {
		t.Errorf("all-ones 1->0 fraction = %g, want 1", p.OneToZeroFrac)
	}
	if p := byPattern[device.AllZeros]; p.Flipped > 0 && p.OneToZeroFrac != 0 {
		t.Errorf("all-zeros 1->0 fraction = %g, want 0", p.OneToZeroFrac)
	}
	// Checkerboard (the calibration anchor) must flip at least as many
	// rows as any single-polarity pattern.
	cb := byPattern[device.Checkerboard]
	for _, dp := range []device.DataPattern{device.AllOnes, device.AllZeros} {
		if byPattern[dp].Flipped > cb.Flipped {
			t.Errorf("%v flipped more rows (%d) than checkerboard (%d)",
				dp, byPattern[dp].Flipped, cb.Flipped)
		}
	}
}

// TestPressLinearity verifies the model property the calibration relies
// on (DESIGN.md section 3): in the press-dominated regime, per-row ACmin
// is inverse-linear in the extra on-time — a power-law fit of ACmin vs
// (tAggON - tRAS) must have exponent ~ -1.
func TestPressLinearity(t *testing.T) {
	e := testEngine(t, "S0")
	var x, y []float64
	for _, aggOn := range []time.Duration{
		20 * time.Microsecond, 40 * time.Microsecond,
		timing.AggOnNineTREFI, 150 * time.Microsecond,
	} {
		spec := testSpec(t, pattern.DoubleSided, aggOn)
		res, err := e.CharacterizeRow(900, spec, RunOpts{Budget: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.NoBitflip {
			t.Fatalf("no flip at %v", aggOn)
		}
		x = append(x, (aggOn - timing.TRAS).Seconds())
		y = append(y, float64(res.ACmin))
	}
	_, b, r2, err := fitPowerLaw(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if b < -1.1 || b > -0.85 {
		t.Errorf("press-regime exponent = %.3f, want ~ -1 (inverse-linear)", b)
	}
	if r2 < 0.98 {
		t.Errorf("power-law fit R2 = %.3f, want ~1", r2)
	}
}

// linFit is a least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type linFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// fitLine computes an ordinary least-squares fit.
func fitLine(x, y []float64) (linFit, error) {
	if len(x) != len(y) {
		return linFit{}, fmt.Errorf("x/y length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return linFit{}, fmt.Errorf("need at least two points")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linFit{}, fmt.Errorf("degenerate x values")
	}
	f := linFit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot > 0 {
		var ssRes float64
		for i := range x {
			r := y[i] - (f.Slope*x[i] + f.Intercept)
			ssRes += r * r
		}
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

// fitPowerLaw fits y = a * x^b via a log-log linear fit and returns
// (a, b, R2 of the log fit). All inputs must be positive.
func fitPowerLaw(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, fmt.Errorf("x/y length mismatch %d vs %d", len(x), len(y))
	}
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("power-law fit needs positive data (index %d)", i)
		}
		lx = append(lx, math.Log(x[i]))
		ly = append(ly, math.Log(y[i]))
	}
	fit, err := fitLine(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return math.Exp(fit.Intercept), fit.Slope, fit.R2, nil
}
