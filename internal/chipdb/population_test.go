package chipdb

import (
	"math"
	"reflect"
	"testing"

	"rowfuse/internal/device"
)

func TestDeriveDeterministic(t *testing.T) {
	m1 := NewPopulation(42)
	m2 := NewPopulation(42)
	// Derivation order and interleaving must not matter.
	for _, i := range []int{0, 99999, 7, 12345, 7} {
		a := m1.Derive(i)
		b := m2.Derive(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("chip %d differs across identical models", i)
		}
	}
	// A different seed changes the fleet.
	if reflect.DeepEqual(NewPopulation(42).Derive(5), NewPopulation(43).Derive(5)) {
		t.Error("seed change did not change chip 5")
	}
}

func TestDeriveProfiles(t *testing.T) {
	m := NewPopulation(1)
	params := device.DefaultParams()
	for i := 0; i < 200; i++ {
		c := m.Derive(i)
		if c.Index != i {
			t.Fatalf("chip %d: Index = %d", i, c.Index)
		}
		if c.Info.ID == c.Base.ID {
			t.Fatalf("chip %d: synthetic ID not namespaced", i)
		}
		if c.ProcessScale <= 0 || c.PressScale <= 0 {
			t.Fatalf("chip %d: non-positive scales %v %v", i, c.ProcessScale, c.PressScale)
		}
		// The synthetic Paper numbers must invert cleanly.
		p := c.Info.Profile(params)
		if p.HammerACmin <= 0 || math.IsNaN(p.HammerACmin) {
			t.Fatalf("chip %d: bad HammerACmin %v", i, p.HammerACmin)
		}
		want := c.Base.Paper.RH.Avg * c.ProcessScale
		if math.Abs(p.HammerACmin-want)/want > 1e-9 {
			t.Fatalf("chip %d: HammerACmin %v, want %v", i, p.HammerACmin, want)
		}
		// Press immunity is inherited, never invented.
		if c.Base.Profile(params).PressImmune != p.PressImmune {
			t.Fatalf("chip %d: press immunity changed (base %s)", i, c.Base.ID)
		}
		if c.GroupKey() == "" {
			t.Fatalf("chip %d: empty group key", i)
		}
	}
}

func TestDeriveVendorMixAndSpread(t *testing.T) {
	m := NewPopulation(7)
	const n = 5000
	counts := map[Manufacturer]int{}
	var logSum, logSq float64
	for i := 0; i < n; i++ {
		c := m.Derive(i)
		counts[c.Base.Mfr]++
		l := math.Log(c.ProcessScale)
		logSum += l
		logSq += l * l
	}
	// Inventory chip weights: S = 40/84, H = 16/84, M = 28/84.
	wantS := 40.0 / 84
	if frac := float64(counts[MfrS]) / n; math.Abs(frac-wantS) > 0.03 {
		t.Errorf("Mfr. S fraction %v, want ~%v", frac, wantS)
	}
	if counts[MfrH] == 0 || counts[MfrM] == 0 {
		t.Error("vendor missing from fleet sample")
	}
	// Process corner spread matches the prior.
	mean := logSum / n
	sigma := math.Sqrt(logSq/n - mean*mean)
	if math.Abs(sigma-DefaultProcessSigma) > 0.02 {
		t.Errorf("process log-sigma %v, want ~%v", sigma, DefaultProcessSigma)
	}
}

func TestDeriveBuildsModules(t *testing.T) {
	m := NewPopulation(3)
	params := device.DefaultParams()
	c := m.Derive(11)
	// A synthetic chip builds a simulated bank from its profile and
	// geometry, as an inventory module does.
	rows, rowBytes := c.Info.Geometry()
	if _, err := device.NewBank(device.BankConfig{
		Profile: c.Info.Profile(params), Params: params, NumRows: rows, RowBytes: rowBytes, RunSeed: c.RunSeed,
	}); err != nil {
		t.Fatal(err)
	}
}
