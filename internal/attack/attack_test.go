package attack

import (
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func scanEngine(t *testing.T) *core.AnalyticEngine {
	t.Helper()
	mi, err := chipdb.ByID("S1")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	e, err := core.NewAnalyticEngine(core.AnalyticConfig{
		Profile: mi.Profile(params),
		Params:  params,
		NumRows: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func scanSpec(t *testing.T, k pattern.Kind, aggOn time.Duration) pattern.Spec {
	t.Helper()
	s, err := pattern.New(k, aggOn, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 100 + i
	}
	return out
}

func TestScanFindsTemplates(t *testing.T) {
	e := scanEngine(t)
	spec := scanSpec(t, pattern.Combined, 636*time.Nanosecond)
	templates, err := Scan(ScanConfig{Engine: e, Spec: spec, Rows: rows(60)})
	if err != nil {
		t.Fatal(err)
	}
	if len(templates) < 30 {
		t.Fatalf("only %d templates from 60 rows", len(templates))
	}
	for i := 1; i < len(templates); i++ {
		if templates[i].Time < templates[i-1].Time {
			t.Fatal("templates not sorted by time")
		}
	}
	for _, tpl := range templates {
		if tpl.ACmin <= 0 || tpl.Time <= 0 {
			t.Errorf("degenerate template %+v", tpl)
		}
	}
}

func TestScanMaxTimeFilter(t *testing.T) {
	e := scanEngine(t)
	spec := scanSpec(t, pattern.Combined, 636*time.Nanosecond)
	all, err := Scan(ScanConfig{Engine: e, Spec: spec, Rows: rows(60)})
	if err != nil {
		t.Fatal(err)
	}
	cutoff := all[len(all)/2].Time
	filtered, err := Scan(ScanConfig{Engine: e, Spec: spec, Rows: rows(60), MaxTime: cutoff})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) >= len(all) {
		t.Error("filter removed nothing")
	}
	for _, tpl := range filtered {
		if tpl.Time > cutoff {
			t.Errorf("template at %v past cutoff %v", tpl.Time, cutoff)
		}
	}
}

func TestScanValidation(t *testing.T) {
	if _, err := Scan(ScanConfig{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Scan(ScanConfig{Engine: scanEngine(t)}); err == nil {
		t.Error("empty rows accepted")
	}
}

func TestPTEClassification(t *testing.T) {
	layout := DefaultPTE()
	tests := []struct {
		bit  int
		want Classify
	}{
		{0, PresentBit},  // entry 0, bit 0
		{64, PresentBit}, // entry 1, bit 0
		{12, FrameBit},   // entry 0, PFN low
		{51, FrameBit},   // entry 0, PFN high
		{64 + 20, FrameBit},
		{5, Useless},  // flags
		{62, Useless}, // above PFN
	}
	for _, tc := range tests {
		if got := layout.ClassifyBit(tc.bit); got != tc.want {
			t.Errorf("bit %d = %v, want %v", tc.bit, got, tc.want)
		}
	}
	for _, c := range []Classify{Useless, FrameBit, PresentBit, Classify(9)} {
		if c.String() == "" {
			t.Error("empty classification name")
		}
	}
}

func TestEvaluatePTE(t *testing.T) {
	layout := DefaultPTE()
	templates := []Template{
		{Bit: 12, Time: 5 * time.Millisecond}, // frame
		{Bit: 20, Time: 2 * time.Millisecond}, // frame (faster)
		{Bit: 0, Time: time.Millisecond},      // present
		{Bit: 5, Time: time.Millisecond},      // useless
	}
	rep := EvaluatePTE(layout, templates)
	if rep.Templates != 4 || rep.FrameBits != 2 || rep.PresentBits != 1 || rep.Useless != 1 {
		t.Errorf("report %+v", rep)
	}
	if rep.FastestExploitable != 2*time.Millisecond {
		t.Errorf("fastest = %v, want 2ms", rep.FastestExploitable)
	}
}

// TestCombinedPatternImprovesAttackEconomics is the threat-model
// restatement of Observation 1: at tAggON = 636 ns the combined pattern
// reaches an exploitable flip faster than double-sided RowPress.
func TestCombinedPatternImprovesAttackEconomics(t *testing.T) {
	e := scanEngine(t)
	fastest := func(k pattern.Kind) time.Duration {
		t.Helper()
		templates, err := Scan(ScanConfig{Engine: e, Spec: scanSpec(t, k, 636*time.Nanosecond), Rows: rows(120)})
		if err != nil {
			t.Fatal(err)
		}
		d := EvaluatePTE(DefaultPTE(), templates).FastestExploitable
		if d == 0 {
			t.Fatalf("%v: no exploitable template", k)
		}
		return d
	}
	ratio := fastest(pattern.Combined).Seconds() / fastest(pattern.DoubleSided).Seconds()
	if ratio >= 1 {
		t.Errorf("combined/double fastest-exploit time ratio = %.2f, want < 1", ratio)
	}
	if ratio < 0.4 {
		t.Errorf("ratio %.2f implausibly small", ratio)
	}
}
