package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateBaseline() snapshot {
	return snapshot{
		Schema: "rowfuse-bench/v1",
		Benchmarks: []benchResult{
			{Name: "AnalyticCharacterizeRow", NsPerOp: 9000, AllocsPerOp: 4},
			{Name: "GenerateRowCells", NsPerOp: 9400, AllocsPerOp: 10},
			{Name: "StudyCampaign", NsPerOp: 57_000_000, AllocsPerOp: 7847},
		},
	}
}

func TestCompareSnapshotsPasses(t *testing.T) {
	fresh := gateBaseline()
	// Mild wobble everywhere: slower row benchmark (not time-critical),
	// campaign within tolerance, campaign allocs above baseline (not
	// alloc-guarded).
	fresh.Benchmarks[0].NsPerOp = 20000
	fresh.Benchmarks[2].NsPerOp = 57_000_000 * 1.25
	fresh.Benchmarks[2].AllocsPerOp = 9000
	if v := compareSnapshots(gateBaseline(), fresh, 0.30, 100); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCompareSnapshotsCatchesCampaignTimeRegression(t *testing.T) {
	fresh := gateBaseline()
	fresh.Benchmarks[2].NsPerOp = 57_000_000 * 1.5
	v := compareSnapshots(gateBaseline(), fresh, 0.30, 100)
	if len(v) != 1 || !strings.Contains(v[0], "StudyCampaign") || !strings.Contains(v[0], "ns/op") {
		t.Fatalf("violations: %v", v)
	}
}

func TestCompareSnapshotsCatchesAllocIncrease(t *testing.T) {
	fresh := gateBaseline()
	fresh.Benchmarks[0].AllocsPerOp = 5 // guarded: baseline 4 <= 100
	v := compareSnapshots(gateBaseline(), fresh, 0.30, 100)
	if len(v) != 1 || !strings.Contains(v[0], "AnalyticCharacterizeRow") || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("violations: %v", v)
	}
	// Fewer allocations is progress, not a violation.
	fresh = gateBaseline()
	fresh.Benchmarks[1].AllocsPerOp = 2
	if v := compareSnapshots(gateBaseline(), fresh, 0.30, 100); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

func TestCompareSnapshotsCatchesMissingBenchmark(t *testing.T) {
	fresh := gateBaseline()
	fresh.Benchmarks = fresh.Benchmarks[:2] // StudyCampaign vanished
	v := compareSnapshots(gateBaseline(), fresh, 0.30, 100)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations: %v", v)
	}
}

func TestNewestBaseline(t *testing.T) {
	dir := t.TempDir()
	if _, err := newestBaseline(dir, ""); err == nil {
		t.Fatal("empty dir should have no baseline")
	}
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_ci.json", "bench-fresh.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path, err := newestBaseline(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_10.json" {
		t.Fatalf("newest = %s, want BENCH_10.json", path)
	}
	// The file the gate itself just wrote is never its own baseline.
	path, err = newestBaseline(dir, filepath.Join(dir, "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2.json" {
		t.Fatalf("with exclusion: %s, want BENCH_2.json", path)
	}
}

func TestCompareSnapshotsSkipsNsOnForeignHost(t *testing.T) {
	fresh := gateBaseline()
	fresh.CPUs = 64 // a different machine shape
	fresh.Benchmarks[2].NsPerOp *= 10
	fresh.Benchmarks[0].AllocsPerOp = 5
	v := compareSnapshots(gateBaseline(), fresh, 0.30, 100)
	// The ns/op rule is meaningless across hardware and is skipped;
	// the exact allocs/op rule still fires.
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("violations: %v", v)
	}
}

// TestCompareSnapshotsWarnsNotFailsOnVectorMismatch: a baseline taken
// under different vector dispatch must not produce ns/op failures (the
// numbers are dispatch artifacts), while the exact allocs/op rule
// still fires; matching or unrecorded dispatch keeps the ns rule.
func TestCompareSnapshotsWarnsNotFailsOnVectorMismatch(t *testing.T) {
	baseline := gateBaseline()
	baseline.CPUFeature, baseline.GOAMD64 = "avx2", "v3"
	fresh := gateBaseline()
	fresh.CPUFeature, fresh.GOAMD64 = "scalar", "v3"
	fresh.Benchmarks[2].NsPerOp *= 10 // would fail under matching dispatch
	fresh.Benchmarks[0].AllocsPerOp = 5
	v := compareSnapshots(baseline, fresh, 0.30, 100)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("violations: %v", v)
	}

	// Same dispatch: the ns rule is active and catches the slide.
	fresh = gateBaseline()
	fresh.CPUFeature, fresh.GOAMD64 = "avx2", "v3"
	fresh.Benchmarks[2].NsPerOp *= 10
	if v := compareSnapshots(baseline, fresh, 0.30, 100); len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Fatalf("violations: %v", v)
	}

	// A baseline predating the fields compares as equal: old
	// trajectories keep their ns rule.
	old := gateBaseline()
	if v := compareSnapshots(old, fresh, 0.30, 100); len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Fatalf("violations vs fieldless baseline: %v", v)
	}
}

// TestCompareSnapshotsGatesKernelBenchmarks: the SIMD solve and the
// bulk bank fast-forward are time-critical alongside the campaign.
func TestCompareSnapshotsGatesKernelBenchmarks(t *testing.T) {
	baseline := gateBaseline()
	baseline.Benchmarks = append(baseline.Benchmarks,
		benchResult{Name: "SolveBatch", NsPerOp: 220, AllocsPerOp: 0},
		benchResult{Name: "BankEngineCharacterizeRowDenseCells", NsPerOp: 290_000, AllocsPerOp: 1})
	fresh := gateBaseline()
	fresh.Benchmarks = append(fresh.Benchmarks,
		benchResult{Name: "SolveBatch", NsPerOp: 700, AllocsPerOp: 0},
		benchResult{Name: "BankEngineCharacterizeRowDenseCells", NsPerOp: 640_000, AllocsPerOp: 1})
	v := compareSnapshots(baseline, fresh, 0.30, 100)
	if len(v) != 2 {
		t.Fatalf("violations: %v", v)
	}
	for i, name := range []string{"BankEngineCharacterizeRowDenseCells", "SolveBatch"} {
		found := false
		for _, line := range v {
			if strings.Contains(line, name) && strings.Contains(line, "ns/op") {
				found = true
			}
		}
		if !found {
			t.Errorf("violation %d: no ns/op line for %s in %v", i, name, v)
		}
	}
}

// TestCompareSnapshotsGatesMitigationCampaign: losing the guarded
// bank's refresh-window skip (MitigationCampaign back to its act-by-act
// time) fails the gate on ns/op, though the benchmark allocates too
// much to be alloc-guarded.
func TestCompareSnapshotsGatesMitigationCampaign(t *testing.T) {
	baseline := gateBaseline()
	baseline.Benchmarks = append(baseline.Benchmarks,
		benchResult{Name: "MitigationCampaign", NsPerOp: 9_100_000, AllocsPerOp: 1704})
	fresh := gateBaseline()
	fresh.Benchmarks = append(fresh.Benchmarks,
		benchResult{Name: "MitigationCampaign", NsPerOp: 115_000_000, AllocsPerOp: 67163})
	v := compareSnapshots(baseline, fresh, 0.30, 100)
	if len(v) != 1 || !strings.Contains(v[0], "MitigationCampaign") || !strings.Contains(v[0], "ns/op") {
		t.Fatalf("violations: %v, want one MitigationCampaign ns/op line", v)
	}
}

// TestRenderSummarySortsRows: the table is the sorted union of both
// snapshots' names, whatever order the files store them in.
func TestRenderSummarySortsRows(t *testing.T) {
	baseline := gateBaseline()
	// Reverse the baseline's order and add a fresh-only benchmark that
	// sorts before everything.
	baseline.Benchmarks[0], baseline.Benchmarks[2] = baseline.Benchmarks[2], baseline.Benchmarks[0]
	fresh := gateBaseline()
	fresh.Benchmarks = append(fresh.Benchmarks, benchResult{Name: "AAANew", NsPerOp: 1})
	md := renderSummary("BENCH_3.json", baseline, fresh, 100, nil)
	var rows []int
	for _, name := range []string{"AAANew", "AnalyticCharacterizeRow", "GenerateRowCells", "StudyCampaign"} {
		i := strings.Index(md, "| "+name)
		if i < 0 {
			t.Fatalf("summary missing row for %s:\n%s", name, md)
		}
		rows = append(rows, i)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] < rows[i-1] {
			t.Fatalf("summary rows out of sorted order:\n%s", md)
		}
	}
}

// TestGateEndToEnd exercises the gate() plumbing against files on disk.
func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data, err := json.Marshal(gateBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_3.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := gate(gateBaseline(), "", "", dir, 0.30, 100, ""); err != nil {
		t.Fatalf("clean gate failed: %v", err)
	}
	bad := gateBaseline()
	bad.Benchmarks[2].NsPerOp *= 2
	if err := gate(bad, "", "", dir, 0.30, 100, ""); err == nil || !strings.Contains(err.Error(), "BENCH_3.json") {
		t.Fatalf("regressed gate: %v", err)
	}
	// When the only BENCH_<n>.json around is the snapshot this very
	// run wrote, the gate must refuse rather than pass against itself.
	if err := gate(bad, filepath.Join(dir, "BENCH_3.json"), "", dir, 0.30, 100, ""); err == nil ||
		!strings.Contains(err.Error(), "no BENCH_") {
		t.Fatalf("self-comparison gate: %v", err)
	}
}

// TestRenderSummary pins the job-summary markdown: verdict, host-shape
// note, per-benchmark rows with deltas, guard marks, new benchmarks,
// and the violations list.
func TestRenderSummary(t *testing.T) {
	baseline := gateBaseline()
	fresh := gateBaseline()
	fresh.Benchmarks[2].NsPerOp = 57_000_000 * 1.5
	fresh.Benchmarks = append(fresh.Benchmarks, benchResult{Name: "BrandNew", NsPerOp: 123, AllocsPerOp: 0})
	violations := compareSnapshots(baseline, fresh, 0.30, 100)
	md := renderSummary("BENCH_3.json", baseline, fresh, 100, violations)

	for _, want := range []string{
		"## Bench gate: FAIL (vs `BENCH_3.json`)",
		"ns/op rule active",
		"| StudyCampaign | 57000000 | 85500000 | +50.0% | 7847 | 7847 |",
		"| AnalyticCharacterizeRow † |",
		"| BrandNew | — | 123 | — | — | 0 |",
		"**Violations:**",
		"- StudyCampaign: ns/op regressed",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}

	// A clean pass on a foreign host: verdict flips, ns rule noted off.
	fresh = gateBaseline()
	fresh.CPUs = 64
	md = renderSummary("BENCH_3.json", baseline, fresh, 100, nil)
	for _, want := range []string{"## Bench gate: pass", "ns/op rule skipped"} {
		if !strings.Contains(md, want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "Violations") {
		t.Errorf("clean summary lists violations:\n%s", md)
	}
}

// TestGateWritesSummary: the gate appends the summary on pass and on
// fail (CI renders it either way).
func TestGateWritesSummary(t *testing.T) {
	dir := t.TempDir()
	data, err := json.Marshal(gateBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_3.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := filepath.Join(dir, "summary.md")
	if err := gate(gateBaseline(), "", "", dir, 0.30, 100, sum); err != nil {
		t.Fatalf("clean gate failed: %v", err)
	}
	bad := gateBaseline()
	bad.Benchmarks[2].NsPerOp *= 2
	if err := gate(bad, "", "", dir, 0.30, 100, sum); err == nil {
		t.Fatal("regressed gate passed")
	}
	out, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(out), "## Bench gate:"); got != 2 {
		t.Fatalf("summary file has %d sections, want 2 (append semantics):\n%s", got, out)
	}
}
