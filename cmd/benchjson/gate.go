package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The bench-regression gate: compare a fresh snapshot against the
// newest committed BENCH_<n>.json and fail CI on real regressions
// while tolerating runner noise.
//
// Two rules, matching how the trajectory is used:
//
//   - ns_per_op is gated only on the campaign headliner
//     (StudyCampaign) and only beyond a generous tolerance — absolute
//     times vary across runner hardware, but a >30% slide of the
//     end-to-end campaign is a real regression on any machine.
//   - allocs_per_op is exact and machine-independent, so every
//     benchmark whose baseline is at or below the alloc guard (the
//     tightly-controlled hot-path benchmarks) must not allocate more
//     than its baseline at all. The campaign-level benchmark sits far
//     above the guard and is exempt: its count wobbles with worker
//     scheduling.

// timeCritical names the benchmarks whose ns_per_op regression fails
// the gate: the end-to-end campaign headliner plus the kernel-bound
// benchmarks this repo's vector dispatch and fast-forward solvers
// exist for — losing the SIMD solve, the bulk bank fast-forward, the
// bender-trace event-horizon jump or the guarded bank's refresh-window
// skip must not slip through as "runner noise".
var timeCritical = map[string]bool{
	"StudyCampaign":                       true,
	"SolveBatch":                          true,
	"BankEngineCharacterizeRowDenseCells": true,
	"BenderTraceFastForward":              true,
	"MitigationCampaign":                  true,
}

// newestBaseline returns the BENCH_<n>.json in dir with the largest
// n, skipping exclude — the snapshot the gate itself just wrote must
// never be its own baseline (the comparison would trivially pass).
func newestBaseline(dir, exclude string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	excludeAbs, _ := filepath.Abs(exclude)
	best, bestN := "", -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		if abs, err := filepath.Abs(filepath.Join(dir, name)); err == nil && exclude != "" && abs == excludeAbs {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json"))
		if err != nil || n <= bestN {
			continue
		}
		best, bestN = filepath.Join(dir, name), n
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json baseline in %s", dir)
	}
	return best, nil
}

// loadSnapshot reads a BENCH_*.json file.
func loadSnapshot(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// nsComparable reports whether two snapshots were taken on similar
// enough hardware for absolute ns/op comparison to mean "regression"
// rather than "different machine". allocs/op needs no such guard — it
// is exact and machine-independent.
func nsComparable(a, b snapshot) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.CPUs == b.CPUs
}

// vectorComparable reports whether two snapshots ran under the same
// vector dispatch (CPU feature level and GOAMD64). A mismatch — say a
// baseline measured with AVX2 kernels against a fresh purego run —
// makes ns/op differences dispatch artifacts, not regressions, so the
// gate warns and skips the ns rule instead of failing. Empty fields
// (snapshots predating them) compare as equal so old baselines keep
// the rule.
func vectorComparable(a, b snapshot) bool {
	eq := func(x, y string) bool { return x == "" || y == "" || x == y }
	return eq(a.CPUFeature, b.CPUFeature) && eq(a.GOAMD64, b.GOAMD64)
}

// compareSnapshots applies the gate rules and returns one line per
// violation (empty = pass). tolerance is the fractional ns_per_op
// slack on time-critical benchmarks (0.30 = fail beyond +30%),
// enforced only when the two snapshots share a host shape; allocGuard
// is the baseline allocs_per_op at or under which a benchmark's
// allocation count is frozen.
func compareSnapshots(baseline, fresh snapshot, tolerance float64, allocGuard int64) []string {
	freshBy := make(map[string]benchResult, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshBy[b.Name] = b
	}
	gateNs := nsComparable(baseline, fresh) && vectorComparable(baseline, fresh)
	var violations []string
	for _, base := range baseline.Benchmarks {
		f, ok := freshBy[base.Name]
		if !ok {
			// A guarded benchmark that silently disappears is how a
			// perf trajectory rots; flag it rather than skipping.
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but missing from the fresh run", base.Name))
			continue
		}
		if gateNs && timeCritical[base.Name] && f.NsPerOp > base.NsPerOp*(1+tolerance) {
			violations = append(violations,
				fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
					base.Name, base.NsPerOp, f.NsPerOp,
					100*(f.NsPerOp/base.NsPerOp-1), 100*tolerance))
		}
		if base.AllocsPerOp <= allocGuard && f.AllocsPerOp > base.AllocsPerOp {
			violations = append(violations,
				fmt.Sprintf("%s: allocs/op increased %d -> %d (alloc-guarded benchmark: any increase fails)",
					base.Name, base.AllocsPerOp, f.AllocsPerOp))
		}
	}
	return violations
}

// gate compares the fresh snapshot (just written to freshPath) against
// baselinePath (or the newest committed baseline in dir when empty,
// never freshPath itself) and returns an error listing every
// violation. With summaryPath set, a markdown old-vs-new diff table is
// appended there (pass or fail) so CI job summaries show per-benchmark
// ns/op and allocs/op without downloading the artifact.
func gate(fresh snapshot, freshPath, baselinePath, dir string, tolerance float64, allocGuard int64, summaryPath string) error {
	if baselinePath == "" {
		var err error
		if baselinePath, err = newestBaseline(dir, freshPath); err != nil {
			return err
		}
	}
	baseline, err := loadSnapshot(baselinePath)
	if err != nil {
		return err
	}
	if !nsComparable(baseline, fresh) {
		fmt.Fprintf(os.Stderr,
			"bench gate: host shape differs from %s (%s/%s %d cpus vs %s/%s %d cpus); ns/op rule skipped, allocs/op still enforced\n",
			baselinePath, baseline.GOOS, baseline.GOARCH, baseline.CPUs, fresh.GOOS, fresh.GOARCH, fresh.CPUs)
	} else if !vectorComparable(baseline, fresh) {
		fmt.Fprintf(os.Stderr,
			"bench gate: warning: vector dispatch differs from %s (cpufeature %q goamd64 %q vs %q %q); ns/op rule skipped, allocs/op still enforced\n",
			baselinePath, baseline.CPUFeature, baseline.GOAMD64, fresh.CPUFeature, fresh.GOAMD64)
	}
	violations := compareSnapshots(baseline, fresh, tolerance, allocGuard)
	if summaryPath != "" {
		md := renderSummary(baselinePath, baseline, fresh, allocGuard, violations)
		if werr := appendFile(summaryPath, md); werr != nil {
			fmt.Fprintf(os.Stderr, "bench gate: writing summary to %s: %v\n", summaryPath, werr)
		}
	}
	if len(violations) == 0 {
		fmt.Fprintf(os.Stderr, "bench gate: no regression vs %s (%d benchmarks compared)\n",
			baselinePath, len(baseline.Benchmarks))
		return nil
	}
	return fmt.Errorf("bench gate vs %s failed:\n  %s", baselinePath, strings.Join(violations, "\n  "))
}

// renderSummary builds the markdown job-summary section for one gate
// run: the verdict, the host-shape comparability note, a per-benchmark
// old-vs-new table (ns/op with relative delta, allocs/op with a mark on
// the alloc-guarded rows), and any violations.
func renderSummary(baselinePath string, baseline, fresh snapshot, allocGuard int64, violations []string) string {
	var sb strings.Builder
	verdict := "pass"
	if len(violations) > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "## Bench gate: %s (vs `%s`)\n\n", verdict, filepath.Base(baselinePath))
	switch {
	case !nsComparable(baseline, fresh):
		fmt.Fprintf(&sb, "Host shape differs (baseline %s/%s %d CPUs, fresh %s/%s %d CPUs): ns/op rule skipped, allocs/op still enforced.\n\n",
			baseline.GOOS, baseline.GOARCH, baseline.CPUs, fresh.GOOS, fresh.GOARCH, fresh.CPUs)
	case !vectorComparable(baseline, fresh):
		fmt.Fprintf(&sb, "Vector dispatch differs (baseline cpufeature `%s` goamd64 `%s`, fresh `%s` `%s`): ns/op rule skipped, allocs/op still enforced.\n\n",
			baseline.CPUFeature, baseline.GOAMD64, fresh.CPUFeature, fresh.GOAMD64)
	default:
		fmt.Fprintf(&sb, "Host shape matches (%s/%s, %d CPUs): ns/op rule active.\n\n",
			fresh.GOOS, fresh.GOARCH, fresh.CPUs)
	}
	sb.WriteString("| benchmark | base ns/op | fresh ns/op | Δ ns/op | base allocs/op | fresh allocs/op |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|\n")
	baseBy := make(map[string]benchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		baseBy[b.Name] = b
	}
	row := func(name string) {
		base, hasBase := baseBy[name]
		var fr benchResult
		hasFresh := false
		for _, f := range fresh.Benchmarks {
			if f.Name == name {
				fr, hasFresh = f, true
				break
			}
		}
		guarded := ""
		if hasBase && base.AllocsPerOp <= allocGuard {
			guarded = " †"
		}
		cell := func(ok bool, v float64) string {
			if !ok {
				return "—"
			}
			return fmt.Sprintf("%.0f", v)
		}
		delta := "—"
		if hasBase && hasFresh && base.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(fr.NsPerOp/base.NsPerOp-1))
		}
		allocCell := func(ok bool, v int64) string {
			if !ok {
				return "—"
			}
			return fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&sb, "| %s%s | %s | %s | %s | %s | %s |\n",
			name, guarded,
			cell(hasBase, base.NsPerOp), cell(hasFresh, fr.NsPerOp), delta,
			allocCell(hasBase, base.AllocsPerOp), allocCell(hasFresh, fr.AllocsPerOp))
	}
	// Rows are the union of both snapshots, sorted by name: stable
	// output regardless of either file's internal order, so successive
	// job summaries diff cleanly.
	nameSet := make(map[string]bool, len(baseline.Benchmarks)+len(fresh.Benchmarks))
	for _, b := range baseline.Benchmarks {
		nameSet[b.Name] = true
	}
	for _, f := range fresh.Benchmarks {
		nameSet[f.Name] = true
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row(n)
	}
	fmt.Fprintf(&sb, "\n† alloc-guarded (baseline allocs/op ≤ %d: any increase fails).\n", allocGuard)
	if len(violations) > 0 {
		sb.WriteString("\n**Violations:**\n\n")
		for _, v := range violations {
			fmt.Fprintf(&sb, "- %s\n", v)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

// appendFile appends text to path, creating it if needed (the GitHub
// job-summary file is append-oriented: both gate steps contribute).
func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(text); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
