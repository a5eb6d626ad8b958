// Command e2ebench is rowfuse's end-to-end campaign benchmark. One
// process runs a campaign the way `campaignd -listen -state` and two
// `characterize -worker` processes would: a WAL-backed coordinator queue
// (dispatch.CreateWALQueue: fsync on, cost-aware re-planning on, no
// fault points armed) served by dispatch.NewHandler on a loopback
// listener, two dispatch.Work workers on dispatch.Dial clients with the
// worker defaults (an intra-unit checkpoint after every cell, the
// default lease TTL and so the default poll interval, one compute
// goroutine each), then the merge, the -out checkpoint and the final
// report, which must match a single-process core.Study.Run byte for
// byte.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload grid-http --seed 1 --seconds 40 --trace 0
//
// A run repeats the campaign until --seconds have passed and reports
// medians. The last line of standard output is one JSON object: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. A readable summary goes to standard error. See
// README.md for the workloads, the metrics and the layer table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	_ "rowfuse/internal/mitigation" // registers the "mitigated" engine kind
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// Run-shape constants. minUntraced and minTraced keep a median and the
// traced-vs-untraced overhead meaningful even for a very short
// --seconds; campaignTimeout bounds one campaign so a wedged run fails
// instead of hanging.
const (
	minUntraced     = 3
	minTraced       = 2
	campaignTimeout = 100 * time.Second
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "input seed (the same seed gives the same campaign)")
		seconds = fs.Int("seconds", 20, "how long to keep repeating the campaign")
		trace   = fs.Int("trace", 0, "1 = traced run: report per-layer metrics and the tracing overhead")
		dir     = fs.String("dir", filepath.Join(".bench_build", "e2ebench-run"), "scratch directory for WAL state, -out checkpoints and the span file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("-workload %q: want one of %s", *name, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if spec := os.Getenv("ROWFUSE_FAULTPOINTS"); spec != "" {
		return fmt.Errorf("ROWFUSE_FAULTPOINTS=%q arms fault points; the benchmark measures production settings", spec)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	cfg, err := w.config(*seed)
	if err != nil {
		return err
	}
	refStart := time.Now()
	ref, err := reference(w, cfg)
	if err != nil {
		return fmt.Errorf("single-process reference: %w", err)
	}
	fmt.Fprintf(stderr, "e2ebench: %s seed %d: %d cells, %d row measurements; reference Study.Run %.2fs\n",
		w.name, *seed, ref.cells, ref.rows, time.Since(refStart).Seconds())

	traced := *trace == 1
	b := newBench(w, cfg, ref, *dir, traced)
	defer b.close()
	var fsyncMs float64
	if traced {
		if fsyncMs, err = fsyncLatency(*dir); err != nil {
			return err
		}
	}

	ctx := context.Background()
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var runErr error
	for i := 0; ; i++ {
		untraced, tracedN := b.counts()
		enough := untraced >= minUntraced
		if traced {
			enough = untraced >= minTraced && tracedN >= minTraced
		}
		if enough && !time.Now().Before(deadline) {
			break
		}
		// A traced run alternates untraced and traced campaigns, so the
		// tracing overhead compares neighbours under the same conditions.
		if runErr = b.campaign(ctx, i, traced && i%2 == 1); runErr != nil {
			break
		}
	}
	if err := b.waitWorkers(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		b.runErr = runErr
		fmt.Fprintln(stderr, "e2ebench: campaign failed:", runErr)
	}
	if len(b.done) == 0 {
		return fmt.Errorf("no campaign completed: %w", runErr)
	}

	e2e, wall := b.endToEnd()
	printEndToEnd(stderr, w, b, e2e, wall)
	metrics := e2e
	correct := b.correct()
	if traced {
		layers, err := b.layers(fsyncMs)
		if err != nil {
			return err
		}
		printLayers(stderr, layers)
		if err := b.writeSpans(filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))); err != nil {
			return err
		}
		correct = correct && layers.budgetOK
		metrics = layers.metrics
	}
	return printResult(stdout, correct, b.attempted(), b.failed(), metrics)
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric keeps the print order of the readable summary.
type namedMetric struct {
	name string
	metric
	note string
}

func printResult(w io.Writer, correct bool, attempted, failed int64, ms []namedMetric) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, make(map[string]metric, len(ms))}
	for _, m := range ms {
		out.Metrics[m.name] = m.metric
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printEndToEnd(w io.Writer, wl workload, b *bench, ms []namedMetric, wall namedMetric) {
	untraced, traced := b.counts()
	fmt.Fprintf(w, "end-to-end (%s, median of %d untraced campaigns; %d traced):\n", wl.name, untraced, traced)
	for _, m := range append(ms, wall) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.name, m.Value, m.Unit, m.note)
	}
	var spans, walls, peaks, steal []string
	for _, r := range b.done {
		tag := ""
		if r.traced {
			tag = "t"
		}
		spans = append(spans, fmt.Sprintf("%.3g%s", r.makespan.Seconds(), tag))
		walls = append(walls, fmt.Sprintf("%.3g%s", r.wall.Seconds(), tag))
		peaks = append(peaks, fmt.Sprintf("%.3g%s", slices.Max(r.heapMB), tag))
		steal = append(steal, fmt.Sprintf("%.0f%s", r.stealPct, tag))
	}
	fmt.Fprintf(w, "  makespans in run order (t = traced): %s\n", strings.Join(spans, " "))
	fmt.Fprintf(w, "  wall times in run order: %s\n", strings.Join(walls, " "))
	fmt.Fprintf(w, "  heap peaks in run order (MB): %s\n", strings.Join(peaks, " "))
	fmt.Fprintf(w, "  host steal in run order (%%): %s\n", strings.Join(steal, " "))
	attempted, failed := b.attempted(), b.failed()
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (%d of %d operations failed)\n", "failed_frac",
		float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted)
	if wl.name == "grid-http" {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (in-sample: the model is calibrated on Table 2)\n",
			"paper_err_pct", b.ref.paperErrPct, "%")
	}
}

func printLayers(w io.Writer, l *layerReport) {
	fmt.Fprintf(w, "per-layer (per traced campaign, %d campaigns):\n", l.campaigns)
	for _, m := range l.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.name, m.Value, m.Unit, m.note)
	}
	verdict := "PASS"
	if !l.budgetOK {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "layer budget %s: worst worker coverage %.4f (want >= %.2f), unaccounted %.4fs per campaign\n",
		verdict, l.minCoverage, budgetCoverage, l.unaccounted)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, and that percentile. Below 21 samples that
// percentile would fall under the median, which stands in (reading 50).
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n <= 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

var errNoDrain = errors.New("campaign did not drain")
