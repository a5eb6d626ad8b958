// Command characterize reproduces the paper's tables and figures on the
// simulated DRAM chip population.
//
// Usage:
//
//	characterize -exp table1|table2|fig4|fig5|fig6|mitigation|crossover|bender|fleet|tempsweep|datapattern|hcdist|all [flags]
//
// Examples:
//
//	characterize -exp fig4 -rows 100 -dies 2
//	characterize -exp table2 -rows 1000 -runs 3 -csv out/
//
// -exp fleet replaces the Table 1 module inventory with a synthetic
// chip population drawn from the chipdb generative model and renders
// the fleet-wide ACmin/time-to-flip distribution (streaming quantile
// sketches, so memory stays flat no matter the fleet size):
//
//	characterize -exp fleet -chips 100000
//
// Campaigns can carry a scenario axis — a fourth grid dimension that
// selects the execution engine and operating conditions of each cell.
// -exp mitigation sweeps the standard defense grid (TRR variants,
// refresh multipliers, rank ECC) and renders flip survival per
// scenario; -exp crossover renders where the combined pattern stops
// beating conventional RowPress; -exp bender reruns Table 2 on the
// cycle-accurate Bender trace interpreter. -scenarios overrides the
// axis explicitly (default, mitigations, bender, bank, thermal:T1,T2);
// a thermal axis additionally renders the disturbance-vs-settled-
// temperature table:
//
//	characterize -exp mitigation -module S0 -rows 50
//	characterize -exp table2 -scenarios thermal:40,55,70
//
// Paper-scale campaigns can be split across processes and machines and
// survive crashes. Each shard runs a deterministic 1/n slice of the
// (module x pattern x tAggON) cell grid and checkpoints its per-cell
// aggregates; -merge fuses the shard checkpoints and renders the same
// output an unsharded run would have produced:
//
//	characterize -exp all -shard 1/3 -checkpoint s1.json   # one per process
//	characterize -exp all -shard 2/3 -checkpoint s2.json
//	characterize -exp all -shard 3/3 -checkpoint s3.json
//	characterize -exp all -merge s1.json,s2.json,s3.json
//
// A killed run resumes from its last checkpoint with -resume:
//
//	characterize -exp all -shard 2/3 -checkpoint s2.json -resume
//
// Under a campaignd coordinator no shard arithmetic is needed at all:
// -worker points at a campaign (a shared directory or a campaignd URL),
// leases work units, heartbeats them while the shard runs, and submits
// checkpoints until the campaign is drained. The campaign configuration
// comes from the coordinator's manifest, so no config flags are given:
//
//	characterize -worker shared/                  # filesystem campaign
//	characterize -worker http://coordinator:8473  # served campaign
//
// Against a multi-campaign service (campaignd -service), point the
// same worker at one hosted campaign by ID, presenting the worker
// token handed out when the campaign was created:
//
//	characterize -worker http://svc:8473 -campaign c-1a2b3c4d-00112233 -campaign-token <token>
//
// Full-scale campaign profiles can be captured without a rebuild:
//
//	characterize -exp table2 -rows 1000 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/dispatch"
	_ "rowfuse/internal/mitigation" // registers the "mitigated" scenario engine
	"rowfuse/internal/pattern"
	"rowfuse/internal/report"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	// The campaign-defining flags (-exp, -rows, -dies, -runs, -module,
	// -temp, -budget, -scenarios) are declared by the shared builder so
	// they cannot drift from cmd/campaignd's.
	builder := core.BindCampaignFlags(fs)
	var (
		csvDir  = fs.String("csv", "", "also write CSV files into this directory")
		jsonOut = fs.String("json", "", "write a JSON result archive to this file (requires -exp all)")
		workers = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")

		workerFor     = fs.String("worker", "", "work for a campaign coordinator: a shared campaign directory or a campaignd http(s) URL")
		workerName    = fs.String("worker-name", "", "worker identity in leases and status output (default hostname-pid)")
		partialEvery  = fs.Int("partial-every", 0, "worker mode: write an intra-unit checkpoint to the coordinator after every N completed cells, bounding what a worker death loses (0 = by compute time, about every 2s)")
		unitTimeout   = fs.Duration("unit-timeout", 0, "worker mode: bound one unit's compute; a unit exceeding it is reported as failed (a strike toward quarantine) instead of wedging the worker (0 = unbounded)")
		campaignID    = fs.String("campaign", "", "worker mode against a campaign service: the campaign ID to work for (requires an http(s) -worker endpoint)")
		campaignToken = fs.String("campaign-token", "", "worker mode: the campaign's worker auth token (handed out when the campaign is created)")
		statusFor     = fs.String("status", "", "print a campaign's status, quarantine ledger and current partial report: a shared campaign directory or a campaignd http(s) URL")
		watchFor      = fs.String("watch", "", "stream a campaign's live report until it drains: a campaignd http(s) URL (uses /v1/report?follow=1)")
		watchEvery    = fs.Duration("watch-interval", 2*time.Second, "with -watch: how often the coordinator streams a report frame")

		shardFlag = fs.String("shard", "", "run only shard i/n of the cell grid (requires -checkpoint; skips rendering)")
		ckptPath  = fs.String("checkpoint", "", "periodically write per-cell aggregates to this file")
		resume    = fs.Bool("resume", false, "load the -checkpoint file if present and skip completed cells")
		mergeList = fs.String("merge", "", "comma-separated shard checkpoints to fuse and render (no cells are re-run)")
		ckptEvery = fs.Int("checkpoint-every", 0, "checkpoint after every N completed cells (0 = by compute time, about every 2s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Profiling hooks, so full-scale campaign profiles can be captured
	// without a rebuild: -cpuprofile covers the whole run; -memprofile
	// snapshots the heap after everything (including rendering) is done.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "characterize: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "characterize: -memprofile:", err)
			}
		}()
	}

	if *workerFor != "" {
		// Worker mode: the campaign manifest is the single source of
		// config truth, so every explicitly set config or render flag
		// is a mistake worth flagging rather than silently ignoring.
		// Only worker identity, pool size and profiling are local.
		if stray := core.StrayFlags(fs, "worker", "worker-name", "workers", "partial-every", "unit-timeout",
			"cpuprofile", "memprofile", "campaign", "campaign-token"); stray != "" {
			return fmt.Errorf("-worker gets its campaign from the coordinator's manifest; %s would be silently ignored (drop them, or change the campaign at -init time)",
				stray)
		}
		return runWorker(*workerFor, *workerName, *campaignID, *campaignToken, *workers, *partialEvery, *unitTimeout)
	}

	if *statusFor != "" || *watchFor != "" {
		// Status/watch are read-only observers: like worker mode, the
		// campaign config lives in the coordinator's manifest, so any
		// explicitly set config flag is a mistake worth flagging.
		if stray := core.StrayFlags(fs, "status", "watch", "watch-interval", "campaign"); stray != "" {
			return fmt.Errorf("-status/-watch read the campaign from the coordinator; %s would be silently ignored", stray)
		}
		if *statusFor != "" && *watchFor != "" {
			return fmt.Errorf("-status and -watch are mutually exclusive")
		}
		if *statusFor != "" {
			return runStatus(*statusFor, *campaignID)
		}
		return runWatch(*watchFor, *campaignID, *watchEvery)
	}

	// sharded tracks the flag, not ShardPlan.IsSharded(): "-shard 1/1"
	// (a script templating i/n with n=1) must behave like every other
	// shard run — checkpoint only, render at -merge time.
	sharded := *shardFlag != ""
	var shard core.ShardPlan
	if sharded {
		var err error
		if shard, err = core.ParseShard(*shardFlag); err != nil {
			return err
		}
		if *ckptPath == "" {
			return fmt.Errorf("-shard without -checkpoint would discard the shard's results")
		}
		if *mergeList != "" {
			return fmt.Errorf("-shard and -merge are mutually exclusive")
		}
		if *jsonOut != "" || *csvDir != "" {
			return fmt.Errorf("-json/-csv render the whole grid; a shard run only checkpoints (render them at -merge time)")
		}
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the file to resume from")
	}
	if *mergeList != "" && *resume {
		return fmt.Errorf("-merge renders existing checkpoints; -resume does not apply")
	}

	// The whole campaign configuration — module set, sweep, scenario
	// axis — comes from the same builder campaignd uses to mint
	// manifests, so the fingerprints of a distributed campaign and this
	// command's -merge rendering can never drift.
	exp := &builder.Exp
	cfg, err := builder.StudyConfig()
	if err != nil {
		return err
	}

	switch *exp {
	case "table1", "tempsweep", "datapattern", "hcdist":
		if *shardFlag != "" || *ckptPath != "" || *mergeList != "" {
			return fmt.Errorf("-shard/-checkpoint/-merge apply to campaign experiments only, not -exp %s", *exp)
		}
	}
	switch *exp {
	case "table1":
		return report.Table1(os.Stdout, cfg.Modules)
	case "tempsweep":
		return runTempSweep(cfg.Modules[0], builder.Rows, builder.Budget, *csvDir)
	case "datapattern":
		return runDataPatternSweep(cfg.Modules[0], builder.Rows, builder.Budget, *csvDir)
	case "hcdist":
		return runHCDist(cfg.Modules[0], builder.Rows, builder.Budget)
	}

	cfg.Concurrency = *workers
	cfg.Progress = func(done, total int) {
		if done%25 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "  %d/%d cells\n", done, total)
		}
	}
	cfg.Shard = shard
	cfg.CheckpointEvery = *ckptEvery
	fingerprint := cfg.Fingerprint()
	if *ckptPath != "" {
		cfg.Checkpoint = func(cells map[core.CellKey]core.AggregateState) error {
			return resultio.WriteCheckpointFile(*ckptPath, resultio.NewCheckpoint(fingerprint, shard, cells))
		}
	}
	study := core.NewStudy(cfg)

	if *mergeList != "" {
		var paths []string
		for _, path := range strings.Split(*mergeList, ",") {
			paths = append(paths, strings.TrimSpace(path))
		}
		// MergeCheckpointFiles attributes any failure — unreadable
		// file, foreign fingerprint, overlapping cells — to the shard
		// file that caused it.
		merged, err := resultio.MergeCheckpointFiles(fingerprint, paths...)
		if err != nil {
			return err
		}
		cells, err := merged.CellMap()
		if err != nil {
			return err
		}
		if err := study.Seed(cells); err != nil {
			return err
		}
		if grid := len(study.Cells()); len(cells) < grid {
			return fmt.Errorf("merged checkpoints cover %d of %d cells; a shard file is missing from -merge", len(cells), grid)
		}
		if *ckptPath != "" {
			if err := resultio.WriteCheckpointFile(*ckptPath, merged); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "merged checkpoint written to %s\n", *ckptPath)
		}
		fmt.Fprintf(os.Stderr, "merged %d checkpoints: %d cells restored, nothing re-run\n", len(paths), len(cells))
	} else {
		if *resume {
			cp, err := resultio.ReadCheckpointFile(*ckptPath, fingerprint)
			switch {
			case os.IsNotExist(err):
				fmt.Fprintf(os.Stderr, "no checkpoint at %s yet, starting fresh\n", *ckptPath)
			case err != nil:
				return err
			case cp.Shard != shard.String():
				// The fingerprint deliberately excludes the shard, so a
				// cross-shard resume would silently pollute the file and
				// double-count cells at -merge time.
				return fmt.Errorf("%s was written by shard %q, not %q; resume the matching file",
					*ckptPath, cp.Shard, shard.String())
			default:
				cells, err := cp.CellMap()
				if err != nil {
					return err
				}
				if err := study.Seed(cells); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "resumed %d completed cells from %s\n", len(cells), *ckptPath)
			}
		}
		start := time.Now()
		if f := study.Config().Fleet; f != nil {
			fmt.Fprintf(os.Stderr, "running fleet study: %d chips in %d blocks x %d patterns x %d tAggON points x %d scenarios...\n",
				f.Chips, f.Blocks(), 3, len(cfg.Sweep), max(1, len(cfg.Scenarios)))
		} else {
			fmt.Fprintf(os.Stderr, "running study: %d modules x %d patterns x %d tAggON points x %d scenarios (%d rows/region, %d runs)...\n",
				len(cfg.Modules), 3, len(cfg.Sweep), max(1, len(cfg.Scenarios)), builder.Rows, builder.Runs)
		}
		if err := study.Run(context.Background()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "study done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if sharded {
		// A shard covers only 1/n of the cell grid; rendering waits for
		// -merge over all shard checkpoints.
		fmt.Fprintf(os.Stderr, "shard %s done: %d cells checkpointed to %s (render with -merge)\n",
			*shardFlag, len(study.Snapshot()), *ckptPath)
		return nil
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	var csv func(name string, emit func(f *os.File) error) error
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		csv = func(name string, emit func(f *os.File) error) error {
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				return err
			}
			defer f.Close()
			return emit(f)
		}
	} else {
		csv = func(string, func(f *os.File) error) error { return nil }
	}

	// The scenario-axis experiments render their own reports: the
	// mitigation survival table, the crossover sweep, or (for a pure
	// bender-trace campaign) Table 2 measured on the trace engine.
	switch *exp {
	case "mitigation":
		rows, err := study.MitigationSummary()
		if err != nil {
			return err
		}
		if err := report.MitigationTable(os.Stdout, rows); err != nil {
			return err
		}
		return csv("mitigation.csv", func(f *os.File) error { return report.MitigationCSV(f, rows) })
	case "crossover":
		mods, err := study.CrossoverSweep()
		if err != nil {
			return err
		}
		if err := report.CrossoverTable(os.Stdout, mods); err != nil {
			return err
		}
		return csv("crossover.csv", func(f *os.File) error { return report.CrossoverCSV(f, mods) })
	case "bender":
		rows, err := study.Table2()
		if err != nil {
			return err
		}
		if err := report.Table2(os.Stdout, rows); err != nil {
			return err
		}
		return csv("table2.csv", func(f *os.File) error { return report.Table2CSV(f, rows) })
	case "fleet":
		stats, err := core.FleetStats(study.Snapshot())
		if err != nil {
			return err
		}
		perScenario := len(study.Cells()) / max(1, len(cfg.Scenarios))
		if err := report.FleetDistribution(os.Stdout, stats, perScenario); err != nil {
			return err
		}
		return csv("fleet.csv", func(f *os.File) error { return report.FleetCSV(f, stats) })
	}

	// A thermal scenario axis earns its disturbance-vs-temperature
	// table alongside whatever grid experiment was requested.
	if strings.HasPrefix(builder.ScenarioSet, "thermal:") {
		rows, err := study.ThermalSummary()
		if err != nil {
			return err
		}
		if err := report.ThermalTable(os.Stdout, rows); err != nil {
			return err
		}
		if err := csv("thermal.csv", func(f *os.File) error { return report.ThermalCSV(f, rows) }); err != nil {
			return err
		}
	}

	if want("table1") {
		if err := report.Table1(os.Stdout, cfg.Modules); err != nil {
			return err
		}
	}
	if want("fig4") {
		data, err := study.Fig4()
		if err != nil {
			return err
		}
		if err := report.Fig4(os.Stdout, data); err != nil {
			return err
		}
		if err := csv("fig4.csv", func(f *os.File) error { return report.Fig4CSV(f, data) }); err != nil {
			return err
		}
		if err := printObservations(study); err != nil {
			return err
		}
	}
	if want("fig5") {
		data, err := study.Fig5()
		if err != nil {
			return err
		}
		if err := report.Fig5(os.Stdout, data); err != nil {
			return err
		}
		if err := csv("fig5.csv", func(f *os.File) error { return report.Fig5CSV(f, data) }); err != nil {
			return err
		}
	}
	if want("fig6") {
		data, err := study.Fig6()
		if err != nil {
			return err
		}
		if err := report.Fig6(os.Stdout, data); err != nil {
			return err
		}
		if err := csv("fig6.csv", func(f *os.File) error { return report.Fig6CSV(f, data) }); err != nil {
			return err
		}
	}
	if want("table2") {
		rows, err := study.Table2()
		if err != nil {
			return err
		}
		if err := report.Table2(os.Stdout, rows); err != nil {
			return err
		}
		if err := csv("table2.csv", func(f *os.File) error { return report.Table2CSV(f, rows) }); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if *exp != "all" {
			return fmt.Errorf("-json requires -exp all (the archive bundles every figure and table)")
		}
		if err := writeArchive(*jsonOut, study); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "result archive written to %s\n", *jsonOut)
	}
	return nil
}

// runWorker drains a distributed campaign: lease shard work units from
// the coordinator (a shared directory, a campaignd URL, or — with a
// campaign ID and token — one campaign of a multi-campaign service),
// run each with the checkpointed Study.Run (resuming from any
// intra-unit checkpoint a dead predecessor left behind and writing
// fresh ones as cells complete), heartbeat while running, submit the
// measured checkpoint, repeat until the campaign is drained.
func runWorker(endpoint, name, campaignID, campaignToken string, workers, partialEvery int, unitTimeout time.Duration) error {
	q, err := dialQueue(endpoint, "-worker", campaignID, campaignToken)
	if err != nil {
		return err
	}
	done, err := dispatch.Work(context.Background(), q, dispatch.WorkerOptions{
		Name:         name,
		Concurrency:  workers,
		PartialEvery: partialEvery,
		UnitTimeout:  unitTimeout,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("after %d submitted units: %w", done, err)
	}
	return nil
}

// dialQueue resolves a campaign endpoint the way every campaign-facing
// mode does: a campaign-service (endpoint + campaign ID), a plain
// coordinator URL, or a shared campaign directory.
func dialQueue(endpoint, mode, campaignID, campaignToken string) (dispatch.Queue, error) {
	isHTTP := strings.HasPrefix(endpoint, "http://") || strings.HasPrefix(endpoint, "https://")
	switch {
	case campaignID != "":
		if !isHTTP {
			return nil, fmt.Errorf("-campaign targets a campaign service, so %s must be an http(s) URL (got %q)", mode, endpoint)
		}
		return dispatch.DialCampaign(endpoint, campaignID, campaignToken, nil)
	case campaignToken != "":
		return nil, fmt.Errorf("-campaign-token is only meaningful with -campaign")
	case isHTTP:
		return dispatch.Dial(endpoint, nil)
	default:
		return dispatch.OpenDir(endpoint)
	}
}

// runStatus prints a campaign's unit ledger — including quarantined
// and dropped units with their strike counts and last failures — and
// the current degradation-aware partial report.
func runStatus(endpoint, campaignID string) error {
	q, err := dialQueue(endpoint, "-status", campaignID, "")
	if err != nil {
		return err
	}
	st, err := q.Status()
	if err != nil {
		return err
	}
	fmt.Printf("units: %d done, %d leased, %d pending of %d", st.Done, st.Leased, st.Pending, st.Units)
	if st.Quarantined > 0 || st.Dropped > 0 {
		fmt.Printf(" (%d quarantined, %d dropped)", st.Quarantined, st.Dropped)
	}
	fmt.Println()
	quar, err := q.Quarantined()
	if err != nil {
		return err
	}
	for _, e := range quar {
		line := fmt.Sprintf("unit %d %s after %d strikes", e.Unit, e.State, e.Strikes)
		if e.LastFailure != "" {
			line += ": " + e.LastFailure
		}
		if e.HasPartial {
			line += " (intra-unit checkpoint on record)"
		}
		fmt.Println(line)
	}
	return dispatch.RenderQueueReport(os.Stdout, q)
}

// runWatch streams a campaign's live report frames over
// GET /v1/report?follow=1 until the campaign drains.
func runWatch(endpoint, campaignID string, interval time.Duration) error {
	q, err := dialQueue(endpoint, "-watch", campaignID, "")
	if err != nil {
		return err
	}
	c, ok := q.(*dispatch.Client)
	if !ok {
		return fmt.Errorf("-watch streams over HTTP; %q is a directory campaign (use -status, or campaignd -dir ... -watch)", endpoint)
	}
	return c.Follow(os.Stdout, interval)
}

// writeArchive bundles every reproduction into a JSON archive.
func writeArchive(path string, study *core.Study) error {
	fig4, err := study.Fig4()
	if err != nil {
		return err
	}
	fig5, err := study.Fig5()
	if err != nil {
		return err
	}
	fig6, err := study.Fig6()
	if err != nil {
		return err
	}
	table2, err := study.Table2()
	if err != nil {
		return err
	}
	a := resultio.NewArchive(resultio.MetaFromStudy(study.Config()), fig4, fig5, fig6, table2)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return resultio.Save(f, a)
}

// runTempSweep characterizes one module across die temperatures with the
// combined pattern at tAggON = 636 ns.
func runTempSweep(mi chipdb.ModuleInfo, rows int, budget time.Duration, csvDir string) error {
	spec, err := pattern.New(pattern.Combined, 636*time.Nanosecond, timing.Default())
	if err != nil {
		return err
	}
	pts, err := core.TempSweep(core.TempSweepConfig{
		Module:        mi,
		Spec:          spec,
		Temps:         []float64{30, 40, 50, 60, 70, 85},
		RowsPerRegion: rows,
		Opts:          core.RunOpts{Budget: budget},
	})
	if err != nil {
		return err
	}
	if err := report.TempSweep(os.Stdout, mi.ID, pts); err != nil {
		return err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, "tempsweep.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.TempSweepCSV(f, mi.ID, pts)
	}
	return nil
}

// runHCDist prints the per-row ACmin distribution of one module for
// double-sided RowHammer and the combined pattern at 636 ns (the
// spatial variation defenses must account for).
func runHCDist(mi chipdb.ModuleInfo, rowsPerRegion int, budget time.Duration) error {
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
	victims := core.PaperRows(numRows, rowsPerRegion)
	cases := []struct {
		label string
		kind  pattern.Kind
		aggOn time.Duration
	}{
		{"double-sided RowHammer @ tRAS", pattern.DoubleSided, timing.TRAS},
		{"combined RH+RP @ 636ns", pattern.Combined, 636 * time.Nanosecond},
	}
	for _, c := range cases {
		spec, err := pattern.New(c.kind, c.aggOn, timing.Default())
		if err != nil {
			return err
		}
		var values []float64
		for _, v := range victims {
			res, err := eng.CharacterizeRow(v, spec, core.RunOpts{Budget: budget})
			if err != nil {
				return err
			}
			if !res.NoBitflip {
				values = append(values, float64(res.ACmin))
			}
		}
		if err := report.ACminDistribution(os.Stdout, mi.ID+" "+c.label, values); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runDataPatternSweep characterizes one module across data patterns with
// double-sided RowHammer.
func runDataPatternSweep(mi chipdb.ModuleInfo, rows int, budget time.Duration, csvDir string) error {
	spec, err := pattern.New(pattern.DoubleSided, timing.TRAS, timing.Default())
	if err != nil {
		return err
	}
	pts, err := core.DataPatternSweep(core.DataPatternSweepConfig{
		Module:        mi,
		Spec:          spec,
		RowsPerRegion: rows,
		Opts:          core.RunOpts{Budget: budget},
	})
	if err != nil {
		return err
	}
	if err := report.DataPatternSweep(os.Stdout, mi.ID, pts); err != nil {
		return err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, "datapattern.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.DataPatternSweepCSV(f, mi.ID, pts)
	}
	return nil
}

// printObservations prints the paper's headline observation checks.
func printObservations(study *core.Study) error {
	fig4, err := study.Fig4()
	if err != nil {
		return err
	}
	fmt.Println("\nHeadline observations (cf. paper Observations 1-3):")
	for _, mfr := range []chipdb.Manufacturer{chipdb.MfrS, chipdb.MfrH, chipdb.MfrM} {
		series, ok := fig4[mfr]
		if !ok {
			continue
		}
		find := func(k pattern.Kind, agg time.Duration) (core.Fig4Point, bool) {
			for _, pt := range series[k] {
				if pt.AggOn == agg && pt.Modules > 0 {
					return pt, true
				}
			}
			return core.Fig4Point{}, false
		}
		c636, ok1 := find(pattern.Combined, 636*time.Nanosecond)
		d636, ok2 := find(pattern.DoubleSided, 636*time.Nanosecond)
		s636, ok3 := find(pattern.SingleSided, 636*time.Nanosecond)
		if ok1 && ok2 && ok3 {
			fmt.Printf("  %v @636ns: combined %.1fms vs double %.1fms (%.1f%% faster) vs single %.1fms (%.1f%% faster)\n",
				mfr, c636.TimeMeanMs, d636.TimeMeanMs, 100*(1-c636.TimeMeanMs/d636.TimeMeanMs),
				s636.TimeMeanMs, 100*(1-c636.TimeMeanMs/s636.TimeMeanMs))
		}
		c702, ok1 := find(pattern.Combined, timing.AggOnNineTREFI)
		s702, ok2 := find(pattern.SingleSided, timing.AggOnNineTREFI)
		if ok1 && ok2 {
			fmt.Printf("  %v @70.2us: combined %.1fms vs single %.1fms (%.1f%% slower)\n",
				mfr, c702.TimeMeanMs, s702.TimeMeanMs, 100*(c702.TimeMeanMs/s702.TimeMeanMs-1))
		}
	}
	return nil
}
