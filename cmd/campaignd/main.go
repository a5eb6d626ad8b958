// Command campaignd coordinates a distributed characterization
// campaign: it partitions the (module x pattern x tAggON) cell grid
// into leased work units, hands them to characterize -worker
// processes, steals work back from dead workers (expired leases are
// re-granted), folds submitted shard checkpoints into a rolling merged
// state, and renders live coverage-annotated partial Table 2 / Fig 4
// reports while the campaign converges.
//
// Two coordination modes share one campaign description:
//
// Filesystem mode needs no server at all — any directory every worker
// can reach (NFS, a shared volume) is the queue:
//
//	campaignd -dir shared/ -init -exp all -rows 1000 -runs 3 -units 12 -ttl 2m
//	characterize -worker shared/                  # on each machine
//	campaignd -dir shared/ -watch 10s -out merged.json
//
// Server mode runs an HTTP coordinator with an in-memory queue:
//
//	campaignd -listen :8473 -exp all -rows 1000 -runs 3 -units 12 -ttl 2m -out merged.json
//	characterize -worker http://coordinator:8473  # on each machine
//
// Service mode hosts many concurrent campaigns (created over
// POST /v1/campaigns, including -exp fleet population sweeps) with
// durable write-ahead queues under -state; -retention garbage-collects
// a campaign's on-disk state once it has sat drained or canceled that
// long:
//
//	campaignd -service -listen :8473 -state /var/lib/rowfuse -retention 24h
//
// In both modes the campaign configuration is embedded in the manifest
// — workers reconstruct it (and its fingerprint) from there, so config
// drift between machines is structurally impossible. When every unit
// is submitted, campaignd writes the fused whole-campaign checkpoint
// to -out; render it with
//
//	characterize -exp all <same config flags> -merge merged.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/registry"
	"rowfuse/internal/resultio"
)

func main() {
	// SIGINT/SIGTERM trigger a graceful shutdown: stop granting,
	// flush and fsync the campaign journals, exit 0 — the durable
	// state is exactly what a restart resumes from.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	var (
		dir     = fs.String("dir", "", "filesystem-queue mode: coordinate through this shared directory")
		doInit  = fs.Bool("init", false, "with -dir: write the campaign manifest and exit")
		listen  = fs.String("listen", "", "server mode: serve the coordinator HTTP API on this address")
		service = fs.Bool("service", false, "campaign-service mode: host many concurrent campaigns (created over POST /v1/campaigns) with durable write-ahead queues under -state")
		state   = fs.String("state", "", "durable queue state directory: with -service, the registry root; with plain -listen, journal the single campaign here so a coordinator restart resumes it")
		watch   = fs.Duration("watch", 0, "print a live partial Table 2 / Fig 4 report at this interval (0 = only on completion)")
		outCp   = fs.String("out", "", "write the fused campaign checkpoint to this file (rolling in -watch loops, final on completion)")
		units   = fs.Int("units", 8, "work units to split the cell grid into (clamped to the grid size)")
		ttl     = fs.Duration("ttl", 2*time.Minute, "lease TTL: a unit whose worker misses heartbeats this long is re-granted")
		linger  = fs.Duration("linger", 6*time.Second, "server mode: keep serving this long after the campaign drains, so workers sleeping in a no-work poll observe the drain instead of a dead socket")
		retain  = fs.Duration("retention", 0, "service mode: delete a campaign's durable state this long after it drains or is canceled (0 = keep forever)")
		strikes = fs.Int("max-strikes", 0, "quarantine a unit after this many lease expiries or worker-reported failures (0 = default threshold)")
	)
	// The campaign-defining flags (-exp, -rows, -dies, -runs, -module,
	// -temp, -budget, -scenarios) come from the same builder
	// cmd/characterize binds, so manifests minted here render there
	// under an identical fingerprint.
	builder := core.BindCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*dir == "") == (*listen == "") {
		return errors.New("exactly one of -dir (filesystem mode) or -listen (server mode) is required")
	}
	if *doInit && *dir == "" {
		return errors.New("-init requires -dir")
	}
	if *state != "" && *listen == "" {
		return errors.New("-state journals a served queue; it requires -listen")
	}

	if *retain != 0 && !*service {
		return errors.New("-retention garbage-collects hosted campaigns; it requires -service")
	}
	if *retain < 0 {
		return fmt.Errorf("-retention %v: must be non-negative", *retain)
	}
	if *strikes < 0 {
		return fmt.Errorf("-max-strikes %d: must be non-negative", *strikes)
	}

	if *service {
		if *listen == "" || *state == "" {
			return errors.New("-service requires -listen and -state")
		}
		// Campaigns are created over the API, each with its own spec;
		// a config flag here would describe no campaign at all.
		allowed := map[string]bool{"service": true, "state": true, "listen": true, "retention": true}
		var rejected []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				rejected = append(rejected, "-"+f.Name)
			}
		})
		if len(rejected) > 0 {
			return fmt.Errorf("service mode hosts campaigns created over POST /v1/campaigns; %s would be silently ignored", strings.Join(rejected, " "))
		}
		return serveService(ctx, *listen, *state, *retain, out)
	}

	if *listen != "" {
		q, closeQ, err := serverQueue(fs, *state, builder, *units, *ttl, *strikes)
		if err != nil {
			return err
		}
		defer closeQ()
		return serve(ctx, *listen, q, *watch, *linger, *outCp, out)
	}

	if *doInit {
		cfg, err := studyConfig(builder)
		if err != nil {
			return err
		}
		m := dispatch.NewManifest(cfg, *units, *ttl)
		m.MaxStrikes = *strikes
		if err := dispatch.InitDir(*dir, m); err != nil {
			return err
		}
		fmt.Fprintf(out, "campaign initialized in %s: %d units, lease TTL %v, fingerprint %s\n",
			*dir, m.Units, m.LeaseTTL(), m.Fingerprint)
		if dispatch.DirUsesLockFiles(*dir) {
			fmt.Fprintf(out, "note: %s has no hard-link support; the queue will coordinate through O_EXCL lock files\n", *dir)
		}
		fmt.Fprintf(out, "start workers with: characterize -worker %s\n", *dir)
		return nil
	}

	// Watch mode on an existing campaign directory. The directory's
	// manifest, not this process's flags, defines the campaign — an
	// explicitly set config flag here would be silently ignored, so
	// reject it the same way characterize -worker does.
	allowed := map[string]bool{"dir": true, "watch": true, "out": true}
	var rejected []string
	fs.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			rejected = append(rejected, "-"+f.Name)
		}
	})
	if len(rejected) > 0 {
		return fmt.Errorf("watch mode reads the campaign from %s/manifest.json; %s would be silently ignored (campaign flags belong with -init)",
			*dir, strings.Join(rejected, " "))
	}
	q, err := dispatch.OpenDir(*dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%s holds no campaign manifest yet; initialize it first with: campaignd -dir %s -init [campaign flags]", *dir, *dir)
		}
		return err
	}
	return watchLoop(q, *watch, *outCp, out)
}

// studyConfig assembles the campaign configuration through the same
// core.CampaignSpecBuilder cmd/characterize uses, so a finished
// distributed run renders with characterize -merge under the identical
// fingerprint. Only grid-shaped experiments describe a campaign.
func studyConfig(b *core.CampaignSpecBuilder) (core.StudyConfig, error) {
	switch b.Exp {
	case "all", "table2", "mitigation", "crossover", "bender", "fleet":
	default:
		return core.StudyConfig{}, fmt.Errorf("-exp %q: campaign grids are all, table2, mitigation, crossover, bender or fleet", b.Exp)
	}
	return b.StudyConfig()
}

// serverQueue builds the single-campaign server-mode queue: in-memory
// by default, WAL-backed when -state names a directory. A directory
// already holding a journal resumes that campaign — its manifest, not
// this process's flags, is the config truth, so explicitly set
// campaign flags are rejected the same way watch mode rejects them.
func serverQueue(fs *flag.FlagSet, state string, b *core.CampaignSpecBuilder, units int, ttl time.Duration, strikes int) (dispatch.Queue, func() error, error) {
	noop := func() error { return nil }
	newManifest := func() (dispatch.Manifest, error) {
		cfg, err := studyConfig(b)
		if err != nil {
			return dispatch.Manifest{}, err
		}
		m := dispatch.NewManifest(cfg, units, ttl)
		m.MaxStrikes = strikes
		return m, nil
	}
	if state == "" {
		m, err := newManifest()
		if err != nil {
			return nil, nil, err
		}
		q, err := dispatch.NewMemQueue(m)
		return q, noop, err
	}
	if _, err := os.Stat(filepath.Join(state, "queue.wal")); err == nil {
		allowed := map[string]bool{"listen": true, "state": true, "watch": true, "out": true, "linger": true}
		var rejected []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				rejected = append(rejected, "-"+f.Name)
			}
		})
		if len(rejected) > 0 {
			return nil, nil, fmt.Errorf("%s already holds a campaign journal; %s would be silently ignored (the journal resumes the original campaign)",
				state, strings.Join(rejected, " "))
		}
		q, err := dispatch.OpenWALQueue(state)
		if err != nil {
			return nil, nil, err
		}
		if info := q.Recovered(); info.Err != nil {
			fmt.Fprintf(os.Stderr, "campaignd: %s: journal tail damaged (%v); resumed from the last %d consistent records, %d bytes dropped\n",
				state, info.Err, info.Records, info.DroppedBytes)
		}
		return q, q.Close, nil
	}
	m, err := newManifest()
	if err != nil {
		return nil, nil, err
	}
	q, err := dispatch.CreateWALQueue(state, m)
	if err != nil {
		return nil, nil, err
	}
	return q, q.Close, nil
}

// serveService runs the long-lived multi-campaign coordinator until
// the process is signaled; campaigns are created, worked, watched and
// canceled entirely over the /v1/campaigns API. With retention > 0 a
// background sweep deletes each campaign's durable state once it has
// sat drained or canceled for that long.
func serveService(ctx context.Context, addr, stateDir string, retention time.Duration, out *os.File) error {
	reg, err := registry.Open(stateDir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		reg.Close()
		return err
	}
	srv := &http.Server{Handler: reg.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	if retention > 0 {
		interval := retention / 4
		if interval < time.Second {
			interval = time.Second
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				removed, err := reg.Sweep(retention)
				if err != nil {
					fmt.Fprintf(os.Stderr, "campaignd: retention sweep: %v\n", err)
					continue
				}
				for _, id := range removed {
					fmt.Fprintf(out, "retention: campaign %s finished over %v ago; state deleted\n", id, retention)
				}
			}
		}()
	}
	infos, err := reg.List()
	if err != nil {
		reg.Close()
		return err
	}
	fmt.Fprintf(out, "campaign service listening on %s\n", ln.Addr())
	fmt.Fprintf(out, "state in %s: %d campaigns resumed\n", stateDir, len(infos))
	fmt.Fprintf(out, "create campaigns with: curl -X POST http://%s/v1/campaigns -d @campaign.json\n", ln.Addr())
	select {
	case err := <-errCh:
		reg.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down: draining requests and flushing campaign journals")
	if err := srv.Shutdown(context.Background()); err != nil {
		reg.Close()
		return err
	}
	return reg.Close()
}

// serve runs the HTTP coordinator until the campaign drains, then
// writes the fused checkpoint, renders the final report, and keeps
// answering (with ErrDrained) for linger before shutting down, so
// workers mid-poll exit cleanly rather than hitting a dead socket.
// A shutdown signal ends the server early and cleanly — with a
// WAL-backed queue the journaled state resumes on the next start.
func serve(ctx context.Context, addr string, q dispatch.Queue, watch, linger time.Duration, outCp string, out *os.File) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: dispatch.NewHandler(q)}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(out, "coordinator listening on %s\n", ln.Addr())
	m, err := q.Manifest()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: %d units, lease TTL %v, fingerprint %s\n", m.Units, m.LeaseTTL(), m.Fingerprint)
	fmt.Fprintf(out, "start workers with: characterize -worker http://%s\n", ln.Addr())

	poll := time.Second
	if watch > 0 && watch < poll {
		poll = watch
	}
	lastReport := time.Now()
	for {
		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
			fmt.Fprintln(out, "shutting down: flushing the campaign journal")
			return srv.Shutdown(context.Background())
		case <-time.After(poll):
		}
		st, err := q.Status()
		if err != nil {
			return err
		}
		// On the tick where the campaign drains, the final report
		// below covers it — don't print the same report twice.
		if watch > 0 && !st.Drained() && time.Since(lastReport) >= watch {
			lastReport = time.Now()
			if err := report(q, m, st, outCp, out); err != nil {
				return err
			}
		}
		if st.Drained() {
			if err := report(q, m, st, outCp, out); err != nil {
				return err
			}
			fmt.Fprintln(out, completionMsg(st))
			select {
			case err := <-errCh:
				return err
			case <-ctx.Done():
			case <-time.After(linger):
			}
			return srv.Shutdown(context.Background())
		}
	}
}

// watchLoop polls a directory campaign, printing partial reports and
// folding the rolling merged checkpoint until the campaign drains.
func watchLoop(q dispatch.Queue, watch time.Duration, outCp string, out *os.File) error {
	if watch <= 0 {
		watch = 10 * time.Second
	}
	m, err := q.Manifest()
	if err != nil {
		return err
	}
	for {
		st, err := q.Status()
		if err != nil {
			return err
		}
		if err := report(q, m, st, outCp, out); err != nil {
			return err
		}
		if st.Drained() {
			fmt.Fprintln(out, completionMsg(st))
			return nil
		}
		time.Sleep(watch)
	}
}

// report prints the unit ledger (including the quarantine dead-letter
// list) and the degradation-aware partial-grid renderings, and (when
// -out is set) persists the rolling merged checkpoint.
func report(q dispatch.Queue, m dispatch.Manifest, st dispatch.Status, outCp string, out *os.File) error {
	cp, err := q.Merged()
	if err != nil {
		return err
	}
	header := fmt.Sprintf("\n=== %s — units: %d done, %d leased, %d pending of %d",
		time.Now().Format(time.TimeOnly), st.Done, st.Leased, st.Pending, st.Units)
	if st.Quarantined > 0 || st.Dropped > 0 {
		header += fmt.Sprintf(" (%d quarantined, %d dropped)", st.Quarantined, st.Dropped)
	}
	fmt.Fprintln(out, header+" ===")
	for _, u := range st.PerUnit {
		if u.State != dispatch.UnitLeased {
			continue
		}
		line := fmt.Sprintf("  unit %d leased by %s (expires in %dms, %d cells", u.Unit, u.Worker, u.ExpiresInMs, u.CellCount)
		if u.EstCostMs > 0 {
			line += fmt.Sprintf(", ~%dms expected", u.EstCostMs)
		}
		if u.HasPartial {
			line += ", intra-unit checkpoint on record"
		}
		fmt.Fprintln(out, line+")")
	}
	quar, err := q.Quarantined()
	if err != nil {
		return err
	}
	for _, e := range quar {
		line := fmt.Sprintf("  unit %d %s after %d strikes", e.Unit, e.State, e.Strikes)
		if e.LastFailure != "" {
			line += ": " + e.LastFailure
		}
		if e.HasPartial {
			line += " (intra-unit checkpoint on record)"
		}
		fmt.Fprintln(out, line)
	}
	quarCells, err := dispatch.QuarantinedCells(q)
	if err != nil {
		return err
	}
	if err := dispatch.RenderPartialDegraded(out, m, cp, quarCells); err != nil {
		return err
	}
	if outCp != "" {
		if err := resultio.WriteCheckpointFile(outCp, cp); err != nil {
			return err
		}
	}
	return nil
}

// completionMsg is the drain banner: a degraded campaign says so
// rather than claiming a clean finish.
func completionMsg(st dispatch.Status) string {
	if st.Degraded() {
		return fmt.Sprintf("campaign complete (degraded: %d units quarantined, %d dropped)", st.Quarantined, st.Dropped)
	}
	return "campaign complete"
}
