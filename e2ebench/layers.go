package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// budgetCoverage is the layer-budget check's stated fraction: each
// worker's unit and RPC spans plus its recorded waits (after a no-work
// answer; between a lease's grant and its unit's start) must cover at
// least this share of the worker's time from its first lease request
// to the drain.
const budgetCoverage = 0.95

// The per-op breakdowns: worker-side RPCs as dispatch.Client issues
// them, coordinator-side queue calls as dispatch.NewHandler makes them.
var (
	clientOps = []string{"lease", "partial", "loadpartial", "submit"}
	queueOps  = []string{"acquire", "savepartial", "loadpartial", "submit"}
)

// endToEnd reports the medians over the run's untraced campaigns, and
// apart from them the plain wall time, which only the summary prints.
func (b *bench) endToEnd() (ms []namedMetric, wallTime namedMetric) {
	var makespan, wall, cpu, alloc, heap, setup []float64
	for _, r := range b.done {
		if r.traced {
			continue
		}
		makespan = append(makespan, r.makespan.Seconds())
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/1e6)
		heap = append(heap, slices.Max(r.heapMB))
		setup = append(setup, (r.create + r.dial).Seconds())
	}
	m := func(name, unit string, xs []float64) namedMetric {
		q1, q3 := quartiles(xs)
		return namedMetric{name, metric{median(xs), unit}, fmt.Sprintf("(n=%d, quartiles %.4g..%.4g)", len(xs), q1, q3)}
	}
	size := fmt.Sprintf("%d cells, %d row measurements", b.ref.cells, b.ref.rows)
	mk := m("makespan_s", "s", makespan)
	mk.note += " for " + size
	return []namedMetric{
		mk,
		m("cpu_s", "s", cpu),
		m("alloc_mb", "MB", alloc),
		m("heap_peak_mb", "MB", heap),
		m("setup_s", "s", setup),
	}, m("wall_s", "s", wall)
}

// quartiles returns the first and third quartile of xs by
// interpolation between closest ranks.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}

type interval struct{ a, b int64 }

// union merges overlapping intervals and returns them sorted.
func union(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	var out []interval
	for _, x := range s {
		if x.b <= x.a {
			continue
		}
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, x.b)
			continue
		}
		out = append(out, x)
	}
	return out
}

// coveredIn is the length of [lo, hi] that iv covers.
func coveredIn(iv []interval, lo, hi int64) int64 {
	var n int64
	for _, x := range union(iv) {
		a, b := max(x.a, lo), min(x.b, hi)
		if b > a {
			n += b - a
		}
	}
	return n
}

// overlapTime is how long two or more of iv are in flight at once.
func overlapTime(iv []interval) int64 {
	type edge struct {
		t int64
		d int
	}
	var edges []edge
	for _, x := range iv {
		edges = append(edges, edge{x.a, +1}, edge{x.b, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	var total, prev int64
	depth := 0
	for _, e := range edges {
		if depth >= 2 {
			total += e.t - prev
		}
		depth += e.d
		prev = e.t
	}
	return total
}

// layerAcc sums per-campaign layer figures (reported as means per
// traced campaign) and pools per-call durations (for percentiles).
type layerAcc struct {
	campaigns   int
	sum         map[string]float64
	ms          map[string][]float64
	maxLeaseMs  float64
	minCoverage float64
}

func (b *bench) layers(fsyncMs float64) (*layerReport, error) {
	acc := &layerAcc{sum: make(map[string]float64), ms: make(map[string][]float64), minCoverage: 1}
	for _, r := range b.done {
		if r.tr != nil {
			acc.campaign(r)
		}
	}
	if acc.campaigns == 0 {
		return nil, fmt.Errorf("no traced campaign completed")
	}
	return acc.report(b, fsyncMs), nil
}

// campaign folds one traced campaign's spans into the accumulator and
// records its synthesized wait spans.
func (acc *layerAcc) campaign(r *campaignResult) {
	acc.campaigns++
	spans := r.tr.snapshot()
	drain := r.tr.at(r.drainAt)
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	child := func(parent int64, name string) (span, bool) {
		for _, i := range children[parent] {
			if strings.HasPrefix(spans[i].Name, name) {
				return spans[i], true
			}
		}
		return span{}, false
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	var queue []interval
	byWorker := make(map[string][]span)
	for _, s := range spans {
		switch {
		case s.Name == "core.unit":
			var partial int64
			for _, i := range children[s.ID] {
				if spans[i].Name == "core.partial" {
					partial += spans[i].dur()
				}
			}
			acc.sum["core.unit.n"]++
			acc.sum["core.unit.busy_s"] += sec(s.dur())
			acc.sum["core.unit.self_s"] += sec(s.dur() - partial)
			acc.sum["core.cells.computed"] += float64(s.Cells)
			acc.sum["core.cells.resumed"] += float64(s.Resumed)
			acc.ms["core.unit"] = append(acc.ms["core.unit"], ms(s.dur()))
			byWorker[s.Worker] = append(byWorker[s.Worker], s)
		case strings.HasPrefix(s.Name, "rpc."):
			op := strings.TrimPrefix(s.Name, "rpc.")
			key := "dispatch.rpc." + op
			acc.sum[key+".n"]++
			acc.sum[key+".busy_s"] += sec(s.dur())
			acc.ms[key] = append(acc.ms[key], ms(s.dur()))
			switch s.Outcome {
			case outcomeNoWork:
				acc.sum["dispatch.rpc.nowork"]++
			case outcomeFailed:
				acc.sum["dispatch.rpc.errors"]++
			}
			// HTTP and JSON self time: the client call minus the queue
			// call it caused on the coordinator.
			self := s.dur()
			if rt, ok := child(s.ID, "http.client"); ok {
				if op == "partial" {
					acc.sum["resultio.partial.bytes"] += float64(rt.Bytes)
				}
				if op == "submit" {
					acc.sum["resultio.submit.bytes"] += float64(rt.Bytes)
				}
				if srv, ok := child(rt.ID, "http.server"); ok {
					if q, ok := child(srv.ID, "queue."); ok {
						self -= q.dur()
					}
				}
			}
			acc.sum["dispatch.http."+op+".self_s"] += sec(self)
			byWorker[s.Worker] = append(byWorker[s.Worker], s)
		case s.Name == "http.client":
			acc.sum["dispatch.http.req.bytes"] += float64(s.Bytes)
			acc.sum["dispatch.http.resp.bytes"] += float64(s.RespBytes)
		case strings.HasPrefix(s.Name, "queue."):
			key := "dispatch.queue." + strings.TrimPrefix(s.Name, "queue.")
			acc.sum[key+".n"]++
			acc.sum[key+".busy_s"] += sec(s.dur())
			acc.ms[key] = append(acc.ms[key], ms(s.dur()))
			queue = append(queue, interval{s.Start, s.End})
		case s.Name == "worker":
			byWorker[s.Worker] = append(byWorker[s.Worker], s)
		}
	}
	acc.sum["dispatch.queue.contended_s"] += sec(overlapTime(queue))
	acc.sum["resultio.merge_s"] += r.merge.Seconds()
	acc.sum["resultio.out_s"] += r.out.Seconds()
	acc.sum["resultio.out.bytes"] += float64(r.outBytes)
	acc.sum["wal.state.bytes"] += float64(r.walBytes)
	acc.sum["report.render_s"] += r.render.Seconds()
	acc.sum["dispatch.setup.create_s"] += r.create.Seconds()
	acc.sum["dispatch.setup.dial_s"] += r.dial.Seconds()

	var exitLag int64
	for name, ws := range byWorker {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		waits := acc.worker(name, ws, drain)
		for i := range waits {
			waits[i].ID = r.tr.id()
		}
		r.tr.recordAll(waits)
		for _, s := range ws {
			if s.Name == "worker" {
				exitLag = max(exitLag, s.End-drain)
			}
		}
	}
	acc.sum["dispatch.worker.exit_lag_s"] += sec(exitLag)
}

// worker runs the layer-budget check for one worker and returns its
// synthesized wait spans. ws are the worker's spans sorted by start.
func (acc *layerAcc) worker(name string, ws []span, drain int64) []span {
	var root span
	var units, rpcs, main, prefetch []span
	first := int64(-1)
	for _, s := range ws {
		switch {
		case s.Name == "worker":
			root = s
		case s.Name == "core.unit":
			units = append(units, s)
		default:
			rpcs = append(rpcs, s)
			op := strings.TrimPrefix(s.Name, "rpc.")
			if op == "lease" && first < 0 {
				first = s.Start
			}
			switch {
			case op == "lease" && s.Prefetch:
				prefetch = append(prefetch, s)
			case op == "lease", op == "loadpartial", op == "submit", op == "fail":
				main = append(main, s)
			}
		}
	}
	if first < 0 || drain <= first {
		return nil
	}
	wait := func(kind string, from span, end int64) span {
		return span{Parent: root.ID, Name: "wait." + kind, Worker: name, Trace: from.Trace, Unit: from.Unit,
			Start: from.End, End: end, Campaign: root.Campaign}
	}
	var waits []span
	// After a no-work answer the main loop sleeps a poll interval until
	// its next call.
	for i, s := range main {
		if strings.TrimPrefix(s.Name, "rpc.") != "lease" || s.Outcome != outcomeNoWork {
			continue
		}
		next := root.End
		if i+1 < len(main) {
			next = main[i+1].Start
		}
		waits = append(waits, wait("nowork", s, next))
	}
	nowork := len(waits)
	// A granted lease waits until its unit starts.
	for _, s := range append(append([]span(nil), main...), prefetch...) {
		if strings.TrimPrefix(s.Name, "rpc.") != "lease" || s.Outcome != outcomeOK {
			continue
		}
		start := root.End
		for _, u := range units {
			if u.Unit == s.Unit && u.Start >= s.End {
				start = u.Start
				break
			}
		}
		w := wait("lease", s, start)
		waits = append(waits, w)
		d := float64(w.dur()) / 1e6
		acc.ms["dispatch.lease_wait"] = append(acc.ms["dispatch.lease_wait"], d)
		acc.maxLeaseMs = max(acc.maxLeaseMs, d)
	}

	var all, idle []interval
	for _, s := range units {
		all = append(all, interval{s.Start, s.End})
	}
	for _, s := range rpcs {
		all = append(all, interval{s.Start, s.End})
	}
	for i, w := range waits {
		all = append(all, interval{w.Start, w.End})
		if i < nowork {
			idle = append(idle, interval{w.Start, w.End})
		}
	}
	window := drain - first
	covered := coveredIn(all, first, drain)
	acc.sum["dispatch.worker.unaccounted_s"] += float64(window-covered) / 1e9
	acc.sum["dispatch.worker.idle_s"] += float64(coveredIn(idle, first, drain)) / 1e9
	acc.minCoverage = min(acc.minCoverage, float64(covered)/float64(window))

	// Hypothesis 4 of README.md: the main loop's own Acquire overlapping
	// an in-flight prefetch, and no-work sleeps taken while a granted
	// lease waits.
	for _, m := range main {
		if strings.TrimPrefix(m.Name, "rpc.") != "lease" {
			continue
		}
		for _, p := range prefetch {
			if p.Start < m.Start && m.Start < p.End {
				acc.sum["dispatch.worker.acquire_race"]++
				break
			}
		}
	}
	for _, nw := range waits[:nowork] {
		for _, lw := range waits[nowork:] {
			if lw.Start < nw.Start {
				a, b := max(nw.Start, lw.Start), min(nw.End, lw.End, drain)
				if b > a {
					acc.sum["dispatch.worker.stall_s"] += float64(b-a) / 1e9
				}
			}
		}
	}
	return waits
}

// layerReport is the traced run's per-layer result.
type layerReport struct {
	campaigns   int
	metrics     []namedMetric
	budgetOK    bool
	minCoverage float64
	unaccounted float64
}

func (acc *layerAcc) report(b *bench, fsyncMs float64) *layerReport {
	n := float64(acc.campaigns)
	rep := &layerReport{campaigns: acc.campaigns, minCoverage: acc.minCoverage,
		unaccounted: acc.sum["dispatch.worker.unaccounted_s"] / n}
	rep.budgetOK = acc.minCoverage >= budgetCoverage
	add := func(name, unit string, v float64, note string) {
		rep.metrics = append(rep.metrics, namedMetric{name, metric{v, unit}, note})
	}
	mean := func(name, unit string) { add(name, unit, acc.sum[name]/n, "") }
	pcts := func(prefix, samples string) {
		xs := acc.ms[samples]
		add(prefix+".p50_ms", "ms", median(xs), fmt.Sprintf("(n=%d)", len(xs)))
		v, pct := tail(xs)
		add(prefix+".tail_ms", "ms", v, fmt.Sprintf("(p%.1f of n=%d)", pct, len(xs)))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// core: unit compute, RunUnitWork -> Study.Run.
	mean("core.unit.n", "count")
	mean("core.unit.busy_s", "s")
	mean("core.unit.self_s", "s")
	pcts("core.unit", "core.unit")
	mean("core.cells.computed", "count")
	mean("core.cells.resumed", "count")
	add("core.cells.useful_ratio", "ratio", ratio(float64(b.ref.cells), acc.sum["core.cells.computed"]/n),
		"(grid cells / cells computed)")

	// resultio: checkpoint payloads, merge and the -out file.
	add("resultio.partial.n", "count", acc.sum["dispatch.rpc.partial.n"]/n, "")
	mean("resultio.partial.bytes", "B")
	mean("resultio.submit.bytes", "B")
	add("resultio.partial.amplification", "ratio",
		ratio(acc.sum["resultio.partial.bytes"], acc.sum["resultio.submit.bytes"]), "(partial / submit bytes)")
	mean("resultio.merge_s", "s")
	mean("resultio.out_s", "s")
	mean("resultio.out.bytes", "B")

	// dispatch, worker and client side.
	for _, op := range clientOps {
		key := "dispatch.rpc." + op
		mean(key+".n", "count")
		mean(key+".busy_s", "s")
		pcts(key, key)
	}
	mean("dispatch.rpc.nowork", "count")
	mean("dispatch.rpc.errors", "count")
	lw := acc.ms["dispatch.lease_wait"]
	add("dispatch.lease_wait.p50_ms", "ms", median(lw), fmt.Sprintf("(n=%d)", len(lw)))
	add("dispatch.lease_wait.max_ms", "ms", acc.maxLeaseMs, "")
	mean("dispatch.worker.idle_s", "s")
	mean("dispatch.worker.unaccounted_s", "s")
	add("dispatch.worker.coverage", "ratio", acc.minCoverage, fmt.Sprintf("(worst worker; budget >= %.2f)", budgetCoverage))
	mean("dispatch.worker.exit_lag_s", "s")
	mean("dispatch.worker.acquire_race", "count")
	mean("dispatch.worker.stall_s", "s")

	// dispatch, coordinator queue and WAL.
	for _, op := range queueOps {
		key := "dispatch.queue." + op
		mean(key+".n", "count")
		mean(key+".busy_s", "s")
		pcts(key, key)
	}
	mean("dispatch.queue.contended_s", "s")
	mean("wal.state.bytes", "B")
	add("disk.fsync.p50_ms", "ms", fsyncMs, "(4 KiB write + fsync in the state directory)")

	// HTTP and JSON: client call minus queue call.
	for _, op := range clientOps {
		mean("dispatch.http."+op+".self_s", "s")
	}
	mean("dispatch.http.req.bytes", "B")
	mean("dispatch.http.resp.bytes", "B")

	mean("report.render_s", "s")
	mean("dispatch.setup.create_s", "s")
	mean("dispatch.setup.dial_s", "s")

	// Tracing overhead: traced against untraced campaigns of this run.
	var mkT, mkU, cpuT, cpuU []float64
	for _, r := range b.done {
		if r.traced {
			mkT, cpuT = append(mkT, r.makespan.Seconds()), append(cpuT, r.cpu.Seconds())
		} else {
			mkU, cpuU = append(mkU, r.makespan.Seconds()), append(cpuU, r.cpu.Seconds())
		}
	}
	over := func(t, u []float64) float64 { return 100 * (ratio(median(t), median(u)) - 1) }
	add("trace.overhead.makespan_pct", "%", over(mkT, mkU), fmt.Sprintf("(traced %.4gs vs untraced %.4gs)", median(mkT), median(mkU)))
	add("trace.overhead.cpu_pct", "%", over(cpuT, cpuU), fmt.Sprintf("(traced %.4gs vs untraced %.4gs)", median(cpuT), median(cpuU)))
	return rep
}
