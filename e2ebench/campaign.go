package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// numWorkers is the worker count: one compute goroutine each, so the
// campaign uses no more cores than a two-core host has.
const numWorkers = 2

// lingerTimeout bounds how long the end of a run waits for workers
// still asleep in a no-work poll to observe the drain.
const lingerTimeout = 30 * time.Second

// bench holds one run's fixed inputs and everything its campaigns
// measured.
type bench struct {
	w   workload
	cfg core.StudyConfig
	ref *referenceRun
	dir string
	// linger lets a finished campaign's workers wake from their no-work
	// poll on their own, as the exit-lag figure of a traced run needs.
	// Otherwise teardown wakes them at once, so no client or server of
	// one campaign is still live, or still running, in the next one's
	// window.
	linger bool

	base time.Time // span clock origin
	ids  atomic.Int64
	heap *heapWatch
	ops  outcomes

	done    []*campaignResult
	lingers []*linger
	runErr  error // what ended the run early
}

func newBench(w workload, cfg core.StudyConfig, ref *referenceRun, dir string, linger bool) *bench {
	return &bench{w: w, cfg: cfg, ref: ref, dir: dir, linger: linger, base: time.Now(), heap: newHeapWatch()}
}

func (b *bench) close() { b.heap.close() }

// outcomes counts attempted and failed operations across a run:
// every worker-side queue call and every campaign's output check.
type outcomes struct{ attempted, failed atomic.Int64 }

func (o *outcomes) count(err error) {
	o.attempted.Add(1)
	if outcome(err) == outcomeFailed {
		o.failed.Add(1)
	}
}

// Outcomes of a queue call. Protocol answers steer workers and are not
// failures; outcomeFailed covers transport errors, 5xx responses and
// rejected checkpoints (resultio.ErrBadCheckpoint, ErrConfigMismatch).
const (
	outcomeOK        = ""
	outcomeNoWork    = "nowork"
	outcomeDrained   = "drained"
	outcomeDuplicate = "duplicate"
	outcomeLeaseLost = "leaselost"
	outcomeFailed    = "failed"
)

func outcome(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, dispatch.ErrNoWork):
		return outcomeNoWork
	case errors.Is(err, dispatch.ErrDrained):
		return outcomeDrained
	case errors.Is(err, dispatch.ErrDuplicateSubmit):
		return outcomeDuplicate
	case errors.Is(err, dispatch.ErrLeaseLost):
		return outcomeLeaseLost
	}
	return outcomeFailed
}

// campaignResult is what one campaign measured.
type campaignResult struct {
	iter   int
	traced bool

	create, dial       time.Duration // set-up
	wall, cpu          time.Duration // first lease to verified report
	makespan           time.Duration // wall less the vCPU time the host stole
	allocBytes         uint64
	heapMB             []float64 // live heap after each GC in the window
	stealPct           float64   // share of all CPU time the host stole meanwhile
	merge, out, render time.Duration
	outBytes, walBytes int64
	match              bool

	drainAt time.Time
	tr      *tracer // nil for an untraced campaign
	workers []*worker
}

// worker is one dispatch.Work loop and its HTTP client.
type worker struct {
	name      string
	q         *workerQueue
	transport *http.Transport
	trace     *workerTrace // nil untraced

	// err is written by the worker's goroutine before it finishes and
	// read after the linger's WaitGroup says so.
	err error
}

// linger tracks a finished campaign whose workers may still sleep in a
// no-work poll: the listener keeps answering "drained" (as campaignd's
// -linger does) until every worker has returned.
type linger struct {
	cancel context.CancelFunc
	done   chan struct{}
	// retired is set when teardown wakes the workers after the drain
	// was verified; a worker canceled then has exited cleanly.
	retired atomic.Bool
}

// retire wakes the campaign's workers and waits until they and the
// listener are gone.
func (l *linger) retire() {
	l.retired.Store(true)
	l.cancel()
	<-l.done
}

func (b *bench) counts() (untraced, traced int) {
	for _, r := range b.done {
		if r.traced {
			traced++
		} else {
			untraced++
		}
	}
	return untraced, traced
}

func (b *bench) attempted() int64 { return b.ops.attempted.Load() }
func (b *bench) failed() int64    { return b.ops.failed.Load() }

// correct reports whether every campaign drained and rendered exactly
// the single-process report, and every worker exited cleanly.
func (b *bench) correct() bool {
	if b.runErr != nil {
		return false
	}
	for _, r := range b.done {
		if !r.match {
			return false
		}
		for _, w := range r.workers {
			if w.err != nil {
				return false
			}
		}
	}
	return true
}

// campaign runs one campaign end to end and records its measurements.
func (b *bench) campaign(ctx context.Context, iter int, traced bool) error {
	res := &campaignResult{iter: iter, traced: traced}
	if traced {
		res.tr = &tracer{base: b.base, campaign: iter, ids: &b.ids}
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("campaign-%03d", iter))
	outPath := dir + ".out.json"
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	// Every campaign starts from the same live heap, as a fresh
	// coordinator and fresh workers would.
	runtime.GC()

	// Set-up: what `campaignd -listen -state` does before it serves,
	// then each worker dialing in (dispatch.Dial fetches and validates
	// the manifest).
	t0 := time.Now()
	m := dispatch.NewManifest(b.cfg, b.w.units, leaseTTL)
	q, err := dispatch.CreateWALQueue(dir, m)
	if err != nil {
		return err
	}
	coord := newCoordinator(q, res.tr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Close()
		return err
	}
	srv := &http.Server{Handler: coord}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once the linger closes it
	}()
	t1 := time.Now()
	base := "http://" + ln.Addr().String()
	for i := 0; i < numWorkers; i++ {
		wk, err := b.dial(base, fmt.Sprintf("w%d", i), res.tr)
		if err != nil {
			srv.Close()
			q.Close()
			return err
		}
		res.workers = append(res.workers, wk)
	}
	t2 := time.Now()
	res.create, res.dial = t1.Sub(t0), t2.Sub(t1)
	if res.tr != nil {
		res.tr.record(span{ID: res.tr.id(), Name: "setup.create", Unit: -1, Start: res.tr.at(t0), End: res.tr.at(t1)})
		res.tr.record(span{ID: res.tr.id(), Name: "setup.dial", Unit: -1, Start: res.tr.at(t1), End: res.tr.at(t2)})
	}

	// The measured window: the workers' first lease requests to the
	// verified report and the written -out checkpoint.
	before, err := sampleProcess()
	if err != nil {
		return err
	}
	b.heap.start()
	wctx, cancel := context.WithCancel(ctx)
	l := &linger{cancel: cancel, done: make(chan struct{})}
	var wg sync.WaitGroup
	returned := make(chan struct{}, len(res.workers))
	for _, wk := range res.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := dispatch.WorkerOptions{Name: wk.name, Concurrency: 1}
			if wk.trace != nil {
				opt.RunShard = wk.trace.runShard
				wk.trace.begin()
			}
			_, err := dispatch.Work(wctx, wk.q, opt)
			if l.retired.Load() && errors.Is(err, context.Canceled) {
				err = nil
			}
			if wk.trace != nil {
				wk.trace.end(err)
			}
			wk.err = err
			returned <- struct{}{}
		}()
	}
	go func() {
		defer close(l.done)
		wg.Wait()
		cancel()
		srv.Close()
		<-served
		// Drop the clients too: the run keeps every campaign's result,
		// and a retained client would grow the live heap run by run.
		for _, wk := range res.workers {
			wk.transport.CloseIdleConnections()
			wk.q, wk.transport = nil, nil
		}
	}()
	b.lingers = append(b.lingers, l)

	timeout := time.NewTimer(campaignTimeout)
	defer timeout.Stop()
	select {
	case <-coord.drained:
	case <-returned:
		// A worker that saw the drain may return before the handler
		// that accepted the last submit has closed drained: ask the
		// queue itself.
		coord.checkDrained()
		select {
		case <-coord.drained:
		default:
			cancel()
			<-l.done
			q.Close()
			return fmt.Errorf("a worker stopped before the campaign drained: %w", firstWorkerErr(res.workers))
		}
	case <-timeout.C:
		cancel()
		<-l.done
		q.Close()
		return fmt.Errorf("%w within %v", errNoDrain, campaignTimeout)
	}
	res.drainAt = coord.drainAt

	fin, err := b.finish(res, q, outPath)
	if err != nil {
		return err
	}
	after, err := sampleProcess()
	if err != nil {
		return err
	}
	// The closing collection runs while the merged checkpoint and the
	// rendered study are still live, as they are when the report is
	// written: every campaign's peak then includes that end state.
	res.heapMB = b.heap.stop()
	runtime.KeepAlive(fin)
	res.wall = after.t.Sub(before.t)
	res.cpu = after.cpu - before.cpu
	res.makespan = unstolen(res.wall, stolen(before, after), res.cpu, runtime.NumCPU())
	if dt := after.ticks - before.ticks; dt > 0 {
		res.stealPct = 100 * float64(after.steal-before.steal) / float64(dt)
	}
	res.allocBytes = after.alloc - before.alloc
	res.match = bytes.Equal(fin.out, b.ref.output)
	b.ops.attempted.Add(1) // the output check
	if !res.match {
		b.ops.failed.Add(1)
	}
	if res.tr != nil {
		res.tr.record(span{ID: res.tr.id(), Name: "campaign", Unit: -1, Start: res.tr.at(before.t), End: res.tr.at(after.t)})
	}

	// Teardown, outside the window: stop serving the queue (the
	// listener lingers with "drained" answers), then drop its state.
	coord.stopServing()
	if !b.linger {
		l.retire()
	}
	if res.walBytes, err = dirSize(dir); err != nil {
		return err
	}
	if fi, err := os.Stat(outPath); err == nil {
		res.outBytes = fi.Size()
	}
	if err := q.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.Remove(outPath); err != nil {
		return err
	}
	b.done = append(b.done, res)
	if !res.match {
		return fmt.Errorf("campaign %d: report differs from the single-process Study.Run", iter)
	}
	return nil
}

// final is what the end of a campaign holds: the merged checkpoint,
// the study seeded from it, and the rendered report.
type final struct {
	cp    *resultio.Checkpoint
	study *core.Study
	out   []byte
}

// finish is the coordinator's end of a campaign: merge the accepted
// checkpoints, write the -out checkpoint, and render the final report
// from the merged cells.
func (b *bench) finish(res *campaignResult, q dispatch.Queue, outPath string) (*final, error) {
	step := func(name string, d *time.Duration, f func() error) error {
		start := time.Now()
		err := f()
		end := time.Now()
		*d = end.Sub(start)
		if res.tr != nil {
			res.tr.record(span{ID: res.tr.id(), Name: name, Unit: -1, Start: res.tr.at(start), End: res.tr.at(end)})
		}
		return err
	}
	fin := &final{}
	if err := step("resultio.merge", &res.merge, func() (err error) {
		fin.cp, err = q.Merged()
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("resultio.out", &res.out, func() error {
		return resultio.WriteCheckpointFile(outPath, fin.cp)
	}); err != nil {
		return nil, err
	}
	err := step("report.render", &res.render, func() error {
		cells, err := fin.cp.CellMap()
		if err != nil {
			return err
		}
		fin.study = core.NewStudy(b.cfg)
		if err := fin.study.Seed(cells); err != nil {
			return err
		}
		fin.out, err = b.w.render(fin.study)
		return err
	})
	return fin, err
}

// dial connects one worker the way characterize -worker does, on a
// transport of its own, as a separate worker process would have.
func (b *bench) dial(base, name string, tr *tracer) (*worker, error) {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	wk := &worker{name: name, transport: transport}
	var rt http.RoundTripper = transport
	if tr != nil {
		wk.trace = newWorkerTrace(name, tr)
		rt = &tracingTransport{base: transport, w: wk.trace}
	}
	// dispatch.Dial's own default client has the same one-minute
	// timeout; only the transport differs.
	c, err := dispatch.Dial(base, &http.Client{Timeout: time.Minute, Transport: rt})
	if err != nil {
		return nil, err
	}
	wk.q = &workerQueue{Queue: c, ops: &b.ops, w: wk.trace}
	return wk, nil
}

// waitWorkers waits for every campaign's workers to observe the drain
// and return, canceling any still running after lingerTimeout.
func (b *bench) waitWorkers() error {
	deadline := time.NewTimer(lingerTimeout)
	defer deadline.Stop()
	for _, l := range b.lingers {
		select {
		case <-l.done:
		case <-deadline.C:
			for _, l := range b.lingers {
				l.cancel()
			}
			<-l.done
		}
	}
	for _, l := range b.lingers {
		<-l.done
	}
	for _, r := range b.done {
		if err := firstWorkerErr(r.workers); err != nil {
			b.ops.failed.Add(1)
			return fmt.Errorf("campaign %d: worker: %w", r.iter, err)
		}
	}
	return nil
}

func firstWorkerErr(ws []*worker) error {
	for _, w := range ws {
		if w.err != nil {
			return fmt.Errorf("%s: %w", w.name, w.err)
		}
	}
	return nil
}

// coordinator is the loopback HTTP front of the campaign's WAL queue.
type coordinator struct {
	wal *dispatch.WALQueue
	tr  *tracer
	// handler serves untraced campaigns: one dispatch.NewHandler, as
	// campaignd builds it.
	handler http.Handler

	mu        sync.RWMutex // shared by every request, exclusive in stopServing
	lingering bool

	drained   chan struct{}
	drainOnce sync.Once
	drainAt   time.Time // set before drained closes
}

// spanHeader carries the client's HTTP span ID to the coordinator, so
// coordinator spans link to the worker RPC that caused them.
const spanHeader = "Rowfuse-Bench-Span"

func newCoordinator(q *dispatch.WALQueue, tr *tracer) *coordinator {
	c := &coordinator{wal: q, tr: tr, drained: make(chan struct{})}
	c.handler = dispatch.NewHandler(&coordQueue{Queue: q, c: c})
	return c
}

func (c *coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.lingering {
		dispatch.WriteError(w, dispatch.ErrDrained)
		return
	}
	if c.tr == nil {
		c.handler.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	sp := span{ID: c.tr.id(), Parent: parent, Name: "http.server", Unit: -1, Start: c.tr.now(), Bytes: max(r.ContentLength, 0)}
	// A request-scoped handler over a request-scoped queue view parents
	// the queue op's span on this request's span.
	dispatch.NewHandler(&coordQueue{Queue: c.wal, c: c, parent: sp.ID}).ServeHTTP(w, r)
	sp.End = c.tr.now()
	c.tr.record(sp)
}

// stopServing waits out in-flight requests; from then on every request
// is answered "drained". It drops the queue, so a lingering listener
// does not keep the finished campaign's state live into the next one.
func (c *coordinator) stopServing() {
	c.mu.Lock()
	c.lingering = true
	c.wal, c.handler = nil, nil
	c.mu.Unlock()
}

// checkDrained closes drained once the queue reports every unit done.
func (c *coordinator) checkDrained() {
	st, err := c.wal.Status()
	if err != nil || !st.Drained() {
		return
	}
	c.drainOnce.Do(func() {
		c.drainAt = time.Now()
		close(c.drained)
	})
}

// coordQueue is the coordinator's queue as the HTTP handler sees it:
// the WAL queue, a drain check after each accepted submit and, when
// traced, one span per call.
type coordQueue struct {
	dispatch.Queue
	c      *coordinator
	parent int64
}

func (q *coordQueue) call(op string, l dispatch.Lease, f func() (dispatch.Lease, error)) (dispatch.Lease, error) {
	tr := q.c.tr
	if tr == nil {
		return f()
	}
	sp := span{ID: tr.id(), Parent: q.parent, Name: "queue." + op, Trace: l.Token, Worker: l.Worker, Unit: l.Unit, Start: tr.now()}
	got, err := f()
	sp.End, sp.Outcome = tr.now(), outcome(err)
	if op == "acquire" && err == nil {
		sp.Trace, sp.Unit = got.Token, got.Unit
	}
	tr.record(sp)
	return got, err
}

func (q *coordQueue) Acquire(worker string) (dispatch.Lease, error) {
	return q.call("acquire", dispatch.Lease{Unit: -1, Worker: worker}, func() (dispatch.Lease, error) {
		return q.Queue.Acquire(worker)
	})
}

func (q *coordQueue) Heartbeat(l dispatch.Lease) error {
	_, err := q.call("heartbeat", l, func() (dispatch.Lease, error) { return l, q.Queue.Heartbeat(l) })
	return err
}

func (q *coordQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	_, err := q.call("submit", l, func() (dispatch.Lease, error) { return l, q.Queue.Submit(l, cp, elapsed) })
	if err == nil {
		q.c.checkDrained()
	}
	return err
}

func (q *coordQueue) SavePartial(l dispatch.Lease, cp *resultio.Checkpoint) error {
	_, err := q.call("savepartial", l, func() (dispatch.Lease, error) { return l, q.Queue.SavePartial(l, cp) })
	return err
}

func (q *coordQueue) LoadPartial(l dispatch.Lease) (*resultio.Checkpoint, error) {
	var cp *resultio.Checkpoint
	_, err := q.call("loadpartial", l, func() (_ dispatch.Lease, err error) {
		cp, err = q.Queue.LoadPartial(l)
		return l, err
	})
	return cp, err
}

func (q *coordQueue) Fail(l dispatch.Lease, reason string) error {
	_, err := q.call("fail", l, func() (dispatch.Lease, error) { return l, q.Queue.Fail(l, reason) })
	return err
}

// procSample is the process's clock, CPU time and cumulative heap
// allocation at one instant.
type procSample struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64
	// steal and ticks are the host's cumulative stolen and total CPU
	// ticks from /proc/stat (zero where it cannot be read).
	steal, ticks uint64
}

func sampleProcess() (procSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}, fmt.Errorf("getrusage: %w", err)
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	steal, ticks := readSteal()
	return procSample{
		t:     time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
		steal: steal,
		ticks: ticks,
	}, nil
}

// clockTicks is the unit of /proc/stat's counters, USER_HZ, which the
// kernel fixes at 100 per second for user space.
const clockTicks = 100

// stolen is the vCPU time the hypervisor withheld between two samples,
// summed over the host's vCPUs.
func stolen(before, after procSample) time.Duration {
	return time.Duration(after.steal-before.steal) * time.Second / clockTicks
}

// unstolen is a campaign's makespan on the CPU time the host gave it:
// the wall time less the vCPU time stolen meanwhile. Other tenants
// take that time in spells of seconds to minutes; left in, it moves
// the wall time of a run several times as much as anything the program
// does (see README.md). Stolen spells that overlap on two vCPUs count
// twice, so the figure never drops below the campaign's CPU time spread
// over every vCPU, the least any schedule can take.
func unstolen(wall, stolen, cpu time.Duration, vcpus int) time.Duration {
	return max(wall-stolen, cpu/time.Duration(vcpus))
}

// readSteal returns the steal and total ticks of /proc/stat's first
// line: time the hypervisor ran something else while a vCPU wanted to
// run, against all CPU time.
func readSteal() (steal, ticks uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine reads /proc/stat's aggregate "cpu" line: user, nice,
// system, idle, iowait, irq, softirq and steal ticks, then guest
// ticks, which user already counts. It returns zeros for anything else.
func parseCPULine(line string) (steal, ticks uint64) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already counted in user time
			ticks += v
		}
	}
	return steal, ticks
}

// heapWatch samples the live heap after every GC while a campaign's
// window is open: a finalizer re-armed on every cycle reads the
// runtime's live-heap figure.
type heapWatch struct {
	mu      sync.Mutex
	active  bool
	closed  bool
	samples []float64 // MB
}

type gcSentinel struct{ h *heapWatch }

func newHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{h: h}, func(s *gcSentinel) {
		s.h.observe()
		s.h.mu.Lock()
		closed := s.h.closed
		s.h.mu.Unlock()
		if !closed {
			s.h.arm()
		}
	})
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func (h *heapWatch) observe() {
	live := liveHeapMB()
	h.mu.Lock()
	if h.active {
		h.samples = append(h.samples, live)
	}
	h.mu.Unlock()
}

// start opens a window; its first sample is the live heap the last
// collection left.
func (h *heapWatch) start() {
	live := liveHeapMB()
	h.mu.Lock()
	h.active, h.samples = true, []float64{live}
	h.mu.Unlock()
}

// stop closes the window with one more collection, so a campaign that
// never triggered a GC still reports the heap it left live, and
// returns the window's samples.
func (h *heapWatch) stop() []float64 {
	runtime.GC()
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.active = false
	return h.samples
}

func (h *heapWatch) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// fsyncLatency is a disk calibration for the traced run: the median
// latency of a 4 KiB write plus fsync in the state directory, the floor
// under every journaled coordinator op.
func fsyncLatency(dir string) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 4096)
	var ms []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), f.Close()
}
