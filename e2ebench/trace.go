package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// span is one timed call at a layer boundary. Spans of one lease share
// its token as their trace ID; times are nanoseconds since the run
// started.
type span struct {
	Campaign  int    `json:"campaign"`
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Trace     string `json:"trace,omitempty"`
	Name      string `json:"name"`
	Worker    string `json:"worker,omitempty"`
	Unit      int    `json:"unit"` // -1: no unit
	Start     int64  `json:"startNs"`
	End       int64  `json:"endNs"`
	Bytes     int64  `json:"bytes,omitempty"`     // request body bytes
	RespBytes int64  `json:"respBytes,omitempty"` // response body bytes
	Status    int    `json:"status,omitempty"`    // HTTP status
	Outcome   string `json:"outcome,omitempty"`
	Prefetch  bool   `json:"prefetch,omitempty"` // a lease acquired ahead of need
	Cells     int    `json:"cells,omitempty"`    // cells computed by a unit
	Resumed   int    `json:"resumed,omitempty"`  // cells a unit resumed
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one campaign's spans in memory; they are written out
// when the run ends.
type tracer struct {
	base     time.Time
	campaign int
	ids      *atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (t *tracer) id() int64             { return t.ids.Add(1) }
func (t *tracer) now() int64            { return int64(time.Since(t.base)) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
func (t *tracer) record(s span) {
	t.mu.Lock()
	s.Campaign = t.campaign
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}
func (t *tracer) recordAll(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// workerQueue is one worker's queue: the dispatch.Client plus outcome
// accounting and, when traced, one span per call.
type workerQueue struct {
	dispatch.Queue
	ops *outcomes
	w   *workerTrace // nil untraced
}

func (q *workerQueue) call(op string, l dispatch.Lease, f func() (dispatch.Lease, error)) (dispatch.Lease, error) {
	var sp span
	if q.w != nil {
		sp = q.w.startRPC(op, l)
	}
	got, err := f()
	q.ops.count(err)
	if q.w != nil {
		q.w.endRPC(op, sp, got, err)
	}
	return got, err
}

func (q *workerQueue) Acquire(worker string) (dispatch.Lease, error) {
	return q.call("lease", dispatch.Lease{Unit: -1}, func() (dispatch.Lease, error) { return q.Queue.Acquire(worker) })
}

func (q *workerQueue) Heartbeat(l dispatch.Lease) error {
	_, err := q.call("heartbeat", l, func() (dispatch.Lease, error) { return l, q.Queue.Heartbeat(l) })
	return err
}

func (q *workerQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	_, err := q.call("submit", l, func() (dispatch.Lease, error) { return l, q.Queue.Submit(l, cp, elapsed) })
	return err
}

func (q *workerQueue) SavePartial(l dispatch.Lease, cp *resultio.Checkpoint) error {
	_, err := q.call("partial", l, func() (dispatch.Lease, error) { return l, q.Queue.SavePartial(l, cp) })
	return err
}

func (q *workerQueue) LoadPartial(l dispatch.Lease) (*resultio.Checkpoint, error) {
	var cp *resultio.Checkpoint
	_, err := q.call("loadpartial", l, func() (_ dispatch.Lease, err error) {
		cp, err = q.Queue.LoadPartial(l)
		return l, err
	})
	return cp, err
}

// Fail is a strike against the unit: a failure whatever the call
// returns.
func (q *workerQueue) Fail(l dispatch.Lease, reason string) error {
	q.ops.failed.Add(1)
	_, err := q.call("fail", l, func() (dispatch.Lease, error) { return l, q.Queue.Fail(l, reason) })
	return err
}

// rpcPath maps a worker op to the request path dispatch.Client uses.
var rpcPath = map[string]string{
	"lease":       "/v1/lease",
	"heartbeat":   "/v1/heartbeat",
	"submit":      "/v1/submit",
	"partial":     "/v1/partial",
	"loadpartial": "/v1/partial",
	"fail":        "/v1/fail",
}

// workerTrace is one traced worker's span state.
type workerTrace struct {
	name string
	tr   *tracer
	root span // the worker's Work call

	// curUnit and curPartial are the running unit's span and its
	// in-flight partial-checkpoint callback span: a worker runs one
	// unit at a time and saves its partials one at a time.
	curUnit, curPartial atomic.Int64

	mu sync.Mutex
	// pending holds, per request path, the IDs of client spans whose
	// HTTP request has not been sent yet; the transport parents its
	// span on the oldest. Only the lease path ever holds two (the
	// prefetch and the main loop), and both are this worker's acquires.
	pending map[string][]int64
	grants  map[int]string // unit -> token of this worker's latest lease
}

func newWorkerTrace(name string, tr *tracer) *workerTrace {
	return &workerTrace{name: name, tr: tr, pending: make(map[string][]int64), grants: make(map[int]string)}
}

func (w *workerTrace) begin() {
	w.root = span{ID: w.tr.id(), Name: "worker", Worker: w.name, Unit: -1, Start: w.tr.now()}
}

func (w *workerTrace) end(err error) {
	w.root.End, w.root.Outcome = w.tr.now(), outcome(err)
	w.tr.record(w.root)
}

func (w *workerTrace) startRPC(op string, l dispatch.Lease) span {
	sp := span{ID: w.tr.id(), Parent: w.root.ID, Name: "rpc." + op, Worker: w.name, Trace: l.Token, Unit: l.Unit}
	switch op {
	case "partial":
		if p := w.curPartial.Load(); p != 0 {
			sp.Parent = p
		}
	case "lease":
		if calledFromPrefetch() {
			sp.Prefetch = true
			if u := w.curUnit.Load(); u != 0 {
				sp.Parent = u
			}
		}
	}
	w.mu.Lock()
	w.pending[rpcPath[op]] = append(w.pending[rpcPath[op]], sp.ID)
	w.mu.Unlock()
	sp.Start = w.tr.now()
	return sp
}

func (w *workerTrace) endRPC(op string, sp span, got dispatch.Lease, err error) {
	sp.End, sp.Outcome = w.tr.now(), outcome(err)
	w.mu.Lock()
	// A call that never reached the transport leaves its ID behind.
	path := rpcPath[op]
	for i, id := range w.pending[path] {
		if id == sp.ID {
			w.pending[path] = append(w.pending[path][:i], w.pending[path][i+1:]...)
			break
		}
	}
	if op == "lease" && err == nil {
		sp.Trace, sp.Unit = got.Token, got.Unit
		w.grants[got.Unit] = got.Token
	}
	w.mu.Unlock()
	w.tr.record(sp)
}

// takeParent pops the oldest client span waiting on path.
func (w *workerTrace) takeParent(path string) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := w.pending[path]
	if len(ids) == 0 {
		return 0
	}
	w.pending[path] = ids[1:]
	return ids[0]
}

func (w *workerTrace) token(unit int) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.grants[unit]
}

// runShard is the traced worker's WorkerOptions.RunShard: the default
// dispatch.RunUnitWork with one compute goroutine, inside a unit span,
// with every partial-checkpoint callback inside a span of its own.
func (w *workerTrace) runShard(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
	sp := span{ID: w.tr.id(), Parent: w.root.ID, Name: "core.unit", Worker: w.name, Unit: u.Unit, Trace: w.token(u.Unit)}
	w.curUnit.Store(sp.ID)
	if save := u.SavePartial; save != nil {
		u.SavePartial = func(cp *resultio.Checkpoint) error {
			ps := span{ID: w.tr.id(), Parent: sp.ID, Name: "core.partial", Worker: w.name, Unit: u.Unit, Trace: sp.Trace, Start: w.tr.now()}
			w.curPartial.Store(ps.ID)
			err := save(cp)
			w.curPartial.Store(0)
			ps.End, ps.Outcome = w.tr.now(), outcome(err)
			w.tr.record(ps)
			return err
		}
	}
	sp.Start = w.tr.now()
	cp, stats, err := dispatch.RunUnitWork(ctx, m, u, 1)
	sp.End = w.tr.now()
	w.curUnit.Store(0)
	sp.Cells, sp.Resumed = stats.ComputedCells, stats.ResumedCells
	if err != nil {
		sp.Outcome = outcomeFailed
	}
	w.tr.record(sp)
	return cp, stats, err
}

// calledFromPrefetch reports whether the caller runs on the goroutine
// dispatch.Work starts to acquire the next lease ahead of need
// (dispatch's prefetchLease). dispatch offers no hook that tells it
// from the main loop's own Acquire, and hypothesis 4 of README.md is
// about their overlap; if the function is renamed, every acquire reads
// as the main loop's.
func calledFromPrefetch() bool {
	var pcs [32]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "dispatch.prefetchLease") {
			return true
		}
		if !more {
			return false
		}
	}
}

// tracingTransport times each HTTP exchange of one worker, counts its
// body bytes, and tells the coordinator the span ID in spanHeader.
type tracingTransport struct {
	base http.RoundTripper
	w    *workerTrace
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.w.tr
	sp := span{ID: tr.id(), Parent: t.w.takeParent(req.URL.Path), Name: "http.client", Worker: t.w.name,
		Unit: -1, Bytes: max(req.ContentLength, 0)}
	out := req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	out.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
	sp.Start = tr.now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.End, sp.Outcome = tr.now(), outcomeFailed
		tr.record(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.RespBytes, sp.End = n, tr.now()
		tr.record(sp)
	}}
	return resp, nil
}

// countedBody counts a response body's bytes and ends its span when
// the client closes it.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// writeSpans writes every traced campaign's spans as JSON lines. Spans
// that carry no lease token inherit their parent's.
func (b *bench) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range b.done {
		if r.tr == nil {
			continue
		}
		spans := r.tr.snapshot()
		byID := make(map[int64]int, len(spans))
		for i, s := range spans {
			byID[s.ID] = i
		}
		var trace func(i int, depth int) string
		trace = func(i, depth int) string {
			if spans[i].Trace != "" || depth > 16 {
				return spans[i].Trace
			}
			if p, ok := byID[spans[i].Parent]; ok {
				return trace(p, depth+1)
			}
			return ""
		}
		for i := range spans {
			spans[i].Trace = trace(i, 0)
		}
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
