package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/faultpoint"
	"rowfuse/internal/resultio"
)

func newTestServer(t *testing.T, units int, ttl time.Duration) (*dispatch.Client, *dispatch.MemQueue) {
	t.Helper()
	m := dispatch.NewManifest(testConfig(t), units, ttl)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatch.NewHandler(q))
	t.Cleanup(srv.Close)
	c, err := dispatch.Dial(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, q
}

// TestHTTPSentinelRoundTrip verifies the client maps coordinator
// responses back onto the exact sentinel errors the in-process queues
// return, so worker logic is transport-agnostic.
func TestHTTPSentinelRoundTrip(t *testing.T) {
	c, _ := newTestServer(t, 1, time.Minute)
	m, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	l, err := c.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("w2"); !errors.Is(err, dispatch.ErrNoWork) {
		t.Fatalf("want ErrNoWork over HTTP, got %v", err)
	}
	if err := c.Heartbeat(l); err != nil {
		t.Fatal(err)
	}
	stale := l
	stale.Token = "0000"
	if err := c.Heartbeat(stale); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("want ErrLeaseLost over HTTP, got %v", err)
	}
	if err := c.Submit(l, resultio.NewCheckpoint("deadbeef", m.Plan(0), nil), 0); !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("want ErrConfigMismatch over HTTP, got %v", err)
	}
	if err := c.Submit(l, emptyCheckpoint(m, 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, emptyCheckpoint(m, 0), 0); !errors.Is(err, dispatch.ErrDuplicateSubmit) {
		t.Fatalf("want ErrDuplicateSubmit over HTTP, got %v", err)
	}
	if _, err := c.Acquire("w1"); !errors.Is(err, dispatch.ErrDrained) {
		t.Fatalf("want ErrDrained over HTTP, got %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("status over HTTP: %+v", st)
	}
}

// TestHTTPWorkersDrainCampaign runs real workers against a served
// coordinator and checks the merged result renders byte-identical to
// an unsharded run, and that the live /v1/report endpoint serves
// coverage-annotated partial figures along the way.
func TestHTTPWorkersDrainCampaign(t *testing.T) {
	cfg := testConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(t, single)

	q, err := dispatch.NewMemQueue(dispatch.NewManifest(cfg, 3, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatch.NewHandler(q))
	t.Cleanup(srv.Close)
	c, err := dispatch.Dial(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	report := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/report: %d %v", resp.StatusCode, err)
		}
		return string(b)
	}

	// The live report endpoint works before any submission.
	if rep := report(); !strings.Contains(rep, "partial: 0 of 18 cells") {
		t.Fatalf("pre-run report lacks coverage:\n%s", rep)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < 2; w++ {
		name := []string{"http-a", "http-b"}[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := dispatch.Work(ctx, c, dispatch.WorkerOptions{Name: name, Log: t.Logf}); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	got := renderCampaign(t, seedFromQueue(t, c))
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP campaign rendering differs from the unsharded run:\n--- http ---\n%s\n--- single ---\n%s", got, want)
	}
	if rep := report(); !strings.Contains(rep, "complete: 18 of 18 cells") {
		t.Fatalf("drained report not marked complete:\n%s", rep)
	}
}

// TestDialRetriesTransientManifestFailures pins Dial's bounded retry: a
// fault injected at the client before the manifest fetch and a 5xx
// answer without a sentinel are both retried, and the worker still
// drains the campaign; a sentinel answer returns at once.
func TestDialRetriesTransientManifestFailures(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	h := dispatch.NewHandler(q)
	var manifestGets, overloaded atomic.Int32
	overloaded.Store(1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/manifest") {
			manifestGets.Add(1)
			if overloaded.Add(-1) >= 0 {
				http.Error(w, "overloaded", http.StatusServiceUnavailable)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	sched, err := faultpoint.ParseSchedule("http.client:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(sched)
	defer faultpoint.Disarm()
	c, err := dispatch.Dial(srv.URL, srv.Client())
	if err != nil {
		t.Fatalf("Dial gave up on transient failures: %v", err)
	}
	if fired := faultpoint.Fired(); len(fired) != 1 || fired[0] != "http.client" {
		t.Fatalf("fired fault points %v, want the one http.client fault", fired)
	}
	if n := manifestGets.Load(); n != 2 {
		t.Fatalf("coordinator saw %d manifest requests, want 2 (one 503, one served)", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if n, err := dispatch.Work(ctx, c, dispatch.WorkerOptions{Name: "late-dialer", Log: t.Logf}); err != nil || n != 2 {
		t.Fatalf("worker drained %d units, err %v; want 2", n, err)
	}

	var sentinelGets atomic.Int32
	canceled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sentinelGets.Add(1)
		dispatch.WriteError(w, dispatch.ErrCanceled)
	}))
	defer canceled.Close()
	if _, err := dispatch.Dial(canceled.URL, canceled.Client()); !errors.Is(err, dispatch.ErrCanceled) {
		t.Fatalf("Dial against a canceled campaign: %v, want ErrCanceled", err)
	}
	if n := sentinelGets.Load(); n != 1 {
		t.Fatalf("sentinel answer retried: %d manifest requests", n)
	}
}
