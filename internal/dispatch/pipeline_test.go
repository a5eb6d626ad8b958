package dispatch_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// eventQueue records the order of grants and submissions so a test
// can assert two operations overlapped.
type eventQueue struct {
	dispatch.Queue
	mu     sync.Mutex
	events []string
}

func (e *eventQueue) record(format string, args ...any) {
	e.mu.Lock()
	e.events = append(e.events, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

func (e *eventQueue) log() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.events...)
}

func (e *eventQueue) Acquire(worker string) (dispatch.Lease, error) {
	l, err := e.Queue.Acquire(worker)
	if err == nil {
		e.record("acquire:%d", l.Unit)
	}
	return l, err
}

func (e *eventQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	err := e.Queue.Submit(l, cp, elapsed)
	if err == nil {
		e.record("submit:%d", l.Unit)
	}
	return err
}

// TestWorkerLeasePipelining proves the worker overlaps the next
// Acquire with the current unit's tail cells: the second unit's grant
// must land BEFORE the first unit's submission — the acquire round
// trip is hidden behind the tail compute, not serialized after it.
func TestWorkerLeasePipelining(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Second)
	mq, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	q := &eventQueue{Queue: mq}

	// The instrumented runner checkpoints all but the unit's last cell
	// (arming the prefetch trigger), then refuses to "finish" the tail
	// cell until the prefetched grant is on record — so the test
	// passes only if the overlap actually happens, never by luck of
	// scheduling.
	firstUnit := true
	run := func(ctx context.Context, man dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
		stats := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
		if u.SavePartial != nil && len(u.Cells) > 1 {
			_ = u.SavePartial(checkpointForCells(t, man, u.Cells[:len(u.Cells)-1]))
		}
		if firstUnit {
			firstUnit = false
			deadline := time.Now().Add(10 * time.Second)
			for {
				if grants := countPrefix(q.log(), "acquire:"); grants >= 2 {
					break
				}
				if time.Now().After(deadline) {
					return nil, stats, fmt.Errorf("no overlapping acquire arrived while unit %d's tail cell was still computing", u.Unit)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		return checkpointForCells(t, man, u.Cells), stats, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := dispatch.Work(ctx, q, dispatch.WorkerOptions{Name: "pipelined", RunShard: run, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("worker submitted %d units, want 2", n)
	}

	events := q.log()
	secondAcquire, firstSubmit := -1, -1
	acquires := 0
	for i, ev := range events {
		if ev == "submit:0" || ev == "submit:1" {
			if firstSubmit == -1 {
				firstSubmit = i
			}
			continue
		}
		if acquires++; acquires == 2 && secondAcquire == -1 {
			secondAcquire = i
		}
	}
	if secondAcquire == -1 || firstSubmit == -1 {
		t.Fatalf("event log incomplete: %v", events)
	}
	if secondAcquire > firstSubmit {
		t.Fatalf("no pipelining: second acquire (event %d) after first submit (event %d): %v",
			secondAcquire, firstSubmit, events)
	}
}

// lateGrantQueue holds back the prefetch's grant: the second Acquire
// takes its unit from the queue at once but answers only after the
// worker's own next Acquire has come back with ErrNoWork, which it must
// since the in-flight prefetch already holds the last pending unit.
type lateGrantQueue struct {
	dispatch.Queue
	calls           atomic.Int32
	prefetchStarted chan struct{}
	noWork          chan struct{}
	noWorkAt        time.Time // set before noWork closes
}

func (q *lateGrantQueue) Acquire(worker string) (dispatch.Lease, error) {
	n := q.calls.Add(1)
	l, err := q.Queue.Acquire(worker)
	switch {
	case n == 2:
		close(q.prefetchStarted)
		select {
		case <-q.noWork:
		case <-time.After(20 * time.Second):
		}
	case n == 3 && errors.Is(err, dispatch.ErrNoWork):
		q.noWorkAt = time.Now()
		close(q.noWork)
	}
	return l, err
}

// TestWorkerAdoptsLatePrefetchOnNoWork pins the no-work race: when the
// worker's own Acquire answers ErrNoWork while its prefetch is still in
// flight, the worker must wait for the prefetch and start its unit at
// once, not sleep a whole Poll with the lease in hand.
func TestWorkerAdoptsLatePrefetchOnNoWork(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Second)
	mq, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	q := &lateGrantQueue{Queue: mq, prefetchStarted: make(chan struct{}), noWork: make(chan struct{})}

	// The first unit arms the prefetch with a partial of all but its
	// last cell and finishes once the prefetch's Acquire is under way.
	var secondStart time.Time
	run := func(ctx context.Context, man dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
		stats := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
		if q.calls.Load() == 1 {
			_ = u.SavePartial(checkpointForCells(t, man, u.Cells[:len(u.Cells)-1]))
			<-q.prefetchStarted
		} else {
			secondStart = time.Now()
		}
		return checkpointForCells(t, man, u.Cells), stats, nil
	}

	const poll = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	n, err := dispatch.Work(ctx, q, dispatch.WorkerOptions{Name: "late", RunShard: run, Poll: poll, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("worker submitted %d units, want 2", n)
	}
	if q.noWorkAt.IsZero() {
		t.Fatal("the worker's own Acquire never answered ErrNoWork during the prefetch")
	}
	if wait := secondStart.Sub(q.noWorkAt); wait > poll/5 {
		t.Fatalf("prefetched unit started %v after the ErrNoWork answer, want well under the %v poll", wait, poll)
	}
}

// heldGrantQueue holds the first prefetch's grant back until released,
// so the worker leases and runs another unit while that prefetch is
// still in flight.
type heldGrantQueue struct {
	dispatch.Queue
	calls, returned atomic.Int32
	heldIn          chan struct{} // closed once the held Acquire has its unit
	release         chan struct{}
}

func (q *heldGrantQueue) Acquire(worker string) (dispatch.Lease, error) {
	n := q.calls.Add(1)
	l, err := q.Queue.Acquire(worker)
	if n == 2 {
		close(q.heldIn)
		select {
		case <-q.release:
		case <-time.After(20 * time.Second):
		}
	}
	q.returned.Add(1)
	return l, err
}

// TestWorkerNeverStrandsAPrefetchedLease pins one prefetch in flight at
// a time. If a unit's tail starts a second prefetch while the previous
// unit's is still in flight, both deliver into the one-slot channel,
// the worker adopts one, and the other's lease sits in the channel
// with its babysitter heartbeating it forever: the campaign never
// drains.
func TestWorkerNeverStrandsAPrefetchedLease(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 4, time.Second)
	mq, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	q := &heldGrantQueue{Queue: mq, heldIn: make(chan struct{}), release: make(chan struct{})}

	// The first two units run to their tail cell, the prefetch
	// trigger. The first waits for its prefetch to hold a unit; the
	// second gives a second prefetch the chance to start and answer,
	// then lets the held grant answer too. Later units trigger nothing,
	// so a stranded lease cannot be picked up by a later prefetch.
	runs := 0
	run := func(ctx context.Context, man dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
		stats := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
		runs++
		if runs <= 2 && len(u.Cells) > 1 {
			_ = u.SavePartial(checkpointForCells(t, man, u.Cells[:len(u.Cells)-1]))
		}
		switch runs {
		case 1:
			<-q.heldIn
		case 2:
			for deadline := time.Now().Add(300 * time.Millisecond); q.returned.Load() < 3 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			close(q.release)
		}
		return checkpointForCells(t, man, u.Cells), stats, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n, err := dispatch.Work(ctx, q, dispatch.WorkerOptions{Name: "held", RunShard: run, Poll: 20 * time.Millisecond, Log: t.Logf})
	if err != nil || n != 4 {
		t.Fatalf("worker submitted %d of 4 units, err %v: a prefetched lease was stranded", n, err)
	}
}

func countPrefix(events []string, prefix string) int {
	n := 0
	for _, ev := range events {
		if len(ev) >= len(prefix) && ev[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}
