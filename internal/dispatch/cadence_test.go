package dispatch_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// partialCounter counts a worker's intra-unit checkpoint calls.
type partialCounter struct {
	dispatch.Queue
	partials atomic.Int32
}

func (q *partialCounter) SavePartial(l dispatch.Lease, cp *resultio.Checkpoint) error {
	q.partials.Add(1)
	return q.Queue.SavePartial(l, cp)
}

// TestShortUnitsMakeNoPartialsButPrefetch runs the real unit runner
// under default worker options. Units that finish well within the
// compute-time checkpoint budget make no partial call at all, and the
// first unit's tail still prefetches the second: the trigger counts
// computed cells, not only acknowledged partials.
func TestShortUnitsMakeNoPartialsButPrefetch(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	mq, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	probe := &prefetchProbe{Queue: mq}
	q := &partialCounter{Queue: probe}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	n, err := dispatch.Work(ctx, q, dispatch.WorkerOptions{Name: "short", Log: t.Logf})
	if err != nil || n != 2 {
		t.Fatalf("worker submitted %d of 2 units: %v", n, err)
	}
	if got := q.partials.Load(); got != 0 {
		t.Fatalf("worker made %d partial calls, want none for units shorter than the checkpoint budget", got)
	}
	if !probe.prefetched.Load() {
		t.Fatal("the first unit's tail never prefetched the second unit")
	}
}
