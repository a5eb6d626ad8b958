package dispatch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// ForceLockFiles records an initialized campaign directory as
// coordinating through O_EXCL lock files, as InitDir does when the
// hard-link probe fails, so tests exercise the no-hard-links path on
// filesystems that do support them.
func ForceLockFiles(dir string) error {
	return os.WriteFile(filepath.Join(dir, lockModeFile), []byte("1\n"), 0o644)
}

// ExclusiveCreateForTest exposes the lock-file claim protocol for the
// stale-claim live-lock regression test.
func ExclusiveCreateForTest(dir, name string, content []byte, stale time.Duration) error {
	return exclusiveCreate(dir, name, content, false, stale)
}

// The journal's file name and the record kinds of accepted checkpoints,
// for tests that read a WALQueue's journal directly.
const (
	WALFile     = walFile
	KindSubmit  = kindSubmit
	KindPartial = kindPartial
	// NumRecordKinds is the highest journal record kind; kinds run
	// from 1 to it.
	NumRecordKinds = kindStrike
)

// StateJSON returns a WALQueue's full in-memory state in its snapshot
// encoding, for replay-parity checks.
func StateJSON(q *WALQueue) ([]byte, error) { return json.Marshal(q.mem.snapshotState()) }

// WALWithClock substitutes a WALQueue's time source, so tests drive
// lease expiry without sleeping.
func WALWithClock(now func() time.Time) WALQueueOption {
	return func(q *WALQueue) { q.mem.now = now }
}

// WALWithoutSync skips per-record fsync on a throwaway journal. Appends
// still go straight to the OS; only machine-crash durability is lost.
func WALWithoutSync() WALQueueOption {
	return func(q *WALQueue) { q.nosync = true }
}

// WALCompactEvery overrides the journal's compaction threshold, so
// tests force compaction at chosen points.
func WALCompactEvery(n int) WALQueueOption {
	return func(q *WALQueue) {
		if n > 0 {
			q.compactEvery = n
		}
	}
}

// Failed returns the journal error that poisoned the queue, or nil. A
// poisoned queue rejects every mutation; the chaos tests reopen the
// directory to resume from the durable state.
func (q *WALQueue) Failed() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// SetClock substitutes a DirQueue's time source, so tests drive lease
// expiry without sleeping.
func (q *DirQueue) SetClock(now func() time.Time) { q.now = now }
