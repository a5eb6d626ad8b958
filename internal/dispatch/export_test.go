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
