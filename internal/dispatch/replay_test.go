package dispatch_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/wal"
	"rowfuse/internal/resultio"
)

// copyQueueDir copies a queue directory's files into a fresh temporary
// directory, the way a crash leaves them: the source queue stays open.
func copyQueueDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sweptState reads a queue's full state in its snapshot encoding after
// a Status call, which sweeps leases expired at the queue's clock.
func sweptState(t testing.TB, q *dispatch.WALQueue) []byte {
	t.Helper()
	if _, err := q.Status(); err != nil {
		t.Fatal(err)
	}
	state, err := dispatch.StateJSON(q)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// requireReplayParity is the replay oracle: it copies the live queue's
// directory without closing the queue, reopens the copy at the same
// clock and demands the reopened queue be the live one byte for byte —
// the same full state, and the same next grant.
func requireReplayParity(t testing.TB, live *dispatch.WALQueue, dir string, clk *fakeClock) {
	t.Helper()
	if err := live.Failed(); err != nil {
		t.Fatalf("live queue's journal failed: %v", err)
	}
	reopened, err := dispatch.OpenWALQueue(copyQueueDir(t, dir), dispatch.WALWithClock(clk.Now), dispatch.WALWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if info := reopened.Recovered(); info.Err != nil {
		t.Fatalf("clean journal reported damage: %+v", info)
	}
	want, got := sweptState(t, live), sweptState(t, reopened)
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened queue state differs from the live one:\n got %s\nwant %s", got, want)
	}
	lw, errW := live.Acquire("next")
	lg, errG := reopened.Acquire("next")
	if fmt.Sprint(errG) != fmt.Sprint(errW) {
		t.Fatalf("next acquire: reopened %v, live %v", errG, errW)
	}
	if lg.Unit != lw.Unit || !reflect.DeepEqual(lg.Cells, lw.Cells) {
		t.Fatalf("next lease: reopened unit %d cells %v, live unit %d cells %v", lg.Unit, lg.Cells, lw.Unit, lw.Cells)
	}
}

// TestWALQueueReplayAfterIdleReplan pins a restart that used to change
// unit boundaries. An Acquire that finds every unit leased re-plans
// nothing and journals nothing, so it must leave the re-plan due: the
// units requeued afterwards are then re-planned by the live queue
// exactly as by one reopened from the journal.
func TestWALQueueReplayAfterIdleReplan(t *testing.T) {
	clk := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 4, time.Minute)
	m.MaxStrikes = 1
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	leases := make(map[int]dispatch.Lease)
	for i := 0; i < 4; i++ {
		l, err := q.Acquire(fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		leases[l.Unit] = l
	}
	if err := q.Submit(leases[0], checkpointForCells(t, m, leases[0].Cells), 90*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("idle"); !errors.Is(err, dispatch.ErrNoWork) {
		t.Fatalf("acquire with every unit leased: %v, want ErrNoWork", err)
	}
	for _, unit := range []int{1, 2} {
		if err := q.Fail(leases[unit], "bad dimm"); err != nil {
			t.Fatal(err)
		}
	}
	for _, unit := range []int{1, 2} {
		if err := q.Requeue(unit); err != nil {
			t.Fatal(err)
		}
	}
	requireReplayParity(t, q, dir, clk)
}

// Operations of a FuzzWALQueueReplay script, one per input byte (mod
// numReplayOps); an operation that needs an argument takes the next
// byte.
const (
	opAcquire     = iota
	opHeartbeat   // arg: lease index
	opSubmit      // arg: lease index; no elapsed time
	opSubmitTimed // arg: lease index, then elapsed milliseconds
	opPartial     // arg: lease index, then a bit mask over its first 8 cells
	opFail        // arg: lease index
	opRequeue     // arg: unit
	opDrop        // arg: unit
	opCancel
	opExpire // advance the clock past the lease TTL
	numReplayOps
)

// replayScript encodes operations (and their argument bytes) as a
// FuzzWALQueueReplay input with the given compaction selector.
func replayScript(compact byte, ops ...byte) []byte {
	return append([]byte{compact}, ops...)
}

// replayCompactEvery maps a script's first byte to a compaction
// threshold, from a snapshot after every operation to none at all.
var replayCompactEvery = []int{1, 2, 3, 5, 8, 1 << 20}

// FuzzWALQueueReplay is the replay-parity oracle: it decodes its input
// into a script of queue operations over a 4-unit manifest with
// MaxStrikes 1, runs it on a WALQueue with a fuzzed compaction
// threshold, and then demands that reopening a copy of the queue's
// directory reproduce the live queue exactly (requireReplayParity).
func FuzzWALQueueReplay(f *testing.F) {
	// Lease all four units (granted in unit order), submit unit 0 with
	// 90 ms of elapsed time, find no work, then fail and requeue units 1
	// and 2: the idle acquire must not swallow the re-plan.
	f.Add(replayScript(5,
		opAcquire, opAcquire, opAcquire, opAcquire,
		opSubmitTimed, 0, 89,
		opAcquire,
		opFail, 1, opFail, 2,
		opRequeue, 1, opRequeue, 2))
	f.Add(replayScript(0,
		opAcquire, opSubmitTimed, 0, 30,
		opAcquire, opHeartbeat, 1, opPartial, 1, 0x05,
		opAcquire, opExpire, opAcquire, opAcquire,
		opFail, 3, opDrop, 2, opRequeue, 2, opSubmit, 1,
		opAcquire, opSubmitTimed, 5, 12, opCancel))
	f.Add(replayScript(1,
		opAcquire, opSubmitTimed, 0, 200, opAcquire, opPartial, 1, 0xff,
		opExpire, opHeartbeat, 1, opAcquire, opSubmit, 1, opAcquire,
		opExpire, opAcquire, opAcquire, opFail, 4, opRequeue, 3))

	m := dispatch.NewManifest(testConfig(f), 4, time.Minute)
	m.MaxStrikes = 1
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		f.Fatal(err)
	}
	grid := core.NewStudy(cfg).Cells()
	checkpoint := func(cells []int) *resultio.Checkpoint {
		out := make(map[core.CellKey]core.AggregateState, len(cells))
		for _, idx := range cells {
			out[grid[idx]] = core.AggregateState{}
		}
		return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, out)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxOps = 64
		clk := newFakeClock()
		dir := t.TempDir()
		q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now), dispatch.WALWithoutSync(),
			dispatch.WALCompactEvery(replayCompactEvery[int(data[0])%len(replayCompactEvery)]))
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()

		in := data[1:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		var leases []dispatch.Lease
		lease := func() (dispatch.Lease, bool) {
			i := next()
			if len(leases) == 0 {
				return dispatch.Lease{}, false
			}
			return leases[i%len(leases)], true
		}
		// Operations may fail (a lost lease, a dead-lettered unit, a
		// canceled campaign); the oracle only cares that replay agrees.
		for n := 0; n < maxOps && len(in) > 0; n++ {
			switch next() % numReplayOps {
			case opAcquire:
				if l, err := q.Acquire(fmt.Sprintf("w%d", len(leases))); err == nil {
					leases = append(leases, l)
				}
			case opHeartbeat:
				if l, ok := lease(); ok {
					_ = q.Heartbeat(l)
				}
			case opSubmit:
				if l, ok := lease(); ok {
					_ = q.Submit(l, checkpoint(l.Cells), 0)
				}
			case opSubmitTimed:
				if l, ok := lease(); ok {
					_ = q.Submit(l, checkpoint(l.Cells), time.Duration(next()+1)*time.Millisecond)
				}
			case opPartial:
				if l, ok := lease(); ok {
					mask := next()
					var cells []int
					for i, c := range l.Cells {
						if i < 8 && mask&(1<<i) != 0 {
							cells = append(cells, c)
						}
					}
					_ = q.SavePartial(l, checkpoint(cells))
				}
			case opFail:
				if l, ok := lease(); ok {
					_ = q.Fail(l, "")
				}
			case opRequeue:
				_ = q.Requeue(next() % 8)
			case opDrop:
				_ = q.Drop(next() % 8)
			case opCancel:
				_ = q.Cancel()
			case opExpire:
				clk.Advance(time.Minute + time.Millisecond)
			}
		}
		requireReplayParity(t, q, dir, clk)
	})
}

// fixtureScript drives a WALQueue through every journal record kind:
// grants, a re-plan, heartbeats, an intra-unit partial, timed submits,
// a lease-expiry strike and the steal after it, a reported failure that
// quarantines, a drop, a requeue and a cancel. It needs a manifest of 4
// units that quarantines at two strikes, and ends at clock
// newFakeClock()+61s.
//
// The fixtures under testdata/walqueue were written by this script
// before MemQueue's operations and journal replay shared one apply
// function: journal/ with the default compaction threshold (no
// snapshot), compacted/ with WALCompactEvery(4) (a snapshot plus a
// journal tail). Each <dir>.state.json is the state both the live queue
// and its reopened copy reached, indented.
func fixtureScript(t *testing.T, q *dispatch.WALQueue, m dispatch.Manifest, clk *fakeClock) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(worker string) dispatch.Lease {
		t.Helper()
		l, err := q.Acquire(worker)
		must(err)
		return l
	}
	cp := func(cells []int) *resultio.Checkpoint { return checkpointForCells(t, m, cells) }
	first := acquire("alpha")
	must(q.Submit(first, cp(first.Cells), 90*time.Millisecond))
	kept := acquire("beta") // re-plans first: the timed submit trained the cost model
	must(q.Heartbeat(kept))
	must(q.SavePartial(kept, cp(kept.Cells[:1])))
	doomed := acquire("doomed")
	clk.Advance(61 * time.Second)
	must(q.Heartbeat(kept))
	stolen := acquire("gamma") // strikes doomed's expired lease, then steals it
	if stolen.Unit != doomed.Unit {
		t.Fatalf("gamma got unit %d, want the expired unit %d", stolen.Unit, doomed.Unit)
	}
	must(q.Fail(stolen, "bad dimm")) // the second strike quarantines
	must(q.Drop(stolen.Unit))
	must(q.Requeue(stolen.Unit))
	must(q.Submit(kept, cp(kept.Cells), 40*time.Millisecond))
	must(q.Cancel())
}

// fixtureManifest is fixtureScript's manifest.
func fixtureManifest(t *testing.T) dispatch.Manifest {
	m := dispatch.NewManifest(testConfig(t), 4, time.Minute)
	m.MaxStrikes = 2
	return m
}

// TestWALQueueReplayFixture reopens journals and snapshots written by
// an earlier build (see fixtureScript) and demands they reach the state
// recorded with them, so the record and snapshot formats and their
// replay stay compatible. It also runs fixtureScript on this build,
// checks that the journal holds every record kind, and applies the
// replay oracle to it.
func TestWALQueueReplayFixture(t *testing.T) {
	end := func() *fakeClock {
		clk := newFakeClock()
		clk.Advance(61 * time.Second)
		return clk
	}
	for _, name := range []string{"journal", "compacted"} {
		t.Run("recorded/"+name, func(t *testing.T) {
			src := filepath.Join("testdata", "walqueue", name)
			want, err := os.ReadFile(src + ".state.json")
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, want); err != nil {
				t.Fatal(err)
			}
			q, err := dispatch.OpenWALQueue(copyQueueDir(t, src), dispatch.WALWithClock(end().Now))
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			if info := q.Recovered(); info.Err != nil {
				t.Fatalf("fixture journal reported damage: %+v", info)
			}
			if got := sweptState(t, q); !bytes.Equal(got, compact.Bytes()) {
				t.Fatalf("fixture reopened to a different state:\n got %s\nwant %s", got, compact.Bytes())
			}
			if !q.Canceled() {
				t.Fatal("fixture's cancel did not replay")
			}
		})
	}
	for _, tc := range []struct {
		name         string
		compactEvery int
	}{{"journal", 512}, {"compacted", 4}} {
		t.Run("live/"+tc.name, func(t *testing.T) {
			clk := newFakeClock()
			m := fixtureManifest(t)
			dir := t.TempDir()
			q, err := dispatch.CreateWALQueue(dir, m, dispatch.WALWithClock(clk.Now),
				dispatch.WALWithoutSync(), dispatch.WALCompactEvery(tc.compactEvery))
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			fixtureScript(t, q, m, clk)
			if tc.name == "journal" {
				requireEveryRecordKind(t, dir)
			}
			requireReplayParity(t, q, dir, clk)
		})
	}
}

// requireEveryRecordKind fails unless the journal in dir holds at least
// one record of every kind.
func requireEveryRecordKind(t *testing.T, dir string) {
	t.Helper()
	log, recs, _, err := wal.Open(filepath.Join(copyQueueDir(t, dir), dispatch.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	seen := make(map[uint8]bool)
	for _, r := range recs {
		seen[r.Kind] = true
	}
	for kind := uint8(1); kind <= dispatch.NumRecordKinds; kind++ {
		if !seen[kind] {
			t.Errorf("journal holds no record of kind %d (kinds seen: %v)", kind, seen)
		}
	}
}
