package dispatch_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

// testConfig is a reduced two-manufacturer campaign: 2 modules x 3
// patterns x 3 tAggON points = 18 cells, seconds to run in full but
// rich enough to exercise Table 2 and Fig 4.
func testConfig(t testing.TB) core.StudyConfig {
	t.Helper()
	var mods []chipdb.ModuleInfo
	for _, id := range []string{"S0", "H1"} {
		mi, err := chipdb.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mi)
	}
	return core.StudyConfig{
		Modules:       mods,
		Sweep:         []time.Duration{timing.TRAS, 7800 * time.Nanosecond, timing.AggOnNineTREFI},
		RowsPerRegion: 2,
		Dies:          1,
		Runs:          1,
	}
}

// fakeClock drives lease expiry without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// emptyCheckpoint is a structurally complete unit submission with
// zero-valued aggregates — it covers exactly the unit's cells, which
// is what submit-side validation requires, without the cost of
// actually running the campaign in queue-mechanics tests.
func emptyCheckpoint(m dispatch.Manifest, unit int) *resultio.Checkpoint {
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		panic(err)
	}
	plan := m.Plan(unit)
	cells := make(map[core.CellKey]core.AggregateState)
	for idx, key := range core.NewStudy(cfg).Cells() {
		if plan.Contains(idx) {
			cells[key] = core.AggregateState{}
		}
	}
	return resultio.NewCheckpoint(m.Fingerprint, plan, cells)
}

func TestCampaignSpecRoundTripsFingerprint(t *testing.T) {
	cfg := testConfig(t)
	spec := dispatch.NewCampaignSpec(cfg)
	back, err := spec.StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Fingerprint(), cfg.Fingerprint(); got != want {
		t.Fatalf("spec round trip changed the fingerprint: %s vs %s", got, want)
	}
}

func TestManifestValidate(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 4, time.Minute)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Units != 4 || m.LeaseTTL() != time.Minute {
		t.Fatalf("manifest: units %d ttl %v", m.Units, m.LeaseTTL())
	}
	// Units are clamped to the grid (18 cells here).
	if m := dispatch.NewManifest(testConfig(t), 500, time.Minute); m.Units != 18 {
		t.Fatalf("units not clamped to grid: %d", m.Units)
	}
	// A tampered fingerprint is caught.
	bad := m
	bad.Fingerprint = "deadbeef"
	if err := bad.Validate(); err == nil {
		t.Fatal("tampered fingerprint validated")
	}
	// So is a bank no chip has: the spec refuses it before any engine
	// would.
	for _, bank := range []int{-1, device.ChipBanks} {
		bad := m
		bad.Campaign.Bank = bank
		if err := bad.Validate(); err == nil {
			t.Fatalf("bank %d validated", bank)
		}
	}
	last := m
	last.Campaign.Bank = device.ChipBanks - 1
	if _, err := last.Campaign.StudyConfig(); err != nil {
		t.Fatalf("bank %d refused: %v", last.Campaign.Bank, err)
	}
}

func TestMemQueueLeaseExpiryAndRegrant(t *testing.T) {
	clock := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 3, time.Second)
	q, err := dispatch.NewMemQueue(m, dispatch.WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}

	l0, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if l0.Unit != 0 || l0.Worker != "w1" || l0.Token == "" {
		t.Fatalf("first lease: %+v", l0)
	}
	if _, err := q.Acquire("w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("w3"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("w4"); !errors.Is(err, dispatch.ErrNoWork) {
		t.Fatalf("all units leased, want ErrNoWork, got %v", err)
	}

	// Heartbeats keep a lease alive across several TTL-sized windows.
	for i := 0; i < 3; i++ {
		clock.Advance(900 * time.Millisecond)
		if err := q.Heartbeat(l0); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}

	// A silent worker's lease expires and its unit is re-granted.
	clock.Advance(1100 * time.Millisecond)
	stolen, err := q.Acquire("thief")
	if err != nil {
		t.Fatal(err)
	}
	if stolen.Unit != 0 {
		t.Fatalf("expected the stale unit 0 to be re-granted first, got unit %d", stolen.Unit)
	}
	if stolen.Token == l0.Token {
		t.Fatal("re-grant reused the dead lease's token")
	}

	// The original holder has lost the lease for every purpose.
	if err := q.Heartbeat(l0); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("stale heartbeat: want ErrLeaseLost, got %v", err)
	}
	if err := q.Submit(l0, emptyCheckpoint(m, 0), 0); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("stale submit: want ErrLeaseLost, got %v", err)
	}

	// The thief's submit is accepted exactly once.
	if err := q.Submit(stolen, emptyCheckpoint(m, 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(stolen, emptyCheckpoint(m, 0), 0); !errors.Is(err, dispatch.ErrDuplicateSubmit) {
		t.Fatalf("duplicate submit: want ErrDuplicateSubmit, got %v", err)
	}

	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Units != 3 {
		t.Fatalf("status after one submit: %+v", st)
	}
}

// TestMemQueueHeartbeatRevivesUnstolenLease pins the lease-loss
// semantics: expiry alone is not loss. A slow worker whose unit was
// never re-granted revives it with a heartbeat instead of abandoning
// a nearly-done run; loss happens only when someone else took it.
func TestMemQueueHeartbeatRevivesUnstolenLease(t *testing.T) {
	clock := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 2, time.Second)
	q, err := dispatch.NewMemQueue(m, dispatch.WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("slow")
	if err != nil {
		t.Fatal(err)
	}
	// Expire the lease and let a Status call sweep it to pending.
	clock.Advance(1500 * time.Millisecond)
	if st, err := q.Status(); err != nil || st.Pending != 2 {
		t.Fatalf("expired lease not pending: %+v (%v)", st, err)
	}
	// Nobody re-acquired it: the heartbeat revives the lease...
	if err := q.Heartbeat(l); err != nil {
		t.Fatalf("heartbeat on expired-but-unstolen lease: %v", err)
	}
	// ...and the unit is leased again, not stealable.
	if st, _ := q.Status(); st.Leased != 1 {
		t.Fatalf("revived lease not visible: %+v", st)
	}
	if err := q.Submit(l, emptyCheckpoint(m, l.Unit), 0); err != nil {
		t.Fatalf("submit after revival: %v", err)
	}
}

func TestMemQueueSubmitValidation(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 3, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}

	// Foreign fingerprint: rejected with resultio's sentinel.
	foreign := resultio.NewCheckpoint("deadbeef", m.Plan(l.Unit), nil)
	if err := q.Submit(l, foreign, 0); !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("foreign fingerprint: want ErrConfigMismatch, got %v", err)
	}

	// A cell belonging to another unit's shard: rejected.
	cfg := testConfig(t)
	grid := core.NewStudy(cfg).Cells()
	var foreignCell core.CellKey
	for idx, key := range grid {
		if !m.Plan(l.Unit).Contains(idx) {
			foreignCell = key
			break
		}
	}
	cp := resultio.NewCheckpoint(m.Fingerprint, m.Plan(l.Unit),
		map[core.CellKey]core.AggregateState{foreignCell: {}})
	if err := q.Submit(l, cp, 0); !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("foreign shard cell: want ErrConfigMismatch, got %v", err)
	}

	// An incomplete checkpoint (here: none of the unit's cells) must
	// be rejected too — accepting it would mark the unit done with its
	// cells permanently missing from the campaign.
	hollow := resultio.NewCheckpoint(m.Fingerprint, m.Plan(l.Unit), nil)
	if err := q.Submit(l, hollow, 0); !errors.Is(err, resultio.ErrBadCheckpoint) {
		t.Fatalf("incomplete checkpoint: want ErrBadCheckpoint, got %v", err)
	}

	// The lease survives rejected submits.
	if err := q.Heartbeat(l); err != nil {
		t.Fatal(err)
	}
}

func TestMemQueueDrain(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	for unit := 0; unit < m.Units; unit++ {
		l, err := q.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Submit(l, emptyCheckpoint(m, l.Unit), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Acquire("w"); !errors.Is(err, dispatch.ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("status not drained: %+v", st)
	}
}

// TestMemQueueConcurrentWorkers hammers one queue from many goroutines
// so `go test -race` exercises the lease bookkeeping.
func TestMemQueueConcurrentWorkers(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 18, 50*time.Millisecond)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for {
				l, err := q.Acquire(name)
				if errors.Is(err, dispatch.ErrDrained) {
					return
				}
				if errors.Is(err, dispatch.ErrNoWork) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				_ = q.Heartbeat(l)
				if err := q.Submit(l, emptyCheckpoint(m, l.Unit), 0); err != nil &&
					!errors.Is(err, dispatch.ErrDuplicateSubmit) && !errors.Is(err, dispatch.ErrLeaseLost) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("concurrent drain incomplete: %+v", st)
	}
}
