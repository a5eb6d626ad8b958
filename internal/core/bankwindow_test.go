package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// victimRefresher is a minimal RefreshReplayer whose every REF also
// refreshes one fixed row, counting the activations it forwards.
type victimRefresher struct {
	bank     *device.Bank
	row      int
	acts     int64
	observed bool
	targets  []int
}

func (d *victimRefresher) Activate(row int, now time.Duration) error {
	d.acts++
	d.observed = true
	return d.bank.Activate(row, now)
}

func (d *victimRefresher) Precharge(now time.Duration) error { return d.bank.Precharge(now) }

func (d *victimRefresher) Refresh(now time.Duration) error {
	return d.ReplayRefresh(now, []int{d.row})
}

func (d *victimRefresher) Quiescent() bool       { return !d.observed }
func (d *victimRefresher) RefreshTargets() []int { return d.targets }

func (d *victimRefresher) ReplayRefresh(now time.Duration, rows []int) error {
	if err := d.bank.Refresh(now); err != nil {
		return err
	}
	d.targets = append(d.targets[:0], rows...)
	for _, r := range rows {
		if err := d.bank.RefreshRow(r, now); err != nil {
			return err
		}
	}
	d.observed = false
	return nil
}

// plainDriver hides the RefreshReplayer methods of its driver.
type plainDriver struct{ BankDriver }

// TestHammerSkipsRepeatedWindows checks the skip engages only where it
// may: a replaying driver that refreshes the victim at every REF sees
// the row's first windows act by act and nothing of the rest, while a
// driver without RefreshReplayer and WithExactReplay see every
// activation. All three agree on the RowResult, the victim's cells and
// the bank counters.
func TestHammerSkipsRepeatedWindows(t *testing.T) {
	mi, err := chipdb.ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	spec, err := pattern.New(pattern.DoubleSided, timing.TRAS, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	const victim = 700
	opts := RunOpts{Budget: 2 * time.Millisecond}
	total := spec.MaxIterations(opts.Budget) * 2

	type run struct {
		res   RowResult
		cells []device.WeakCell
		ctr   [3]int64
		seen  int64
	}
	drive := func(wrap func(*victimRefresher) BankDriver, extra ...BankEngineOption) run {
		bank := mkBank(t, mi.Profile(params), params, 1, nil)
		drv := &victimRefresher{bank: bank, row: victim}
		eng := NewBankEngine(bank, append([]BankEngineOption{WithDriver(wrap(drv)), WithRefreshEvery(timing.TREFI)}, extra...)...)
		var r run
		for i := 0; i < 2; i++ { // the second row starts with a non-quiescent driver
			if r.res, err = eng.CharacterizeRow(victim, spec, opts); err != nil {
				t.Fatal(err)
			}
		}
		r.cells = slices.Clone(bank.VictimCells(victim))
		r.ctr[0], r.ctr[1], r.ctr[2] = bank.Counters()
		r.seen = drv.acts
		return r
	}
	replaying := func(d *victimRefresher) BankDriver { return d }
	plain := func(d *victimRefresher) BankDriver { return plainDriver{d} }

	skip, exact, other := drive(replaying), drive(replaying, WithExactReplay()), drive(plain)
	for _, r := range []run{exact, other} {
		if !reflect.DeepEqual(skip.res, r.res) || !reflect.DeepEqual(skip.cells, r.cells) || skip.ctr != r.ctr {
			t.Fatalf("skip diverged:\n got %+v %v\nwant %+v %v", skip.res, skip.ctr, r.res, r.ctr)
		}
		if r.seen != 2*total {
			t.Fatalf("act-by-act driver saw %d activations, want %d", r.seen, 2*total)
		}
	}
	if !skip.res.NoBitflip || skip.ctr[0] != 2*total {
		t.Fatalf("guarded row: %+v, %d ACTs counted, want no flip and %d", skip.res, skip.ctr[0], 2*total)
	}
	// Per row: the first window (no REF before it), one window of each
	// class, and the budget's cut-short tail.
	if limit := 2 * total / 20; skip.seen > limit {
		t.Fatalf("replaying driver saw %d of %d activations, want at most %d", skip.seen, 2*total, limit)
	}
}

// TestWindowActsMatchesStepping checks windowActs' closed form against
// stepping the hammer loop's REF check act by act.
func TestWindowActsMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		acts := make([]pattern.Act, 1+rng.Intn(3))
		for j := range acts {
			acts[j].OnTime = time.Duration(rng.Intn(200))
		}
		trp := time.Duration(1 + rng.Intn(20))
		first := rng.Intn(len(acts))
		need := time.Duration(rng.Intn(5000) - 500)
		var wantM int64
		var wantD time.Duration
		for {
			wantD += acts[(first+int(wantM))%len(acts)].OnTime + trp
			wantM++
			if wantD >= need {
				break
			}
		}
		if m, d := windowActs(acts, trp, first, need); m != wantM || d != wantD {
			t.Fatalf("acts %v trp %v first %d need %v: got (%d, %v), want (%d, %v)", acts, trp, first, need, m, d, wantM, wantD)
		}
	}
}
