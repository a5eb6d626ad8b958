package mitigation

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// windowCase is one guarded refresh-window parity configuration: a
// victim sequence hammered on one TRR-guarded engine with the window
// skip and on a twin engine under core.WithExactReplay.
type windowCase struct {
	kind     pattern.Kind
	aggOn    time.Duration
	counters int
	perRef   int
	mult     float64 // refresh rate, in multiples of the nominal tREFI rate
	tempC    float64
	budget   time.Duration
	victims  []int
}

// interval is the case's REF cadence.
func (c windowCase) interval() time.Duration {
	return time.Duration(float64(timing.TREFI) / c.mult)
}

func (c windowCase) String() string {
	return fmt.Sprintf("%v/%v/trr%d/v%d/x%g/%gC/%v/%v",
		c.kind, c.aggOn, c.counters, c.perRef, c.mult, c.tempC, c.budget, c.victims)
}

// windowProfile is weak enough that some rows flip within one refresh
// window at low refresh rates or 90 °C, and some only after TRR misses
// the victim for a few windows.
var windowProfile = device.Profile{
	Serial:              "WINDOW-TEST",
	HammerACmin:         6000,
	PressTau:            2 * time.Millisecond,
	HammerPressSens:     1.5,
	RowSigmaHammer:      0.2,
	RowSigmaPress:       0.2,
	HammerOneToZeroFrac: 0.3,
	PressOneToZeroFrac:  0.95,
	WeakCellsPerMech:    12,
	CellSpacing:         0.05,
	RetentionMin:        70 * time.Millisecond,
}

// windowRig is one side of a parity comparison.
type windowRig struct {
	bank  *device.Bank
	guard *Guard
	eng   *core.BankEngine
}

// windowBankRows keeps the round-robin refresh cycle short (one row
// per REF, 16 REFs per sweep), so budgets of a few refresh windows
// already see the bank's own REF reach the victims.
const windowBankRows = 16

func newWindowRig(t testing.TB, c windowCase, exact bool) windowRig {
	t.Helper()
	bank, err := device.NewBank(device.BankConfig{
		Profile:  windowProfile,
		Params:   device.DefaultParams(),
		NumRows:  windowBankRows,
		RowBytes: 64,
		RunSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := NewGuard(GuardConfig{Bank: bank, Tracker: NewMisraGries(c.counters), VictimsPerRef: c.perRef})
	if err != nil {
		t.Fatal(err)
	}
	opts := []core.BankEngineOption{
		core.WithDriver(guard),
		core.WithRefreshEvery(c.interval()),
	}
	if exact {
		opts = append(opts, core.WithExactReplay())
	}
	return windowRig{bank: bank, guard: guard, eng: core.NewBankEngine(bank, opts...)}
}

// checkWindowParity hammers c's victims in order on a skipping and an
// exact engine and fails on the first difference in the RowResult, the
// victim's row data and cells, the bank's ACT/PRE/REF counters, the
// engine's REF count or the guard's TRR count. It returns the first-flip
// time of every row that flipped.
func checkWindowParity(t testing.TB, c windowCase) (flips []time.Duration) {
	t.Helper()
	spec, err := pattern.New(c.kind, c.aggOn, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	fast, exact := newWindowRig(t, c, false), newWindowRig(t, c, true)
	opts := core.RunOpts{Budget: c.budget, TempC: c.tempC, Data: device.Checkerboard}
	for _, v := range c.victims {
		got, err := fast.eng.CharacterizeRow(v, spec, opts)
		if err != nil {
			t.Fatalf("%v: victim %d: %v", c, v, err)
		}
		want, err := exact.eng.CharacterizeRow(v, spec, opts)
		if err != nil {
			t.Fatalf("%v: victim %d exact: %v", c, v, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: victim %d: RowResult\n got %+v\nwant %+v", c, v, got, want)
		}
		gotData, err := fast.bank.RowData(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantData, err := exact.bank.RowData(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, wantData) {
			t.Fatalf("%v: victim %d: row data differs", c, v)
		}
		if !reflect.DeepEqual(fast.bank.VictimCells(v), exact.bank.VictimCells(v)) {
			t.Fatalf("%v: victim %d: cell state differs", c, v)
		}
		ga, gp, gr := fast.bank.Counters()
		wa, wp, wr := exact.bank.Counters()
		if ga != wa || gp != wp || gr != wr {
			t.Fatalf("%v: victim %d: bank counters ACT/PRE/REF %d/%d/%d, want %d/%d/%d", c, v, ga, gp, gr, wa, wp, wr)
		}
		if g, w := fast.guard.TRRRefreshes(), exact.guard.TRRRefreshes(); g != w {
			t.Fatalf("%v: victim %d: TRR refreshes %d, want %d", c, v, g, w)
		}
		if !got.NoBitflip {
			flips = append(flips, got.TimeToFirst)
		}
	}
	return flips
}

// windowCases is the committed parity table: every pattern, tAggON from
// tRAS to 9 x tREFI, refresh from 50x slower to 2x faster than nominal,
// TRR counter tables of 1 to 16 entries with one and two victims per
// REF, 50 and 90 °C, and four victims per engine (two adjacent, one
// repeated). The TRR and temperature settings rotate through the
// pattern x tAggON x refresh grid rather than multiplying it. Budgets
// scale with the activation length so the exact side stays cheap
// while spanning several refresh windows and a sweep of the bank's
// round-robin REF.
func windowCases() []windowCase {
	trrs := [][2]int{{1, 1}, {2, 2}, {4, 1}, {16, 2}, {1, 2}, {16, 1}}
	var cases []windowCase
	for _, kind := range []pattern.Kind{pattern.SingleSided, pattern.DoubleSided, pattern.Combined} {
		for _, aggOn := range []time.Duration{timing.TRAS, 636 * time.Nanosecond, timing.AggOnTREFI, timing.AggOnNineTREFI} {
			for _, mult := range []float64{0.02, 0.1, 0.5, 1, 2} {
				// Four refresh windows or 2000 activations, whichever
				// is longer.
				budget := time.Duration(4 * float64(timing.TREFI) / mult)
				if acts := 2000 * (aggOn + timing.TRP); acts > budget {
					budget = acts
				}
				for _, temp := range []float64{50, 90} {
					trr := trrs[len(cases)%len(trrs)]
					cases = append(cases, windowCase{
						kind: kind, aggOn: aggOn,
						counters: trr[0], perRef: trr[1], mult: mult,
						tempC: temp, budget: budget, victims: []int{3, 4, 11, 3},
					})
				}
			}
		}
	}
	return cases
}

// TestGuardedWindowParity pins the refresh-window skip byte for byte
// against act-by-act execution over the committed table, and checks the
// table exercises flips, including flips two or more refresh windows
// into a row (after windows the skip can replay), so it cannot pass
// vacuously.
func TestGuardedWindowParity(t *testing.T) {
	flips, late, rows := 0, 0, 0
	for _, c := range windowCases() {
		interval := c.interval()
		for _, at := range checkWindowParity(t, c) {
			flips++
			if at >= 2*interval {
				late++
			}
		}
		rows += len(c.victims)
	}
	if late == 0 {
		t.Fatalf("%d of %d rows flipped, none after its second REF; the table no longer exercises flips past skippable windows", flips, rows)
	}
	t.Logf("%d of %d rows flipped, %d after their second REF", flips, rows, late)
}

// FuzzGuardedWindowParity explores the configuration space around the
// committed table: any pattern, tAggON from tRAS to 9 x tREFI on a log
// scale, 1 to 16 TRR counters, 1 or 2 victims per REF, refresh from
// 0.02x to 2x nominal, 50 or 90 °C, 1 to 16 refresh windows of budget
// (capped at 12000 activations) and any four victims of the bank.
func FuzzGuardedWindowParity(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint8(1), uint8(1), uint16(0), true, uint8(4), uint16(0x2a32))
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), uint16(0), false, uint8(4), uint16(0x2a32))
	f.Add(uint8(2), uint16(400), uint8(0), uint8(0), uint16(0), false, uint8(16), uint16(0x2a32))
	f.Add(uint8(1), uint16(1000), uint8(15), uint8(0), uint16(1980), true, uint8(16), uint16(0x9021))
	f.Add(uint8(2), uint16(600), uint8(3), uint8(1), uint16(80), true, uint8(8), uint16(0x5555))
	f.Fuzz(func(t *testing.T, kind uint8, aggOnStep uint16, counters, perRef uint8, multMilli uint16, hot bool, windows uint8, victims uint16) {
		span := float64(timing.AggOnNineTREFI) / float64(timing.TRAS)
		c := windowCase{
			kind:     pattern.Kind(1 + kind%3),
			aggOn:    time.Duration(float64(timing.TRAS) * math.Pow(span, float64(aggOnStep%1001)/1000)),
			counters: 1 + int(counters%16),
			perRef:   1 + int(perRef%2),
			mult:     0.02 + float64(multMilli%1981)/1000,
			tempC:    50,
		}
		if hot {
			c.tempC = 90
		}
		if c.aggOn < timing.TRAS {
			c.aggOn = timing.TRAS
		}
		c.budget = time.Duration(1+windows%16) * c.interval()
		if most := 12000 * (c.aggOn + timing.TRP); c.budget > most {
			c.budget = most
		}
		for i := 0; i < 4; i++ {
			c.victims = append(c.victims, 1+int(victims>>(4*i)&0xf)%(windowBankRows-2))
		}
		checkWindowParity(t, c)
	})
}

// TestGuardedRowAllocsFlatInBudget pins the allocation-free REF path: a
// guarded CharacterizeRow allocates the same at a 2 ms and a 20 ms
// budget (ten times the refresh windows), and a guard's REF allocates
// nothing once its buffers have grown.
func TestGuardedRowAllocsFlatInBudget(t *testing.T) {
	bank := mitBank(t)
	guard, err := NewGuard(GuardConfig{Bank: bank, Tracker: NewMisraGries(16)})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Bank: bank, Guard: guard, RefInterval: timing.TREFI})
	if err != nil {
		t.Fatal(err)
	}
	spec := mitSpec(t, pattern.DoubleSided, timing.TRAS)
	allocs := func(budget time.Duration) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := eng.CharacterizeRow(500, spec, core.RunOpts{Budget: budget})
			if err != nil || !res.NoBitflip {
				t.Fatalf("guarded row: %+v, %v", res, err)
			}
		})
	}
	if short, long := allocs(2*time.Millisecond), allocs(20*time.Millisecond); short != long {
		t.Fatalf("guarded CharacterizeRow allocates %v at 2ms but %v at 20ms: the REF path allocates per window", short, long)
	}

	now := time.Duration(0)
	ref := func() {
		for _, row := range []int{499, 501, 499, 501} {
			if err := guard.Activate(row, now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRAS
			if err := guard.Precharge(now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRP
		}
		if err := guard.Refresh(now); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, ref); n != 0 {
		t.Fatalf("guard REF allocates %v times", n)
	}
}
