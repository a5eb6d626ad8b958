package mitigation

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// resetStep is one experiment of a Bank.Reset parity sequence: a bank
// configuration and one characterization on it, optionally under a TRR
// guard with periodic refresh.
type resetStep struct {
	cfg      device.BankConfig
	victim   int
	spec     pattern.Spec
	counters int     // TRR counters (0 = no guard)
	mult     float64 // refresh rate in multiples of nominal (0 = none)
	ecc      bool
	opts     core.RunOpts
}

func (s resetStep) String() string {
	return fmt.Sprintf("%s/seed%d/%dx%dB/map%v/v%d/%v@%v/trr%d/x%g/ecc%v/%gC/%v",
		s.cfg.Profile.Serial, s.cfg.RunSeed, s.cfg.NumRows, s.cfg.RowBytes, s.cfg.Mapper,
		s.victim, s.spec.Kind, s.spec.AggOn, s.counters, s.mult, s.ecc, s.opts.TempC, s.opts.Budget)
}

// xorRows is an in-DRAM row remapping for the parity sequences.
type xorRows struct{ mask int }

func (m xorRows) Physical(l int) int { return l ^ m.mask }
func (m xorRows) Logical(p int) int  { return p ^ m.mask }

// resetProfiles differ in weak-cell count, so recycled weak-cell slices
// must grow, and in retention time, so some readbacks see retention
// failures.
func resetProfiles() []device.Profile {
	b := windowProfile
	b.Serial, b.WeakCellsPerMech, b.HammerACmin, b.PressTau = "RESET-B", 20, 4000, 1500*time.Microsecond
	c := windowProfile
	c.Serial, c.WeakCellsPerMech, c.RetentionMin = "RESET-C", 6, 3*time.Millisecond
	return []device.Profile{windowProfile, b, c}
}

// resetSteps draws a seeded sequence of n steps varying profile, run
// seed, row width, row count, mapper, victim, pattern, tAggON, guard,
// refresh rate, ECC and temperature.
func resetSteps(t testing.TB, seed uint64, n int) []resetStep {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 0x5e5e7))
	profiles := resetProfiles()
	aggOns := []time.Duration{timing.TRAS, 636 * time.Nanosecond, 7800 * time.Nanosecond, timing.AggOnTREFI}
	steps := make([]resetStep, n)
	for i := range steps {
		rows := []int{16, 32}[r.IntN(2)]
		cfg := device.BankConfig{
			Profile:  profiles[r.IntN(len(profiles))],
			Params:   device.DefaultParams(),
			NumRows:  rows,
			RowBytes: []int{32, 64, 128}[r.IntN(3)],
			RunSeed:  int64(r.IntN(4)),
		}
		if r.IntN(2) == 0 {
			cfg.Mapper = xorRows{mask: r.IntN(rows)}
		}
		spec, err := pattern.New(pattern.Kind(1+r.IntN(3)), aggOns[r.IntN(len(aggOns))], timing.Default())
		if err != nil {
			t.Fatal(err)
		}
		st := resetStep{
			cfg:    cfg,
			victim: 1 + r.IntN(rows-2),
			spec:   spec,
			ecc:    r.IntN(3) == 0,
			opts:   core.RunOpts{TempC: []float64{50, 90}[r.IntN(2)], Data: device.Checkerboard},
		}
		if r.IntN(3) > 0 {
			st.counters = 1 + r.IntN(16)
			st.mult = []float64{0.05, 0.5, 1, 2}[r.IntN(4)]
		}
		// Up to 4000 activations, or a few refresh windows when
		// refreshing; long enough for retention failures at 3 ms.
		st.opts.Budget = time.Duration(1+r.IntN(4000)) * (spec.AggOn + timing.TRP)
		if st.mult > 0 {
			st.opts.Budget = time.Duration(float64(1+r.IntN(4)) * float64(timing.TREFI) / st.mult)
		}
		steps[i] = st
	}
	return steps
}

// scenario is the step's mitigation settings as a scenario of the
// "mitigated" engine.
func (s resetStep) scenario() core.Scenario {
	return core.Scenario{ID: "reset", Engine: core.EngineMitigated, Mitigation: &core.MitigationSpec{
		TRRCounters: s.counters, RefreshMult: s.mult, ECC: s.ecc,
	}}
}

// resetRig builds the step's engine over b.
func resetRig(t testing.TB, s resetStep, b *device.Bank) (*Engine, *Guard) {
	t.Helper()
	var guard *Guard
	if s.counters > 0 {
		var err error
		guard, err = NewGuard(GuardConfig{Bank: b, Tracker: NewMisraGries(s.counters)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var interval time.Duration
	if s.mult > 0 {
		interval = time.Duration(float64(timing.TREFI) / s.mult)
	}
	eng, err := NewEngine(EngineConfig{Bank: b, Guard: guard, RefInterval: interval, ECC: s.ecc})
	if err != nil {
		t.Fatal(err)
	}
	return eng, guard
}

// checkResetParity runs steps on one bank recycled with Reset and on a
// fresh NewBank per step, and fails on the first difference in the
// RowResult, any row's cells and data, the bank's counters and flip
// generation, or the engine's REF and TRR counts. It returns how many
// steps flipped.
func checkResetParity(t testing.TB, steps []resetStep) (flipped int) {
	t.Helper()
	recycled := new(device.Bank)
	for i, s := range steps {
		if err := recycled.Reset(s.cfg); err != nil {
			t.Fatalf("step %d %v: Reset: %v", i, s, err)
		}
		fresh, err := device.NewBank(s.cfg)
		if err != nil {
			t.Fatalf("step %d %v: %v", i, s, err)
		}
		gotEng, gotGuard := resetRig(t, s, recycled)
		wantEng, wantGuard := resetRig(t, s, fresh)
		got, err := gotEng.CharacterizeRow(s.victim, s.spec, s.opts)
		if err != nil {
			t.Fatalf("step %d %v: recycled bank: %v", i, s, err)
		}
		want, err := wantEng.CharacterizeRow(s.victim, s.spec, s.opts)
		if err != nil {
			t.Fatalf("step %d %v: fresh bank: %v", i, s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %v: RowResult\n got %+v\nwant %+v", i, s, got, want)
		}
		if !got.NoBitflip {
			flipped++
		}
		// Every row, not only the victim and its aggressors: rows two
		// away are disturbed without being written first.
		for row := 0; row < s.cfg.NumRows; row++ {
			if !reflect.DeepEqual(recycled.VictimCells(row), fresh.VictimCells(row)) {
				t.Fatalf("step %d %v: row %d: cell state differs", i, s, row)
			}
			g, err := recycled.RowData(row, got.TimeToFirst)
			if err != nil {
				t.Fatal(err)
			}
			w, err := fresh.RowData(row, got.TimeToFirst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("step %d %v: row %d: data differs", i, s, row)
			}
		}
		ga, gp, gr := recycled.Counters()
		wa, wp, wr := fresh.Counters()
		if ga != wa || gp != wp || gr != wr {
			t.Fatalf("step %d %v: ACT/PRE/REF %d/%d/%d, want %d/%d/%d", i, s, ga, gp, gr, wa, wp, wr)
		}
		if g, w := recycled.FlipGeneration(), fresh.FlipGeneration(); g != w {
			t.Fatalf("step %d %v: flip generation %d, want %d", i, s, g, w)
		}
		if g, w := gotEng.Refreshes(), wantEng.Refreshes(); g != w {
			t.Fatalf("step %d %v: engine REFs %d, want %d", i, s, g, w)
		}
		if gotGuard != nil && gotGuard.TRRRefreshes() != wantGuard.TRRRefreshes() {
			t.Fatalf("step %d %v: TRR refreshes %d, want %d", i, s, gotGuard.TRRRefreshes(), wantGuard.TRRRefreshes())
		}
	}
	return flipped
}

// checkScratchOrders builds the steps' engines the way Study.Run does,
// through core.NewScenarioEngine: once each from fresh storage, then on
// one core.EngineScratch in step order and again in reverse. Every
// step's RowResult must be the same all three ways. Mappers do not
// reach scenario engines, so they are ignored here.
func checkScratchOrders(t testing.TB, steps []resetStep) {
	t.Helper()
	run := func(s resetStep, scratch *core.EngineScratch) core.RowResult {
		t.Helper()
		eng, err := core.NewScenarioEngine(core.EngineEnv{
			Profile:  s.cfg.Profile,
			Params:   s.cfg.Params,
			Timings:  timing.Default(),
			NumRows:  s.cfg.NumRows,
			RowBytes: s.cfg.RowBytes,
			Run:      s.cfg.RunSeed,
			Scratch:  scratch,
		}, s.scenario())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		res, err := eng.CharacterizeRow(s.victim, s.spec, s.opts)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		return res
	}
	want := make([]core.RowResult, len(steps))
	for i, s := range steps {
		want[i] = run(s, nil)
	}
	scratch := new(core.EngineScratch)
	for i, s := range steps {
		if got := run(s, scratch); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("step %d %v on a scratch in order: %+v, want %+v", i, s, got, want[i])
		}
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if got := run(steps[i], scratch); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("step %d %v on a scratch in reverse: %+v, want %+v", i, steps[i], got, want[i])
		}
	}
}

// TestBankResetParity pins Bank.Reset against NewBank over committed
// seeds, and checks the sequences flip often enough to exercise the
// recycled data buffers.
func TestBankResetParity(t *testing.T) {
	flipped, total := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		steps := resetSteps(t, seed, 24)
		flipped += checkResetParity(t, steps)
		checkScratchOrders(t, steps)
		total += len(steps)
	}
	if flipped == 0 || flipped == total {
		t.Fatalf("%d of %d steps flipped; the sequences must mix flipping and surviving rows", flipped, total)
	}
	t.Logf("%d of %d steps flipped", flipped, total)
}

// FuzzBankResetParity explores other step sequences: any seed, 1 to 32
// steps.
func FuzzBankResetParity(f *testing.F) {
	f.Add(uint64(1), uint8(24))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		steps := resetSteps(t, seed, 1+int(n%32))
		checkResetParity(t, steps)
		checkScratchOrders(t, steps)
	})
}
