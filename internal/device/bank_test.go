package device

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"rowfuse/internal/timing"
)

func testBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(BankConfig{
		Profile: validProfile(),
		Params:  DefaultParams(),
		NumRows: 4096,
	})
	if err != nil {
		t.Fatalf("NewBank: %v", err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(BankConfig{Params: DefaultParams()}); err == nil {
		t.Error("accepted empty profile")
	}
	if _, err := NewBank(BankConfig{Profile: validProfile()}); err == nil {
		t.Error("accepted empty params")
	}
	if _, err := NewBank(BankConfig{Profile: validProfile(), Params: DefaultParams(), NumRows: 4}); err == nil {
		t.Error("accepted tiny bank")
	}
}

func TestBankStateMachine(t *testing.T) {
	b := testBank(t)
	now := time.Duration(0)

	if b.isOpen {
		t.Fatal("fresh bank has an open row")
	}
	if err := b.Precharge(now); !errors.Is(err, ErrBankClosed) {
		t.Errorf("PRE on closed bank: %v, want ErrBankClosed", err)
	}
	if err := b.Activate(100, now); err != nil {
		t.Fatalf("ACT: %v", err)
	}
	if err := b.Activate(101, now); !errors.Is(err, ErrBankOpen) {
		t.Errorf("double ACT: %v, want ErrBankOpen", err)
	}
	if p, _ := b.phys(100); !b.isOpen || b.openRow != p {
		t.Errorf("open row = %d,%v, want %d,true", b.openRow, b.isOpen, p)
	}
	now += timing.TRAS
	if err := b.Precharge(now); err != nil {
		t.Fatalf("PRE: %v", err)
	}
	if err := b.Activate(-1, now); !errors.Is(err, ErrRowOutOfRange) {
		t.Errorf("ACT row -1: %v", err)
	}
	if err := b.Activate(4096, now); !errors.Is(err, ErrRowOutOfRange) {
		t.Errorf("ACT row 4096: %v", err)
	}
	act, pre, _ := b.Counters()
	if act != 1 || pre != 1 {
		t.Errorf("counters = %d,%d, want 1,1", act, pre)
	}
}

func TestPrechargeBeforeActivateTime(t *testing.T) {
	b := testBank(t)
	if err := b.Activate(10, 100*time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if err := b.Precharge(50 * time.Nanosecond); err == nil {
		t.Error("accepted precharge before activation time")
	}
}

func TestWriteRowReadBack(t *testing.T) {
	b := testBank(t)
	data := FillRow(b.RowBytes(), 0x5A)
	if err := b.WriteRow(42, data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := b.RowData(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0x5A {
			t.Fatalf("byte %d = %#x, want 0x5A", i, got[i])
		}
	}
	if err := b.WriteRow(42, data[:10], 0); err == nil {
		t.Error("accepted short row write")
	}
	if err := b.WriteRow(-1, data, 0); !errors.Is(err, ErrRowOutOfRange) {
		t.Errorf("WriteRow(-1): %v", err)
	}
}

func TestColumnReadWrite(t *testing.T) {
	b := testBank(t)
	now := time.Duration(0)
	if _, err := b.Read(0, 8, now); !errors.Is(err, ErrBankClosed) {
		t.Errorf("read on closed bank: %v", err)
	}
	if err := b.Activate(5, now); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(16, []byte{1, 2, 3, 4}, now); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(16, 4, now)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{1, 2, 3, 4} {
		if got[i] != want {
			t.Errorf("byte %d = %d, want %d", i, got[i], want)
		}
	}
	if _, err := b.Read(b.RowBytes()-2, 8, now); !errors.Is(err, ErrColOutOfRange) {
		t.Errorf("overlong read: %v", err)
	}
	if err := b.Write(b.RowBytes(), []byte{1}, now); !errors.Is(err, ErrColOutOfRange) {
		t.Errorf("out-of-range write: %v", err)
	}
}

// hammerUntilFlip double-side hammers the victim and returns the flips
// and total activation count when the first flip appears.
func hammerUntilFlip(t *testing.T, b *Bank, victim int, onTime time.Duration, maxIters int) ([]Bitflip, int) {
	t.Helper()
	rowBytes := b.RowBytes()
	mustWrite := func(row int, fill byte) {
		t.Helper()
		if err := b.WriteRow(row, FillRow(rowBytes, fill), 0); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(victim-1, 0xAA)
	mustWrite(victim+1, 0xAA)
	mustWrite(victim, 0x55)

	now := time.Duration(0)
	acts := 0
	for iter := 0; iter < maxIters; iter++ {
		for _, agg := range []int{victim - 1, victim + 1} {
			if err := b.Activate(agg, now); err != nil {
				t.Fatal(err)
			}
			now += onTime
			if err := b.Precharge(now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRP
			acts++
		}
		flips, err := b.CompareRow(victim, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(flips) > 0 {
			return flips, acts
		}
	}
	return nil, acts
}

func TestDoubleSidedHammerFlipsVictim(t *testing.T) {
	b := testBank(t)
	flips, acts := hammerUntilFlip(t, b, 200, timing.TRAS, 60000)
	if len(flips) == 0 {
		t.Fatal("no bitflip after 120K activations (profile ACmin ~45K)")
	}
	if acts < 5000 {
		t.Errorf("flip after only %d acts, suspiciously weak", acts)
	}
	f := flips[0]
	if f.Row != 200 {
		t.Errorf("flip row = %d, want 200", f.Row)
	}
	if f.Mech != MechHammer {
		t.Errorf("minimal on-time flip mechanism = %v, want hammer", f.Mech)
	}
}

func TestLongOnTimeFlipsFasterAndViaPress(t *testing.T) {
	// At tAggON = 70.2us far fewer activations are needed and the
	// flipping cells are press cells (Hypothesis 2).
	b := testBank(t)
	flips, acts := hammerUntilFlip(t, b, 300, timing.AggOnNineTREFI, 2000)
	if len(flips) == 0 {
		t.Fatal("no press flip")
	}
	if acts > 3000 {
		t.Errorf("press flip took %d acts, want far fewer than RowHammer's ~45K", acts)
	}
	if flips[0].Mech != MechPress {
		t.Errorf("flip mechanism = %v, want press", flips[0].Mech)
	}
}

func TestNoFlipWithoutHammering(t *testing.T) {
	b := testBank(t)
	if err := b.WriteRow(50, FillRow(b.RowBytes(), 0x55), 0); err != nil {
		t.Fatal(err)
	}
	flips, err := b.CompareRow(50, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Errorf("idle row has %d flips", len(flips))
	}
}

func TestRefreshResetsAccumulators(t *testing.T) {
	b1 := testBank(t)
	_, baseline := hammerUntilFlip(t, b1, 400, timing.TRAS, 60000)

	// Same victim on a fresh bank, but refresh the victim halfway.
	b2 := testBank(t)
	rowBytes := b2.RowBytes()
	for _, init := range []struct {
		row  int
		fill byte
	}{{399, 0xAA}, {401, 0xAA}, {400, 0x55}} {
		if err := b2.WriteRow(init.row, FillRow(rowBytes, init.fill), 0); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	half := baseline / 2
	for i := 0; i < half; i++ {
		agg := 399
		if i%2 == 1 {
			agg = 401
		}
		if err := b2.Activate(agg, now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRAS
		if err := b2.Precharge(now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRP
	}
	if err := b2.RefreshRow(400, now); err != nil {
		t.Fatal(err)
	}
	// After refresh, another half-baseline of activations must NOT flip
	// (the accumulator restarted).
	for i := 0; i < half; i++ {
		agg := 399
		if i%2 == 1 {
			agg = 401
		}
		if err := b2.Activate(agg, now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRAS
		if err := b2.Precharge(now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRP
	}
	flips, err := b2.CompareRow(400, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Errorf("victim flipped despite mid-experiment refresh (%d flips)", len(flips))
	}
}

func TestRefreshPreservesFlippedValues(t *testing.T) {
	b := testBank(t)
	flips, _ := hammerUntilFlip(t, b, 500, timing.TRAS, 60000)
	if len(flips) == 0 {
		t.Fatal("setup: no flip")
	}
	if err := b.RefreshRow(500, time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := b.CompareRow(500, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(flips) {
		t.Errorf("refresh changed flip count from %d to %d; refresh re-drives the flipped value", len(flips), len(after))
	}
}

func TestWriteResetsFlips(t *testing.T) {
	b := testBank(t)
	flips, _ := hammerUntilFlip(t, b, 600, timing.TRAS, 60000)
	if len(flips) == 0 {
		t.Fatal("setup: no flip")
	}
	if err := b.WriteRow(600, FillRow(b.RowBytes(), 0x55), time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := b.CompareRow(600, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Errorf("%d flips survive a full row write", len(after))
	}
}

// TestUnwrittenRowHoldsZeros pins the semantics of a row that was only
// ever disturbed (its buffers are allocated on demand): it reads back
// zeros, compares clean, flips only 0->1 cells, and a column write
// leaves its other bytes zero.
func TestUnwrittenRowHoldsZeros(t *testing.T) {
	b := testBank(t)
	const victim = 300
	zeros := make([]byte, b.RowBytes())
	now := time.Duration(0)
	var flips []Bitflip
	for iter := 0; iter < 60000 && len(flips) == 0; iter++ {
		for _, agg := range []int{victim - 1, victim + 1} {
			if err := b.Activate(agg, now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRAS
			if err := b.Precharge(now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRP
		}
		if iter == 0 {
			if data, err := b.RowData(victim, now); err != nil || !bytes.Equal(data, zeros) {
				t.Fatalf("disturbed row reads %x, %v; want zeros", data, err)
			}
		}
		var err error
		if flips, err = b.CompareRow(victim, now); err != nil {
			t.Fatal(err)
		}
	}
	if len(flips) == 0 {
		t.Fatal("hammering never flipped the unwritten row")
	}
	want := slices.Clone(zeros)
	for _, f := range flips {
		if f.Dir != ZeroToOne {
			t.Fatalf("unwritten row flipped %+v, want only 0->1", f)
		}
		want[f.Bit/8] |= 1 << uint(f.Bit%8)
	}
	if data, err := b.RowData(victim, now); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("flipped row reads %x, %v; want %x", data, err, want)
	}

	const other = 900
	if err := b.Activate(other, now); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(4, []byte{0xde, 0xad}, now); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(0, 8, now)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0, 0xde, 0xad, 0, 0}) {
		t.Fatalf("column write to an unwritten row reads back %x", got)
	}
	if err := b.Precharge(now + timing.TRAS); err != nil {
		t.Fatal(err)
	}
	if flips, err := b.CompareRow(other, now); err != nil || len(flips) != 0 {
		t.Fatalf("written columns compare as %v, %v; want clean", flips, err)
	}
}

func TestRetentionFailuresPastBudget(t *testing.T) {
	b := testBank(t)
	if err := b.WriteRow(70, FillRow(b.RowBytes(), 0x55), 0); err != nil {
		t.Fatal(err)
	}
	// Within the paper's 60 ms budget: clean.
	flips, err := b.CompareRow(70, 59*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Errorf("retention flips within 60ms budget: %d", len(flips))
	}
	// Far past tREFW: the retention tail must show up.
	flips, err = b.CompareRow(70, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Error("no retention failures after 500ms without refresh")
	}
	for _, f := range flips {
		if f.Mech != MechRetention {
			t.Errorf("long-idle flip mechanism = %v, want retention", f.Mech)
		}
	}
}

func TestDataPatternDependence(t *testing.T) {
	// A victim filled with all-ones can only show 1->0 flips.
	b := testBank(t)
	rowBytes := b.RowBytes()
	victim := 800
	for _, init := range []struct {
		row  int
		fill byte
	}{{victim - 1, 0x00}, {victim + 1, 0x00}, {victim, 0xFF}} {
		if err := b.WriteRow(init.row, FillRow(rowBytes, init.fill), 0); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	for i := 0; i < 90000; i++ {
		agg := victim - 1
		if i%2 == 1 {
			agg = victim + 1
		}
		if err := b.Activate(agg, now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRAS
		if err := b.Precharge(now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRP
	}
	flips, err := b.CompareRow(victim, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flips {
		if f.Dir != OneToZero {
			t.Errorf("all-ones victim produced %v flip", f.Dir)
		}
	}
}

// xorMapper is a test double for in-DRAM remapping.
type xorMapper struct{ mask int }

func (m xorMapper) Physical(l int) int { return l ^ m.mask }
func (m xorMapper) Logical(p int) int  { return p ^ m.mask }

func TestRowMapperChangesAdjacency(t *testing.T) {
	// With a XOR-1 mapper, logical rows 2k and 2k+1 swap: the physical
	// neighbors of logical victim 101 (physical 100) are physical
	// 99/101 = logical 98/100.
	b, err := NewBank(BankConfig{
		Profile: validProfile(),
		Params:  DefaultParams(),
		NumRows: 4096,
		Mapper:  xorMapper{mask: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := b.RowBytes()
	victim := 101 // physical 100
	aggA, aggB := 98, 100
	for _, init := range []struct {
		row  int
		fill byte
	}{{aggA, 0xAA}, {aggB, 0xAA}, {victim, 0x55}} {
		if err := b.WriteRow(init.row, FillRow(rowBytes, init.fill), 0); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	flipped := false
	for i := 0; i < 60000 && !flipped; i++ {
		agg := aggA
		if i%2 == 1 {
			agg = aggB
		}
		if err := b.Activate(agg, now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRAS
		if err := b.Precharge(now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRP
		if i%1000 == 999 {
			flips, err := b.CompareRow(victim, now)
			if err != nil {
				t.Fatal(err)
			}
			flipped = len(flips) > 0
		}
	}
	if !flipped {
		t.Error("physically adjacent (logically remapped) aggressors failed to flip the victim")
	}

	// Conversely, logically adjacent rows 100/102 are NOT physical
	// neighbors of logical 101; hammering them must not flip it.
	b2, err := NewBank(BankConfig{
		Profile: validProfile(),
		Params:  DefaultParams(),
		NumRows: 4096,
		Mapper:  xorMapper{mask: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim2 := 201 // physical 200; logical 200 is physical 201, logical 202 is physical 203
	for _, init := range []struct {
		row  int
		fill byte
	}{{200, 0xAA}, {202, 0xAA}, {victim2, 0x55}} {
		if err := b2.WriteRow(init.row, FillRow(rowBytes, init.fill), 0); err != nil {
			t.Fatal(err)
		}
	}
	now = 0
	for i := 0; i < 60000; i++ {
		agg := 200
		if i%2 == 1 {
			agg = 202
		}
		if err := b2.Activate(agg, now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRAS
		if err := b2.Precharge(now); err != nil {
			t.Fatal(err)
		}
		now += timing.TRP
	}
	flips, err := b2.CompareRow(victim2, now)
	if err != nil {
		t.Fatal(err)
	}
	// Logical 202 = physical 203... physical 200's neighbors are 199
	// and 201 (logical 198 and 200). Logical 200 = physical 201 IS a
	// neighbor, so single-sided damage accrues; but without the second
	// side the victim must survive this activation budget.
	if len(flips) != 0 {
		t.Errorf("logically adjacent aggressors flipped a remapped victim (%d flips)", len(flips))
	}
}

func TestRefreshRoundRobin(t *testing.T) {
	b := testBank(t)
	if err := b.WriteRow(0, FillRow(b.RowBytes(), 0x55), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Activate(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(time.Millisecond); err == nil {
		t.Error("REF with open bank accepted")
	}
	if err := b.Precharge(timing.TRAS); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Refresh(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	_, _, ref := b.Counters()
	if ref != 10 {
		t.Errorf("ref counter = %d, want 10", ref)
	}
}

func TestSetTemperatureAcceleratesDamage(t *testing.T) {
	cold := testBank(t)
	hot := testBank(t)
	hot.SetTemperature(85)
	_, coldActs := hammerUntilFlip(t, cold, 900, timing.TRAS, 80000)
	_, hotActs := hammerUntilFlip(t, hot, 900, timing.TRAS, 80000)
	if coldActs == 0 || hotActs == 0 {
		t.Fatal("setup: no flips")
	}
	if hotActs >= coldActs {
		t.Errorf("85C flip at %d acts, 50C at %d: temperature must accelerate disturbance", hotActs, coldActs)
	}
}
