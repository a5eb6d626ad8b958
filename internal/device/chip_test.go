package device

import (
	"testing"
)

func TestNewChipDefaults(t *testing.T) {
	c, err := NewChip(ChipConfig{Profile: validProfile(), Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBanks() != 16 {
		t.Errorf("default bank count = %d, want 16", c.NumBanks())
	}
	if _, err := c.Bank(15); err != nil {
		t.Errorf("bank 15: %v", err)
	}
	if _, err := c.Bank(16); err == nil {
		t.Error("bank 16 accepted")
	}
	if _, err := c.Bank(-1); err == nil {
		t.Error("bank -1 accepted")
	}
}

func TestNewChipValidation(t *testing.T) {
	bad := validProfile()
	bad.HammerACmin = -1
	if _, err := NewChip(ChipConfig{Profile: bad, Params: DefaultParams()}); err == nil {
		t.Error("accepted invalid profile")
	}
}

func TestDieProfileDistinct(t *testing.T) {
	p := validProfile()
	d0 := DieProfile(p, 0)
	d1 := DieProfile(p, 1)
	if d0.Serial == d1.Serial {
		t.Error("die profiles share a serial")
	}
	if d0.HammerACmin != p.HammerACmin {
		t.Error("die profile changed calibration values")
	}
}

func TestSiblingDiesHaveDistinctWeakCells(t *testing.T) {
	var cells [2][]WeakCell
	for i := range cells {
		c, err := NewChip(ChipConfig{Profile: validProfile(), Params: DefaultParams(), Index: i, NumRows: 4096})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := c.Bank(0)
		cells[i] = b.VictimCells(100)
	}
	if cells[0][0].Bit == cells[1][0].Bit && cells[0][0].Th == cells[1][0].Th {
		t.Error("sibling dies have identical weak cells")
	}
}

func TestDataPatternHelpers(t *testing.T) {
	if Checkerboard.AggressorByte() != 0xAA || Checkerboard.VictimByte() != 0x55 {
		t.Error("checkerboard bytes wrong (paper uses 0xAA/0x55)")
	}
	if CheckerboardInv.VictimByte() != 0xAA {
		t.Error("inverted checkerboard victim byte wrong")
	}
	// VictimBitAt must agree with a FillRow buffer.
	buf := FillRow(4, Checkerboard.VictimByte())
	for bit := 0; bit < 32; bit++ {
		if Checkerboard.VictimBitAt(bit) != storedBit(buf, bit) {
			t.Fatalf("VictimBitAt(%d) disagrees with buffer", bit)
		}
	}
	for _, p := range []DataPattern{Checkerboard, CheckerboardInv, AllOnes, AllZeros, RowStripe, DataPattern(99)} {
		if p.String() == "" {
			t.Error("empty pattern name")
		}
	}
}

func TestPolarityHelpers(t *testing.T) {
	if ZeroToOne.From() != 0 || ZeroToOne.To() != 1 {
		t.Error("0->1 polarity broken")
	}
	if OneToZero.From() != 1 || OneToZero.To() != 0 {
		t.Error("1->0 polarity broken")
	}
	if ZeroToOne.String() != "0->1" || OneToZero.String() != "1->0" {
		t.Error("polarity rendering wrong")
	}
}

func TestBitflipKey(t *testing.T) {
	a := Bitflip{Row: 5, Bit: 9}
	b := Bitflip{Row: 5, Bit: 10}
	c := Bitflip{Row: 6, Bit: 9}
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Error("bitflip keys collide")
	}
	if a.String() == "" || a.Key() != (Bitflip{Row: 5, Bit: 9, Dir: OneToZero}).Key() {
		t.Error("key must ignore direction, string must render")
	}
}

func TestMechanismString(t *testing.T) {
	for _, m := range []Mechanism{MechHammer, MechPress, MechRetention, Mechanism(42)} {
		if m.String() == "" {
			t.Errorf("empty name for %d", int(m))
		}
	}
}

func TestBankGeometryAccessors(t *testing.T) {
	b, err := NewBank(BankConfig{
		Profile:  validProfile(),
		Params:   DefaultParams(),
		Index:    3,
		NumRows:  4096,
		RowBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 4096 || b.RowBytes() != 512 {
		t.Errorf("geometry accessors wrong: %d %d", b.NumRows(), b.RowBytes())
	}
}
