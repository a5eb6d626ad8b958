package device

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

const testRowBits = 8192

// TestGenerateRowCellsAllocs freezes from-scratch generation at its
// structural allocations (population struct, base-cell slice, pick
// bitset, pre-sized output slice): the output is pre-sized from the
// base population, so append growth must never reappear.
func TestGenerateRowCellsAllocs(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	row := 0
	allocs := testing.AllocsPerRun(20, func() {
		GenerateRowCells(p, d, 0, row, testRowBits, 0)
		row++
	})
	if allocs > 4 {
		t.Errorf("GenerateRowCells allocates %.1f times per call, want <= 4", allocs)
	}
}

func TestGenerateRowCellsDeterministic(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	a := GenerateRowCells(p, d, 0, 100, testRowBits, 0)
	b := GenerateRowCells(p, d, 0, 100, testRowBits, 0)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs between identical generations", i)
		}
	}
}

// TestAppendCellsMatchesGenerate pins the base/noise split: caching a
// RowPopulation and reapplying per-run noise must be byte-identical to
// regenerating the row from scratch, for the noise-free run and for
// every noisy run seed.
func TestAppendCellsMatchesGenerate(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	for _, row := range []int{1, 7, 100, 4095} {
		pop := NewRowPopulation(p, d, 0, row, testRowBits)
		var buf []WeakCell
		for runSeed := int64(0); runSeed < 4; runSeed++ {
			want := GenerateRowCells(p, d, 0, row, testRowBits, runSeed)
			buf = pop.AppendCells(buf[:0], runSeed)
			if len(buf) != len(want) {
				t.Fatalf("row %d run %d: %d cells, want %d", row, runSeed, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("row %d run %d cell %d: AppendCells %+v != GenerateRowCells %+v",
						row, runSeed, i, buf[i], want[i])
				}
			}
		}
	}
}

// TestAppendCellsReusesBacking verifies the allocation contract: passing
// dst[:0] with sufficient capacity must not grow a new slice.
func TestAppendCellsReusesBacking(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	pop := NewRowPopulation(p, d, 0, 42, testRowBits)
	buf := pop.AppendCells(nil, 0)
	first := &buf[0]
	buf = pop.AppendCells(buf[:0], 3)
	if &buf[0] != first {
		t.Error("AppendCells reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf = pop.AppendCells(buf[:0], 3)
	})
	if allocs != 0 {
		t.Errorf("AppendCells allocates %v times per run on a warm buffer, want 0", allocs)
	}
}

func TestPopulationCache(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	c := NewPopulationCache(p, d, 0, testRowBits)
	a := c.Get(9)
	if b := c.Get(9); b != a {
		t.Error("cache regenerated an already-cached row")
	}
	if n := c.n.Load(); n != 1 {
		t.Errorf("cache holds %d rows, want 1", n)
	}
	// Every build through the cache reuses one bit set of assigned
	// bits; each row must still match direct generation.
	for _, row := range []int{9, 3, 4095, 200, 8} {
		got := c.Get(row).AppendCells(nil, 7)
		want := GenerateRowCells(p, d, 0, row, testRowBits, 7)
		if !slices.Equal(got, want) {
			t.Fatalf("cached population of row %d differs from direct generation", row)
		}
	}
	// A miss allocates the population, its cell storage and the table
	// entry, and no bit set. The table is grown first so that the
	// measured misses do not resize it.
	for row := 1000; row < 1100; row++ {
		c.Get(row)
	}
	next := 2000
	if allocs := testing.AllocsPerRun(20, func() { c.Get(next); next++ }); allocs != 3 {
		t.Errorf("a cache miss allocates %v objects, want 3", allocs)
	}
	if !c.Matches(p, d, 0, testRowBits) {
		t.Error("Matches rejected the cache's own identity")
	}
	if c.Matches(p, d, 1, testRowBits) {
		t.Error("Matches accepted a different bank")
	}
}

func TestGenerateRowCellsVariesByRowAndSerial(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	a := GenerateRowCells(p, d, 0, 100, testRowBits, 0)
	b := GenerateRowCells(p, d, 0, 101, testRowBits, 0)
	if a[0].Th == b[0].Th && a[0].Bit == b[0].Bit {
		t.Error("different rows produced identical anchor cells")
	}
	p2 := p
	p2.Serial = "TEST-1"
	c := GenerateRowCells(p2, d, 0, 100, testRowBits, 0)
	if a[0].Th == c[0].Th && a[0].Bit == c[0].Bit {
		t.Error("different serials produced identical anchor cells")
	}
}

func TestGenerateRowCellsPopulation(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	cells := GenerateRowCells(p, d, 0, 7, testRowBits, 0)
	if len(cells) != 2*p.WeakCellsPerMech {
		t.Fatalf("got %d cells, want %d", len(cells), 2*p.WeakCellsPerMech)
	}
	seen := make(map[int]bool)
	hammer, press := 0, 0
	for i, c := range cells {
		if c.Bit < 0 || c.Bit >= testRowBits {
			t.Errorf("cell %d bit %d out of range", i, c.Bit)
		}
		if seen[c.Bit] {
			t.Errorf("duplicate bit position %d", c.Bit)
		}
		seen[c.Bit] = true
		if c.Th <= 0 {
			t.Errorf("cell %d: non-positive hammer threshold %g", i, c.Th)
		}
		if c.Tp <= 0 {
			t.Errorf("cell %d: non-positive press threshold %g", i, c.Tp)
		}
		if c.Syn < 1 {
			t.Errorf("cell %d: synergy %g below 1", i, c.Syn)
		}
		if c.WeakSide < WeakSideVarMin || c.WeakSide > WeakSideVarMax {
			t.Errorf("cell %d: weak-side factor %g outside clamp", i, c.WeakSide)
		}
		switch c.Mech {
		case MechHammer:
			hammer++
		case MechPress:
			press++
			if c.WeakSide != 1.0 {
				t.Errorf("press cell %d has weak-side variance %g, want 1", i, c.WeakSide)
			}
		default:
			t.Errorf("cell %d: unexpected mechanism %v", i, c.Mech)
		}
	}
	if hammer != p.WeakCellsPerMech || press != p.WeakCellsPerMech {
		t.Errorf("population split %d/%d, want %d each", hammer, press, p.WeakCellsPerMech)
	}
}

// TestAnchorCellsMatchCheckerboard verifies the calibration anchor: the
// weakest cell of each mechanism sits on a bit whose checkerboard value
// matches its flip direction, so the paper's numbers (measured under
// 0x55 victims) are reproducible.
func TestAnchorCellsMatchCheckerboard(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	for row := 1; row < 50; row++ {
		cells := GenerateRowCells(p, d, 0, row, testRowBits, 0)
		for _, idx := range []int{0, p.WeakCellsPerMech} {
			c := cells[idx]
			if Checkerboard.VictimBitAt(c.Bit) != c.Dir.From() {
				t.Fatalf("row %d anchor cell (mech %v) at bit %d stores %d but flips %v",
					row, c.Mech, c.Bit, Checkerboard.VictimBitAt(c.Bit), c.Dir)
			}
		}
	}
}

func TestDirectionFractionsTrackProfile(t *testing.T) {
	p := validProfile()
	p.HammerOneToZeroFrac = 0.3
	p.PressOneToZeroFrac = 0.95
	d := DefaultParams()
	hOne, hTot, pOne, pTot := 0, 0, 0, 0
	for row := 1; row < 400; row++ {
		for _, c := range GenerateRowCells(p, d, 0, row, testRowBits, 0) {
			if c.Mech == MechHammer {
				hTot++
				if c.Dir == OneToZero {
					hOne++
				}
			} else {
				pTot++
				if c.Dir == OneToZero {
					pOne++
				}
			}
		}
	}
	hFrac := float64(hOne) / float64(hTot)
	pFrac := float64(pOne) / float64(pTot)
	if math.Abs(hFrac-0.3) > 0.05 {
		t.Errorf("hammer 1->0 fraction = %g, want ~0.3", hFrac)
	}
	if math.Abs(pFrac-0.95) > 0.03 {
		t.Errorf("press 1->0 fraction = %g, want ~0.95", pFrac)
	}
}

// TestRowACminCalibration checks that the anchor hammer cell's implied
// double-sided ACmin (Th/Syn) averages to the profile's HammerACmin
// across rows.
func TestRowACminCalibration(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	sum := 0.0
	const rows = 2000
	for row := 1; row <= rows; row++ {
		cells := GenerateRowCells(p, d, 0, row, testRowBits, 0)
		anchor := cells[0]
		sum += anchor.Th / anchor.Syn
	}
	avg := sum / rows
	if math.Abs(avg/p.HammerACmin-1) > 0.05 {
		t.Errorf("mean anchor double-sided ACmin = %g, want ~%g", avg, p.HammerACmin)
	}
}

func TestRunSeedPerturbsThresholds(t *testing.T) {
	p := validProfile()
	d := DefaultParams()
	base := GenerateRowCells(p, d, 0, 33, testRowBits, 0)
	noisy := GenerateRowCells(p, d, 0, 33, testRowBits, 7)
	if base[0].Bit != noisy[0].Bit {
		t.Error("run noise must not move cells, only perturb thresholds")
	}
	if base[0].Th == noisy[0].Th {
		t.Error("run noise did not perturb thresholds")
	}
	// Noise is bounded: a 3-sigma excursion of a 3% lognormal is <10%.
	if r := noisy[0].Th / base[0].Th; r < 0.85 || r > 1.18 {
		t.Errorf("run noise ratio %g implausibly large", r)
	}
}

func TestStoredBitSetBit(t *testing.T) {
	data := make([]byte, 4)
	for _, bit := range []int{0, 1, 7, 8, 15, 31} {
		if storedBit(data, bit) != 0 {
			t.Errorf("bit %d initially set", bit)
		}
		setBit(data, bit, 1)
		if storedBit(data, bit) != 1 {
			t.Errorf("bit %d not set", bit)
		}
		setBit(data, bit, 0)
		if storedBit(data, bit) != 0 {
			t.Errorf("bit %d not cleared", bit)
		}
	}
}

func TestSetBitProperty(t *testing.T) {
	f := func(raw [8]byte, bitRaw uint8, v bool) bool {
		data := make([]byte, 8)
		copy(data, raw[:])
		bit := int(bitRaw) % 64
		want := byte(0)
		if v {
			want = 1
		}
		setBit(data, bit, want)
		if storedBit(data, bit) != want {
			return false
		}
		// Other bits untouched.
		for i := 0; i < 64; i++ {
			if i == bit {
				continue
			}
			if storedBit(data, i) != storedBit(raw[:], i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerateRetentionCells(t *testing.T) {
	p := validProfile()
	cells := appendRetentionCells(nil, p, 0, 10, testRowBits)
	if len(cells) == 0 {
		t.Fatal("no retention cells generated")
	}
	for i, c := range cells {
		if c.ret < p.RetentionMin/2 {
			t.Errorf("retention cell %d: time %v below scaled minimum", i, c.ret)
		}
		if c.bit < 0 || c.bit >= testRowBits {
			t.Errorf("retention cell %d: bit %d out of range", i, c.bit)
		}
	}
}
