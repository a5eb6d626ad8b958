package device

import (
	"math"
	"slices"
	"time"
)

// Bounds on the per-cell weak-side coupling variance. The clamp keeps
// the lognormal tail from violating Table 2's "No Bitflip" boundary
// cells (see chipdb's budget caps, which assume WeakSideVarMax).
const (
	WeakSideVarMin = 0.5
	WeakSideVarMax = 1.6
)

// retCell is a retention-weak cell: it loses its value if the row goes
// unrefreshed longer than ret.
type retCell struct {
	bit     int
	ret     time.Duration
	dir     Polarity
	flipped bool
}

// rowState is the materialized state of one DRAM row. A row first
// touched by a neighbour's precharge leaves data and golden nil, which
// stands for all zeros, until a flip or a write allocates both.
type rowState struct {
	data   []byte
	golden []byte
	weak   []WeakCell
	ret    []retCell

	lastRefresh time.Duration

	// Disturbance bookkeeping, per aggressor side (indexed by sideIdx).
	sideSeen     [2]bool
	lastActStart [2]time.Duration
	hasLast      [2]bool
}

func sideIdx(s Side) int {
	if s == SideWeak {
		return 1
	}
	return 0
}

func otherSide(s Side) Side {
	if s == SideStrong {
		return SideWeak
	}
	return SideStrong
}

// popCell is one cell of a row's deterministic base population: every
// quantity that does not depend on the run-to-run noise realization.
type popCell struct {
	bit      int
	dir      Polarity
	mech     Mechanism
	syn      float64
	weakSide float64
	// base is the cell's pre-noise scale: the noise-free double-sided
	// ACmin share for hammer cells, the noise-free press tau in seconds
	// for press cells. Run noise multiplies it.
	base float64
	// th is the noise-independent hammer threshold of press cells
	// (hammer cells derive theirs from base at noise-application time).
	th float64
}

// RowPopulation is the cached deterministic base weak-cell population of
// one victim row. The population is a fixed physical property of the
// simulated chip — the same (profile, bank, row) always yields the same
// base cells — while run-to-run measurement noise (the paper repeats
// each measurement three times) is a separate multiplicative stream.
// Splitting the two lets campaign hot loops generate the base once per
// (die, row) and reapply per-run noise with AppendCells, byte-identical
// to regenerating from scratch every time.
//
// A RowPopulation's base cells are immutable after construction and the
// whole structure is safe for concurrent use; the embedded solver-view
// cache memoizes derived projections under its own lock.
type RowPopulation struct {
	cells []popCell

	runSigma float64
	// synergy and pressSensDenom reconstruct a hammer cell's press
	// threshold: Tp = base*noise * synergy / pressSensDenom.
	synergy        float64
	pressSensDenom float64
	hasPressSens   bool

	// Noise-stream seed words.
	serialHash uint64
	rowWord    uint64

	// solveViewCache memoizes batch-solver projections of the base
	// population per (runSeed, data pattern); see SolveView.
	solveViewCache
}

// NewRowPopulation deterministically builds the base weak-cell
// population of a victim row.
//
// Calibration anchors (see DESIGN.md section 6):
//   - the weakest hammer cell's double-sided-RowHammer ACmin equals the
//     row's lognormally-spread share of Profile.HammerACmin;
//   - the weakest press cell's cumulative strong-side open time equals
//     the row's share of Profile.PressTau;
//   - both anchor cells are placed on a bit whose checkerboard (0x55)
//     value matches their flip direction, since the paper's numbers are
//     measured under that data pattern.
func NewRowPopulation(p Profile, d DisturbParams, bank, row int, rowBits int) *RowPopulation {
	rp := &RowPopulation{}
	var used Bitset
	rp.build(p, d, bank, row, rowBits, &used)
	return rp
}

// build fills rp with the base population of a row, reusing its cell
// storage and used, the scratch set of bits already assigned.
func (rp *RowPopulation) build(p Profile, d DisturbParams, bank, row int, rowBits int, used *Bitset) {
	serialHash := hashString(p.Serial)
	rowWord := uint64(bank)<<32 | uint64(uint32(row))
	r := newRNG(serialHash, rowWord, 0xce11)

	rowACmin := p.HammerACmin * r.meanOneLognormal(p.RowSigmaHammer)
	rowPressTau := p.effectivePressTau().Seconds() * r.meanOneLognormal(p.RowSigmaPress)

	used.Reset(rowBits)
	pickBit := func(dir Polarity, anchored bool) int {
		for {
			b := r.intn(rowBits)
			if anchored {
				// Checkerboard 0x55 stores 1 on even bit offsets.
				want := dir.From()
				if byte(1-(b&1)) != want {
					continue
				}
			}
			if !used.Has(b) {
				used.Set(b)
				return b
			}
		}
	}
	spacing := func(k int) float64 {
		if k == 0 {
			return 1.0
		}
		return 1.0 + p.CellSpacing*math.Pow(float64(k), 1.2)*r.lognormal(0, 0.3)
	}
	dirFor := func(oneToZeroFrac float64) Polarity {
		if r.float64() < oneToZeroFrac {
			return OneToZero
		}
		return ZeroToOne
	}
	weakSideVar := func() float64 {
		v := r.meanOneLognormal(0.35)
		if v < WeakSideVarMin {
			v = WeakSideVarMin
		}
		if v > WeakSideVarMax {
			v = WeakSideVarMax
		}
		return v
	}

	if n := 2 * p.WeakCellsPerMech; cap(rp.cells) < n {
		rp.cells = make([]popCell, 0, n)
	}
	rp.cells = rp.cells[:0]
	rp.runSigma, rp.synergy = p.RunSigma, d.Synergy
	rp.serialHash, rp.rowWord = serialHash, rowWord
	rp.hasPressSens, rp.pressSensDenom = false, 0

	// Row-level press coupling of the hammer population. The spread is
	// per row (not per cell) so that the strong calibration guarantees
	// ("No Bitflip" cells of Table 2) survive the tails.
	rowPressSens := p.HammerPressSens * r.meanOneLognormal(0.25)
	if rowPressSens > 0 {
		rp.hasPressSens = true
		rp.pressSensDenom = rowPressSens * 1e6
	}

	// Hammer-weak population.
	for k := 0; k < p.WeakCellsPerMech; k++ {
		syn := d.Synergy * r.meanOneLognormal(d.SynergySigma)
		if syn < 1 {
			syn = 1
		}
		base := rowACmin * spacing(k)
		dir := dirFor(p.HammerOneToZeroFrac)
		rp.cells = append(rp.cells, popCell{
			bit:      pickBit(dir, k == 0),
			dir:      dir,
			mech:     MechHammer,
			syn:      syn,
			weakSide: weakSideVar(),
			base:     base,
		})
	}

	// Press-weak population.
	for k := 0; k < p.WeakCellsPerMech; k++ {
		syn := d.Synergy * r.meanOneLognormal(d.SynergySigma)
		if syn < 1 {
			syn = 1
		}
		base := rowPressTau * spacing(k)
		// Press cells are an order of magnitude harder to hammer-flip.
		th := rowACmin * syn * 12 * r.lognormal(0, 0.3)
		dir := dirFor(p.PressOneToZeroFrac)
		// Press cells carry no weak-side variance: Table 2's boundary
		// cells (S4's double-sided No Bitflip at 70.2 us) require the
		// press population's side coupling to be tight.
		rp.cells = append(rp.cells, popCell{
			bit:      pickBit(dir, k == 0),
			dir:      dir,
			mech:     MechPress,
			syn:      syn,
			weakSide: 1.0,
			base:     base,
			th:       th,
		})
	}
}

// Len returns the number of cells in the population.
func (rp *RowPopulation) Len() int { return len(rp.cells) }

// AppendCells applies one run's measurement noise to the base population
// and appends the resulting live cells to dst, which is returned (pass
// dst[:0] to reuse its backing storage across runs — the append-style
// contract keeps the campaign hot path allocation-free after warm-up).
// runSeed selects the noise realization; runSeed 0 is the noise-free
// calibration point. The output is byte-identical to what
// GenerateRowCells produces for the same arguments.
func (rp *RowPopulation) AppendCells(dst []WeakCell, runSeed int64) []WeakCell {
	var nr rng
	noisy := runSeed != 0 && rp.runSigma > 0
	if noisy {
		nr.seed(rp.serialHash, rp.rowWord, uint64(runSeed), 0x4015e)
	}
	for i := range rp.cells {
		c := &rp.cells[i]
		f := 1.0
		if noisy {
			f = nr.meanOneLognormal(rp.runSigma)
		}
		var th, tp float64
		switch c.mech {
		case MechHammer:
			doubleACmin := c.base * f
			th = doubleACmin * c.syn
			tp = math.Inf(1)
			if rp.hasPressSens {
				// The press threshold scales with the cell's hammer
				// vulnerability (not the synergy-inflated Th), in
				// 1/us units: Tp [s] = ACmin * Synergy / (sens * 1e6).
				tp = doubleACmin * rp.synergy / rp.pressSensDenom
			}
		default: // MechPress
			th = c.th
			tp = c.base * f
		}
		dst = append(dst, WeakCell{
			Bit:      c.bit,
			Th:       th,
			Tp:       tp,
			Syn:      c.syn,
			WeakSide: c.weakSide,
			Dir:      c.dir,
			Mech:     c.mech,
		})
	}
	return dst
}

// GenerateRowCells deterministically builds the weak-cell population of a
// victim row: the fixed base population (NewRowPopulation) with one
// run's noise applied. The same (profile, bank, row, runSeed) always
// yields the same cells. The output slice is pre-sized from the base
// population, so the append inside AppendCells never regrows (guarded
// by TestGenerateRowCellsAllocs). Hot loops that revisit a row should
// cache the RowPopulation and call AppendCells instead.
func GenerateRowCells(p Profile, d DisturbParams, bank, row int, rowBits int, runSeed int64) []WeakCell {
	rp := NewRowPopulation(p, d, bank, row, rowBits)
	return rp.AppendCells(make([]WeakCell, 0, rp.Len()), runSeed)
}

// generateRetentionCells builds the retention-weak tail of a row.
func generateRetentionCells(p Profile, bank, row int, rowBits int) []retCell {
	return appendRetentionCells(nil, p, bank, row, rowBits)
}

// appendRetentionCells appends the retention-weak tail of a row to
// dst, growing it at most once.
func appendRetentionCells(dst []retCell, p Profile, bank, row int, rowBits int) []retCell {
	r := newRNG(hashString(p.Serial), uint64(bank)<<32|uint64(uint32(row)), 0x4e7e)
	minRet := p.RetentionMin
	if minRet <= 0 {
		minRet = 70 * time.Millisecond
	}
	const n = 4
	dst = slices.Grow(dst, n)
	for k := 0; k < n; k++ {
		ret := time.Duration(float64(minRet) * (1 + 0.8*float64(k)) * r.lognormal(0, 0.2))
		dir := ZeroToOne
		if r.float64() < p.PressOneToZeroFrac {
			dir = OneToZero
		}
		dst = append(dst, retCell{bit: r.intn(rowBits), ret: ret, dir: dir})
	}
	return dst
}

// bit returns the row's stored value at bit offset bit.
func (st *rowState) bit(bit int) byte {
	if st.data == nil {
		return 0
	}
	return storedBit(st.data, bit)
}

// storedBit returns the bit value at offset bit in data.
func storedBit(data []byte, bit int) byte {
	return (data[bit>>3] >> uint(bit&7)) & 1
}

// setBit writes a bit value at offset bit in data.
func setBit(data []byte, bit int, v byte) {
	if v != 0 {
		data[bit>>3] |= 1 << uint(bit&7)
	} else {
		data[bit>>3] &^= 1 << uint(bit&7)
	}
}
