package device

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Errors returned by bank operations.
var (
	ErrBankOpen      = errors.New("device: bank already has an open row")
	ErrBankClosed    = errors.New("device: bank has no open row")
	ErrRowOutOfRange = errors.New("device: row index out of range")
	ErrColOutOfRange = errors.New("device: column offset out of range")
)

// RowMapper is an invertible logical->physical row address mapping
// applied inside the DRAM device (vendors scramble row addresses; see
// internal/rowmap). A nil mapper means identity.
type RowMapper interface {
	Physical(logical int) int
	Logical(physical int) int
}

// Bank simulates one DRAM bank: a 2D array of rows with a single row
// buffer, charge-disturbance physics, refresh and retention behaviour.
//
// All row indices on the public API are logical (bus) addresses; the
// bank applies its RowMapper internally, and disturbance acts on
// physically adjacent rows — exactly the property the paper's
// reverse-engineering step must recover.
//
// Rows are materialized lazily; untouched rows cost nothing. All state is
// deterministic given (profile, params, bank index, run seed).
type Bank struct {
	profile Profile
	params  DisturbParams
	index   int
	numRows int
	rowBits int
	runSeed int64

	rows    map[int]*rowState
	openRow int
	openAt  time.Duration
	isOpen  bool

	tempC float64
	// tf is params.TempFactor(tempC), cached because every disturbed
	// row needs it on every precharge and it costs a math.Exp.
	tf float64
	// weakSide is the resolved weak-side press coupling.
	weakSide float64
	// mapper scrambles logical row addresses (nil = identity).
	mapper RowMapper

	refCursor int // next row batch for round-robin REF

	// gen and genUsed are scratch for generating the weak cells of a
	// row on first touch.
	gen     RowPopulation
	genUsed Bitset
	// spareRows and spareBufs hold the storage of the rows a Reset
	// dropped, recycled as rows materialize again: row states with
	// their weak-cell and retention slices, and data/golden buffers of
	// the current row width.
	spareRows []*rowState
	spareBufs [][]byte

	// flipGen increments every time a weak cell materializes a flip,
	// letting engines detect "no new flips" by comparing one integer
	// instead of rescanning cell populations after every precharge.
	flipGen int64

	// Counters (diagnostics / benchmarks).
	actCount int64
	preCount int64
	refCount int64
}

// BankConfig configures a simulated bank.
type BankConfig struct {
	Profile Profile
	Params  DisturbParams
	// Index is the bank index within the chip.
	Index int
	// NumRows is the number of rows in the bank (default 65536).
	NumRows int
	// RowBytes is the row width in bytes (default 1024).
	RowBytes int
	// RunSeed selects the run-to-run noise realization (0 = noise-free).
	RunSeed int64
	// TempC is the initial die temperature (default: profile reference).
	TempC float64
	// Mapper is the in-DRAM row remapping (nil = identity).
	Mapper RowMapper
}

// NewBank constructs a bank. It validates the profile and parameters.
func NewBank(cfg BankConfig) (*Bank, error) {
	b := &Bank{}
	if err := b.Reset(cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset reconfigures the bank in place and leaves it exactly as
// NewBank(cfg) would build it: no row materialized, no row open, the
// refresh cursor, flip generation and counters at zero. The storage of
// the rows it drops (row states, weak-cell and retention slices, data
// and golden buffers) is kept and reused as rows materialize again, so
// a caller that runs many short experiments on one bank allocates each
// row's storage once. Slices VictimCells returned before a Reset are
// invalid after it. An invalid cfg leaves the bank unchanged. NewBank
// is Reset on a zero Bank.
func (b *Bank) Reset(cfg BankConfig) error {
	if err := cfg.Profile.Validate(); err != nil {
		return err
	}
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.NumRows == 0 {
		cfg.NumRows = 65536
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = 1024
	}
	if cfg.NumRows < 8 {
		return fmt.Errorf("device: bank needs at least 8 rows, got %d", cfg.NumRows)
	}
	temp := cfg.TempC
	if temp == 0 {
		temp = cfg.Params.TempRefC
	}

	// Spare buffers always have the current row width.
	keepBufs := cfg.RowBytes == b.RowBytes()
	if !keepBufs {
		clear(b.spareBufs)
		b.spareBufs = b.spareBufs[:0]
	}
	for _, st := range b.rows {
		if keepBufs && st.data != nil {
			b.spareBufs = append(b.spareBufs, st.data, st.golden)
		}
		st.data, st.golden = nil, nil
		b.spareRows = append(b.spareRows, st)
	}

	// Field by field: gen holds a lock, so the struct cannot be
	// replaced wholesale, and it is scratch a Reset keeps anyway.
	b.profile = cfg.Profile
	b.params = cfg.Params
	b.index = cfg.Index
	b.numRows = cfg.NumRows
	b.rowBits = cfg.RowBytes * 8
	b.runSeed = cfg.RunSeed
	if b.rows == nil {
		b.rows = make(map[int]*rowState)
	} else {
		clear(b.rows)
	}
	b.openRow = -1
	b.openAt = 0
	b.isOpen = false
	b.tempC = temp
	b.tf = cfg.Params.TempFactor(temp)
	b.weakSide = WeakSideCouplingOf(cfg.Profile, cfg.Params)
	b.mapper = cfg.Mapper
	b.refCursor = 0
	b.flipGen = 0
	b.actCount, b.preCount, b.refCount = 0, 0, 0
	return nil
}

// NumRows returns the number of rows in the bank.
func (b *Bank) NumRows() int { return b.numRows }

// RowBytes returns the row width in bytes.
func (b *Bank) RowBytes() int { return b.rowBits / 8 }

// Index returns the bank index.
func (b *Bank) Index() int { return b.index }

// SetTemperature sets the die temperature used for subsequent damage.
func (b *Bank) SetTemperature(c float64) {
	b.tempC = c
	b.tf = b.params.TempFactor(c)
}

// Temperature returns the current die temperature.
func (b *Bank) Temperature() float64 { return b.tempC }

// Counters returns (ACT, PRE, REF) counts since construction.
func (b *Bank) Counters() (act, pre, ref int64) {
	return b.actCount, b.preCount, b.refCount
}

// row materializes a row on first touch.
func (b *Bank) row(r int) *rowState {
	st := b.disturbedRow(r)
	b.allocBuffers(st)
	return st
}

// disturbedRow materializes a row on first touch without its data
// buffers. Most rows precharges reach are never written or read, and
// flip rarely, so they hold zeros without storing them.
func (b *Bank) disturbedRow(r int) *rowState {
	st, ok := b.rows[r]
	if ok {
		return st
	}
	// The same cells GenerateRowCells returns, built in the bank's
	// scratch population.
	b.gen.build(b.profile, b.params, b.index, r, b.rowBits, &b.genUsed)
	if n := len(b.spareRows); n > 0 {
		st = b.spareRows[n-1]
		b.spareRows[n-1] = nil
		b.spareRows = b.spareRows[:n-1]
		*st = rowState{weak: st.weak[:0], ret: st.ret[:0]}
	} else {
		st = &rowState{}
	}
	st.weak = b.gen.AppendCells(slices.Grow(st.weak, b.gen.Len()), b.runSeed)
	st.ret = appendRetentionCells(st.ret, b.profile, b.index, r, b.rowBits)
	b.rows[r] = st
	return st
}

// allocBuffers gives a row materialized without data its zeroed data
// and golden buffers, recycling spare ones when a Reset left some.
func (b *Bank) allocBuffers(st *rowState) {
	if st.data == nil {
		st.data, st.golden = b.zeroedBuf(), b.zeroedBuf()
	}
}

// zeroedBuf returns a zeroed row-width buffer, spare or new.
func (b *Bank) zeroedBuf() []byte {
	n := len(b.spareBufs)
	if n == 0 {
		return make([]byte, b.RowBytes())
	}
	buf := b.spareBufs[n-1]
	b.spareBufs[n-1] = nil
	b.spareBufs = b.spareBufs[:n-1]
	clear(buf)
	return buf
}

// phys validates a logical row address and maps it to its physical
// position.
func (b *Bank) phys(logical int) (int, error) {
	if logical < 0 || logical >= b.numRows {
		return 0, fmt.Errorf("%w: %d (bank has %d rows)", ErrRowOutOfRange, logical, b.numRows)
	}
	p := logical
	if b.mapper != nil {
		p = b.mapper.Physical(logical)
		if p < 0 || p >= b.numRows {
			return 0, fmt.Errorf("%w: mapper sent logical %d to physical %d", ErrRowOutOfRange, logical, p)
		}
	}
	return p, nil
}

// Activate opens a row (logical address) at the given absolute time.
func (b *Bank) Activate(row int, now time.Duration) error {
	if b.isOpen {
		return fmt.Errorf("%w (row %d)", ErrBankOpen, b.openRow)
	}
	p, err := b.phys(row)
	if err != nil {
		return err
	}
	// Opening a row connects its cells to the sense amplifiers, fully
	// restoring their charge: the row's own disturbance accumulators
	// and retention clock reset (flipped values are re-driven as-is).
	if st, ok := b.rows[p]; ok {
		st.lastRefresh = now
		st.sideSeen = [2]bool{}
		st.hasLast = [2]bool{}
		for i := range st.weak {
			if !st.weak[i].flipped {
				st.weak[i].acc = 0
			}
		}
	}
	b.openRow = p
	b.openAt = now
	b.isOpen = true
	b.actCount++
	return nil
}

// Precharge closes the open row at the given absolute time and applies
// read disturbance to the two physically adjacent victim rows. The
// aggressor's on-time is now minus the activation time.
func (b *Bank) Precharge(now time.Duration) error {
	if !b.isOpen {
		return ErrBankClosed
	}
	onTime := now - b.openAt
	if onTime < 0 {
		return fmt.Errorf("device: precharge at %v before activate at %v", now, b.openAt)
	}
	agg := b.openRow
	b.isOpen = false
	b.preCount++

	// The aggressor disturbs rows above it from the strong side
	// (aggressor physically below the victim) and rows below it from
	// the weak side, with damage attenuating per row of distance
	// (blast radius).
	radius := b.params.BlastRadius
	if radius < 1 {
		radius = 1
	}
	for d := 1; d <= radius; d++ {
		if agg+d < b.numRows {
			b.disturb(agg+d, d, SideStrong, onTime, b.openAt)
		}
		if agg-d >= 0 {
			b.disturb(agg-d, d, SideWeak, onTime, b.openAt)
		}
	}
	return nil
}

// disturb applies one activation's damage to a victim row at the given
// distance from the aggressor.
func (b *Bank) disturb(victim, distance int, side Side, onTime time.Duration, actStart time.Duration) {
	st := b.disturbedRow(victim)
	si := sideIdx(side)
	oi := sideIdx(otherSide(side))

	// Double-sided synergy: the other neighbour has activated since the
	// victim's last reset (refresh or write).
	synergy := st.sideSeen[oi]

	// Interleave: an activation from the other side started after this
	// side's previous activation started.
	interleaved := false
	if st.hasLast[oi] {
		if !st.hasLast[si] || st.lastActStart[oi] > st.lastActStart[si] {
			interleaved = true
		}
	}

	dose := b.doseFor(distance, side, onTime, synergy, interleaved)
	for i := range st.weak {
		c := &st.weak[i]
		if c.flipped {
			continue
		}
		c.acc += dose.delta(c)
		if c.acc >= 1 {
			b.tryFlip(st, c)
		}
	}

	// Side bookkeeping only tracks immediate neighbours: synergy and
	// interleave are distance-1 phenomena.
	if distance == 1 {
		st.lastActStart[si] = actStart
		st.hasLast[si] = true
		st.sideSeen[si] = true
	}
}

// actDose is the damage context of one activation: everything about an
// (on-time, side, distance, synergy, interleave) tuple that is uniform
// across the victim row's cells. Both the act-by-act disturbance path
// and the DamageProfile capture derive per-cell deltas through the same
// dose, so the two deal bit-identical damage — the property the
// fast-forward engine in internal/core depends on.
type actDose struct {
	tf       float64
	hammer   float64 // HammerBoost * blast attenuation, before per-cell synergy
	press    float64 // PressExposure * blast attenuation, before side coupling
	side     Side
	weakSide float64
	synergy  bool
}

// doseFor builds the damage context of one activation.
func (b *Bank) doseFor(distance int, side Side, onTime time.Duration, synergy, interleaved bool) actDose {
	blastH, blastP := b.params.BlastFactors(distance)
	return actDose{
		tf:       b.tf,
		hammer:   b.params.HammerBoost(onTime) * blastH,
		press:    b.params.PressExposure(onTime, interleaved) * blastP,
		side:     side,
		weakSide: b.weakSide,
		synergy:  synergy,
	}
}

// delta returns the damage fraction one activation under this dose adds
// to a cell. The float operations happen in a fixed order, so the same
// (dose, cell) pair always yields the same double.
func (d *actDose) delta(c *WeakCell) float64 {
	hammer := d.hammer
	if d.synergy {
		hammer *= c.Syn
	}
	press := d.press * SideFactor(d.side, d.weakSide, c.WeakSide)
	return d.tf * (hammer/c.Th + press/c.Tp)
}

// tryFlip materializes a flip if the cell stores the vulnerable value.
func (b *Bank) tryFlip(st *rowState, c *WeakCell) {
	if st.bit(c.Bit) != c.Dir.From() {
		// The cell is pushed toward the value it already holds; no
		// observable flip (data-pattern dependence).
		return
	}
	b.allocBuffers(st)
	setBit(st.data, c.Bit, c.Dir.To())
	c.flipped = true
	b.flipGen++
}

// FlipGeneration returns a counter that is monotonically bumped each
// time a weak cell anywhere in the bank materializes a flip. If two
// reads return the same value, no flip occurred between them.
func (b *Bank) FlipGeneration() int64 { return b.flipGen }

// Read returns n bytes starting at byte offset col of the open row,
// applying any pending retention failures first.
func (b *Bank) Read(col, n int, now time.Duration) ([]byte, error) {
	if !b.isOpen {
		return nil, ErrBankClosed
	}
	st := b.row(b.openRow)
	b.applyRetention(st, now)
	if col < 0 || n < 0 || col+n > len(st.data) {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrColOutOfRange, col, col+n, len(st.data))
	}
	out := make([]byte, n)
	copy(out, st.data[col:col+n])
	return out, nil
}

// Write stores data at byte offset col of the open row. Writing restores
// full charge: disturbance accumulators and flip markers of the written
// cells are reset.
func (b *Bank) Write(col int, data []byte, now time.Duration) error {
	if !b.isOpen {
		return ErrBankClosed
	}
	st := b.row(b.openRow)
	if col < 0 || col+len(data) > len(st.data) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrColOutOfRange, col, col+len(data), len(st.data))
	}
	copy(st.data[col:], data)
	copy(st.golden[col:], data)
	lo, hi := col*8, (col+len(data))*8
	for i := range st.weak {
		if c := &st.weak[i]; c.Bit >= lo && c.Bit < hi {
			c.acc = 0
			c.flipped = false
		}
	}
	for i := range st.ret {
		if st.ret[i].bit >= lo && st.ret[i].bit < hi {
			st.ret[i].flipped = false
		}
	}
	return nil
}

// applyRetention materializes retention failures for a row that has gone
// unrefreshed too long.
func (b *Bank) applyRetention(st *rowState, now time.Duration) {
	idle := now - st.lastRefresh
	for i := range st.ret {
		rc := &st.ret[i]
		if rc.flipped || idle <= rc.ret {
			continue
		}
		if storedBit(st.data, rc.bit) == rc.dir.From() {
			setBit(st.data, rc.bit, rc.dir.To())
			rc.flipped = true
		}
	}
}

// WriteRow initializes a whole row directly (infrastructure convenience,
// equivalent to ACT + full-row WR + PRE without disturbance side effects).
// It fully resets the row's disturbance and retention state.
func (b *Bank) WriteRow(row int, data []byte, now time.Duration) error {
	p, err := b.phys(row)
	if err != nil {
		return err
	}
	st := b.row(p)
	if len(data) != len(st.data) {
		return fmt.Errorf("device: WriteRow needs %d bytes, got %d", len(st.data), len(data))
	}
	copy(st.data, data)
	copy(st.golden, data)
	st.lastRefresh = now
	st.sideSeen = [2]bool{}
	st.hasLast = [2]bool{}
	for i := range st.weak {
		st.weak[i].acc = 0
		st.weak[i].flipped = false
	}
	for i := range st.ret {
		st.ret[i].flipped = false
	}
	return nil
}

// RowData returns a copy of a row's current contents, applying pending
// retention failures.
func (b *Bank) RowData(row int, now time.Duration) ([]byte, error) {
	p, err := b.phys(row)
	if err != nil {
		return nil, err
	}
	st := b.row(p)
	b.applyRetention(st, now)
	out := make([]byte, len(st.data))
	copy(out, st.data)
	return out, nil
}

// CompareRow diffs a row's contents against the last written (golden)
// data and returns the observed bitflips.
func (b *Bank) CompareRow(row int, now time.Duration) ([]Bitflip, error) {
	p, err := b.phys(row)
	if err != nil {
		return nil, err
	}
	st := b.row(p)
	b.applyRetention(st, now)
	var flips []Bitflip
	for i, cur := range st.data {
		diff := cur ^ st.golden[i]
		if diff == 0 {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			if diff&(1<<uint(bit)) == 0 {
				continue
			}
			abs := i*8 + bit
			dir := ZeroToOne
			if st.golden[i]&(1<<uint(bit)) != 0 {
				dir = OneToZero
			}
			flips = append(flips, Bitflip{
				Row:  row,
				Bit:  abs,
				Dir:  dir,
				Mech: b.mechAt(st, abs),
			})
		}
	}
	return flips, nil
}

// mechAt looks up which mechanism owns a flipped bit (diagnostic).
func (b *Bank) mechAt(st *rowState, bit int) Mechanism {
	for i := range st.weak {
		if st.weak[i].Bit == bit {
			return st.weak[i].Mech
		}
	}
	for i := range st.ret {
		if st.ret[i].bit == bit {
			return MechRetention
		}
	}
	return 0
}

// RefreshRow refreshes one row: charge is restored (accumulators reset)
// but already-flipped values persist — refresh re-drives whatever the
// cell currently holds.
func (b *Bank) RefreshRow(row int, now time.Duration) error {
	if b.isOpen {
		return fmt.Errorf("device: refresh with row %d open: %w", b.openRow, ErrBankOpen)
	}
	p, err := b.phys(row)
	if err != nil {
		return err
	}
	st, ok := b.rows[p]
	if !ok {
		// Never touched: nothing to restore.
		return nil
	}
	st.lastRefresh = now
	st.sideSeen = [2]bool{}
	st.hasLast = [2]bool{}
	for i := range st.weak {
		if !st.weak[i].flipped {
			st.weak[i].acc = 0
		}
	}
	return nil
}

// Refresh executes one REF command: it refreshes the next round-robin
// batch of rows (JEDEC all-bank refresh covers the whole array across
// 8192 REF commands per tREFW).
func (b *Bank) Refresh(now time.Duration) error {
	if b.isOpen {
		return fmt.Errorf("device: REF with row %d open: %w", b.openRow, ErrBankOpen)
	}
	batch := b.numRows / 8192
	if batch < 1 {
		batch = 1
	}
	for i := 0; i < batch; i++ {
		row := (b.refCursor + i) % b.numRows
		if err := b.RefreshRow(row, now); err != nil {
			return err
		}
	}
	b.refCursor = (b.refCursor + batch) % b.numRows
	b.refCount++
	return nil
}

// VictimCells returns the live weak-cell population of a row (the
// bank's own value-typed storage; callers must not mutate). Exposed for
// the analytic experiment engine and white-box tests.
func (b *Bank) VictimCells(row int) []WeakCell {
	p, err := b.phys(row)
	if err != nil {
		return nil
	}
	return b.row(p).weak
}

// SideSeek is one aggressor side's disturbance bookkeeping at a
// fast-forward point: whether the side has activated since the row's
// last reset, and when its most recent activation started.
type SideSeek struct {
	Seen         bool
	HasLast      bool
	LastActStart time.Duration
}

// SeekRowDisturb jumps one row's disturbance microstate to a
// fast-forward point: per-cell damage accumulators (parallel to
// VictimCells order; already-flipped cells keep their state), the
// per-side synergy/interleave bookkeeping, and the bank's ACT/PRE
// counters, which advance by skippedActs each so diagnostics count the
// skipped schedule as executed. Callers are responsible for passing the
// exact accumulator values the skipped activations would have produced
// — see internal/core's fast-forward engine, which derives them from a
// DamageProfile and replays a guard window act by act afterwards.
func (b *Bank) SeekRowDisturb(row int, accs []float64, strong, weak SideSeek, skippedActs int64) error {
	if b.isOpen {
		return fmt.Errorf("device: seek with row %d open: %w", b.openRow, ErrBankOpen)
	}
	p, err := b.phys(row)
	if err != nil {
		return err
	}
	st := b.row(p)
	if len(accs) != len(st.weak) {
		return fmt.Errorf("device: seek needs %d accumulators, got %d", len(st.weak), len(accs))
	}
	for i := range st.weak {
		if !st.weak[i].flipped {
			st.weak[i].acc = accs[i]
		}
	}
	si, wi := sideIdx(SideStrong), sideIdx(SideWeak)
	st.sideSeen[si], st.hasLast[si], st.lastActStart[si] = strong.Seen, strong.HasLast, strong.LastActStart
	st.sideSeen[wi], st.hasLast[wi], st.lastActStart[wi] = weak.Seen, weak.HasLast, weak.LastActStart
	b.actCount += skippedActs
	b.preCount += skippedActs
	return nil
}

// RowPristine reports whether a row carries no disturbance state: no
// aggressor-side bookkeeping and every unflipped cell's accumulator at
// zero, as a refresh, write or activation leaves it. An untouched row
// is pristine; an out-of-range one is not.
func (b *Bank) RowPristine(row int) bool {
	p, err := b.phys(row)
	if err != nil {
		return false
	}
	st, ok := b.rows[p]
	if !ok {
		return true
	}
	if st.sideSeen != [2]bool{} || st.hasLast != [2]bool{} {
		return false
	}
	for i := range st.weak {
		if !st.weak[i].flipped && st.weak[i].acc != 0 {
			return false
		}
	}
	return true
}

// SkipActs advances the ACT and PRE counters by n activations the
// caller accounts for without executing them, so diagnostics count a
// skipped schedule as executed. It touches no row state.
func (b *Bank) SkipActs(n int64) error {
	if b.isOpen {
		return fmt.Errorf("device: skip with row %d open: %w", b.openRow, ErrBankOpen)
	}
	b.actCount += n
	b.preCount += n
	return nil
}
