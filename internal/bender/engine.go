package bender

import (
	"errors"
	"fmt"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/dramcmd"
	"rowfuse/internal/timing"
)

// Engine executes bender programs against a simulated DRAM chip with a
// cycle-accurate clock. Command-to-command spacing comes entirely from
// the program's WAIT instructions, mirroring the full timing control the
// FPGA platform exposes (including the ability to violate JEDEC timings
// on purpose).
type Engine struct {
	chip    *device.Chip
	timings timing.Set
	// burst is the RD/WR burst size in bytes.
	burst int
	// maxSteps bounds execution (0 = default).
	maxSteps int64

	// Execution state.
	now      time.Duration
	regs     [NumRegs]int64
	captured []byte
	steps    int64
	cmdCount map[Opcode]int64

	// record enables command-trace capture.
	record bool
	trace  dramcmd.Trace

	// watch is the armed flip-watch (see WatchFlips).
	watch flipWatch
	// wrBuf memoizes WR fill-byte burst buffers; OpWr would otherwise
	// allocate one per executed write.
	wrBuf map[byte][]byte
}

// flipWatch holds the halt-on-flip state: the victim row being
// watched, the bits that were already flipped when the watch was
// armed, and the bank's flip-generation watermark for the cheap
// no-new-flip fast path.
type flipWatch struct {
	bank   *device.Bank
	victim int
	armed  bool
	gen    int64
	before device.Bitset
	halted bool
	at     time.Duration
}

// EngineConfig configures a bender engine.
type EngineConfig struct {
	Chip    *device.Chip
	Timings timing.Set
	// Burst is the RD/WR burst size in bytes (default 8, a DDR4 BL8
	// burst of one x8 device).
	Burst int
	// MaxSteps bounds the executed instruction count (default 500M).
	MaxSteps int64
	// RecordTrace captures every DRAM command as a timestamped
	// dramcmd.Trace (for validation, replay and debugging).
	RecordTrace bool
}

// Errors returned by the engine.
var (
	ErrStepLimit = errors.New("bender: instruction step limit exceeded")
	ErrNilChip   = errors.New("bender: engine needs a chip")
)

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Chip == nil {
		return nil, ErrNilChip
	}
	if cfg.Timings == (timing.Set{}) {
		cfg.Timings = timing.Default()
	}
	if err := cfg.Timings.Validate(); err != nil {
		return nil, err
	}
	if cfg.Burst == 0 {
		cfg.Burst = 8
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	return &Engine{
		chip:     cfg.Chip,
		timings:  cfg.Timings,
		burst:    cfg.Burst,
		maxSteps: cfg.MaxSteps,
		cmdCount: make(map[Opcode]int64),
		record:   cfg.RecordTrace,
	}, nil
}

// Trace returns the recorded command trace (empty unless RecordTrace was
// set).
func (e *Engine) Trace() *dramcmd.Trace {
	out := &dramcmd.Trace{Commands: make([]dramcmd.Command, len(e.trace.Commands))}
	copy(out.Commands, e.trace.Commands)
	return out
}

// recordCmd appends a command to the trace when recording is enabled.
func (e *Engine) recordCmd(c dramcmd.Command) {
	if e.record {
		c.At = e.now
		e.trace.Append(c)
	}
}

// Now returns the engine clock.
func (e *Engine) Now() time.Duration { return e.now }

// Captured returns the bytes read by RD instructions so far (shared
// buffer, valid until Reset).
func (e *Engine) Captured() []byte { return e.captured }

// CommandCount returns how many instructions of an opcode have executed.
func (e *Engine) CommandCount(op Opcode) int64 { return e.cmdCount[op] }

// Reset clears clock, registers, capture buffer and flip-watch (device
// state is untouched: the chip keeps its accumulated disturbance, as
// real hardware would).
func (e *Engine) Reset() {
	e.now = 0
	e.regs = [NumRegs]int64{}
	e.captured = nil
	e.steps = 0
	e.cmdCount = make(map[Opcode]int64)
	e.watch.armed = false
	e.watch.halted = false
}

// SetReg writes a register directly, as the trace fast-forward does to
// seed a loop counter with the not-yet-executed iteration count.
func (e *Engine) SetReg(i int, v int64) error {
	if i < 0 || i >= NumRegs {
		return fmt.Errorf("bender: register r%d out of range", i)
	}
	e.regs[i] = v
	return nil
}

// AdvanceClock jumps the engine clock forward by d without issuing any
// command — the trace fast-forward uses it to account for the skipped
// loop iterations after seeking the bank past them.
func (e *Engine) AdvanceClock(d time.Duration) {
	if d > 0 {
		e.now += d
	}
}

// WatchFlips arms a halt-on-flip watch on a victim row: execution stops
// right after the PRE or REF whose disturbance flips a bit of the row
// that was not already flipped when the watch was armed. FlipHalt
// reports whether (and when) the halt fired.
func (e *Engine) WatchFlips(bankIdx, victim int) error {
	b, err := e.chip.Bank(bankIdx)
	if err != nil {
		return err
	}
	w := &e.watch
	w.bank = b
	w.victim = victim
	w.armed = true
	w.halted = false
	w.at = 0
	w.gen = b.FlipGeneration()
	cells := b.VictimCells(victim)
	w.before.Reset(b.RowBytes() * 8)
	for i := range cells {
		if cells[i].Flipped() {
			w.before.Set(cells[i].Bit)
		}
	}
	return nil
}

// FlipHalt reports whether the last run halted on a watched flip, and
// the clock time of the PRE/REF that exposed it.
func (e *Engine) FlipHalt() (time.Duration, bool) {
	return e.watch.at, e.watch.halted
}

// watchTripped scans for a new flip on the watched victim row. The
// flip-generation watermark keeps the no-flip common case to one
// integer compare.
func (e *Engine) watchTripped() bool {
	w := &e.watch
	if !w.armed || w.bank.FlipGeneration() == w.gen {
		return false
	}
	w.gen = w.bank.FlipGeneration()
	cells := w.bank.VictimCells(w.victim)
	for i := range cells {
		if cells[i].Flipped() && !w.before.Has(cells[i].Bit) {
			return true
		}
	}
	return false
}

// fillBuf returns a memoized burst buffer of the fill byte.
func (e *Engine) fillBuf(fill byte) []byte {
	if buf, ok := e.wrBuf[fill]; ok && len(buf) == e.burst {
		return buf
	}
	if e.wrBuf == nil {
		e.wrBuf = make(map[byte][]byte)
	}
	buf := device.FillRow(e.burst, fill)
	e.wrBuf[fill] = buf
	return buf
}

// RuntimeError wraps an execution failure with program position.
type RuntimeError struct {
	PC    int
	Instr Instr
	Time  time.Duration
	Err   error
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("bender: pc=%d (%s) t=%v: %v", e.PC, e.Instr, e.Time, e.Err)
}

// Unwrap exposes the cause.
func (e *RuntimeError) Unwrap() error { return e.Err }

// value resolves an operand against the register file.
func (e *Engine) value(o Operand) int64 {
	if o.Reg {
		return e.regs[o.Val]
	}
	return o.Val
}

// Run executes the program to END (or the end of the instruction list).
func (e *Engine) Run(p *Program) error {
	return e.RunFrom(p, 0)
}

// RunFrom executes the program from instruction startPC, keeping the
// engine's clock and registers as they are: the trace engine resumes a
// hammer loop this way after fast-forwarding past skipped iterations.
func (e *Engine) RunFrom(p *Program, startPC int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if startPC < 0 || startPC > len(p.Instrs) {
		return fmt.Errorf("bender: start pc %d out of range", startPC)
	}
	pc := startPC
	for pc < len(p.Instrs) {
		in := p.Instrs[pc]
		e.steps++
		if e.steps > e.maxSteps {
			return &RuntimeError{PC: pc, Instr: in, Time: e.now, Err: ErrStepLimit}
		}
		e.cmdCount[in.Op]++

		fail := func(err error) error {
			return &RuntimeError{PC: pc, Instr: in, Time: e.now, Err: err}
		}
		advance := func() { e.now += e.timings.TCK }

		switch in.Op {
		case OpAct:
			bank, err := e.bank(in.A)
			if err != nil {
				return fail(err)
			}
			row := int(e.value(in.B))
			if err := bank.Activate(row, e.now); err != nil {
				return fail(err)
			}
			e.recordCmd(dramcmd.Command{Kind: dramcmd.ACT, Bank: int(e.value(in.A)), Row: row})
			advance()
		case OpPre:
			bank, err := e.bank(in.A)
			if err != nil {
				return fail(err)
			}
			if err := bank.Precharge(e.now); err != nil {
				return fail(err)
			}
			e.recordCmd(dramcmd.Command{Kind: dramcmd.PRE, Bank: int(e.value(in.A))})
			// Disturbance damage lands at precharge; this is where a
			// watched flip becomes observable.
			if e.watchTripped() {
				e.watch.halted = true
				e.watch.at = e.now
				return nil
			}
			advance()
		case OpRd:
			bank, err := e.bank(in.A)
			if err != nil {
				return fail(err)
			}
			data, err := bank.Read(int(e.value(in.B)), e.burst, e.now)
			if err != nil {
				return fail(err)
			}
			e.captured = append(e.captured, data...)
			e.recordCmd(dramcmd.Command{Kind: dramcmd.RD, Bank: int(e.value(in.A)), Col: int(e.value(in.B))})
			advance()
		case OpWr:
			bank, err := e.bank(in.A)
			if err != nil {
				return fail(err)
			}
			fill := byte(e.value(in.C))
			buf := e.fillBuf(fill)
			if err := bank.Write(int(e.value(in.B)), buf, e.now); err != nil {
				return fail(err)
			}
			e.recordCmd(dramcmd.Command{Kind: dramcmd.WR, Bank: int(e.value(in.A)), Col: int(e.value(in.B)), Data: buf})
			advance()
		case OpRef:
			for i := 0; i < e.chip.NumBanks(); i++ {
				b, err := e.chip.Bank(i)
				if err != nil {
					return fail(err)
				}
				if err := b.Refresh(e.now); err != nil {
					return fail(err)
				}
			}
			e.recordCmd(dramcmd.Command{Kind: dramcmd.REF})
			if e.watchTripped() {
				e.watch.halted = true
				e.watch.at = e.now
				return nil
			}
			e.now += e.timings.TRFC
		case OpWait:
			d := e.value(in.A)
			if d < 0 {
				return fail(fmt.Errorf("negative wait %d", d))
			}
			e.now += time.Duration(d) * time.Nanosecond
		case OpSet:
			e.regs[in.A.Val] = e.value(in.B)
			advance()
		case OpAdd:
			e.regs[in.A.Val] += e.value(in.B)
			advance()
		case OpDjnz:
			e.regs[in.A.Val]--
			advance()
			if e.regs[in.A.Val] != 0 {
				pc = int(in.B.Val)
				continue
			}
		case OpJmp:
			advance()
			pc = int(in.A.Val)
			continue
		case OpNop:
			advance()
		case OpEnd:
			return nil
		}
		pc++
	}
	return nil
}

func (e *Engine) bank(o Operand) (*device.Bank, error) {
	return e.chip.Bank(int(e.value(o)))
}
