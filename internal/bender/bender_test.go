package bender

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

func testChip(t *testing.T) *device.Chip {
	t.Helper()
	profile := device.Profile{
		Serial:              "BENDER-TEST",
		HammerACmin:         20000,
		PressTau:            30 * time.Millisecond,
		HammerPressSens:     1.5,
		RowSigmaHammer:      0.15,
		RowSigmaPress:       0.2,
		RunSigma:            0.03,
		HammerOneToZeroFrac: 0.3,
		PressOneToZeroFrac:  0.95,
		WeakCellsPerMech:    16,
		CellSpacing:         0.05,
		RetentionMin:        70 * time.Millisecond,
	}
	c, err := device.NewChip(device.ChipConfig{
		Profile:  profile,
		Params:   device.DefaultParams(),
		NumRows:  4096,
		RowBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{Chip: testChip(t)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAssembleBasicProgram(t *testing.T) {
	src := `
; hammer loop
SET r0 10
loop:
ACT 0 100
WAIT 36
PRE 0
WAIT 15
DJNZ r0 loop
END
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 7 {
		t.Fatalf("got %d instructions, want 7", len(p.Instrs))
	}
	if p.Instrs[0].Op != OpSet || p.Instrs[6].Op != OpEnd {
		t.Error("instruction sequence wrong")
	}
	// The DJNZ target must resolve to the instruction after the label.
	if p.Instrs[5].B.Val != 1 {
		t.Errorf("loop target = %d, want 1", p.Instrs[5].B.Val)
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "FROB 1 2"},
		{"missing operand", "ACT 0"},
		{"bad register", "SET r99 5"},
		{"undefined label", "JMP nowhere"},
		{"duplicate label", "a:\na:\nEND"},
		{"immediate destination", "SET 5 5"},
		{"bad operand", "ACT 0 banana"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(tc.src); err == nil {
				t.Errorf("assembled %q without error", tc.src)
			}
		})
	}
	var ae *AssembleError
	_, err := Assemble("FROB")
	if !errors.As(err, &ae) {
		t.Fatalf("error type %T, want *AssembleError", err)
	}
	if ae.Line != 1 {
		t.Errorf("error line = %d, want 1", ae.Line)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
SET r1 5
top:
ACT 0 10
WAIT 100
PRE 0
WAIT 15
RD 0 8
WR 0 16 170
REF
ADD r1 -1
NOP
DJNZ r1 top
JMP done
done:
END
`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(p1.Disassemble())
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, p1.Disassemble())
	}
	if len(p1.Instrs) != len(p2.Instrs) {
		t.Fatalf("round trip changed length: %d vs %d", len(p1.Instrs), len(p2.Instrs))
	}
	for i := range p1.Instrs {
		if p1.Instrs[i] != p2.Instrs[i] {
			t.Errorf("instr %d differs: %v vs %v", i, p1.Instrs[i], p2.Instrs[i])
		}
	}
}

func TestProgramValidate(t *testing.T) {
	bad := []Program{
		{Instrs: []Instr{{Op: Opcode(99)}}},
		{Instrs: []Instr{{Op: OpSet, A: Imm(1), B: Imm(2)}}},                                            // non-register dest
		{Instrs: []Instr{{Op: OpDjnz, A: Reg(0), B: Imm(5)}}},                                           // target out of range
		{Instrs: []Instr{{Op: OpJmp, A: Imm(-1)}}},                                                      // negative target
		{Instrs: []Instr{{Op: OpAct, A: Reg(20), B: Imm(0)}}},                                           // register out of range
		{Instrs: []Instr{{Op: OpWait, A: Imm(-5)}}},                                                     // negative wait
		{Instrs: []Instr{{Op: OpDjnz, A: Imm(1), B: Imm(0)}, {OpEnd, Operand{}, Operand{}, Operand{}}}}, // DJNZ immediate
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("program %d validated", i)
		}
	}
}

func TestEngineLoopAndClock(t *testing.T) {
	e := testEngine(t)
	const iters = 50
	src := `
SET r0 50
loop:
ACT 0 200
WAIT 36
PRE 0
WAIT 15
DJNZ r0 loop
END
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := e.CommandCount(OpAct); got != iters {
		t.Errorf("ACT count = %d, want %d", got, iters)
	}
	if got := e.CommandCount(OpPre); got != iters {
		t.Errorf("PRE count = %d, want %d", got, iters)
	}
	// The clock advanced at least iters * (36+15) ns.
	if e.Now() < iters*51*time.Nanosecond {
		t.Errorf("clock = %v, want >= %v", e.Now(), iters*51*time.Nanosecond)
	}
}

func TestEngineWriteReadCapture(t *testing.T) {
	e := testEngine(t)
	src := `
ACT 0 300
WAIT 15
WR 0 0 90
WAIT 15
RD 0 0
WAIT 15
PRE 0
END
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	cap := e.Captured()
	if len(cap) != 8 {
		t.Fatalf("captured %d bytes, want one 8-byte burst", len(cap))
	}
	for i, b := range cap {
		if b != 90 {
			t.Errorf("byte %d = %d, want 90", i, b)
		}
	}
	e.Reset()
	if e.Now() != 0 || len(e.Captured()) != 0 {
		t.Error("reset did not clear engine state")
	}
}

func TestEngineStateErrors(t *testing.T) {
	e := testEngine(t)
	p, err := Assemble("PRE 0\nEND")
	if err != nil {
		t.Fatal(err)
	}
	runErr := e.Run(p)
	var re *RuntimeError
	if !errors.As(runErr, &re) {
		t.Fatalf("error %T, want RuntimeError", runErr)
	}
	if re.PC != 0 {
		t.Errorf("error PC = %d, want 0", re.PC)
	}
}

func TestEngineStepLimit(t *testing.T) {
	e, err := NewEngine(EngineConfig{Chip: testChip(t), MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble("loop:\nNOP\nJMP loop\nEND")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); !errors.Is(err, ErrStepLimit) {
		t.Errorf("infinite loop error = %v, want ErrStepLimit", err)
	}
}

func TestEngineRefAdvancesTRFC(t *testing.T) {
	e := testEngine(t)
	p, err := Assemble("REF\nEND")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if e.Now() < timing.TRFC {
		t.Errorf("REF advanced clock by %v, want >= tRFC %v", e.Now(), timing.TRFC)
	}
}

func TestCompilePattern(t *testing.T) {
	spec, err := pattern.New(pattern.Combined, 636*time.Nanosecond, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompilePattern(spec, 0, 500, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t)
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := e.CommandCount(OpAct); got != 20 {
		t.Errorf("ACT count = %d, want 20 (10 iterations x 2 aggressors)", got)
	}
	if _, err := CompilePattern(spec, 0, 500, 0, 8); err == nil {
		t.Error("zero iterations accepted")
	}
}

// TestCharacterizationMatchesBankEngine runs the full compiled
// characterization program and checks that the victim readback shows a
// bitflip at approximately the analytic first-flip count (the
// interpreter spends one extra clock cycle per instruction, so an exact
// match is not expected; 2% agreement is).
func TestCharacterizationMatchesBankEngine(t *testing.T) {
	chip := testChip(t)
	bank, err := chip.Bank(0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pattern.New(pattern.DoubleSided, timing.TRAS, timing.Default())
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth via direct bank driving on an identical chip.
	refChip := testChip(t)
	refBank, _ := refChip.Bank(0)
	refCells := refBank.VictimCells(600)
	_ = refCells

	// Find the flip point by binary search over compiled programs.
	flipAt := func(iters int64) bool {
		c := testChip(t)
		e, err := NewEngine(EngineConfig{Chip: c})
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompileCharacterization(spec, 0, 600, 256, 0xAA, 0x55, iters, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(p); err != nil {
			t.Fatal(err)
		}
		captured := e.Captured()
		victim := captured[len(captured)-256:]
		for _, b := range victim {
			if b != 0x55 {
				return true
			}
		}
		return false
	}

	// The bank under test gives us the reference ACmin via hammering.
	now := time.Duration(0)
	rowBytes := bank.RowBytes()
	for _, init := range []struct {
		row  int
		fill byte
	}{{599, 0xAA}, {601, 0xAA}, {600, 0x55}} {
		if err := bank.WriteRow(init.row, device.FillRow(rowBytes, init.fill), now); err != nil {
			t.Fatal(err)
		}
	}
	refIters := int64(0)
	for iter := 0; iter < 60000; iter++ {
		for _, agg := range []int{599, 601} {
			if err := bank.Activate(agg, now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRAS
			if err := bank.Precharge(now); err != nil {
				t.Fatal(err)
			}
			now += timing.TRP
		}
		flips, err := bank.CompareRow(600, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(flips) > 0 {
			refIters = int64(iter + 1)
			break
		}
	}
	if refIters == 0 {
		t.Fatal("reference bank never flipped")
	}

	tol := refIters / 50 // 2%
	if tol < 2 {
		tol = 2
	}
	if !flipAt(refIters + tol) {
		t.Errorf("compiled program did not flip at %d iterations (+2%%)", refIters+tol)
	}
	if flipAt(refIters - tol - refIters/10) {
		t.Errorf("compiled program flipped well before the reference %d iterations", refIters)
	}
}

func TestBuilderWriteReadRow(t *testing.T) {
	chip := testChip(t)
	e, err := NewEngine(EngineConfig{Chip: chip})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(timing.Default(), 8)
	b.WriteRow(0, 77, 256, 0x3C)
	b.ReadRow(0, 77, 256)
	p := b.End()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	cap := e.Captured()
	if len(cap) != 256 {
		t.Fatalf("captured %d bytes, want 256", len(cap))
	}
	for i, v := range cap {
		if v != 0x3C {
			t.Fatalf("byte %d = %#x, want 0x3C", i, v)
		}
	}
}

func TestOperandAndInstrStrings(t *testing.T) {
	if Imm(5).String() != "5" || Reg(3).String() != "r3" {
		t.Error("operand rendering wrong")
	}
	for _, in := range []Instr{
		{Op: OpAct, A: Imm(0), B: Imm(1)},
		{Op: OpPre, A: Imm(0)},
		{Op: OpRd, A: Imm(0), B: Imm(8)},
		{Op: OpWr, A: Imm(0), B: Imm(8), C: Imm(0xAA)},
		{Op: OpRef},
		{Op: OpWait, A: Imm(36)},
		{Op: OpSet, A: Reg(0), B: Imm(9)},
		{Op: OpAdd, A: Reg(0), B: Imm(-1)},
		{Op: OpDjnz, A: Reg(0), B: Imm(2)},
		{Op: OpJmp, A: Imm(0)},
		{Op: OpNop},
		{Op: OpEnd},
	} {
		if in.String() == "" {
			t.Errorf("empty rendering for %v", in.Op)
		}
	}
	if !strings.Contains(Opcode(55).String(), "55") {
		t.Error("unknown opcode rendering")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); !errors.Is(err, ErrNilChip) {
		t.Errorf("nil chip error = %v", err)
	}
}

// TestAssembleNeverPanics fuzzes the assembler with arbitrary input: it
// must return an error or a valid program, never panic.
func TestAssembleNeverPanics(t *testing.T) {
	f := func(src string) bool {
		p, err := Assemble(src)
		if err != nil {
			return true
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAssembleSemiStructuredInputs drives the assembler with mutated
// fragments of valid programs.
func TestAssembleSemiStructuredInputs(t *testing.T) {
	fragments := []string{
		"ACT", "ACT 0", "ACT 0 1", "PRE", "PRE 0", "WAIT", "WAIT -1", "WAIT 10",
		"SET r0", "SET r0 1", "DJNZ", "DJNZ r0", "DJNZ r0 x", "x:", ":", "r0:",
		"JMP", "JMP x", "END", "NOP", "REF", "WR 0 0 255", "RD 0 0", ";c",
	}
	for i := range fragments {
		for j := range fragments {
			src := fragments[i] + "\n" + fragments[j]
			p, err := Assemble(src)
			if err == nil {
				if verr := p.Validate(); verr != nil {
					t.Errorf("assembled %q into invalid program: %v", src, verr)
				}
			}
		}
	}
}
