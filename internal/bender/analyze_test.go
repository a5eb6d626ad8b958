package bender

import (
	"testing"

	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// TestFindHammerLoopPattern checks the analyzer against CompilePattern
// output: structure, per-act offsets, and that IterTime matches what
// the interpreter actually observes.
func TestFindHammerLoopPattern(t *testing.T) {
	ts := timing.Default()
	spec, err := pattern.New(pattern.DoubleSided, timing.Table2Marks()[0], ts)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	p, err := CompilePattern(spec, 0, 100, iters, 8)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := FindHammerLoop(p, ts)
	if !ok {
		t.Fatal("no hammer loop recognized in CompilePattern output")
	}
	acts := spec.Acts()
	if len(loop.Acts) != len(acts) {
		t.Fatalf("loop has %d acts, spec has %d", len(loop.Acts), len(acts))
	}
	if loop.Count != iters {
		t.Fatalf("loop count = %d, want %d", loop.Count, iters)
	}
	if loop.Bank != 0 || loop.Reg != 15 {
		t.Fatalf("bank/reg = %d/%d, want 0/15", loop.Bank, loop.Reg)
	}
	for i, a := range loop.Acts {
		if a.Row != 100+acts[i].RowOffset {
			t.Fatalf("act %d row = %d, want %d", i, a.Row, 100+acts[i].RowOffset)
		}
		if got, want := a.PreAt-a.ActAt, ts.TCK+acts[i].OnTime; got != want {
			t.Fatalf("act %d on-time = %v, want %v", i, got, want)
		}
	}

	// The descriptor's IterTime must equal the interpreter's measured
	// clock advance per iteration.
	eng, err := NewEngine(EngineConfig{Chip: testChip(t), Timings: ts})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(p); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Now(), ts.TCK+iters*loop.IterTime; got != want {
		t.Fatalf("interpreter clock after %d iterations = %v, want SET + %d*IterTime = %v", iters, got, iters, want)
	}
}

// TestFindHammerLoopCharacterization checks the analyzer skips the
// WriteRow prologue of a full characterization program and still finds
// the loop.
func TestFindHammerLoopCharacterization(t *testing.T) {
	ts := timing.Default()
	spec, err := pattern.New(pattern.Combined, timing.Table2Marks()[0], ts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileCharacterization(spec, 0, 100, 64, 0xAA, 0x55, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := FindHammerLoop(p, ts)
	if !ok {
		t.Fatal("no hammer loop recognized in CompileCharacterization output")
	}
	if loop.Count != 7 {
		t.Fatalf("loop count = %d, want 7", loop.Count)
	}
	if p.Instrs[loop.SetPC].Op != OpSet || p.Instrs[loop.Djnz].Op != OpDjnz {
		t.Fatalf("descriptor pcs do not point at SET/DJNZ")
	}
	if loop.Body != loop.SetPC+1 {
		t.Fatalf("body pc = %d, want %d", loop.Body, loop.SetPC+1)
	}
	if len(loop.Acts) != len(spec.Acts()) {
		t.Fatalf("loop has %d acts, spec has %d", len(loop.Acts), len(spec.Acts()))
	}
}

// TestFindHammerLoopRejects covers programs the analyzer must refuse:
// register-operand bodies, multi-bank loops, unbalanced ACT/PRE.
func TestFindHammerLoopRejects(t *testing.T) {
	ts := timing.Default()
	cases := map[string]*Program{
		"register row": {Instrs: []Instr{
			{Op: OpSet, A: Reg(15), B: Imm(4)},
			{Op: OpAct, A: Imm(0), B: Reg(3)},
			{Op: OpWait, A: Imm(100)},
			{Op: OpPre, A: Imm(0)},
			{Op: OpDjnz, A: Reg(15), B: Imm(1)},
			{Op: OpEnd},
		}},
		"two banks": {Instrs: []Instr{
			{Op: OpSet, A: Reg(15), B: Imm(4)},
			{Op: OpAct, A: Imm(0), B: Imm(10)},
			{Op: OpWait, A: Imm(100)},
			{Op: OpPre, A: Imm(0)},
			{Op: OpAct, A: Imm(1), B: Imm(10)},
			{Op: OpWait, A: Imm(100)},
			{Op: OpPre, A: Imm(1)},
			{Op: OpDjnz, A: Reg(15), B: Imm(1)},
			{Op: OpEnd},
		}},
		"missing pre": {Instrs: []Instr{
			{Op: OpSet, A: Reg(15), B: Imm(4)},
			{Op: OpAct, A: Imm(0), B: Imm(10)},
			{Op: OpWait, A: Imm(100)},
			{Op: OpDjnz, A: Reg(15), B: Imm(1)},
			{Op: OpEnd},
		}},
		"empty body": {Instrs: []Instr{
			{Op: OpSet, A: Reg(15), B: Imm(4)},
			{Op: OpDjnz, A: Reg(15), B: Imm(1)},
			{Op: OpEnd},
		}},
	}
	for name, p := range cases {
		if _, ok := FindHammerLoop(p, ts); ok {
			t.Errorf("%s: analyzer accepted a non-canonical loop", name)
		}
	}
}

// TestFlipWatchAndSegments covers the segmented-execution additions:
// running the prologue on its own and resuming with RunFrom does not
// change the clock, and a WatchFlips halt fires on a new victim flip.
func TestFlipWatchAndSegments(t *testing.T) {
	ts := timing.Default()
	spec, err := pattern.New(pattern.DoubleSided, timing.Table2Marks()[0], ts)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	p, err := CompilePattern(spec, 0, 100, iters, 8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		eng, err := NewEngine(EngineConfig{Chip: testChip(t), Timings: ts})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	whole := mk()
	if err := whole.Run(p); err != nil {
		t.Fatal(err)
	}

	split := mk()
	loop, ok := FindHammerLoop(p, ts)
	if !ok {
		t.Fatal("no loop")
	}
	if err := split.Run(&Program{Instrs: p.Instrs[:loop.Body]}); err != nil {
		t.Fatal(err)
	}
	afterSet := split.Now()
	if afterSet != ts.TCK {
		t.Fatalf("clock after SET = %v, want %v", afterSet, ts.TCK)
	}
	if err := split.RunFrom(p, loop.Body); err != nil {
		t.Fatal(err)
	}
	if split.Now() != whole.Now() {
		t.Fatalf("segmented clock %v != whole-run clock %v", split.Now(), whole.Now())
	}
	if split.CommandCount(OpAct) != whole.CommandCount(OpAct) {
		t.Fatalf("segmented acts %d != whole-run acts %d", split.CommandCount(OpAct), whole.CommandCount(OpAct))
	}

	// An armed watch with no flips must not halt.
	if _, halted := split.FlipHalt(); halted {
		t.Fatal("unarmed engine reports a flip halt")
	}
	watched := mk()
	if err := watched.WatchFlips(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := watched.Run(p); err != nil {
		t.Fatal(err)
	}
	if _, halted := watched.FlipHalt(); halted {
		// 50 iterations of the shortest mark cannot flip anything on a
		// fresh bank; a halt here means the watch misfires.
		t.Fatal("watch halted without a new flip")
	}
}
