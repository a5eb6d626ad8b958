package bender

import (
	"testing"
	"time"

	"rowfuse/internal/dramcmd"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// TestRecordedTraceIsJEDECLegal closes the loop between the bender
// interpreter and the command-layer validator: a compiled pattern
// program, executed with trace recording, must produce a trace that
// passes the JEDEC timing checks.
func TestRecordedTraceIsJEDECLegal(t *testing.T) {
	chip := testChip(t)
	e, err := NewEngine(EngineConfig{Chip: chip, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pattern.New(pattern.Combined, 636*time.Nanosecond, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	const iters = 25
	prog, err := CompilePattern(spec, 0, 700, iters, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(prog); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	wantCmds := iters * spec.ActsPerIteration() * 2
	if len(tr.Commands) != wantCmds {
		t.Fatalf("trace has %d commands, want %d", len(tr.Commands), wantCmds)
	}
	if err := tr.Validate(timing.Default()); err != nil {
		t.Errorf("recorded trace violates timing rules: %v", err)
	}
	// The trace's aggressor rows match the pattern.
	rows := map[int]int{}
	for _, c := range tr.Commands {
		if c.Kind == dramcmd.ACT {
			rows[c.Row]++
		}
	}
	if rows[699] != iters || rows[701] != iters {
		t.Errorf("ACT rows = %v, want 25 each on 699/701", rows)
	}
}

func TestTraceEmptyWithoutRecording(t *testing.T) {
	e := testEngine(t)
	p, err := Assemble("NOP\nEND")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(e.Trace().Commands) != 0 {
		t.Error("trace recorded without RecordTrace")
	}
}

func TestTraceReturnsCopy(t *testing.T) {
	chip := testChip(t)
	e, err := NewEngine(EngineConfig{Chip: chip, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble("ACT 0 5\nWAIT 36\nPRE 0\nEND")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	if len(tr.Commands) != 2 {
		t.Fatalf("trace length %d", len(tr.Commands))
	}
	tr.Commands[0].Row = 999
	if e.Trace().Commands[0].Row == 999 {
		t.Error("Trace exposed internal storage")
	}
}
