// The bender-trace scenario engine: characterization cells executed as
// DRAM Bender programs on the cycle-accurate interpreter instead of
// direct bank calls.
//
// Each cell's access pattern is compiled to the canonical Bender
// characterization program (bender.CompileCharacterization) and run on
// the instruction interpreter, which observes per-instruction TCK
// costs the direct bank path never sees. Naive replay executes the
// hammer loop activation by activation; the default fast path
// recognizes the loop (bender.FindHammerLoop), captures one
// iteration's device.DamageProfile, solves the event horizon with the
// same binade-stepping machinery as the bank engine's fast-forward
// (solveFlipHorizon / seekAccsAt), jumps the bank and the interpreter
// clock past the iterations that cannot flip anything, and resumes the
// interpreter with the loop register rewritten to the remaining count.
// Results are byte-identical between the two modes (pinned by
// TestTraceEngineFastMatchesExact); the fast path is where the >= 10x
// of BENCH_8.json comes from.
//
// Row initialization uses the bank's infrastructure write path
// (device.Bank.WriteRow — documented as ACT + full-row WR + PRE without
// disturbance side effects), as the real platform's memory controller
// initializes rows before handing the kernel to Bender; interpretation
// starts at the hammer kernel's SET. Interpreting the WriteRow prologue
// instead would warm the victim row's side bookkeeping and break the
// clean-state precondition of damage-profile capture.
package core

import (
	"fmt"
	"time"

	"rowfuse/internal/bender"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// traceEngine runs characterization cells through the bender
// interpreter. Like the bank engine it wraps per-run device state and
// reuses scratch buffers, so it is not safe for concurrent use.
type traceEngine struct {
	bank    *device.Bank
	bankIdx int
	eng     *bender.Engine
	timings timing.Set
	burst   int
	exact   bool

	numRows  int
	rowBytes int

	// Per-row scratch (see BankEngine).
	victimBuf []byte
	aggBuf    []byte
	prof      device.DamageProfile
	profActs  []device.ProfileAct
	accs      []float64
	bsolve    bankSolve
}

var _ Engine = (*traceEngine)(nil)

// newTraceEngineFor builds the bender-trace engine of a scenario cell:
// a fresh chip for the (die, run) environment and an interpreter over
// it. The chip derives its own die serial from the environment profile,
// so the trace engine's weak-cell population is its own deterministic
// realization (trace results are validated fast-vs-exact, not against
// the direct bank engine).
func newTraceEngineFor(env EngineEnv, sc Scenario) (Engine, error) {
	var ts TraceSpec
	if sc.Trace != nil {
		ts = *sc.Trace
	}
	burst := ts.Burst
	if burst == 0 {
		burst = 8
	}
	chip, err := device.NewChip(device.ChipConfig{
		Profile:  env.Profile,
		Params:   env.Params,
		NumRows:  env.NumRows,
		RowBytes: env.RowBytes,
		RunSeed:  env.Run,
	})
	if err != nil {
		return nil, err
	}
	bank, err := chip.Bank(env.Bank)
	if err != nil {
		return nil, err
	}
	eng, err := bender.NewEngine(bender.EngineConfig{Chip: chip, Timings: env.Timings, Burst: burst})
	if err != nil {
		return nil, err
	}
	return &traceEngine{
		bank:     bank,
		bankIdx:  env.Bank,
		eng:      eng,
		timings:  env.Timings,
		burst:    burst,
		exact:    ts.Exact,
		numRows:  env.NumRows,
		rowBytes: env.RowBytes,
	}, nil
}

// CharacterizeRow implements Engine: compile the cell's pattern to a
// characterization program, execute it on the interpreter (fast-
// forwarded over the flip horizon unless TraceSpec.Exact), and stop at
// the first observed bitflip or the end of the program.
func (e *traceEngine) CharacterizeRow(victim int, spec pattern.Spec, opts RunOpts) (RowResult, error) {
	opts = opts.withDefaults()
	if err := checkVictim(victim, e.numRows); err != nil {
		return RowResult{}, err
	}
	res := RowResult{Victim: victim, Spec: spec, NoBitflip: true}

	e.bank.SetTemperature(opts.TempC)
	e.victimBuf = device.FillRowInto(e.victimBuf, e.rowBytes, opts.Data.VictimByte())
	e.aggBuf = device.FillRowInto(e.aggBuf, e.rowBytes, opts.Data.AggressorByte())
	if err := e.bank.WriteRow(victim, e.victimBuf, 0); err != nil {
		return RowResult{}, fmt.Errorf("init victim: %w", err)
	}
	for _, off := range aggressorOffsets {
		if err := e.bank.WriteRow(victim+off, e.aggBuf, 0); err != nil {
			return RowResult{}, fmt.Errorf("init aggressor: %w", err)
		}
	}

	// The iteration budget under the interpreter's clock model, which
	// charges a TCK per instruction on top of the pattern's waits:
	// probe a single iteration and divide.
	probe, err := bender.CompilePattern(spec, e.bankIdx, victim, 1, e.burst)
	if err != nil {
		return RowResult{}, err
	}
	ploop, ok := bender.FindHammerLoop(probe, e.timings)
	if !ok {
		return RowResult{}, fmt.Errorf("core: pattern %v did not compile to a recognizable hammer loop", spec.Kind)
	}
	maxIters := int64(1)
	if ploop.IterTime > 0 && opts.Budget > 0 {
		if n := int64(opts.Budget / ploop.IterTime); n > 0 {
			maxIters = n
		}
	}

	prog, err := bender.CompileCharacterization(spec, e.bankIdx, victim, e.rowBytes,
		opts.Data.AggressorByte(), opts.Data.VictimByte(), maxIters, e.burst)
	if err != nil {
		return RowResult{}, err
	}
	loop, ok := bender.FindHammerLoop(prog, e.timings)
	if !ok {
		return RowResult{}, fmt.Errorf("core: pattern %v characterization has no recognizable hammer loop", spec.Kind)
	}

	e.eng.Reset()
	if err := e.eng.WatchFlips(e.bankIdx, victim); err != nil {
		return RowResult{}, err
	}

	nActs := int64(len(loop.Acts))
	var skipped int64
	resumePC := loop.SetPC
	if !e.exact {
		skipped = e.planJump(victim, loop, maxIters)
	}
	if skipped > 0 {
		// Account for the SET the interpreter will not execute and the
		// skipped iterations, then resume inside the loop with the
		// counter rewritten to the remaining iterations (or straight at
		// the readback epilogue when the whole loop was solved away).
		e.eng.AdvanceClock(e.timings.TCK + time.Duration(skipped)*loop.IterTime)
		if remaining := maxIters - skipped; remaining > 0 {
			if err := e.eng.SetReg(loop.Reg, remaining); err != nil {
				return RowResult{}, err
			}
			resumePC = loop.Body
		} else {
			resumePC = loop.Djnz + 1
		}
	}
	actsBase := e.eng.CommandCount(bender.OpAct)
	if err := e.eng.RunFrom(prog, resumePC); err != nil {
		return RowResult{}, err
	}

	if at, halted := e.eng.FlipHalt(); halted {
		// The watch can only trip inside the hammer loop (the epilogue
		// activates the victim itself, which disturbs neighbours, not
		// the watched row), so every ACT since resume is a loop ACT.
		actsWindow := e.eng.CommandCount(bender.OpAct) - actsBase
		flips, err := e.bank.CompareRow(victim, at)
		if err != nil {
			return RowResult{}, err
		}
		res.NoBitflip = false
		res.Iterations = skipped + (actsWindow-1)/nActs + 1
		res.ACmin = skipped*nActs + actsWindow
		res.TimeToFirst = at
		res.Flips = flips
		return res, nil
	}

	// The program ran to completion, readback epilogue included: the
	// end-of-experiment comparison, as in the bank engine.
	flips, err := e.bank.CompareRow(victim, e.eng.Now())
	if err != nil {
		return RowResult{}, err
	}
	if len(flips) > 0 {
		res.NoBitflip = false
		res.Iterations = maxIters
		res.ACmin = maxIters * nActs
		res.TimeToFirst = e.eng.Now()
		res.Flips = flips
	}
	return res, nil
}

// planJump captures the loop's damage profile, solves the flip
// horizon, and — when the horizon is far enough to be worth it — seeks
// the bank to guardIters iterations before it, returning how many
// iterations were skipped. 0 means the interpreter must run the loop
// from the start (unprofilable row, unsolvable profile, horizon too
// close, or seek refused); the bank is untouched in that case.
func (e *traceEngine) planJump(victim int, loop *bender.HammerLoop, maxIters int64) int64 {
	e.profActs = e.profActs[:0]
	for _, a := range loop.Acts {
		e.profActs = append(e.profActs, device.ProfileAct{
			RowOffset: a.Row - victim,
			OnTime:    a.PreAt - a.ActAt,
			Start:     a.ActAt,
		})
	}
	if err := e.bank.FillDamageProfile(&e.prof, victim, e.profActs, loop.IterTime); err != nil {
		return 0
	}
	horizon, ok := solveFlipHorizon(&e.prof, &e.bsolve, maxIters)
	if !ok {
		return 0
	}
	startIter := horizon - guardIters
	if horizon > maxIters {
		startIter = maxIters + 1
	}
	if startIter < 2 {
		return 0
	}
	skipped := startIter - 1
	e.accs = seekAccsAt(&e.prof, &e.bsolve, skipped, e.accs)
	strong, weak := e.prof.SideSeekAt(skipped, loop.IterTime)
	// The interpreter's loop runs one TCK late relative to the profile
	// frame (the SET executes before iteration 1 starts); shift the
	// seeked side timestamps into the interpreter frame so interleave
	// ordering against guard-window activations stays consistent.
	if strong.HasLast {
		strong.LastActStart += e.timings.TCK
	}
	if weak.HasLast {
		weak.LastActStart += e.timings.TCK
	}
	if err := e.bank.SeekRowDisturb(victim, e.accs, strong, weak, skipped*int64(len(loop.Acts))); err != nil {
		return 0
	}
	return skipped
}
