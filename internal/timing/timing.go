// Package timing models JEDEC DDR4 timing parameters.
//
// All experiments in the characterization are defined in terms of DRAM
// command timings: how long an aggressor row stays open (tAggON), the
// minimum row-open time (tRAS), the precharge time (tRP), and the refresh
// cadence (tREFI / tREFW). This package is the single source of truth for
// those constants and for validating command schedules against them.
package timing

import (
	"fmt"
	"time"
)

// Canonical JEDEC DDR4 timing values used throughout the paper
// (JESD79-4C; the paper's infrastructure runs DDR4-2400-grade parts).
const (
	// TRAS is the minimum time a row must remain open after ACT.
	// The paper uses 36 ns as the minimal tAggON (= tRAS).
	TRAS = 36 * time.Nanosecond

	// TRP is the minimum time between PRE and the next ACT to the bank.
	TRP = 15 * time.Nanosecond

	// TRCD is the ACT-to-RD/WR delay.
	TRCD = 15 * time.Nanosecond

	// TRC is the minimum ACT-to-ACT delay to the same bank (tRAS + tRP).
	TRC = TRAS + TRP

	// TREFI is the average periodic refresh interval.
	TREFI = 7800 * time.Nanosecond

	// TREFW is the refresh window: every row must be refreshed once per
	// tREFW under normal operating conditions.
	TREFW = 64 * time.Millisecond

	// TRFC is the refresh cycle time for an 8Gb-class die.
	TRFC = 350 * time.Nanosecond

	// TWR is the write recovery time.
	TWR = 15 * time.Nanosecond

	// TCCD is the minimum column-to-column command spacing.
	TCCD = 5 * time.Nanosecond
)

// Paper-highlighted tAggON marks (dashed red lines on the x-axes of
// Figs. 4-6).
const (
	// AggOnMin is the minimum aggressor-on time (tAggON = tRAS): at this
	// value every pattern degenerates to conventional RowHammer.
	AggOnMin = TRAS

	// AggOnTREFI is the first JEDEC-implied upper bound for tAggON
	// (a row cannot stay open past a pending refresh: 7.8 us).
	AggOnTREFI = TREFI

	// AggOnNineTREFI is the second JEDEC bound (9 x tREFI = 70.2 us,
	// the limit when postponing up to 8 refresh commands).
	AggOnNineTREFI = 9 * TREFI

	// AggOnMax is the largest tAggON the paper sweeps (300 us).
	AggOnMax = 300 * time.Microsecond
)

// Set is a complete DDR4 timing parameter set. A zero Set is not valid;
// use Default or a speed-bin constructor.
type Set struct {
	TRAS  time.Duration
	TRP   time.Duration
	TRCD  time.Duration
	TRC   time.Duration
	TREFI time.Duration
	TREFW time.Duration
	TRFC  time.Duration
	TWR   time.Duration
	TCCD  time.Duration
	// TCK is the command-clock period used by the interpreter to convert
	// cycles to wall time.
	TCK time.Duration
}

// Default returns the timing set used by the paper's experiments
// (DDR4-2400 grade; tCK rounded to 1 ns, the finest granularity the
// command interpreter schedules at).
func Default() Set {
	return Set{
		TRAS:  TRAS,
		TRP:   TRP,
		TRCD:  TRCD,
		TRC:   TRC,
		TREFI: TREFI,
		TREFW: TREFW,
		TRFC:  TRFC,
		TWR:   TWR,
		TCCD:  TCCD,
		TCK:   1 * time.Nanosecond,
	}
}

// Validate reports whether the set is internally consistent.
func (s Set) Validate() error {
	switch {
	case s.TRAS <= 0:
		return fmt.Errorf("timing: tRAS must be positive, got %v", s.TRAS)
	case s.TRP <= 0:
		return fmt.Errorf("timing: tRP must be positive, got %v", s.TRP)
	case s.TRC < s.TRAS+s.TRP:
		return fmt.Errorf("timing: tRC (%v) < tRAS+tRP (%v)", s.TRC, s.TRAS+s.TRP)
	case s.TREFW < s.TREFI:
		return fmt.Errorf("timing: tREFW (%v) < tREFI (%v)", s.TREFW, s.TREFI)
	case s.TCK <= 0:
		return fmt.Errorf("timing: tCK must be positive, got %v", s.TCK)
	}
	return nil
}

// PaperSweep returns the tAggON sweep points used to regenerate
// Figs. 4-6: log-spaced from 36 ns to 300 us, always including the
// paper-highlighted marks (36 ns, 636 ns, 7.8 us, 70.2 us, 300 us).
func PaperSweep() []time.Duration {
	return []time.Duration{
		36 * time.Nanosecond,
		66 * time.Nanosecond,
		126 * time.Nanosecond,
		256 * time.Nanosecond,
		636 * time.Nanosecond,
		1024 * time.Nanosecond,
		2400 * time.Nanosecond,
		4800 * time.Nanosecond,
		7800 * time.Nanosecond,
		15600 * time.Nanosecond,
		31200 * time.Nanosecond,
		70200 * time.Nanosecond,
		150 * time.Microsecond,
		300 * time.Microsecond,
	}
}

// Table2Marks returns the three tAggON values reported in Table 2 of the
// paper: 36 ns (tRAS), 7.8 us (tREFI) and 70.2 us (9 x tREFI).
func Table2Marks() []time.Duration {
	return []time.Duration{AggOnMin, AggOnTREFI, AggOnNineTREFI}
}
