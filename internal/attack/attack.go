// Package attack builds the paper's motivating threat model on top of
// the characterization library: memory templating (profiling a bank for
// exploitable bitflips, in the style of Flip Feng Shui and Drammer) and
// a page-table-entry corruption feasibility analysis. It quantifies how
// the combined RowHammer+RowPress pattern changes attack economics: the
// same victim flips in less wall time than with conventional patterns
// (the paper's Takeaway 1).
package attack

import (
	"fmt"
	"sort"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
)

// Template is one exploitable bitflip found while profiling.
type Template struct {
	// Victim is the victim row; the aggressors are Victim +- 1.
	Victim int
	// Bit is the flipping bit offset within the row.
	Bit int
	// Dir is the flip direction.
	Dir device.Polarity
	// ACmin is the activation dose needed.
	ACmin int64
	// Time is the hammering wall time needed.
	Time time.Duration
}

// ScanConfig configures a templating scan.
type ScanConfig struct {
	Engine *core.AnalyticEngine
	Spec   pattern.Spec
	// Rows is the victim row sample to profile.
	Rows []int
	// Opts carries budget/data/temperature.
	Opts core.RunOpts
	// MaxTime discards templates slower than this (0 = keep all).
	MaxTime time.Duration
}

// Scan profiles the given victim rows and returns all templates sorted
// by hammering time (fastest first).
func Scan(cfg ScanConfig) ([]Template, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("attack: scan needs an engine")
	}
	if len(cfg.Rows) == 0 {
		return nil, fmt.Errorf("attack: scan needs victim rows")
	}
	var out []Template
	for _, victim := range cfg.Rows {
		res, err := cfg.Engine.CharacterizeRow(victim, cfg.Spec, cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("attack: row %d: %w", victim, err)
		}
		if res.NoBitflip {
			continue
		}
		if cfg.MaxTime > 0 && res.TimeToFirst > cfg.MaxTime {
			continue
		}
		for _, f := range res.Flips {
			out = append(out, Template{
				Victim: victim,
				Bit:    f.Bit,
				Dir:    f.Dir,
				ACmin:  res.ACmin,
				Time:   res.TimeToFirst,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// PTE models the layout assumptions of the page-table attack analysis:
// 8-byte page-table entries packed in the victim row, with the physical
// frame number in bits [12, 12+FrameBits) and the present bit at bit 0
// of each entry.
type PTE struct {
	// EntryBits is the PTE width (64 for x86-64).
	EntryBits int
	// FrameLo / FrameHi bound the physical-frame-number field within an
	// entry (x86-64: bits 12..51).
	FrameLo, FrameHi int
}

// DefaultPTE returns the x86-64 layout.
func DefaultPTE() PTE {
	return PTE{EntryBits: 64, FrameLo: 12, FrameHi: 51}
}

// Classify describes how a template's bit lands in the PTE layout.
type Classify int

// Template classifications for the PTE attack.
const (
	// Useless bits do not affect translation meaningfully.
	Useless Classify = iota + 1
	// FrameBit flips redirect the page mapping — the classic privilege
	// escalation primitive (a 0->1 or 1->0 in the PFN points the PTE at
	// a different physical page).
	FrameBit
	// PresentBit flips toggle the mapping's validity.
	PresentBit
)

// String names the classification.
func (c Classify) String() string {
	switch c {
	case Useless:
		return "useless"
	case FrameBit:
		return "frame-bit"
	case PresentBit:
		return "present-bit"
	default:
		return fmt.Sprintf("Classify(%d)", int(c))
	}
}

// ClassifyBit maps a row bit offset onto the PTE layout.
func (p PTE) ClassifyBit(bit int) Classify {
	entryBit := bit % p.EntryBits
	switch {
	case entryBit == 0:
		return PresentBit
	case entryBit >= p.FrameLo && entryBit <= p.FrameHi:
		return FrameBit
	default:
		return Useless
	}
}

// PTEReport summarizes the feasibility analysis.
type PTEReport struct {
	Templates   int
	FrameBits   int
	PresentBits int
	Useless     int
	// FastestExploitable is the wall time of the fastest frame-bit
	// template (zero if none).
	FastestExploitable time.Duration
}

// EvaluatePTE classifies every template against the PTE layout.
func EvaluatePTE(layout PTE, templates []Template) PTEReport {
	rep := PTEReport{Templates: len(templates)}
	for _, t := range templates {
		switch layout.ClassifyBit(t.Bit) {
		case FrameBit:
			rep.FrameBits++
			if rep.FastestExploitable == 0 || t.Time < rep.FastestExploitable {
				rep.FastestExploitable = t.Time
			}
		case PresentBit:
			rep.PresentBits++
		default:
			rep.Useless++
		}
	}
	return rep
}
