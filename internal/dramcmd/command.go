// Package dramcmd defines the DRAM command vocabulary and timestamped
// command traces.
//
// The characterization infrastructure drives a device model purely through
// commands (ACT, PRE, RD, WR, REF) at precise times, exactly like the
// FPGA-based DRAM Bender platform the paper uses. Traces can be validated
// against a timing set to catch illegal schedules before they reach the
// device model.
package dramcmd

import (
	"fmt"
	"time"

	"rowfuse/internal/timing"
)

// Kind identifies a DRAM command.
type Kind int

// DRAM command kinds.
const (
	ACT Kind = iota + 1 // activate (open) a row
	PRE                 // precharge (close) the open row in a bank
	RD                  // column read from the open row
	WR                  // column write to the open row
	REF                 // refresh
	NOP                 // no operation (explicit idle slot)
)

var kindNames = map[Kind]string{
	ACT: "ACT",
	PRE: "PRE",
	RD:  "RD",
	WR:  "WR",
	REF: "REF",
	NOP: "NOP",
}

// String returns the JEDEC-style mnemonic for the command kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k is a defined command kind.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// Command is one DRAM command with its issue time relative to the start of
// the trace.
type Command struct {
	Kind Kind
	// Bank is the target bank index.
	Bank int
	// Row is the target row for ACT (physical row address as seen on the
	// bus, i.e. logical before in-DRAM remapping).
	Row int
	// Col is the target column for RD/WR.
	Col int
	// Data carries the write payload for WR commands (one burst).
	Data []byte
	// At is the issue time relative to trace start.
	At time.Duration
}

// String renders the command in a compact human-readable form.
func (c Command) String() string {
	switch c.Kind {
	case ACT:
		return fmt.Sprintf("%-12s ACT  bank=%d row=%d", c.At, c.Bank, c.Row)
	case PRE:
		return fmt.Sprintf("%-12s PRE  bank=%d", c.At, c.Bank)
	case RD:
		return fmt.Sprintf("%-12s RD   bank=%d col=%d", c.At, c.Bank, c.Col)
	case WR:
		return fmt.Sprintf("%-12s WR   bank=%d col=%d len=%d", c.At, c.Bank, c.Col, len(c.Data))
	case REF:
		return fmt.Sprintf("%-12s REF", c.At)
	default:
		return fmt.Sprintf("%-12s %s", c.At, c.Kind)
	}
}

// Trace is a time-ordered command sequence.
type Trace struct {
	Commands []Command
}

// Append adds a command to the trace.
func (t *Trace) Append(c Command) {
	t.Commands = append(t.Commands, c)
}

// ViolationError describes a timing-rule violation found in a trace.
type ViolationError struct {
	Index int    // offending command index
	Rule  string // violated rule, e.g. "tRAS"
	Msg   string
}

// Error implements the error interface.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("dramcmd: command %d violates %s: %s", e.Index, e.Rule, e.Msg)
}

// Validate checks the trace against a timing set. It verifies:
//   - commands are time-ordered,
//   - ACT only to a precharged bank; PRE/RD/WR only to an open bank,
//   - tRAS between ACT and PRE, tRP between PRE and ACT,
//   - tRCD between ACT and first RD/WR.
func (t *Trace) Validate(ts timing.Set) error {
	type bankState struct {
		open    bool
		actAt   time.Duration
		preAt   time.Duration
		everPre bool
	}
	banks := make(map[int]*bankState)
	get := func(b int) *bankState {
		st, ok := banks[b]
		if !ok {
			st = &bankState{}
			banks[b] = st
		}
		return st
	}

	var last time.Duration
	for i, c := range t.Commands {
		if !c.Kind.Valid() {
			return &ViolationError{Index: i, Rule: "kind", Msg: "invalid command kind"}
		}
		if c.At < last {
			return &ViolationError{
				Index: i, Rule: "order",
				Msg: fmt.Sprintf("command at %v issued before previous at %v", c.At, last),
			}
		}
		last = c.At

		st := get(c.Bank)
		switch c.Kind {
		case ACT:
			if st.open {
				return &ViolationError{Index: i, Rule: "state", Msg: "ACT to an open bank"}
			}
			if st.everPre && c.At-st.preAt < ts.TRP {
				return &ViolationError{
					Index: i, Rule: "tRP",
					Msg: fmt.Sprintf("ACT %v after PRE, need >= %v", c.At-st.preAt, ts.TRP),
				}
			}
			st.open = true
			st.actAt = c.At
		case PRE:
			if !st.open {
				return &ViolationError{Index: i, Rule: "state", Msg: "PRE to a closed bank"}
			}
			if c.At-st.actAt < ts.TRAS {
				return &ViolationError{
					Index: i, Rule: "tRAS",
					Msg: fmt.Sprintf("row open %v, need >= %v", c.At-st.actAt, ts.TRAS),
				}
			}
			st.open = false
			st.preAt = c.At
			st.everPre = true
		case RD, WR:
			if !st.open {
				return &ViolationError{Index: i, Rule: "state", Msg: c.Kind.String() + " to a closed bank"}
			}
			if c.At-st.actAt < ts.TRCD {
				return &ViolationError{
					Index: i, Rule: "tRCD",
					Msg: fmt.Sprintf("%s %v after ACT, need >= %v", c.Kind, c.At-st.actAt, ts.TRCD),
				}
			}
		case REF:
			for b, s := range banks {
				if s.open {
					return &ViolationError{
						Index: i, Rule: "state",
						Msg: fmt.Sprintf("REF with bank %d open", b),
					}
				}
			}
		case NOP:
			// Always legal.
		}
	}
	return nil
}
