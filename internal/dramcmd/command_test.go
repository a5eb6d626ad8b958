package dramcmd

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rowfuse/internal/timing"
)

func ts() timing.Set { return timing.Default() }

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{ACT, "ACT"}, {PRE, "PRE"}, {RD, "RD"}, {WR, "WR"}, {REF, "REF"}, {NOP, "NOP"},
		{Kind(99), "Kind(99)"},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tc.k), got, tc.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{ACT, PRE, RD, WR, REF, NOP} {
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
	}
	if Kind(0).Valid() || Kind(42).Valid() {
		t.Error("invalid kinds reported valid")
	}
}

func TestTraceBasics(t *testing.T) {
	var tr Trace
	tr.Append(Command{Kind: ACT, Row: 5, At: 0})
	tr.Append(Command{Kind: PRE, At: 40 * time.Nanosecond})
	if len(tr.Commands) != 2 || tr.Commands[1].At != 40*time.Nanosecond {
		t.Errorf("trace %v, want ACT then PRE at 40ns", tr.Commands)
	}
}

// legalTrace builds a correct ACT/PRE/ACT sequence.
func legalTrace() *Trace {
	tr := &Trace{}
	tr.Append(Command{Kind: ACT, Bank: 0, Row: 10, At: 0})
	tr.Append(Command{Kind: RD, Bank: 0, Col: 0, At: 20 * time.Nanosecond})
	tr.Append(Command{Kind: PRE, Bank: 0, At: 40 * time.Nanosecond})
	tr.Append(Command{Kind: ACT, Bank: 0, Row: 12, At: 60 * time.Nanosecond})
	tr.Append(Command{Kind: PRE, Bank: 0, At: 100 * time.Nanosecond})
	return tr
}

func TestValidateAcceptsLegalTrace(t *testing.T) {
	if err := legalTrace().Validate(ts()); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}
}

func TestValidateViolations(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Trace
		rule  string
	}{
		{
			name: "out of order",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: ACT, Row: 1, At: 100 * time.Nanosecond})
				tr.Append(Command{Kind: PRE, At: 50 * time.Nanosecond})
				return tr
			},
			rule: "order",
		},
		{
			name: "ACT to open bank",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: ACT, Row: 1, At: 0})
				tr.Append(Command{Kind: ACT, Row: 2, At: 100 * time.Nanosecond})
				return tr
			},
			rule: "state",
		},
		{
			name: "PRE to closed bank",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: PRE, At: 0})
				return tr
			},
			rule: "state",
		},
		{
			name: "tRAS violation",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: ACT, Row: 1, At: 0})
				tr.Append(Command{Kind: PRE, At: 10 * time.Nanosecond})
				return tr
			},
			rule: "tRAS",
		},
		{
			name: "tRP violation",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: ACT, Row: 1, At: 0})
				tr.Append(Command{Kind: PRE, At: 40 * time.Nanosecond})
				tr.Append(Command{Kind: ACT, Row: 2, At: 45 * time.Nanosecond})
				return tr
			},
			rule: "tRP",
		},
		{
			name: "tRCD violation",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: ACT, Row: 1, At: 0})
				tr.Append(Command{Kind: RD, At: 5 * time.Nanosecond})
				return tr
			},
			rule: "tRCD",
		},
		{
			name: "RD to closed bank",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: RD, At: 0})
				return tr
			},
			rule: "state",
		},
		{
			name: "REF with open bank",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: ACT, Row: 1, At: 0})
				tr.Append(Command{Kind: REF, At: 50 * time.Nanosecond})
				return tr
			},
			rule: "state",
		},
		{
			name: "invalid kind",
			build: func() *Trace {
				tr := &Trace{}
				tr.Append(Command{Kind: Kind(77), At: 0})
				return tr
			},
			rule: "kind",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate(ts())
			if err == nil {
				t.Fatal("violation not detected")
			}
			var v *ViolationError
			if !errors.As(err, &v) {
				t.Fatalf("error %T is not a ViolationError", err)
			}
			if v.Rule != tc.rule {
				t.Errorf("rule = %q, want %q", v.Rule, tc.rule)
			}
		})
	}
}

func TestValidateIndependentBanks(t *testing.T) {
	tr := &Trace{}
	tr.Append(Command{Kind: ACT, Bank: 0, Row: 1, At: 0})
	tr.Append(Command{Kind: ACT, Bank: 1, Row: 2, At: 5 * time.Nanosecond})
	tr.Append(Command{Kind: PRE, Bank: 0, At: 40 * time.Nanosecond})
	tr.Append(Command{Kind: PRE, Bank: 1, At: 45 * time.Nanosecond})
	if err := tr.Validate(ts()); err != nil {
		t.Fatalf("independent banks rejected: %v", err)
	}
}

func TestNOPAlwaysLegal(t *testing.T) {
	tr := &Trace{}
	tr.Append(Command{Kind: NOP, At: 0})
	tr.Append(Command{Kind: ACT, Row: 1, At: 10 * time.Nanosecond})
	tr.Append(Command{Kind: NOP, At: 20 * time.Nanosecond})
	tr.Append(Command{Kind: PRE, At: 50 * time.Nanosecond})
	if err := tr.Validate(ts()); err != nil {
		t.Fatalf("NOP trace rejected: %v", err)
	}
}

func TestCommandString(t *testing.T) {
	cases := []struct {
		cmd  Command
		want string
	}{
		{Command{Kind: ACT, Bank: 1, Row: 42}, "ACT"},
		{Command{Kind: PRE, Bank: 2}, "PRE"},
		{Command{Kind: RD, Col: 8}, "RD"},
		{Command{Kind: WR, Data: []byte{1, 2}}, "WR"},
		{Command{Kind: REF}, "REF"},
	}
	for _, tc := range cases {
		if got := tc.cmd.String(); !strings.Contains(got, tc.want) {
			t.Errorf("String() = %q, want it to contain %q", got, tc.want)
		}
	}
}

func TestViolationErrorMessage(t *testing.T) {
	err := &ViolationError{Index: 3, Rule: "tRAS", Msg: "too short"}
	msg := err.Error()
	for _, want := range []string{"3", "tRAS", "too short"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}
