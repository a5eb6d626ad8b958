// Package pattern builds the DRAM access patterns characterized by the
// paper: conventional single- and double-sided RowPress (which degenerate
// to RowHammer at tAggON = tRAS) and the combined RowHammer + RowPress
// pattern (Fig. 3 of the paper).
package pattern

import (
	"fmt"
	"time"

	"rowfuse/internal/timing"
)

// Kind identifies an access-pattern family.
type Kind int

// The three pattern families of Fig. 3.
const (
	// SingleSided activates one aggressor row (the victim's strong-side
	// neighbour) for tAggON per iteration (Fig. 3.a).
	SingleSided Kind = iota + 1
	// DoubleSided alternates two aggressor rows, both open for tAggON
	// (Fig. 3.b).
	DoubleSided
	// Combined alternates two aggressor rows: R0 open for tAggON,
	// R2 open only for tRAS (Fig. 3.c) — the paper's contribution.
	Combined
)

// String returns the paper's naming for the pattern family.
func (k Kind) String() string {
	switch k {
	case SingleSided:
		return "single-sided RP(RH)"
	case DoubleSided:
		return "double-sided RP(RH)"
	case Combined:
		return "combined RH+RP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Short returns a compact identifier for file names and CSV columns.
func (k Kind) Short() string {
	switch k {
	case SingleSided:
		return "single"
	case DoubleSided:
		return "double"
	case Combined:
		return "combined"
	default:
		return "unknown"
	}
}

// ParseShort is the inverse of Short, used when deserializing persisted
// results.
func ParseShort(s string) (Kind, error) {
	switch s {
	case "single":
		return SingleSided, nil
	case "double":
		return DoubleSided, nil
	case "combined":
		return Combined, nil
	default:
		return 0, fmt.Errorf("pattern: unknown pattern %q", s)
	}
}

// Act is one aggressor activation within a pattern iteration.
type Act struct {
	// RowOffset is the aggressor row relative to the victim (-1 = the
	// strong-side neighbour below, +1 = the weak-side neighbour above).
	RowOffset int
	// OnTime is how long the row stays open.
	OnTime time.Duration
}

// Spec is a fully parameterized access pattern.
type Spec struct {
	Kind Kind
	// AggOn is tAggON for the long-open aggressor (R0). At AggOn = tRAS
	// every pattern family degenerates to conventional RowHammer.
	AggOn time.Duration
	// Timings supplies tRAS/tRP for schedule construction.
	Timings timing.Set
}

// New builds a validated Spec.
func New(kind Kind, aggOn time.Duration, ts timing.Set) (Spec, error) {
	if kind != SingleSided && kind != DoubleSided && kind != Combined {
		return Spec{}, fmt.Errorf("pattern: invalid kind %d", int(kind))
	}
	if err := ts.Validate(); err != nil {
		return Spec{}, err
	}
	if aggOn < ts.TRAS {
		return Spec{}, fmt.Errorf("pattern: tAggON %v below tRAS %v", aggOn, ts.TRAS)
	}
	return Spec{Kind: kind, AggOn: aggOn, Timings: ts}, nil
}

// Eq reports s == *o, compared field by field. Memoizing hot paths key
// on whole specs; the explicit compare keeps the hit test a handful of
// register compares where the generic struct equality of a spec this
// size lowers to a memeq call. Must cover every field of Spec and
// timing.Set.
func (s *Spec) Eq(o *Spec) bool {
	return s.Kind == o.Kind && s.AggOn == o.AggOn &&
		s.Timings.TRAS == o.Timings.TRAS && s.Timings.TRP == o.Timings.TRP &&
		s.Timings.TRCD == o.Timings.TRCD && s.Timings.TRC == o.Timings.TRC &&
		s.Timings.TREFI == o.Timings.TREFI && s.Timings.TREFW == o.Timings.TREFW &&
		s.Timings.TRFC == o.Timings.TRFC && s.Timings.TWR == o.Timings.TWR &&
		s.Timings.TCCD == o.Timings.TCCD && s.Timings.TCK == o.Timings.TCK
}

// Acts returns the aggressor activations of one iteration, in issue
// order.
func (s Spec) Acts() []Act {
	switch s.Kind {
	case SingleSided:
		return []Act{{RowOffset: -1, OnTime: s.AggOn}}
	case DoubleSided:
		return []Act{
			{RowOffset: -1, OnTime: s.AggOn},
			{RowOffset: +1, OnTime: s.AggOn},
		}
	case Combined:
		return []Act{
			{RowOffset: -1, OnTime: s.AggOn},
			{RowOffset: +1, OnTime: s.Timings.TRAS},
		}
	default:
		return nil
	}
}

// ActsPerIteration returns the number of aggressor activations per
// iteration (the unit ACmin counts).
func (s Spec) ActsPerIteration() int { return len(s.Acts()) }

// IterationTime returns the wall time of one iteration: each activation
// holds its row open for its on-time and is followed by a precharge gap
// of tRP.
func (s Spec) IterationTime() time.Duration {
	var d time.Duration
	for _, a := range s.Acts() {
		d += a.OnTime + s.Timings.TRP
	}
	return d
}

// ActEnd returns the time offset, within one iteration, of the precharge
// that closes the i-th activation (0-based).
func (s Spec) ActEnd(i int) time.Duration {
	acts := s.Acts()
	var d time.Duration
	for j := 0; j <= i && j < len(acts); j++ {
		d += acts[j].OnTime
		if j < i {
			d += s.Timings.TRP
		}
	}
	return d
}

// MaxIterations returns how many whole iterations fit in a time budget
// (the paper caps each experiment at 60 ms to avoid retention failures).
func (s Spec) MaxIterations(budget time.Duration) int64 {
	it := s.IterationTime()
	if it <= 0 || budget <= 0 {
		return 0
	}
	return int64(budget / it)
}

// String renders the spec.
func (s Spec) String() string {
	return fmt.Sprintf("%s @ tAggON=%v", s.Kind, s.AggOn)
}
