// Package rowmap models in-DRAM row address remapping and implements the
// reverse-engineering methodology the paper uses to recover the physical
// row layout ("we reverse-engineer the physical layout of the DRAM rows,
// following prior works' methodology").
//
// DRAM vendors internally scramble row addresses: the row number on the
// command bus (the logical row) is not the physical position in the
// array. Read-disturbance experiments need *physical* adjacency, so the
// harness must discover the mapping by hammering logical rows and
// observing which other logical rows collect bitflips.
package rowmap

import (
	"fmt"
	"sort"
)

// Scheme is an invertible logical->physical row address mapping.
type Scheme interface {
	// Physical maps a logical row to its physical position.
	Physical(logical int) int
	// Logical maps a physical position back to the bus address.
	Logical(physical int) int
	// Name identifies the scheme.
	Name() string
}

// Identity is the trivial mapping (no in-DRAM remapping).
type Identity struct{}

// Physical implements Scheme.
func (Identity) Physical(l int) int { return l }

// Logical implements Scheme.
func (Identity) Logical(p int) int { return p }

// Name implements Scheme.
func (Identity) Name() string { return "identity" }

// GroupSwizzle models vendors that permute rows within fixed-size groups
// (e.g. 4-row twists in some Micron parts): within each group of Size
// rows, row i maps to Perm[i].
type GroupSwizzle struct {
	Size int
	Perm []int
	inv  []int
}

// NewGroupSwizzle validates the permutation and precomputes its inverse.
func NewGroupSwizzle(perm []int) (*GroupSwizzle, error) {
	n := len(perm)
	if n == 0 {
		return nil, fmt.Errorf("rowmap: empty permutation")
	}
	inv := make([]int, n)
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("rowmap: invalid permutation %v", perm)
		}
		seen[p] = true
		inv[p] = i
	}
	cp := make([]int, n)
	copy(cp, perm)
	return &GroupSwizzle{Size: n, Perm: cp, inv: inv}, nil
}

// Physical implements Scheme.
func (s *GroupSwizzle) Physical(l int) int {
	base := l - l%s.Size
	return base + s.Perm[l%s.Size]
}

// Logical implements Scheme.
func (s *GroupSwizzle) Logical(p int) int {
	base := p - p%s.Size
	return base + s.inv[p%s.Size]
}

// Name implements Scheme.
func (s *GroupSwizzle) Name() string { return fmt.Sprintf("swizzle(%v)", s.Perm) }

// ForVendor returns the remapping scheme modeled for a manufacturer
// name, following the publicly reverse-engineered layouts prior work
// reports: Samsung parts swap the upper row pair within each 4-row
// group, SK Hynix parts are sequential, and Micron parts use a 4-row
// twist.
func ForVendor(name string) Scheme {
	switch name {
	case "Samsung":
		return mustSwizzle([]int{0, 1, 3, 2})
	case "SK Hynix":
		return Identity{}
	case "Micron":
		return mustSwizzle([]int{0, 2, 1, 3})
	default:
		return Identity{}
	}
}

// mustSwizzle builds a GroupSwizzle from a permutation known valid at
// compile time.
func mustSwizzle(perm []int) Scheme {
	s, err := NewGroupSwizzle(perm)
	if err != nil {
		return Identity{}
	}
	return s
}

// Neighbors returns the logical addresses of the physical neighbors of a
// logical row under a scheme.
func Neighbors(s Scheme, logical int, numRows int) (below, above int, ok bool) {
	p := s.Physical(logical)
	if p-1 < 0 || p+1 >= numRows {
		return 0, 0, false
	}
	return s.Logical(p - 1), s.Logical(p + 1), true
}

// Hammerer abstracts the experiment needed by the reverse engineer: it
// double-sided-hammers a pair of logical rows and returns the logical
// rows where bitflips were observed. In production this is backed by the
// bender engine on a simulated chip; tests may fake it.
type Hammerer interface {
	HammerPair(logicalA, logicalB int) (victims []int, err error)
}

// Reverse discovers the physical neighbors of each logical row in
// [start, end) by hammering candidate aggressor pairs and watching where
// flips land — the methodology of the paper's Section 3.2. It returns a
// map from logical row to its inferred physical-neighbor logical rows.
//
// The search assumes remapping is local (within window rows), which
// holds for all known vendor schemes.
func Reverse(h Hammerer, start, end, window int) (map[int][]int, error) {
	if window <= 0 {
		window = 8
	}
	found := make(map[int]map[int]bool)
	record := func(victim, aggressor int) {
		if found[victim] == nil {
			found[victim] = make(map[int]bool)
		}
		found[victim][aggressor] = true
	}
	for a := start; a < end; a++ {
		for d := 1; d <= window; d++ {
			b := a + d
			if b >= end {
				break
			}
			victims, err := h.HammerPair(a, b)
			if err != nil {
				return nil, fmt.Errorf("rowmap: hammer pair (%d,%d): %w", a, b, err)
			}
			for _, v := range victims {
				// A double-sided victim sits between the two
				// aggressors; both are its physical neighbors.
				record(v, a)
				record(v, b)
			}
		}
	}
	out := make(map[int][]int, len(found))
	for v, aggs := range found {
		list := make([]int, 0, len(aggs))
		for a := range aggs {
			list = append(list, a)
		}
		sort.Ints(list)
		out[v] = list
	}
	return out, nil
}

// Verify checks an inferred adjacency map against a known scheme,
// returning the number of rows whose inferred neighbors are exactly the
// scheme's neighbors and the number checked.
func Verify(s Scheme, inferred map[int][]int, numRows int) (correct, checked int) {
	for v, aggs := range inferred {
		if len(aggs) != 2 {
			checked++
			continue
		}
		below, above, ok := Neighbors(s, v, numRows)
		if !ok {
			continue
		}
		checked++
		want := []int{below, above}
		sort.Ints(want)
		if aggs[0] == want[0] && aggs[1] == want[1] {
			correct++
		}
	}
	return correct, checked
}
