package device

import (
	"sync"
	"sync/atomic"
)

// PopulationCache memoizes the deterministic base populations
// (RowPopulation) of one bank's rows, so every (pattern, tAggON, run)
// combination that characterizes the same die shares one generation per
// row instead of regenerating per measurement. Populations are immutable
// once built, so the cache is safe for concurrent use.
//
// The store is an open-addressed hash table of atomic entry pointers
// behind an atomic table pointer: the hit path (every warm
// characterization of a cached row) is one multiply-hash and a short
// linear probe with no lock traffic. Misses — once per row per die —
// publish an immutable (row, population) entry into an empty slot
// under the mutex, and doubling the table on load keeps memory
// proportional to the rows actually cached (the paper's row sampling
// touches the top of the bank, so a row-indexed dense array would cost
// the whole bank's row count per die). Readers of a superseded table
// simply miss and retry under the mutex.
//
// A full-bank cache for a paper-scale row sample (3K rows) holds a few
// megabytes; campaign schedulers should scope one cache per (module,
// die) and drop it when that die's cells are done.
type PopulationCache struct {
	profile Profile
	params  DisturbParams
	bank    int
	rowBits int

	mu   sync.Mutex
	pops atomic.Pointer[[]atomic.Pointer[popEntry]]
	n    atomic.Int64
	// used is the bit set every build reuses; builds run under mu.
	used Bitset
}

// popEntry is one immutable (row, population) pair; slots hold nil
// until an entry is published.
type popEntry struct {
	row int
	rp  *RowPopulation
}

// popHash spreads row indices (typically clustered runs of a few
// sampled regions) across the table with a Fibonacci multiply.
func popHash(row int) uint64 {
	return uint64(row) * 0x9e3779b97f4a7c15
}

// NewPopulationCache builds an empty cache for one bank's geometry.
func NewPopulationCache(p Profile, d DisturbParams, bank, rowBits int) *PopulationCache {
	c := &PopulationCache{
		profile: p,
		params:  d,
		bank:    bank,
		rowBits: rowBits,
	}
	pops := []atomic.Pointer[popEntry](nil)
	c.pops.Store(&pops)
	return c
}

// Matches reports whether the cache was built for exactly this bank
// identity; consumers must not share caches across different dies.
func (c *PopulationCache) Matches(p Profile, d DisturbParams, bank, rowBits int) bool {
	return c.profile == p && c.params == d && c.bank == bank && c.rowBits == rowBits
}

// lookup probes t for row. It returns the population, or nil after
// hitting an empty slot (the table is never full: inserts keep load
// at or below 3/4).
func lookup(t []atomic.Pointer[popEntry], row int) *RowPopulation {
	if len(t) == 0 {
		return nil
	}
	mask := uint64(len(t) - 1)
	for i := popHash(row); ; i++ {
		e := t[i&mask].Load()
		if e == nil {
			return nil
		}
		if e.row == row {
			return e.rp
		}
	}
}

// Get returns the row's base population, generating and caching it on
// first touch.
func (c *PopulationCache) Get(row int) *RowPopulation {
	if rp := lookup(*c.pops.Load(), row); rp != nil {
		return rp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := *c.pops.Load()
	// Re-check under the lock: another writer may have published the
	// entry between the lock-free probe and acquiring the mutex.
	if rp := lookup(t, row); rp != nil {
		return rp
	}
	if n := int(c.n.Load()); 4*(n+1) > 3*len(t) {
		size := 2 * len(t)
		if size < 64 {
			size = 64
		}
		next := make([]atomic.Pointer[popEntry], size)
		mask := uint64(size - 1)
		for i := range t {
			e := t[i].Load()
			if e == nil {
				continue
			}
			j := popHash(e.row)
			for next[j&mask].Load() != nil {
				j++
			}
			next[j&mask].Store(e)
		}
		c.pops.Store(&next)
		t = next
	}
	rp := &RowPopulation{}
	rp.build(c.profile, c.params, c.bank, row, c.rowBits, &c.used)
	mask := uint64(len(t) - 1)
	i := popHash(row)
	for t[i&mask].Load() != nil {
		i++
	}
	t[i&mask].Store(&popEntry{row: row, rp: rp})
	c.n.Add(1)
	return rp
}
