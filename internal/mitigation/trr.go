// Package mitigation models in-DRAM read-disturbance defenses — a
// target-row-refresh (TRR) mechanism and rank-level SEC-DED ECC — and
// provides harnesses to evaluate them against the paper's access
// patterns. This covers the paper's future-work item 3 ("understand the
// architectural implications by analyzing and evaluating how existing
// mitigation mechanisms need to be changed") and documents why the
// characterization methodology must disable periodic refresh: REF
// triggers TRR, which would mask circuit-level bitflips.
package mitigation

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/device"
)

// Tracker identifies candidate aggressor rows from the activation
// stream. Implementations mirror the counter-table mechanisms vendors
// ship (TRRespass reverse-engineered several).
type Tracker interface {
	// Observe records one activation of a logical row.
	Observe(row int)
	// Top returns up to n candidate aggressors, hottest first. The
	// slice may be reused by the tracker's next call.
	Top(n int) []int
	// Reset clears the tracker state (issued after TRR fires). A reset
	// tracker must behave like a new one: the guard's refresh-window
	// skip relies on it.
	Reset()
}

// MisraGries is a k-counter frequent-items tracker, the standard
// building block of counter-based TRR implementations. Top and Reset
// reuse its storage, so a guard's REF allocates nothing.
type MisraGries struct {
	k        int
	counters map[int]int64
	entries  []mgEntry
	top      []int
}

// mgEntry is one tracked row and its count, as Top ranks them.
type mgEntry struct {
	row int
	cnt int64
}

// NewMisraGries builds a tracker with k counters.
func NewMisraGries(k int) *MisraGries {
	if k < 1 {
		k = 1
	}
	return &MisraGries{k: k, counters: make(map[int]int64, k+1)}
}

var _ Tracker = (*MisraGries)(nil)

// Observe implements Tracker.
func (m *MisraGries) Observe(row int) {
	if _, ok := m.counters[row]; ok {
		m.counters[row]++
		return
	}
	if len(m.counters) < m.k {
		m.counters[row] = 1
		return
	}
	// Decrement-all: evict zeroed entries.
	for r := range m.counters {
		m.counters[r]--
		if m.counters[r] <= 0 {
			delete(m.counters, r)
		}
	}
}

// Top implements Tracker. The returned slice is reused by the next
// Top call.
func (m *MisraGries) Top(n int) []int {
	m.entries = m.entries[:0]
	for r, c := range m.counters {
		m.entries = append(m.entries, mgEntry{r, c})
	}
	slices.SortFunc(m.entries, func(a, b mgEntry) int {
		if a.cnt != b.cnt {
			return cmp.Compare(b.cnt, a.cnt)
		}
		return cmp.Compare(a.row, b.row)
	})
	if n > len(m.entries) {
		n = len(m.entries)
	}
	m.top = m.top[:0]
	for _, e := range m.entries[:n] {
		m.top = append(m.top, e.row)
	}
	return m.top
}

// Reset implements Tracker. It clears the counters in place.
func (m *MisraGries) Reset() {
	clear(m.counters)
}

// Guard wraps a bank with a TRR mechanism: it observes activations and,
// when a REF arrives, additionally refreshes the physical neighbours of
// the hottest tracked aggressors (the "target rows").
//
// Guard implements core.RefreshReplayer, so the bank engine can skip
// whole refresh windows under it: a REF's targets depend only on the
// activations since the previous REF, so once a window has run act by
// act, a later window with the same schedule closes with the same
// targeted refreshes.
type Guard struct {
	bank    *device.Bank
	tracker Tracker
	// victimsPerRef is how many aggressors are neutralized per REF.
	victimsPerRef int

	// observed records an activation since the last REF; targets are
	// the rows the last REF refreshed on TRR's behalf, in order.
	observed bool
	targets  []int

	trrRefreshes int64
}

var _ core.RefreshReplayer = (*Guard)(nil)

// GuardConfig configures a TRR guard.
type GuardConfig struct {
	Bank    *device.Bank
	Tracker Tracker
	// VictimsPerRef defaults to 2 aggressors per REF.
	VictimsPerRef int
}

// ErrNilBank reports a missing bank.
var ErrNilBank = errors.New("mitigation: guard needs a bank")

// NewGuard builds a TRR guard.
func NewGuard(cfg GuardConfig) (*Guard, error) {
	if cfg.Bank == nil {
		return nil, ErrNilBank
	}
	if cfg.Tracker == nil {
		cfg.Tracker = NewMisraGries(16)
	}
	if cfg.VictimsPerRef == 0 {
		cfg.VictimsPerRef = 2
	}
	return &Guard{
		bank:          cfg.Bank,
		tracker:       cfg.Tracker,
		victimsPerRef: cfg.VictimsPerRef,
	}, nil
}

// Activate forwards to the bank and feeds the tracker.
func (g *Guard) Activate(row int, now time.Duration) error {
	if err := g.bank.Activate(row, now); err != nil {
		return err
	}
	g.tracker.Observe(row)
	g.observed = true
	return nil
}

// Precharge forwards to the bank.
func (g *Guard) Precharge(now time.Duration) error {
	return g.bank.Precharge(now)
}

// Refresh performs the regular refresh plus targeted neighbour
// refreshes of the hottest aggressors.
func (g *Guard) Refresh(now time.Duration) error {
	if err := g.bank.Refresh(now); err != nil {
		return err
	}
	g.targets = g.targets[:0]
	for _, agg := range g.tracker.Top(g.victimsPerRef) {
		for _, victim := range [...]int{agg - 1, agg + 1} {
			if victim < 0 || victim >= g.bank.NumRows() {
				continue
			}
			g.targets = append(g.targets, victim)
		}
	}
	return g.refreshTargets(now)
}

// refreshTargets refreshes the recorded target rows and resets the
// tracker, the tail every REF shares.
func (g *Guard) refreshTargets(now time.Duration) error {
	for _, victim := range g.targets {
		if err := g.bank.RefreshRow(victim, now); err != nil {
			return fmt.Errorf("mitigation: TRR refresh row %d: %w", victim, err)
		}
		g.trrRefreshes++
	}
	g.tracker.Reset()
	g.observed = false
	return nil
}

// Quiescent implements core.RefreshReplayer: the tracker has observed
// no activation since the last REF.
func (g *Guard) Quiescent() bool { return !g.observed }

// RefreshTargets implements core.RefreshReplayer: the rows the last REF
// refreshed on TRR's behalf, in order. The slice is reused by the next
// REF.
func (g *Guard) RefreshTargets() []int { return g.targets }

// ReplayRefresh implements core.RefreshReplayer: a REF that performs
// the bank's round-robin refresh and then refreshes rows as targets,
// without consulting the tracker.
func (g *Guard) ReplayRefresh(now time.Duration, rows []int) error {
	if err := g.bank.Refresh(now); err != nil {
		return err
	}
	g.targets = append(g.targets[:0], rows...)
	return g.refreshTargets(now)
}

// TRRRefreshes returns how many targeted refreshes have been issued.
func (g *Guard) TRRRefreshes() int64 { return g.trrRefreshes }
