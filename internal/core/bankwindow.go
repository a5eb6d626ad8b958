// Refresh-window skip for the guarded bank engine.
//
// Under a TRR guard and periodic refresh the hammer loop splits into
// windows: the runs of activations between two REFs. When the guard
// refreshes the victim at every REF, nothing accumulates across
// windows, no cell flips, and every row runs its whole budget act by
// act. The event-horizon fast-forward cannot help (the guard mutates
// cell state it does not model), but the windows repeat.
//
// A window that starts with the victim row pristine (no side
// bookkeeping, every unflipped accumulator zero) and the driver
// quiescent (nothing observed since its REF) has an outcome fixed by
// its class: the act index it starts at and the number of activations
// it runs before the next REF is due. The victim's damage depends only
// on the activations' on-times and order, and the driver's REF only on
// the activations it observed. So once one window of a class has run
// act by act without a victim flip and closed with a REF that
// refreshed the victim, so that the next window starts pristine again,
// every later window of that class in the same row is skipped: the
// clock, the act position and the bank's ACT/PRE counters advance
// arithmetically, and the closing REF runs the bank's real round-robin
// Refresh (exact cursor and REF count) followed by the memoized
// targeted refreshes. The victim's microstate, the RowResult and every
// counter come out byte-identical to act-by-act execution
// (FuzzGuardedWindowParity); rows other than the victim do not receive
// the skipped damage, which no RowResult reads.
//
// Each row's first window is never skipped (it starts at the row's
// first activation, not at a REF, and the driver still holds the
// previous row's activations); neither is a window the budget cuts
// short (it has no closing REF to replay), nor anything under a driver
// without RefreshReplayer or refresh without a driver.
package core

import (
	"slices"
	"time"

	"rowfuse/internal/pattern"
)

// refWindow is one refresh-window class of the current row: windows
// starting at act index first that run acts activations before the
// next REF. Memoized classes carry the targets of their closing REF as
// windowRows[lo:hi].
type refWindow struct {
	first  int
	acts   int64
	end    int64 // act position of the closing REF (open window only)
	lo, hi int
}

// skipWindows runs at the hammer loop's REF point, just after a REF at
// act position pos and clock now, with nextRef already advanced. It
// memoizes the class of the window that REF closed, when that window
// started pristine and its REF refreshed the victim; then, while the
// next window starts pristine and its class is memoized, it skips it
// and replays its closing REF. It returns the position, clock and next
// REF deadline the loop resumes from: the first act of a window that
// must run act by act.
func (e *BankEngine) skipWindows(rep RefreshReplayer, victim int, acts []pattern.Act, trp time.Duration, pos, end int64, now, nextRef time.Duration) (int64, time.Duration, time.Duration, error) {
	if e.openOK && e.open.end == pos && slices.Contains(rep.RefreshTargets(), victim) {
		w := e.open
		w.lo = len(e.windowRows)
		e.windowRows = append(e.windowRows, rep.RefreshTargets()...)
		w.hi = len(e.windowRows)
		e.windows = append(e.windows, w)
	}
	e.openOK = false
	if !rep.Quiescent() || !e.bank.RowPristine(victim) {
		return pos, now, nextRef, nil
	}
	// A replayed REF refreshes the victim (memoized targets include it)
	// and leaves the driver quiescent, so skipped windows chain without
	// checking again.
	n := int64(len(acts))
	for {
		first := int(pos % n)
		m, d := windowActs(acts, trp, first, nextRef-now)
		if pos+m >= end {
			// The budget ends before the window's REF: nothing to
			// memoize or replay.
			return pos, now, nextRef, nil
		}
		k := slices.IndexFunc(e.windows, func(w refWindow) bool { return w.first == first && w.acts == m })
		if k < 0 {
			e.open, e.openOK = refWindow{first: first, acts: m, end: pos + m}, true
			return pos, now, nextRef, nil
		}
		w := e.windows[k]
		if err := e.bank.SkipActs(m); err != nil {
			return pos, now, nextRef, err
		}
		pos += m
		now += d
		if err := rep.ReplayRefresh(now, e.windowRows[w.lo:w.hi]); err != nil {
			return pos, now, nextRef, err
		}
		e.refreshes++
		nextRef += e.refEvery
	}
}

// windowActs returns how many activations a window starting at act
// index first runs before the hammer loop's REF check fires, and how
// long they take: the smallest m >= 1 whose elapsed time reaches need
// (the time left until the next REF is due; zero or negative when REFs
// lag behind their deadlines). Whole iterations are counted in one
// division, the tail act by act.
func windowActs(acts []pattern.Act, trp time.Duration, first int, need time.Duration) (int64, time.Duration) {
	n, iterTime := int64(len(acts)), iterationTime(acts, trp)
	var whole int64
	if need > 0 {
		whole = int64((need - 1) / iterTime)
	}
	m, d := whole*n, time.Duration(whole)*iterTime
	for {
		a := acts[(int64(first)+m)%n]
		d += a.OnTime + trp
		m++
		if d >= need {
			return m, d
		}
	}
}
