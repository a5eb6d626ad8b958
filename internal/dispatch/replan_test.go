package dispatch

import (
	"math"
	"slices"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

// Slot states FuzzReplan's state bytes select; replanFresh is the only
// one the pool rule admits.
const (
	replanFresh = iota
	replanLeased
	replanDone
	replanPartial
	replanStruck
	replanExpired // a lease that expired and was never re-granted
	replanQuarantined
	replanStates
)

// replanMean decodes a fuzzed byte into a class or rate mean: 0 is
// zero, and the rest span 2^-508 to 2^508 in steps of 2^4, so that
// sums over the grid stay finite.
func replanMean(b byte) float64 {
	if b == 0 {
		return 0
	}
	return math.Ldexp(1, 4*(int(b)-128))
}

// FuzzReplan checks the re-planner's properties on a 36-cell grid whose
// modules have 8 or 4 dies (six cost classes). The input picks the
// unit count, the ns-per-die rate and per-class EWMA means (a missing
// byte leaves the class unobserved), and each slot's state. After one
// re-planning pass:
//   - every pooled cell lands in exactly one unit;
//   - each new unit is a non-empty contiguous run of the sorted pool;
//   - there are at most round(total/target) units, and none costs more
//     than total/bins plus the largest pooled estimate;
//   - no slot outside the pool changes.
//
// A pool too small to re-plan must leave every slot as it was.
func FuzzReplan(f *testing.F) {
	f.Add(uint8(4), uint8(140), []byte{140, 140, 140, 140, 140, 140}, []byte{replanDone})
	f.Add(uint8(16), uint8(1), []byte{0, 0, 0, 0, 0, 0}, []byte{replanLeased, replanFresh, replanDone})
	f.Add(uint8(9), uint8(255), []byte{255, 1, 0, 200}, []byte{replanDone, replanPartial, replanStruck, replanExpired})
	f.Add(uint8(36), uint8(128), []byte{}, []byte{replanQuarantined, replanLeased})
	f.Add(uint8(2), uint8(130), []byte{250, 130, 130, 130, 130, 130}, []byte{replanFresh, replanFresh})

	var mods []chipdb.ModuleInfo
	for _, id := range []string{"S0", "H1", "M0", "M1"} {
		mi, err := chipdb.ByID(id)
		if err != nil {
			f.Fatal(err)
		}
		mods = append(mods, mi)
	}
	cfg := core.StudyConfig{
		Modules:       mods,
		Sweep:         []time.Duration{timing.TRAS, 7800 * time.Nanosecond, timing.AggOnNineTREFI},
		RowsPerRegion: 2,
		Runs:          1,
	}

	f.Fuzz(func(t *testing.T, units, rate uint8, means, states []byte) {
		m := NewManifest(cfg, 1+int(units)%36, time.Minute)
		q, err := NewMemQueue(m)
		if err != nil {
			t.Fatal(err)
		}
		q.cost.nsPerW = ewma{mean: replanMean(rate), ok: true}
		for i, b := range means {
			if i < len(q.cost.classNs) {
				q.cost.classNs[i] = ewma{mean: replanMean(b), ok: true}
			}
		}
		for i, b := range states {
			if i >= len(q.units) {
				break
			}
			u := &q.units[i]
			switch int(b) % replanStates {
			case replanLeased:
				u.State, u.Token = UnitLeased, "t"
			case replanDone:
				u.State, u.Done = UnitDone, &resultio.Checkpoint{}
			case replanPartial:
				u.Partial = &resultio.Checkpoint{}
			case replanStruck:
				u.Strikes = 1
			case replanExpired:
				u.Token = "t"
			case replanQuarantined:
				u.State, u.Strikes = UnitQuarantined, 2
			}
		}
		q.replanDirty = true
		before := slices.Clone(q.units)
		pooled := make(map[int]bool)
		var pool []int
		for i, u := range before {
			if u.State == UnitPending && u.Partial == nil && u.Token == "" && u.Strikes == 0 {
				pooled[i] = true
				pool = append(pool, u.Cells...)
			}
		}
		slices.Sort(pool)

		if err := q.replan(); err != nil {
			t.Fatal(err)
		}
		if len(pool) < 2 {
			if !q.replanDirty || !slices.EqualFunc(before, q.units, sameSlot) {
				t.Fatal("a pool too small to re-plan changed the table or settled the re-plan")
			}
			return
		}
		if q.replanDirty {
			t.Fatal("re-plan of a poolable table committed no plan")
		}
		for i, u := range before {
			if !pooled[i] && !sameSlot(u, q.units[i]) {
				t.Fatalf("slot %d outside the pool changed: %+v -> %+v", i, u, q.units[i])
			}
		}

		var total, campaign, largest float64
		for _, c := range pool {
			total += q.cost.estimate(c)
			largest = max(largest, q.cost.estimate(c))
		}
		for c := range q.cellsByIdx {
			campaign += q.cost.estimate(c)
		}
		bins := len(pooled)
		if target := campaign / float64(m.Units); target > 0 {
			bins = int(math.Round(total / target))
		}
		bins = min(max(bins, 1), len(pool))
		limit := total/float64(bins) + largest
		limit += limit * 1e-9 // rounding in the running sum

		covered, made := 0, 0
		for i, u := range q.units {
			if i < len(before) && (!pooled[i] || u.State == UnitRetired && len(u.Cells) == 0) {
				continue
			}
			if u.State != UnitPending || len(u.Cells) == 0 {
				t.Fatalf("re-planned slot %d is %s with %d cells", i, u.State, len(u.Cells))
			}
			made++
			if !slices.Equal(u.Cells, pool[covered:min(covered+len(u.Cells), len(pool))]) {
				t.Fatalf("slot %d cells %v are not the next run of the sorted pool at %d", i, u.Cells, covered)
			}
			covered += len(u.Cells)
			var cost float64
			for _, c := range u.Cells {
				cost += q.cost.estimate(c)
			}
			if cost > limit {
				t.Fatalf("slot %d costs %g, over total/bins %g plus the largest cell %g", i, cost, total/float64(bins), largest)
			}
		}
		if covered != len(pool) {
			t.Fatalf("re-planned units cover %d of %d pooled cells", covered, len(pool))
		}
		if made > bins {
			t.Fatalf("re-plan made %d units, want at most %d", made, bins)
		}
	})
}

// sameSlot compares the fields of a slot that re-planning could touch.
func sameSlot(a, b memUnit) bool {
	return a.State == b.State && slices.Equal(a.Cells, b.Cells) && a.Token == b.Token &&
		a.Strikes == b.Strikes && a.Partial == b.Partial && a.Done == b.Done
}
