package resultio

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/pattern"
)

// fuzzCellKeys is the universe FuzzMergePartial draws cells from: 72
// keys over every ordering field, of which a uint64 set picks up to 64.
func fuzzCellKeys() []core.CellKey {
	var keys []core.CellKey
	for _, mod := range []string{"S0", "H1", "M1", "fleet-0002"} {
		for _, kind := range []pattern.Kind{pattern.SingleSided, pattern.DoubleSided, pattern.Combined} {
			for _, on := range []time.Duration{36 * time.Nanosecond, 7800 * time.Nanosecond, 70200 * time.Nanosecond} {
				for _, sc := range []string{"", "trr"} {
					keys = append(keys, core.CellKey{Module: mod, Kind: kind, AggOn: on, Scenario: sc})
				}
			}
		}
	}
	return keys
}

// fuzzPartial builds a checkpoint of the keys whose bits are set, with
// aggregates derived from tag so two records of one cell differ. Fleet
// checkpoints carry fold state on every cell (version 2); reversed
// ones list their cells out of canonical order, as a hand-built one
// might.
func fuzzPartial(set uint64, tag uint64, fleet, reversed bool) *Checkpoint {
	cells := make(map[core.CellKey]core.AggregateState)
	for i, key := range fuzzCellKeys()[:64] {
		if set>>i&1 == 0 {
			continue
		}
		st := core.AggregateState{Total: int(tag%1000) + i, Flips: i, FlipKeys: []uint64{uint64(i), tag}}
		if fleet {
			st.Fleet = &core.FleetAggState{Groups: []core.FleetGroupState{{Key: key.Module, Chips: tag, Flipped: uint64(i)}}}
		}
		cells[key] = st
	}
	cp := NewCheckpoint("fp", core.ShardPlan{}, cells)
	if reversed {
		slices.Reverse(cp.Cells)
	}
	return cp
}

func fuzzBytes(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzMergePartial pins MergePartial to its definition: the union of
// base and delta that CellMap plus NewCheckpoint build, delta's record
// winning on a shared cell, in canonical order and with the version
// its cells call for — without changing either input.
func FuzzMergePartial(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(7), false, false, false)
	f.Add(uint64(0b1011), uint64(0b0110), uint64(3), false, true, false)
	f.Add(uint64(0xf0f0), uint64(0xff00), uint64(11), true, true, true)
	f.Add(^uint64(0), uint64(0x8000000000000001), uint64(42), true, false, true)
	f.Fuzz(func(t *testing.T, baseSet, deltaSet, tag uint64, baseFleet, deltaFleet, reversed bool) {
		var base *Checkpoint
		if baseSet != 0 {
			base = fuzzPartial(baseSet, tag, baseFleet, reversed)
		}
		delta := fuzzPartial(deltaSet, tag+1, deltaFleet, reversed)

		union := make(map[core.CellKey]core.AggregateState)
		var baseBefore []byte
		if base != nil {
			cells, err := base.CellMap()
			if err != nil {
				t.Fatal(err)
			}
			union = cells
			baseBefore = fuzzBytes(t, base)
		}
		later, err := delta.CellMap()
		if err != nil {
			t.Fatal(err)
		}
		for key, st := range later {
			union[key] = st
		}
		deltaBefore := fuzzBytes(t, delta)
		want := fuzzBytes(t, NewCheckpoint(delta.Fingerprint, core.ShardPlan{}, union))

		got := fuzzBytes(t, MergePartial(base, delta))
		if !bytes.Equal(got, want) {
			t.Fatalf("MergePartial =\n%s\nwant the union\n%s", got, want)
		}
		if base != nil && !bytes.Equal(fuzzBytes(t, base), baseBefore) {
			t.Fatal("MergePartial changed its base")
		}
		if !bytes.Equal(fuzzBytes(t, delta), deltaBefore) {
			t.Fatal("MergePartial changed its delta")
		}
	})
}
