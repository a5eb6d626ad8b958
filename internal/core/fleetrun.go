package core

import (
	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
)

// fleetVictims picks the per-chip victim sample: the first
// RowsPerChip rows of the paper's three-region sampling for the
// chip's geometry. Deterministic per geometry; chip-to-chip variation
// enters through the derived profile, not the row choice.
func fleetVictims(numRows, rowsPerChip int) []int {
	perRegion := (rowsPerChip + 2) / 3
	rows := PaperRows(numRows, perRegion)
	return rows[:rowsPerChip]
}

// runBlock derives and characterizes every chip of one fleet block in
// ascending chip order, folding each chip's results in (run, row)
// order, so the block's fold state depends only on the study config
// and block index. The chip's results pass through scratch, the
// calling pool goroutine's storage, so a block allocates nothing per
// chip for them.
func (s *Study) runBlock(job *cellJob, scratch *EngineScratch) (*ModuleResult, error) {
	plan := s.cfg.Fleet
	lo, hi := plan.BlockRange(job.block)
	model := plan.Population()
	perChip := s.cfg.Runs * plan.RowsPerChip
	groups := make([]string, hi-lo)
	fold := newFleetAggregate(perChip, groups)
	if cap(scratch.obs) < perChip {
		scratch.obs = make([]RowObservation, perChip)
	}
	obs := scratch.obs[:perChip]
	for i := lo; i < hi; i++ {
		chip := model.Derive(i)
		groups[i-lo] = chip.GroupKey()
		numRows, rowBytes := chip.Info.Geometry()
		env := EngineEnv{
			Profile:  device.DieProfile(chip.Info.Profile(s.cfg.Params), 0),
			Params:   s.cfg.Params,
			Timings:  s.cfg.Timings,
			Bank:     s.cfg.Bank,
			NumRows:  numRows,
			RowBytes: rowBytes,
			Scratch:  scratch,
		}
		var err error
		scratch.flips, err = s.characterize(job, env, fleetVictims(numRows, plan.RowsPerChip), i, obs, scratch.flips[:0])
		if err != nil {
			return nil, err
		}
		for k := range obs {
			fold.Observe(i-lo, obs[k].RowResult)
		}
	}
	// The block has no single underlying DIMM; ModuleResult carries a
	// placeholder identity with the block ID.
	return &ModuleResult{
		Info: chipdb.ModuleInfo{ID: job.key.Module},
		Spec: job.spec,
		agg:  fold,
	}, nil
}
