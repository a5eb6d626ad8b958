package core

import (
	"context"
	"fmt"
	"sync"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
)

// fleetJob is one (chip block, pattern, tAggON, scenario) cell of a
// fleet run. Unlike grid cells, a block is not split further: its
// chips must stream through the fold in ascending order, and blocks
// are numerous enough (fleet/ChipsPerCell) to keep the pool busy.
type fleetJob struct {
	key      CellKey
	block    int
	spec     pattern.Spec
	scenario Scenario
	opts     RunOpts
}

// runFleet executes the selected cells of a fleet campaign. It
// mirrors Run's pool/checkpoint/progress behavior with blocks as the
// unit of work.
func (s *Study) runFleet(ctx context.Context) error {
	plan := *s.cfg.Fleet
	if err := plan.Validate(); err != nil {
		return err
	}
	scByID := make(map[string]Scenario)
	optsByID := make(map[string]RunOpts)
	for _, sc := range s.cfg.scenarios() {
		opts, err := sc.resolveOpts(s.cfg.Opts)
		if err != nil {
			return err
		}
		scByID[sc.ID] = sc
		optsByID[sc.ID] = opts
	}
	grid := s.Cells()
	selected, err := s.selectCells(grid)
	if err != nil {
		return err
	}
	var jobs []*fleetJob
	for idx, key := range grid {
		if !selected(idx) {
			continue
		}
		if _, ok := s.ResultCell(key); ok {
			continue // restored from a checkpoint
		}
		block, ok := ParseFleetBlockID(key.Module)
		if !ok || block >= plan.Blocks() {
			return fmt.Errorf("core: fleet cell %v: bad block id", key)
		}
		spec, err := pattern.New(key.Kind, key.AggOn, s.cfg.Timings)
		if err != nil {
			return fmt.Errorf("fleet block %d: %w", block, err)
		}
		jobs = append(jobs, &fleetJob{
			key:      key,
			block:    block,
			spec:     spec,
			scenario: scByID[key.Scenario],
			opts:     optsByID[key.Scenario],
		})
	}

	ck := s.newCheckpointer(len(jobs))
	jobCh := make(chan *fleetJob)
	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := new(EngineScratch)
			for job := range jobCh {
				res, err := s.runFleetBlock(&plan, job, scratch)
				if err != nil {
					fail(err)
					return
				}
				s.mu.Lock()
				s.results[job.key] = res
				s.mu.Unlock()
				if err := ck.cellDone(); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

feed:
	for _, job := range jobs {
		select {
		case jobCh <- job:
		case <-ctx.Done():
			break feed
		case err := <-errCh:
			close(jobCh)
			wg.Wait()
			return err
		}
	}
	close(jobCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ck.save()
}

// fleetVictims picks the per-chip victim sample: the first
// RowsPerChip rows of the paper's three-region sampling for the
// chip's geometry. Deterministic per geometry; chip-to-chip variation
// enters through the derived profile, not the row choice.
func fleetVictims(numRows, rowsPerChip int) []int {
	perRegion := (rowsPerChip + 2) / 3
	rows := PaperRows(numRows, perRegion)
	return rows[:rowsPerChip]
}

// runFleetBlock derives and characterizes every chip of one block in
// ascending chip order, streaming row results into a fleet fold. The
// block's fold state depends only on the study config and block
// index. Bank-backed engines are built from scratch, the calling pool
// goroutine's storage.
func (s *Study) runFleetBlock(plan *FleetPlan, job *fleetJob, scratch *EngineScratch) (*ModuleResult, error) {
	lo, hi := plan.BlockRange(job.block)
	model := plan.Population()
	perChip := s.cfg.Runs * plan.RowsPerChip
	groups := make([]string, hi-lo)
	fold := newFleetAggregate(perChip, groups)
	opts := job.opts
	var res RowResult
	for i := lo; i < hi; i++ {
		chip := model.Derive(i)
		off := i - lo
		groups[off] = chip.GroupKey()
		profile := device.DieProfile(chip.Info.Profile(s.cfg.Params), 0)
		numRows, rowBytes := chip.Info.Geometry()
		victims := fleetVictims(numRows, plan.RowsPerChip)
		if job.scenario.usesAnalytic() {
			eng, err := NewAnalyticEngine(AnalyticConfig{
				Profile:  profile,
				Params:   s.cfg.Params,
				Bank:     s.cfg.Bank,
				NumRows:  numRows,
				RowBytes: rowBytes,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet chip %d: %w", i, err)
			}
			for run := 0; run < s.cfg.Runs; run++ {
				opts.Run = int64(run)
				for _, victim := range victims {
					if err := eng.CharacterizeRowInto(victim, job.spec, opts, &res); err != nil {
						return nil, fmt.Errorf("fleet chip %d row %d: %w", i, victim, err)
					}
					fold.Observe(off, res)
				}
			}
			continue
		}
		for run := 0; run < s.cfg.Runs; run++ {
			env := EngineEnv{
				Profile:  profile,
				Params:   s.cfg.Params,
				Timings:  s.cfg.Timings,
				Bank:     s.cfg.Bank,
				NumRows:  numRows,
				RowBytes: rowBytes,
				Run:      int64(run),
				Scratch:  scratch,
			}
			eng, err := newScenarioEngine(env, job.scenario)
			if err != nil {
				return nil, fmt.Errorf("fleet chip %d scenario %q: %w", i, job.key.Scenario, err)
			}
			opts.Run = int64(run)
			for _, victim := range victims {
				rr, err := eng.CharacterizeRow(victim, job.spec, opts)
				if err != nil {
					return nil, fmt.Errorf("fleet chip %d scenario %q row %d: %w", i, job.key.Scenario, victim, err)
				}
				fold.Observe(off, rr)
			}
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
