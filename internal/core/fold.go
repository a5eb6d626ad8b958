package core

// Fold is the sink Study.Run streams per-row results into, one fold
// per grid cell. The classic dense grid aggregate (cellAggregate) and
// the fleet distribution fold (fleetAggregate) are the two
// implementations; checkpoints persist whichever State a cell's fold
// exports, and Seed reconstructs the right fold from that state.
//
// Contract: Observe is called in a deterministic (die/chip, run, row)
// order, so fold state is byte-identical across schedulers and shards.
// Study.Run's per-die helper stores each die's or chip's results in
// (run, row) slots whatever order its engine ran them in; finishCell
// folds a grid cell's dies in order, and runBlock folds a fleet
// block's chips in ascending order, each as soon as it completes.
// State must be deterministic (equal observation streams yield equal
// serialized states) and must not mutate the fold.
type Fold interface {
	// Observe folds one row measurement. die is the die index for
	// grid cells and the chip offset within the block for fleet
	// cells.
	Observe(die int, rr RowResult)
	// Total reports the number of observations folded in.
	Total() int
	// State exports the fold for checkpointing.
	State() AggregateState
}

// foldFromState reconstructs the cell's fold from persisted state:
// fleet states (Fleet set) restore a fleet fold, everything else the
// dense grid aggregate.
func foldFromState(st AggregateState) (Fold, error) {
	if st.Fleet != nil {
		return fleetFromState(st)
	}
	return aggregateFromState(st), nil
}
