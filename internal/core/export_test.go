package core

import "time"

// CheckpointBudget is the compute time the default checkpoint cadence
// lets pass between checkpoints.
const CheckpointBudget = checkpointBudget

// SetCheckpointClock makes the checkpoint cadence read now instead of
// the wall clock, until the returned function restores it. Tests that
// call it must not run in parallel with other Study runs.
func SetCheckpointClock(now func() time.Time) (restore func()) {
	prev := checkpointNow
	checkpointNow = now
	return func() { checkpointNow = prev }
}
