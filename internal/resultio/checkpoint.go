package resultio

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/pattern"
)

// CheckpointVersion identifies the classic dense-grid checkpoint
// schema. Fleet campaigns, whose cells carry distribution-fold state,
// write CheckpointVersionFleet; grid campaigns keep writing version 1
// so their checkpoint bytes are unchanged by the fold refactor.
const CheckpointVersion = 1

// CheckpointVersionFleet marks checkpoints whose cells include fleet
// fold state (AggregateState.Fleet). Readers accept both versions;
// pre-fleet readers reject version 2 instead of silently
// misinterpreting sketch state.
const CheckpointVersionFleet = 2

// Sentinel errors for checkpoint validation; callers branch with
// errors.Is.
var (
	// ErrBadCheckpoint reports a file that is not a readable checkpoint
	// (truncated, not JSON, or an unsupported schema version).
	ErrBadCheckpoint = errors.New("resultio: bad checkpoint")
	// ErrConfigMismatch reports a checkpoint written under a different
	// study configuration: its per-cell aggregates are not comparable
	// and must not be resumed or merged.
	ErrConfigMismatch = errors.New("resultio: checkpoint config mismatch")
)

// Checkpoint persists the per-cell aggregates of one campaign shard (or
// of a whole campaign). Unlike Archive, which stores the rendered
// tables and figures, a checkpoint stores the mergeable state they are
// derived from, so partial runs can be resumed and shards fused.
type Checkpoint struct {
	Version int `json:"version"`
	// Fingerprint is core.StudyConfig.Fingerprint() of the producing
	// study; resume and merge require an exact match.
	Fingerprint string `json:"fingerprint"`
	// Shard is the producing shard in "i/n" form ("" = whole grid).
	Shard string `json:"shard,omitempty"`
	// Cells are the completed cells, sorted by (module, pattern,
	// tAggON, scenario) so equal states serialize to equal bytes.
	Cells []CellRecord `json:"cells"`
}

// CellRecord is one persisted cell. Scenario is empty for the default
// scenario, so pre-scenario checkpoints parse unchanged and default
// campaigns keep writing byte-identical files.
type CellRecord struct {
	Module   string              `json:"module"`
	Pattern  string              `json:"pattern"`
	AggOnNs  int64               `json:"taggonNs"`
	Scenario string              `json:"scenario,omitempty"`
	Agg      core.AggregateState `json:"agg"`
}

// NewCheckpoint packs a study snapshot into a checkpoint, deterministically
// ordered.
func NewCheckpoint(fingerprint string, shard core.ShardPlan, cells map[core.CellKey]core.AggregateState) *Checkpoint {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: fingerprint,
		Shard:       shard.String(),
		Cells:       make([]CellRecord, 0, len(cells)),
	}
	for key, st := range cells {
		if st.Fleet != nil {
			cp.Version = CheckpointVersionFleet
		}
		cp.Cells = append(cp.Cells, CellRecord{
			Module:   key.Module,
			Pattern:  key.Kind.Short(),
			AggOnNs:  key.AggOn.Nanoseconds(),
			Scenario: key.Scenario,
			Agg:      st,
		})
	}
	sortCells(cp.Cells)
	return cp
}

func sortCells(cells []CellRecord) {
	sort.Slice(cells, func(i, j int) bool { return compareCells(&cells[i], &cells[j]) < 0 })
}

// compareCells orders records by (module, pattern, tAggON, scenario),
// the order NewCheckpoint writes.
func compareCells(a, b *CellRecord) int {
	if c := strings.Compare(a.Module, b.Module); c != 0 {
		return c
	}
	if c := strings.Compare(a.Pattern, b.Pattern); c != 0 {
		return c
	}
	if c := cmp.Compare(a.AggOnNs, b.AggOnNs); c != 0 {
		return c
	}
	return strings.Compare(a.Scenario, b.Scenario)
}

// MergePartial folds delta's cells into base's and returns the union as
// a new checkpoint in NewCheckpoint order, with delta's fingerprint and
// shard and the version its cells call for. A cell present in both
// takes delta's record: the later one wins. Queues use it to merge a
// worker's incremental intra-unit checkpoint into the unit's stored
// partial, so it never modifies an input — stored partials are shared
// with LoadPartial answers and compaction snapshots — and an input
// that is not in canonical order (a hand-built checkpoint, say) is
// sorted in a copy first. base may be nil; delta must not be. Neither
// input may repeat a cell; callers validate that (CellMap) first.
func MergePartial(base, delta *Checkpoint) *Checkpoint {
	var old []CellRecord
	if base != nil {
		old = sortedCells(base.Cells)
	}
	add := sortedCells(delta.Cells)
	out := &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: delta.Fingerprint,
		Shard:       delta.Shard,
		Cells:       make([]CellRecord, 0, len(old)+len(add)),
	}
	i, j := 0, 0
	for i < len(old) && j < len(add) {
		switch c := compareCells(&old[i], &add[j]); {
		case c < 0:
			out.Cells = append(out.Cells, old[i])
			i++
		case c > 0:
			out.Cells = append(out.Cells, add[j])
			j++
		default:
			out.Cells = append(out.Cells, add[j])
			i++
			j++
		}
	}
	out.Cells = append(out.Cells, old[i:]...)
	out.Cells = append(out.Cells, add[j:]...)
	for k := range out.Cells {
		if out.Cells[k].Agg.Fleet != nil {
			out.Version = CheckpointVersionFleet
			break
		}
	}
	return out
}

// sortedCells returns cells in canonical order: cells itself when it
// already is, otherwise a sorted copy.
func sortedCells(cells []CellRecord) []CellRecord {
	for k := 1; k < len(cells); k++ {
		if compareCells(&cells[k-1], &cells[k]) >= 0 {
			sorted := slices.Clone(cells)
			sortCells(sorted)
			return sorted
		}
	}
	return cells
}

// CellMap converts the checkpoint back into the form core.Study.Seed
// accepts. A well-formed checkpoint never repeats a cell (NewCheckpoint
// builds from a map), so duplicates mark a corrupted or hand-edited
// file and fail with ErrBadCheckpoint rather than silently merging.
func (cp *Checkpoint) CellMap() (map[core.CellKey]core.AggregateState, error) {
	out := make(map[core.CellKey]core.AggregateState, len(cp.Cells))
	for _, rec := range cp.Cells {
		kind, err := pattern.ParseShort(rec.Pattern)
		if err != nil {
			return nil, fmt.Errorf("%w: cell %s: %v", ErrBadCheckpoint, rec.Module, err)
		}
		key := core.CellKey{Module: rec.Module, Kind: kind, AggOn: time.Duration(rec.AggOnNs), Scenario: rec.Scenario}
		if _, ok := out[key]; ok {
			return nil, fmt.Errorf("%w: duplicate cell %v", ErrBadCheckpoint, key)
		}
		out[key] = rec.Agg
	}
	return out, nil
}

// SaveCheckpoint writes the checkpoint as indented JSON.
func SaveCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cp); err != nil {
		return fmt.Errorf("resultio: encode checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint and validates its schema version.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if cp.Version != CheckpointVersion && cp.Version != CheckpointVersionFleet {
		return nil, fmt.Errorf("%w: version %d (want %d or %d)",
			ErrBadCheckpoint, cp.Version, CheckpointVersion, CheckpointVersionFleet)
	}
	if cp.Fingerprint == "" {
		return nil, fmt.Errorf("%w: missing config fingerprint", ErrBadCheckpoint)
	}
	return &cp, nil
}

// WriteFileAtomic atomically replaces path with data: write to a temp
// file in the same directory, fsync, rename. A crash at any point
// leaves either the previous content or the new one, never a torn
// file; at worst a stale *.tmp* sibling survives, which readers must
// ignore. Shared by checkpoint persistence and the dispatch WAL's
// snapshot compaction.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("resultio: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("resultio: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resultio: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultio: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultio: commit %s: %w", path, err)
	}
	return nil
}

// WriteCheckpointFile atomically replaces path with the checkpoint
// (write to a temp file in the same directory, fsync, rename), so a
// crash mid-checkpoint can never destroy the previous good state.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// ReadCheckpointFile loads a checkpoint from disk and, when wantFingerprint
// is non-empty, verifies it was produced under that configuration.
func ReadCheckpointFile(path string, wantFingerprint string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if wantFingerprint != "" && cp.Fingerprint != wantFingerprint {
		return nil, fmt.Errorf("%s: %w: checkpoint %s vs study %s", path, ErrConfigMismatch, cp.Fingerprint, wantFingerprint)
	}
	return cp, nil
}

// MergeCheckpointFiles reads and fuses shard checkpoint files,
// validating each against wantFingerprint (empty = take the first
// file's), and attributes every failure — unreadable file, fingerprint
// mismatch, or a cell appearing twice — to the path (or pair of paths)
// that caused it. This is the operator-facing variant of
// MergeCheckpoints: when a 12-shard merge fails, the error names the
// offending file instead of an input index.
func MergeCheckpointFiles(wantFingerprint string, paths ...string) (*Checkpoint, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: nothing to merge", ErrBadCheckpoint)
	}
	merged := make(map[core.CellKey]core.AggregateState)
	source := make(map[core.CellKey]string)
	fp := wantFingerprint
	for _, path := range paths {
		cp, err := ReadCheckpointFile(path, fp)
		if err != nil {
			return nil, err
		}
		if fp == "" {
			fp = cp.Fingerprint
		}
		cells, err := cp.CellMap()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for key, st := range cells {
			if prev, ok := source[key]; ok {
				return nil, fmt.Errorf("%s: %w: cell %v already present in %s; same shard listed twice?",
					path, ErrConfigMismatch, key, prev)
			}
			source[key] = path
			merged[key] = st
		}
	}
	return NewCheckpoint(fp, core.ShardPlan{}, merged), nil
}

// MergeCheckpoints fuses shard checkpoints into one whole-campaign
// checkpoint. All inputs must share a fingerprint (ErrConfigMismatch
// otherwise). Because ShardPlan partitions at cell granularity, shard
// checkpoints of one campaign are disjoint by construction; a cell
// appearing in two inputs means an operator error (the same shard file
// listed twice, or an old and new checkpoint of the same shard), and
// merging it would silently double-count observations — it is rejected
// with ErrConfigMismatch instead.
func MergeCheckpoints(cps ...*Checkpoint) (*Checkpoint, error) {
	if len(cps) == 0 {
		return nil, fmt.Errorf("%w: nothing to merge", ErrBadCheckpoint)
	}
	fp := cps[0].Fingerprint
	merged := make(map[core.CellKey]core.AggregateState)
	for i, cp := range cps {
		if cp.Fingerprint != fp {
			return nil, fmt.Errorf("%w: %s vs %s", ErrConfigMismatch, cp.Fingerprint, fp)
		}
		cells, err := cp.CellMap()
		if err != nil {
			return nil, err
		}
		for key, st := range cells {
			if _, ok := merged[key]; ok {
				return nil, fmt.Errorf("%w: cell %v appears in several checkpoints (input %d, shard %q); same shard listed twice?",
					ErrConfigMismatch, key, i+1, cp.Shard)
			}
			merged[key] = st
		}
	}
	return NewCheckpoint(fp, core.ShardPlan{}, merged), nil
}
