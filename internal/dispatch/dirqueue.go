package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/faultpoint"
	"rowfuse/internal/resultio"
)

// DirQueue coordinates a campaign through a shared directory — NFS, a
// bind-mounted volume, anything every worker can reach — with no
// server process at all. The directory is the queue:
//
//	manifest.json    the campaign description (written once by InitDir)
//	lease_0007.json  unit 7 is leased (exclusively-created, atomically
//	                 rewritten by heartbeats)
//	part_0007.json   unit 7's intra-unit checkpoint (the leaseholder's
//	                 new cells merged in and the file atomically
//	                 replaced as it progresses; what a re-granted
//	                 lease resumes from)
//	done_0007.json   unit 7's accepted checkpoint (exclusively linked
//	                 into place; immutable once it exists)
//	cost_0007.json   unit 7's observed compute cost (best-effort
//	                 sidecar feeding the acquire-order cost model)
//
// Exclusivity rides on os.Link's EEXIST semantics (atomic on POSIX
// filesystems including NFS), so two workers racing for one unit — or
// racing to steal one expired lease — resolve to exactly one owner.
// Filesystems without hard-link support (overlayfs quirks, some CI
// mounts) are detected by a probe at InitDir time; the decision is
// persisted in the directory (uses-lock-files marker) so every worker
// coordinates in the same mode, and the queue falls back to
// O_CREATE|O_EXCL ".claim" lock files: the claim grants ownership of a
// name, the payload then lands via atomic rename, so readers never
// observe torn files in either mode.
// Stealing is delete-then-claim: any worker that finds an expired
// lease removes it and retries the exclusive claim. A heartbeat
// rewrites the lease via rename; the narrow race where a slow worker's
// heartbeat lands over a thief's fresh lease costs at most one
// redundant (deterministic, byte-identical) unit computation — the
// done-file link still admits exactly one submission per unit.
//
// A directory has no coordinator process, so DirQueue does not re-plan
// unit boundaries (two workers re-partitioning the same directory
// concurrently cannot be made atomic without a server — exactly what
// MemQueue/campaignd is for). It still records per-submission cost
// sidecars and grants the most expensive remaining unit first (LPT
// scheduling), which attacks the straggler tail from the ordering
// side; intra-unit checkpoints cover the dead-worker half.
type DirQueue struct {
	dir       string
	manifest  Manifest
	grid      map[core.CellKey]int
	unitCells [][]int
	now       func() time.Time
	hardLinks bool

	costMu     sync.Mutex
	cost       *costModel
	costLoaded map[int]bool
	// partCov caches each unit's partial-checkpoint cost coverage keyed
	// by the part file's (mtime, size), so idle acquire polls stat the
	// file instead of re-parsing a checkpoint that has not changed.
	partCov map[int]partCoverage
}

// partCoverage is one cached partial-checkpoint cost estimate.
type partCoverage struct {
	modTime time.Time
	size    int64
	covered float64
}

const manifestFile = "manifest.json"

// lockModeFile marks a campaign directory as lock-file-coordinated.
// The mode is decided once, at InitDir time, and persisted: if every
// worker probed independently, one transient probe failure would put
// that worker in lock-file mode among hard-link peers, and the two
// protocols do not exclude against each other.
const lockModeFile = "uses-lock-files"

func leaseFile(unit int) string  { return fmt.Sprintf("lease_%04d.json", unit) }
func doneFile(unit int) string   { return fmt.Sprintf("done_%04d.json", unit) }
func partFile(unit int) string   { return fmt.Sprintf("part_%04d.json", unit) }
func costFile(unit int) string   { return fmt.Sprintf("cost_%04d.json", unit) }
func strikeFile(unit int) string { return fmt.Sprintf("strike_%04d.json", unit) }
func quarFile(unit int) string   { return fmt.Sprintf("quar_%04d.json", unit) }

// SupportsHardLinks probes whether dir's filesystem honors hard links
// (os.Link), the primitive DirQueue's exclusive claims prefer. The
// probe is empirical — it links a scratch file — because overlayfs
// variants and restricted mounts fail os.Link with errors that cannot
// be enumerated portably. Any failure selects the lock-file fallback,
// which works everywhere.
func SupportsHardLinks(dir string) bool {
	src, err := os.CreateTemp(dir, ".linkprobe*")
	if err != nil {
		return false
	}
	srcName := src.Name()
	src.Close()
	defer os.Remove(srcName)
	dst := srcName + ".lnk"
	if err := os.Link(srcName, dst); err != nil {
		return false
	}
	os.Remove(dst)
	return true
}

// InitDir creates (if needed) dir and writes the campaign manifest
// into it. A directory already holding a manifest is refused: one
// directory is one campaign. Hard-link support is probed here, at init
// time, so a campaign landing on a link-less filesystem starts in
// lock-file mode from its first worker rather than failing mid-drain.
func InitDir(dir string, m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dispatch: init %s: %w", dir, err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("dispatch: encode manifest: %w", err)
	}
	// Refuse an already-initialized directory before touching anything,
	// so a stray re-init cannot flip an existing campaign's lock mode
	// (the exclusiveCreate below remains the authoritative race guard).
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return fmt.Errorf("dispatch: %s already holds a campaign manifest", dir)
	}
	links := SupportsHardLinks(dir)
	if !links {
		// Persist the decision before the manifest: a worker that sees
		// the manifest must also see the mode.
		if err := os.WriteFile(filepath.Join(dir, lockModeFile), []byte("1\n"), 0o644); err != nil {
			return fmt.Errorf("dispatch: record lock mode: %w", err)
		}
	}
	if err := exclusiveCreate(dir, manifestFile, append(data, '\n'), links, time.Minute); err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("dispatch: %s already holds a campaign manifest", dir)
		}
		return err
	}
	return nil
}

// DirUsesLockFiles reports whether an initialized campaign directory
// was recorded (at InitDir time) as coordinating through O_EXCL lock
// files rather than hard links. This reads the persisted decision —
// the one every worker follows — not a fresh probe.
func DirUsesLockFiles(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, lockModeFile))
	return err == nil
}

// OpenDir opens an initialized campaign directory.
func OpenDir(dir string) (*DirQueue, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("dispatch: open campaign dir: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", filepath.Join(dir, manifestFile), err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, manifestFile), err)
	}
	grid, cellsByIdx, err := m.grid()
	if err != nil {
		return nil, err
	}
	unitCells := make([][]int, m.Units)
	for unit := range unitCells {
		unitCells[unit] = m.UnitCells(unit)
	}
	// The coordination mode is campaign state, not a per-process choice:
	// InitDir recorded lock-file mode if (and only if) the directory's
	// filesystem failed the hard-link probe. A hard-link campaign opened
	// from a mount that cannot link must refuse to participate — mixing
	// the two protocols in one directory would break exclusivity.
	hardLinks := !DirUsesLockFiles(dir)
	if hardLinks && !SupportsHardLinks(dir) {
		return nil, fmt.Errorf("dispatch: %s was initialized for hard-link coordination but this mount does not support hard links; re-init the campaign on this filesystem", dir)
	}
	return &DirQueue{
		dir:        dir,
		manifest:   m,
		grid:       grid,
		unitCells:  unitCells,
		now:        time.Now,
		hardLinks:  hardLinks,
		cost:       newCostModel(m, cellsByIdx),
		costLoaded: make(map[int]bool),
		partCov:    make(map[int]partCoverage),
	}, nil
}

// exclusiveCreate atomically creates name in dir with content, failing
// with os.ErrExist if name already exists (or is exclusively claimed).
//
// With hard links: write a private temp file, link it into place,
// remove the temp name — one atomic primitive does both exclusivity
// and full-content visibility.
//
// Without: ownership of the name is claimed via O_CREATE|O_EXCL on a
// persistent "name.claim" lock file, then the payload lands through an
// atomic rename, so a reader still never sees a torn file. A claim
// whose payload never arrived (the claimant crashed in between) goes
// stale after staleAfter and is broken by the next creator (see
// breakStaleClaim). Breaking a stale claim — or finding it vanished
// between the open and the stat — is followed by a jittered backoff
// and a bounded retry: retrying only once could live-lock two racing
// workers that keep breaking each other's half-built claims in
// lockstep, and jitter tears the symmetry.
func exclusiveCreate(dir, name string, content []byte, hardLinks bool, staleAfter time.Duration) error {
	if err := faultpoint.Check("dir.claim"); err != nil {
		return fmt.Errorf("dispatch: claim %s: %w", name, err)
	}
	if hardLinks {
		return linkExclusive(dir, name, content)
	}
	final := filepath.Join(dir, name)
	claim := final + ".claim"
	const claimAttempts = 6
	for attempt := 0; attempt < claimAttempts; attempt++ {
		if attempt > 0 {
			// Jittered exponential backoff, capped well under a lease
			// TTL: 1, 2, 4, 8, then 16ms (±10%).
			d := time.Millisecond << (attempt - 1)
			if d > 16*time.Millisecond {
				d = 16 * time.Millisecond
			}
			time.Sleep(jitter(d))
		}
		f, err := os.OpenFile(claim, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			f.Close()
			// A final file that exists without a claim is either a
			// mixed-protocol artifact or the mid-window state of
			// removeExclusive (claim removed, final not yet): never
			// replace it, and release the claim we just took so the
			// name is not wedged behind a stray lock.
			if _, serr := os.Stat(final); serr == nil {
				os.Remove(claim)
				return os.ErrExist
			}
			if err := replaceAtomic(dir, name, content); err != nil {
				os.Remove(claim)
				return err
			}
			return nil
		}
		if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("dispatch: claim %s: %w", name, err)
		}
		if _, serr := os.Stat(final); serr == nil {
			return os.ErrExist
		}
		// Claimed but no payload: a creator is mid-flight, or crashed.
		fi, serr := os.Stat(claim)
		switch {
		case errors.Is(serr, os.ErrNotExist):
			// The claim vanished between the open and the stat: its
			// holder either just landed the payload (the final-file
			// check next attempt will see it) or aborted (the name is
			// free again). Either way the picture is stale — retry.
		case serr != nil:
			return fmt.Errorf("dispatch: claim %s: %w", name, serr)
		case staleAfter > 0 && q0Now().Sub(fi.ModTime()) > staleAfter:
			// Crashed creator: break the claim and retry.
			if err := breakStaleClaim(final, claim, staleAfter); err != nil {
				return fmt.Errorf("dispatch: claim %s: %w", name, err)
			}
		default:
			return os.ErrExist // live claim, creator mid-flight
		}
	}
	return os.ErrExist
}

// breakStaleClaim removes a crashed creator's claim. Breakers take
// turns under an O_CREATE|O_EXCL "name.claim.break" lock and re-check,
// under it, that the payload is still absent and the claim still
// stale: a racer that saw the same stale claim and removed it by name
// could otherwise delete the fresh claim a faster breaker had just
// taken, leaving that winner without a claim or handing the name to
// two owners. A break lock older than staleAfter belongs to a crashed
// breaker and is removed. A nil return means "retry the claim",
// whoever broke it.
func breakStaleClaim(final, claim string, staleAfter time.Duration) error {
	lock := claim + ".break"
	f, err := os.OpenFile(lock, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if !errors.Is(err, os.ErrExist) {
			return err
		}
		if fi, serr := os.Stat(lock); serr == nil && q0Now().Sub(fi.ModTime()) > staleAfter {
			os.Remove(lock)
		}
		return nil // another breaker is at it
	}
	f.Close()
	defer os.Remove(lock)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	if fi, err := os.Stat(claim); err == nil && q0Now().Sub(fi.ModTime()) > staleAfter {
		os.Remove(claim)
	}
	return nil
}

// q0Now exists so exclusiveCreate's stale-claim rule uses wall time
// without threading a clock through a package-level helper; claims go
// stale on the order of lease TTLs, where real time is the contract.
func q0Now() time.Time { return time.Now() }

// removeExclusive removes name and, in lock-file mode, its claim, so
// the name becomes claimable again (lease stealing, submit cleanup).
// The claim goes first: the intermediate state is then final-without-
// claim, which exclusiveCreate refuses outright (the final-file check
// after winning a claim), whereas claim-without-final would look like
// a crashed creator and invite a concurrent stale-claim break mid-
// removal — two racers could then both claim one unit. A crash between
// the two removes leaves final-without-claim, which the steal path
// recovers by simply running removeExclusive again.
func removeExclusive(dir, name string, hardLinks bool) error {
	if !hardLinks {
		if err := os.Remove(filepath.Join(dir, name+".claim")); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// linkExclusive atomically creates name in dir with content, failing
// with os.ErrExist if name already exists: write a private temp file,
// hard-link it into place, remove the temp name.
func linkExclusive(dir, name string, content []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("dispatch: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		return fmt.Errorf("dispatch: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("dispatch: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("dispatch: close %s: %w", name, err)
	}
	if err := os.Link(tmp.Name(), filepath.Join(dir, name)); err != nil {
		if errors.Is(err, os.ErrExist) {
			return os.ErrExist
		}
		return fmt.Errorf("dispatch: link %s: %w", name, err)
	}
	return nil
}

// replaceAtomic atomically replaces name in dir with content (temp
// file, fsync, rename: resultio.WriteFileAtomic) for lease extensions
// and the strike, cost, partial and quarantine sidecars.
func replaceAtomic(dir, name string, content []byte) error {
	if err := faultpoint.Check("dir.replace"); err != nil {
		return fmt.Errorf("dispatch: replace %s: %w", name, err)
	}
	return resultio.WriteFileAtomic(filepath.Join(dir, name), content)
}

// Manifest implements Queue.
func (q *DirQueue) Manifest() (Manifest, error) { return q.manifest, nil }

// readLease loads a unit's lease file. A missing file returns
// (Lease{}, false, nil); a torn or corrupt file is treated the same as
// expired (the caller may steal it), since lease files are only ever
// written atomically.
func (q *DirQueue) readLease(unit int) (Lease, bool, error) {
	data, err := os.ReadFile(filepath.Join(q.dir, leaseFile(unit)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Lease{}, false, nil
		}
		return Lease{}, false, fmt.Errorf("dispatch: read lease %d: %w", unit, err)
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		// Corrupt lease: expire it immediately so the unit is stealable.
		return Lease{Unit: unit}, true, nil
	}
	return l, true, nil
}

func (q *DirQueue) isDone(unit int) bool {
	_, err := os.Stat(filepath.Join(q.dir, doneFile(unit)))
	return err == nil
}

// strikeState is the strike_NNNN.json sidecar schema: the unit's
// accumulated failure count. Best-effort read-modify-write — two
// thieves racing one expired lease may merge their strikes into one;
// quarantine then simply takes one extra failure, never a wrong
// result.
type strikeState struct {
	Strikes     int    `json:"strikes"`
	LastFailure string `json:"lastFailure,omitempty"`
}

// quarState is the quar_NNNN.json dead-letter marker. Its existence is
// what excludes the unit from Acquire; Dropped marks an operator
// discard.
type quarState struct {
	Strikes int    `json:"strikes"`
	Reason  string `json:"reason,omitempty"`
	Dropped bool   `json:"dropped,omitempty"`
}

func (q *DirQueue) readStrikes(unit int) strikeState {
	var ss strikeState
	data, err := os.ReadFile(filepath.Join(q.dir, strikeFile(unit)))
	if err == nil {
		_ = json.Unmarshal(data, &ss) // corrupt sidecar reads as zero
	}
	return ss
}

// readQuar loads a unit's dead-letter marker, reporting whether one
// exists. A torn or corrupt marker still quarantines (existence is the
// contract); its strikes/reason just read as zero.
func (q *DirQueue) readQuar(unit int) (quarState, bool) {
	data, err := os.ReadFile(filepath.Join(q.dir, quarFile(unit)))
	if err != nil {
		// An unreadable-but-present marker still quarantines.
		return quarState{}, !errors.Is(err, os.ErrNotExist)
	}
	var qs quarState
	_ = json.Unmarshal(data, &qs)
	return qs, true
}

func (q *DirQueue) isQuarantined(unit int) bool {
	_, ok := q.readQuar(unit)
	return ok
}

// strike records one failure against a unit under the shared strike
// rule (Manifest.strike) and reports whether the unit is now
// dead-lettered. All writes are best-effort sidecars: a lost strike
// costs one extra failure before quarantine, nothing more.
func (q *DirQueue) strike(unit int, worker string, expired bool, reported string) bool {
	strikes, state, reason := q.manifest.strike(q.readStrikes(unit).Strikes, worker, expired, reported)
	if data, err := json.Marshal(strikeState{Strikes: strikes, LastFailure: reason}); err == nil {
		_ = replaceAtomic(q.dir, strikeFile(unit), data)
	}
	if state != UnitQuarantined {
		return false
	}
	if data, err := json.Marshal(quarState{Strikes: strikes, Reason: reason}); err == nil {
		// Exclusive: the first quarantiner's record wins; a racer's
		// os.ErrExist means the unit is already dead-lettered.
		_ = q.createExclusive(quarFile(unit), data)
	}
	return true
}

// costStats is the cost_NNNN.json sidecar schema.
type costStats struct {
	ElapsedNs int64 `json:"elapsedNs"`
	Cells     int   `json:"cells"`
}

// refreshCosts folds not-yet-loaded cost sidecars of done units into
// the queue's cost model, then returns per-unit expected remaining
// cost (partial-checkpoint coverage subtracted) for acquire ordering.
func (q *DirQueue) refreshCosts(units []int) map[int]float64 {
	q.costMu.Lock()
	defer q.costMu.Unlock()
	for unit := 0; unit < q.manifest.Units; unit++ {
		if q.costLoaded[unit] || !q.isDone(unit) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(q.dir, costFile(unit)))
		if err != nil {
			continue // sidecars are best-effort; model just learns less
		}
		var cs costStats
		if json.Unmarshal(data, &cs) != nil || cs.ElapsedNs <= 0 {
			continue
		}
		q.cost.observe(q.unitCells[unit], cs.ElapsedNs)
		q.costLoaded[unit] = true
	}
	out := make(map[int]float64, len(units))
	for _, unit := range units {
		out[unit] = q.cost.unitCost(q.unitCells[unit]) - q.partialCoverage(unit)
	}
	return out
}

// partialCoverage returns the expected cost already banked in a unit's
// intra-unit checkpoint; callers hold q.costMu. The parse is cached by
// the part file's (mtime, size): with N workers polling Acquire every
// Poll interval, re-reading every candidate's full checkpoint per poll
// would hammer the shared filesystem for ordering hints.
func (q *DirQueue) partialCoverage(unit int) float64 {
	fi, err := os.Stat(filepath.Join(q.dir, partFile(unit)))
	if err != nil {
		delete(q.partCov, unit)
		return 0
	}
	if c, ok := q.partCov[unit]; ok && c.modTime.Equal(fi.ModTime()) && c.size == fi.Size() {
		return c.covered
	}
	covered := 0.0
	if cp, err := q.readPartial(unit); err == nil && cp != nil {
		if cells, err := cp.CellMap(); err == nil {
			for key := range cells {
				if idx, ok := q.grid[key]; ok {
					covered += q.cost.estimate(idx)
				}
			}
		}
	}
	q.partCov[unit] = partCoverage{modTime: fi.ModTime(), size: fi.Size(), covered: covered}
	return covered
}

// Acquire implements Queue: among not-done units, try to claim the one
// with the highest expected remaining cost first (LPT — with no cost
// observations the prior makes this "most cells first", which is the
// old index order for even partitions), falling back through the rest;
// expired leases are stolen along the way.
func (q *DirQueue) Acquire(worker string) (Lease, error) {
	now := q.now()
	var candidates []int
	for unit := 0; unit < q.manifest.Units; unit++ {
		if !q.isDone(unit) && !q.isQuarantined(unit) {
			candidates = append(candidates, unit)
		}
	}
	if len(candidates) == 0 {
		// Every unit is done or dead-lettered: the campaign drained —
		// possibly degraded, which Status/the report annotate.
		return Lease{}, ErrDrained
	}
	remaining := q.refreshCosts(candidates)
	sort.SliceStable(candidates, func(a, b int) bool {
		ca, cb := remaining[candidates[a]], remaining[candidates[b]]
		if ca != cb {
			return ca > cb
		}
		return candidates[a] < candidates[b]
	})
	for _, unit := range candidates {
		l := Lease{
			Unit: unit, Worker: worker, Token: newToken(),
			Expires: now.Add(q.manifest.LeaseTTL()),
			Cells:   append([]int(nil), q.unitCells[unit]...),
		}
		data, err := json.Marshal(l)
		if err != nil {
			return Lease{}, fmt.Errorf("dispatch: encode lease: %w", err)
		}
		err = q.createExclusive(leaseFile(unit), data)
		if err == nil {
			// Re-check the done link after winning the claim: a submit
			// can land between the candidate scan and the claim (the
			// submitter links done, then frees the lease file we just
			// reused). The done file is authoritative — hand the lease
			// back instead of granting a finished unit.
			if q.isDone(unit) {
				_ = removeExclusive(q.dir, leaseFile(unit), q.hardLinks)
				continue
			}
			return l, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return Lease{}, err
		}
		// Unit is leased; steal it if the lease has expired.
		cur, ok, err := q.readLease(unit)
		if err != nil {
			return Lease{}, err
		}
		if ok && now.After(cur.Expires) {
			// Delete-then-claim. The re-read just before Remove keeps
			// a racing thief from deleting the winner's *fresh* lease:
			// only a lease still carrying the expired token observed
			// above is removed. The read/remove window is microseconds
			// (vs. the whole scan before it); if two thieves do slip
			// through it, exactly one exclusive link wins, the loser's
			// victim notices at its next heartbeat and abandons — one
			// redundant deterministic unit in the worst case, never a
			// double-counted one (the done-file link is authoritative).
			if cur2, ok2, err := q.readLease(unit); err != nil {
				return Lease{}, err
			} else if ok2 && cur2.Token == cur.Token && now.After(cur2.Expires) {
				if err := removeExclusive(q.dir, leaseFile(unit), q.hardLinks); err != nil {
					return Lease{}, fmt.Errorf("dispatch: steal lease %d: %w", unit, err)
				}
				// The expiry we just acted on is a strike; at the
				// threshold the unit dead-letters instead of being
				// re-granted.
				if q.strike(unit, cur.Worker, true, "") {
					continue
				}
				if err := q.createExclusive(leaseFile(unit), data); err == nil {
					if q.isDone(unit) { // same scan-vs-claim race as above
						_ = removeExclusive(q.dir, leaseFile(unit), q.hardLinks)
						continue
					}
					return l, nil
				} else if !errors.Is(err, os.ErrExist) {
					return Lease{}, err
				}
			}
		}
	}
	return Lease{}, ErrNoWork
}

// createExclusive is exclusiveCreate bound to the queue's directory,
// link mode and lease TTL (the stale-claim horizon).
func (q *DirQueue) createExclusive(name string, content []byte) error {
	return exclusiveCreate(q.dir, name, content, q.hardLinks, q.manifest.LeaseTTL())
}

// Heartbeat implements Queue: verify the lease file still carries our
// token, then atomically rewrite it with a fresh expiry.
func (q *DirQueue) Heartbeat(l Lease) error {
	cur, ok, err := q.readLease(l.Unit)
	if err != nil {
		return err
	}
	if !ok || cur.Token != l.Token {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	l.Expires = q.now().Add(q.manifest.LeaseTTL())
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("dispatch: encode lease: %w", err)
	}
	return replaceAtomic(q.dir, leaseFile(l.Unit), data)
}

// Submit implements Queue: validate, then exclusively link the
// checkpoint into place as the unit's done file. The link admits
// exactly one submission per unit no matter how many workers raced the
// unit to completion. The cost sidecar and lease/partial cleanup after
// it are best-effort: once the done file exists the submission is
// accepted, whatever happens to the bookkeeping.
func (q *DirQueue) Submit(l Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	if l.Unit < 0 || l.Unit >= q.manifest.Units {
		return fmt.Errorf("dispatch: submit for unit %d of %d", l.Unit, q.manifest.Units)
	}
	// A late submit for a merely quarantined unit is accepted — the
	// work is deterministic and completing beats staying dead-lettered —
	// but an operator-dropped unit's result was explicitly discarded.
	if qs, quarantined := q.readQuar(l.Unit); quarantined && qs.Dropped {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	if err := validateUnitCheckpoint(q.manifest, q.grid, l.Unit, q.unitCells[l.Unit], cp, false); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := resultio.SaveCheckpoint(&buf, cp); err != nil {
		return err
	}
	if err := q.createExclusive(doneFile(l.Unit), buf.Bytes()); err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("unit %d: %w", l.Unit, ErrDuplicateSubmit)
		}
		return err
	}
	if elapsed > 0 {
		if data, err := json.Marshal(costStats{ElapsedNs: elapsed.Nanoseconds(), Cells: len(q.unitCells[l.Unit])}); err == nil {
			_ = replaceAtomic(q.dir, costFile(l.Unit), data)
		}
	}
	// Best-effort cleanup: the partial is obsolete, and only a lease we
	// still own is removed.
	_ = os.Remove(filepath.Join(q.dir, partFile(l.Unit)))
	if cur, ok, err := q.readLease(l.Unit); err == nil && ok && cur.Token == l.Token {
		_ = removeExclusive(q.dir, leaseFile(l.Unit), q.hardLinks)
	}
	return nil
}

// SavePartial implements Queue: merge the lease's newly finished cells
// into the unit's stored intra-unit checkpoint and atomically replace
// the part file, provided we still hold the lease. The ownership check
// is advisory (a thief may take the lease between check and rename,
// and its own merge may then be overwritten); a stale or short partial
// is harmless — its cells are whole-cell deterministic aggregates of
// this same campaign, so a resumer seeded with it computes the
// identical bytes either way, and cells missing from it are recomputed.
func (q *DirQueue) SavePartial(l Lease, cp *resultio.Checkpoint) error {
	if l.Unit < 0 || l.Unit >= q.manifest.Units {
		return fmt.Errorf("dispatch: save partial for unit %d of %d", l.Unit, q.manifest.Units)
	}
	if q.isDone(l.Unit) {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	cur, ok, err := q.readLease(l.Unit)
	if err != nil {
		return err
	}
	if !ok || cur.Token != l.Token {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	if err := validateUnitCheckpoint(q.manifest, q.grid, l.Unit, q.unitCells[l.Unit], cp, true); err != nil {
		return err
	}
	stored, err := q.readPartial(l.Unit)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := resultio.SaveCheckpoint(&buf, resultio.MergePartial(stored, cp)); err != nil {
		return err
	}
	return replaceAtomic(q.dir, partFile(l.Unit), buf.Bytes())
}

// Fail implements Queue: a worker reports its unit's work errored. The
// report is accepted only under a live lease (token match), which is
// then released; the strike may dead-letter the unit.
func (q *DirQueue) Fail(l Lease, reason string) error {
	if l.Unit < 0 || l.Unit >= q.manifest.Units {
		return fmt.Errorf("dispatch: fail for unit %d of %d", l.Unit, q.manifest.Units)
	}
	if q.isDone(l.Unit) {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	cur, ok, err := q.readLease(l.Unit)
	if err != nil {
		return err
	}
	if !ok || cur.Token != l.Token {
		return fmt.Errorf("unit %d: %w", l.Unit, ErrLeaseLost)
	}
	if err := removeExclusive(q.dir, leaseFile(l.Unit), q.hardLinks); err != nil {
		return fmt.Errorf("dispatch: fail unit %d: %w", l.Unit, err)
	}
	q.strike(l.Unit, l.Worker, false, reason)
	return nil
}

// Quarantined implements Queue: list the dead-lettered units.
func (q *DirQueue) Quarantined() ([]QuarantineEntry, error) {
	var out []QuarantineEntry
	for unit := 0; unit < q.manifest.Units; unit++ {
		qs, ok := q.readQuar(unit)
		if !ok || q.isDone(unit) {
			// A done file trumps a leftover quarantine marker: a late
			// submit un-quarantines a unit by completing it.
			continue
		}
		state := UnitQuarantined
		if qs.Dropped {
			state = UnitDropped
		}
		e := QuarantineEntry{
			Unit: unit, State: state, Strikes: qs.Strikes,
			LastFailure: qs.Reason,
			Cells:       append([]int(nil), q.unitCells[unit]...),
		}
		if _, err := os.Stat(filepath.Join(q.dir, partFile(unit))); err == nil {
			e.HasPartial = true
		}
		out = append(out, e)
	}
	return out, nil
}

// Requeue implements Queue: remove the dead-letter marker and strike
// history so the unit re-enters the pending pool; any stored partial
// survives for the next leaseholder to resume from.
func (q *DirQueue) Requeue(unit int) error {
	if unit < 0 || unit >= q.manifest.Units {
		return fmt.Errorf("dispatch: requeue for unit %d of %d", unit, q.manifest.Units)
	}
	if !q.isQuarantined(unit) {
		return fmt.Errorf("dispatch: requeue unit %d: not quarantined", unit)
	}
	if err := removeExclusive(q.dir, quarFile(unit), q.hardLinks); err != nil {
		return fmt.Errorf("dispatch: requeue unit %d: %w", unit, err)
	}
	if err := os.Remove(filepath.Join(q.dir, strikeFile(unit))); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("dispatch: requeue unit %d: %w", unit, err)
	}
	return nil
}

// Drop implements Queue: mark a quarantined unit as operator-discarded.
func (q *DirQueue) Drop(unit int) error {
	if unit < 0 || unit >= q.manifest.Units {
		return fmt.Errorf("dispatch: drop for unit %d of %d", unit, q.manifest.Units)
	}
	qs, ok := q.readQuar(unit)
	if !ok {
		return fmt.Errorf("dispatch: drop unit %d: not quarantined", unit)
	}
	qs.Dropped = true
	data, err := json.Marshal(qs)
	if err != nil {
		return err
	}
	return replaceAtomic(q.dir, quarFile(unit), data)
}

// readPartial loads and validates a unit's partial checkpoint file,
// returning (nil, nil) when absent and an error only for real I/O
// trouble — a corrupt or foreign partial is discarded (resume is an
// optimization, never a correctness dependency).
func (q *DirQueue) readPartial(unit int) (*resultio.Checkpoint, error) {
	f, err := os.Open(filepath.Join(q.dir, partFile(unit)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("dispatch: read partial %d: %w", unit, err)
	}
	defer f.Close()
	cp, err := resultio.LoadCheckpoint(f)
	if err != nil {
		return nil, nil // torn/corrupt: recompute instead of resuming
	}
	if err := validateUnitCheckpoint(q.manifest, q.grid, unit, q.unitCells[unit], cp, true); err != nil {
		return nil, nil
	}
	return cp, nil
}

// LoadPartial implements Queue.
func (q *DirQueue) LoadPartial(l Lease) (*resultio.Checkpoint, error) {
	if l.Unit < 0 || l.Unit >= q.manifest.Units {
		return nil, fmt.Errorf("dispatch: load partial for unit %d of %d", l.Unit, q.manifest.Units)
	}
	return q.readPartial(l.Unit)
}

// Status implements Queue.
func (q *DirQueue) Status() (Status, error) {
	now := q.now()
	st := Status{Units: q.manifest.Units, PerUnit: make([]UnitStatus, q.manifest.Units)}
	for unit := 0; unit < q.manifest.Units; unit++ {
		us := UnitStatus{Unit: unit, State: UnitPending, CellCount: len(q.unitCells[unit])}
		if _, err := os.Stat(filepath.Join(q.dir, partFile(unit))); err == nil {
			us.HasPartial = true
		}
		us.Strikes = q.readStrikes(unit).Strikes
		if q.isDone(unit) {
			us.State = UnitDone
			st.Done++
		} else if qs, quarantined := q.readQuar(unit); quarantined {
			if qs.Strikes > us.Strikes {
				us.Strikes = qs.Strikes
			}
			if qs.Dropped {
				us.State = UnitDropped
				st.Dropped++
			} else {
				us.State = UnitQuarantined
				st.Quarantined++
			}
		} else if l, ok, err := q.readLease(unit); err != nil {
			return Status{}, err
		} else if ok && !now.After(l.Expires) {
			us.State = UnitLeased
			us.Worker = l.Worker
			us.ExpiresInMs = l.Expires.Sub(now).Milliseconds()
			st.Leased++
		} else {
			// No lease, or an expired one awaiting a steal.
			st.Pending++
		}
		st.PerUnit[unit] = us
	}
	return st, nil
}

// Merged implements Queue: fold every done file through the
// path-attributing, overlap-checked merge.
func (q *DirQueue) Merged() (*resultio.Checkpoint, error) {
	var paths []string
	for unit := 0; unit < q.manifest.Units; unit++ {
		p := filepath.Join(q.dir, doneFile(unit))
		if _, err := os.Stat(p); err == nil {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return resultio.NewCheckpoint(q.manifest.Fingerprint, core.ShardPlan{}, nil), nil
	}
	return resultio.MergeCheckpointFiles(q.manifest.Fingerprint, paths...)
}
