// Package dispatch turns a core.StudyConfig into a queue of leased
// shard work units so a fleet of workers can drain one campaign
// without a human handing out -shard i/n assignments or babysitting
// crashed processes.
//
// A campaign is described by a Manifest: the serializable campaign
// configuration (the coordinator is the single source of config truth
// — workers reconstruct core.StudyConfig from the manifest, so the
// config fingerprint cannot drift between machines), the number of
// work units the cell grid is partitioned into via core.ShardPlan, and
// the lease TTL. Workers acquire time-bounded leases on units, extend
// them with heartbeats while the shard runs, and submit the shard's
// checkpoint when done. A lease whose worker stops heartbeating (a
// crashed or partitioned machine) expires and the unit is re-granted
// to the next worker that asks — work stealing from dead workers.
// Shard runs are deterministic, so a unit computed twice (the original
// worker was slow, not dead) folds to the same bytes either way;
// execution is at-least-once, folding is exactly-once.
//
// Dispatch is cost-aware. Every submission reports the wall time the
// worker spent, and the queues fold it into a per-cell cost model
// (costModel: die-count priors refined by per-(dies, pattern) EWMAs).
// MemQueue — the single-coordinator mode — re-plans the still-pending,
// unleased units after each observation so their expected costs
// equalize: units holding fat 8/16-die cells split finer, cheap cells
// coalesce, and the campaign drains without a straggler tail. The
// re-planned units are contiguous runs of the canonical grid order,
// which is module-major, so each touches few modules: a unit's
// Study.Run builds the weak-cell population of every (module, die,
// row) it touches once and shares it across that unit's (pattern,
// tAggON) cells, and a module dealt across every unit would have every
// unit build it again. DirQueue
// has no coordinator process that could own such a re-plan (concurrent
// re-partitions through a shared directory cannot be made atomic), so
// it keeps the manifest's static units and instead grants the most
// expensive pending unit first — LPT scheduling, which attacks the
// same tail from the ordering side.
//
// Workers also write intra-unit checkpoints: the completed cells of
// the unit in flight, stored at the queue under the lease. By default
// a worker sends one once about two seconds of compute have passed
// since its last (WorkerOptions.PartialEvery sets a cadence in cells
// instead), so a worker death costs at most that much recompute per
// unit, while cells far cheaper than a round trip never wait on one.
// Each partial carries only the cells finished since the worker's last
// acknowledged one, and the queue merges it into the unit's stored
// partial (and journals just those cells), so a unit of n cells costs
// O(n) checkpoint bytes rather than O(n²). When a lease expires and is
// re-granted, the new holder resumes from everything the dead worker
// checkpointed instead of recomputing the whole unit. Execution stays
// at-least-once and folding exactly-once — partials hold only
// whole-cell aggregates, which are deterministic, so a resent cell
// merges to the same state and a resumed unit's final checkpoint is
// byte-identical to a from-scratch run.
//
// Two queue implementations share the Queue interface:
//
//   - DirQueue coordinates through a shared directory (NFS or any
//     common filesystem) with no server at all: leases are
//     exclusively-created files, heartbeats atomically rewrite them,
//     and submissions are atomically linked checkpoint files.
//   - MemQueue is an in-memory queue served over HTTP by
//     cmd/campaignd; Client speaks the same protocol from the worker
//     side. Its state changes only by applying records, one per
//     transition; WALQueue journals them and replays them through the
//     same apply function, so a reopened queue reaches the live one's
//     state.
//
// Submitted checkpoints are validated against the manifest fingerprint
// and the unit's shard plan before they are accepted, and the rolling
// merged state is folded with resultio's overlap-checked merge, so a
// duplicate or foreign checkpoint can never silently double-count
// observations.
//
// # Failure model
//
// The queue distinguishes three escalating kinds of trouble:
//
//   - Retried: a lease that expires (worker crashed, partitioned, or
//     just slow) is re-granted to the next worker — this is the normal
//     work-stealing path and costs the campaign nothing but time.
//     Likewise a worker that reports a unit failure via Fail releases
//     the lease for the next taker.
//   - Quarantined: trouble that repeats is treated as the unit's
//     fault, not the worker's. Every expiry and every Fail is a
//     strike; at Manifest.MaxStrikes (DefaultMaxStrikes when unset)
//     the unit moves to a dead-letter state — UnitQuarantined — and is
//     no longer granted, so a poison unit (one whose input reliably
//     wedges or crashes solvers) burns a bounded number of grants
//     fleet-wide instead of hanging the campaign forever. Strikes and
//     quarantine transitions are journaled (WALQueue) or written as
//     durable sidecar files (DirQueue), so the ledger survives
//     coordinator kill-9 and restart. Workers bound their exposure
//     with WorkerOptions.UnitTimeout: a wedged shard run is cancelled
//     and converted into a reported Fail, and a panicking runner is
//     recovered and reported the same way.
//   - Degraded: a campaign whose every non-quarantined unit is done
//     drains (Status.Drained) rather than hanging, and reports mark it
//     Degraded. Renderings annotate the missing cells as "quarantined"
//     — distinct from "pending", which means work is still coming —
//     and the coverage line carries the quarantined-cell count, so a
//     partial report is never mistaken for a complete one.
//
// Operators inspect and resolve the dead-letter ledger with
// Quarantined, Requeue (clear strikes, grant again — for trouble that
// turned out environmental), and Drop (give up on the unit for good;
// late results are refused). A quarantined-but-not-dropped unit whose
// deterministic result nevertheless arrives late is completed and
// leaves the ledger — completing beats dead-lettering.
//
// The failure paths themselves are tested with internal/faultpoint:
// named injection points (wal.append, wal.sync, wal.snapshot,
// dir.claim, dir.replace, http.server, http.client, registry.op) sit
// on every failure-prone seam, cost one atomic load when disarmed, and
// fire on a deterministic seeded schedule when a test (or
// ROWFUSE_FAULTPOINTS) arms one — see the chaos suite in
// chaos_test.go for the end-to-end usage.
package dispatch
