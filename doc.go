// Package rowfuse reproduces "An Experimental Characterization of
// Combined RowHammer and RowPress Read Disturbance in Modern DRAM Chips"
// (Luo et al., DSN Disrupt 2024) as a self-contained Go library.
//
// The paper characterizes a DRAM access pattern that combines RowHammer
// (many short aggressor-row activations) with RowPress (long
// aggressor-row open times) on 84 real DDR4 chips, driven by an
// FPGA-based testing platform. This repository replaces every hardware
// component with a calibrated simulation and rebuilds the full
// characterization pipeline on top:
//
//   - internal/device — a cell-level DRAM device model with a
//     two-mechanism read-disturbance physics model, refresh, retention,
//     data-pattern dependence and in-DRAM row remapping;
//   - internal/bender — a DRAM Bender / SoftMC-style programmable memory
//     controller (instruction set, assembler, cycle interpreter);
//   - internal/thermal — the heater-pad PID temperature control loop;
//   - internal/chipdb — the paper's Table 1 chip inventory with per-DIMM
//     disturbance profiles inverted from Table 2;
//   - internal/rowmap — vendor row-remapping schemes and the
//     reverse-engineering methodology that recovers them;
//   - internal/pattern — the single-sided, double-sided and combined
//     access patterns of Fig. 3;
//   - internal/core — the characterization engines (ACmin, time to first
//     bitflip, bitflip recording, the 60 ms experiment budget) and the
//     study orchestration behind every figure and table;
//   - internal/mitigation — TRR and rank-ECC models (the paper's
//     future-work item on mitigations);
//   - internal/report — table/figure renderers and CSV emitters;
//   - internal/resultio — JSON result archives and campaign
//     checkpoints.
//
// # Campaigns, shards and checkpoints
//
// A characterization campaign (core.Study) evaluates a cell grid of
// (module, pattern, tAggON) combinations. Three pieces make campaigns
// scale past one process and survive crashes:
//
//   - core.ShardPlan deterministically partitions the cell grid into
//     i/n slices; independent processes each run one shard, and because
//     every cell is computed wholly inside one shard, fusing shards is
//     bit-identical to a monolithic run.
//   - core.AggregateState is the serializable, mergeable per-cell
//     aggregate (Welford moments, minima, flip sets). Study.Snapshot
//     exports it, Study.Seed restores it, and a seeded cell is skipped
//     on the next Run — which is all "resume" is.
//   - resultio checkpoints persist snapshots with a config fingerprint
//     and an atomically-replaced file format; SaveCheckpoint,
//     LoadCheckpoint and MergeCheckpoints (with the sentinel errors
//     ErrBadCheckpoint and ErrConfigMismatch) round out the cycle.
//
// cmd/characterize wires these together behind -shard, -checkpoint,
// -resume and -merge.
//
// # Scenario axes
//
// core.Scenario is the fourth campaign grid dimension: a serializable,
// fingerprintable execution context — engine selection (analytic, bank,
// bender-trace, or any kind registered via core.RegisterEngineKind),
// a mitigation configuration (core.MitigationSpec: TRR tracker size,
// refresh-rate multiplier, rank ECC), a thermal setpoint settled
// through the PID plant (core.ThermalSpec), and trace-executor knobs
// (core.TraceSpec). StudyConfig.Scenarios enumerates
// (module, pattern, tAggON, scenario) cells; a nil or single default
// scenario reproduces the pre-scenario grid exactly — same
// fingerprints, same checkpoint bytes, same renderings (pinned by the
// golden compatibility suite in scenario_compat_test.go). Scenario
// cells shard, checkpoint, merge and dispatch like any other cell;
// CellKey.Scenario and the checkpoint format carry the axis only when
// it is non-default, so pre-scenario checkpoint files stay readable
// and re-serializable byte for byte.
//
// Three campaign kinds ride the axis out of the box:
//
//   - Mitigation evaluation (characterize -exp mitigation, or
//     -scenarios mitigations on any grid): every cell re-runs under a
//     defense drawn from core.MitigationScenarios — no defense,
//     counter-based TRR at two tracker sizes, doubled refresh, rank
//     SEC-DED ECC, TRR+ECC stacked. internal/mitigation registers the
//     "mitigated" engine kind: the TRR guard wraps the simulated bank
//     as a core.BankDriver, so the guarded bank satisfies core.Engine
//     and reuses the bank engine's hammer loop instead of duplicating
//     it. The unguarded, refresh-free baseline gets the event-horizon
//     fast-forward; the guarded bank gets the refresh-window skip (see
//     below). Study.MitigationSummary and
//     report.MitigationTable/MitigationCSV render flip survival per
//     scenario per module.
//   - Combined-attack crossover (characterize -exp crossover):
//     Study.CrossoverSweep extracts per-tAggON mean time-to-first-flip
//     per pattern, the winning pattern per cell and the tAggON bracket
//     where the winner flips between combined and single-sided
//     RowPress; report.CrossoverTable/CrossoverCSV render it.
//   - Bender-trace execution (characterize -exp bender, or a
//     core.Scenario with Engine: core.EngineBenderTrace): each cell
//     assembles the access pattern into a DRAM Bender program,
//     locates its hammer loop, captures a device.DamageProfile from
//     one interpreted iteration, and fast-forwards over the loop with
//     the same event-horizon solver the bank engine uses — RowResults
//     byte-identical to interpreting every instruction
//     (core.TraceSpec.Exact opts out).
//
// core.NewCampaignSpecBuilder (options: WithExp, WithModule,
// WithScale, WithOperatingPoint, WithScenarioSet, WithChips) is the
// one spec-construction path shared by cmd/characterize and
// cmd/campaignd; BindCampaignFlags exposes it as the common
// -exp/-rows/-dies/-runs/-module/-chips/-temp/-budget/-scenarios flag
// set, and core.ParseScenarioSet names the built-in scenario sets
// (default, mitigations, bender, bank, thermal:T1,T2,...). A
// thermal:... axis additionally renders the disturbance-vs-settled-
// temperature table (Study.ThermalSummary, report.ThermalTable).
//
// # Fleet-scale populations
//
// -exp fleet swaps the Table 1 inventory for a synthetic chip
// population and answers deployment-scale distribution questions with
// bounded memory:
//
//   - chipdb.PopulationModel generates arbitrary-size fleets from the
//     14 calibrated Table 2 modules: each chip samples a base die and
//     perturbs its measured disturbance numbers with lognormal process
//     and die-to-die factors (priors matched to the spread Table 2
//     shows between same-die-revision modules), then feeds the same
//     Profile() inversion as real inventory. Derive(i) depends only on
//     (Seed, i) — splitmix64-derived per-chip streams — so any chip
//     sub-range is reproducible in isolation, on any shard, in any
//     order.
//   - internal/analysis provides the mergeable streaming statistics
//     the fold reduces into: a DDSketch-style log-binned quantile
//     sketch (1% relative error, commutative order-independent merge,
//     deterministic serialization — FuzzSketchMerge pins both) and
//     exact Welford/Chan moments.
//   - core.FleetPlan places chip blocks on the grid's module axis
//     ("fleet[%08d]" cells, ChipsPerCell chips each), so fleet cells
//     shard, checkpoint, merge and dispatch like any other cell while
//     Study.Run streams each block's chips through a core.Fold whose
//     state is O(sketch), not O(chips)
//     (TestFleetFoldBoundedMemory). core.FleetStats folds completed
//     cells in canonical order into per-vendor/die
//     core.FleetScenarioStat groups; report.FleetDistribution and
//     report.FleetCSV render survival and ACmin/time-to-flip
//     percentiles, with partial-coverage annotations while a
//     distributed campaign converges (dispatch.RenderPartialDegraded).
//     Checkpoints carrying fleet state use a bumped format version;
//     grid checkpoints are byte-identical to before and both versions
//     load.
//   - The dispatch cost model weighs a fleet cell by its block's chip
//     count, and the sharded-and-merged fold is byte-identical to an
//     unsharded run (TestFleetDispatchWorkerKillByteIdentical: 10^5
//     chips, three workers, one killed mid-run).
//   - dispatch/registry garbage-collects finished campaigns:
//     campaignd -service -retention D sweeps campaigns that have sat
//     drained or canceled for D (mark on first observation, delete on
//     a later sweep) — journal, checkpoints and meta removed, ID
//     retired.
//
// # Distributed dispatch
//
// internal/dispatch scales the sharded campaign past hand-assigned
// -shard flags: a coordinator turns the StudyConfig into a queue of
// leased work units (one core.ShardPlan slice each) that any number of
// workers drain. The pieces:
//
//   - dispatch.Manifest embeds the full serializable campaign
//     configuration; workers reconstruct the StudyConfig (and its
//     fingerprint) from the manifest, so configuration drift between
//     machines is structurally impossible.
//   - Leases are time-bounded and heartbeat-extended. A worker that
//     stops heartbeating — crashed, partitioned, wedged — loses its
//     lease after the TTL and the unit is re-granted to the next
//     Acquire: work stealing from dead workers. Because shard runs are
//     deterministic, a unit raced to completion by two workers folds
//     to the same bytes; execution is at-least-once, folding is
//     exactly-once (submissions are validated against the fingerprint
//     and the unit's shard plan, and fused through the
//     overlap-checked merge).
//   - dispatch.DirQueue coordinates through a shared directory with
//     no server (exclusively-linked lease and done files; filesystems
//     without hard-link support are detected at init time, the mode is
//     persisted campaign-wide, and the queue falls back to
//     O_CREATE|O_EXCL lock files);
//     dispatch.MemQueue + dispatch.NewHandler/Client run the same
//     protocol over HTTP behind cmd/campaignd.
//   - Dispatch is cost-aware: submissions report the worker's wall
//     time, and a per-cell cost model (die-count priors refined by
//     per-(die count, pattern) observations) drives adaptive unit
//     sizing. The HTTP coordinator re-plans pending, unleased units so
//     expected unit costs equalize (fat cells split finer, cheap cells
//     coalesce; the lease's explicit cell set — not the static i/n
//     plan — is what the worker runs). Each re-planned unit is a
//     contiguous run of the module-major grid, so it touches few
//     modules and builds each of their (die, row) populations once,
//     where units dealt round-robin would each rebuild them all. The
//     serverless directory queue keeps static units and grants the
//     most expensive remaining unit first (LPT), since no process owns
//     the plan there.
//   - Workers write intra-unit checkpoints (Queue.SavePartial) by
//     compute time, once about two seconds of compute have passed since
//     the last one (or every N completed cells with -partial-every N),
//     so a worker death loses at most that much work per unit. Each
//     carries only the cells the coordinator has not yet acknowledged;
//     the queue merges them into the unit's stored partial, so
//     checkpoint bytes grow linearly with the unit.
//     A re-granted lease resumes from that merged partial
//     (Queue.LoadPartial + Study.Seed) instead of recomputing the
//     unit. Partials hold whole-cell deterministic aggregates only, so
//     the failure semantics are unchanged: execution at-least-once,
//     folding exactly-once, and a resumed unit's checkpoint is
//     byte-identical to a from-scratch run.
//   - The coordinator's rolling merged state renders live partial
//     figures: core.PartialTable2 and core.PartialFig4 extract
//     Table 2 / Fig 4 from an incomplete cell map, and
//     report.Table2Partial / report.Fig4Partial annotate coverage
//     ("N of M cells") and print unmeasured cells as "pending", so a
//     converging campaign can be watched without partial data ever
//     posing as complete.
//
// cmd/campaignd (-init/-watch for directory campaigns, -listen for
// the HTTP coordinator) and characterize -worker wire these together.
//
// # Campaign service
//
// On top of single-campaign dispatch, campaignd -service hosts many
// concurrent campaigns behind one process, each resumable across
// coordinator restarts:
//
//   - dispatch/wal is the storage primitive: an append-only record log
//     of CRC-checksummed, magic-coded, sequence-numbered frames. Open
//     heals a torn tail (truncates to the last consistent record and
//     reports what was dropped) and surfaces damage as typed sentinels
//     (wal.ErrTruncated, wal.ErrBadChecksum, wal.ErrUnknownMagic,
//     wal.ErrBadVersion), pinned by a crash-injection table test.
//   - dispatch.WALQueue wraps MemQueue with that log: every transition
//     (init, grant, re-plan, heartbeat, submit, partial, steal,
//     strike, cancel) is a record, journaled as applied, and
//     everything except heartbeats is fsynced before it is
//     acknowledged. Records carry outcomes (minted tokens, computed
//     expiries, plan deltas), and live operations and replay run the
//     same apply function on them, so OpenWALQueue reconstructs the
//     exact queue state, live leases and cost model included.
//     Compaction atomically snapshots and truncates the log; a failed
//     append poisons the queue rather than letting memory drift from
//     the journal.
//   - dispatch/registry multiplexes campaigns: fingerprint-derived
//     campaign IDs, a per-campaign worker token (minted at create,
//     compared in constant time), durable metadata committed by an
//     atomic meta.json write, and an HTTP API that namespaces the
//     whole single-campaign dispatch protocol under
//     /v1/campaigns/{id}/... — wrong-campaign and wrong-token
//     submissions fail with dispatch.ErrUnknownCampaign and
//     dispatch.ErrBadCampaignToken, and canceled campaigns answer
//     dispatch.ErrCanceled.
//   - campaignd -service serves the registry (campaigns are created
//     over POST /v1/campaigns); plain -listen -state journals a
//     single campaign through the same WALQueue. SIGINT/SIGTERM stops
//     granting, flushes and fsyncs every journal, and exits 0; a
//     restart resumes from the state directory, and a killed-and-
//     restarted campaign renders byte-identical to an uninterrupted
//     one. Workers join with characterize -worker URL -campaign ID
//     -campaign-token TOKEN (dispatch.DialCampaign).
//
// # Performance
//
// The campaign hot path is a batched, allocation-free solve.
// device.RowPopulation splits cell generation into a deterministic base
// population (cached per row, shared across every cell of one die via
// device.PopulationCache) and per-realization projections: a
// device.SolveView is the struct-of-arrays form of one (row, run-noise
// seed, data pattern) — contiguous threshold/dose slices holding only
// the observable cells — cached on the population so every pattern and
// tAggON cell revisiting the row shares one noise application.
// core.AnalyticEngine solves the whole view at once (solveBatch: a
// branch-light, auto-vectorizable damage phase plus a per-cell locate
// phase replaying the scalar solver's float operations in order, so
// results are bit-identical — cross-checked by
// TestSolveBatchMatchesScalar and the rendering goldens), memoizes
// per-spec damage terms, and offers CharacterizeRowInto for
// buffer-recycling callers. Study.Run schedules per-die work units so
// fat 8/16-die modules spread across the worker pool while the
// per-cell aggregates still fold in a sequential run's exact
// observation order (checkpoints stay byte-identical). Fleet blocks
// run on the same pool, one task per block, through the same per-die
// helper.
//
// The damage phase of that batched solve dispatches at init to per-CPU
// vector kernels: hand-written AVX2 assembly on amd64 (AVX2 also where
// AVX-512 is available, since the kernels are divide-bound), selected
// by internal/cpu's CPUID/XGETBV probe; -tags purego and every other
// architecture run the pure-Go scalar kernels. The kernels are
// bit-exact by construction, not approximately fast: lanes parallelize
// across cells, never across acts, so each cell's float operations
// happen in the scalar oracle's exact order, and FMA contraction is
// forbidden — a fused multiply-add rounds once where the model rounds
// twice, so the assembly uses only individually-rounding
// VMULPD/VDIVPD/VADDPD. SolveView columns carry device.SolveLanes
// padding so full vector loads never touch unowned memory.
// FuzzDamageKernelParity pins every compiled-in kernel byte-identical
// to the scalar reference.
//
// The ground-truth engine (core.BankEngine, driving a simulated
// device.Bank command by command) fast-forwards over the event
// horizon by default: the access pattern is periodic, so a captured
// device.DamageProfile (per-cell, per-activation damage deltas —
// warm-up first iteration vs steady state) determines each victim
// cell's accumulator trajectory, which is repeated IEEE-754 addition
// of constants and can be reproduced bit for bit in closed form
// (constant mantissa increments within a float binade; boundaries,
// half-ulp ties and subnormals single-step). The engine solves for
// the earliest possible flip iteration, seeks the bank state there
// (device.Bank.SeekRowDisturb: exact accumulators, side bookkeeping,
// counters) and replays only a guard window act by act, so RowResults
// — and the victim row's microstate — are byte-identical to full
// act-by-act execution (pinned by grid and property-fuzz tests;
// core.WithExactReplay opts out). This takes a 60 ms characterization
// from ~19 ms to ~80 us of wall time and accelerates every
// bank-engine-backed cross-validation and calibration sweep. The
// closed-form stepper decomposes each steady delta per binade as pure
// integer arithmetic on projected mantissa/exponent pairs
// (internal/core/bankbatch.go), the one implementation on every build,
// purego included. The tests keep a float-arithmetic stepper as its
// oracle (FuzzBankBatchParity). A profile the projection rejects (a
// negative, NaN or infinite delta, which the damage model never
// produces) runs act by act, as an unprofilable row does.
//
// Under a TRR guard and periodic refresh the fast-forward does not
// apply (the guard mutates cell state the damage profile does not
// model), so the hammer loop skips refresh windows instead — the runs
// of activations between two REFs. A window that starts with the
// victim pristine (no side bookkeeping, every unflipped accumulator
// zero) and the guard quiescent (nothing observed since its REF) has
// an outcome fixed by its first act index and activation count. Once
// one window of such a class has run act by act without a victim flip
// and closed with a REF that refreshed the victim, later windows of
// the class in the same row advance the clock, act position and
// ACT/PRE counters arithmetically and close by replaying that REF: the
// bank's real round-robin Refresh, then the memoized targeted
// refreshes. A driver opts in through core.RefreshReplayer
// (mitigation.Guard does); each row's first window, a window the
// budget cuts short, a driver without the interface and refresh
// without a driver all run act by act, and core.WithExactReplay turns
// the skip off. RowResults, the victim's row and the ACT/PRE/REF, REF
// and TRR counts stay byte-identical to act-by-act execution
// (TestGuardedWindowParity, FuzzGuardedWindowParity); a guarded 2 ms
// row drops from ~39 K executed activations to under a thousand.
//
// Benchmarks guard all of this: run
//
//	go test -run '^$' -bench . -benchmem .
//
// and record snapshots on the BENCH_*.json perf trajectory with
// cmd/benchjson (whose -gate mode is CI's bench-regression gate, with
// a -summary markdown diff for job summaries). Snapshots record the
// GOAMD64 level and detected CPU feature tier; the gate warns and
// skips its ns/op rule — rather than failing — when baseline and
// fresh snapshots were measured under different vector dispatch.
// cmd/characterize takes -cpuprofile/-memprofile to profile
// full-scale campaigns.
//
// See README.md for a quickstart and shard/resume examples. The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation.
package rowfuse
