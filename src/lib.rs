//! Umbrella crate of the `compmem` reproduction suite.
//!
//! This crate only re-exports the workspace members so that the runnable
//! examples in `examples/` and the cross-crate integration tests in `tests/`
//! have a single dependency.
//!
//! Two documents complement this crate map:
//!
//! * [`docs/ARCHITECTURE.md`](../docs/ARCHITECTURE.md) — the layer-by-layer
//!   guide: the dataflow diagram, the "one pass, every shape"
//!   stack-distance invariant, and the table mapping the paper's figures
//!   and tables to the benches and tests that reproduce them.
//! * [`docs/CLI.md`](../docs/CLI.md) — a worked `compmem` session
//!   (record → profile → sweep-shapes → replay on tiny MPEG-2) whose
//!   command lines CI executes verbatim.
//!
//! # Crate map
//!
//! The workspace is layered bottom-up; each crate depends only on the ones
//! above it in this list:
//!
//! * [`compmem_trace`] — addresses, line/region arithmetic, the region
//!   table, access records and synthetic stream generators. Pure data; no
//!   simulation. Its `codec` module is the **binary trace IR** of the
//!   record/replay pipeline: delta-encoded addresses, varint cycle gaps
//!   and per-task/region dictionaries behind streaming
//!   `TraceWriter`/`TraceReader` codecs and the validated in-memory
//!   `EncodedTrace`; a trace embeds its region table, so it is a
//!   self-contained scenario. `EncodedTrace` validates its bytes in one
//!   pass and keeps only their summary; `TraceReader` decodes straight
//!   from the byte slice, and `RunSplitter` is the one rule grouping its
//!   records into runs. Its `curves` module is the **curve sidecar
//!   IR**: miss-rate curves persisted in a `.curves` file next to the
//!   trace, bound to the exact trace bytes by content hash, so stale or
//!   foreign sidecars are rejected (`CodecError`, never a panic).
//! * [`compmem_cache`] — the cache substrate. The three L2 organisations
//!   of the study (shared, set-partitioned, way-partitioned) all
//!   implement the **object-safe `CacheModel` trait**, and
//!   `OrganizationSpec` builds any of them as a `Box<dyn CacheModel>`
//!   from plain data. Their common core,
//!   `SetAssocCache`, keeps every set's ways in flat arrays, indexes sets
//!   by mask and picks victims under all four policies without
//!   allocating. Per-key statistics and uniform
//!   `CacheSnapshot`s live here too. The miss-vs-size profiles
//!   (`MissProfiles`) that feed the optimiser are produced by the
//!   **single-pass `StackDistanceProfiler`**: per-key, per-set bounded
//!   Mattson reuse stacks at every power-of-two set count yield a
//!   `MissRateCurve` per entity — the exact miss count at every resolved
//!   cache shape from one pass over the L2-bound stream — and
//!   `MissRateCurves::to_profiles` converts them to any `CacheSizeLattice`.
//!   `per_size_profiles` simulates each key alone in one LRU cache per
//!   lattice size; it is the reference `tests/profiler_parity.rs` checks
//!   the profiler against point for point. The same pass also feeds an
//!   **aggregate** curve (every key folded into one stack bank) whose
//!   value at `(sets, ways)` is the exact shared-L2 miss count at that
//!   shape, and a `WindowedProfiler` emits a `MissRateCurves` snapshot
//!   per fixed-size window (differences of cumulative snapshots — summing
//!   windows reconstructs the whole run exactly) with a curve-delta
//!   phase rule, applied window by window by `OnlinePhaseDetector` and
//!   folded over a finished pass by `WindowedCurves::phases`.
//!   Partitioning is additionally a **time-varying policy**: a
//!   `PartitionSchedule` orders `(at_cycle, OrganizationSpec)` steps, and
//!   `CacheModel::reconfigure` applies a new `PartitionMap` /
//!   `WayAllocation` to the live cache — invalidating exactly the lines
//!   whose set/way ownership changed and returning `FlushStats` —
//!   with `PartitionMap::pack_stable` laying consecutive steps out so
//!   unchanged partitions keep their sets.
//! * [`compmem_platform`] — the CAKE-like multiprocessor simulator. A
//!   discrete-event `EventQueue` (min-heap of `(ready_cycle, actor)`)
//!   drives the run loop; processors execute workload bursts against one
//!   timing path (private L1s → shared bus → `Box<dyn CacheModel>` L2 →
//!   DRAM), with runs of consecutive memory operations batched through
//!   `MemorySystem::access_burst`. `MemorySystem` is the only code that
//!   decides which accesses reach the L2 (its private L1s are one
//!   `L1Filter`, the bank the trace filter pass runs too) and what each
//!   refill and each repartition flush costs. The `replay` module closes
//!   the loop: `System::run_traced` hands every run of accesses, with the
//!   L1 refills the hierarchy computed for it, to an `AccessTap` (e.g.
//!   straight into the trace IR), and `ReplaySystem` re-issues a
//!   recorded trace in one walk over its runs in recorded order —
//!   bit-identical cache statistics, no workload execution, with the
//!   organisation-invariant L1 filter cached per trace (`PreparedTrace`).
//!   The filter streams records from the trace bytes into one
//!   `FilteredTrace`: a single refill vector plus a header per run
//!   holding its range, which replay, lanes, profilers and the
//!   controller read as slices.
//!   A replay honours an installed `PartitionSchedule` and a controller's
//!   decisions by one rule: a switch applies just before the first run,
//!   in recorded order, whose recorded start cycle reaches its boundary
//!   (switches past the last run apply after it), so no run is split;
//!   flush write-backs are charged through the bus/DRAM timing path, and
//!   every fired switch is logged as a `RepartitionRecord` in the
//!   `SystemReport`.
//!   The `profile` module feeds the stack-distance profiler from both
//!   traffic sources: `profile_trace_windowed` (a prepared trace, through
//!   the same cached L1 filter replays use) and a `WindowedProfiler` used
//!   as the `AccessTap` of a live run (it observes the refills of the
//!   system's own L1s, so one live run yields the shared baseline *and*
//!   the full miss-rate curves) — a whole-run
//!   window gives the plain curves (`profile_trace`), and
//!   `profile_trace_with_sidecar` persists curves in the `.curves`
//!   sidecar and skips the L1 filter entirely when a matching sidecar
//!   exists. The `lanes` module splits one replay — and
//!   `profile_trace_windowed_lanes` one profiling pass — into **set
//!   shards**: every organisation and every profiler stack picks a line's
//!   set from its low bits, so when `N` divides every set group's first
//!   set and size, lane `i` handles only the lines with `line % N == i`:
//!   a replay lane is a `ReplaySystem` restricted to its shard, with its
//!   own copy of the L2 (a profiling lane has its own profiler), and the
//!   lanes' counters and curves add up to the serial ones exactly, for
//!   every organisation and replacement policy.
//! * [`compmem_kpn`] — the YAPI-like Kahn-process-network runtime. Process
//!   networks implement the platform's `WorkloadDriver`; the functional
//!   scheduler (`Network::run_functional`) runs on the same event-queue
//!   engine, waking exactly the neighbours a firing can unblock.
//! * [`compmem_workloads`] — the multimedia task graphs of the paper's
//!   evaluation (two JPEG decoders + Canny, and an MPEG-2 decoder) with
//!   deterministic synthetic inputs.
//! * [`compmem`] — partition sizing (exact/greedy/equal-split optimisers),
//!   compositionality analysis, and the spec-driven experiment layer:
//!   every run is a `ScenarioSpec` — L2 configuration, organisation and
//!   **traffic source** (`Live` application execution vs `Replay` of a
//!   recorded trace) — executed by one driver; batches of independent runs
//!   fan out across threads (`Experiment::run_all`), so an organisation
//!   sweep replays one recorded trace concurrently without re-executing
//!   the workload (`Experiment::record_trace` / `run_replay`), and a
//!   spec's `ReplayParallelism` (`Serial`, `Auto(n)`, `Require(n)`) splits
//!   one replay into set-shard lanes. The paper
//!   flow's profiles are curve-derived (`Experiment::profile_curves` /
//!   `run_profiled`), and `SolverContext` is the one sizing step every
//!   flow calls — curves → profiles → allocation (optionally under QoS
//!   floors) → capacity-checked partition map — over any region table,
//!   an application's or a recorded trace's. Phase
//!   aware profiling rides the same flow: `Experiment::
//!   profile_curves_windowed` measures per-window curves live,
//!   `Experiment::phase_allocations` re-runs the optimizer per detected
//!   phase (plus the whole-run baseline), and `Experiment::sweep_shapes`
//!   / `sweep_shapes_from_curves` evaluate the **analytic L2
//!   size × associativity sweep** from one pass — cross-checked
//!   point-for-point against the replay sweep in
//!   `tests/shape_sweep_parity.rs`. Phase-aware *execution* closes the
//!   loop: a `ScenarioSpec` carries a `PartitionSchedule` (single-step
//!   constructors unchanged), `PhasePlan::to_schedule` turns per-phase
//!   sizings into repartition events, `Experiment::run_scheduled`
//!   executes them, and `validate_phase_plan` replays static-best vs
//!   phase-scheduled on the same trace with per-phase predicted vs
//!   measured miss deltas (`tests/schedule_parity.rs` pins the one-step
//!   parity and mid-run determinism). Profiling requires an LRU L2
//!   (`profile::require_lru`, `CoreError::NonLruProfiling` otherwise —
//!   the stack-distance identity holds for LRU only).
//!
//! The `compmem-bench` crate (not re-exported) holds the criterion benches,
//! the recorded `BENCH_*.json` baselines (guarded in CI by
//! `scripts/bench_check`, which re-runs the benches and fails on >25%
//! throughput regressions), the `repro` binary that regenerates the
//! paper's tables and figures, and the `compmem` CLI (`compmem record
//! --app mpeg2 --out t.cmt`, `compmem replay --trace t.cmt --org
//! set-partitioned`, `compmem sweep --trace t.cmt --l2-kb 32,64,128`,
//! `compmem profile --trace t.cmt` for the single-pass curves and the
//! allocation they imply — windowed with `--windows`/`--phases`, with
//! curves persisted to a `.curves` sidecar and auto-reused, and `compmem
//! sweep-shapes --trace t.cmt --check-replay on` for the analytic shape
//! sweep, and `compmem replay --trace t.cmt --schedule phases|FILE` to
//! execute partitioning as a time-varying policy — static-best vs
//! phase-scheduled on the same trace, with repartition flush accounting
//! and a savable/inspectable schedule file format) that drives the
//! record/replay/profile workflow from the shell; `docs/CLI.md` walks a
//! full session and CI executes its command lines verbatim.
//! `bench_check` additionally gates CI on machine-independent same-run
//! ratios (replay-vs-live, per-size-vs-single-pass, static-vs-scheduled
//! replay) alongside the absolute >25% throughput gate.

#![forbid(unsafe_code)]

pub use compmem;
pub use compmem_cache;
pub use compmem_kpn;
pub use compmem_platform;
pub use compmem_trace;
pub use compmem_workloads;
