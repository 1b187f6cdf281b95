//! Experiment drivers that regenerate the paper's evaluation.
//!
//! # One driver, three organisations, two traffic sources
//!
//! Every simulation run is described declaratively by a [`ScenarioSpec`] —
//! an L2 configuration, an [`OrganizationSpec`] naming one of the three L2
//! organisations (shared, set-partitioned, way-partitioned), and
//! a [`TrafficSource`] naming where the memory traffic comes from:
//!
//! * [`TrafficSource::Live`] executes the application functionally through
//!   the Kahn-process-network runtime, as the paper's experiments do;
//! * [`TrafficSource::Replay`] re-issues a recorded
//!   [`EncodedTrace`](compmem_trace::EncodedTrace) through the same hierarchy, skipping workload
//!   execution entirely — record once with
//!   [`Experiment::record_trace`], then sweep any number of organisations
//!   over the same traffic.
//!
//! [`Experiment::run`] is the **single** execution path: it turns the spec
//! into a `Box<dyn CacheModel>` and hands it either to the live
//! discrete-event engine or to the
//! [`ReplaySystem`]. There are no
//! per-organisation drivers; organisation-specific behaviour lives
//! entirely behind the `CacheModel` trait.
//!
//! Because specs are plain data (traces are shared by `Arc`) and the
//! application factory is a pure function, independent runs are
//! embarrassingly parallel: [`Experiment::run_all`] fans a batch of specs
//! out across the bounded worker pool of
//! [`executor`] ([`Experiment::run_all_jobs`] picks the
//! worker count), and [`Experiment::compare_optimizers`] solves the three
//! partition-sizing strategies concurrently on the same pool.
//!
//! The central entry point is [`Experiment::run_paper_flow`], which performs
//! the full method of the paper on one application:
//!
//! 1. run the application on the conventional **shared** L2 while a
//!    [`WindowedProfiler`] tap measures the per-entity miss-rate curves
//!    from the system's own L1 refills in the same pass (single-pass
//!    stack-distance profiling — see
//!    [`StackDistanceProfiler`](compmem_cache::StackDistanceProfiler)),
//! 2. size the partitions by minimising the total predicted misses
//!    (FIFOs pinned to their own size, everything else optimised),
//! 3. run the application on the **set-partitioned** L2 with that
//!    allocation,
//! 4. compare expected and simulated per-entity misses (compositionality).
//!
//! The parity tests check the curve-derived profiles point for point
//! against [`per_size_profiles`](compmem_cache::per_size_profiles), which
//! simulates every key alone at every lattice size.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use compmem_cache::{
    CacheConfig, CacheSnapshot, CurveResolution, FlushStats, KeyStats, MissRateCurves,
    OrganizationSpec, PartitionKey, PartitionSchedule, WayAllocation, WindowConfig, WindowedCurves,
    WindowedProfiler,
};
use compmem_platform::{
    replay_lanes, AccessTap, LaneDecision, NullTap, PlatformConfig, PlatformError, PreparedTrace,
    ReplaySystem, System, SystemReport,
};
use compmem_trace::{RegionKind, RegionTable, TraceWriter};

use compmem_workloads::apps::Application;

use crate::compositionality::CompositionalityReport;
use crate::error::CoreError;
use crate::executor;
use crate::optimizer::{
    pack_allocation, Allocation, AllocationEntity, AllocationProblem, OptimizerKind, SolverContext,
};
use crate::profile::{require_lru, CacheSizeLattice, MissProfiles};

/// Configuration shared by all experiment runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Platform (processors, L1s, latencies, task switching).
    pub platform: PlatformConfig,
    /// Shared L2 configuration.
    pub l2: CacheConfig,
    /// Cache sets per allocation unit.
    pub sets_per_unit: u32,
    /// Solver used to size the partitions.
    pub optimizer: OptimizerKind,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            platform: PlatformConfig::default(),
            l2: CacheConfig::paper_l2(),
            sets_per_unit: 16,
            optimizer: OptimizerKind::ExactIlp,
        }
    }
}

/// Where the memory traffic of a scenario comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSource {
    /// Execute the application functionally (the experiment's factory).
    Live,
    /// Replay a recorded trace; the workload is not executed.
    Replay(Arc<PreparedTrace>),
}

impl TrafficSource {
    /// Short name of the traffic source (`"live"` or `"replay"`).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficSource::Live => "live",
            TrafficSource::Replay(_) => "replay",
        }
    }

    /// Returns `true` for replayed traffic.
    pub fn is_replay(&self) -> bool {
        matches!(self, TrafficSource::Replay(_))
    }
}

/// How a replay scenario parallelises: serially, or split into set
/// shards (see [`compmem_platform::lanes`]) on up to `n` worker threads.
///
/// A split is exact for every organisation and replacement policy, but
/// it reproduces only the cache-side numbers: timing fields (stalls,
/// makespan) come from the serial replay alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayParallelism {
    /// Replay serially through the [`ReplaySystem`] (full timing
    /// reconstruction). The default.
    #[default]
    Serial,
    /// Split into set shards on up to this many workers when the
    /// scenario splits; replay serially when it does not.
    Auto(usize),
    /// Split into set shards on up to this many workers, and fail with
    /// [`CoreError::Platform`] carrying
    /// [`LanesIneligible`](compmem_platform::PlatformError::LanesIneligible)
    /// when more than one was asked for and the scenario cannot split.
    Require(usize),
}

impl ReplayParallelism {
    /// Opportunistic set-sharded replay on up to `n` workers.
    pub fn lanes(n: usize) -> Self {
        ReplayParallelism::Auto(n)
    }

    /// Set-sharded replay on up to `n` workers, failing when the scenario
    /// cannot split.
    pub fn required_lanes(n: usize) -> Self {
        ReplayParallelism::Require(n)
    }

    /// Returns `true` when this is the serial default.
    pub fn is_serial(&self) -> bool {
        *self == Self::Serial
    }
}

impl fmt::Display for ReplayParallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayParallelism::Serial => write!(f, "serial lanes"),
            ReplayParallelism::Auto(n) => write!(f, "lanes auto({n})"),
            ReplayParallelism::Require(n) => write!(f, "lanes required({n})"),
        }
    }
}

/// A declarative description of one simulation run: which L2 configuration,
/// which partitioning **policy over time** (a [`PartitionSchedule`]; a
/// plain organisation is the single-step schedule), and which traffic
/// source. Specs are plain data (`Clone + Send + Sync`; traces are shared
/// by `Arc`), so batches of them can be built up front and executed in
/// parallel — in particular, an organisation sweep over **one** recorded
/// trace never re-executes the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The L2 cache configuration of the run.
    pub l2: CacheConfig,
    /// The partitioning policy of the run: the organisation the run
    /// starts under (step 0) plus any repartition events applied to the
    /// cache at their cycle boundaries (switches run on replays only).
    pub schedule: PartitionSchedule,
    /// Where the memory traffic comes from.
    pub traffic: TrafficSource,
    /// How a replay of this spec parallelises; ignored for live traffic.
    /// Defaults to serial.
    pub parallelism: ReplayParallelism,
}

impl ScenarioSpec {
    /// A live-execution scenario under one static organisation.
    pub fn live(l2: CacheConfig, organization: OrganizationSpec) -> Self {
        ScenarioSpec {
            l2,
            schedule: PartitionSchedule::single(organization),
            traffic: TrafficSource::Live,
            parallelism: ReplayParallelism::default(),
        }
    }

    /// A replay scenario over a recorded trace under one static
    /// organisation.
    pub fn replay(
        l2: CacheConfig,
        organization: OrganizationSpec,
        trace: Arc<PreparedTrace>,
    ) -> Self {
        Self::scheduled_replay(l2, PartitionSchedule::single(organization), trace)
    }

    /// A replay scenario under a time-varying partitioning policy: each
    /// switch applies just before the first recorded run that starts at
    /// or after its boundary (the one rule of [`ReplaySystem`]).
    pub fn scheduled_replay(
        l2: CacheConfig,
        schedule: PartitionSchedule,
        trace: Arc<PreparedTrace>,
    ) -> Self {
        ScenarioSpec {
            l2,
            schedule,
            traffic: TrafficSource::Replay(trace),
            parallelism: ReplayParallelism::default(),
        }
    }

    /// This scenario with its traffic switched to replaying `trace`.
    #[must_use]
    pub fn replaying(self, trace: Arc<PreparedTrace>) -> Self {
        ScenarioSpec {
            traffic: TrafficSource::Replay(trace),
            ..self
        }
    }

    /// This scenario with the given replay parallelism.
    #[must_use]
    pub fn with_parallelism(self, parallelism: ReplayParallelism) -> Self {
        ScenarioSpec {
            parallelism,
            ..self
        }
    }

    /// The organisation the run starts under (the schedule's step 0).
    pub fn organization(&self) -> &OrganizationSpec {
        self.schedule.initial()
    }

    /// Short name of the organisation this spec starts under.
    pub fn label(&self) -> &'static str {
        self.schedule.label()
    }
}

impl fmt::Display for ScenarioSpec {
    /// Renders the run's L2 shape, traffic source and full schedule (step
    /// count, switch cycles, per-step organisation labels) — the
    /// inspectable summary the CLI prints for scheduled runs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let geometry = self.l2.geometry();
        write!(
            f,
            "{} KB {}-way L2, {} traffic, schedule {}",
            geometry.size_bytes() / 1024,
            geometry.ways(),
            self.traffic.label(),
            self.schedule
        )?;
        if !self.parallelism.is_serial() {
            write!(f, ", {}", self.parallelism)?;
        }
        Ok(())
    }
}

/// The result of one simulation run with per-entity L2 statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    /// The platform report (cycles, CPI, cache statistics).
    pub report: SystemReport,
    /// L2 accesses and misses per partition key (task, buffer, section).
    pub by_key: BTreeMap<PartitionKey, KeyStats>,
    /// Uniform snapshot of the L2 organisation's counters after the run.
    pub l2_snapshot: CacheSnapshot,
    /// How a set-sharded replay split (requested workers, shards used,
    /// smallest set group). `None` for live runs and serial replays.
    pub lane_decision: Option<LaneDecision>,
}

impl RunOutcome {
    /// The outcome of a run that produced `report`: its per-region L2
    /// statistics summed per partition key of `table`, and `l2_snapshot`,
    /// the L2's counters after the run (empty where no one L2 served the
    /// whole stream, as in set-sharded lanes). Every flow builds its
    /// outcome here.
    pub fn new(report: SystemReport, table: &RegionTable, l2_snapshot: CacheSnapshot) -> Self {
        let mut by_key: BTreeMap<PartitionKey, KeyStats> = BTreeMap::new();
        for (region, stats) in &report.l2_by_region {
            if let Some(r) = table.regions().get(region.index()) {
                let entry = by_key
                    .entry(PartitionKey::from_region_kind(r.kind))
                    .or_default();
                entry.accesses += stats.accesses;
                entry.misses += stats.misses;
            }
        }
        RunOutcome {
            report,
            by_key,
            l2_snapshot,
            lane_decision: None,
        }
    }

    /// L2 misses of one entity.
    pub fn misses_of(&self, key: PartitionKey) -> u64 {
        self.by_key.get(&key).map_or(0, |s| s.misses)
    }

    /// Per-entity misses (for the compositionality comparison).
    pub fn misses_by_key(&self) -> BTreeMap<PartitionKey, u64> {
        self.by_key.iter().map(|(k, s)| (*k, s.misses)).collect()
    }
}

/// Complete outcome of the paper's method on one application.
#[derive(Debug, Clone)]
pub struct PaperFlowOutcome {
    /// Application name (`"jpeg_canny"` or `"mpeg2"`).
    pub app_name: String,
    /// Shared-cache baseline run.
    pub shared: RunOutcome,
    /// Per-entity miss profiles measured during the shared run.
    pub profiles: MissProfiles,
    /// Chosen partition sizes.
    pub allocation: Allocation,
    /// Set-partitioned run with that allocation.
    pub partitioned: RunOutcome,
    /// Expected-versus-simulated comparison (Figure 3).
    pub compositionality: CompositionalityReport,
    /// Display names of every partition key, following the paper's tables.
    pub key_names: BTreeMap<PartitionKey, String>,
    /// Sets per allocation unit (to convert units to the tables' set counts).
    pub sets_per_unit: u32,
}

impl PaperFlowOutcome {
    /// Display name of a partition key.
    pub fn key_name(&self, key: PartitionKey) -> String {
        self.key_names
            .get(&key)
            .cloned()
            .unwrap_or_else(|| key.to_string())
    }

    /// Ratio of shared-cache misses to partitioned-cache misses (the "N
    /// times less misses" headline).
    pub fn miss_improvement_factor(&self) -> f64 {
        let partitioned = self.partitioned.report.l2.misses;
        if partitioned == 0 {
            return f64::INFINITY;
        }
        self.shared.report.l2.misses as f64 / partitioned as f64
    }

    /// Shared-cache L2 miss rate.
    pub fn shared_miss_rate(&self) -> f64 {
        self.shared.report.l2_miss_rate()
    }

    /// Partitioned-cache L2 miss rate.
    pub fn partitioned_miss_rate(&self) -> f64 {
        self.partitioned.report.l2_miss_rate()
    }

    /// Average CPI of the shared-cache run.
    pub fn shared_cpi(&self) -> f64 {
        self.shared.report.average_cpi()
    }

    /// Average CPI of the partitioned run.
    pub fn partitioned_cpi(&self) -> f64 {
        self.partitioned.report.average_cpi()
    }

    /// Rows of the allocation table (Tables 1 / 2): entity name, allocation
    /// units and L2 sets.
    pub fn table_rows(&self) -> Vec<(String, u32, u32)> {
        self.allocation
            .iter()
            .map(|(key, &units)| (self.key_name(*key), units, units * self.sets_per_unit))
            .collect()
    }

    /// Rows of Figure 2: entity name, shared-cache misses, partitioned
    /// misses.
    pub fn figure2_rows(&self) -> Vec<(String, u64, u64)> {
        self.allocation
            .iter()
            .map(|(key, _)| {
                (
                    self.key_name(*key),
                    self.shared.misses_of(*key),
                    self.partitioned.misses_of(*key),
                )
            })
            .collect()
    }

    /// Rows of Figure 3: entity name, expected misses, simulated misses.
    pub fn figure3_rows(&self) -> Vec<(String, u64, u64)> {
        self.compositionality
            .entries
            .iter()
            .map(|e| (self.key_name(e.key), e.expected_misses, e.simulated_misses))
            .collect()
    }

    /// One-paragraph human-readable summary of the headline numbers.
    pub fn summary(&self) -> String {
        format!(
            "{}: shared L2 miss rate {:.2}% (CPI {:.2}) -> partitioned {:.2}% (CPI {:.2}); \
             {:.1}x fewer L2 misses; compositionality error {:.2}%",
            self.app_name,
            100.0 * self.shared_miss_rate(),
            self.shared_cpi(),
            100.0 * self.partitioned_miss_rate(),
            self.partitioned_cpi(),
            self.miss_improvement_factor(),
            100.0 * self.compositionality.max_relative_difference(),
        )
    }
}

/// Builds the display-name table for every partition key of an application.
fn key_names(app: &Application) -> BTreeMap<PartitionKey, String> {
    let mut names = BTreeMap::new();
    for region in app.space.table().iter() {
        let key = PartitionKey::from_region_kind(region.kind);
        let name = match region.kind {
            RegionKind::Fifo { .. } | RegionKind::FrameBuffer { .. } => region.name.clone(),
            RegionKind::AppData => "appl data".to_string(),
            RegionKind::AppBss => "appl bss".to_string(),
            RegionKind::RtData => "rt data".to_string(),
            RegionKind::RtBss => "rt bss".to_string(),
            _ => match region.kind.owner_task() {
                Some(task) => app.task_name(task).to_string(),
                None => region.name.clone(),
            },
        };
        names.entry(key).or_insert(name);
    }
    names
}

/// Replays a recorded trace under one partitioning schedule through the
/// serial [`ReplaySystem`].
pub(crate) fn replay_serial(
    platform: &PlatformConfig,
    l2_config: CacheConfig,
    schedule: &PartitionSchedule,
    trace: &PreparedTrace,
) -> Result<RunOutcome, CoreError> {
    let l2 = schedule.initial().build(l2_config, trace.table())?;
    let mut system = ReplaySystem::new(platform, l2, trace)?;
    if !schedule.is_static() {
        system.install_schedule(schedule)?;
    }
    let report = system.run();
    Ok(RunOutcome::new(
        report,
        trace.table(),
        system.into_l2().snapshot(),
    ))
}

/// Replays a recorded trace under one schedule with the requested
/// parallelism: through the serial [`ReplaySystem`] (full timing
/// reconstruction), or split into set shards.
fn replay_outcome(
    platform: &PlatformConfig,
    l2: CacheConfig,
    schedule: &PartitionSchedule,
    trace: &PreparedTrace,
    parallelism: ReplayParallelism,
) -> Result<RunOutcome, CoreError> {
    let laned = match parallelism {
        ReplayParallelism::Serial => None,
        ReplayParallelism::Require(n) => Some(replay_lanes(platform, l2, schedule, trace, n)?),
        ReplayParallelism::Auto(n) => match replay_lanes(platform, l2, schedule, trace, n) {
            Err(PlatformError::LanesIneligible { .. }) => None,
            laned => Some(laned?),
        },
    };
    // Lanes report cache-side counters only (timing fields zero), and no
    // lane holds the whole L2, so the snapshot stays empty.
    match laned {
        Some((report, decision)) => {
            let mut outcome = RunOutcome::new(report, trace.table(), CacheSnapshot::default());
            outcome.lane_decision = Some(decision);
            Ok(outcome)
        }
        None => replay_serial(platform, l2, schedule, trace),
    }
}

/// Runs a replay scenario without an [`Experiment`] (no application
/// factory needed): the trace embedded in the spec is the whole workload.
///
/// This is what the `compmem replay` / `compmem sweep` CLI subcommands are
/// built on. The spec's [`ReplayParallelism`] is honoured.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when `spec` names live traffic, and
/// propagates cache and platform errors otherwise — including
/// [`LanesIneligible`](compmem_platform::PlatformError::LanesIneligible)
/// when the spec *requires* lanes on a scenario that cannot split.
pub fn run_replay(platform: &PlatformConfig, spec: &ScenarioSpec) -> Result<RunOutcome, CoreError> {
    match &spec.traffic {
        TrafficSource::Live => Err(CoreError::Infeasible {
            reason: "run_replay requires a replay scenario; live scenarios need an Experiment"
                .to_string(),
        }),
        TrafficSource::Replay(trace) => {
            replay_outcome(platform, spec.l2, &spec.schedule, trace, spec.parallelism)
        }
    }
}

/// Builds the allocation problem for the entities of a region table on a
/// given lattice: FIFOs are pinned to the smallest candidate covering
/// their byte size (the paper's predictability rule), every other entity
/// may take any candidate size.
///
/// Taking the table rather than the application means the problem can be
/// built for a recorded trace (whose embedded table names the same
/// entities) just as well as for a live application. This is the problem
/// [`SolverContext::allocate`] solves.
pub fn allocation_problem_for_table(
    table: &RegionTable,
    lattice: &CacheSizeLattice,
    geometry: compmem_cache::CacheGeometry,
    profiles: MissProfiles,
) -> AllocationProblem {
    let mut entities: Vec<AllocationEntity> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for region in table.iter() {
        let key = PartitionKey::from_region_kind(region.kind);
        if !seen.insert(key) {
            continue;
        }
        let candidates = match region.kind {
            RegionKind::Fifo { .. } => {
                vec![lattice.units_for_bytes(geometry, region.size)]
            }
            _ => lattice.candidate_units.clone(),
        };
        entities.push(AllocationEntity { key, candidates });
    }
    AllocationProblem {
        entities,
        profiles,
        total_units: lattice.total_units,
    }
}

/// One point of the analytic L2 shape sweep: a candidate `(sets, ways)`
/// shape and the exact shared-cache misses the profiled stream would
/// incur on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapePoint {
    /// Number of sets of the candidate L2.
    pub sets: u32,
    /// Associativity of the candidate L2.
    pub ways: u32,
    /// Capacity of the candidate L2 in bytes.
    pub size_bytes: u64,
    /// Exact misses of a shared LRU L2 of this shape over the profiled
    /// stream.
    pub misses: u64,
    /// Miss rate over the profiled (L2-bound) accesses.
    pub miss_rate: f64,
}

/// The analytic L2 size × associativity sweep evaluated from one
/// [`MissRateCurves`] — no replay per shape.
///
/// Every power-of-two set count within the curves' resolution is crossed
/// with every power-of-two associativity up to the resolution's cap; the
/// miss count at each point comes from the aggregate curve's Mattson
/// suffix sums ([`MissRateCurves::shared_misses`]) and is **exact**, not
/// a model: the parity test replays the trace at every shape and asserts
/// equality point for point.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeSweep {
    /// L2-bound accesses of the profiled stream (constant across shapes).
    pub accesses: u64,
    /// One point per resolved shape, sets-major, ascending.
    pub points: Vec<ShapePoint>,
}

impl ShapeSweep {
    /// The point at one shape, if resolved.
    pub fn point(&self, sets: u32, ways: u32) -> Option<&ShapePoint> {
        self.points
            .iter()
            .find(|p| p.sets == sets && p.ways == ways)
    }

    /// The distinct set counts of the sweep, ascending.
    pub fn set_counts(&self) -> Vec<u32> {
        let mut sets: Vec<u32> = self.points.iter().map(|p| p.sets).collect();
        sets.dedup();
        sets
    }

    /// The distinct associativities of the sweep, ascending.
    pub fn way_counts(&self) -> Vec<u32> {
        let mut ways: Vec<u32> = self.points.iter().map(|p| p.ways).collect();
        ways.sort_unstable();
        ways.dedup();
        ways
    }
}

/// Evaluates the analytic shape sweep from one set of curves (the
/// factory-free core of [`Experiment::sweep_shapes`], usable with curves
/// profiled from a recorded trace — the `compmem sweep-shapes` CLI does
/// exactly that).
pub fn sweep_shapes_from_curves(curves: &MissRateCurves) -> ShapeSweep {
    let resolution = curves.resolution;
    let accesses = curves.accesses();
    let mut points = Vec::new();
    let mut sets = resolution.min_sets;
    while sets <= resolution.max_sets {
        let mut ways = 1u32;
        while ways <= resolution.ways_cap {
            let misses = curves
                .shared_misses(sets, ways)
                .expect("shape drawn from the curves' own resolution");
            points.push(ShapePoint {
                sets,
                ways,
                size_bytes: u64::from(sets) * u64::from(ways) * compmem_trace::LINE_SIZE_BYTES,
                misses,
                miss_rate: if accesses == 0 {
                    0.0
                } else {
                    misses as f64 / accesses as f64
                },
            });
            ways *= 2;
        }
        sets = sets.saturating_mul(2);
        if sets == 0 {
            break;
        }
    }
    ShapeSweep { accesses, points }
}

/// Segments a windowed profiling pass into phases and sizes the
/// partitions once per phase plus once for the whole run — the
/// factory-free core of [`Experiment::phase_allocations`], usable with
/// curves profiled from a recorded trace (the `compmem profile
/// --phases` CLI does exactly that).
///
/// # Errors
///
/// Propagates optimizer and curve-conversion errors.
pub fn phase_allocations_for_table(
    windowed: &WindowedCurves,
    threshold: f64,
    table: &RegionTable,
    lattice: &CacheSizeLattice,
    geometry: compmem_cache::CacheGeometry,
    kind: OptimizerKind,
) -> Result<PhasePlan, CoreError> {
    let solver = SolverContext {
        table,
        lattice,
        geometry,
        optimizer: kind,
    };
    let whole_run = solver.solve(&windowed.total)?;
    let mut phases = Vec::new();
    for phase in windowed.phases(threshold) {
        phases.push(PhaseAllocation {
            first_window: phase.first_window,
            last_window: phase.last_window,
            start_cycle: phase.start_cycle,
            end_cycle: phase.end_cycle,
            accesses: phase.curves.accesses(),
            allocation: solver.solve(&phase.curves)?,
        });
    }
    Ok(PhasePlan {
        threshold,
        phases,
        whole_run,
    })
}

/// The partition allocation of one detected phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAllocation {
    /// First member window of the phase.
    pub first_window: usize,
    /// Last member window (inclusive).
    pub last_window: usize,
    /// Start cycle of the phase.
    pub start_cycle: u64,
    /// End cycle of the phase.
    pub end_cycle: u64,
    /// L2-bound accesses of the phase.
    pub accesses: u64,
    /// The optimizer's allocation for the phase's curves.
    pub allocation: Allocation,
}

/// Per-phase partition allocations plus the whole-run baseline.
///
/// Produced by [`Experiment::phase_allocations`]: the phase-change
/// detector segments the profiling windows, the optimizer runs once per
/// phase on that phase's curves, and once on the whole-run curves — the
/// paper's repartition-per-phase extension.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// The curve-delta threshold the phases were detected with.
    pub threshold: f64,
    /// One allocation per phase, in stream order.
    pub phases: Vec<PhaseAllocation>,
    /// The allocation the whole-run curves produce (the non-phase-aware
    /// baseline).
    pub whole_run: Allocation,
}

impl PhasePlan {
    /// Total predicted misses if each phase runs under its own
    /// allocation.
    pub fn predicted_misses_per_phase(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.allocation.predicted_misses)
            .sum()
    }

    /// Returns `true` if any two phases chose different allocations (the
    /// signal that repartitioning between phases can pay off).
    pub fn has_distinct_allocations(&self) -> bool {
        self.phases
            .windows(2)
            .any(|pair| pair[0].allocation.units != pair[1].allocation.units)
    }

    /// Converts the plan into an executable [`PartitionSchedule`]: one
    /// set-partitioned step per phase (each phase's allocation packed on
    /// `lattice`/`geometry` by the sizing step's
    /// [`pack`](SolverContext::pack)), switching at each phase's start
    /// cycle.
    ///
    /// Each step after the first is packed stably against its
    /// predecessor, so a key whose allocation did not change between
    /// phases keeps its exact sets and the switch flushes only the
    /// partitions that actually re-sized or moved.
    ///
    /// Steps are kept even when consecutive phases chose the same
    /// allocation — re-applying an identical map flushes nothing, and
    /// the fired boundary records give the validation driver its
    /// per-phase measurement points. A phase whose start cycle does not
    /// advance past the previous step's (degenerate windows) is folded
    /// into it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CapacityExceeded`] if a phase's allocation
    /// does not fit the lattice, and propagates map-packing and schedule
    /// validation errors (an empty plan has no schedule).
    pub fn to_schedule(
        &self,
        lattice: &CacheSizeLattice,
        geometry: compmem_cache::CacheGeometry,
    ) -> Result<PartitionSchedule, CoreError> {
        let mut steps: Vec<(u64, OrganizationSpec)> = Vec::new();
        let mut previous = None;
        for (at_cycle, range) in self.step_groups() {
            let allocation = &self.phases[*range.start()].allocation;
            let map = pack_allocation(lattice, geometry, allocation, previous.as_ref())?;
            previous = Some(map.clone());
            steps.push((at_cycle, OrganizationSpec::SetPartitioned(map)));
        }
        PartitionSchedule::new(steps).map_err(CoreError::from)
    }

    /// Groups phases into schedule steps: each entry is the step's
    /// boundary cycle plus the inclusive range of phase indices it
    /// covers. A phase whose start cycle does not advance past the
    /// previous step's boundary (degenerate windows) folds into that
    /// step. This is the **single** definition of the phase → step
    /// mapping, shared by [`to_schedule`](Self::to_schedule) and
    /// [`validate_phase_plan`] so the two can never drift apart.
    fn step_groups(&self) -> Vec<(u64, std::ops::RangeInclusive<usize>)> {
        let mut groups: Vec<(u64, std::ops::RangeInclusive<usize>)> = Vec::new();
        for (i, phase) in self.phases.iter().enumerate() {
            let at_cycle = if i == 0 { 0 } else { phase.start_cycle };
            match groups.last_mut() {
                Some((last, range)) if at_cycle <= *last => *range = *range.start()..=i,
                _ => groups.push((at_cycle, i..=i)),
            }
        }
        groups
    }
}

/// Predicted versus measured misses of one phase of a scheduled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseComparison {
    /// Phase index (stream order).
    pub phase: usize,
    /// Start cycle of the phase.
    pub start_cycle: u64,
    /// End cycle of the phase.
    pub end_cycle: u64,
    /// Misses the optimizer predicted for the phase under its own
    /// allocation.
    pub predicted_misses: u64,
    /// Misses the scheduled run actually accumulated between this
    /// phase's repartition boundaries.
    pub measured_misses: u64,
}

impl PhaseComparison {
    /// Measured minus predicted misses (positive: the phase missed more
    /// than predicted).
    pub fn delta(&self) -> i64 {
        self.measured_misses as i64 - self.predicted_misses as i64
    }
}

/// Outcome of the static-best versus phase-scheduled validation driver
/// ([`validate_phase_plan`]): both runs replay the **same** recorded
/// trace, so the miss deltas are attributable to the partitioning policy
/// alone.
#[derive(Debug, Clone)]
pub struct ScheduleValidation {
    /// The executable schedule derived from the plan.
    pub schedule: PartitionSchedule,
    /// The plan's whole-run allocation as a single-step schedule.
    pub static_schedule: PartitionSchedule,
    /// The whole-run allocation applied statically (the non-phase-aware
    /// best).
    pub static_outcome: RunOutcome,
    /// The per-phase schedule executed on the same trace.
    pub scheduled_outcome: RunOutcome,
    /// Per-phase predicted vs measured misses, segmented at the fired
    /// repartition boundaries. Comparison `i` covers the schedule's
    /// `i`-th step; phases whose step was folded into its predecessor
    /// (degenerate windows sharing a start cycle — see
    /// [`PhasePlan::to_schedule`]) merge their predictions into that
    /// predecessor's comparison, so predicted and measured always
    /// describe the same cycle range.
    pub phases: Vec<PhaseComparison>,
}

impl ScheduleValidation {
    /// Static-run misses minus scheduled-run misses (positive: the
    /// schedule saved misses net of its repartition flushes).
    pub fn measured_improvement(&self) -> i64 {
        self.static_outcome.report.l2.misses as i64 - self.scheduled_outcome.report.l2.misses as i64
    }

    /// Total flush cost of every fired repartition.
    pub fn total_flush(&self) -> FlushStats {
        self.scheduled_outcome.report.total_flush()
    }
}

/// Runs the validation driver of the phase-aware execution path: replays
/// `trace` once under the plan's **whole-run** allocation (static best)
/// and once under the plan's [`PartitionSchedule`], then reports
/// per-phase predicted vs measured miss counts (segmented at the fired
/// repartition boundaries) alongside both outcomes.
///
/// The `compmem replay --schedule phases` CLI is built on it.
///
/// # Errors
///
/// Returns [`CoreError::CapacityExceeded`] if a phase's or the whole-run
/// allocation does not fit the lattice, and propagates schedule
/// construction, cache and platform errors.
pub fn validate_phase_plan(
    platform: &PlatformConfig,
    l2: CacheConfig,
    lattice: &CacheSizeLattice,
    plan: &PhasePlan,
    trace: &PreparedTrace,
) -> Result<ScheduleValidation, CoreError> {
    let geometry = l2.geometry();
    let schedule = plan.to_schedule(lattice, geometry)?;
    let static_map = pack_allocation(lattice, geometry, &plan.whole_run, None)?;
    let static_schedule = PartitionSchedule::single(OrganizationSpec::SetPartitioned(static_map));
    let static_outcome = replay_serial(platform, l2, &static_schedule, trace)?;
    let scheduled_outcome = replay_serial(platform, l2, &schedule, trace)?;

    // Measured misses per boundary segment: differences of the L2 miss
    // counter snapshotted at each fired switch, plus the tail.
    let log = &scheduled_outcome.report.repartitions;
    let mut measured = Vec::with_capacity(log.len() + 1);
    let mut previous = 0u64;
    for record in log {
        measured.push(record.l2_misses_before - previous);
        previous = record.l2_misses_before;
    }
    measured.push(scheduled_outcome.report.l2.misses - previous);
    // One comparison per schedule step (`PhasePlan::step_groups` is the
    // single owner of the phase → step fold rule): folded phases merge
    // their predictions into the step they share.
    let phases = plan
        .step_groups()
        .into_iter()
        .enumerate()
        .map(|(segment, (_, range))| {
            let members = &plan.phases[range];
            PhaseComparison {
                phase: segment,
                start_cycle: members[0].start_cycle,
                end_cycle: members.iter().map(|p| p.end_cycle).max().unwrap_or(0),
                predicted_misses: members.iter().map(|p| p.allocation.predicted_misses).sum(),
                measured_misses: measured.get(segment).copied().unwrap_or(0),
            }
        })
        .collect();
    Ok(ScheduleValidation {
        schedule,
        static_schedule,
        static_outcome,
        scheduled_outcome,
        phases,
    })
}

/// An experiment bound to an application factory.
///
/// The factory is invoked once per simulation run (the process network is
/// consumed by execution); it must be deterministic so that all runs see the
/// same address-space layout. When the factory is additionally `Sync`,
/// batches of runs execute in parallel worker threads.
pub struct Experiment<F> {
    config: ExperimentConfig,
    factory: F,
    /// Region table of the application, derived lazily from one factory
    /// call and cached: spec construction must not pay a full application
    /// build per call.
    table: OnceLock<RegionTable>,
}

impl<F: Fn() -> Application> Experiment<F> {
    /// Creates an experiment.
    pub fn new(config: ExperimentConfig, factory: F) -> Self {
        Experiment {
            config,
            factory,
            table: OnceLock::new(),
        }
    }

    /// The configuration of the experiment.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    fn platform_for(&self, app: &Application) -> PlatformConfig {
        self.config.platform.with_os_regions(app.os_regions)
    }

    fn lattice(&self) -> CacheSizeLattice {
        CacheSizeLattice::new(self.config.l2.geometry(), self.config.sets_per_unit)
    }

    /// The application's region table (see the `table` field).
    fn table(&self) -> &RegionTable {
        self.table
            .get_or_init(|| (self.factory)().space.table().clone())
    }

    /// The sizing step on this experiment's L2 and solver.
    fn solver<'a>(
        &self,
        table: &'a RegionTable,
        lattice: &'a CacheSizeLattice,
    ) -> SolverContext<'a> {
        SolverContext {
            table,
            lattice,
            geometry: self.config.l2.geometry(),
            optimizer: self.config.optimizer,
        }
    }

    /// The resolution the single-pass profiler runs at: every power-of-two
    /// set count from one allocation unit up to the full L2, at the L2's
    /// associativity — a superset of every lattice this experiment can
    /// ask about.
    pub fn curve_resolution(&self) -> CurveResolution {
        CurveResolution::for_geometry(self.config.l2.geometry(), self.config.sets_per_unit)
            .expect("sets per unit must be a power of two no larger than the cache")
    }

    // ----- spec constructors (pure data, no simulation) -----

    /// Spec of the shared-cache baseline on the configured L2.
    pub fn shared_spec(&self) -> ScenarioSpec {
        ScenarioSpec::live(self.config.l2, OrganizationSpec::Shared)
    }

    /// Spec of a shared-cache run with an alternative L2 configuration
    /// (e.g. the paper's 1 MB comparison point).
    pub fn shared_spec_with_l2(&self, l2: CacheConfig) -> ScenarioSpec {
        ScenarioSpec::live(l2, OrganizationSpec::Shared)
    }

    /// Spec of the way-partitioned (column caching) baseline, splitting the
    /// ways evenly over all entities of the application.
    ///
    /// The entity keys come from the application's region table, which is
    /// derived once (the first caller pays one factory invocation) and
    /// cached for the lifetime of the experiment.
    pub fn way_partitioned_spec(&self) -> ScenarioSpec {
        let keys = PartitionKey::distinct_keys(self.table());
        let allocation = WayAllocation::equal_split(self.config.l2.geometry(), &keys);
        ScenarioSpec::live(self.config.l2, OrganizationSpec::WayPartitioned(allocation))
    }

    // ----- the single execution path -----

    /// Runs the scenario once as described by `spec`.
    ///
    /// This is the only simulation driver: every organisation — baseline,
    /// partitioned or ablation — and both traffic sources go through this
    /// path. Replay scenarios never invoke the application factory, and
    /// honour the spec's [`ReplayParallelism`] (a set-shard split keeps
    /// cache-side numbers exact, but does not reconstruct timing).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] for a live spec whose schedule
    /// switches (only replays execute switches), and propagates cache,
    /// platform and workload errors — including
    /// [`LanesIneligible`](compmem_platform::PlatformError::LanesIneligible)
    /// when the spec *requires* lanes on a scenario that cannot split.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<RunOutcome, CoreError> {
        if let TrafficSource::Replay(trace) = &spec.traffic {
            return replay_outcome(
                &self.config.platform,
                spec.l2,
                &spec.schedule,
                trace,
                spec.parallelism,
            );
        }
        self.run_live(spec, |_, _| Ok(NullTap))
            .map(|(outcome, _)| outcome)
    }

    /// Runs `spec` live with the access tap `tap` builds for the
    /// application and its platform, and returns the outcome together
    /// with the tap: plain runs, recordings and profiling runs differ
    /// only in their tap.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] for a schedule that switches:
    /// repartitions apply on the recorded run axis, so a scheduled run
    /// records the trace once and replays it.
    fn run_live<T: AccessTap>(
        &self,
        spec: &ScenarioSpec,
        tap: impl FnOnce(&Application, &PlatformConfig) -> Result<T, CoreError>,
    ) -> Result<(RunOutcome, T), CoreError> {
        if !spec.schedule.is_static() {
            return Err(CoreError::Infeasible {
                reason: "live execution runs static organisations only; record the trace \
                         and replay it under the schedule (ScenarioSpec::scheduled_replay)"
                    .to_string(),
            });
        }
        let mut app = (self.factory)();
        let platform = self.platform_for(&app);
        let l2 = spec.organization().build(spec.l2, app.space.table())?;
        let mut system = System::new(platform, l2, app.mapping.clone())?;
        let mut tap = tap(&app, &platform)?;
        let report = system.run_traced(&mut app.network, &mut tap)?;
        let outcome = RunOutcome::new(report, app.space.table(), system.into_l2().snapshot());
        Ok((outcome, tap))
    }

    /// Runs `spec` live while recording every access entering the memory
    /// hierarchy, and returns the run's outcome together with the encoded
    /// trace.
    ///
    /// The trace embeds the application's region table, so it is a
    /// self-contained scenario: replaying it (see
    /// [`ScenarioSpec::replaying`]) against the same platform parameters
    /// and organisation reproduces this run's [`CacheSnapshot`] exactly,
    /// and sweeping other organisations over it skips workload execution.
    /// The trace is built from the writer's own counts
    /// ([`TraceWriter::finish_trace`]), without decoding it again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when `spec` names replay traffic
    /// (recording requires live execution), and propagates cache,
    /// platform, workload and trace-encoding errors otherwise.
    pub fn record_trace(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<(RunOutcome, Arc<PreparedTrace>), CoreError> {
        if spec.traffic.is_replay() {
            return Err(CoreError::Infeasible {
                reason: "record_trace requires a live scenario; replaying a trace while \
                         recording it would not execute the workload"
                    .to_string(),
            });
        }
        let (outcome, writer) = self.run_live(spec, |app, platform| {
            let processors = platform.num_processors as u32;
            Ok(TraceWriter::new(Vec::new(), app.space.table(), processors)?)
        })?;
        let trace = PreparedTrace::from(writer.finish_trace()?);
        Ok((outcome, Arc::new(trace)))
    }

    /// Runs the shared-cache baseline live while a whole-run
    /// [`WindowedProfiler`] tap measures the per-entity miss-rate curves in
    /// the same pass, and returns both.
    ///
    /// One live execution yields the shared baseline *and* the exact
    /// miss count of every entity at every resolved cache shape (see
    /// [`Experiment::curve_resolution`]), without materialising a trace.
    /// The curves convert into the [`MissProfiles`] of any lattice via
    /// [`MissRateCurves::to_profiles`].
    ///
    /// # Errors
    ///
    /// Propagates platform and workload errors, and returns
    /// [`CoreError::NonLruProfiling`] when the configured L2 policy is
    /// not LRU (the curves would not describe the real cache).
    pub fn profile_curves(&self) -> Result<(RunOutcome, MissRateCurves), CoreError> {
        let (outcome, windowed) = self.profile_curves_windowed(WindowConfig::whole_run())?;
        Ok((outcome, windowed.total))
    }

    /// Runs the shared-cache baseline live while a windowed profiler tap
    /// measures the per-entity miss-rate curves **per window** — the
    /// phase-aware variant of [`Experiment::profile_curves`].
    ///
    /// The returned [`WindowedCurves`] carries one [`MissRateCurves`]
    /// snapshot per window plus the exact whole-run curves (`total`,
    /// identical to what `profile_curves` measures); feed it to
    /// [`Experiment::phase_allocations`] to re-run the optimizer per
    /// detected phase.
    ///
    /// # Errors
    ///
    /// Propagates platform and workload errors, and returns
    /// [`CoreError::NonLruProfiling`] when the configured L2 policy is
    /// not LRU, as for [`Experiment::profile_curves`].
    pub fn profile_curves_windowed(
        &self,
        window: WindowConfig,
    ) -> Result<(RunOutcome, WindowedCurves), CoreError> {
        require_lru(self.config.l2)?;
        let (outcome, profiler) = self.run_live(&self.shared_spec(), |app, _| {
            Ok(WindowedProfiler::new(
                window,
                self.curve_resolution(),
                app.space.table(),
            ))
        })?;
        Ok((outcome, profiler.finish()))
    }

    /// Evaluates the analytic L2 size × associativity sweep from one set
    /// of measured curves: the exact shared-cache miss count at **every**
    /// resolved shape, without a replay per shape (see
    /// [`sweep_shapes_from_curves`]).
    pub fn sweep_shapes(&self, curves: &MissRateCurves) -> ShapeSweep {
        sweep_shapes_from_curves(curves)
    }

    /// Segments a windowed profiling pass into phases and sizes the
    /// partitions once per phase plus once for the whole run.
    ///
    /// `threshold` is the [`curve_delta`](compmem_cache::curve_delta)
    /// above which consecutive windows belong to different phases (0.10
    /// is a reasonable default); `table` names the entities and pins the
    /// FIFOs, exactly as in [`allocation_problem_for_table`].
    /// Entities generating no traffic during a phase receive the
    /// optimizer's minimum allocation for that phase.
    ///
    /// # Errors
    ///
    /// Propagates optimizer and curve-conversion errors.
    pub fn phase_allocations(
        &self,
        windowed: &WindowedCurves,
        threshold: f64,
        table: &RegionTable,
    ) -> Result<PhasePlan, CoreError> {
        phase_allocations_for_table(
            windowed,
            threshold,
            table,
            &self.lattice(),
            self.config.l2.geometry(),
            self.config.optimizer,
        )
    }

    /// Replays a recorded trace under a time-varying partitioning policy
    /// on this experiment's L2 — the execution half of the phase-aware
    /// flow: derive a [`PhasePlan`], convert it with
    /// [`PhasePlan::to_schedule`], and run it here (or go through
    /// [`validate_phase_plan`] to also get the static-best comparison).
    ///
    /// # Errors
    ///
    /// Propagates cache and platform errors.
    pub fn run_scheduled(
        &self,
        trace: &Arc<PreparedTrace>,
        schedule: PartitionSchedule,
    ) -> Result<RunOutcome, CoreError> {
        self.run(&ScenarioSpec::scheduled_replay(
            self.config.l2,
            schedule,
            Arc::clone(trace),
        ))
    }

    /// Runs the shared-cache baseline and measures the per-entity miss
    /// profiles in the same run, via the single-pass stack-distance
    /// profiler ([`Experiment::profile_curves`] evaluated on this
    /// experiment's lattice).
    ///
    /// # Errors
    ///
    /// Propagates platform and workload errors.
    pub fn run_profiled(&self) -> Result<(RunOutcome, MissProfiles), CoreError> {
        let (outcome, curves) = self.profile_curves()?;
        let profiles = self
            .solver(self.table(), &self.lattice())
            .profiles(&curves)?;
        Ok((outcome, profiles))
    }

    /// Runs the complete method of the paper on the application.
    ///
    /// # Errors
    ///
    /// Propagates all underlying errors.
    pub fn run_paper_flow(&self) -> Result<PaperFlowOutcome, CoreError> {
        let reference_app = (self.factory)();
        let names = key_names(&reference_app);
        let app_name = reference_app.name.clone();

        let lattice = self.lattice();
        let solver = self.solver(reference_app.space.table(), &lattice);
        let (shared, curves) = self.profile_curves()?;
        let profiles = solver.profiles(&curves)?;
        let allocation = solver.allocate(profiles.clone(), &[])?;
        let map = solver.pack(&allocation, None)?;
        let partitioned = self.run(&ScenarioSpec::live(
            self.config.l2,
            OrganizationSpec::SetPartitioned(map),
        ))?;
        let compositionality =
            CompositionalityReport::compare(&profiles, &allocation, &partitioned.misses_by_key());
        Ok(PaperFlowOutcome {
            app_name,
            shared,
            profiles,
            allocation,
            partitioned,
            compositionality,
            key_names: names,
            sets_per_unit: self.config.sets_per_unit,
        })
    }
}

impl<F: Fn() -> Application + Sync> Experiment<F> {
    /// Runs a batch of independent specs on the bounded batch
    /// executor with [`executor::default_jobs`] workers and returns the
    /// outcomes in spec order.
    ///
    /// The runs share nothing mutable — each worker builds its own
    /// application (live specs) or reads the shared `Arc`'d trace (replay
    /// specs) and its own `Box<dyn CacheModel>` — which is exactly what the
    /// trait-object refactor buys: no monomorphised type ties the runs
    /// together, so a shared/partitioned pair or a whole organisation sweep
    /// over one recorded trace executes concurrently. A spec that panics
    /// reports [`CoreError::WorkerPanicked`] in its own slot; the rest of
    /// the batch completes.
    pub fn run_all(&self, specs: &[ScenarioSpec]) -> Vec<Result<RunOutcome, CoreError>> {
        self.run_all_jobs(specs, executor::default_jobs())
    }

    /// [`Experiment::run_all`] with an explicit worker count.
    ///
    /// `jobs` bounds the pool (clamped to `1..=specs.len()`); `jobs == 1`
    /// runs the batch serially on the calling thread. The outcome vector is
    /// identical for every `jobs` value — the determinism suite asserts
    /// byte-identical [`CacheSnapshot`]s for 1 vs N workers.
    pub fn run_all_jobs(
        &self,
        specs: &[ScenarioSpec],
        jobs: usize,
    ) -> Vec<Result<RunOutcome, CoreError>> {
        executor::run_batch(specs, jobs, |_, spec| self.run(spec))
    }

    /// Compares the three partition-sizing strategies on already-measured
    /// profiles (the optimiser ablation), solving them in parallel on the
    /// batch executor.
    ///
    /// The profiles are typically curve-derived
    /// ([`Experiment::run_profiled`]); the table names the entities and
    /// pins the FIFOs, and may come from an application
    /// (`app.space.table()`) or from a recorded trace.
    ///
    /// # Errors
    ///
    /// Propagates optimiser errors; a panicking solver surfaces as
    /// [`CoreError::WorkerPanicked`] instead of aborting the batch.
    pub fn compare_optimizers(
        &self,
        table: &RegionTable,
        profiles: &MissProfiles,
    ) -> Result<Vec<Allocation>, CoreError> {
        let lattice = self.lattice();
        let solver = self.solver(table, &lattice);
        let kinds = [
            OptimizerKind::ExactIlp,
            OptimizerKind::Greedy,
            OptimizerKind::EqualSplit,
        ];
        executor::run_batch(&kinds, executor::default_jobs(), |_, &optimizer| {
            SolverContext {
                optimizer,
                ..solver
            }
            .allocate(profiles.clone(), &[])
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer;
    use compmem_cache::PartitionMap;
    use compmem_workloads::apps::{jpeg_canny_app, mpeg2_app, JpegCannyParams, Mpeg2Params};

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            platform: PlatformConfig::default(),
            // A small L2 so the tiny workloads still exhibit contention, but
            // with enough allocation units for every entity of the tiny apps.
            l2: CacheConfig::with_size_bytes(64 * 1024, 4).unwrap(),
            sets_per_unit: 4,
            optimizer: OptimizerKind::ExactIlp,
        }
    }

    #[test]
    fn paper_flow_on_tiny_jpeg_canny_is_compositional_and_reduces_misses() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let outcome = experiment.run_paper_flow().unwrap();
        assert_eq!(outcome.app_name, "jpeg_canny");
        assert!(outcome.shared.report.l2.accesses > 0);
        assert!(outcome.partitioned.report.l2.misses > 0);
        // Partitioning must not increase misses dramatically and the
        // partitioned run must match the stand-alone expectation closely.
        assert!(
            outcome.compositionality.max_relative_difference() < 0.05,
            "compositionality error {}",
            outcome.compositionality.max_relative_difference()
        );
        assert!(outcome.allocation.total_units <= 64);
        assert!(!outcome.table_rows().is_empty());
        assert_eq!(outcome.figure2_rows().len(), outcome.allocation.units.len());
        assert!(!outcome.summary().is_empty());
        // The runs expose which organisation they went through.
        assert_eq!(outcome.shared.l2_snapshot.organization, "shared");
        assert_eq!(
            outcome.partitioned.l2_snapshot.organization,
            "set-partitioned"
        );
        assert!(!outcome.partitioned.l2_snapshot.by_partition.is_empty());
    }

    #[test]
    fn paper_flow_on_tiny_mpeg2_runs() {
        let params = Mpeg2Params::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            mpeg2_app(&params).expect("valid params")
        });
        let outcome = experiment.run_paper_flow().unwrap();
        assert_eq!(outcome.app_name, "mpeg2");
        assert!(outcome.shared.report.total_instructions() > 0);
        assert!(outcome
            .key_names
            .values()
            .any(|n| n == "vld" || n == "idct"));
        assert!(outcome.compositionality.max_relative_difference() < 0.1);
    }

    #[test]
    fn spec_batch_runs_all_organisations_in_parallel() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let specs = vec![
            experiment.shared_spec(),
            experiment.way_partitioned_spec(),
            experiment.shared_spec_with_l2(CacheConfig::with_size_bytes(8 * 1024, 4).unwrap()),
        ];
        let results = experiment.run_all(&specs);
        assert_eq!(results.len(), 3);
        let shared = results[0].as_ref().unwrap();
        let way = results[1].as_ref().unwrap();
        let small = results[2].as_ref().unwrap();
        assert!(way.report.l2.accesses > 0);
        assert_eq!(way.l2_snapshot.organization, "way-partitioned");
        // A larger shared cache can only help.
        assert!(shared.report.l2.misses <= small.report.l2.misses);
        // All organisations execute the same functional work.
        assert_eq!(
            shared.report.total_instructions(),
            way.report.total_instructions()
        );
    }

    #[test]
    fn parallel_runs_match_sequential_runs() {
        let params = Mpeg2Params::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            mpeg2_app(&params).expect("valid params")
        });
        let specs = vec![experiment.shared_spec(), experiment.way_partitioned_spec()];
        let parallel = experiment.run_all(&specs);
        for (spec, outcome) in specs.iter().zip(&parallel) {
            let sequential = experiment.run(spec).unwrap();
            assert_eq!(
                outcome.as_ref().unwrap(),
                &sequential,
                "parallel and sequential runs of `{}` diverged",
                spec.label()
            );
        }
    }

    #[test]
    fn run_all_is_deterministic_across_worker_counts() {
        let params = Mpeg2Params::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            mpeg2_app(&params).expect("valid params")
        });
        // Replay traffic so every jobs count sees the identical access
        // stream; a fleet larger than any worker count exercises the
        // shared cursor.
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        let mut specs = Vec::new();
        for kb in [16u64, 32, 64] {
            let l2 = CacheConfig::with_size_bytes(kb * 1024, 4).unwrap();
            let mut spec = experiment.shared_spec_with_l2(l2);
            spec.traffic = TrafficSource::Replay(Arc::clone(&trace));
            specs.push(spec);
        }
        let serial = experiment.run_all_jobs(&specs, 1);
        for jobs in [2, 4, specs.len() + 5] {
            let parallel = experiment.run_all_jobs(&specs, jobs);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                let s = s.as_ref().unwrap();
                let p = p.as_ref().unwrap();
                // Byte-identical snapshots: same counters, same per-key
                // stats, same organisation — the executor only reorders
                // *which thread* runs a spec, never what the spec computes.
                assert_eq!(s.l2_snapshot, p.l2_snapshot, "jobs={jobs}");
                assert_eq!(s, p, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn optimizer_comparison_orders_strategies() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (_, profiles) = experiment.run_profiled().unwrap();
        let app = jpeg_canny_app(&JpegCannyParams::tiny()).unwrap();
        let allocations = experiment
            .compare_optimizers(app.space.table(), &profiles)
            .unwrap();
        assert_eq!(allocations.len(), 3);
        let exact = &allocations[0];
        for other in &allocations[1..] {
            assert!(exact.predicted_misses <= other.predicted_misses);
        }
    }

    #[test]
    fn windowed_profiling_leaves_the_whole_run_curves_unchanged() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (plain_outcome, plain) = experiment.profile_curves().unwrap();
        let window = WindowConfig::accesses(2_000).unwrap();
        let (outcome, windowed) = experiment.profile_curves_windowed(window).unwrap();
        // Same baseline run, same whole-run curves; windows tile the run.
        assert_eq!(outcome.report, plain_outcome.report);
        assert_eq!(windowed.total, plain);
        assert_eq!(windowed.reconstruct_total(), plain);
        assert!(windowed.windows.len() > 1, "enough traffic for 2+ windows");
        let per_window: u64 = windowed.windows.iter().map(|w| w.curves.accesses()).sum();
        assert_eq!(per_window, plain.accesses());
    }

    #[test]
    fn phase_allocations_cover_the_run_and_baseline_matches_run_profiled() {
        let params = Mpeg2Params::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            mpeg2_app(&params).expect("valid params")
        });
        let app = mpeg2_app(&Mpeg2Params::tiny()).unwrap();
        let window = WindowConfig::accesses(1_500).unwrap();
        let (_, windowed) = experiment.profile_curves_windowed(window).unwrap();
        let plan = experiment
            .phase_allocations(&windowed, 0.1, app.space.table())
            .unwrap();
        assert!(!plan.phases.is_empty());
        // Phases tile the windows without gaps or overlaps.
        assert_eq!(plan.phases[0].first_window, 0);
        for pair in plan.phases.windows(2) {
            assert_eq!(pair[0].last_window + 1, pair[1].first_window);
        }
        assert_eq!(
            plan.phases.last().unwrap().last_window,
            windowed.windows.len() - 1
        );
        let phase_accesses: u64 = plan.phases.iter().map(|p| p.accesses).sum();
        assert_eq!(phase_accesses, windowed.total.accesses());
        // Every phase allocation fits the cache.
        let lattice_units = CacheSizeLattice::new(
            experiment.config().l2.geometry(),
            experiment.config().sets_per_unit,
        )
        .total_units;
        for phase in &plan.phases {
            assert!(phase.allocation.total_units <= lattice_units);
        }
        // The whole-run baseline equals the non-windowed paper flow's
        // allocation.
        let (_, profiles) = experiment.run_profiled().unwrap();
        let problem = allocation_problem_for_table(
            app.space.table(),
            &experiment.lattice(),
            experiment.config().l2.geometry(),
            profiles,
        );
        let reference = optimizer::solve(&problem, experiment.config().optimizer).unwrap();
        assert_eq!(plan.whole_run.units, reference.units);
        // Specialising per phase can never predict more misses than the
        // whole-run allocation applied to every phase.
        let whole_on_phases: u64 = plan
            .phases
            .iter()
            .map(|p| {
                let profiles = windowed
                    .merged(p.first_window, p.last_window)
                    .to_profiles(
                        &experiment.lattice(),
                        experiment.config().l2.geometry().ways(),
                    )
                    .unwrap();
                profiles.total_misses(&plan.whole_run.units)
            })
            .sum();
        assert!(plan.predicted_misses_per_phase() <= whole_on_phases);
        let _ = plan.has_distinct_allocations();
    }

    #[test]
    fn shape_sweep_is_monotone_and_matches_the_curves() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (_, curves) = experiment.profile_curves().unwrap();
        let sweep = experiment.sweep_shapes(&curves);
        let resolution = experiment.curve_resolution();
        let expected_points = resolution.levels() * (resolution.ways_cap.ilog2() as usize + 1);
        assert_eq!(sweep.points.len(), expected_points);
        assert_eq!(sweep.accesses, curves.accesses());
        for point in &sweep.points {
            assert_eq!(
                point.misses,
                curves.shared_misses(point.sets, point.ways).unwrap()
            );
            assert_eq!(
                point.size_bytes,
                u64::from(point.sets) * u64::from(point.ways) * 64
            );
        }
        // LRU inclusion: growing either dimension never adds misses.
        for ways in sweep.way_counts() {
            let by_sets: Vec<u64> = sweep
                .points
                .iter()
                .filter(|p| p.ways == ways)
                .map(|p| p.misses)
                .collect();
            assert!(by_sets.windows(2).all(|w| w[0] >= w[1]), "ways={ways}");
        }
        for sets in sweep.set_counts() {
            let by_ways: Vec<u64> = sweep
                .points
                .iter()
                .filter(|p| p.sets == sets)
                .map(|p| p.misses)
                .collect();
            assert!(by_ways.windows(2).all(|w| w[0] >= w[1]), "sets={sets}");
        }
    }

    #[test]
    fn non_lru_profiling_is_a_typed_error() {
        let params = JpegCannyParams::tiny();
        let mut config = tiny_config();
        config.l2 = config.l2.policy(compmem_cache::ReplacementPolicy::Fifo);
        let experiment = Experiment::new(config, move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        for result in [
            experiment.profile_curves().map(|_| ()),
            experiment
                .profile_curves_windowed(WindowConfig::accesses(500).unwrap())
                .map(|_| ()),
            experiment.run_profiled().map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(CoreError::NonLruProfiling { ref policy }) if policy == "fifo"),
                "profiling a FIFO L2 must fail with the typed error, got {result:?}"
            );
        }
        let message = experiment.run_profiled().unwrap_err().to_string();
        assert_eq!(
            message,
            "stack-distance profiling is exact for LRU only; the scenario's L2 uses `fifo` \
             (switch the L2 to LRU)"
        );
        // The scenario still *runs* (only profiling is gated).
        assert!(experiment.run(&experiment.shared_spec()).is_ok());
    }

    #[test]
    fn phase_plan_executes_as_a_schedule_with_measured_per_phase_misses() {
        let params = Mpeg2Params::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            mpeg2_app(&params).expect("valid params")
        });
        let app = mpeg2_app(&Mpeg2Params::tiny()).unwrap();
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        let window = WindowConfig::accesses(1_500).unwrap();
        let (_, windowed) = experiment.profile_curves_windowed(window).unwrap();
        let plan = experiment
            .phase_allocations(&windowed, 0.1, app.space.table())
            .unwrap();

        let schedule = plan
            .to_schedule(&experiment.lattice(), experiment.config().l2.geometry())
            .unwrap();
        assert_eq!(schedule.len(), plan.phases.len());
        assert_eq!(schedule.label(), "set-partitioned");

        // The scheduled replay completes end-to-end and is deterministic.
        let once = experiment.run_scheduled(&trace, schedule.clone()).unwrap();
        let twice = experiment.run_scheduled(&trace, schedule.clone()).unwrap();
        assert_eq!(once, twice, "scheduled replays must be deterministic");
        assert_eq!(
            once.report.repartitions.len(),
            schedule.switches().len(),
            "every switch boundary lies inside the recorded run"
        );

        // The validation driver reports per-phase predicted vs measured
        // misses; the measured segments tile the scheduled run exactly.
        let config = experiment.config();
        let validation = validate_phase_plan(
            &config.platform,
            config.l2,
            &experiment.lattice(),
            &plan,
            &trace,
        )
        .unwrap();
        assert_eq!(validation.phases.len(), plan.phases.len());
        let measured_total: u64 = validation.phases.iter().map(|p| p.measured_misses).sum();
        assert_eq!(
            measured_total,
            validation.scheduled_outcome.report.l2.misses
        );
        for (comparison, phase) in validation.phases.iter().zip(&plan.phases) {
            assert_eq!(
                comparison.predicted_misses,
                phase.allocation.predicted_misses
            );
            let _ = comparison.delta();
        }
        // Flush traffic of every fired switch is visible in the timing
        // path: the scheduled run wrote back at least as much as the
        // static one.
        let flush = validation.total_flush();
        assert!(
            validation.scheduled_outcome.report.dram_writebacks
                >= validation
                    .static_outcome
                    .report
                    .dram_writebacks
                    .saturating_sub(flush.written_back)
        );
        assert_eq!(
            validation.static_outcome.l2_snapshot.organization,
            "set-partitioned"
        );
    }

    #[test]
    fn scenario_spec_display_prints_the_schedule() {
        let l2 = CacheConfig::with_size_bytes(64 * 1024, 4).unwrap();
        let static_spec = ScenarioSpec::live(l2, OrganizationSpec::Shared);
        assert_eq!(
            static_spec.to_string(),
            "64 KB 4-way L2, live traffic, schedule shared (static)"
        );
        let key = PartitionKey::AppData;
        let map = |sets: u32| PartitionMap::pack(l2.geometry(), &[(key, sets)]).unwrap();
        let schedule = PartitionSchedule::new(vec![
            (0, OrganizationSpec::SetPartitioned(map(64))),
            (5_000, OrganizationSpec::SetPartitioned(map(128))),
            (9_000, OrganizationSpec::SetPartitioned(map(32))),
        ])
        .unwrap();
        let spec = ScenarioSpec {
            schedule,
            ..ScenarioSpec::live(l2, OrganizationSpec::Shared)
        };
        assert_eq!(
            spec.to_string(),
            "64 KB 4-way L2, live traffic, schedule set-partitioned x 3 steps \
             (switch at 5000, 9000)"
        );
        assert_eq!(spec.label(), "set-partitioned");
        assert_eq!(spec.organization().label(), "set-partitioned");

        // Non-default parallelism is part of the printed summary; the
        // serial default leaves the strings above untouched.
        let parallel = static_spec
            .clone()
            .with_parallelism(ReplayParallelism::lanes(4));
        assert_eq!(
            parallel.to_string(),
            "64 KB 4-way L2, live traffic, schedule shared (static), lanes auto(4)"
        );
        let required = static_spec.with_parallelism(ReplayParallelism::required_lanes(3));
        assert_eq!(
            required.to_string(),
            "64 KB 4-way L2, live traffic, schedule shared (static), lanes required(3)"
        );
    }

    #[test]
    fn recorded_trace_replays_to_the_identical_snapshot() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let spec = experiment.shared_spec();
        let (live, trace) = experiment.record_trace(&spec).unwrap();
        assert!(trace.accesses() > 0);
        assert!(!trace.table().is_empty(), "trace embeds the region table");

        let replayed = experiment
            .run(&spec.clone().replaying(trace.clone()))
            .unwrap();
        assert_eq!(live.l2_snapshot, replayed.l2_snapshot);
        assert_eq!(live.by_key, replayed.by_key);
        assert_eq!(live.report.l1, replayed.report.l1);
        assert_eq!(live.report.dram_accesses, replayed.report.dram_accesses);

        // The standalone runner (no factory) agrees too.
        let standalone = run_replay(&experiment.config().platform, &spec.replaying(trace)).unwrap();
        assert_eq!(standalone.l2_snapshot, replayed.l2_snapshot);
    }

    #[test]
    fn replay_sweep_runs_organisations_in_parallel_over_one_trace() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        let specs = vec![
            experiment.shared_spec().replaying(trace.clone()),
            experiment.way_partitioned_spec().replaying(trace.clone()),
            experiment
                .shared_spec_with_l2(CacheConfig::with_size_bytes(8 * 1024, 4).unwrap())
                .replaying(trace.clone()),
        ];
        assert!(specs.iter().all(|s| s.traffic.is_replay()));
        let results = experiment.run_all(&specs);
        let shared = results[0].as_ref().unwrap();
        let way = results[1].as_ref().unwrap();
        let small = results[2].as_ref().unwrap();
        // All replays see exactly the recorded traffic.
        assert_eq!(
            shared.report.l1.accesses + way.report.l1.accesses,
            2 * trace.accesses()
        );
        assert_eq!(way.l2_snapshot.organization, "way-partitioned");
        // A larger cache can only help, replayed or live.
        assert!(shared.report.l2.misses <= small.report.l2.misses);
    }

    #[test]
    fn lane_parallel_replay_matches_serial_cache_side() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        // Give every entity of the trace an equal power-of-two set share,
        // so every partition splits into set shards.
        let geometry = experiment.config().l2.geometry();
        let keys = PartitionKey::distinct_keys(trace.table());
        let share = (geometry.sets() / keys.len().next_power_of_two() as u32).max(1);
        let sizes: Vec<(PartitionKey, u32)> = keys.iter().map(|k| (*k, share)).collect();
        let map = PartitionMap::pack(geometry, &sizes).unwrap();
        let spec = ScenarioSpec::replay(
            experiment.config().l2,
            OrganizationSpec::SetPartitioned(map),
            trace.clone(),
        );
        let serial = experiment.run(&spec).unwrap();
        assert_eq!(serial.lane_decision, None);
        let laned = experiment
            .run(&spec.clone().with_parallelism(ReplayParallelism::lanes(4)))
            .unwrap();
        let decision = laned.lane_decision.expect("lane runs report a decision");
        assert_eq!(decision.requested, 4);
        assert_eq!(decision.shards, 4);
        // Cache-side numbers are byte-identical to the serial replay.
        assert_eq!(serial.report.l1, laned.report.l1);
        assert_eq!(serial.report.l2, laned.report.l2);
        assert_eq!(serial.report.l2_by_task, laned.report.l2_by_task);
        assert_eq!(serial.report.l2_by_region, laned.report.l2_by_region);
        assert_eq!(serial.report.dram_accesses, laned.report.dram_accesses);
        assert_eq!(serial.report.dram_writebacks, laned.report.dram_writebacks);
        assert_eq!(serial.report.bus_bytes, laned.report.bus_bytes);
        assert_eq!(serial.by_key, laned.by_key);
        // The standalone runner honours the same spec.
        let standalone = run_replay(
            &experiment.config().platform,
            &spec.with_parallelism(ReplayParallelism::lanes(4)),
        )
        .unwrap();
        assert_eq!(standalone.report.l2, serial.report.l2);
    }

    #[test]
    fn required_lanes_on_an_unsplittable_scenario_is_a_typed_error() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        // One-set partitions cannot split into set shards.
        let keys = PartitionKey::distinct_keys(trace.table());
        let sizes: Vec<(PartitionKey, u32)> = keys.iter().map(|k| (*k, 1)).collect();
        let map = PartitionMap::pack(experiment.config().l2.geometry(), &sizes).unwrap();
        let spec = ScenarioSpec::replay(
            experiment.config().l2,
            OrganizationSpec::SetPartitioned(map),
            trace,
        );
        let required = spec
            .clone()
            .with_parallelism(ReplayParallelism::required_lanes(4));
        match experiment.run(&required) {
            Err(CoreError::Platform(compmem_platform::PlatformError::LanesIneligible {
                requested,
                reason,
            })) => {
                assert_eq!(requested, 4);
                assert!(reason.ends_with("is a single set"), "{reason}");
            }
            other => panic!("expected LanesIneligible, got {other:?}"),
        }
        // The opportunistic request replays serially instead.
        let auto = experiment
            .run(&spec.clone().with_parallelism(ReplayParallelism::lanes(4)))
            .unwrap();
        assert_eq!(auto, experiment.run(&spec).unwrap());
        assert_eq!(auto.lane_decision, None);
    }

    #[test]
    fn record_trace_rejects_replay_scenarios() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        let replay_spec = experiment.shared_spec().replaying(trace);
        assert!(matches!(
            experiment.record_trace(&replay_spec),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn run_replay_rejects_live_scenarios() {
        let spec = ScenarioSpec::live(
            CacheConfig::with_size_bytes(64 * 1024, 4).unwrap(),
            OrganizationSpec::Shared,
        );
        assert!(matches!(
            run_replay(&PlatformConfig::default(), &spec),
            Err(CoreError::Infeasible { .. })
        ));
        assert_eq!(spec.traffic.label(), "live");
    }

    #[test]
    fn every_pack_site_refuses_an_over_capacity_allocation() {
        let params = JpegCannyParams::tiny();
        let experiment = Experiment::new(tiny_config(), move || {
            jpeg_canny_app(&params).expect("valid params")
        });
        let config = experiment.config();
        let (lattice, geometry) = (experiment.lattice(), config.l2.geometry());
        let allocation = |units: u32| Allocation {
            kind: OptimizerKind::EqualSplit,
            units: BTreeMap::from([(PartitionKey::AppData, units)]),
            total_units: units,
            predicted_misses: 0,
        };
        let (fits, over) = (allocation(1), allocation(lattice.total_units + 1));
        let plan = |phase: &Allocation, whole_run: &Allocation| PhasePlan {
            threshold: 0.1,
            phases: vec![PhaseAllocation {
                first_window: 0,
                last_window: 0,
                start_cycle: 0,
                end_cycle: 1,
                accesses: 0,
                allocation: phase.clone(),
            }],
            whole_run: whole_run.clone(),
        };
        let refused = |result: Result<(), CoreError>| {
            let expected = CoreError::CapacityExceeded {
                requested: over.total_units,
                available: lattice.total_units,
            };
            assert_eq!(result, Err(expected));
        };
        let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        let solver = experiment.solver(trace.table(), &lattice);

        refused(solver.pack(&over, None).map(drop));
        refused(plan(&over, &fits).to_schedule(&lattice, geometry).map(drop));
        let validation = validate_phase_plan(
            &config.platform,
            config.l2,
            &lattice,
            &plan(&fits, &over),
            &trace,
        );
        refused(validation.map(drop));
    }
}
