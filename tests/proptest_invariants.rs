//! Property-based tests of the core invariants of the memory system.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use compmem::controller::{
    replay_controlled, ControllerConfig, ControllerPolicy, ControllerTick, SolverContext,
};
use compmem::experiment::{
    run_replay, Experiment, ExperimentConfig, ReplayParallelism, RunOutcome, ScenarioSpec,
};
use compmem::optimizer::{
    solve_equal_split, solve_exact, solve_exhaustive, solve_greedy, AllocationEntity,
    AllocationProblem,
};
use compmem::profile::{MissProfile, MissProfiles};
use compmem::{CoreError, OptimizerKind};
use compmem_cache::{
    per_size_profiles, CacheConfig, CacheGeometry, CacheModel, CacheSizeLattice, CurveResolution,
    OrganizationSpec, PartitionKey, PartitionMap, PartitionSchedule, SetPartitionedCache,
    SharedCache, WindowConfig, WindowedProfiler,
};
use compmem_platform::{profile_trace, PlatformConfig, PreparedTrace, ReplaySystem, SystemReport};
use compmem_trace::stats::ReuseDistanceHistogram;
use compmem_trace::{Access, Addr, RegionKind, RegionTable, TaskId};
use compmem_workloads::apps::{mpeg2_app, Mpeg2Params};

/// Strategy: a short trace of line-aligned accesses of one task inside a
/// bounded working set.
fn trace_strategy(lines: u64, len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..lines, 1..len)
}

/// Records two tasks' line streams as one trace on two processors. `order`
/// picks which task issues next; whatever it leaves of either stream
/// trails in task order. The cycle clock advances once every `stride`
/// accesses.
fn two_task_trace(task_a: Vec<u64>, task_b: Vec<u64>, order: &[u64], stride: u64) -> PreparedTrace {
    use compmem_trace::codec::{EncodedTrace, TraceWriter};

    let mut table = RegionTable::new();
    let regions = [
        table
            .insert(
                "a.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                192 * 64,
            )
            .unwrap(),
        table
            .insert(
                "b.data",
                RegionKind::TaskData {
                    task: TaskId::new(1),
                },
                192 * 64,
            )
            .unwrap(),
    ];
    let mut streams = [task_a.into_iter(), task_b.into_iter()];
    let mut picks: Vec<(usize, u64)> = order
        .iter()
        .filter_map(|&t| streams[t as usize].next().map(|line| (t as usize, line)))
        .collect();
    for (t, stream) in streams.iter_mut().enumerate() {
        picks.extend(stream.map(|line| (t, line)));
    }
    let mut writer = TraceWriter::new(Vec::new(), &table, 2).unwrap();
    for (i, &(t, line)) in picks.iter().enumerate() {
        let region = regions[t];
        let addr = table.region(region).base.offset(line * 64);
        let access = Access::load(addr, 4, TaskId::new(t as u32), region);
        writer.record(t as u32, i as u64 / stride, &access);
    }
    let (bytes, _) = writer.finish().unwrap();
    PreparedTrace::from(EncodedTrace::from_bytes(bytes).unwrap())
}

/// Profiles `trace` serially and in two and four set shards under
/// `window`, and requires the sharded results to equal the serial one.
fn set_shards_match_serial(trace: &PreparedTrace, window: WindowConfig) {
    use compmem_platform::{profile_trace_windowed, profile_trace_windowed_lanes};

    let platform = PlatformConfig::default()
        .processors(2)
        .l1(CacheConfig::new(4, 2).unwrap());
    let resolution = CurveResolution::new(4, 32, 4).unwrap();
    let serial = profile_trace_windowed(&platform, trace, resolution, window).unwrap();
    for shards in [2, 4] {
        let sharded =
            profile_trace_windowed_lanes(&platform, trace, resolution, window, shards).unwrap();
        prop_assert_eq!(&sharded, &serial);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single-set (fully associative) LRU cache must agree exactly with
    /// the reuse-distance stack oracle, whatever the trace.
    #[test]
    fn lru_cache_matches_stack_distance_oracle(
        lines in trace_strategy(48, 200),
        ways in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
    ) {
        let accesses: Vec<Access> = lines
            .iter()
            .map(|&l| Access::load(Addr::new(l * 64), 4, TaskId::new(0), compmem_trace::RegionId::new(0)))
            .collect();
        let oracle = ReuseDistanceHistogram::from_accesses(&accesses);
        let mut cache = compmem_cache::SetAssocCache::new(CacheConfig::new(1, ways).unwrap());
        for a in &accesses {
            cache.access(a);
        }
        prop_assert_eq!(cache.stats().misses, oracle.lru_misses(u64::from(ways)));
    }

    /// Compositionality invariant of the set-partitioned cache: a task's
    /// miss count is completely independent of what any other task does.
    #[test]
    fn partitioned_cache_isolates_tasks(
        task_a in trace_strategy(256, 300),
        task_b in trace_strategy(256, 300),
    ) {
        let mut table = RegionTable::new();
        let ra = table
            .insert("a.data", RegionKind::TaskData { task: TaskId::new(0) }, 256 * 64)
            .unwrap();
        let rb = table
            .insert("b.data", RegionKind::TaskData { task: TaskId::new(1) }, 256 * 64)
            .unwrap();
        let base_a = table.region(ra).base;
        let base_b = table.region(rb).base;
        let config = CacheConfig::new(64, 4).unwrap();
        let map = PartitionMap::pack(
            config.geometry(),
            &[
                (PartitionKey::Task(TaskId::new(0)), 16),
                (PartitionKey::Task(TaskId::new(1)), 16),
            ],
        )
        .unwrap();

        let a_accesses: Vec<Access> = task_a
            .iter()
            .map(|&l| Access::load(base_a.offset(l * 64), 4, TaskId::new(0), ra))
            .collect();
        let b_accesses: Vec<Access> = task_b
            .iter()
            .map(|&l| Access::load(base_b.offset(l * 64), 4, TaskId::new(1), rb))
            .collect();

        // Run task A alone.
        let mut alone = SetPartitionedCache::new(config, &table, &map).unwrap();
        for a in &a_accesses {
            alone.access(a);
        }
        let alone_misses = alone.stats_by_task().get(&TaskId::new(0)).misses;

        // Run task A interleaved with arbitrary traffic from task B.
        let mut together = SetPartitionedCache::new(config, &table, &map).unwrap();
        let mut ai = a_accesses.iter();
        let mut bi = b_accesses.iter();
        loop {
            let a = ai.next();
            let b = bi.next();
            if let Some(a) = a {
                together.access(a);
            }
            if let Some(b) = b {
                together.access(b);
                together.access(b);
            }
            if a.is_none() && b.is_none() {
                break;
            }
        }
        let together_misses = together.stats_by_task().get(&TaskId::new(0)).misses;
        prop_assert_eq!(alone_misses, together_misses);
    }

    /// In a conventional shared cache the same co-run may inflate a task's
    /// misses, but it can never reduce them below the stand-alone count when
    /// the tasks touch disjoint data.
    #[test]
    fn shared_cache_never_reduces_misses_of_disjoint_tasks(
        task_a in trace_strategy(128, 200),
        task_b in trace_strategy(128, 200),
    ) {
        let mut table = RegionTable::new();
        let ra = table
            .insert("a.data", RegionKind::TaskData { task: TaskId::new(0) }, 128 * 64)
            .unwrap();
        let rb = table
            .insert("b.data", RegionKind::TaskData { task: TaskId::new(1) }, 128 * 64)
            .unwrap();
        let base_a = table.region(ra).base;
        let base_b = table.region(rb).base;
        let config = CacheConfig::new(32, 2).unwrap();

        let a_accesses: Vec<Access> = task_a
            .iter()
            .map(|&l| Access::load(base_a.offset(l * 64), 4, TaskId::new(0), ra))
            .collect();
        let b_accesses: Vec<Access> = task_b
            .iter()
            .map(|&l| Access::load(base_b.offset(l * 64), 4, TaskId::new(1), rb))
            .collect();

        let mut alone = SharedCache::new(config);
        for a in &a_accesses {
            alone.access(a);
        }
        let alone_misses = alone.stats_by_task().get(&TaskId::new(0)).misses;

        let mut together = SharedCache::new(config);
        for (a, b) in a_accesses.iter().zip(b_accesses.iter().cycle()) {
            together.access(b);
            together.access(a);
        }
        let together_misses = together.stats_by_task().get(&TaskId::new(0)).misses;
        prop_assert!(together_misses >= alone_misses);
    }

    /// Partition maps produced by `pack` keep every entity inside the cache
    /// and index every line inside its own partition.
    #[test]
    fn packed_partitions_stay_in_range(
        sizes in prop::collection::vec(prop::sample::select(vec![1u32, 2, 4, 8]), 1..12),
        lines in prop::collection::vec(0u64..100_000, 1..50),
    ) {
        let geometry = CacheGeometry::new(128, 4).unwrap();
        let total: u32 = sizes.iter().sum();
        prop_assume!(total <= geometry.sets());
        let entries: Vec<(PartitionKey, u32)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (PartitionKey::Task(TaskId::new(i as u32)), s))
            .collect();
        let map = PartitionMap::pack(geometry, &entries).unwrap();
        for (key, partition) in map.iter() {
            prop_assert!(partition.end_set() <= geometry.sets());
            for &l in &lines {
                let set = partition.index_of(compmem_trace::LineAddr::new(l));
                prop_assert!(set >= partition.base_set && set < partition.end_set(),
                    "key {key}: set {set} outside {partition}");
            }
        }
    }

    /// Windowed profiling is a pure refinement of the whole-run pass: for
    /// any access stream and any window length, summing the per-window
    /// curves (access counts, cold misses and full histograms, per key
    /// and in aggregate) reconstructs the whole-run curves exactly, and
    /// the windowed pass leaves the totals untouched.
    #[test]
    fn windowed_curves_sum_to_the_whole_run(
        task_a in trace_strategy(192, 300),
        task_b in trace_strategy(192, 300),
        window_len in 1u64..120,
    ) {
        use compmem_cache::{CurveResolution, StackDistanceProfiler, WindowConfig,
            WindowedProfiler};

        let mut table = RegionTable::new();
        let ra = table
            .insert("a.data", RegionKind::TaskData { task: TaskId::new(0) }, 192 * 64)
            .unwrap();
        let rb = table
            .insert("b.data", RegionKind::TaskData { task: TaskId::new(1) }, 192 * 64)
            .unwrap();
        let base_a = table.region(ra).base;
        let base_b = table.region(rb).base;
        let accesses: Vec<Access> = task_a
            .iter()
            .map(|&l| Access::load(base_a.offset(l * 64), 4, TaskId::new(0), ra))
            .chain(task_b.iter().map(|&l| {
                Access::load(base_b.offset(l * 64), 4, TaskId::new(1), rb)
            }))
            .collect();

        let resolution = CurveResolution::new(4, 32, 4).unwrap();
        let mut whole = StackDistanceProfiler::new(resolution, &table);
        whole.observe_all(&accesses);
        let whole = whole.into_curves();

        let config = WindowConfig::accesses(window_len).unwrap();
        let mut windowed = WindowedProfiler::new(config, resolution, &table);
        for a in &accesses {
            windowed.observe(a);
        }
        let windowed = windowed.finish();

        prop_assert_eq!(&windowed.total, &whole);
        prop_assert_eq!(&windowed.reconstruct_total(), &whole);
        let expected_windows = (accesses.len() as u64).div_ceil(window_len) as usize;
        prop_assert_eq!(windowed.windows.len(), expected_windows);
        let summed: u64 = windowed.windows.iter().map(|w| w.curves.accesses()).sum();
        prop_assert_eq!(summed, accesses.len() as u64);
        // Phases always tile the windows, whatever the threshold.
        for threshold in [0.0, 0.05, 0.5] {
            let phases = windowed.phases(threshold);
            let covered: usize = phases.iter().map(|p| p.window_count()).sum();
            prop_assert_eq!(covered, windowed.windows.len());
            let merged_accesses: u64 =
                phases.iter().map(|p| p.curves.accesses()).sum();
            prop_assert_eq!(merged_accesses, accesses.len() as u64);
        }
    }

    /// The exact solver is never worse than the heuristics and always agrees
    /// with the exhaustive reference on small instances.
    #[test]
    fn exact_optimizer_dominates_heuristics(
        misses in prop::collection::vec(prop::collection::vec(1u64..10_000, 4), 1..5),
        capacity in 4u32..32,
    ) {
        let candidates = vec![1u32, 2, 4, 8];
        let mut profiles = MissProfiles {
            profiles: BTreeMap::new(),
            lattice_units: candidates.clone(),
        };
        let mut entities = Vec::new();
        for (i, task_misses) in misses.iter().enumerate() {
            let key = PartitionKey::Task(TaskId::new(i as u32));
            // Make the profile monotone non-increasing in the cache size.
            let mut sorted = task_misses.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let profile = MissProfile {
                accesses: sorted.iter().sum(),
                misses_by_units: candidates.iter().copied().zip(sorted).collect(),
            };
            profiles.profiles.insert(key, profile);
            entities.push(AllocationEntity { key, candidates: candidates.clone() });
        }
        let problem = AllocationProblem { entities, profiles, total_units: capacity };
        prop_assume!(problem.entities.len() as u32 <= capacity);
        let exact = solve_exact(&problem).unwrap();
        let brute = solve_exhaustive(&problem).unwrap();
        let greedy = solve_greedy(&problem).unwrap();
        let equal = solve_equal_split(&problem).unwrap();
        prop_assert_eq!(exact.predicted_misses, brute.predicted_misses);
        prop_assert!(exact.predicted_misses <= greedy.predicted_misses);
        prop_assert!(exact.predicted_misses <= equal.predicted_misses);
        prop_assert!(exact.total_units <= capacity);
        prop_assert!(greedy.total_units <= capacity);
    }

    /// Set-sharded profiling over the whole run: for any interleaving of
    /// two tasks' streams, splitting a trace's profiling pass into two or
    /// four set shards gives the serial pass's curves. Every reuse stack
    /// and first-touch entry belongs to one shard's lines.
    #[test]
    fn merged_profiler_shards_match_the_unsharded_pass(
        task_a in trace_strategy(192, 300),
        task_b in trace_strategy(192, 300),
        order in trace_strategy(2, 600),
    ) {
        let trace = two_task_trace(task_a, task_b, &order, 1);
        set_shards_match_serial(&trace, WindowConfig::whole_run());
    }

    /// Curve-derived profiles equal the per-size simulation: for any
    /// interleaving of two tasks' streams, the single pass over a trace's
    /// L2-bound refills converts to exactly the misses of each key alone
    /// in an LRU cache of every lattice size.
    #[test]
    fn curve_profiles_match_the_per_size_simulation(
        task_a in trace_strategy(192, 300),
        task_b in trace_strategy(192, 300),
        order in trace_strategy(2, 600),
    ) {
        let trace = two_task_trace(task_a, task_b, &order, 1);
        let platform = PlatformConfig::default()
            .processors(2)
            .l1(CacheConfig::new(4, 2).unwrap());
        let lattice = CacheSizeLattice::new(CacheGeometry::new(32, 4).unwrap(), 4);
        let curves =
            profile_trace(&platform, &trace, CurveResolution::new(4, 32, 4).unwrap()).unwrap();
        let filtered = trace.filtered_for(&platform).unwrap();
        prop_assert_eq!(
            curves.to_profiles(&lattice, 4).unwrap(),
            per_size_profiles(filtered.accesses(), trace.table(), &lattice, 4)
        );
    }

    /// Set-sharded windowed profiling: for any interleaving and any window
    /// grid — access counts or cycles, several accesses per cycle when the
    /// stride is small relative to the window — the set shards close their
    /// windows where the serial pass does and reconstruct it window for
    /// window. Every shard walks the whole stream's clock, so the window
    /// boundaries are planned identically for all of them.
    #[test]
    fn planned_window_shards_reconstruct_the_serial_windows(
        task_a in trace_strategy(192, 260),
        task_b in trace_strategy(192, 260),
        order in trace_strategy(2, 520),
        window_len in 1u64..90,
        stride in 1u64..40,
    ) {
        let trace = two_task_trace(task_a, task_b, &order, stride);
        for window in [
            WindowConfig::accesses(window_len).unwrap(),
            WindowConfig::cycles(window_len).unwrap(),
        ] {
            set_shards_match_serial(&trace, window);
        }
    }

    /// The controller's solver stage is install-safe by construction: for
    /// any access stream and any window grid, every map it emits — the
    /// equal-split start map, the fresh first pack, and every
    /// `pack_stable` chained against the previously installed map — has
    /// the target geometry and covers every region. The schedule
    /// assembled from the whole run passes
    /// [`PartitionSchedule::validate_for`], the check
    /// `ReplaySystem::install_schedule` applies before installing.
    #[test]
    fn controller_solver_maps_always_validate(
        task_a in trace_strategy(192, 300),
        task_b in trace_strategy(192, 300),
        window_len in 1u64..120,
    ) {
        let mut table = RegionTable::new();
        let ra = table
            .insert("a.data", RegionKind::TaskData { task: TaskId::new(0) }, 192 * 64)
            .unwrap();
        let rb = table
            .insert("b.data", RegionKind::TaskData { task: TaskId::new(1) }, 192 * 64)
            .unwrap();
        let base_a = table.region(ra).base;
        let base_b = table.region(rb).base;
        let accesses: Vec<Access> = task_a
            .iter()
            .map(|&l| Access::load(base_a.offset(l * 64), 4, TaskId::new(0), ra))
            .chain(task_b.iter().map(|&l| {
                Access::load(base_b.offset(l * 64), 4, TaskId::new(1), rb)
            }))
            .collect();

        let geometry = CacheGeometry::new(64, 4).unwrap();
        let sets_per_unit = 2;
        let lattice = CacheSizeLattice::new(geometry, sets_per_unit);
        let resolution = CurveResolution::for_geometry(geometry, sets_per_unit).unwrap();
        let mut profiler = WindowedProfiler::new(
            WindowConfig::accesses(window_len).unwrap(),
            resolution,
            &table,
        );
        for a in &accesses {
            profiler.observe(a);
        }
        let windowed = profiler.finish();

        let solver = SolverContext {
            table: &table,
            lattice: &lattice,
            geometry,
            optimizer: OptimizerKind::ExactIlp,
        };
        let mut current = solver.equal_split().unwrap();
        prop_assert_eq!(current.geometry(), geometry);
        prop_assert!(current.validate_covers(&table).is_ok());
        let mut steps = vec![(0u64, OrganizationSpec::SetPartitioned(current.clone()))];
        for (i, window) in windowed.windows.iter().enumerate() {
            let allocation = solver.solve(&window.curves).unwrap();
            let map = if i == 0 {
                solver.pack(&allocation, None).unwrap()
            } else {
                solver.pack(&allocation, Some(&current)).unwrap()
            };
            prop_assert_eq!(map.geometry(), geometry, "window {} map geometry", i);
            prop_assert!(map.validate_covers(&table).is_ok(), "window {} coverage", i);
            if map != current {
                steps.push((i as u64 + 1, OrganizationSpec::SetPartitioned(map.clone())));
            }
            current = map;
        }
        let schedule = PartitionSchedule::new(steps).unwrap();
        prop_assert!(schedule.validate_for(geometry, &table).is_ok());
    }
}

/// A policy that observes every window but never switches.
struct Never;

impl ControllerPolicy for Never {
    fn name(&self) -> &str {
        "never"
    }

    fn observe(
        &mut self,
        _solver: &SolverContext<'_>,
        _tick: &ControllerTick<'_>,
    ) -> Result<Option<PartitionMap>, CoreError> {
        Ok(None)
    }
}

/// The once-recorded tiny MPEG-2 trace plus its equal-split static
/// replay, shared by every case of the replay-backed property below.
struct ControllerFixture {
    platform: PlatformConfig,
    l2: CacheConfig,
    trace: Arc<PreparedTrace>,
    lattice: CacheSizeLattice,
    resolution: CurveResolution,
    makespan: u64,
    static_outcome: RunOutcome,
}

fn controller_fixture() -> &'static ControllerFixture {
    static FIXTURE: OnceLock<ControllerFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let l2 = CacheConfig::with_size_bytes(32 * 1024, 4).unwrap();
        let config = ExperimentConfig {
            l2,
            sets_per_unit: 2,
            ..ExperimentConfig::default()
        };
        let params = Mpeg2Params::tiny();
        let experiment = Experiment::new(config, move || mpeg2_app(&params).expect("valid params"));
        let (live, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
        let platform = experiment.config().platform;
        let keys = PartitionKey::distinct_keys(trace.table());
        let map = PartitionMap::equal_split(l2.geometry(), &keys).unwrap();
        let static_outcome = run_replay(
            &platform,
            &ScenarioSpec::replay(
                l2,
                OrganizationSpec::SetPartitioned(map),
                Arc::clone(&trace),
            ),
        )
        .unwrap();
        ControllerFixture {
            platform,
            l2,
            trace,
            lattice: CacheSizeLattice::new(l2.geometry(), 2),
            resolution: CurveResolution::for_geometry(l2.geometry(), 2).unwrap(),
            makespan: live.report.makespan_cycles,
            static_outcome,
        }
    })
}

proptest! {
    // Each case replays the whole trace; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the window grid, a controller that never switches is
    /// invisible: its controlled replay is byte-identical to the plain
    /// static replay under the same start map, with an empty repartition
    /// log and a static reported schedule.
    #[test]
    fn never_switching_controller_matches_static_for_any_window(divisor in 1u64..96) {
        let f = controller_fixture();
        let window_cycles = (f.makespan / divisor).max(1);
        let config = ControllerConfig::cycles(window_cycles, f.resolution).unwrap();
        let online = replay_controlled(
            &f.platform,
            f.l2,
            &f.lattice,
            &f.trace,
            &mut Never,
            &config,
        )
        .unwrap();
        prop_assert_eq!(&online.outcome, &f.static_outcome);
        prop_assert!(online.outcome.report.repartitions.is_empty());
        prop_assert!(online.schedule.is_static());
    }

    /// One time axis for repartitions: wherever the boundaries fall —
    /// anywhere in the run, exactly on a run's start, one cycle past it,
    /// past the last run — the serial replay of a schedule, its split
    /// into two set-sharded lanes and a controller pushing the same maps
    /// at the run that reaches each boundary reconfigure the L2 at the
    /// same point of the stream: same cache-side counters and the same
    /// flushes and L2 counters, switch for switch.
    #[test]
    fn serial_laned_and_pushed_switches_apply_at_the_same_run(
        draws in prop::collection::vec((0u64..4, 0u64..1 << 40), 1..5),
    ) {
        let f = controller_fixture();
        let runs = &f.trace.filtered_for(&f.platform).unwrap().runs;
        let last = runs.last().unwrap().start_cycle;
        let mut boundaries: Vec<u64> = draws
            .iter()
            .map(|&(kind, x)| {
                let start = runs[(x % runs.len() as u64) as usize].start_cycle;
                match kind {
                    0 => 1 + x % (f.makespan + 1_000_000),
                    1 => start.max(1),
                    2 => start + 1,
                    _ => last + 1 + x % 1_000_000,
                }
            })
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        // The run each boundary applies before (`runs.len()`: after the
        // last run). A controller pushes at most one map per run, so keep
        // one boundary per run; any number may follow the last run.
        let crossing = |b: u64| runs.iter().position(|r| r.start_cycle >= b).unwrap_or(runs.len());
        let mut seen = std::collections::BTreeSet::new();
        boundaries.retain(|&b| crossing(b) == runs.len() || seen.insert(crossing(b)));

        let keys = PartitionKey::distinct_keys(f.trace.table());
        let steps: Vec<(u64, OrganizationSpec)> = std::iter::once(0)
            .chain(draws.iter().map(|&(_, x)| x >> 8))
            .zip(std::iter::once(0).chain(boundaries.iter().copied()))
            .map(|(x, at_cycle)| (at_cycle, two_set_map(f.l2.geometry(), &keys, x)))
            .collect();
        let schedule = PartitionSchedule::new(steps).unwrap();
        let spec = ScenarioSpec::scheduled_replay(f.l2, schedule.clone(), Arc::clone(&f.trace));
        let serial = run_replay(&f.platform, &spec).unwrap();
        let laned = run_replay(
            &f.platform,
            &spec.with_parallelism(ReplayParallelism::required_lanes(2)),
        )
        .unwrap();
        prop_assert_eq!(laned.lane_decision.map(|d| d.shards), Some(2));

        // Pushed: the controller returns each map at its boundary's run;
        // boundaries past the last run have no run to push at, so they
        // are installed and apply after the walk.
        let initial = schedule.initial();
        let mut system =
            ReplaySystem::new(&f.platform, initial.build(f.l2, f.trace.table()).unwrap(), &f.trace)
                .unwrap();
        let (pushes, trailing): (Vec<_>, Vec<_>) = schedule
            .switches()
            .iter()
            .map(|step| (crossing(step.at_cycle), step))
            .partition(|(run, _)| *run < runs.len());
        let trailing = std::iter::once((0, initial.clone()))
            .chain(trailing.iter().map(|(_, step)| (step.at_cycle, step.organization.clone())));
        system.install_schedule(&PartitionSchedule::new(trailing.collect()).unwrap()).unwrap();
        let mut index = 0;
        let pushed = system
            .run_controlled(|_, _| {
                index += 1;
                let due = pushes.iter().find(|(run, _)| *run == index - 1);
                due.map(|(_, step)| step.organization.clone())
            })
            .unwrap();

        prop_assert_eq!(serial.report.repartitions.len(), schedule.switches().len());
        prop_assert_eq!(&serial.report.repartitions, &laned.report.repartitions);
        prop_assert_eq!(&serial.by_key, &laned.by_key);
        let cache_side = |r: &SystemReport| {
            let switches: Vec<_> = r
                .repartitions
                .iter()
                .map(|x| (x.step, x.flush, x.l2_accesses_before, x.l2_misses_before))
                .collect();
            let traffic = (r.dram_accesses, r.dram_writebacks, r.bus_bytes);
            (r.l2, r.l2_by_task.clone(), r.l2_by_region.clone(), traffic, switches)
        };
        prop_assert_eq!(cache_side(&serial.report), cache_side(&laned.report));
        prop_assert_eq!(cache_side(&serial.report), cache_side(&pushed));
    }
}

proptest! {
    // Each case decodes the trace three times; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decoding once changes no verdict: a recorded trace cut short and
    /// with bytes flipped fails the fused decode-and-filter constructor
    /// with exactly the error `EncodedTrace::from_bytes` gives it, and
    /// where both accept the bytes, the fused trace filters to what a
    /// separate filter pass computes — or to the same filter error.
    #[test]
    fn fused_filtering_keeps_every_codec_verdict(
        keep in 0u64..2000,
        flips in prop::collection::vec((0u64..u64::MAX, 1u8..=255), 0..3),
    ) {
        use compmem_trace::codec::EncodedTrace;

        let f = controller_fixture();
        let mut bytes = f.trace.trace().bytes().to_vec();
        // Half the cases keep every byte, the others cut at a random point.
        if keep < 1000 {
            bytes.truncate(bytes.len() * keep as usize / 1000);
        }
        for &(at, mask) in &flips {
            if !bytes.is_empty() {
                let i = (at % bytes.len() as u64) as usize;
                bytes[i] ^= mask;
            }
        }
        let plain = EncodedTrace::from_bytes(bytes.clone());
        let fused = PreparedTrace::from_bytes_filtered(bytes, &f.platform);
        match (plain, fused) {
            (Err(plain), Err(fused)) => {
                prop_assert_eq!(format!("{fused:?}"), format!("{plain:?}"));
            }
            (Ok(plain), Ok(fused)) => {
                prop_assert!(fused.trace() == &plain);
                prop_assert_eq!(fused.summary(), plain.summary());
                let separate = PreparedTrace::from(plain).filtered_for(&f.platform);
                match (fused.filtered_for(&f.platform), separate) {
                    (Ok(fused), Ok(separate)) => prop_assert!(fused == separate),
                    (fused, separate) => prop_assert_eq!(fused.err(), separate.err()),
                }
            }
            (plain, fused) => panic!(
                "from_bytes accepted: {}, the fused pass accepted: {}",
                plain.is_ok(),
                fused.is_ok()
            ),
        }
    }
}

/// A set-partitioned map of `keys` in 2-set units, so every group splits
/// into two set shards: `x` rotates the packing order (moving partitions)
/// and widens some keys to 4 sets within the cache.
fn two_set_map(geometry: CacheGeometry, keys: &[PartitionKey], x: u64) -> OrganizationSpec {
    let wide = (x >> 20) as usize % ((geometry.sets() / 2) as usize - keys.len() + 1);
    let mut keys = keys.to_vec();
    let rotation = x as usize % keys.len();
    keys.rotate_left(rotation);
    let sizes: Vec<(PartitionKey, u32)> = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| (key, if i < wide { 4 } else { 2 }))
        .collect();
    OrganizationSpec::SetPartitioned(PartitionMap::pack(geometry, &sizes).unwrap())
}
