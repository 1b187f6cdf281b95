//! Online-vs-offline parity of the self-tuning cache controller.
//!
//! The controller loop (`compmem::controller`) is correct when it is a
//! strict *causal re-arrangement* of the offline pipeline: with the
//! window grid fixed, every window its own phase (threshold `-1.0`) and
//! the clairvoyant curve feed, the online `Greedy` policy must
//! reproduce the offline `PhasePlan::to_schedule` run **byte for byte**
//! — same switch sequence, same `RepartitionRecord`s (boundaries and
//! flush stats), same final cache snapshot: pushed and installed switches
//! apply by the same rule. And a controller that never switches must be
//! invisible: its run is the static run.
//!
//! Causality is an index rule over the one windowed profile: the tick
//! for window `N` falls at the run holding window `N + 1`'s first refill,
//! and no causal policy sees a window before that run.

use std::sync::Arc;

use compmem::controller::{
    compete, replay_controlled, ControllerConfig, ControllerPolicy, ControllerTick, CurveFeed,
    Greedy, SolverContext,
};
use compmem::experiment::{
    phase_allocations_for_table, run_replay, Experiment, ExperimentConfig, ScenarioSpec,
};
use compmem::{CoreError, OptimizerKind};
use compmem_cache::{
    CacheConfig, CacheSizeLattice, CurveResolution, MissRateCurves, OrganizationSpec, PartitionKey,
    PartitionMap, ReplacementPolicy, WindowConfig,
};
use compmem_platform::{profile_trace_windowed, PlatformConfig, PreparedTrace};
use compmem_workloads::apps::{
    jpeg_canny_app, mpeg2_app, Application, JpegCannyParams, Mpeg2Params,
};

const SETS_PER_UNIT: u32 = 2;

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        l2: CacheConfig::with_size_bytes(32 * 1024, 4).unwrap(),
        sets_per_unit: SETS_PER_UNIT,
        ..ExperimentConfig::default()
    }
}

fn mpeg2_experiment() -> Experiment<impl Fn() -> Application> {
    let params = Mpeg2Params::tiny();
    Experiment::new(tiny_config(), move || {
        mpeg2_app(&params).expect("valid params")
    })
}

struct Fixture {
    trace: Arc<PreparedTrace>,
    l2: CacheConfig,
    platform: PlatformConfig,
    lattice: CacheSizeLattice,
    resolution: CurveResolution,
    window_cycles: u64,
}

fn fixture() -> Fixture {
    let experiment = mpeg2_experiment();
    let (live, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
    let l2 = experiment.config().l2;
    Fixture {
        trace,
        l2,
        platform: experiment.config().platform,
        lattice: CacheSizeLattice::new(l2.geometry(), SETS_PER_UNIT),
        resolution: CurveResolution::for_geometry(l2.geometry(), SETS_PER_UNIT).unwrap(),
        window_cycles: (live.report.makespan_cycles / 5).max(1),
    }
}

/// With fixed window boundaries, one phase per window and the
/// clairvoyant feed, the online `Greedy` controller and the offline
/// `PhasePlan::to_schedule` pipeline produce the identical schedule and
/// the identical run: same `ScheduleStep`s, same fired
/// `RepartitionRecord`s (boundary cycles *and* flush stats), same
/// snapshot, same per-key statistics.
#[test]
fn greedy_on_oracle_feed_reproduces_the_offline_schedule_byte_for_byte() {
    let f = fixture();
    let geometry = f.l2.geometry();
    let window = WindowConfig::cycles(f.window_cycles).unwrap();

    let windowed = profile_trace_windowed(&f.platform, &f.trace, f.resolution, window).unwrap();
    assert!(
        windowed.windows.len() >= 3,
        "need several windows for a meaningful parity run, got {}",
        windowed.windows.len()
    );
    let plan = phase_allocations_for_table(
        &windowed,
        -1.0, // every window its own phase
        f.trace.table(),
        &f.lattice,
        geometry,
        OptimizerKind::ExactIlp,
    )
    .unwrap();
    assert_eq!(plan.phases.len(), windowed.windows.len());
    let offline_schedule = plan.to_schedule(&f.lattice, geometry).unwrap();
    let offline = run_replay(
        &f.platform,
        &ScenarioSpec::scheduled_replay(f.l2, offline_schedule.clone(), Arc::clone(&f.trace)),
    )
    .unwrap();

    let config = ControllerConfig::cycles(f.window_cycles, f.resolution)
        .unwrap()
        .oracle_feed();
    let online = replay_controlled(
        &f.platform,
        f.l2,
        &f.lattice,
        &f.trace,
        &mut Greedy,
        &config,
    )
    .unwrap();

    assert_eq!(
        online.schedule, offline_schedule,
        "the controller must emit the offline schedule switch for switch"
    );
    assert_eq!(online.ticks, windowed.windows.len() - 1);

    // The installed offline schedule and the pushed online decisions
    // apply by the one rule (just before the first run reaching each
    // boundary), so the runs coincide exactly — same
    // `RepartitionRecord`s, flush stats, snapshot, all.
    assert_eq!(
        online.outcome.report.repartitions, offline.report.repartitions,
        "every fired switch must match: boundary cycle and flush stats"
    );
    assert_eq!(online.outcome, offline, "the whole run must be identical");
}

/// A policy that records every tick's window, cycle and curves and never
/// switches.
#[derive(Default)]
struct Recorder {
    ticks: Vec<(usize, u64)>,
    curves: Vec<MissRateCurves>,
}

impl ControllerPolicy for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn observe(
        &mut self,
        _solver: &SolverContext<'_>,
        tick: &ControllerTick<'_>,
    ) -> Result<Option<PartitionMap>, CoreError> {
        self.ticks.push((tick.window, tick.at_cycle));
        self.curves.push(tick.curves.clone());
        Ok(None)
    }
}

/// A never-switching controller does not perturb the run: its outcome is
/// byte-identical to the static run under its start map, its repartition
/// log is empty and its reported schedule is the static single-step one.
#[test]
fn never_switching_controller_is_byte_identical_to_the_static_run() {
    let f = fixture();
    let keys = PartitionKey::distinct_keys(f.trace.table());
    let map = PartitionMap::equal_split(f.l2.geometry(), &keys).unwrap();
    let static_outcome = run_replay(
        &f.platform,
        &ScenarioSpec::replay(
            f.l2,
            OrganizationSpec::SetPartitioned(map.clone()),
            Arc::clone(&f.trace),
        ),
    )
    .unwrap();

    let config = ControllerConfig::cycles(f.window_cycles, f.resolution).unwrap();
    let mut recorder = Recorder::default();
    let online = replay_controlled(
        &f.platform,
        f.l2,
        &f.lattice,
        &f.trace,
        &mut recorder,
        &config,
    )
    .unwrap();

    assert_eq!(
        online.outcome, static_outcome,
        "a silent controller must be invisible"
    );
    assert!(online.outcome.report.repartitions.is_empty());
    assert!(online.schedule.is_static());
    assert_eq!(
        *online.schedule.initial(),
        OrganizationSpec::SetPartitioned(map)
    );
    assert!(online.ticks > 0, "the policy was actually consulted");
}

/// The controller path rejects a non-LRU L2 up front with the typed
/// `CoreError::NonLruProfiling` — its curves would be fiction on any
/// other policy — instead of silently profiling garbage.
#[test]
fn controller_rejects_non_lru_l2_with_a_typed_error() {
    let f = fixture();
    let config = ControllerConfig::cycles(f.window_cycles, f.resolution).unwrap();
    for policy in [
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ] {
        let non_lru = f.l2.policy(policy);
        let err = replay_controlled(
            &f.platform,
            non_lru,
            &f.lattice,
            &f.trace,
            &mut Greedy,
            &config,
        )
        .unwrap_err();
        match err {
            CoreError::NonLruProfiling { policy: name } => {
                assert_eq!(name, policy.to_string());
            }
            other => panic!("expected NonLruProfiling for {policy:?}, got {other:?}"),
        }
    }
}

/// Non-cycle window kinds are rejected: an access-count window can close
/// mid-run, after the boundary's refills already replayed, so the
/// controller could not install the switch at the true window edge.
#[test]
fn controller_rejects_access_count_windows() {
    let f = fixture();
    let config = ControllerConfig {
        window: WindowConfig::accesses(400).unwrap(),
        resolution: f.resolution,
        optimizer: OptimizerKind::ExactIlp,
        feed: CurveFeed::Measured,
    };
    let err = replay_controlled(
        &f.platform,
        f.l2,
        &f.lattice,
        &f.trace,
        &mut Greedy,
        &config,
    )
    .unwrap_err();
    assert!(
        matches!(err, CoreError::Infeasible { .. }),
        "expected Infeasible, got {err:?}"
    );
}

/// The causal (measured-feed) controller is deterministic: two identical
/// controlled replays produce identical outcomes, schedules and logs.
#[test]
fn measured_feed_controller_is_deterministic() {
    let f = fixture();
    let config = ControllerConfig::cycles(f.window_cycles, f.resolution).unwrap();
    let run = || {
        replay_controlled(
            &f.platform,
            f.l2,
            &f.lattice,
            &f.trace,
            &mut Greedy,
            &config,
        )
        .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first.outcome, second.outcome);
    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.ticks, second.ticks);
    assert!(
        first.ticks >= 2,
        "the controller must actually tick: {} windows",
        first.ticks
    );
    // Greedy re-solves every window: every boundary after the first
    // window carries an installed switch.
    assert_eq!(first.schedule.switches().len(), first.ticks);
}

/// `MissRateCurves` reach a policy exactly as the offline profiler
/// measures them: under the measured feed, the curves the controller
/// hands out equal the offline pass's windows — every
/// one but the last, which closes after the last run, when no run is
/// left to switch before.
#[test]
fn online_and_offline_profilers_agree_on_windows() {
    let f = fixture();
    let window = WindowConfig::cycles(f.window_cycles).unwrap();
    let offline: Vec<MissRateCurves> =
        profile_trace_windowed(&f.platform, &f.trace, f.resolution, window)
            .unwrap()
            .windows
            .into_iter()
            .map(|w| w.curves)
            .collect();
    assert!(offline.len() >= 3, "{} windows", offline.len());

    let config = ControllerConfig::cycles(f.window_cycles, f.resolution).unwrap();
    let mut recorder = Recorder::default();
    let online = replay_controlled(
        &f.platform,
        f.l2,
        &f.lattice,
        &f.trace,
        &mut recorder,
        &config,
    )
    .unwrap();
    assert_eq!(online.ticks, offline.len() - 1);
    assert_eq!(recorder.curves, offline[..offline.len() - 1]);
}

/// The loop ticks exactly once per window but the last, at the start
/// cycle of the first run holding a refill of the next window, and shows
/// that tick window `N` (causal feed) or `N + 1` (clairvoyant feed). The
/// expected ticks come from the filtered runs and the windows' access
/// counts alone (every refill is one profiled access).
#[test]
fn each_window_ticks_once_at_the_run_that_closes_it() {
    let f = fixture();
    let filtered = f.trace.filtered_for(&f.platform).unwrap();
    // The finer grid puts window edges right after runs without refills.
    for window_cycles in [f.window_cycles, f.window_cycles / 10] {
        let window = WindowConfig::cycles(window_cycles).unwrap();
        let windows = profile_trace_windowed(&f.platform, &f.trace, f.resolution, window)
            .unwrap()
            .windows;
        let mut first_refill = 0u64;
        let mut closing_cycles = Vec::new();
        for w in &windows[..windows.len() - 1] {
            first_refill += w.curves.accesses();
            let run = filtered
                .runs
                .iter()
                .find(|r| {
                    u64::from(r.refills.start) <= first_refill
                        && first_refill < u64::from(r.refills.end)
                })
                .expect("a later window has a first refill");
            closing_cycles.push(run.start_cycle);
        }
        assert!(closing_cycles.len() >= 2, "{} windows", windows.len());

        for (feed, shown) in [(CurveFeed::Measured, 0), (CurveFeed::Oracle, 1)] {
            let config = ControllerConfig {
                feed,
                ..ControllerConfig::cycles(window_cycles, f.resolution).unwrap()
            };
            let mut recorder = Recorder::default();
            let online = replay_controlled(
                &f.platform,
                f.l2,
                &f.lattice,
                &f.trace,
                &mut recorder,
                &config,
            )
            .unwrap();
            let expected: Vec<(usize, u64)> = closing_cycles
                .iter()
                .enumerate()
                .map(|(n, &cycle)| (n + shown, cycle))
                .collect();
            assert_eq!(
                recorder.ticks, expected,
                "{feed:?} feed, {window_cycles}-cycle windows"
            );
            let expected_curves: Vec<&MissRateCurves> =
                expected.iter().map(|&(w, _)| &windows[w].curves).collect();
            assert!(
                recorder.curves.iter().eq(expected_curves),
                "{feed:?} feed: a tick carried another window's curves"
            );
            assert_eq!(online.ticks, expected.len());
        }
    }
}

/// `compete` refuses curves that do not describe the replay, with the
/// typed `CoreError::CurvesMismatch`: curves profiled at another window
/// length, at another resolution, or over another trace's L2-bound
/// stream would put every tick at the wrong run.
#[test]
fn compete_refuses_curves_of_another_replay() {
    let f = fixture();
    let config = ControllerConfig::cycles(f.window_cycles, f.resolution).unwrap();
    let other_window = WindowConfig::cycles(f.window_cycles * 2).unwrap();
    let other_resolution =
        CurveResolution::for_geometry(f.l2.geometry(), SETS_PER_UNIT * 2).unwrap();
    assert_ne!(other_resolution, f.resolution);
    let jpeg = Experiment::new(tiny_config(), || {
        jpeg_canny_app(&JpegCannyParams::tiny()).expect("valid params")
    });
    let (_, other_trace) = jpeg.record_trace(&jpeg.shared_spec()).unwrap();
    let other_stream =
        profile_trace_windowed(&f.platform, &other_trace, f.resolution, config.window).unwrap();
    let refills = f.trace.filtered_for(&f.platform).unwrap().refills.len() as u64;
    assert_ne!(other_stream.total.accesses(), refills);

    for curves in [
        profile_trace_windowed(&f.platform, &f.trace, f.resolution, other_window).unwrap(),
        profile_trace_windowed(&f.platform, &f.trace, other_resolution, config.window).unwrap(),
        other_stream,
    ] {
        let mut greedy = Greedy;
        let mut policies: [&mut dyn ControllerPolicy; 1] = [&mut greedy];
        let err = compete(
            &f.platform,
            f.l2,
            &f.lattice,
            &f.trace,
            &curves,
            &mut policies,
            &config,
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::CurvesMismatch { .. }),
            "expected CurvesMismatch, got {err:?}"
        );
    }
}
