//! The regret harness: Greedy, Hysteresis and Oracle competing on
//! identical traffic.
//!
//! Every policy replays the **same** recorded trace, so the cost
//! differences (L2 misses plus repartition flush write-backs) are
//! attributable to the control decisions alone. The oracle — the better
//! of the offline static-best and phase-scheduled runs — anchors the
//! scale: its regret is zero by construction, and its measured cost in
//! the competition reproduces its planning replay exactly. Each run's
//! totals must also reconcile exactly with its `RepartitionRecord`
//! segmentation, and the whole competition must be deterministic.

use std::sync::Arc;

use compmem::controller::{
    compete, ControlledOutcome, ControllerConfig, ControllerPolicy, Greedy, Hysteresis, Oracle,
    RegretReport,
};
use compmem::experiment::{Experiment, ExperimentConfig};
use compmem_cache::{CacheConfig, CacheSizeLattice, CurveResolution};
use compmem_platform::{profile_trace_windowed, PlatformConfig, PreparedTrace, SystemReport};
use compmem_workloads::apps::{
    jpeg_canny_app, mpeg2_app, Application, JpegCannyParams, Mpeg2Params,
};

const SETS_PER_UNIT: u32 = 2;
const PHASE_THRESHOLD: f64 = 0.1;
const SWITCH_MARGIN: f64 = 1.0;

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        l2: CacheConfig::with_size_bytes(32 * 1024, 4).unwrap(),
        sets_per_unit: SETS_PER_UNIT,
        ..ExperimentConfig::default()
    }
}

struct Arena {
    trace: Arc<PreparedTrace>,
    l2: CacheConfig,
    platform: PlatformConfig,
    lattice: CacheSizeLattice,
    config: ControllerConfig,
}

fn arena<F: Fn() -> Application>(app: F) -> Arena {
    let experiment = Experiment::new(tiny_config(), app);
    let (live, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
    let l2 = experiment.config().l2;
    let platform = experiment.config().platform;
    let resolution = CurveResolution::for_geometry(l2.geometry(), SETS_PER_UNIT).unwrap();
    let window_cycles = (live.report.makespan_cycles / 5).max(1);
    Arena {
        trace,
        l2,
        platform,
        lattice: CacheSizeLattice::new(l2.geometry(), SETS_PER_UNIT),
        config: ControllerConfig::cycles(window_cycles, resolution).unwrap(),
    }
}

fn run_competition(a: &Arena) -> (Vec<ControlledOutcome>, RegretReport) {
    let mut greedy = Greedy;
    let mut hysteresis = Hysteresis::new(PHASE_THRESHOLD, SWITCH_MARGIN);
    let curves =
        profile_trace_windowed(&a.platform, &a.trace, a.config.resolution, a.config.window)
            .unwrap();
    let mut oracle = Oracle::plan(
        &a.platform,
        a.l2,
        &a.lattice,
        &a.trace,
        &curves,
        PHASE_THRESHOLD,
        &a.config,
    )
    .unwrap();
    let mut policies: Vec<&mut dyn ControllerPolicy> =
        vec![&mut greedy, &mut hysteresis, &mut oracle];
    let (outcomes, report) = compete(
        &a.platform,
        a.l2,
        &a.lattice,
        &a.trace,
        &curves,
        &mut policies,
        &a.config,
    )
    .unwrap();
    // The oracle's competition replay reproduces its planning replay.
    let oracle_outcome = outcomes.iter().find(|o| o.policy == "oracle").unwrap();
    assert_eq!(oracle_outcome.cost(), oracle.planned_cost);
    (outcomes, report)
}

/// Splits a report's total L2 misses and accesses at the fired
/// repartition boundaries and asserts the segments sum back exactly.
fn assert_segments_reconcile(report: &SystemReport) {
    let mut prev_misses = 0u64;
    let mut prev_accesses = 0u64;
    let mut prev_cycle = 0u64;
    for record in &report.repartitions {
        assert!(
            record.at_cycle > prev_cycle || prev_cycle == 0,
            "boundaries must advance: {} after {}",
            record.at_cycle,
            prev_cycle
        );
        assert!(
            record.l2_misses_before >= prev_misses && record.l2_accesses_before >= prev_accesses,
            "per-switch counters must be monotone"
        );
        prev_misses = record.l2_misses_before;
        prev_accesses = record.l2_accesses_before;
        prev_cycle = record.at_cycle;
    }
    // The tail segment closes the books: totals are exactly the last
    // boundary snapshot plus what came after.
    assert!(report.l2.misses >= prev_misses);
    assert!(report.l2.accesses >= prev_accesses);
    let segments: u64 = report
        .repartitions
        .iter()
        .scan(0u64, |prev, r| {
            let seg = r.l2_misses_before - *prev;
            *prev = r.l2_misses_before;
            Some(seg)
        })
        .sum::<u64>()
        + (report.l2.misses - prev_misses);
    assert_eq!(
        segments, report.l2.misses,
        "segment misses must sum to the measured total"
    );
}

fn check_competition(a: &Arena) -> (Vec<ControlledOutcome>, RegretReport) {
    let (outcomes, report) = run_competition(a);
    assert_eq!(outcomes.len(), 3);
    assert_eq!(report.baseline, "oracle");

    let row = |name: &str| report.entries.iter().find(|e| e.policy == name).unwrap();
    assert_eq!(
        row("oracle").regret,
        0,
        "oracle regret is zero by construction"
    );
    for entry in &report.entries {
        let outcome = outcomes.iter().find(|o| o.policy == entry.policy).unwrap();
        assert_eq!(entry.cost, outcome.cost());
        assert_eq!(entry.misses, outcome.outcome.report.l2.misses);
        assert_eq!(entry.flush_written_back, outcome.total_flush().written_back);
        assert_eq!(entry.switches, outcome.switches());
        assert_eq!(entry.regret, entry.cost as i64 - report.oracle_cost as i64);
        assert_segments_reconcile(&outcome.outcome.report);
    }

    // Greedy switches every window; hysteresis is gated, so it can only
    // switch less often.
    let greedy = outcomes.iter().find(|o| o.policy == "greedy").unwrap();
    let hysteresis = outcomes.iter().find(|o| o.policy == "hysteresis").unwrap();
    assert!(greedy.switches() >= 2, "greedy must actually repartition");
    assert!(
        hysteresis.switches() <= greedy.switches(),
        "the detector gate must not add switches: {} > {}",
        hysteresis.switches(),
        greedy.switches()
    );
    (outcomes, report)
}

#[test]
fn competition_on_tiny_mpeg2() {
    let params = Mpeg2Params::tiny();
    let a = arena(move || mpeg2_app(&params).expect("valid params"));
    check_competition(&a);
}

#[test]
fn competition_on_tiny_jpeg_canny() {
    let params = JpegCannyParams::tiny();
    let a = arena(move || jpeg_canny_app(&params).expect("valid params"));
    check_competition(&a);
}

/// The whole competition — every outcome, every regret row — is
/// deterministic: two independent recordings and competitions agree
/// byte for byte.
#[test]
fn competition_is_deterministic_across_runs() {
    let run = || {
        let params = Mpeg2Params::tiny();
        check_competition(&arena(move || mpeg2_app(&params).expect("valid params")))
    };
    let (first, second) = (run(), run());
    assert_eq!(first.0, second.0, "outcomes must be deterministic");
    assert_eq!(first.1, second.1, "regret must be deterministic");
}
