//! Golden parity of the trace record/replay pipeline.
//!
//! Recording a live run and replaying the trace must be **exact**: under
//! the organisation the trace was recorded with, the replay's
//! `CacheSnapshot` (aggregate, per-task, per-region and per-partition
//! counters) is byte-identical to the live run's, for every one of the
//! three L2 organisations — and replays are deterministic for every
//! replacement policy, including the (seeded) random one.

use std::sync::Arc;

use compmem::experiment::{run_replay, Experiment, ExperimentConfig, ScenarioSpec};
use compmem_cache::{CacheConfig, OrganizationSpec, PartitionKey, PartitionMap, ReplacementPolicy};
use compmem_trace::{EncodedTrace, RegionKind};
use compmem_workloads::apps::{
    jpeg_canny_app, mpeg2_app, Application, JpegCannyParams, Mpeg2Params,
};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        l2: CacheConfig::with_size_bytes(32 * 1024, 4).unwrap(),
        sets_per_unit: 2,
        ..ExperimentConfig::default()
    }
}

fn mpeg2_experiment() -> Experiment<impl Fn() -> Application> {
    let params = Mpeg2Params::tiny();
    Experiment::new(tiny_config(), move || {
        mpeg2_app(&params).expect("valid params")
    })
}

/// An equal-split set-partitioned organisation over every entity of the
/// application (golden parity needs *an* exclusive allocation, not the
/// optimised one).
fn equal_split_partitioned(
    experiment: &Experiment<impl Fn() -> Application>,
    app: &Application,
) -> ScenarioSpec {
    let l2 = experiment.config().l2;
    let keys = PartitionKey::distinct_keys(app.space.table());
    let map = PartitionMap::equal_split(l2.geometry(), &keys).unwrap();
    ScenarioSpec::live(l2, OrganizationSpec::SetPartitioned(map))
}

/// Recording the MPEG-2 application under each of the three organisations
/// and replaying the trace under the same organisation reproduces the live
/// run's `CacheSnapshot` byte for byte.
#[test]
fn replaying_a_recorded_mpeg2_trace_matches_the_live_snapshot_for_all_organisations() {
    let experiment = mpeg2_experiment();
    let app = mpeg2_app(&Mpeg2Params::tiny()).unwrap();
    let specs: Vec<ScenarioSpec> = vec![
        experiment.shared_spec(),
        equal_split_partitioned(&experiment, &app),
        experiment.way_partitioned_spec(),
    ];
    for spec in specs {
        let label = spec.label();
        let (live, trace) = experiment.record_trace(&spec).unwrap();
        assert!(trace.accesses() > 0, "{label}: trace must not be empty");

        let replayed = experiment
            .run(&spec.clone().replaying(trace.clone()))
            .unwrap();
        assert_eq!(
            live.l2_snapshot, replayed.l2_snapshot,
            "{label}: replay must reproduce the live CacheSnapshot exactly"
        );
        assert_eq!(live.by_key, replayed.by_key, "{label}: per-key stats");
        assert_eq!(live.report.l1, replayed.report.l1, "{label}: L1 stats");
        assert_eq!(
            live.report.dram_accesses, replayed.report.dram_accesses,
            "{label}: DRAM traffic"
        );
        assert_eq!(
            live.report.dram_writebacks, replayed.report.dram_writebacks,
            "{label}: DRAM write-backs"
        );
        assert_eq!(
            live.report.bus_bytes, replayed.report.bus_bytes,
            "{label}: bus traffic"
        );
    }
}

/// The recorded trace embeds everything a scenario needs: the standalone
/// replay runner works from the trace alone (no application factory) and
/// its region table matches the application's.
#[test]
fn recorded_trace_is_a_self_contained_scenario() {
    let experiment = mpeg2_experiment();
    let (live, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();

    let app = mpeg2_app(&Mpeg2Params::tiny()).unwrap();
    assert_eq!(trace.table().len(), app.space.table().len());
    for (a, b) in app.space.table().iter().zip(trace.table().iter()) {
        assert_eq!(a, b, "embedded region table must match the application's");
    }
    assert!(trace
        .table()
        .iter()
        .any(|r| matches!(r.kind, RegionKind::Fifo { .. })));

    let outcome = run_replay(
        &experiment.config().platform,
        &experiment.shared_spec().replaying(trace),
    )
    .unwrap();
    assert_eq!(outcome.l2_snapshot, live.l2_snapshot);
}

/// Every replacement policy builds through `OrganizationSpec` and replays
/// the same trace deterministically — two replays under the same policy
/// (including seeded Random) produce identical snapshots.
#[test]
fn every_replacement_policy_replays_deterministically() {
    let experiment = mpeg2_experiment();
    let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
    let platform = experiment.config().platform;

    let mut snapshots = Vec::new();
    for policy in ReplacementPolicy::ALL {
        let l2 = CacheConfig::with_size_bytes(32 * 1024, 4)
            .unwrap()
            .policy(policy);
        let spec = ScenarioSpec::replay(l2, OrganizationSpec::Shared, trace.clone());
        let first = run_replay(&platform, &spec).unwrap();
        let second = run_replay(&platform, &spec).unwrap();
        assert_eq!(
            first.l2_snapshot, second.l2_snapshot,
            "policy {policy}: replay must be deterministic"
        );
        assert_eq!(first.report, second.report, "policy {policy}: full report");
        assert!(first.report.l2.accesses > 0);
        snapshots.push((policy, first.l2_snapshot));
    }
    // All policies see the identical L2-bound stream; only hit/miss splits
    // may differ.
    let accesses = snapshots[0].1.aggregate.accesses;
    for (policy, snapshot) in &snapshots {
        assert_eq!(
            snapshot.aggregate.accesses, accesses,
            "policy {policy}: L2 access count is traffic, not policy"
        );
    }
}

/// Replays under a *different* seeded-random configuration still replay the
/// identical traffic (accesses), while the seed changes the eviction
/// pattern — the determinism is per-configuration, not an accident of a
/// shared global state.
#[test]
fn random_policy_determinism_is_seed_scoped() {
    let experiment = mpeg2_experiment();
    let (_, trace) = experiment.record_trace(&experiment.shared_spec()).unwrap();
    let platform = experiment.config().platform;
    let run_with_seed = |seed: u64| {
        let l2 = CacheConfig::with_size_bytes(32 * 1024, 4)
            .unwrap()
            .policy(ReplacementPolicy::Random)
            .seed(seed);
        let spec = ScenarioSpec::replay(l2, OrganizationSpec::Shared, Arc::clone(&trace));
        run_replay(&platform, &spec).unwrap()
    };
    let a1 = run_with_seed(1);
    let a2 = run_with_seed(1);
    let b = run_with_seed(2);
    assert_eq!(a1.l2_snapshot, a2.l2_snapshot);
    assert_eq!(a1.report.l2.accesses, b.report.l2.accesses);
}

/// Recording builds its trace from the writer's own counts, without
/// decoding what it just encoded: for both applications the result
/// equals what validating its bytes builds — bytes, embedded region
/// table and summary alike.
#[test]
fn recorded_traces_equal_what_validating_their_bytes_builds() {
    let jpeg_canny = Experiment::new(tiny_config(), || {
        jpeg_canny_app(&JpegCannyParams::tiny()).expect("valid params")
    });
    let mpeg2 = mpeg2_experiment();
    let traces = [
        jpeg_canny
            .record_trace(&jpeg_canny.shared_spec())
            .unwrap()
            .1,
        mpeg2.record_trace(&mpeg2.shared_spec()).unwrap().1,
    ];
    for trace in traces {
        let recorded = trace.trace();
        let validated = EncodedTrace::from_bytes(recorded.bytes().to_vec()).unwrap();
        assert_eq!(recorded.bytes(), validated.bytes());
        assert_eq!(recorded.table(), validated.table());
        assert_eq!(recorded.summary(), validated.summary());
        assert!(recorded.summary().runs > 1);
    }
}
