//! Parity of set-sharded execution against its serial reference, on
//! real recorded traces of both bundled applications.
//!
//! Set-sharded replay and profiling must be **proven identical** to the
//! serial pass — curves point for point, sidecars byte for byte, replay
//! counters field for field — not merely statistically close. Three
//! claims are pinned here, each on tiny MPEG-2 *and* tiny JPEG+Canny:
//!
//! * **Profiling shards**: [`profile_trace_windowed_lanes`] on two and
//!   four workers equals the serial [`profile_trace_windowed`] for the
//!   whole-run curves and for access-count windows, point for point.
//! * **Sidecar byte-identity**: the sidecar written by the sharded pass
//!   is byte-identical to the serially written one.
//! * **Replay shards under all three organisations**: laned replays match
//!   the serial replay on every cache-side counter and really split into
//!   four set shards — shared, set-partitioned and overlapping way masks
//!   alike.
//!
//! Requiring lanes on a scenario with a one-set partition is a typed
//! error.

use std::fs;
use std::sync::Arc;

use compmem::experiment::{
    run_replay, Experiment, ExperimentConfig, ReplayParallelism, ScenarioSpec,
};
use compmem::{CoreError, WindowConfig};
use compmem_cache::{CacheConfig, OrganizationSpec, PartitionKey, PartitionMap, WayAllocation};
use compmem_platform::{
    profile_trace_windowed, profile_trace_windowed_lanes, profile_trace_with_sidecar,
    profile_trace_with_sidecar_lanes, PlatformError, PreparedTrace, SidecarOutcome,
};
use compmem_trace::RegionTable;
use compmem_workloads::apps::{
    jpeg_canny_app, mpeg2_app, Application, JpegCannyParams, Mpeg2Params,
};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        l2: CacheConfig::with_size_bytes(64 * 1024, 4).unwrap(),
        sets_per_unit: 4,
        ..ExperimentConfig::default()
    }
}

fn mpeg2_experiment() -> Experiment<impl Fn() -> Application> {
    let params = Mpeg2Params::tiny();
    Experiment::new(tiny_config(), move || {
        mpeg2_app(&params).expect("valid parameters")
    })
}

fn jpeg_experiment() -> Experiment<impl Fn() -> Application> {
    let params = JpegCannyParams::tiny();
    Experiment::new(tiny_config(), move || {
        jpeg_canny_app(&params).expect("valid parameters")
    })
}

fn recorded_shared_trace(experiment: &Experiment<impl Fn() -> Application>) -> Arc<PreparedTrace> {
    let (_, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording the shared baseline succeeds");
    trace
}

/// The three organisations exactly as the CLI builds them. The equal way
/// split of more keys than ways necessarily shares ways between keys —
/// asserted, not assumed — so overlapping masks are covered too.
fn organisations(l2: CacheConfig, table: &RegionTable) -> Vec<(&'static str, OrganizationSpec)> {
    let keys = PartitionKey::distinct_keys(table);
    assert!(
        keys.len() > l2.geometry().ways() as usize,
        "expected more partition keys than ways so the equal way split overlaps"
    );
    vec![
        ("shared", OrganizationSpec::Shared),
        (
            "set-partitioned",
            OrganizationSpec::SetPartitioned(
                PartitionMap::equal_split(l2.geometry(), &keys).unwrap(),
            ),
        ),
        (
            "way-partitioned",
            OrganizationSpec::WayPartitioned(WayAllocation::equal_split(l2.geometry(), &keys)),
        ),
    ]
}

fn assert_lane_profiling_parity(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let trace = recorded_shared_trace(experiment);
    let platform = &experiment.config().platform;
    let resolution = experiment.curve_resolution();

    // Whole-run curves and access-count windows: the shard merge must
    // reproduce the serial pass point for point, not approximately.
    for (window_name, window) in [
        ("whole-run", WindowConfig::whole_run()),
        ("400-access windows", WindowConfig::accesses(400).unwrap()),
    ] {
        let serial = profile_trace_windowed(platform, &trace, resolution, window)
            .expect("serial profiling succeeds");
        for lanes in [2, 4] {
            let laned = profile_trace_windowed_lanes(platform, &trace, resolution, window, lanes)
                .expect("lane profiling succeeds");
            assert_eq!(
                serial, laned,
                "{app_name}: {lanes}-shard {window_name} curves diverged from serial"
            );
        }
    }

    // Sidecar byte-identity: the lane-measured sidecar encodes to exactly
    // the bytes of the serially measured one.
    let dir = std::env::temp_dir();
    let serial_path = dir.join(format!(
        "compmem-parity-{}-{app_name}-serial.curves",
        std::process::id()
    ));
    let laned_path = dir.join(format!(
        "compmem-parity-{}-{app_name}-lanes.curves",
        std::process::id()
    ));
    for path in [&serial_path, &laned_path] {
        let _ = fs::remove_file(path);
    }
    let window = WindowConfig::accesses(400).unwrap();
    let (_, serial_outcome) =
        profile_trace_with_sidecar(platform, &trace, resolution, window, &serial_path)
            .expect("serial sidecar write succeeds");
    let (_, laned_outcome) =
        profile_trace_with_sidecar_lanes(platform, &trace, resolution, window, &laned_path, 4)
            .expect("laned sidecar write succeeds");
    assert!(matches!(serial_outcome, SidecarOutcome::Written));
    assert!(matches!(laned_outcome, SidecarOutcome::Written));
    let serial_bytes = fs::read(&serial_path).expect("serial sidecar readable");
    let laned_bytes = fs::read(&laned_path).expect("laned sidecar readable");
    assert_eq!(
        serial_bytes, laned_bytes,
        "{app_name}: lane-written sidecar is not byte-identical to the serial one"
    );
    for path in [&serial_path, &laned_path] {
        let _ = fs::remove_file(path);
    }
}

#[test]
fn lane_profiling_matches_serial_on_tiny_mpeg2() {
    assert_lane_profiling_parity(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn lane_profiling_matches_serial_on_tiny_jpeg_canny() {
    assert_lane_profiling_parity(&jpeg_experiment(), "jpeg_canny");
}

fn assert_laned_replay_parity(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let trace = recorded_shared_trace(experiment);
    let platform = &experiment.config().platform;
    let l2 = experiment.config().l2;

    for (org_name, organization) in organisations(l2, trace.table()) {
        let serial_spec = ScenarioSpec::replay(l2, organization.clone(), trace.clone());
        let laned_spec = ScenarioSpec::replay(l2, organization, trace.clone())
            .with_parallelism(ReplayParallelism::lanes(4));

        let serial = run_replay(platform, &serial_spec).expect("serial replay succeeds");
        let laned = run_replay(platform, &laned_spec).expect("laned replay succeeds");

        // Cache-side counters are exact under every organisation.
        assert_eq!(
            serial.report.l1, laned.report.l1,
            "{app_name}/{org_name}: L1"
        );
        assert_eq!(
            serial.report.l2, laned.report.l2,
            "{app_name}/{org_name}: L2"
        );
        assert_eq!(
            serial.report.l2_by_task, laned.report.l2_by_task,
            "{app_name}/{org_name}: per-task L2"
        );
        assert_eq!(
            serial.report.l2_by_region, laned.report.l2_by_region,
            "{app_name}/{org_name}: per-region L2"
        );
        assert_eq!(
            serial.report.dram_accesses, laned.report.dram_accesses,
            "{app_name}/{org_name}: DRAM accesses"
        );
        assert_eq!(
            serial.report.dram_writebacks, laned.report.dram_writebacks,
            "{app_name}/{org_name}: DRAM writebacks"
        );
        assert_eq!(
            serial.report.bus_bytes, laned.report.bus_bytes,
            "{app_name}/{org_name}: bus bytes"
        );
        assert_eq!(
            serial.by_key, laned.by_key,
            "{app_name}/{org_name}: per-key attribution"
        );

        // Lanes do not reconstruct the global timing interleaving.
        assert_eq!(laned.report.makespan_cycles, 0, "{app_name}/{org_name}");
        assert!(serial.report.makespan_cycles > 0, "{app_name}/{org_name}");

        // The split is reported: serial replays carry none, laned
        // replays say what was requested and what ran — a real
        // four-shard split under every organisation.
        assert_eq!(serial.lane_decision, None, "{app_name}/{org_name}");
        let decision = laned
            .lane_decision
            .unwrap_or_else(|| panic!("{app_name}/{org_name}: laned replay reported no decision"));
        assert_eq!(decision.requested, 4, "{app_name}/{org_name}");
        assert_eq!(decision.shards, 4, "{app_name}/{org_name}");
    }
}

#[test]
fn laned_replays_match_serial_under_all_four_organisations_on_tiny_mpeg2() {
    assert_laned_replay_parity(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn laned_replays_match_serial_under_all_four_organisations_on_tiny_jpeg_canny() {
    assert_laned_replay_parity(&jpeg_experiment(), "jpeg_canny");
}

#[test]
fn requiring_lanes_on_an_ineligible_scenario_is_a_typed_error() {
    let experiment = mpeg2_experiment();
    let trace = recorded_shared_trace(&experiment);
    // A 16 KB L2 has 64 sets: the equal split of tiny MPEG-2's keys gives
    // every key a single set, so no set-shard split exists.
    let l2 = CacheConfig::with_size_bytes(16 * 1024, 4).unwrap();
    let keys = PartitionKey::distinct_keys(trace.table());
    let map = PartitionMap::equal_split(l2.geometry(), &keys).unwrap();
    let spec = ScenarioSpec::replay(l2, OrganizationSpec::SetPartitioned(map), trace)
        .with_parallelism(ReplayParallelism::required_lanes(4));
    match run_replay(&experiment.config().platform, &spec) {
        Err(CoreError::Platform(PlatformError::LanesIneligible { requested, reason })) => {
            assert_eq!(requested, 4);
            assert!(
                reason.ends_with("is a single set"),
                "unexpected ineligibility reason: {reason}"
            );
        }
        other => panic!("expected a LanesIneligible error, got {other:?}"),
    }
}
