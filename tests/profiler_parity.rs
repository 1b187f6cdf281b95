//! Cross-validation of the single-pass stack-distance profiler against
//! per-size simulation.
//!
//! The reference is [`per_size_profiles`]: a recorded run's L2-bound
//! refills, each key alone, through one plain LRU cache per lattice size.
//! It is exact by construction. Four properties pin the profiler down:
//!
//! * **Point-for-point parity**: curve-derived `MissProfiles` equal the
//!   per-size simulation at every lattice point, on tiny MPEG-2 and tiny
//!   JPEG+Canny; and the profiling run's outcome is the shared run's (the
//!   tap does not perturb the run it rides).
//! * **All three organisations**: parity is not a property of
//!   shared-cache traffic — a trace recorded under *any* of the three
//!   organisations (whose timing shifts the recorded interleaving)
//!   profiles to the per-size simulation's numbers; and per-key
//!   access/cold totals are organisation-invariant.
//! * **Generated traffic**: the same holds on a three-task phased, Zipf
//!   and scan mix from the workload zoo, at two seeds.
//! * **Optimizer agreement**: `solve_exact`, `solve_greedy` and the
//!   brute-force `solve_exhaustive` produce identical allocations whether
//!   the problem is built from curve-derived or simulated profiles.
//! * **Pinned live windows**: a live profiling run at a cycle window,
//!   whose stream carries the OS task-switch traffic, encodes to the
//!   committed sidecar digest on both tiny applications.

use compmem::experiment::{Experiment, ExperimentConfig, ScenarioSpec};
use compmem::optimizer::{solve_exact, solve_exhaustive, solve_greedy};
use compmem_cache::{
    per_size_profiles, CacheConfig, CacheSizeLattice, CurveResolution, MissProfiles,
    OrganizationSpec, PartitionKey, PartitionMap, WindowConfig,
};
use compmem_platform::{profile_trace, PreparedTrace};
use compmem_trace::gen::{generate, GenKind, GenSpec, GenTask};
use compmem_trace::trace_content_hash;
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

fn tiny_lattice() -> CacheSizeLattice {
    let config = tiny_config();
    CacheSizeLattice::new(config.l2.geometry(), config.sets_per_unit)
}

/// The reference profiles of a recorded trace on `lattice`: its L2-bound
/// refills, each key alone through one LRU cache per lattice size.
fn simulated_profiles(trace: &PreparedTrace, lattice: &CacheSizeLattice) -> MissProfiles {
    let config = tiny_config();
    let filtered = trace
        .filtered_for(&config.platform)
        .expect("filter pass succeeds");
    per_size_profiles(
        filtered.accesses(),
        trace.table(),
        lattice,
        config.l2.geometry().ways(),
    )
}

/// The per-size simulation of the shared baseline's recorded L2-bound
/// stream (the traffic `run_profiled`'s tap observes).
fn simulated_shared_profiles(experiment: &Experiment<impl Fn() -> Application>) -> MissProfiles {
    let (_, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording succeeds");
    simulated_profiles(&trace, &tiny_lattice())
}

fn assert_parity(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let (curve_outcome, curve_profiles) = experiment.run_profiled().expect("curve run succeeds");
    // The acceptance criterion: identical misses at every lattice point,
    // for every entity.
    assert_eq!(
        curve_profiles,
        simulated_shared_profiles(experiment),
        "{app_name}: single-pass and per-size simulation diverged"
    );
    assert!(
        !curve_profiles.profiles.is_empty(),
        "{app_name}: no entities profiled"
    );
    // The tap is a pure observer: the profiling run *is* the shared
    // baseline run, counter for counter.
    let shared = experiment
        .run(&experiment.shared_spec())
        .expect("shared run succeeds");
    assert_eq!(
        curve_outcome, shared,
        "{app_name}: the profiling tap perturbed the shared run"
    );
}

#[test]
fn curve_profiles_match_shadow_simulation_on_tiny_mpeg2() {
    assert_parity(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn curve_profiles_match_shadow_simulation_on_tiny_jpeg_canny() {
    assert_parity(&jpeg_experiment(), "jpeg_canny");
}

#[test]
fn traces_from_all_four_organisations_profile_identically() {
    let experiment = mpeg2_experiment();
    let config = tiny_config();
    let geometry = config.l2.geometry();
    let app = mpeg2_app(&Mpeg2Params::tiny()).unwrap();
    let keys = PartitionKey::distinct_keys(app.space.table());

    let specs: Vec<(&str, ScenarioSpec)> = vec![
        ("shared", experiment.shared_spec()),
        (
            "set-partitioned",
            ScenarioSpec::live(
                config.l2,
                OrganizationSpec::SetPartitioned(
                    PartitionMap::equal_split(geometry, &keys).unwrap(),
                ),
            ),
        ),
        ("way-partitioned", experiment.way_partitioned_spec()),
    ];

    let lattice = tiny_lattice();
    let mut totals = None;
    for (label, spec) in specs {
        let (_, trace) = experiment.record_trace(&spec).expect("recording succeeds");
        let curves = profile_trace(
            &experiment.config().platform,
            &trace,
            experiment.curve_resolution(),
        )
        .expect("profiling succeeds");

        // Single-pass vs per-size simulation of the *same* trace:
        // identical at every lattice point, whichever organisation's
        // timing shaped the recording.
        let single_pass = curves
            .to_profiles(&lattice, geometry.ways())
            .expect("lattice within resolution");
        assert_eq!(
            single_pass,
            simulated_profiles(&trace, &lattice),
            "`{label}` recording: single-pass and per-size simulation diverged"
        );

        // Per-key access and cold-miss totals do not depend on the
        // recorded organisation (the L2-bound access multiset is fixed by
        // the workload and the L1s; only its interleaving shifts).
        let observed: Vec<(PartitionKey, u64, u64)> = curves
            .curves
            .iter()
            .map(|(k, c)| (*k, c.accesses, c.cold))
            .collect();
        match &totals {
            None => totals = Some(observed),
            Some(expected) => assert_eq!(
                &observed, expected,
                "`{label}` recording changed per-key access/cold totals"
            ),
        }
    }
}

#[test]
fn curve_profiles_match_per_size_simulation_on_a_generated_mix() {
    // Three programs from the workload zoo: a phased hot-loop/scan task,
    // a Zipf task and a streaming scan, sharing the L2.
    let tasks = vec![
        GenTask {
            kind: GenKind::Phased {
                hot_bytes: 8 * 1024,
                scan_bytes: 128 * 1024,
                phase_accesses: 2_048,
            },
            accesses: 20_000,
        },
        GenTask {
            kind: GenKind::Zipf {
                working_set_bytes: 48 * 1024,
            },
            accesses: 20_000,
        },
        GenTask {
            kind: GenKind::Scan {
                footprint_bytes: 256 * 1024,
            },
            accesses: 20_000,
        },
    ];
    let platform = tiny_config().platform;
    let geometry = tiny_config().l2.geometry();
    let resolution = CurveResolution::for_geometry(geometry, tiny_config().sets_per_unit)
        .expect("valid resolution");
    for seed in [7, 11] {
        let trace = PreparedTrace::from(
            generate(&GenSpec::mix(tasks.clone(), seed)).expect("valid zoo spec generates"),
        );
        let curves = profile_trace(&platform, &trace, resolution).expect("profiling succeeds");
        let l2_bound: u64 = curves.curves.values().map(|c| c.accesses).sum();
        assert!(
            l2_bound > 30_000,
            "seed {seed}: only {l2_bound} accesses reached the L2"
        );
        let profiles = curves
            .to_profiles(&tiny_lattice(), geometry.ways())
            .expect("lattice within resolution");
        assert_eq!(profiles.profiles.len(), 3, "seed {seed}: one key per task");
        assert_eq!(
            profiles,
            simulated_profiles(&trace, &tiny_lattice()),
            "seed {seed}: single-pass and per-size simulation diverged"
        );
    }
}

type Solver = fn(&compmem::AllocationProblem) -> Result<compmem::Allocation, compmem::CoreError>;

fn assert_optimizer_agreement(experiment: &Experiment<impl Fn() -> Application>, app_name: &str) {
    let table_app = match app_name {
        "mpeg2" => mpeg2_app(&Mpeg2Params::tiny()).unwrap(),
        _ => jpeg_canny_app(&JpegCannyParams::tiny()).unwrap(),
    };
    let (_, curve_profiles) = experiment.run_profiled().expect("curve run succeeds");
    let simulated = simulated_shared_profiles(experiment);
    let curve_problem =
        experiment.build_allocation_problem(table_app.space.table(), curve_profiles);
    let simulated_problem = experiment.build_allocation_problem(table_app.space.table(), simulated);

    // The polynomial solvers run on the full problem; the brute-force
    // reference is exponential in the entity count, so it gets a trimmed
    // problem (the busiest entities, proportionally fewer units) — built
    // from both profile sources identically.
    let solvers: [(&str, Solver, bool); 3] = [
        ("exact", solve_exact, false),
        ("greedy", solve_greedy, false),
        ("exhaustive", solve_exhaustive, true),
    ];
    for (name, solver, trim) in solvers {
        let (curves, simulated) = if trim {
            (trimmed(&curve_problem, 6), trimmed(&simulated_problem, 6))
        } else {
            (curve_problem.clone(), simulated_problem.clone())
        };
        let from_curves = solver(&curves).expect("feasible");
        let from_simulation = solver(&simulated).expect("feasible");
        assert_eq!(
            from_curves.units, from_simulation.units,
            "{app_name}/{name}: allocations diverged between profile sources"
        );
        assert_eq!(
            from_curves.predicted_misses, from_simulation.predicted_misses,
            "{app_name}/{name}: predictions diverged between profile sources"
        );
    }
    // And the exact DP still matches the brute-force optimum on the
    // curve-derived trimmed problem.
    let small = trimmed(&curve_problem, 6);
    assert_eq!(
        solve_exact(&small).unwrap().predicted_misses,
        solve_exhaustive(&small).unwrap().predicted_misses
    );
}

/// Restricts a problem to its `keep` busiest entities (by profiled
/// accesses), shrinking the capacity proportionally so the choice stays
/// non-trivial.
fn trimmed(problem: &compmem::AllocationProblem, keep: usize) -> compmem::AllocationProblem {
    let mut entities = problem.entities.clone();
    entities.sort_by_key(|e| {
        std::cmp::Reverse(problem.profiles.profile(e.key).map_or(0, |p| p.accesses))
    });
    entities.truncate(keep);
    entities.sort_by_key(|e| e.key);
    // Keep the trimmed problem feasible whatever sizes the kept FIFOs are
    // pinned to.
    let minimum: u32 = entities
        .iter()
        .map(|e| e.candidates.iter().copied().min().unwrap_or(1))
        .sum();
    let scaled = problem.total_units * keep as u32 / problem.entities.len().max(1) as u32;
    compmem::AllocationProblem {
        entities,
        profiles: problem.profiles.clone(),
        total_units: scaled.max(minimum + 2),
    }
}

#[test]
fn optimizers_agree_across_profile_sources_on_tiny_mpeg2() {
    assert_optimizer_agreement(&mpeg2_experiment(), "mpeg2");
}

#[test]
fn optimizers_agree_across_profile_sources_on_tiny_jpeg_canny() {
    assert_optimizer_agreement(&jpeg_experiment(), "jpeg_canny");
}

#[test]
fn curves_convert_to_any_lattice_within_resolution() {
    // Pay the pass once, sweep many lattices: the same curves convert
    // on coarser lattices without another run.
    let experiment = mpeg2_experiment();
    let config = tiny_config();
    let (_, curves) = experiment.profile_curves().expect("curve run succeeds");
    for sets_per_unit in [4u32, 8, 16] {
        let lattice = CacheSizeLattice::new(config.l2.geometry(), sets_per_unit);
        let profiles = curves
            .to_profiles(&lattice, config.l2.geometry().ways())
            .expect("lattice within resolution");
        assert_eq!(profiles.lattice_units, lattice.candidate_units);
        for profile in profiles.profiles.values() {
            // Miss counts are monotonically non-increasing in size.
            let misses: Vec<u64> = profile.misses_by_units.values().copied().collect();
            assert!(misses.windows(2).all(|w| w[0] >= w[1]));
        }
    }
}

/// The FNV-1a digest of the sidecar a live profiling run at
/// `window_cycles`-cycle windows measures. The run must switch tasks and
/// its stream must reach the L2 through the OS task-switch regions, so
/// the digest covers that traffic and the cycles it is observed at.
fn live_cycle_window_digest(
    experiment: &Experiment<impl Fn() -> Application>,
    window_cycles: u64,
) -> u64 {
    let window = WindowConfig::cycles(window_cycles).expect("non-zero window");
    let (outcome, windowed) = experiment
        .profile_curves_windowed(window)
        .expect("live windowed profiling succeeds");
    assert!(outcome
        .report
        .processors
        .iter()
        .any(|processor| processor.task_switches > 0));
    for key in [PartitionKey::RtData, PartitionKey::RtBss] {
        assert!(windowed.total.curve(key).is_some(), "no {key} traffic");
    }
    assert!(
        windowed.windows.len() > 100,
        "{} windows",
        windowed.windows.len()
    );
    let bytes = windowed
        .to_sidecar(0, 0)
        .to_bytes()
        .expect("measured curves encode");
    trace_content_hash(&bytes)
}

/// Any change to which refills the live tap observes, or at which cycle,
/// moves a digest.
#[test]
fn live_cycle_windowed_profiles_are_pinned_on_tiny_apps() {
    assert_eq!(
        live_cycle_window_digest(&mpeg2_experiment(), 2_000),
        0x292f_230b_55ac_8094
    );
    assert_eq!(
        live_cycle_window_digest(&jpeg_experiment(), 2_000),
        0xbe2b_c9ce_7dd1_ab1f
    );
}
