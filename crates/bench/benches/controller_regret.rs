//! Cost of closing the control loop: online repartitioning vs a plain
//! static replay of the same traffic.
//!
//! The same recorded small-scale MPEG-2 trace (L1 filter warmed once) is
//! replayed four ways:
//!
//! * `static_replay` — one equal-split map, no controller: the in-run
//!   reference every controlled case is gated against;
//! * `greedy_replay` — the online `Greedy` policy re-solving the exact
//!   allocation on every closed profiling window and switching at the
//!   run that closes it (one windowed profiling pass + per-window ILP:
//!   the most expensive causal controller);
//! * `hysteresis_replay` — `Hysteresis` with the phase detector gating
//!   the re-solve, a fresh policy per iteration (the detector carries
//!   state across windows, not across runs);
//! * `oracle_replay` — the offline plan (computed once, outside the
//!   timing loop, from the same windowed curves `compete` reads) replayed
//!   through its pre-installed schedule.
//!
//! A second pair measures the same quotient on workload-zoo traffic:
//! `static_zoo_mix` vs `hysteresis_zoo_mix` replay a generated
//! three-task mix (phased hot/scan alternation beside a Zipf task and a
//! streaming scan) whose phase transitions actually fire the hysteresis
//! detector — the sanity pass asserts at least one switch, so the
//! controlled case pays real invalidation traffic, not a no-op loop.
//!
//! The committed `BENCH_controller.json` baseline records all six;
//! `scripts/bench_check` gates the same-run ratios static/greedy,
//! static/oracle and static-zoo/hysteresis-zoo, which fire only if the
//! control loop loses ground relative to the uncontrolled replay —
//! machine speed cancels out of the quotients. Regenerate with
//! `CRITERION_OUTPUT_JSON=BENCH_controller.json cargo bench --bench
//! controller_regret`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use compmem::controller::{
    compete, replay_controlled, ControllerConfig, ControllerPolicy, Greedy, Hysteresis, Oracle,
};
use compmem::experiment::{run_replay, ScenarioSpec};
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_cache::{
    CacheConfig, CacheSizeLattice, CurveResolution, OrganizationSpec, PartitionKey, PartitionMap,
};
use compmem_platform::{profile_trace_windowed, PlatformConfig, PreparedTrace};
use compmem_trace::gen::{generate, GenKind, GenSpec, GenTask};

const SETS_PER_UNIT: u32 = 4; // Scale::Small's allocation-unit granule
const WINDOWS: u64 = 6;
const PHASE_THRESHOLD: f64 = 0.1;
const SWITCH_MARGIN: f64 = 1.0;

// The zoo mix that drives the hysteresis detector: a phased task whose
// 24 KB hot set overflows the 16 KB private L1 (so the phase change is
// visible at L2) next to a 48 KB Zipf task and a 128 KB streaming scan.
// Three contenders matter: with two, the power-of-two lattice solves to
// the equal split and the controller never has a better map to switch to.
const ZOO_SEED: u64 = 7;
const ZOO_ACCESSES: u64 = 20_000;
const ZOO_WINDOW_CYCLES: u64 = 16_000;
const ZOO_PHASE_THRESHOLD: f64 = 0.05;

fn zoo_mix_spec() -> GenSpec {
    GenSpec {
        seed: ZOO_SEED,
        cycles_per_access: compmem_trace::DEFAULT_CYCLES_PER_ACCESS,
        tasks: vec![
            GenTask {
                kind: GenKind::Phased {
                    hot_bytes: 24 * 1024,
                    scan_bytes: 128 * 1024,
                    phase_accesses: 2_048,
                },
                accesses: ZOO_ACCESSES,
            },
            GenTask {
                kind: GenKind::Zipf {
                    working_set_bytes: 48 * 1024,
                },
                accesses: ZOO_ACCESSES,
            },
            GenTask {
                kind: GenKind::Scan {
                    footprint_bytes: 128 * 1024,
                },
                accesses: ZOO_ACCESSES,
            },
        ],
    }
}

fn bench_controller_regret(c: &mut Criterion) {
    let experiment = mpeg2_experiment(Scale::Small);
    let (live, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording the small MPEG-2 run succeeds");
    let l2 = experiment.config().l2;
    let platform = experiment.config().platform;
    let lattice = CacheSizeLattice::new(l2.geometry(), SETS_PER_UNIT);
    let resolution = CurveResolution::for_geometry(l2.geometry(), SETS_PER_UNIT)
        .expect("resolution covers the geometry");
    let window_cycles = (live.report.makespan_cycles / WINDOWS).max(1);
    let config =
        ControllerConfig::cycles(window_cycles, resolution).expect("window length is positive");

    // Warm the trace's cached L1 filter so every contestant measures the
    // control loop, not the shared filter pass a sweep pays once.
    trace.filtered_for(&platform).expect("filter pass succeeds");

    let keys = PartitionKey::distinct_keys(trace.table());
    let map = PartitionMap::equal_split(l2.geometry(), &keys).expect("equal split fits");
    let static_spec = ScenarioSpec::replay(
        l2,
        OrganizationSpec::SetPartitioned(map),
        Arc::clone(&trace),
    );

    let curves = profile_trace_windowed(&platform, &trace, config.resolution, config.window)
        .expect("profiling succeeds");
    let mut oracle = Oracle::plan(
        &platform,
        l2,
        &lattice,
        &trace,
        &curves,
        PHASE_THRESHOLD,
        &config,
    )
    .expect("offline planning succeeds");

    // Sanity before timing: the competition reconciles exactly — the
    // oracle's regret is zero, every cost is misses plus flush traffic,
    // and greedy actually exercises the switch path.
    {
        let mut greedy = Greedy;
        let mut hysteresis = Hysteresis::new(PHASE_THRESHOLD, SWITCH_MARGIN);
        let mut policies: Vec<&mut dyn ControllerPolicy> =
            vec![&mut greedy, &mut hysteresis, &mut oracle];
        let (outcomes, report) = compete(
            &platform,
            l2,
            &lattice,
            &trace,
            &curves,
            &mut policies,
            &config,
        )
        .expect("competition succeeds");
        assert_eq!(report.baseline, "oracle");
        for (outcome, entry) in outcomes.iter().zip(&report.entries) {
            assert_eq!(entry.cost, outcome.cost());
            assert_eq!(
                entry.cost,
                outcome.outcome.report.l2.misses + outcome.total_flush().written_back
            );
            assert_eq!(entry.regret, entry.cost as i64 - report.oracle_cost as i64);
        }
        let oracle_row = report
            .entries
            .iter()
            .find(|e| e.policy == "oracle")
            .unwrap();
        assert_eq!(
            oracle_row.regret, 0,
            "oracle regret is zero by construction"
        );
        let greedy_row = report
            .entries
            .iter()
            .find(|e| e.policy == "greedy")
            .unwrap();
        assert!(greedy_row.switches >= 2, "greedy must actually repartition");
        println!(
            "trace: {} accesses, {} windows of {} cycles\n{}",
            trace.accesses(),
            WINDOWS,
            window_cycles,
            report.table()
        );
    }

    // The workload-zoo contender: same static-vs-controlled quotient on a
    // generated mix whose phase transitions actually fire the detector.
    let zoo_l2 = CacheConfig::with_size_bytes(64 * 1024, 4).expect("64 KB / 4-way L2 is valid");
    let zoo_platform = PlatformConfig::default();
    let zoo_trace = Arc::new(PreparedTrace::from(
        generate(&zoo_mix_spec()).expect("generating the zoo mix succeeds"),
    ));
    let zoo_lattice = CacheSizeLattice::new(zoo_l2.geometry(), SETS_PER_UNIT);
    let zoo_resolution = CurveResolution::for_geometry(zoo_l2.geometry(), SETS_PER_UNIT)
        .expect("resolution covers the zoo geometry");
    let zoo_config = ControllerConfig::cycles(ZOO_WINDOW_CYCLES, zoo_resolution)
        .expect("zoo window length is positive");
    zoo_trace
        .filtered_for(&zoo_platform)
        .expect("zoo filter pass succeeds");
    let zoo_keys = PartitionKey::distinct_keys(zoo_trace.table());
    let zoo_map =
        PartitionMap::equal_split(zoo_l2.geometry(), &zoo_keys).expect("zoo equal split fits");
    let zoo_static_spec = ScenarioSpec::replay(
        zoo_l2,
        OrganizationSpec::SetPartitioned(zoo_map),
        Arc::clone(&zoo_trace),
    );

    // Sanity before timing: the generated mix must actually drive the
    // hysteresis policy through the switch path, and switching must beat
    // holding the equal split on the same traffic.
    {
        let mut policy = Hysteresis::new(ZOO_PHASE_THRESHOLD, SWITCH_MARGIN);
        let controlled = replay_controlled(
            &zoo_platform,
            zoo_l2,
            &zoo_lattice,
            &zoo_trace,
            &mut policy,
            &zoo_config,
        )
        .expect("zoo hysteresis replay succeeds");
        assert!(
            controlled.switches() >= 1,
            "the zoo mix must fire at least one hysteresis switch"
        );
        let held = run_replay(&zoo_platform, &zoo_static_spec).expect("zoo static replay succeeds");
        assert!(
            controlled.outcome.report.l2.misses < held.report.l2.misses,
            "repartitioning must beat holding the equal split on the zoo mix"
        );
        println!(
            "zoo mix: {} accesses, {} switches fired, {} controlled vs {} static L2 misses",
            zoo_trace.accesses(),
            controlled.switches(),
            controlled.outcome.report.l2.misses,
            held.report.l2.misses
        );
    }

    let mut group = c.benchmark_group("controller_regret");
    group.sample_size(10);
    group.bench_function("static_replay", |b| {
        b.iter(|| {
            let outcome = run_replay(&platform, &static_spec).expect("static replay succeeds");
            black_box(outcome.report.l2.misses)
        })
    });
    group.bench_function("greedy_replay", |b| {
        b.iter(|| {
            let outcome = replay_controlled(&platform, l2, &lattice, &trace, &mut Greedy, &config)
                .expect("greedy replay succeeds");
            black_box(outcome.cost())
        })
    });
    group.bench_function("hysteresis_replay", |b| {
        b.iter(|| {
            let mut policy = Hysteresis::new(PHASE_THRESHOLD, SWITCH_MARGIN);
            let outcome = replay_controlled(&platform, l2, &lattice, &trace, &mut policy, &config)
                .expect("hysteresis replay succeeds");
            black_box(outcome.cost())
        })
    });
    group.bench_function("oracle_replay", |b| {
        b.iter(|| {
            let outcome = replay_controlled(&platform, l2, &lattice, &trace, &mut oracle, &config)
                .expect("oracle replay succeeds");
            black_box(outcome.cost())
        })
    });
    group.bench_function("static_zoo_mix", |b| {
        b.iter(|| {
            let outcome =
                run_replay(&zoo_platform, &zoo_static_spec).expect("zoo static replay succeeds");
            black_box(outcome.report.l2.misses)
        })
    });
    group.bench_function("hysteresis_zoo_mix", |b| {
        b.iter(|| {
            let mut policy = Hysteresis::new(ZOO_PHASE_THRESHOLD, SWITCH_MARGIN);
            let outcome = replay_controlled(
                &zoo_platform,
                zoo_l2,
                &zoo_lattice,
                &zoo_trace,
                &mut policy,
                &zoo_config,
            )
            .expect("zoo hysteresis replay succeeds");
            black_box(outcome.cost())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_controller_regret);
criterion_main!(benches);
