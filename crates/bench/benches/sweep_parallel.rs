//! Scaling of the parallel sweep executor and the set-sharded replay lanes.
//!
//! Two parallel paths ride on the recorded small-scale MPEG-2 trace. The
//! *sweep* pair times the same three-organisation replay batch on the
//! bounded batch pool with one worker (`serial_sweep`) and four workers
//! (`jobs4_sweep`); their ratio is the wall-clock speed-up `compmem sweep
//! --jobs 4` enjoys on the measuring machine. The *lane* trio times the
//! set-partitioned replay split into independent set shards merged back
//! into one report (`lanes1`/`lanes2`/`lanes4` worker threads);
//! intra-scenario scaling that a batch of whole scenarios cannot expose.
//! `composed_sweep` stacks the two layers (four batch workers, each row
//! on up to two lanes) and the `profile_serial`/`profile_lanes4` pair
//! times the set-sharded stack-distance pass against the serial
//! profiler. Byte-identical
//! parity of every parallel path against its serial reference is
//! asserted before any timing. The committed
//! `BENCH_sweep.json` baseline is produced with
//! `CRITERION_OUTPUT_JSON=BENCH_sweep.json cargo bench --bench
//! sweep_parallel` (the committed numbers come from a single-CPU
//! container, so its serial/parallel ratios sit near 1; the
//! `scripts/bench_check` ratio gate only fires if parallelism *loses*
//! ground against the same-run serial reference).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use compmem::executor::run_batch;
use compmem::experiment::{run_replay, ReplayParallelism, ScenarioSpec};
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_cache::{
    CurveResolution, OrganizationSpec, PartitionKey, PartitionMap, PartitionSchedule,
    WayAllocation, WindowConfig,
};
use compmem_platform::{profile_trace, profile_trace_windowed_lanes, replay_lanes};

fn bench_sweep_parallel(c: &mut Criterion) {
    let scale = Scale::Small;
    let experiment = mpeg2_experiment(scale);
    let live_spec = experiment.shared_spec();
    let (_live, trace) = experiment
        .record_trace(&live_spec)
        .expect("recording the small MPEG-2 run succeeds");
    let platform = experiment.config().platform;
    let l2 = experiment.config().l2;
    let keys = PartitionKey::distinct_keys(trace.table());
    let set_map = PartitionMap::equal_split(l2.geometry(), &keys)
        .expect("the small L2 splits over the trace's partition keys");
    let specs = vec![
        ScenarioSpec::replay(l2, OrganizationSpec::Shared, trace.clone()),
        ScenarioSpec::replay(
            l2,
            OrganizationSpec::SetPartitioned(set_map.clone()),
            trace.clone(),
        ),
        ScenarioSpec::replay(
            l2,
            OrganizationSpec::WayPartitioned(WayAllocation::equal_split(l2.geometry(), &keys)),
            trace.clone(),
        ),
    ];

    // The batch must be byte-identical whatever the worker count before we
    // time anything.
    let serial = run_batch(&specs, 1, |_, spec| run_replay(&platform, spec));
    let parallel = run_batch(&specs, 4, |_, spec| run_replay(&platform, spec));
    for (a, b) in serial.iter().zip(&parallel) {
        let a = a.as_ref().expect("replay succeeds");
        let b = b.as_ref().expect("replay succeeds");
        assert_eq!(a.report.l1, b.report.l1);
        assert_eq!(a.report.l2, b.report.l2);
        assert_eq!(a.l2_snapshot, b.l2_snapshot);
    }

    // The merged lane totals must match the one-cache serial replay of the
    // same set-partitioned organisation.
    let schedule = PartitionSchedule::single(OrganizationSpec::SetPartitioned(set_map));
    let reference = &serial[1].as_ref().expect("replay succeeds").report;
    let (lanes, decision) =
        replay_lanes(&platform, l2, &schedule, &trace, 4).expect("lane replay succeeds");
    assert!(decision.shards > 1, "the trace must split into set shards");
    assert_eq!(lanes.l1, reference.l1);
    assert_eq!(lanes.l2, reference.l2);
    assert_eq!(lanes.dram_accesses, reference.dram_accesses);
    assert_eq!(lanes.dram_writebacks, reference.dram_writebacks);
    println!(
        "trace: {} accesses, {} set shards over {} keys",
        trace.accesses(),
        decision.shards,
        keys.len()
    );

    // The set-sharded profiling pass must reproduce the serial curves
    // point for point before its timing means anything.
    let resolution = CurveResolution::for_geometry(l2.geometry(), 16)
        .expect("the small L2 supports the paper's 16-set resolution");
    let whole_run = WindowConfig::whole_run();
    let profile_lanes4 = || {
        profile_trace_windowed_lanes(&platform, &trace, resolution, whole_run, 4)
            .expect("lane profiling succeeds")
            .total
    };
    let curves_serial =
        profile_trace(&platform, &trace, resolution).expect("serial profiling succeeds");
    let curves_lanes = profile_lanes4();
    assert_eq!(
        curves_serial, curves_lanes,
        "lane-parallel profiling must be point-for-point identical to the serial pass"
    );

    // Composed batch x lane sweep: four batch workers, each row split
    // over up to two lanes. Cache-side counters must match the
    // serial batch exactly (timing is not reconstructed by lanes).
    let composed_specs: Vec<ScenarioSpec> = specs
        .iter()
        .map(|spec| spec.clone().with_parallelism(ReplayParallelism::lanes(2)))
        .collect();
    let composed = run_batch(&composed_specs, 4, |_, spec| run_replay(&platform, spec));
    for (a, b) in serial.iter().zip(&composed) {
        let a = a.as_ref().expect("replay succeeds");
        let b = b.as_ref().expect("replay succeeds");
        assert_eq!(a.report.l1, b.report.l1);
        assert_eq!(a.report.l2, b.report.l2);
        assert_eq!(a.report.dram_accesses, b.report.dram_accesses);
        assert_eq!(a.by_key, b.by_key);
    }

    let mut group = c.benchmark_group("sweep_parallel");
    group.sample_size(10);
    group.bench_function("serial_sweep", |b| {
        b.iter(|| {
            let outcomes = run_batch(&specs, 1, |_, spec| run_replay(&platform, spec));
            black_box(outcomes.len())
        })
    });
    group.bench_function("jobs4_sweep", |b| {
        b.iter(|| {
            let outcomes = run_batch(&specs, 4, |_, spec| run_replay(&platform, spec));
            black_box(outcomes.len())
        })
    });
    for jobs in [1usize, 2, 4] {
        group.bench_function(format!("lanes{jobs}").as_str(), |b| {
            b.iter(|| {
                let (report, _) = replay_lanes(&platform, l2, &schedule, &trace, jobs)
                    .expect("lane replay succeeds");
                black_box(report.l2.misses)
            })
        });
    }
    group.bench_function("composed_sweep", |b| {
        b.iter(|| {
            let outcomes = run_batch(&composed_specs, 4, |_, spec| run_replay(&platform, spec));
            black_box(outcomes.len())
        })
    });
    group.bench_function("profile_serial", |b| {
        b.iter(|| {
            let curves = profile_trace(&platform, &trace, resolution).expect("profiling succeeds");
            black_box(curves.accesses())
        })
    });
    group.bench_function("profile_lanes4", |b| {
        b.iter(|| black_box(profile_lanes4().accesses()))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_parallel);
criterion_main!(benches);
