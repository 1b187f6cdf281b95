//! Cost of executing partitioning as a time-varying policy.
//!
//! The same recorded small-scale MPEG-2 trace is replayed twice on
//! identical traffic (L1 filter warmed once):
//!
//! * `static_replay` — one equal-split set-partitioned map for the whole
//!   run (the pre-schedule behaviour);
//! * `scheduled_replay` — an 8-switch `PartitionSchedule` alternating
//!   between two layouts whose every partition moves, so each switch
//!   flushes every resident line and the following runs re-fetch them —
//!   a worst-case bound on the engine overhead of dynamic
//!   repartitioning. Switches apply between runs, so both contestants
//!   send every run's L2 accesses in one batch; the scheduled replay
//!   adds one check of the next switch per run plus the flushes.
//!
//! The committed `BENCH_repartition.json` baseline records the pair;
//! `scripts/bench_check` gates their same-run ratio (static/scheduled),
//! which fires only if the scheduled path loses ground relative to the
//! static one — machine speed cancels out of the quotient. Regenerate
//! with `CRITERION_OUTPUT_JSON=BENCH_repartition.json cargo bench
//! --bench repartition_overhead`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use compmem::experiment::{run_replay, ScenarioSpec};
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_cache::{OrganizationSpec, PartitionKey, PartitionMap, PartitionSchedule};

const SWITCHES: u64 = 8;

fn bench_repartition_overhead(c: &mut Criterion) {
    let experiment = mpeg2_experiment(Scale::Small);
    let (live, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording the small MPEG-2 run succeeds");
    let l2 = experiment.config().l2;
    let platform = experiment.config().platform;
    let keys = PartitionKey::distinct_keys(trace.table());
    let map_a = PartitionMap::equal_split(l2.geometry(), &keys).expect("equal split fits");
    let reversed: Vec<PartitionKey> = keys.iter().rev().copied().collect();
    let map_b = PartitionMap::equal_split(l2.geometry(), &reversed).expect("equal split fits");

    // Evenly spaced switches across the recorded run, alternating the
    // two (fully disjoint) layouts.
    let makespan = live.report.makespan_cycles;
    let mut steps = vec![(0, OrganizationSpec::SetPartitioned(map_a.clone()))];
    for i in 1..=SWITCHES {
        let map = if i % 2 == 0 { &map_a } else { &map_b };
        steps.push((
            i * makespan / (SWITCHES + 1),
            OrganizationSpec::SetPartitioned(map.clone()),
        ));
    }
    let schedule = PartitionSchedule::new(steps).expect("steps are ordered");

    // Warm the trace's cached L1 filter so both contestants measure the
    // replay path, not the shared filter pass a sweep pays once.
    trace.filtered_for(&platform).expect("filter pass succeeds");

    let static_spec = ScenarioSpec::replay(
        l2,
        OrganizationSpec::SetPartitioned(map_a),
        Arc::clone(&trace),
    );
    let schedule_spec = ScenarioSpec::scheduled_replay(l2, schedule, Arc::clone(&trace));

    // Sanity before timing: every switch fires and flushes lines.
    let scheduled = run_replay(&platform, &schedule_spec).expect("scheduled replay succeeds");
    assert_eq!(scheduled.report.repartitions.len(), SWITCHES as usize);
    assert!(scheduled
        .report
        .repartitions
        .iter()
        .all(|r| r.flush.invalidated > 0));
    let static_outcome = run_replay(&platform, &static_spec).expect("static replay succeeds");
    println!(
        "trace: {} accesses; static {} L2 misses, scheduled {} ({} switches, {} lines flushed)",
        trace.accesses(),
        static_outcome.report.l2.misses,
        scheduled.report.l2.misses,
        SWITCHES,
        scheduled
            .report
            .repartitions
            .iter()
            .map(|r| r.flush.invalidated)
            .sum::<u64>()
    );

    let mut group = c.benchmark_group("repartition_overhead");
    group.sample_size(10);
    group.bench_function("static_replay", |b| {
        b.iter(|| {
            let outcome = run_replay(&platform, &static_spec).expect("static replay succeeds");
            black_box(outcome.report.l2.misses)
        })
    });
    group.bench_function("scheduled_replay", |b| {
        b.iter(|| {
            let outcome = run_replay(&platform, &schedule_spec).expect("scheduled replay succeeds");
            black_box(outcome.report.l2.misses)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_repartition_overhead);
criterion_main!(benches);
