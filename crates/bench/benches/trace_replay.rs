//! Replay-versus-live throughput of the trace record/replay pipeline.
//!
//! The point of recording a workload once is that every subsequent
//! organisation run skips functional re-execution. Each timed iteration
//! simulates the same traffic — the small-scale MPEG-2 decode on the
//! shared L2 — either by executing the application live through the
//! Kahn-process-network runtime (`live_mpeg2`) or by replaying the
//! recorded trace through `ReplaySystem` (`replay_mpeg2`); a cold
//! `EncodedTrace::from_bytes` (`decode_cold`: one validating pass over a
//! fresh copy of the bytes, keeping only the summary) isolates the codec
//! cost every verb that loads a trace pays. Both simulation
//! paths produce bit-identical L2 snapshots (asserted at start-up), so the
//! ratio of the two medians is the speed-up sweeps enjoy; the committed
//! `BENCH_trace.json` baseline is produced with
//! `CRITERION_OUTPUT_JSON=BENCH_trace.json cargo bench --bench
//! trace_replay`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use compmem::experiment::run_replay;
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_trace::EncodedTrace;

fn bench_trace_replay(c: &mut Criterion) {
    let scale = Scale::Small;
    let experiment = mpeg2_experiment(scale);
    let live_spec = experiment.shared_spec();
    let (live, trace) = experiment
        .record_trace(&live_spec)
        .expect("recording the small MPEG-2 run succeeds");
    let replay_spec = live_spec.clone().replaying(trace.clone());
    let platform = experiment.config().platform;

    // Replay must reproduce the live run exactly before we time anything.
    let replayed = run_replay(&platform, &replay_spec).expect("replay succeeds");
    assert_eq!(live.l2_snapshot, replayed.l2_snapshot);
    assert_eq!(live.report.l1, replayed.report.l1);
    println!(
        "trace: {} accesses, {:.2} bytes/access encoded",
        trace.accesses(),
        trace.summary().bytes_per_access()
    );

    let mut group = c.benchmark_group("trace_replay");
    group.sample_size(10);
    group.bench_function("live_mpeg2", |b| {
        b.iter(|| {
            let outcome = experiment.run(&live_spec).expect("live run succeeds");
            black_box(outcome.report.l2.misses)
        })
    });
    group.bench_function("replay_mpeg2", |b| {
        b.iter(|| {
            let outcome = run_replay(&platform, &replay_spec).expect("replay succeeds");
            black_box(outcome.report.l2.misses)
        })
    });
    group.bench_function("decode_cold", |b| {
        b.iter(|| {
            let cold =
                EncodedTrace::from_bytes(trace.trace().bytes().to_vec()).expect("bytes round-trip");
            black_box(cold.summary().runs)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trace_replay);
criterion_main!(benches);
