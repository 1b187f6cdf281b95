//! Single-pass stack-distance profiling versus per-size re-simulation.
//!
//! The partition optimiser needs every entity's miss count at every
//! lattice point. Two ways to get them from one recorded trace, timed on
//! identical traffic (the small-scale MPEG-2 decode, L1 filter warmed
//! once for both contestants):
//!
//! * `single_pass_curves` — the `StackDistanceProfiler` over the filtered
//!   refill stream, converted to `MissProfiles` (the production path);
//! * `per_size_replay` — `per_size_profiles` over the same refills once
//!   per lattice point, each with a single-candidate lattice (the naive
//!   "re-simulate per size" baseline).
//!
//! Both produce identical profiles (asserted before timing). The
//! committed `BENCH_profile.json` baseline records the single-pass versus
//! re-simulation speed-up; regenerate it with
//! `CRITERION_OUTPUT_JSON=BENCH_profile.json cargo bench --bench
//! profile_curves`. (The single-pass path also maintains the aggregate
//! whole-L2 curve — the analytic size×associativity sweep — which costs
//! it roughly a level-bank scan per access; the baseline and the
//! `per_size/single-pass` ratio gate in `scripts/bench_check` reflect
//! that.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use compmem::CacheSizeLattice;
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_cache::{per_size_profiles, CurveResolution};
use compmem_platform::profile_trace;

fn bench_profile_curves(c: &mut Criterion) {
    let experiment = mpeg2_experiment(Scale::Small);
    let (_, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording the small MPEG-2 run succeeds");
    let platform = experiment.config().platform;
    let geometry = experiment.config().l2.geometry();
    let sets_per_unit = experiment.config().sets_per_unit;
    let lattice = CacheSizeLattice::new(geometry, sets_per_unit);
    let resolution =
        CurveResolution::for_geometry(geometry, sets_per_unit).expect("valid resolution");
    let ways = geometry.ways();

    // Warm the trace's cached L1 filter so both contestants measure their
    // own work, not the shared decode/filter pass a sweep pays once.
    let filtered = trace.filtered_for(&platform).expect("filter pass succeeds");
    println!(
        "trace: {} accesses, {} L2-bound refills, {} lattice points",
        trace.accesses(),
        filtered.accesses().count(),
        lattice.candidate_units.len()
    );

    // Both sources must agree point for point before we time them.
    let single = profile_trace(&platform, &trace, resolution)
        .expect("profiling succeeds")
        .to_profiles(&lattice, ways)
        .expect("lattice within resolution");
    let simulated = per_size_profiles(filtered.accesses(), trace.table(), &lattice, ways);
    assert_eq!(
        single, simulated,
        "single-pass and per-size simulation diverge"
    );

    let mut group = c.benchmark_group("profile_curves");
    group.sample_size(10);
    group.bench_function("single_pass_curves", |b| {
        b.iter(|| {
            let profiles = profile_trace(&platform, &trace, resolution)
                .expect("profiling succeeds")
                .to_profiles(&lattice, ways)
                .expect("lattice within resolution");
            black_box(profiles.profiles.len())
        })
    });
    group.bench_function("per_size_replay", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for &units in &lattice.candidate_units {
                let point = CacheSizeLattice {
                    candidate_units: vec![units],
                    ..lattice.clone()
                };
                let profiles = per_size_profiles(filtered.accesses(), trace.table(), &point, ways);
                total += profiles
                    .profiles
                    .values()
                    .map(|p| p.misses_at(units))
                    .sum::<u64>();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_profile_curves);
criterion_main!(benches);
