//! Profile once, optimise many: the single-pass stack-distance workflow.
//!
//! One live run of the tiny MPEG-2 decode, with a whole-run
//! `WindowedProfiler` as its tap observing the refills of the shared
//! baseline's own L1s, yields every entity's exact miss count at every
//! power-of-two cache shape (`MissRateCurves`). The example then:
//!
//! 1. converts the curves into the miss profiles of the experiment's
//!    lattice and cross-validates them against `per_size_profiles`, which
//!    simulates every entity alone at every lattice size (identical, point
//!    for point);
//! 2. sizes the partitions with all three solvers from the same curves;
//! 3. re-converts the *same* curves on a second, finer lattice — no
//!    re-profiling, which is the whole point.
//!
//! Run with `cargo run --release --example profile_curves`.

use compmem::experiment::{Experiment, ExperimentConfig};
use compmem::profile::per_size_profiles;
use compmem_cache::CacheConfig;
use compmem_workloads::apps::{mpeg2_app, Mpeg2Params};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExperimentConfig {
        l2: CacheConfig::with_size_bytes(32 * 1024, 4)?,
        sets_per_unit: 2,
        ..ExperimentConfig::default()
    };
    let experiment = Experiment::new(config, move || {
        mpeg2_app(&Mpeg2Params::tiny()).expect("valid parameters")
    });

    // 1. One live shared-baseline run measures the curves on the side.
    let (outcome, curves) = experiment.profile_curves()?;
    let resolution = curves.resolution;
    println!(
        "profiled {} L2 accesses in one pass ({} entities, sets {}..={}, up to {} ways)",
        outcome.report.l2.accesses,
        curves.curves.len(),
        resolution.min_sets,
        resolution.max_sets,
        resolution.ways_cap,
    );

    // The slow source of the same numbers: the same run's L2-bound
    // stream, each entity alone through one cache per lattice point. It
    // must agree exactly.
    let lattice = compmem::CacheSizeLattice::new(config.l2.geometry(), config.sets_per_unit);
    let ways = config.l2.geometry().ways();
    let profiles = curves.to_profiles(&lattice, ways)?;
    let (_, trace) = experiment.record_trace(&experiment.shared_spec())?;
    let filtered = trace.filtered_for(&config.platform)?;
    let simulated = per_size_profiles(filtered.accesses(), trace.table(), &lattice, ways);
    assert_eq!(
        profiles, simulated,
        "curves must match the per-size simulation"
    );
    println!("cross-validated against per-size simulation: identical at every lattice point\n");

    // A few entities' curves, as misses by partition size.
    println!(
        "{:<14} {:>9}  misses at 1,2,4,... units",
        "entity", "accesses"
    );
    for (key, profile) in profiles.profiles.iter().take(6) {
        let points: Vec<String> = profile
            .misses_by_units
            .values()
            .map(|m| m.to_string())
            .collect();
        println!(
            "{:<14} {:>9}  {}",
            key.to_string(),
            profile.accesses,
            points.join(", ")
        );
    }

    // 2. Size the partitions three ways from the same measurement.
    let app = mpeg2_app(&Mpeg2Params::tiny())?;
    println!("\npartition sizing from the curve-derived profiles:");
    for allocation in experiment.compare_optimizers(app.space.table(), &profiles)? {
        println!(
            "  {:<12} {:>8} predicted misses, {:>3}/{} units used",
            allocation.kind.to_string(),
            allocation.predicted_misses,
            allocation.total_units,
            lattice.total_units,
        );
    }
    // 3. The same curves answer for a *different* lattice without another
    // run: here twice as coarse an allocation granularity.
    let coarse = compmem::CacheSizeLattice::new(config.l2.geometry(), config.sets_per_unit * 2);
    let coarse_profiles = curves.to_profiles(&coarse, config.l2.geometry().ways())?;
    println!(
        "\nsame pass, different lattice ({} candidate sizes instead of {}): \
         {} entities re-profiled for free",
        coarse.candidate_units.len(),
        lattice.candidate_units.len(),
        coarse_profiles.profiles.len(),
    );
    Ok(())
}
