//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--scale paper|small] [section ...]
//! ```
//!
//! Sections: `table1`, `table2`, `figure2`, `figure3`, `headline`,
//! `ablation-ways`, `ablation-optimizer`, `ablation-fifo`, or `all`
//! (default). The `paper` scale reproduces the paper's tables and figures
//! (docs/ARCHITECTURE.md, "Paper figures/tables → code", maps each to its
//! code); the `small` scale finishes in a few seconds.

use std::collections::BTreeSet;

use compmem::experiment::PaperFlowOutcome;
use compmem::report;
use compmem_bench::{
    jpeg_canny_experiment, jpeg_canny_organization_sweep, mpeg2_experiment, run_jpeg_canny_flow,
    run_mpeg2_flow, Scale,
};
use compmem_cache::PartitionKey;

fn main() {
    let mut scale = Scale::Paper;
    let mut sections: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_default();
                scale = Scale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale `{value}` (expected `paper` or `small`)");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale paper|small] [table1 table2 figure2 figure3 headline \
                     ablation-ways ablation-optimizer ablation-fifo | all]"
                );
                return;
            }
            other => {
                sections.insert(other.to_string());
            }
        }
    }
    if sections.is_empty() {
        sections.insert("all".to_string());
    }
    let all = sections.contains("all");
    let wants = |name: &str| all || sections.contains(name);

    let needs_app1 = wants("table1")
        || wants("figure2")
        || wants("figure3")
        || wants("headline")
        || wants("ablation-ways")
        || wants("ablation-optimizer")
        || wants("ablation-fifo");
    let needs_app2 = wants("table2") || wants("figure2") || wants("figure3") || wants("headline");

    eprintln!(
        "running at {scale:?} scale; this performs full-system simulations and may take a while"
    );

    // The two applications are independent: run their flows in parallel.
    let (app1, app2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| needs_app1.then(|| run_jpeg_canny_flow(scale)));
        let h2 = scope.spawn(|| needs_app2.then(|| run_mpeg2_flow(scale)));
        (
            h1.join().expect("app1 thread"),
            h2.join().expect("app2 thread"),
        )
    });

    let app1: Option<PaperFlowOutcome> = app1.map(|r| r.expect("application 1 flow"));
    let app2: Option<PaperFlowOutcome> = app2.map(|r| r.expect("application 2 flow"));

    if wants("table1") {
        let outcome = app1.as_ref().expect("app1 computed");
        println!("== Table 1: L2 allocated sets for 2 jpegs & canny ==");
        println!("{}", report::format_allocation_table(outcome));
    }
    if wants("table2") {
        let outcome = app2.as_ref().expect("app2 computed");
        println!("== Table 2: L2 allocated sets for mpeg2 ==");
        println!("{}", report::format_allocation_table(outcome));
    }
    if wants("figure2") {
        for outcome in [&app1, &app2].into_iter().flatten() {
            println!("== Figure 2 ({}) ==", outcome.app_name);
            println!("{}", report::format_figure2(outcome));
        }
    }
    if wants("figure3") {
        for outcome in [&app1, &app2].into_iter().flatten() {
            println!("== Figure 3 ({}) ==", outcome.app_name);
            println!("{}", report::format_figure3(outcome));
        }
    }
    if wants("headline") {
        for outcome in [&app1, &app2].into_iter().flatten() {
            println!("== Headline metrics ({}) ==", outcome.app_name);
            println!("{}", report::format_headline(outcome));
        }
        if let Some(outcome) = app2.as_ref() {
            // The paper's extra data point: MPEG-2 on a larger shared L2.
            let experiment = mpeg2_experiment(scale);
            let large = experiment
                .run(&experiment.shared_spec_with_l2(scale.large_l2()))
                .expect("large shared L2 run");
            println!(
                "mpeg2 with larger shared L2: miss rate {:.2}% ({} misses), CPI {:.2}",
                100.0 * large.report.l2_miss_rate(),
                large.report.l2.misses,
                large.report.average_cpi()
            );
            println!(
                "(partitioned 512 KB reaches {:.2}% with exclusive partitions)",
                100.0 * outcome.partitioned_miss_rate()
            );
        }
    }
    if wants("ablation-ways") {
        let outcome = app1.as_ref().expect("app1 computed");
        // The shared, way-partitioned and larger-shared runs are
        // independent of the flow: run them concurrently.
        let sweep = jpeg_canny_organization_sweep(scale).expect("organisation sweep");
        println!("== Ablation: set partitioning vs way partitioning (2 jpegs & canny) ==");
        println!(
            "{:<34} {:>12} {:>10}",
            "organisation", "L2 misses", "miss rate"
        );
        println!(
            "{:<34} {:>12} {:>9.2}%",
            "shared",
            sweep.shared.report.l2.misses,
            100.0 * sweep.shared.report.l2_miss_rate()
        );
        println!(
            "{:<34} {:>12} {:>9.2}%",
            "set-partitioned (paper)",
            outcome.partitioned.report.l2.misses,
            100.0 * outcome.partitioned_miss_rate()
        );
        println!(
            "{:<34} {:>12} {:>9.2}%",
            "way-partitioned (column caching)",
            sweep.way_partitioned.report.l2.misses,
            100.0 * sweep.way_partitioned.report.l2_miss_rate()
        );
        println!(
            "{:<34} {:>12} {:>9.2}%",
            "shared (larger L2)",
            sweep.large_shared.report.l2.misses,
            100.0 * sweep.large_shared.report.l2_miss_rate()
        );
        println!();
    }
    if wants("ablation-optimizer") {
        let outcome = app1.as_ref().expect("app1 computed");
        let experiment = jpeg_canny_experiment(scale);
        let reference = scale.jpeg_canny_params();
        let app = compmem_workloads::apps::jpeg_canny_app(&reference).expect("app builds");
        let allocations = experiment
            .compare_optimizers(app.space.table(), &outcome.profiles)
            .expect("optimizer comparison");
        println!("== Ablation: partition-sizing strategies (2 jpegs & canny) ==");
        println!(
            "{:<14} {:>16} {:>12}",
            "strategy", "predicted misses", "units used"
        );
        for allocation in allocations {
            println!(
                "{:<14} {:>16} {:>12}",
                allocation.kind.to_string(),
                allocation.predicted_misses,
                allocation.total_units
            );
        }
        println!();
    }
    if wants("ablation-fifo") {
        let outcome = app1.as_ref().expect("app1 computed");
        println!("== Ablation: FIFO partition sizing (2 jpegs & canny) ==");
        println!(
            "{:<30} {:>10} {:>14} {:>14}",
            "fifo", "units", "misses @1 unit", "misses @alloc"
        );
        for (&key, &units) in outcome.allocation.iter() {
            if let PartitionKey::Buffer(_) = key {
                if let Some(profile) = outcome.profiles.profile(key) {
                    let name = outcome.key_name(key);
                    if !name.starts_with("fifo") {
                        continue;
                    }
                    println!(
                        "{:<30} {:>10} {:>14} {:>14}",
                        name,
                        units,
                        profile.misses_at(1),
                        profile.misses_at(units)
                    );
                }
            }
        }
        println!();
    }
    eprintln!("done");
}
