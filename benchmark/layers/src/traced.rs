//! `layerbench trace`: every layer's public call, in-process, one span
//! per call.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use compmem::experiment::{
    allocation_problem_for_table, run_replay, sweep_shapes_from_curves, ReplayParallelism,
    RunOutcome, ScenarioSpec,
};
use compmem::{replay_controlled, ControllerConfig, Hysteresis, OptimizerKind};
use compmem_bench::cli::{dispatch_preloaded, PreloadedTrace};
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_cache::{
    CacheConfig, CacheSizeLattice, CurveResolution, OrganizationSpec, PartitionKey, PartitionMap,
    WindowConfig, WindowedCurves,
};
use compmem_platform::{
    l1_filter_signature, profile_trace_windowed, profile_trace_windowed_lanes, PlatformConfig,
    PreparedTrace,
};
use compmem_trace::curves::sidecar_path;
use compmem_trace::gen::{generate, GenSpec};
use compmem_trace::{trace_content_hash, EncodedCurves, EncodedTrace};

use crate::spans::{self, counted, Counts, Ctx, Tracer};
use crate::{err, solo_spec, strings, upload_spec, zoo_mix_spec, Flags, Tally};

/// The knobs of one workload, as `run.py` passes them to `compmem`.
pub struct Setup {
    pub work: PathBuf,
    main: PathBuf,
    pub seed: u64,
    platform: PlatformConfig,
    l2: CacheConfig,
    lattice: CacheSizeLattice,
    resolution: CurveResolution,
    pub flags: Vec<String>,
    window_cycles: u64,
    phases: f64,
    /// The application scale the live engine records: the paper scale
    /// where the workload records its input, a small probe otherwise.
    record_scale: Scale,
    /// The generator call the workload's set-up makes (an upload where
    /// it generates none of its own).
    gen: fn(u64) -> GenSpec,
    /// Whether the main trace is `gen`'s output, so the in-process
    /// generator must reproduce it byte for byte.
    main_generated: bool,
}

impl Setup {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let work = PathBuf::from(f.get("work")?);
        type Knobs = (&'static str, u64, u32, u64, f64, Scale, fn(u64) -> GenSpec);
        let (file, l2_kb, sets_per_unit, window_cycles, phases, record_scale, gen): Knobs =
            match f.get("workload")? {
                "paper_mpeg2" | "serve_mixed" => (
                    "paper.cmt",
                    512,
                    16,
                    1_000_000,
                    0.1,
                    Scale::Paper,
                    upload_spec,
                ),
                "zoo_mix3" => ("mix.cmt", 64, 4, 500_000, 0.05, Scale::Small, zoo_mix_spec),
                other => return Err(format!("unknown workload `{other}`")),
            };
        let l2 = CacheConfig::with_size_bytes(l2_kb * 1024, 4).map_err(err)?;
        let geometry = l2.geometry();
        Ok(Setup {
            main: work.join(file),
            work,
            seed: f.num("seed")?,
            platform: PlatformConfig::default(),
            l2,
            lattice: CacheSizeLattice::new(geometry, sets_per_unit),
            resolution: CurveResolution::for_geometry(geometry, sets_per_unit).map_err(err)?,
            flags: vec![
                "--l2-kb".to_string(),
                l2_kb.to_string(),
                "--sets-per-unit".to_string(),
                sets_per_unit.to_string(),
            ],
            window_cycles,
            phases,
            record_scale,
            gen,
            main_generated: file == "mix.cmt",
        })
    }

    /// The workload's main trace as stored bytes.
    pub fn main_bytes(&self) -> Result<Vec<u8>, String> {
        std::fs::read(&self.main).map_err(|e| format!("{}: {e}", self.main.display()))
    }

    /// The one-shot verbs of the workload: span name, CLI verb, argv.
    fn verbs(&self) -> Vec<(&'static str, &'static str, Vec<String>)> {
        let argv = |head: &[String]| {
            let mut argv = vec![
                "--trace".to_string(),
                self.main.to_string_lossy().into_owned(),
            ];
            argv.extend(head.iter().cloned());
            argv.extend(self.flags.iter().cloned());
            argv
        };
        let control = [
            "--controller".to_string(),
            "hysteresis".to_string(),
            "--window-cycles".to_string(),
            self.window_cycles.to_string(),
            "--phases".to_string(),
            self.phases.to_string(),
        ];
        vec![
            ("cli.profile", "profile", argv(&[])),
            (
                "cli.replay_qos",
                "replay",
                argv(&strings(&["--qos", "1.0"])),
            ),
            ("cli.control", "replay", argv(&control)),
        ]
    }
}

/// The traced run: the set-up layers once, pipeline rounds until
/// `--seconds` pass (at least one), then the serve layers.
pub fn run(f: &Flags) -> Result<String, String> {
    let s = Setup::from_flags(f)?;
    let seconds: f64 = f.num("seconds")?;
    let spans_path = PathBuf::from(f.get("spans")?);
    let t = Tracer::new();
    let mut tally = Tally::default();

    set_up_layers(&t, &s, &mut tally)?;
    let mut outputs = BTreeMap::new();
    let rounds_start = Instant::now();
    let mut request = 1;
    loop {
        t.span("round", Ctx::request(request), |ctx| {
            (pipeline(&t, &s, ctx, &mut outputs, &mut tally), Vec::new())
        })?;
        request += 1;
        if rounds_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    crate::serve_layers::run(&t, &s, &mut tally)?;

    let spans = t.finish();
    spans::write(&spans_path, &spans)?;
    Ok(crate::metrics::report(&spans, &tally))
}

/// The set-up layers: the live engine recording an application, the
/// generator, and the single-task baseline replay that
/// `replay.mix_over_solo_x` divides by.
fn set_up_layers(t: &Tracer, s: &Setup, tally: &mut Tally) -> Result<(), String> {
    let ctx = Ctx::request(0);
    let experiment = mpeg2_experiment(s.record_scale);
    t.span("record", ctx, |_| {
        counted(
            experiment.record_trace(&experiment.shared_spec()),
            |recorded| vec![("accesses", recorded.1.accesses() as f64)],
        )
    })?;
    let generated = t.span("gen", ctx, |_| {
        counted(generate(&(s.gen)(s.seed)), |trace| {
            vec![("accesses", trace.accesses() as f64)]
        })
    })?;
    if s.main_generated {
        tally.check(
            "gen",
            (s.main_bytes()? != generated.bytes())
                .then(|| "in-process generator differs from `compmem gen`".to_string()),
        );
    }
    drop(generated);

    let solo = Arc::new(PreparedTrace::from(
        generate(&solo_spec(s.seed)).map_err(err)?,
    ));
    t.span("filter.solo", ctx, |_| {
        counted(solo.filtered_for(&s.platform), |_| Vec::new())
    })?;
    let shared = ScenarioSpec::replay(s.l2, OrganizationSpec::Shared, Arc::clone(&solo));
    t.span("replay.solo", ctx, |_| {
        counted(run_replay(&s.platform, &shared), |outcome| {
            replay_counts(solo.accesses() as f64, outcome)
        })
    })?;
    Ok(())
}

fn replay_counts(accesses: f64, outcome: &RunOutcome) -> Counts {
    vec![
        ("accesses", accesses),
        ("refills", outcome.report.l2.accesses as f64),
        ("misses", outcome.report.l2.misses as f64),
    ]
}

/// Sizes every partition from the whole-run curves (the exact solver)
/// and packs the map; returns it with the number of entities sized.
fn solve(
    s: &Setup,
    prepared: &PreparedTrace,
    curves: &WindowedCurves,
) -> Result<(PartitionMap, usize), String> {
    let geometry = s.l2.geometry();
    let profiles = curves
        .total
        .to_profiles(&s.lattice, geometry.ways())
        .map_err(err)?;
    let problem = allocation_problem_for_table(prepared.table(), &s.lattice, geometry, profiles);
    let allocation = compmem::optimizer::solve(&problem, OptimizerKind::ExactIlp).map_err(err)?;
    let sizes: Vec<(PartitionKey, u32)> = allocation
        .iter()
        .map(|(&key, &units)| (key, s.lattice.sets_of(units)))
        .collect();
    let map = PartitionMap::pack(geometry, &sizes).map_err(err)?;
    Ok((map, problem.entities.len()))
}

/// One pass over every layer of the one-shot pipeline on the workload's
/// main trace, each call in its own span under `ctx`.
fn pipeline(
    t: &Tracer,
    s: &Setup,
    ctx: Ctx,
    outputs: &mut BTreeMap<&'static str, Vec<u8>>,
    tally: &mut Tally,
) -> Result<(), String> {
    let encoded = Arc::new(t.span("codec.decode", ctx, |_| {
        counted(EncodedTrace::read_from(&s.main), |trace| {
            let summary = trace.summary();
            vec![
                ("accesses", summary.accesses as f64),
                ("bytes", summary.encoded_bytes as f64),
            ]
        })
    })?);
    let accesses = encoded.accesses() as f64;
    let hash = t.span("curves.hash", ctx, |_| {
        (Ok(trace_content_hash(encoded.bytes())), Vec::new())
    })?;

    let prepared = Arc::new(PreparedTrace::new(Arc::clone(&encoded)));
    let filtered = t.span("filter", ctx, |_| {
        counted(prepared.filtered_for(&s.platform), |filtered| {
            let refills: usize = filtered.runs.iter().map(|run| run.refills.len()).sum();
            vec![
                ("accesses", accesses),
                ("runs", filtered.runs.len() as f64),
                ("refills", refills as f64),
            ]
        })
    })?;
    let refills = filtered
        .runs
        .iter()
        .map(|run| run.refills.len())
        .sum::<usize>() as f64;
    drop(filtered);

    let whole_run = WindowConfig::whole_run();
    let curves = t.span("profile", ctx, |_| {
        counted(
            profile_trace_windowed(&s.platform, &prepared, s.resolution, whole_run),
            |_| vec![("refills", refills)],
        )
    })?;
    let laned = t.span("profile.lanes2", ctx, |_| {
        counted(
            profile_trace_windowed_lanes(&s.platform, &prepared, s.resolution, whole_run, 2),
            |_| vec![("refills", refills)],
        )
    })?;
    tally.check(
        "profile.lanes2",
        (laned != curves).then(|| "curves differ from the serial pass".to_string()),
    );

    let sidecar = s.work.join("layers.curves");
    t.span("curves.write", ctx, |_| {
        counted(
            curves
                .to_sidecar(hash, l1_filter_signature(&s.platform))
                .write_to(&sidecar),
            |_| Vec::new(),
        )
    })?;
    t.span("curves.read", ctx, |_| {
        counted(
            EncodedCurves::read_from(&sidecar)
                .and_then(|read| read.validate_for_trace(encoded.bytes())),
            |_| Vec::new(),
        )
    })?;

    let (map, _) = t.span("solve", ctx, |_| {
        counted(solve(s, &prepared, &curves), |solved| {
            vec![("entities", solved.1 as f64)]
        })
    })?;
    let partitioned = ScenarioSpec::replay(
        s.l2,
        OrganizationSpec::SetPartitioned(map),
        Arc::clone(&prepared),
    );
    let serial = t.span("replay", ctx, |_| {
        counted(run_replay(&s.platform, &partitioned), |outcome| {
            replay_counts(accesses, outcome)
        })
    })?;
    let laned = partitioned
        .clone()
        .with_parallelism(ReplayParallelism::required_lanes(2));
    let laned = t.span("replay.lanes2", ctx, |_| {
        counted(run_replay(&s.platform, &laned), |outcome| {
            replay_counts(accesses, outcome)
        })
    })?;
    tally.check(
        "replay.lanes2",
        (laned.report.l2 != serial.report.l2)
            .then(|| "L2 counters differ from the serial replay".to_string()),
    );
    let shared = ScenarioSpec::replay(s.l2, OrganizationSpec::Shared, Arc::clone(&prepared));
    t.span("replay.shared", ctx, |_| {
        counted(run_replay(&s.platform, &shared), |outcome| {
            replay_counts(accesses, outcome)
        })
    })?;

    let config = ControllerConfig::cycles(s.window_cycles, s.resolution).map_err(err)?;
    t.span("control", ctx, |_| {
        let mut policy = Hysteresis::new(s.phases, 1.0);
        counted(
            replay_controlled(
                &s.platform,
                s.l2,
                &s.lattice,
                &prepared,
                &mut policy,
                &config,
            ),
            |controlled| {
                let flush = controlled.total_flush();
                vec![
                    ("windows", controlled.ticks as f64),
                    ("switches", controlled.switches() as f64),
                    ("flushed_lines", flush.invalidated as f64),
                    ("cost", controlled.cost() as f64),
                ]
            },
        )
    })?;
    t.span("sweep", ctx, |_| {
        let sweep = sweep_shapes_from_curves(&curves.total);
        (Ok(()), vec![("shapes", sweep.points.len() as f64)])
    })?;

    // The CLI verbs, each with the decoded trace preloaded and a cold L1
    // filter, as a `compmem` process has them after decoding.
    let _ = std::fs::remove_file(sidecar_path(&s.main));
    for (name, verb, argv) in s.verbs() {
        let preloaded = PreloadedTrace {
            path: s.main.clone(),
            trace: Arc::new(PreparedTrace::new(Arc::clone(&encoded))),
        };
        let bytes = t.span(name, ctx, |_| {
            let mut out = Vec::new();
            (
                dispatch_preloaded(verb, &argv, Some(&preloaded), &mut out).map(|()| out),
                Vec::new(),
            )
        })?;
        let first = outputs.entry(name).or_insert_with(|| bytes.clone());
        tally.check(
            name,
            (*first != bytes).then(|| "output differs from the first round's".to_string()),
        );
    }
    Ok(())
}
