//! The `compmem` CLI command bodies, as a library.
//!
//! Every subcommand of the `compmem` binary (`record`, `gen`, `replay`,
//! `sweep`, `profile`, `sweep-shapes`, `info`) lives here, parameterised on the
//! output sink it writes to. The one-shot binary calls [`dispatch`] with
//! (locked) stdout; the `compmem serve` daemon calls the *same* function
//! with an in-memory buffer and ships the bytes over the wire. That
//! sharing is the daemon's correctness contract — a served response is
//! byte-identical to the one-shot CLI run because it **is** the one-shot
//! CLI run, minus the process — and `docs/ARCHITECTURE.md` ("Service
//! layer") documents it as such.
//!
//! Diagnostics that are *about the invocation* rather than part of the
//! result (the lane-worker notice) still go to the process's stderr:
//! stderr is not captured, not shipped, and not part of the parity
//! contract.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use compmem::experiment::{
    phase_allocations_for_table, run_replay, sweep_shapes_from_curves, validate_phase_plan,
    Experiment, ReplayParallelism, RunOutcome, ScenarioSpec,
};
use compmem::profile::require_lru;
use compmem::{CoreError, OptimizerKind, QosFloor, SolverContext};
use compmem_cache::{
    CacheConfig, CacheSizeLattice, CurveResolution, OrganizationSpec, PartitionKey, PartitionMap,
    PartitionSchedule, ReplacementPolicy, WayAllocation, WindowConfig, WindowedCurves,
};
use compmem_platform::{
    load_sidecar, profile_shards, profile_trace_windowed, profile_trace_windowed_lanes,
    profile_trace_with_sidecar_lanes, PlatformConfig, PreparedTrace, RepartitionRecord,
    SidecarOutcome,
};
use compmem_trace::gen::{generate, provenance, GenKind, GenSpec, GenTask};
use compmem_trace::{
    curves::sidecar_path, BufferId, CodecError, EncodedCurves, EncodedTrace, RegionTable, TaskId,
    DEFAULT_CYCLES_PER_ACCESS,
};
use compmem_workloads::apps::Application;

use crate::{jpeg_canny_experiment, mpeg2_experiment, Scale};

fn io_err(e: std::io::Error) -> String {
    format!("output write failed: {e}")
}

/// `writeln!` into the command's sink, mapping the I/O error to the
/// CLI's `String` error type.
macro_rules! outln {
    ($out:expr) => { writeln!($out).map_err(io_err)? };
    ($out:expr, $($arg:tt)*) => { writeln!($out, $($arg)*).map_err(io_err)? };
}

/// `write!` (no newline) into the command's sink.
macro_rules! outw {
    ($out:expr, $($arg:tt)*) => { write!($out, $($arg)*).map_err(io_err)? };
}

/// Runs one `compmem` subcommand, writing its output (the exact bytes the
/// one-shot binary would print to stdout) into `out`.
///
/// # Errors
///
/// The human-readable error message the binary would print to stderr.
pub fn dispatch(verb: &str, args: &[String], out: &mut dyn Write) -> Result<(), String> {
    dispatch_preloaded(verb, args, None, out)
}

/// A trace the caller has already read and decoded: commands whose
/// `--trace` flag names exactly `path` reuse `trace` instead of loading
/// the file again. The `compmem serve` daemon passes its store's
/// memoised decode here, so a cache-hit request costs the analytic
/// evaluation alone — decoding is deterministic, so the output bytes are
/// unchanged.
pub struct PreloadedTrace {
    /// The path the trace was read from (compared against `--trace`).
    pub path: PathBuf,
    /// The decoded trace, shared with the caller's cache.
    pub trace: Arc<PreparedTrace>,
}

/// [`dispatch`] with an optional [`PreloadedTrace`].
///
/// # Errors
///
/// The human-readable error message the binary would print to stderr.
pub fn dispatch_preloaded(
    verb: &str,
    args: &[String],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let run = verb_handler(verb, &flags)?;
    run(&flags, preloaded, out)
}

/// A mode's handler: its parsed flags, the caller's preloaded trace and
/// the output sink.
type Handler =
    fn(&[(String, String)], Option<&PreloadedTrace>, &mut dyn Write) -> Result<(), String>;

/// The flag that selects a mode of a verb.
enum Select {
    /// The verb's default mode.
    Always,
    /// The flag is present.
    Flag(&'static str),
    /// The flag has this value.
    Value(&'static str, &'static str),
}

/// One mode of a verb [`dispatch`] runs: its name (the verb and the flag
/// that selects it), the flags it takes and its handler.
struct Mode {
    name: &'static str,
    select: Select,
    flags: &'static str,
    run: Handler,
}

impl Mode {
    fn verb(&self) -> &str {
        self.name
            .split_once(' ')
            .map_or(self.name, |(verb, _)| verb)
    }

    fn selected_by(&self, flags: &[(String, String)]) -> bool {
        match self.select {
            Select::Always => true,
            Select::Flag(flag) => get(flags, flag).is_some(),
            Select::Value(flag, value) => get(flags, flag) == Some(value),
        }
    }
}

/// Every mode of every verb, a verb's modes in the order they are tested.
/// A mode takes the flags it reads; the static `replay` and `info` also
/// take the `--sets-per-unit` the repository benchmark sends them with
/// the other L2 flags.
const MODES: [Mode; 15] = [
    Mode {
        name: "record",
        select: Select::Always,
        flags: "app scale org out",
        run: |flags, _, out| record(flags, out),
    },
    Mode {
        name: "gen --kind zipf",
        select: Select::Value("kind", "zipf"),
        flags: "kind out seed accesses cycles-per-access ws-kb",
        run: |flags, _, out| gen(flags, out),
    },
    Mode {
        name: "gen --kind scan",
        select: Select::Value("kind", "scan"),
        flags: "kind out seed accesses cycles-per-access footprint-kb",
        run: |flags, _, out| gen(flags, out),
    },
    Mode {
        name: "gen --kind chase",
        select: Select::Value("kind", "chase"),
        flags: "kind out seed accesses cycles-per-access ws-kb",
        run: |flags, _, out| gen(flags, out),
    },
    Mode {
        name: "gen --kind phased",
        select: Select::Value("kind", "phased"),
        flags: "kind out seed accesses cycles-per-access hot-kb scan-kb phase-accesses",
        run: |flags, _, out| gen(flags, out),
    },
    Mode {
        name: "gen --kind mix",
        select: Select::Value("kind", "mix"),
        flags: "kind out seed accesses cycles-per-access tasks",
        run: |flags, _, out| gen(flags, out),
    },
    Mode {
        name: "replay --qos",
        select: Select::Flag("qos"),
        flags: "trace qos l2-kb ways policy sets-per-unit solve save-curves",
        run: replay_qos,
    },
    Mode {
        name: "replay --controller",
        select: Select::Flag("controller"),
        flags: "trace controller window-cycles l2-kb ways policy sets-per-unit phases margin \
                solve",
        run: replay_controller,
    },
    Mode {
        name: "replay --schedule phases",
        select: Select::Value("schedule", "phases"),
        flags: "trace schedule l2-kb ways policy sets-per-unit solve windows phases \
                save-curves save-schedule",
        run: replay_phase_schedule,
    },
    Mode {
        name: "replay --schedule FILE",
        select: Select::Flag("schedule"),
        flags: "trace schedule l2-kb ways policy lanes",
        run: replay_schedule_file,
    },
    Mode {
        name: "replay",
        select: Select::Always,
        flags: "trace org l2-kb ways policy sets-per-unit lanes",
        run: replay_static,
    },
    Mode {
        name: "sweep",
        select: Select::Always,
        flags: "trace l2-kb ways jobs lanes",
        run: sweep,
    },
    Mode {
        name: "profile",
        select: Select::Always,
        flags: "trace l2-kb ways policy sets-per-unit solve windows window-cycles phases \
                save-curves lanes",
        run: profile,
    },
    Mode {
        name: "sweep-shapes",
        select: Select::Always,
        flags: "trace l2-kb ways policy sets-per-unit check-replay save-curves jobs lanes",
        run: sweep_shapes,
    },
    Mode {
        name: "info",
        select: Select::Always,
        flags: "trace l2-kb ways policy sets-per-unit schedule",
        run: info,
    },
];

/// The handler of the mode `verb` runs in, once every flag is one that
/// mode takes: an unknown verb, a `gen` without a known `--kind`, or a
/// flag the mode does not read (which would otherwise be silently
/// ignored) is an error naming it.
fn verb_handler(verb: &str, flags: &[(String, String)]) -> Result<Handler, String> {
    let modes: Vec<&Mode> = MODES.iter().filter(|mode| mode.verb() == verb).collect();
    if modes.is_empty() {
        return Err(format!("unknown subcommand `{verb}`"));
    }
    let mode = modes
        .iter()
        .find(|mode| mode.selected_by(flags))
        .ok_or_else(|| {
            let names: Vec<&str> = modes.iter().map(|mode| mode.name).collect();
            format!("`{verb}` needs one of: {}", names.join(", "))
        })?;
    match flags
        .iter()
        .find(|(name, _)| !mode.flags.split_whitespace().any(|flag| flag == name))
    {
        None => Ok(mode.run),
        Some((name, _)) => Err(format!(
            "`{}` does not take --{name} (it takes --{})",
            mode.name,
            mode.flags
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" --")
        )),
    }
}

/// Minimal flag parser: every option takes one value.
///
/// # Errors
///
/// Names a bare argument, or a flag missing its value.
pub fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

/// The value of the last `--name` among parsed `flags`.
pub fn get<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Worker-pool size of a sweep: `--jobs N`, defaulting to the host's
/// available parallelism.
fn jobs_flag(flags: &[(String, String)]) -> Result<usize, String> {
    match get(flags, "jobs") {
        None => Ok(compmem::executor::default_jobs()),
        Some(value) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err("--jobs needs a number of at least 1".to_string()),
        },
    }
}

/// Lane count of a replay/profiling invocation: `--lanes N`, defaulting
/// to 1 (serial).
fn lanes_flag(flags: &[(String, String)]) -> Result<usize, String> {
    match get(flags, "lanes") {
        None => Ok(1),
        Some(value) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err("--lanes needs a number of at least 1".to_string()),
        },
    }
}

fn record(flags: &[(String, String)], out: &mut dyn Write) -> Result<(), String> {
    let app = get(flags, "app").ok_or("record needs --app jpeg_canny|mpeg2")?;
    let out_path = get(flags, "out").ok_or("record needs --out FILE")?;
    let scale = match get(flags, "scale") {
        None => Scale::Small,
        Some(name) => Scale::parse(name).ok_or_else(|| format!("unknown scale `{name}`"))?,
    };
    let org = get(flags, "org").unwrap_or("shared");

    let (outcome, trace) = match app {
        "jpeg_canny" => record_with(&jpeg_canny_experiment(scale), org)?,
        "mpeg2" => record_with(&mpeg2_experiment(scale), org)?,
        other => return Err(format!("unknown app `{other}` (use jpeg_canny or mpeg2)")),
    };
    trace
        .trace()
        .write_to(out_path)
        .map_err(|e| e.to_string())?;
    let summary = trace.summary();
    outln!(
        out,
        "recorded {app} ({org} L2): {} accesses in {} runs on {} processors",
        summary.accesses,
        summary.runs,
        summary.processors
    );
    outln!(
        out,
        "  live run: {} cycles makespan, L2 miss rate {:.2}%",
        outcome.report.makespan_cycles,
        100.0 * outcome.report.l2_miss_rate()
    );
    outln!(
        out,
        "  wrote {out_path}: {} bytes ({:.2} bytes/access)",
        summary.encoded_bytes,
        summary.bytes_per_access()
    );
    Ok(())
}

fn record_with<F: Fn() -> Application>(
    experiment: &Experiment<F>,
    org: &str,
) -> Result<(RunOutcome, Arc<PreparedTrace>), String> {
    let spec = match org {
        "shared" => experiment.shared_spec(),
        "way-partitioned" => experiment.way_partitioned_spec(),
        other => {
            return Err(format!(
                "cannot record under organisation `{other}` (use shared or way-partitioned)"
            ))
        }
    };
    experiment.record_trace(&spec).map_err(|e| e.to_string())
}

/// The workload zoo front door: `compmem gen` synthesises a deterministic
/// scenario trace (the standard trace IR, so every other subcommand
/// consumes it unchanged) from a family name, a seed and per-family
/// knobs — or a multi-program mix via `--tasks`. The full generator spec is embedded
/// in the trace's region names; `compmem info` prints it back.
fn gen(flags: &[(String, String)], out: &mut dyn Write) -> Result<(), String> {
    let path = get(flags, "out").ok_or("gen needs --out FILE")?;
    let kind_name = get(flags, "kind").ok_or("gen needs --kind zipf|scan|chase|phased|mix")?;
    let seed: u64 = get(flags, "seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "--seed needs a number".to_string())?;
    let accesses: u64 = get(flags, "accesses")
        .unwrap_or("20000")
        .parse()
        .map_err(|_| "--accesses needs a number".to_string())?;
    let cycles_per_access: u64 = match get(flags, "cycles-per-access") {
        None => DEFAULT_CYCLES_PER_ACCESS,
        Some(v) => v
            .parse()
            .map_err(|_| "--cycles-per-access needs a number".to_string())?,
    };

    let tasks = match kind_name {
        "mix" => parse_task_specs(
            get(flags, "tasks").unwrap_or("chase:24,scan:256x4"),
            accesses,
        )?,
        family => {
            let names = gen_params(family).unwrap_or_default();
            let params = names
                .iter()
                .map(|name| {
                    get(flags, name)
                        .map(|value| {
                            positive(value)
                                .ok_or_else(|| format!("--{name} needs a number of at least 1"))
                        })
                        .transpose()
                })
                .collect::<Result<Vec<_>, String>>()?;
            vec![GenTask {
                kind: gen_kind(family, &params, |i, kb| format!("--{} {kb}", names[i]))?,
                accesses,
            }]
        }
    };
    let spec = GenSpec {
        seed,
        cycles_per_access,
        tasks,
    };

    let trace = generate(&spec).map_err(|e| e.to_string())?;
    trace.write_to(path).map_err(|e| format!("{path}: {e}"))?;
    let summary = trace.summary();
    outln!(
        out,
        "generated `{kind_name}` scenario: {} task(s), {} accesses, seed {seed}, \
         content hash {:016x}",
        spec.tasks.len(),
        summary.accesses,
        trace.content_hash()
    );
    for p in provenance(trace.table()) {
        outln!(out, "  {p}");
    }
    outln!(
        out,
        "wrote {path}: {} bytes (same spec regenerates byte-identical output)",
        summary.encoded_bytes
    );
    Ok(())
}

/// The size parameters of each generator family, in the order a
/// `--tasks` entry lists them, as the `gen --kind` flags that set them
/// (KB sizes, and a phase length in accesses).
const GEN_PARAMS: [(&str, &[&str]); 4] = [
    ("zipf", &["ws-kb"]),
    ("scan", &["footprint-kb"]),
    ("chase", &["ws-kb"]),
    ("phased", &["hot-kb", "scan-kb", "phase-accesses"]),
];

/// The [`GEN_PARAMS`] of generator family `family`, if it is one.
fn gen_params(family: &str) -> Option<&'static [&'static str]> {
    GEN_PARAMS
        .iter()
        .find(|(name, _)| *name == family)
        .map(|(_, params)| *params)
}

/// A number of at least 1.
fn positive(value: &str) -> Option<u64> {
    value.parse().ok().filter(|&n| n >= 1)
}

/// `kb` KB in bytes. An overflow is an error naming `subject`, never a
/// wrapped-around small size.
fn kb_to_bytes(kb: u64, subject: impl FnOnce() -> String) -> Result<u64, String> {
    kb.checked_mul(1024)
        .ok_or_else(|| format!("{} is too large (its size in bytes overflows)", subject()))
}

/// Builds generator family `family` from its [`GEN_PARAMS`], a missing
/// one taking the zoo's default: zipf 32 KB, scan 256 KB, chase 24 KB,
/// phased 8 KB hot + 128 KB scan every 2,048 accesses. `subject(i, kb)`
/// names parameter `i` when its size in bytes overflows.
fn gen_kind(
    family: &str,
    params: &[Option<u64>],
    subject: impl Fn(usize, u64) -> String,
) -> Result<GenKind, String> {
    let param = |i: usize, default: u64| params.get(i).copied().flatten().unwrap_or(default);
    let bytes = |i: usize, default_kb: u64| {
        let kb = param(i, default_kb);
        kb_to_bytes(kb, || subject(i, kb))
    };
    Ok(match family {
        "zipf" => GenKind::Zipf {
            working_set_bytes: bytes(0, 32)?,
        },
        "scan" => GenKind::Scan {
            footprint_bytes: bytes(0, 256)?,
        },
        "chase" => GenKind::Chase {
            working_set_bytes: bytes(0, 24)?,
        },
        "phased" => GenKind::Phased {
            hot_bytes: bytes(0, 8)?,
            scan_bytes: bytes(1, 128)?,
            phase_accesses: param(2, 2_048),
        },
        other => return Err(format!("unknown generator family `{other}`")),
    })
}

/// Parses the `--tasks` mix grammar: comma-separated `family[:SIZE][xN]`
/// entries, one task each. SIZE is the family's footprint in KB — for
/// `phased` it is `HOT+SCAN[+PHASE]` (KB, KB, accesses) — and `xN`
/// multiplies the per-task `--accesses` budget (an adversarial streamer
/// issuing at four times the victim's rate is `scan:256x4`).
fn parse_task_specs(spec: &str, base_accesses: u64) -> Result<Vec<GenTask>, String> {
    let mut tasks = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        let subject = || format!("--tasks entry `{entry}`");
        let bad = |what: &str| format!("{}: {what}", subject());
        let (head, mult) = match entry.rsplit_once('x') {
            Some((head, m))
                if !head.is_empty() && !m.is_empty() && m.bytes().all(|b| b.is_ascii_digit()) =>
            {
                (head, m.parse::<u64>().map_err(|_| bad("bad multiplier"))?)
            }
            _ => (entry, 1),
        };
        if mult == 0 {
            return Err(bad("multiplier must be at least 1"));
        }
        let (family, sizes) = match head.split_once(':') {
            None => (head, None),
            Some((f, p)) => (f, Some(p)),
        };
        let names = gen_params(family).ok_or_else(|| bad(&format!("unknown family `{family}`")))?;
        let grammar = match names.len() {
            1 => "size must be a KB count",
            _ => "phased params are HOT+SCAN[+PHASE]",
        };
        let parts: Vec<&str> = sizes.map_or_else(Vec::new, |p| p.split('+').collect());
        if parts.len() > names.len() {
            return Err(bad(grammar));
        }
        let params = parts
            .iter()
            .map(|part| positive(part).map(Some).ok_or_else(|| bad(grammar)))
            .collect::<Result<Vec<_>, String>>()?;
        tasks.push(GenTask {
            kind: gen_kind(family, &params, |_, _| subject())?,
            accesses: base_accesses.checked_mul(mult).ok_or_else(|| {
                format!(
                    "{} is too large (--accesses times its multiplier overflows)",
                    subject()
                )
            })?,
        });
    }
    Ok(tasks)
}

/// Loads the `--trace` of a verb that filters it through `platform`'s
/// L1s whatever else it does (see [`load_trace_with_path`]).
fn load_trace(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    platform: &PlatformConfig,
) -> Result<Arc<PreparedTrace>, String> {
    load_trace_with_path(flags, preloaded, Some(platform)).map(|(trace, _)| trace)
}

/// Loads the `--trace` file, or takes the caller's preloaded trace when
/// it names the same path. A verb that will filter the trace through a
/// platform's L1s passes that platform as `filter`, and the file is
/// validated and filtered in one decoding pass
/// ([`PreparedTrace::from_bytes_filtered`]); otherwise it is only
/// validated. A corrupt file gives the same error either way.
fn load_trace_with_path(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    filter: Option<&PlatformConfig>,
) -> Result<(Arc<PreparedTrace>, PathBuf), String> {
    let path = get(flags, "trace").ok_or("missing --trace FILE")?;
    if let Some(ready) = preloaded {
        if ready.path.as_os_str() == path {
            return Ok((Arc::clone(&ready.trace), ready.path.clone()));
        }
    }
    let prepared = match filter {
        None => EncodedTrace::read_from(path).map(PreparedTrace::from),
        Some(platform) => std::fs::read(path)
            .map_err(CodecError::Io)
            .and_then(|bytes| PreparedTrace::from_bytes_filtered(bytes, platform)),
    };
    prepared
        .map(|trace| (Arc::new(trace), PathBuf::from(path)))
        .map_err(|e| format!("{path}: {e}"))
}

/// Whether a profiling verb runs the L1 filter whatever its sidecar
/// holds: `--save-curves off`, or no file at the sidecar path the flags
/// resolve to for `window`. Only a sidecar that is there can skip the
/// filter, so only then is the trace loaded by validating alone. Flags
/// that do not resolve answer `false`; the verb reports them after
/// loading the trace, as it always has.
fn profiles_whatever_the_sidecar(flags: &[(String, String)], window: WindowConfig) -> bool {
    let Some(trace) = get(flags, "trace") else {
        return false;
    };
    match save_curves_path(flags, Path::new(trace), window) {
        Ok(None) => true,
        Ok(Some(sidecar)) => !sidecar.exists(),
        Err(_) => false,
    }
}

/// Resolves the `--save-curves` policy: `None` disables persistence,
/// otherwise the sidecar path to use. The `auto` default keys the path
/// on the window configuration (`TRACE.curves` for whole-run,
/// `TRACE.wN.curves` / `TRACE.cyN.curves` for windowed passes), so a
/// windowed profile and a whole-run `sweep-shapes` each keep their own
/// persisted curves instead of rewriting a shared file back and forth.
fn save_curves_path(
    flags: &[(String, String)],
    trace_path: &Path,
    window: WindowConfig,
) -> Result<Option<PathBuf>, String> {
    match get(flags, "save-curves").unwrap_or("auto") {
        "off" => Ok(None),
        "auto" => Ok(Some(match window.kind {
            compmem_cache::WindowKind::WholeRun => sidecar_path(trace_path),
            compmem_cache::WindowKind::Accesses => {
                trace_path.with_extension(format!("w{}.curves", window.length))
            }
            compmem_cache::WindowKind::Cycles => {
                trace_path.with_extension(format!("cy{}.curves", window.length))
            }
        })),
        custom if !custom.is_empty() => Ok(Some(PathBuf::from(custom))),
        _ => Err("--save-curves needs auto, off or a file path".to_string()),
    }
}

/// The window configuration of a profiling invocation (`--windows` /
/// `--window-cycles`; default: one whole-run window).
fn window_config(flags: &[(String, String)]) -> Result<WindowConfig, String> {
    match (get(flags, "windows"), get(flags, "window-cycles")) {
        (Some(_), Some(_)) => Err("--windows and --window-cycles are exclusive".to_string()),
        (Some(n), None) => {
            let n: u64 = n
                .parse()
                .map_err(|_| "--windows needs a number".to_string())?;
            WindowConfig::accesses(n).map_err(|e| e.to_string())
        }
        (None, Some(n)) => {
            let n: u64 = n
                .parse()
                .map_err(|_| "--window-cycles needs a number".to_string())?;
            WindowConfig::cycles(n).map_err(|e| e.to_string())
        }
        (None, None) => Ok(WindowConfig::whole_run()),
    }
}

/// Profiles a trace, reusing or writing the sidecar as configured, and
/// narrates what happened with the persistence layer.
///
/// "(L1 filter pass skipped)" on a reused sidecar names the profile's
/// own pass: the curves come from the file, not from filtering the
/// trace. A verb that replays afterwards (`replay --qos`, `sweep-shapes
/// --check-replay on`) still filters the trace, in the pass that loaded
/// it.
///
/// `lanes > 1` splits the pass into set shards (merged exactly); the
/// shard-count notice goes to stderr because stdout — tables, sidecar
/// narration, and the sidecar bytes themselves — is identical to a
/// serial run, and CI diffs it to prove that.
fn profile_with_policy(
    platform: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
    window: WindowConfig,
    sidecar: Option<&Path>,
    lanes: usize,
    out: &mut dyn Write,
) -> Result<WindowedCurves, String> {
    let (windowed, measured) = match sidecar {
        None => (
            profile_trace_windowed_lanes(platform, trace, resolution, window, lanes)
                .map_err(|e| e.to_string())?,
            true,
        ),
        Some(path) => {
            let (windowed, outcome) =
                profile_trace_with_sidecar_lanes(platform, trace, resolution, window, path, lanes)
                    .map_err(|e| e.to_string())?;
            match &outcome {
                SidecarOutcome::Reused => outln!(
                    out,
                    "reusing persisted curves from {} (L1 filter pass skipped)",
                    path.display()
                ),
                SidecarOutcome::Written => {
                    outln!(out, "wrote curve sidecar {}", path.display());
                }
                SidecarOutcome::Rewritten { reason } => outln!(
                    out,
                    "sidecar {} was unusable ({reason}); re-profiled and rewrote it",
                    path.display()
                ),
            }
            (windowed, outcome != SidecarOutcome::Reused)
        }
    };
    if lanes > 1 && measured {
        eprintln!(
            "note: profiled on {} set shards with up to {lanes} workers (results match a \
             serial pass)",
            profile_shards(resolution, lanes)
        );
    }
    Ok(windowed)
}

fn l2_config(flags: &[(String, String)]) -> Result<CacheConfig, String> {
    let kb: u64 = get(flags, "l2-kb")
        .unwrap_or("64")
        .parse()
        .map_err(|_| "--l2-kb needs a number".to_string())?;
    let mut config = l2_of_size(kb, ways_flag(flags)?)?;
    if let Some(name) = get(flags, "policy") {
        let policy = ReplacementPolicy::ALL
            .into_iter()
            .find(|p| p.to_string() == name)
            .ok_or_else(|| format!("unknown replacement policy `{name}`"))?;
        config = config.policy(policy);
    }
    Ok(config)
}

/// L2 associativity: `--ways N`, defaulting to 4.
fn ways_flag(flags: &[(String, String)]) -> Result<u32, String> {
    get(flags, "ways")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--ways needs a number".to_string())
}

/// The L2 of `kb` KB and `ways` ways; an overflowing size is an error
/// naming `--l2-kb`.
fn l2_of_size(kb: u64, ways: u32) -> Result<CacheConfig, String> {
    let bytes = kb_to_bytes(kb, || format!("--l2-kb {kb}"))?;
    CacheConfig::with_size_bytes(bytes, ways).map_err(|e| e.to_string())
}

/// Rejects profiling-backed invocations over a non-LRU L2
/// ([`require_lru`]), with a hint naming the flag that chose the policy.
fn require_lru_for_profiling(l2: CacheConfig) -> Result<(), String> {
    require_lru(l2).map_err(|e| match e {
        CoreError::NonLruProfiling { policy } => format!(
            "stack-distance profiling is exact for LRU only; the scenario's L2 uses \
             `{policy}` (drop --policy {policy} or use LRU)"
        ),
        other => other.to_string(),
    })
}

/// The L2 of a profiling-backed invocation, checked to be LRU, with the
/// profiling resolution and the allocation lattice its `--sets-per-unit`
/// sets.
fn profiling_shape(
    flags: &[(String, String)],
) -> Result<(CacheConfig, CurveResolution, CacheSizeLattice), String> {
    let l2 = l2_config(flags)?;
    require_lru_for_profiling(l2)?;
    let sets_per_unit: u32 = get(flags, "sets-per-unit")
        .unwrap_or("16")
        .parse()
        .map_err(|_| "--sets-per-unit needs a number".to_string())?;
    let resolution =
        CurveResolution::for_geometry(l2.geometry(), sets_per_unit).map_err(|e| e.to_string())?;
    let lattice = CacheSizeLattice::new(l2.geometry(), sets_per_unit);
    Ok((l2, resolution, lattice))
}

/// Whether `verb` (`profile` or `sweep-shapes`) with `args` would reuse
/// its persisted curve sidecar over `trace` — the check behind the
/// `reusing persisted curves` line, made by [`load_sidecar`] before any
/// profiling. `false` for every other verb and for invalid flags.
pub fn reuses_sidecar(verb: &str, args: &[String], trace: &PreloadedTrace) -> bool {
    let reuses = || -> Result<bool, String> {
        let flags = parse_flags(args)?;
        let window = match verb {
            "profile" => window_config(&flags)?,
            "sweep-shapes" => WindowConfig::whole_run(),
            _ => return Ok(false),
        };
        let (_, resolution, _) = profiling_shape(&flags)?;
        let Some(sidecar) = save_curves_path(&flags, &trace.path, window)? else {
            return Ok(false);
        };
        let config = PlatformConfig::default();
        let loaded = load_sidecar(&config, &trace.trace, resolution, window, &sidecar);
        Ok(matches!(loaded, Ok(Some(_))))
    };
    reuses().unwrap_or(false)
}

fn organization(
    name: &str,
    l2: CacheConfig,
    table: &RegionTable,
) -> Result<OrganizationSpec, String> {
    match name {
        "shared" => Ok(OrganizationSpec::Shared),
        "set-partitioned" => {
            let keys = PartitionKey::distinct_keys(table);
            PartitionMap::equal_split(l2.geometry(), &keys)
                .map(OrganizationSpec::SetPartitioned)
                .map_err(|e| e.to_string())
        }
        "way-partitioned" => Ok(OrganizationSpec::WayPartitioned(
            WayAllocation::equal_split(l2.geometry(), &PartitionKey::distinct_keys(table)),
        )),
        other => Err(format!(
            "unknown organisation `{other}` (use shared, set-partitioned or way-partitioned)"
        )),
    }
}

fn print_outcome_row(label: &str, outcome: &RunOutcome, out: &mut dyn Write) -> Result<(), String> {
    let r = &outcome.report;
    // Lane-parallel replays reproduce every cache-side counter exactly
    // but do not reconstruct the global timing interleaving, so there is
    // no makespan to report.
    let makespan = match outcome.lane_decision {
        Some(_) => "-".to_string(),
        None => r.makespan_cycles.to_string(),
    };
    outln!(
        out,
        "{label:<24} {:>12} {:>12} {:>8.3}% {:>10} {:>14}",
        r.l2.accesses,
        r.l2.misses,
        100.0 * r.l2_miss_rate(),
        r.dram_accesses,
        makespan
    );
    Ok(())
}

fn outcome_header(out: &mut dyn Write) -> Result<(), String> {
    outln!(
        out,
        "{:<24} {:>12} {:>12} {:>9} {:>10} {:>14}",
        "organisation",
        "l2 accesses",
        "l2 misses",
        "missrate",
        "dram",
        "makespan"
    );
    Ok(())
}

/// The partition-sizing solver of a profiling/scheduling invocation.
fn solver_kind(flags: &[(String, String)]) -> Result<OptimizerKind, String> {
    match get(flags, "solve").unwrap_or("exact-ilp") {
        "exact-ilp" => Ok(OptimizerKind::ExactIlp),
        "greedy" => Ok(OptimizerKind::Greedy),
        "equal-split" => Ok(OptimizerKind::EqualSplit),
        other => Err(format!("unknown solver `{other}`")),
    }
}

/// The schedule-file token of a partition key (`task0`, `buffer3`,
/// `app.data`, ...) — the inverse of [`parse_partition_key`].
fn key_token(key: PartitionKey) -> String {
    match key {
        PartitionKey::Task(t) => format!("task{}", t.index()),
        PartitionKey::Buffer(b) => format!("buffer{}", b.index()),
        PartitionKey::AppData => "app.data".to_string(),
        PartitionKey::AppBss => "app.bss".to_string(),
        PartitionKey::RtData => "rt.data".to_string(),
        PartitionKey::RtBss => "rt.bss".to_string(),
    }
}

fn parse_partition_key(token: &str) -> Result<PartitionKey, String> {
    if let Some(n) = token.strip_prefix("task") {
        if let Ok(i) = n.parse::<u32>() {
            return Ok(PartitionKey::Task(TaskId::new(i)));
        }
    }
    if let Some(n) = token.strip_prefix("buffer") {
        if let Ok(i) = n.parse::<u32>() {
            return Ok(PartitionKey::Buffer(BufferId::new(i)));
        }
    }
    match token {
        "app.data" => Ok(PartitionKey::AppData),
        "app.bss" => Ok(PartitionKey::AppBss),
        "rt.data" => Ok(PartitionKey::RtData),
        "rt.bss" => Ok(PartitionKey::RtBss),
        other => Err(format!(
            "unknown partition key `{other}` (use taskN, bufferN, app.data, app.bss, \
             rt.data or rt.bss)"
        )),
    }
}

/// Parses the text schedule format: one step per line, `AT_CYCLE
/// key=sets ...` (packed back to back in listed order) or `AT_CYCLE
/// shared`; `#` starts a comment.
fn parse_schedule_file(path: &str, l2: CacheConfig) -> Result<PartitionSchedule, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}", lineno + 1);
        let mut parts = line.split_whitespace();
        let at_cycle: u64 = parts
            .next()
            .expect("non-empty line has a first token")
            .parse()
            .map_err(|_| bad("step must start with its AT_CYCLE"))?;
        let rest: Vec<&str> = parts.collect();
        let organization = if rest == ["shared"] {
            OrganizationSpec::Shared
        } else if rest.is_empty() {
            return Err(bad("step needs `shared` or key=sets assignments"));
        } else {
            // `key=sets` entries are packed back to back in listed order;
            // `key=sets@base` pins the exact placement (what
            // --save-schedule emits, so stable layouts round-trip). The
            // two forms cannot mix within one step.
            let mut sizes = Vec::with_capacity(rest.len());
            let mut placed = PartitionMap::new(l2.geometry());
            let mut explicit = 0usize;
            for assignment in rest {
                let (key, value) = assignment
                    .split_once('=')
                    .ok_or_else(|| bad("assignments are key=sets or key=sets@base"))?;
                let key = parse_partition_key(key).map_err(|e| bad(&e))?;
                let (sets, base) = match value.split_once('@') {
                    None => (value, None),
                    Some((sets, base)) => (
                        sets,
                        Some(
                            base.parse::<u32>()
                                .map_err(|_| bad("placement base must be a number"))?,
                        ),
                    ),
                };
                let sets: u32 = sets
                    .parse()
                    .map_err(|_| bad("assignment set count must be a number"))?;
                match base {
                    Some(base) => {
                        explicit += 1;
                        placed
                            .assign(key, base, sets)
                            .map_err(|e| bad(&e.to_string()))?;
                    }
                    None => sizes.push((key, sets)),
                }
            }
            let map = match (explicit, sizes.is_empty()) {
                (0, _) => {
                    PartitionMap::pack(l2.geometry(), &sizes).map_err(|e| bad(&e.to_string()))?
                }
                (_, true) => placed,
                _ => return Err(bad("cannot mix key=sets and key=sets@base in one step")),
            };
            OrganizationSpec::SetPartitioned(map)
        };
        steps.push((at_cycle, organization));
    }
    PartitionSchedule::new(steps).map_err(|e| format!("{path}: {e}"))
}

/// Writes a schedule in the text format [`parse_schedule_file`] reads
/// (set-partitioned maps are emitted in key order, which is also their
/// packed layout order, so the file round-trips exactly).
fn write_schedule_file(path: &str, schedule: &PartitionSchedule) -> Result<(), String> {
    let mut out = String::from(
        "# compmem partition schedule: AT_CYCLE key=sets@base ... | AT_CYCLE shared\n",
    );
    for step in schedule.steps() {
        match &step.organization {
            OrganizationSpec::Shared => {
                out.push_str(&format!("{} shared\n", step.at_cycle));
            }
            OrganizationSpec::SetPartitioned(map) => {
                out.push_str(&format!("{}", step.at_cycle));
                for (key, partition) in map.iter() {
                    out.push_str(&format!(
                        " {}={}@{}",
                        key_token(*key),
                        partition.sets,
                        partition.base_set
                    ));
                }
                out.push('\n');
            }
            other => {
                return Err(format!(
                    "schedule files cannot express `{}` steps",
                    other.label()
                ))
            }
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Prints one line per step: step 0 as a summary, every switch as the
/// diff against its predecessor (only re-sized/moved partitions).
fn print_schedule_steps(schedule: &PartitionSchedule, out: &mut dyn Write) -> Result<(), String> {
    let mut previous: Option<&PartitionMap> = None;
    for (i, step) in schedule.steps().iter().enumerate() {
        outw!(
            out,
            "  step {i} @ cycle {:>10}: {}",
            step.at_cycle,
            step.organization.label()
        );
        if let OrganizationSpec::SetPartitioned(map) = &step.organization {
            match previous {
                None => outw!(
                    out,
                    " — {} partitions over {} sets",
                    map.len(),
                    map.assigned_sets()
                ),
                Some(prev) => {
                    let changed: Vec<String> = map
                        .iter()
                        .filter_map(|(key, p)| {
                            let old = prev.partition_for(*key);
                            (old != Some(*p)).then(|| match old {
                                Some(o) if o.sets != p.sets => {
                                    format!("{key} {}->{} sets", o.sets, p.sets)
                                }
                                Some(_) => format!("{key} moved"),
                                None => format!("{key} +{} sets", p.sets),
                            })
                        })
                        .collect();
                    if changed.is_empty() {
                        outw!(out, " — unchanged");
                    } else {
                        outw!(out, " — {}", changed.join(", "));
                    }
                }
            }
            previous = Some(map);
        }
        outln!(out);
    }
    Ok(())
}

/// The floor-constrained replay behind `replay --qos`: profile the trace
/// (reusing its curve sidecar when present), size the partitions under
/// per-key QoS floors ([`SolverContext::allocate`]), replay through the
/// resulting set-partitioned L2 and print a measured-vs-predicted-vs-
/// floor verdict per guaranteed key. An unsatisfiable floor is the
/// solver's typed `QosInfeasible` error, surfaced as a nonzero exit.
fn replay_qos(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let platform = PlatformConfig::default();
    let (trace, trace_path) = load_trace_with_path(flags, preloaded, Some(&platform))?;
    let (l2, resolution, lattice) = profiling_shape(flags)?;
    let kind = solver_kind(flags)?;
    let floors = parse_qos_floors(get(flags, "qos").unwrap_or_default(), trace.table())?;

    let window = WindowConfig::whole_run();
    let sidecar = save_curves_path(flags, &trace_path, window)?;
    let windowed = profile_with_policy(
        &platform,
        &trace,
        resolution,
        window,
        sidecar.as_deref(),
        1,
        out,
    )?;
    let solver = SolverContext {
        table: trace.table(),
        lattice: &lattice,
        geometry: l2.geometry(),
        optimizer: kind,
    };
    let profiles = solver
        .profiles(&windowed.total)
        .map_err(|e| e.to_string())?;
    let allocation = solver
        .allocate(profiles.clone(), &floors)
        .map_err(|e| e.to_string())?;
    let map = solver.pack(&allocation, None).map_err(|e| e.to_string())?;

    let spec = ScenarioSpec::replay(l2, OrganizationSpec::SetPartitioned(map), trace.clone());
    let outcome = run_replay(&platform, &spec).map_err(|e| e.to_string())?;

    outln!(
        out,
        "replayed {} accesses under a {kind} allocation honouring {} QoS floor(s)",
        trace.accesses(),
        floors.len()
    );
    outcome_header(out)?;
    print_outcome_row("qos-partitioned", &outcome, out)?;
    outln!(
        out,
        "per-floor verdicts (measured on the partitioned replay):"
    );
    outln!(
        out,
        "  {:<16} {:>6} {:>10} {:>10} {:>8}  verdict",
        "key",
        "units",
        "predicted",
        "measured",
        "floor"
    );
    for floor in &floors {
        let units = allocation.units_of(floor.key);
        let predicted = profiles
            .profile(floor.key)
            .map_or(0.0, |p| p.miss_rate_at(units));
        let stats = outcome.by_key.get(&floor.key).copied().unwrap_or_default();
        let measured = if stats.accesses == 0 {
            0.0
        } else {
            stats.misses as f64 / stats.accesses as f64
        };
        outln!(
            out,
            "  {:<16} {:>6} {:>9.2}% {:>9.2}% {:>7.2}%  {}",
            floor.key.to_string(),
            units,
            predicted * 100.0,
            measured * 100.0,
            floor.max_miss_rate * 100.0,
            if measured <= floor.max_miss_rate {
                "ok"
            } else {
                "VIOLATED"
            }
        );
    }
    Ok(())
}

/// Parses `--qos`: either one bare rate (`0.05`) applied to every task
/// in the trace's region table, or comma-separated `key=rate` entries
/// (`task0=0.05,buffer1=0.2`) over any partition key.
fn parse_qos_floors(spec: &str, table: &RegionTable) -> Result<Vec<QosFloor>, String> {
    let check = |rate: f64, context: &str| -> Result<f64, String> {
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!("{context}: a miss-rate floor lives in 0..=1"))
        }
    };
    if let Ok(rate) = spec.parse::<f64>() {
        let rate = check(rate, "--qos RATE")?;
        let floors: Vec<QosFloor> = PartitionKey::distinct_keys(table)
            .into_iter()
            .filter(|key| matches!(key, PartitionKey::Task(_)))
            .map(|key| QosFloor {
                key,
                max_miss_rate: rate,
            })
            .collect();
        if floors.is_empty() {
            return Err("--qos RATE needs at least one task in the trace".to_string());
        }
        return Ok(floors);
    }
    let mut floors = Vec::new();
    for entry in spec.split(',') {
        let (key, rate) = entry.split_once('=').ok_or_else(|| {
            format!("--qos entry `{entry}` is not key=rate (or one bare rate for all tasks)")
        })?;
        let key = parse_partition_key(key.trim())?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|_| format!("--qos entry `{entry}`: rate must be a number"))?;
        floors.push(QosFloor {
            key,
            max_miss_rate: check(rate, &format!("--qos entry `{entry}`"))?,
        });
    }
    Ok(floors)
}

/// The online control loop behind `replay --controller`: replay the
/// trace with a self-tuning policy re-solving on each closed profiling
/// window, or (`--controller compete`) race greedy, hysteresis and the
/// offline oracle on the same traffic and print the regret table. Every
/// mode profiles once and runs through `compete`.
fn replay_controller(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    use compmem::controller::{compete, ControllerPolicy, Greedy, Hysteresis, Oracle};

    let name = get(flags, "controller").unwrap_or_default();
    let platform = PlatformConfig::default();
    let trace = load_trace(flags, preloaded, &platform)?;
    let (l2, resolution, lattice) = profiling_shape(flags)?;
    let window_cycles: u64 = get(flags, "window-cycles")
        .ok_or("replay --controller needs --window-cycles N (the control clock)")?
        .parse()
        .map_err(|_| "--window-cycles needs a number".to_string())?;
    let threshold: f64 = get(flags, "phases")
        .unwrap_or("0.1")
        .parse()
        .map_err(|_| "--phases needs a curve-delta threshold".to_string())?;
    let margin: f64 = get(flags, "margin")
        .unwrap_or("1.0")
        .parse()
        .map_err(|_| "--margin needs a number of misses per flushed line".to_string())?;
    let mut config = compmem::controller::ControllerConfig::cycles(window_cycles, resolution)
        .map_err(|e| e.to_string())?;
    config.optimizer = solver_kind(flags)?;
    if !matches!(name, "greedy" | "hysteresis" | "oracle" | "compete") {
        return Err(format!(
            "unknown controller `{name}` (use greedy, hysteresis, oracle or compete)"
        ));
    }

    let curves = profile_trace_windowed(&platform, &trace, config.resolution, config.window)
        .map_err(|e| e.to_string())?;
    let mut greedy = Greedy;
    let mut hysteresis = Hysteresis::new(threshold, margin);
    let mut oracle = matches!(name, "oracle" | "compete")
        .then(|| Oracle::plan(&platform, l2, &lattice, &trace, &curves, threshold, &config))
        .transpose()
        .map_err(|e| e.to_string())?;
    let mut policies: Vec<&mut dyn ControllerPolicy> = match name {
        "greedy" => vec![&mut greedy],
        "hysteresis" => vec![&mut hysteresis],
        "oracle" => vec![],
        _ => vec![&mut greedy, &mut hysteresis],
    };
    policies.extend(oracle.as_mut().map(|o| o as &mut dyn ControllerPolicy));
    let (outcomes, report) = compete(
        &platform,
        l2,
        &lattice,
        &trace,
        &curves,
        &mut policies,
        &config,
    )
    .map_err(|e| e.to_string())?;

    if name == "compete" {
        outln!(
            out,
            "controller competition on {} accesses: windows of {window_cycles} cycles, \
             phase threshold {threshold}, switch margin {margin}",
            trace.accesses()
        );
        outcome_header(out)?;
        for outcome in &outcomes {
            print_outcome_row(&outcome.policy, &outcome.outcome, out)?;
        }
        outln!(
            out,
            "regret vs `{}` (cost {}):",
            report.baseline,
            report.oracle_cost
        );
        outw!(out, "{}", report.table());
        return Ok(());
    }

    let outcome = &outcomes[0];
    outln!(
        out,
        "controlled replay of {} accesses: policy `{}`, {} windows of {window_cycles} \
         cycles observed, {} switches fired",
        trace.accesses(),
        outcome.policy,
        outcome.ticks,
        outcome.switches()
    );
    outcome_header(out)?;
    print_outcome_row(&outcome.policy, &outcome.outcome, out)?;
    print_repartition_events(&outcome.outcome.report.repartitions, out)?;
    outln!(
        out,
        "control cost {} = {} L2 misses + {} flushed lines written back",
        outcome.cost(),
        outcome.outcome.report.l2.misses,
        outcome.total_flush().written_back
    );
    Ok(())
}

/// The [`ReplayParallelism`] of a single replay invocation. `--lanes`
/// on `replay` is **required**: asking for lanes on a scenario that
/// cannot split is a hard error naming the set group that blocks it,
/// never a silent serial run.
fn replay_parallelism(flags: &[(String, String)]) -> Result<ReplayParallelism, String> {
    let lanes = lanes_flag(flags)?;
    Ok(if lanes > 1 {
        ReplayParallelism::required_lanes(lanes)
    } else {
        ReplayParallelism::Serial
    })
}

/// Narrates how a laned replay split (printed after the outcome row).
fn print_lane_decision(outcome: &RunOutcome, out: &mut dyn Write) -> Result<(), String> {
    if let Some(decision) = outcome.lane_decision {
        outln!(
            out,
            "lane split: {} set shards on up to {} workers (smallest set group {} sets)",
            decision.shards,
            decision.requested,
            decision.smallest_group
        );
    }
    Ok(())
}

fn replay_static(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let platform = PlatformConfig::default();
    let trace = load_trace(flags, preloaded, &platform)?;
    let l2 = l2_config(flags)?;
    let org_name = get(flags, "org").unwrap_or("shared");
    let org = organization(org_name, l2, trace.table())?;
    let parallelism = replay_parallelism(flags)?;
    let spec = ScenarioSpec::replay(l2, org, trace.clone()).with_parallelism(parallelism);
    let outcome = run_replay(&platform, &spec).map_err(|e| e.to_string())?;
    outln!(
        out,
        "replayed {} accesses on {} processors under `{}`",
        trace.accesses(),
        trace.processors(),
        org_name
    );
    outcome_header(out)?;
    print_outcome_row(org_name, &outcome, out)?;
    print_lane_decision(&outcome, out)?;
    Ok(())
}

/// The validation driver behind `replay --schedule phases`: derive a
/// per-phase schedule from a windowed profile of the trace, then replay
/// static-best and phase-scheduled on the same traffic.
fn replay_phase_schedule(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let platform = PlatformConfig::default();
    let (trace, trace_path) = load_trace_with_path(flags, preloaded, Some(&platform))?;
    let (l2, resolution, lattice) = profiling_shape(flags)?;
    let geometry = l2.geometry();
    let kind = solver_kind(flags)?;
    let windows: u64 = get(flags, "windows")
        .unwrap_or("400")
        .parse()
        .map_err(|_| "--windows needs a number".to_string())?;
    let window = WindowConfig::accesses(windows).map_err(|e| e.to_string())?;
    let threshold: f64 = get(flags, "phases")
        .unwrap_or("0.1")
        .parse()
        .map_err(|_| "--phases needs a curve-delta threshold".to_string())?;
    let sidecar = save_curves_path(flags, &trace_path, window)?;

    let windowed = profile_with_policy(
        &platform,
        &trace,
        resolution,
        window,
        sidecar.as_deref(),
        1,
        out,
    )?;
    let plan = phase_allocations_for_table(
        &windowed,
        threshold,
        trace.table(),
        &lattice,
        geometry,
        kind,
    )
    .map_err(|e| e.to_string())?;
    outln!(
        out,
        "derived {} phase(s) from {} windows of {} L2-bound accesses (curve-delta {threshold})",
        plan.phases.len(),
        windowed.windows.len(),
        windows
    );
    let validation =
        validate_phase_plan(&platform, l2, &lattice, &plan, &trace).map_err(|e| e.to_string())?;

    if let Some(path) = get(flags, "save-schedule") {
        write_schedule_file(path, &validation.schedule)?;
        outln!(out, "wrote schedule file {path}");
    }

    let spec = ScenarioSpec::scheduled_replay(l2, validation.schedule.clone(), trace.clone());
    outln!(out, "scenario: {spec}");
    outcome_header(out)?;
    print_outcome_row("static whole-run", &validation.static_outcome, out)?;
    print_outcome_row("phase-scheduled", &validation.scheduled_outcome, out)?;
    print_repartition_report(&validation, out)?;
    Ok(())
}

fn print_repartition_report(
    validation: &compmem::experiment::ScheduleValidation,
    out: &mut dyn Write,
) -> Result<(), String> {
    print_repartition_events(&validation.scheduled_outcome.report.repartitions, out)?;
    outln!(
        out,
        "{:<10} {:>22} {:>10} {:>10} {:>7}",
        "phase",
        "cycles",
        "predicted",
        "measured",
        "delta"
    );
    for comparison in &validation.phases {
        outln!(
            out,
            "{:<10} {:>22} {:>10} {:>10} {:>+7}",
            format!("phase {}", comparison.phase),
            format!("{}..{}", comparison.start_cycle, comparison.end_cycle),
            comparison.predicted_misses,
            comparison.measured_misses,
            comparison.delta()
        );
    }
    outln!(
        out,
        "scheduled vs static: {:+} L2 misses ({} across all switches)",
        -validation.measured_improvement(),
        validation.total_flush()
    );
    Ok(())
}

/// Replays the trace under a schedule file (`replay --schedule PATH`).
fn replay_schedule_file(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let path = get(flags, "schedule").unwrap_or_default();
    let platform = PlatformConfig::default();
    let trace = load_trace(flags, preloaded, &platform)?;
    let l2 = l2_config(flags)?;
    let schedule = parse_schedule_file(path, l2)?;
    schedule
        .validate_for(l2.geometry(), trace.table())
        .map_err(|e| format!("{path}: {e}"))?;
    let parallelism = replay_parallelism(flags)?;
    let spec =
        ScenarioSpec::scheduled_replay(l2, schedule, trace.clone()).with_parallelism(parallelism);
    outln!(out, "scenario: {spec}");
    let outcome = run_replay(&platform, &spec).map_err(|e| e.to_string())?;
    outln!(
        out,
        "replayed {} accesses on {} processors under the schedule",
        trace.accesses(),
        trace.processors(),
    );
    outcome_header(out)?;
    print_outcome_row("scheduled", &outcome, out)?;
    print_lane_decision(&outcome, out)?;
    print_repartition_events(&outcome.report.repartitions, out)
}

/// Lists the repartition events a run fired, one line per switch with
/// its flush.
fn print_repartition_events(
    records: &[RepartitionRecord],
    out: &mut dyn Write,
) -> Result<(), String> {
    outln!(out, "repartition events ({} fired):", records.len());
    for record in records {
        outln!(
            out,
            "  step {} @ cycle {:>10}: {}",
            record.step,
            record.at_cycle,
            record.flush
        );
    }
    Ok(())
}

fn sweep(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let ways = ways_flag(flags)?;
    let sizes: Vec<(u64, CacheConfig)> = get(flags, "l2-kb")
        .unwrap_or("64")
        .split(',')
        .map(|s| {
            let kb = s.parse().map_err(|_| format!("bad L2 size `{s}`"))?;
            Ok((kb, l2_of_size(kb, ways)?))
        })
        .collect::<Result<_, String>>()?;
    let platform = PlatformConfig::default();
    let trace = load_trace(flags, preloaded, &platform)?;
    let jobs = jobs_flag(flags)?;
    let lanes = lanes_flag(flags)?;
    // Lanes on a sweep are opportunistic: rows that cannot split (a
    // one-set group) replay serially instead of failing, so the grid
    // always fills. The cache-side counters are identical either way.
    let parallelism = if lanes > 1 {
        ReplayParallelism::lanes(lanes)
    } else {
        ReplayParallelism::Serial
    };

    let lane_note = if lanes > 1 {
        format!(", up to {lanes} lanes/row")
    } else {
        String::new()
    };
    outln!(
        out,
        "sweeping {} organisations x {} L2 sizes over {} recorded accesses ({jobs} jobs{lane_note})",
        3,
        sizes.len(),
        trace.accesses()
    );
    // The whole (size x organisation) grid is one batch on the bounded
    // pool: at most `jobs` worker threads regardless of how many sizes
    // are swept, each free worker taking the next row, so slow rows (big
    // partitioned replays) never leave the others idle. Rows whose spec
    // cannot be built (e.g. more entities than ways) are reported in
    // place, and a panicking row surfaces as its own error instead of
    // aborting the sweep.
    let mut grid: Vec<(u64, &str, Result<ScenarioSpec, String>)> = Vec::new();
    for &(kb, l2) in &sizes {
        for name in ["shared", "set-partitioned", "way-partitioned"] {
            let spec = organization(name, l2, trace.table()).map(|org| {
                ScenarioSpec::replay(l2, org, trace.clone()).with_parallelism(parallelism)
            });
            grid.push((kb, name, spec));
        }
    }
    let outcomes = compmem::executor::run_batch(&grid, jobs, |_, (_, _, spec)| match spec {
        Ok(spec) => run_replay(&platform, spec),
        Err(message) => Err(CoreError::Infeasible {
            reason: message.clone(),
        }),
    });
    for ((kb, name, spec), outcome) in grid.iter().zip(&outcomes) {
        if *name == "shared" {
            outln!(out, "\nL2 = {kb} KB, {ways}-way:");
            outcome_header(out)?;
        }
        match (spec, outcome) {
            (Err(e), _) => outln!(out, "{name:<24} (skipped: {e})"),
            (Ok(_), Ok(outcome)) => {
                print_outcome_row(name, outcome, out)?;
                print_lane_decision(outcome, out)?;
            }
            (Ok(_), Err(e)) => outln!(out, "{name:<24} (failed: {e})"),
        }
    }
    Ok(())
}

fn profile(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let platform = PlatformConfig::default();
    let window = window_config(flags);
    let filter = window
        .as_ref()
        .is_ok_and(|&window| profiles_whatever_the_sidecar(flags, window))
        .then_some(&platform);
    let (trace, trace_path) = load_trace_with_path(flags, preloaded, filter)?;
    let (l2, resolution, lattice) = profiling_shape(flags)?;
    let geometry = l2.geometry();
    let kind = solver_kind(flags)?;
    let window = window?;
    let sidecar = save_curves_path(flags, &trace_path, window)?;
    // Validate before the (potentially expensive) profiling pass.
    let phase_threshold: Option<f64> = get(flags, "phases")
        .map(|t| {
            t.parse()
                .map_err(|_| "--phases needs a curve-delta threshold".to_string())
        })
        .transpose()?;

    let lanes = lanes_flag(flags)?;
    let windowed = profile_with_policy(
        &platform,
        &trace,
        resolution,
        window,
        sidecar.as_deref(),
        lanes,
        out,
    )?;
    let curves = &windowed.total;
    let solver = SolverContext {
        table: trace.table(),
        lattice: &lattice,
        geometry,
        optimizer: kind,
    };
    let profiles = solver.profiles(curves).map_err(|e| e.to_string())?;

    outln!(
        out,
        "profiled {} recorded accesses ({} L2-bound after the L1 filter) in one pass",
        trace.accesses(),
        curves.accesses()
    );
    outln!(
        out,
        "misses per entity by exclusive partition size ({} sets = {} B per unit):",
        lattice.sets_per_unit,
        lattice.unit_bytes(geometry)
    );
    print_profile_table(&lattice, &profiles, out)?;

    let allocation = solver.allocate(profiles, &[]).map_err(|e| e.to_string())?;
    outln!(
        out,
        "\n{kind} allocation over {} units ({} used, {} predicted misses):",
        lattice.total_units,
        allocation.total_units,
        allocation.predicted_misses
    );
    print_allocation_rows(&lattice, &allocation, out)?;

    if windowed.windows.len() > 1 {
        outln!(
            out,
            "\n{} windows of {} {}:",
            windowed.windows.len(),
            windowed.config.length,
            match windowed.config.kind {
                compmem_cache::WindowKind::Accesses => "L2-bound accesses",
                compmem_cache::WindowKind::Cycles => "cycles",
                compmem_cache::WindowKind::WholeRun => "whole-run",
            }
        );
        for w in &windowed.windows {
            outln!(
                out,
                "  window {:>3}  cycles {:>10}..{:<10}  {:>8} accesses  missrate {:>6.2}%",
                w.index,
                w.start_cycle,
                w.end_cycle,
                w.curves.accesses(),
                100.0
                    * w.curves
                        .aggregate
                        .miss_rate(geometry.sets(), geometry.ways())
                        .unwrap_or(0.0),
            );
        }
    }

    if let Some(threshold) = phase_threshold {
        phase_report(&windowed, threshold, &trace, &lattice, geometry, kind, out)?;
    }
    Ok(())
}

fn print_profile_table(
    lattice: &CacheSizeLattice,
    profiles: &compmem::MissProfiles,
    out: &mut dyn Write,
) -> Result<(), String> {
    outw!(out, "{:<16} {:>10}", "entity", "accesses");
    for &units in &lattice.candidate_units {
        outw!(out, " {:>9}", format!("{units}u"));
    }
    outln!(out);
    for (key, profile) in &profiles.profiles {
        outw!(out, "{:<16} {:>10}", key.to_string(), profile.accesses);
        for &units in &lattice.candidate_units {
            outw!(out, " {:>9}", profile.misses_at(units));
        }
        outln!(out);
    }
    Ok(())
}

fn print_allocation_rows(
    lattice: &CacheSizeLattice,
    allocation: &compmem::Allocation,
    out: &mut dyn Write,
) -> Result<(), String> {
    for (key, &units) in allocation.iter() {
        outln!(
            out,
            "  {:<16} {:>4} units = {:>5} sets",
            key.to_string(),
            units,
            lattice.sets_of(units)
        );
    }
    Ok(())
}

/// Detects phases in a windowed profile and re-runs the solver per phase
/// (through the same [`phase_allocations_for_table`] flow the library's
/// `Experiment::phase_allocations` uses).
#[allow(clippy::too_many_arguments)]
fn phase_report(
    windowed: &WindowedCurves,
    threshold: f64,
    trace: &PreparedTrace,
    lattice: &CacheSizeLattice,
    geometry: compmem_cache::CacheGeometry,
    kind: OptimizerKind,
    out: &mut dyn Write,
) -> Result<(), String> {
    let plan =
        phase_allocations_for_table(windowed, threshold, trace.table(), lattice, geometry, kind)
            .map_err(|e| e.to_string())?;
    outln!(
        out,
        "\n{} phase(s) at curve-delta threshold {threshold} \
         (allocations re-solved per phase):",
        plan.phases.len()
    );
    for (i, phase) in plan.phases.iter().enumerate() {
        outln!(
            out,
            "phase {i}: windows {}..={} (cycles {}..{}), {} accesses, \
             {} predicted misses:",
            phase.first_window,
            phase.last_window,
            phase.start_cycle,
            phase.end_cycle,
            phase.accesses,
            phase.allocation.predicted_misses
        );
        print_allocation_rows(lattice, &phase.allocation, out)?;
    }
    Ok(())
}

fn sweep_shapes(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let platform = PlatformConfig::default();
    let check_replay = match get(flags, "check-replay").unwrap_or("off") {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("--check-replay needs on or off, not `{other}`")),
    };
    let filters =
        check_replay == Ok(true) || profiles_whatever_the_sidecar(flags, WindowConfig::whole_run());
    let (trace, trace_path) = load_trace_with_path(flags, preloaded, filters.then_some(&platform))?;
    let (_, resolution, _) = profiling_shape(flags)?;
    let check_replay = check_replay?;
    let sidecar = save_curves_path(flags, &trace_path, WindowConfig::whole_run())?;
    let jobs = jobs_flag(flags)?;
    let lanes = lanes_flag(flags)?;

    let windowed = profile_with_policy(
        &platform,
        &trace,
        resolution,
        WindowConfig::whole_run(),
        sidecar.as_deref(),
        lanes,
        out,
    )?;
    let sweep = sweep_shapes_from_curves(&windowed.total);

    outln!(
        out,
        "analytic shape sweep from one pass over {} L2-bound accesses \
         ({} shapes, no replay per shape):",
        sweep.accesses,
        sweep.points.len()
    );
    // Each row is a set count; total capacity at a cell is
    // sets x ways x 64 B, i.e. the row's per-way size times the column's
    // way count.
    let ways = sweep.way_counts();
    outw!(out, "{:<10} {:>10}", "L2 sets", "way size");
    for w in &ways {
        outw!(out, " {:>12}", format!("{w}-way misses"));
    }
    outln!(out);
    for sets in sweep.set_counts() {
        let way_bytes = u64::from(sets) * 64;
        let way_size = if way_bytes >= 1024 {
            format!("{} KB", way_bytes / 1024)
        } else {
            format!("{way_bytes} B")
        };
        outw!(out, "{sets:<10} {way_size:>10}");
        for &w in &ways {
            let point = sweep.point(sets, w).expect("sweep covers the grid");
            outw!(out, " {:>12}", point.misses);
        }
        outln!(out);
    }

    if check_replay {
        verify_sweep_against_replay(&platform, &trace, &sweep, jobs)?;
        outln!(
            out,
            "replay cross-check: all {} shapes match the analytic sweep exactly",
            sweep.points.len()
        );
    }
    Ok(())
}

/// Replays the trace at every shape of the sweep and verifies the
/// analytic miss counts point for point.
fn verify_sweep_against_replay(
    platform: &PlatformConfig,
    trace: &Arc<PreparedTrace>,
    sweep: &compmem::experiment::ShapeSweep,
    jobs: usize,
) -> Result<(), String> {
    // Every shape replays the same immutable trace, so the cross-check
    // fans out on the bounded pool like the main sweep does.
    let outcomes = compmem::executor::run_batch(&sweep.points, jobs, |_, point| {
        let l2 = CacheConfig::new(point.sets, point.ways).map_err(CoreError::from)?;
        let spec = ScenarioSpec::replay(l2, OrganizationSpec::Shared, Arc::clone(trace));
        run_replay(platform, &spec)
    });
    for (point, outcome) in sweep.points.iter().zip(outcomes) {
        let outcome = outcome.map_err(|e| e.to_string())?;
        if outcome.report.l2.misses != point.misses {
            return Err(format!(
                "analytic sweep diverged from replay at {} sets x {} ways: \
                 analytic {} misses, replay {}",
                point.sets, point.ways, point.misses, outcome.report.l2.misses
            ));
        }
    }
    Ok(())
}

fn info(
    flags: &[(String, String)],
    preloaded: Option<&PreloadedTrace>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let (trace, trace_path) = load_trace_with_path(flags, preloaded, None)?;
    let summary = trace.summary();
    outln!(
        out,
        "trace IR version {} ({} processors), content hash {:016x}",
        trace.trace().version(),
        summary.processors,
        trace.trace().content_hash()
    );
    outln!(
        out,
        "{} accesses in {} runs; {} bytes ({:.2} bytes/access)",
        summary.accesses,
        summary.runs,
        summary.encoded_bytes,
        summary.bytes_per_access()
    );
    // The embedded region table is the identity the codec validates every
    // DEF_REGION record against — print it in full (index, name, kind,
    // address range, size) so corrupt-trace errors can be acted on.
    outln!(
        out,
        "embedded region table ({} regions):",
        trace.table().len()
    );
    for region in trace.table().iter() {
        outln!(out, "  [{}] {region}", region.id.index());
    }
    // Workload-zoo traces carry their full generator spec in the region
    // names; parse and print it so a generated file is self-describing.
    let generated = provenance(trace.table());
    if !generated.is_empty() {
        outln!(
            out,
            "generator provenance (workload zoo, {} task(s)):",
            generated.len()
        );
        for p in &generated {
            outln!(out, "  {p}");
        }
    }
    let l2 = l2_config(flags)?;
    if let Some(path) = get(flags, "schedule") {
        let schedule = parse_schedule_file(path, l2)?;
        outln!(out, "schedule {path}: {schedule}");
        print_schedule_steps(&schedule, out)?;
        match schedule.validate_for(l2.geometry(), trace.table()) {
            Ok(()) => outln!(out, "  validates against this trace's region table: ok"),
            Err(e) => outln!(out, "  DOES NOT validate against this trace: {e}"),
        }
    }
    let sidecar = sidecar_path(&trace_path);
    match EncodedCurves::read_from(&sidecar) {
        Ok(curves) => {
            let header = curves.header();
            let matches = header.trace_hash == trace.trace().content_hash();
            outln!(
                out,
                "curve sidecar {}: {} window(s), sets {}..={}, up to {} ways — {}",
                sidecar.display(),
                curves.windows().len(),
                header.min_sets,
                header.max_sets,
                header.ways_cap,
                if matches {
                    "matches this trace"
                } else {
                    "STALE (recorded over different trace bytes)"
                }
            );
        }
        Err(compmem_trace::CodecError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            outln!(out, "curve sidecar {}: not present", sidecar.display());
        }
        Err(e) => outln!(out, "curve sidecar {}: unusable ({e})", sidecar.display()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch_error(command: &str) -> String {
        let words: Vec<String> = command.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let err = dispatch(&words[0], &words[1..], &mut out).unwrap_err();
        assert!(out.is_empty(), "{command}");
        err
    }

    /// Refused before the trace is read: a flag no mode of the verb reads
    /// (a typo of one it does read included), an overflowing `--l2-kb`
    /// (by `sweep` before it prints a row) and an unknown verb.
    #[test]
    fn unknown_flags_and_overflowing_sizes_are_refused_by_name() {
        for (verb, flag) in [
            ("replay", "bogus"),
            ("profile", "window-cycle"),
            ("info", "lanes"),
        ] {
            let err = dispatch_error(&format!("{verb} --trace t.cmt --{flag} 1"));
            assert!(
                err.starts_with(&format!("`{verb}` does not take --{flag} (")),
                "{err}"
            );
        }
        let huge = "18014398509482048";
        let overflow = format!("--l2-kb {huge} is too large");
        let flags = parse_flags(&["--l2-kb".to_string(), huge.to_string()]).unwrap();
        assert!(l2_config(&flags).unwrap_err().starts_with(&overflow));
        let err = dispatch_error(&format!("sweep --trace t.cmt --l2-kb 64,{huge}"));
        assert!(err.starts_with(&overflow), "{err}");
        assert_eq!(dispatch_error("bogus"), "unknown subcommand `bogus`");
    }

    /// A flag that only another mode of the verb reads is refused by the
    /// selected mode, by name; that is also what keeps `--qos`,
    /// `--controller` and `--schedule` apart and `--lanes` off the modes
    /// that replay more than once or under a controller.
    #[test]
    fn each_mode_refuses_the_flags_only_another_mode_reads() {
        for (command, mode, flag) in [
            (
                "replay --trace t.cmt --schedule phases --window-cycles 1000",
                "replay --schedule phases",
                "window-cycles",
            ),
            (
                "replay --trace t.cmt --qos 1.0 --windows 7",
                "replay --qos",
                "windows",
            ),
            (
                "replay --trace t.cmt --qos 1.0 --margin 3",
                "replay --qos",
                "margin",
            ),
            (
                "replay --trace t.cmt --qos 1.0 --controller greedy",
                "replay --qos",
                "controller",
            ),
            (
                "replay --trace t.cmt --controller greedy --schedule phases",
                "replay --controller",
                "schedule",
            ),
            (
                "replay --trace t.cmt --qos 1.0 --lanes 2",
                "replay --qos",
                "lanes",
            ),
            (
                "replay --trace t.cmt --controller greedy --lanes 2",
                "replay --controller",
                "lanes",
            ),
            (
                "replay --trace t.cmt --schedule phases --lanes 2",
                "replay --schedule phases",
                "lanes",
            ),
            (
                "replay --trace t.cmt --schedule s.sched --windows 4",
                "replay --schedule FILE",
                "windows",
            ),
            (
                "replay --trace t.cmt --org shared --phases 0.1",
                "replay",
                "phases",
            ),
            (
                "gen --kind zipf --footprint-kb 9 --out t.cmt",
                "gen --kind zipf",
                "footprint-kb",
            ),
            (
                "gen --kind scan --tasks scan:8 --out t.cmt",
                "gen --kind scan",
                "tasks",
            ),
            (
                "gen --kind mix --ws-kb 8 --out t.cmt",
                "gen --kind mix",
                "ws-kb",
            ),
        ] {
            let err = dispatch_error(command);
            assert!(
                err.starts_with(&format!("`{mode}` does not take --{flag} (")),
                "{command}: {err}"
            );
        }
        assert!(
            dispatch_error("gen --out t.cmt").starts_with("`gen` needs one of: gen --kind zipf")
        );
        assert!(dispatch_error("gen --kind zip --out t.cmt").starts_with("`gen` needs one of:"));
        // The schedule-file and static modes take --lanes.
        for command in [
            "replay --trace t.cmt --schedule s.sched --lanes 2",
            "replay --trace t.cmt --org shared --lanes 2",
        ] {
            let words: Vec<String> = command.split_whitespace().map(String::from).collect();
            assert!(verb_handler(&words[0], &parse_flags(&words[1..]).unwrap()).is_ok());
        }
    }

    /// `--kind` flags and `--tasks` entries build a family through one
    /// function with one set of defaults, and every KB size and access
    /// multiplier that overflows is an error naming its flag or entry.
    #[test]
    fn gen_sizes_and_multipliers_that_overflow_are_refused_by_name() {
        let kinds = |tasks: &str| -> Vec<GenKind> {
            parse_task_specs(tasks, 10)
                .unwrap()
                .into_iter()
                .map(|task| task.kind)
                .collect()
        };
        let defaults = kinds("zipf,scan,chase,phased");
        let flagged: Vec<GenKind> = GEN_PARAMS
            .iter()
            .map(|(family, _)| gen_kind(family, &[], |_, _| unreachable!()).unwrap())
            .collect();
        assert_eq!(defaults, flagged);
        assert_eq!(
            defaults[3],
            GenKind::Phased {
                hot_bytes: 8 * 1024,
                scan_bytes: 128 * 1024,
                phase_accesses: 2_048
            }
        );
        assert_eq!(
            kinds("phased:24+128+250000")[0],
            gen_kind(
                "phased",
                &[Some(24), Some(128), Some(250_000)],
                |_, _| unreachable!()
            )
            .unwrap()
        );

        let huge = "18014398509482048";
        let out =
            std::env::temp_dir().join(format!("compmem-gen-overflow-{}.cmt", std::process::id()));
        let out = out.to_str().unwrap();
        for (args, named) in [
            (
                format!("--kind zipf --ws-kb {huge} --accesses 100"),
                format!("--ws-kb {huge}"),
            ),
            (
                format!("--kind chase --ws-kb {huge}"),
                format!("--ws-kb {huge}"),
            ),
            (
                format!("--kind scan --footprint-kb {huge}"),
                format!("--footprint-kb {huge}"),
            ),
            (
                format!("--kind phased --scan-kb {huge}"),
                format!("--scan-kb {huge}"),
            ),
            (
                format!("--kind mix --tasks scan:{huge}"),
                format!("--tasks entry `scan:{huge}`"),
            ),
            (
                format!("--kind mix --tasks chase:24,phased:8+{huge}"),
                format!("--tasks entry `phased:8+{huge}`"),
            ),
            (
                "--kind mix --tasks chase:24x4611686018427387905 --accesses 4".to_string(),
                "--tasks entry `chase:24x4611686018427387905`".to_string(),
            ),
        ] {
            let err = dispatch_error(&format!("gen {args} --out {out}"));
            assert!(
                err.starts_with(&format!("{named} is too large (")),
                "{args}: {err}"
            );
        }
        assert!(!Path::new(out).exists());
    }

    /// Every one-shot invocation of docs/CLI.md and of the repository
    /// benchmark (`benchmark/run.py` and the serve benchmark's requests)
    /// passes the flag check.
    #[test]
    fn every_documented_and_benchmark_invocation_is_accepted() {
        let documented = include_str!("../../../docs/CLI.md")
            .lines()
            .filter_map(|line| line.strip_prefix("$ compmem "))
            .filter(|command| !command.starts_with("serve") && !command.starts_with("client"));
        // The benchmark sends its L2 flags to every verb that reads a
        // trace, whichever mode reads them.
        let benchmark = [
            "profile --trace t.cmt",
            "sweep-shapes --trace t.cmt",
            "info --trace t.cmt",
            "replay --trace t.cmt --schedule phases",
            "replay --trace t.cmt --qos 1.0",
            "replay --trace t.cmt --controller hysteresis --window-cycles 1000000 --phases 0.1",
            "replay --trace t.cmt --org shared",
        ]
        .map(|command| format!("{command} --l2-kb 512 --sets-per-unit 16"));
        let setup = [
            "record --app mpeg2 --scale paper --out t.cmt",
            "gen --kind mix --tasks phased:24+128+250000,zipf:48,scan:128 --accesses 1000000 \
             --seed 7 --out t.cmt",
        ];
        let mut checked = 0;
        for command in documented
            .chain(setup)
            .chain(benchmark.iter().map(String::as_str))
        {
            let words: Vec<String> = command.split_whitespace().map(String::from).collect();
            let flags = parse_flags(&words[1..]).unwrap();
            if let Err(e) = verb_handler(&words[0], &flags) {
                panic!("{command}: {e}");
            }
            checked += 1;
        }
        assert!(checked >= 30, "only {checked} invocations");
    }
}
