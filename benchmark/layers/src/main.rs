//! The in-process half of the repository benchmark (`benchmark/run.py`).
//!
//! ```text
//! layerbench trace      --workload W --work DIR --seed N --seconds S --spans FILE
//! layerbench serve-load --addr HOST:PORT --store DIR --hash HEX --seed N --cycles C
//! ```
//!
//! `trace` is the traced per-layer run. It calls each layer's public
//! function in-process on the inputs `run.py` prepared in `--work` and
//! records one span per call: name, start, end, parent span, request id
//! and the counts the call produced. Spans stay in memory while the run
//! measures; they are written to `--spans` as JSON lines when it ends,
//! and every per-layer metric is computed from them.
//!
//! `serve-load` is the client side of the `serve_mixed` workload: two
//! closed-loop connections to a running `compmem serve`, each repeating
//! `--cycles` times one cache hit on the stored paper trace, a `put` of a
//! freshly generated trace and a first-touch `profile` of it. Before
//! measuring it checks the first answer of each verb against
//! `cli::dispatch` run in-process on the same argv at the same sidecar
//! state; afterwards it checks the daemon's counters against the
//! requests it sent.
//!
//! Both print one JSON object as the last line of stdout.

#![forbid(unsafe_code)]

mod metrics;
mod serve;
mod serve_layers;
mod spans;
mod traced;

use std::process::ExitCode;

use compmem_trace::gen::{generate, GenKind, GenSpec, GenTask};
use compmem_trace::DEFAULT_CYCLES_PER_ACCESS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => Flags::parse(&args[1..]).and_then(|f| traced::run(&f)),
        Some("serve-load") => Flags::parse(&args[1..]).and_then(|f| serve::load(&f)),
        _ => Err("usage: layerbench trace|serve-load --flag value ...".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("layerbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("--{name} needs a number"))
    }
}

pub fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Attempted and failed operations. An operation fails once, however
/// many of its checks fail.
#[derive(Default)]
pub struct Tally {
    ops: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, what: &str, problem: Option<String>) {
        self.ops += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(format!("{what}: {problem}"));
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// The tally as JSON members (no braces).
    pub fn json(&self) -> String {
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        format!(
            "\"ops\": {}, \"failed\": {}, \"problems\": [{}]",
            self.ops,
            self.failed,
            problems.join(", ")
        )
    }
}

// --- inputs -------------------------------------------------------------

fn gen_spec(seed: u64, tasks: Vec<(GenKind, u64)>) -> GenSpec {
    GenSpec {
        seed,
        cycles_per_access: DEFAULT_CYCLES_PER_ACCESS,
        tasks: tasks
            .into_iter()
            .map(|(kind, accesses)| GenTask { kind, accesses })
            .collect(),
    }
}

/// `zoo_mix3`: `compmem gen --kind mix --tasks
/// phased:24+128+250000,zipf:48,scan:128 --accesses 1000000`.
pub fn zoo_mix_spec(seed: u64) -> GenSpec {
    let phased = GenKind::Phased {
        hot_bytes: 24 << 10,
        scan_bytes: 128 << 10,
        phase_accesses: 250_000,
    };
    let zipf = GenKind::Zipf {
        working_set_bytes: 48 << 10,
    };
    let scan = GenKind::Scan {
        footprint_bytes: 128 << 10,
    };
    gen_spec(
        seed,
        vec![(phased, 1_000_000), (zipf, 1_000_000), (scan, 1_000_000)],
    )
}

/// One `serve_mixed` upload: `compmem gen --kind mix --tasks
/// chase:24,scan:256x4 --accesses 20000`. The store keeps every upload
/// resident (about 15 MB each at this size), and a run makes a hundred.
pub fn upload_spec(seed: u64) -> GenSpec {
    let chase = GenKind::Chase {
        working_set_bytes: 24 << 10,
    };
    let scan = GenKind::Scan {
        footprint_bytes: 256 << 10,
    };
    gen_spec(seed, vec![(chase, 20_000), (scan, 80_000)])
}

/// The single-task baseline of `replay.mix_over_solo_x`: 3M accesses of
/// `zipf:48` at the workload's seed.
pub fn solo_spec(seed: u64) -> GenSpec {
    let zipf = GenKind::Zipf {
        working_set_bytes: 48 << 10,
    };
    gen_spec(seed, vec![(zipf, 3_000_000)])
}

/// An upload's encoded bytes and content hash.
pub fn upload(seed: u64) -> Result<(Vec<u8>, u64), String> {
    let trace = generate(&upload_spec(seed)).map_err(err)?;
    Ok((trace.bytes().to_vec(), trace.content_hash()))
}

// --- JSON ---------------------------------------------------------------

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
