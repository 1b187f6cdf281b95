//! Compares a freshly measured `BENCH_*.json` against a committed
//! baseline and fails on benchmark throughput regressions.
//!
//! Usage:
//!
//! ```text
//! bench_check --baseline BENCH_engine.json --fresh target/bench/BENCH_engine.json
//!             [--baseline B2 --fresh F2 ...] [--max-regression 0.25]
//!             [--ratio NUM_ID,DEN_ID ...] [--max-ratio-regression 0.25]
//! ```
//!
//! `--baseline`/`--fresh` flags pair up in order. For every benchmark id
//! present in both files the throughput regression is
//! `1 - baseline_median / fresh_median` (fresh slower than baseline);
//! exceeding `--max-regression` (default 0.25, overridable with the
//! `BENCH_CHECK_MAX_REGRESSION` environment variable) fails the check, as
//! does a baseline id missing from the fresh results. Fresh ids without a
//! baseline are reported but do not fail — commit an updated baseline to
//! adopt them.
//!
//! # Machine-independent ratio gates
//!
//! The absolute gate compares medians measured on *different machines*
//! (the committed baseline's vs the CI runner's), so a slow shared runner
//! can fail it spuriously. `--ratio NUM_ID,DEN_ID` adds a gate on the
//! **ratio** `median(NUM) / median(DEN)` of two benchmarks *recorded in
//! the same run*: machine speed cancels out of the quotient, so the gate
//! only fires when the relationship between the two paths changes — e.g.
//! replay getting slower *relative to* live execution, or the single-pass
//! profiler losing ground against per-size re-simulation. The
//! fresh ratio may shrink below the baseline ratio by at most
//! `--max-ratio-regression` (default 0.25, env
//! `BENCH_CHECK_MAX_RATIO_REGRESSION`); ids are looked up across all
//! loaded files. Growing ratios (the fast path got even faster) never
//! fail.
//!
//! The parser handles exactly the flat JSON array the criterion shim
//! emits (`id` + `median_ns` per record), so the gate needs no JSON
//! dependency. `scripts/bench_check` wraps the re-run + compare loop for
//! CI and passes the standing ratio gates.

use std::process::ExitCode;

/// One `{"id": ..., "median_ns": ...}` record of a shim-format file.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    id: String,
    median_ns: f64,
}

/// Extracts the records of the criterion shim's JSON format.
///
/// Scans for `"id"` and `"median_ns"` fields object by object; the shim
/// writes one object per line, but the parser only assumes every object
/// carries both fields.
fn parse_records(source: &str, path: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for object in source.split('{').skip(1) {
        let object = object.split('}').next().unwrap_or("");
        let id = field_str(object, "id")
            .ok_or_else(|| format!("{path}: benchmark record without an \"id\" field"))?;
        let median = field_num(object, "median_ns")
            .ok_or_else(|| format!("{path}: record `{id}` without a \"median_ns\" field"))?;
        if median <= 0.0 {
            return Err(format!("{path}: record `{id}` has non-positive median"));
        }
        records.push(Record {
            id,
            median_ns: median,
        });
    }
    if records.is_empty() {
        return Err(format!("{path}: no benchmark records found"));
    }
    Ok(records)
}

fn field_str(object: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":");
    let rest = &object[object.find(&key)? + key.len()..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
}

fn field_num(object: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = object[object.find(&key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_records(&source, path)
}

/// Compares one baseline/fresh pair of already-parsed record sets;
/// returns the number of failures.
fn compare(
    baseline_path: &str,
    baseline: &[Record],
    fresh_path: &str,
    fresh: &[Record],
    max_regression: f64,
) -> u32 {
    let mut failures = 0;
    println!("{baseline_path} vs {fresh_path}:");
    println!(
        "  {:<52} {:>12} {:>12} {:>9}  verdict",
        "benchmark", "baseline ns", "fresh ns", "change"
    );
    for base in baseline {
        let Some(now) = fresh.iter().find(|r| r.id == base.id) else {
            println!("  {:<52} missing from fresh results: FAIL", base.id);
            failures += 1;
            continue;
        };
        // Throughput regression: how much of the baseline's throughput
        // (iterations per second) was lost.
        let regression = 1.0 - base.median_ns / now.median_ns;
        let ok = regression <= max_regression;
        println!(
            "  {:<52} {:>12.0} {:>12.0} {:>+8.1}%  {}",
            base.id,
            base.median_ns,
            now.median_ns,
            100.0 * regression,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    }
    for now in fresh {
        if !baseline.iter().any(|r| r.id == now.id) {
            println!("  {:<52} new benchmark (no baseline committed yet)", now.id);
        }
    }
    failures
}

/// A `--ratio NUM_ID,DEN_ID` gate.
#[derive(Debug, Clone, PartialEq)]
struct RatioSpec {
    numerator: String,
    denominator: String,
}

impl RatioSpec {
    fn parse(value: &str) -> Result<Self, String> {
        match value.split_once(',') {
            Some((numerator, denominator)) if !numerator.is_empty() && !denominator.is_empty() => {
                Ok(RatioSpec {
                    numerator: numerator.to_string(),
                    denominator: denominator.to_string(),
                })
            }
            _ => Err(format!("--ratio needs NUM_ID,DEN_ID, not `{value}`")),
        }
    }
}

fn median_of(records: &[Record], id: &str, side: &str) -> Result<f64, String> {
    records
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.median_ns)
        .ok_or_else(|| format!("ratio gate: id `{id}` missing from {side} results"))
}

/// Compares the machine-independent ratio gates; returns the number of
/// failures.
fn compare_ratios(
    baseline: &[Record],
    fresh: &[Record],
    ratios: &[RatioSpec],
    max_ratio_regression: f64,
) -> Result<u32, String> {
    if ratios.is_empty() {
        return Ok(0);
    }
    let mut failures = 0;
    println!(
        "ratio gates (same-run quotients; machine speed cancels, \
         >{:.0}% loss fails):",
        100.0 * max_ratio_regression
    );
    println!(
        "  {:<72} {:>9} {:>9} {:>9}  verdict",
        "numerator / denominator", "baseline", "fresh", "change"
    );
    for spec in ratios {
        let base_ratio = median_of(baseline, &spec.numerator, "baseline")?
            / median_of(baseline, &spec.denominator, "baseline")?;
        let fresh_ratio = median_of(fresh, &spec.numerator, "fresh")?
            / median_of(fresh, &spec.denominator, "fresh")?;
        // How much of the baseline advantage was lost (a shrinking ratio
        // means the denominator's relative edge degraded).
        let regression = 1.0 - fresh_ratio / base_ratio;
        let ok = regression <= max_ratio_regression;
        println!(
            "  {:<72} {:>8.2}x {:>8.2}x {:>+8.1}%  {}",
            format!("{} / {}", spec.numerator, spec.denominator),
            base_ratio,
            fresh_ratio,
            -100.0 * regression,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    }
    Ok(failures)
}

fn run(args: &[String]) -> Result<u32, String> {
    let mut baselines = Vec::new();
    let mut fresh = Vec::new();
    let mut ratios = Vec::new();
    let mut max_regression: f64 = std::env::var("BENCH_CHECK_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let mut max_ratio_regression: f64 = std::env::var("BENCH_CHECK_MAX_RATIO_REGRESSION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--baseline" => baselines.push(value.clone()),
            "--fresh" => fresh.push(value.clone()),
            "--ratio" => ratios.push(RatioSpec::parse(value)?),
            "--max-regression" => {
                max_regression = value
                    .parse()
                    .map_err(|_| "--max-regression needs a number".to_string())?;
            }
            "--max-ratio-regression" => {
                max_ratio_regression = value
                    .parse()
                    .map_err(|_| "--max-ratio-regression needs a number".to_string())?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if baselines.is_empty() || baselines.len() != fresh.len() {
        return Err("need matching --baseline/--fresh pairs".to_string());
    }
    println!(
        "bench_check: failing on >{:.0}% throughput regression",
        100.0 * max_regression
    );
    let mut failures = 0;
    let mut all_baseline = Vec::new();
    let mut all_fresh = Vec::new();
    for (baseline_path, fresh_path) in baselines.iter().zip(&fresh) {
        let baseline = load(baseline_path)?;
        let fresh = load(fresh_path)?;
        failures += compare(baseline_path, &baseline, fresh_path, &fresh, max_regression);
        all_baseline.extend(baseline);
        all_fresh.extend(fresh);
    }
    failures += compare_ratios(&all_baseline, &all_fresh, &ratios, max_ratio_regression)?;
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => {
            println!("bench_check: all benchmarks within tolerance");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("bench_check: {failures} benchmark(s) regressed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench_check: error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "g/a", "samples": 10, "iters_per_sample": 1, "median_ns": 1000.0, "min_ns": 900.0, "max_ns": 1100.0},
  {"id": "g/b", "samples": 10, "iters_per_sample": 2, "median_ns": 500.0, "min_ns": 450.0, "max_ns": 600.0}
]
"#;

    #[test]
    fn parses_the_shim_format() {
        let records = parse_records(SAMPLE, "sample").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "g/a");
        assert_eq!(records[0].median_ns, 1000.0);
        assert_eq!(records[1].median_ns, 500.0);
        assert!(parse_records("[]", "empty").is_err());
        assert!(parse_records("[{\"median_ns\": 1.0}]", "no-id").is_err());
        assert!(parse_records("[{\"id\": \"x\"}]", "no-median").is_err());
    }

    fn record(id: &str, median_ns: f64) -> Record {
        Record {
            id: id.into(),
            median_ns,
        }
    }

    #[test]
    fn ratio_specs_parse() {
        let spec = RatioSpec::parse("g/slow,g/fast").unwrap();
        assert_eq!(spec.numerator, "g/slow");
        assert_eq!(spec.denominator, "g/fast");
        assert!(RatioSpec::parse("no-comma").is_err());
        assert!(RatioSpec::parse(",half").is_err());
        assert!(RatioSpec::parse("half,").is_err());
    }

    #[test]
    fn ratio_gate_is_machine_independent() {
        let spec = RatioSpec::parse("g/slow,g/fast").unwrap();
        // Baseline: slow path is 8x the fast path.
        let baseline = vec![record("g/slow", 8000.0), record("g/fast", 1000.0)];
        // A machine 3x slower overall keeps the ratio: passes.
        let scaled = vec![record("g/slow", 24000.0), record("g/fast", 3000.0)];
        assert_eq!(
            compare_ratios(&baseline, &scaled, std::slice::from_ref(&spec), 0.25).unwrap(),
            0
        );
        // The fast path losing its edge (8x -> 4x = 50% ratio loss): fails.
        let degraded = vec![record("g/slow", 8000.0), record("g/fast", 2000.0)];
        assert_eq!(
            compare_ratios(&baseline, &degraded, std::slice::from_ref(&spec), 0.25).unwrap(),
            1
        );
        // The fast path getting faster (8x -> 16x) never fails.
        let improved = vec![record("g/slow", 8000.0), record("g/fast", 500.0)];
        assert_eq!(
            compare_ratios(&baseline, &improved, std::slice::from_ref(&spec), 0.25).unwrap(),
            0
        );
        // Missing ids are configuration errors, not passes.
        assert!(compare_ratios(&baseline, &[record("g/slow", 1.0)], &[spec], 0.25).is_err());
    }

    #[test]
    fn regression_arithmetic() {
        // Fresh 25% slower in time = 20% throughput regression: passes at
        // the default tolerance; fresh 2x slower = 50% regression: fails.
        let base = Record {
            id: "x".into(),
            median_ns: 1000.0,
        };
        for (fresh_ns, limit, ok) in [
            (1250.0, 0.25, true),
            (1333.0, 0.25, true),
            (2000.0, 0.25, false),
            (900.0, 0.25, true),
        ] {
            let regression = 1.0 - base.median_ns / fresh_ns;
            assert_eq!(regression <= limit, ok, "fresh {fresh_ns}");
        }
    }
}
