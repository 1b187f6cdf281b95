//! End-to-end test of the `compmem` CLI's curve-sidecar persistence: the
//! first `profile` invocation writes `TRACE.curves`; a second invocation
//! with the same configuration loads it back — skipping the L1 filter
//! pass — with byte-identical curves and identical profiling output.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn compmem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_compmem"))
}

fn run(args: &[&str]) -> Output {
    let output = compmem().args(args).output().expect("compmem runs");
    assert!(
        output.status.success(),
        "compmem {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The profiling payload of a `profile` run: everything after the
/// sidecar-persistence narration line.
fn payload(output: &Output) -> String {
    let text = stdout(output);
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("");
    assert!(
        first.contains("curve sidecar") || first.contains("persisted curves"),
        "expected a sidecar narration line, got: {first}"
    );
    lines.collect::<Vec<_>>().join("\n")
}

fn record_tiny_trace(dir: &Path) -> PathBuf {
    let trace = dir.join("mpeg2-tiny.cmt");
    run(&[
        "record",
        "--app",
        "mpeg2",
        "--scale",
        "tiny",
        "--out",
        trace.to_str().unwrap(),
    ]);
    trace
}

#[test]
fn second_profile_invocation_reuses_the_sidecar_byte_identically() {
    let dir = std::env::temp_dir().join("compmem-cli-sidecar-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = record_tiny_trace(&dir);
    let sidecar = dir.join("mpeg2-tiny.curves");
    let _ = std::fs::remove_file(&sidecar);

    let profile_args = [
        "profile",
        "--trace",
        trace.to_str().unwrap(),
        "--l2-kb",
        "32",
        "--sets-per-unit",
        "2",
    ];

    // First run: profiles through the L1 filter and writes the sidecar.
    let first = run(&profile_args);
    assert!(
        stdout(&first).contains("wrote curve sidecar"),
        "first invocation must persist the curves"
    );
    let sidecar_bytes = std::fs::read(&sidecar).expect("sidecar written next to the trace");

    // Second run: loads the sidecar (no L1 filter pass), leaves the file
    // untouched, and reports the identical curves and allocation.
    let second = run(&profile_args);
    assert!(
        stdout(&second).contains("reusing persisted curves"),
        "second invocation must reuse the sidecar:\n{}",
        stdout(&second)
    );
    assert!(stdout(&second).contains("L1 filter pass skipped"));
    assert_eq!(
        std::fs::read(&sidecar).unwrap(),
        sidecar_bytes,
        "reuse must not rewrite the sidecar"
    );
    assert_eq!(
        payload(&second),
        payload(&first),
        "persisted curves must reproduce the measured output exactly"
    );

    // `info` reports the sidecar as matching the trace.
    let info = run(&["info", "--trace", trace.to_str().unwrap()]);
    assert!(stdout(&info).contains("matches this trace"));
    assert!(stdout(&info).contains("trace IR version 3"));
    assert!(!stdout(&info).contains("segment"));
    assert!(stdout(&info).contains("embedded region table"));

    // A corrupted sidecar is re-measured, not trusted and not fatal.
    std::fs::write(&sidecar, b"not a sidecar").unwrap();
    let third = run(&profile_args);
    assert!(
        stdout(&third).contains("re-profiled and rewrote"),
        "corrupt sidecar must be replaced:\n{}",
        stdout(&third)
    );
    assert_eq!(
        std::fs::read(&sidecar).unwrap(),
        sidecar_bytes,
        "re-measuring the same trace must reproduce the same bytes"
    );
    assert_eq!(payload(&third), payload(&first));

    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn a_sidecar_of_another_trace_is_stale_and_re_measured() {
    let dir = std::env::temp_dir().join("compmem-cli-stale-sidecar-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = record_tiny_trace(&dir);
    let sidecar = dir.join("mpeg2-tiny.curves");
    let other = dir.join("other.cmt");
    let other_sidecar = dir.join("other.curves");
    let _ = std::fs::remove_file(&other_sidecar);
    let profile = |trace: &Path| {
        let trace = trace.to_str().unwrap();
        stdout(&run(&[
            "profile",
            "--trace",
            trace,
            "--l2-kb",
            "32",
            "--sets-per-unit",
            "2",
        ]))
    };
    let info = || stdout(&run(&["info", "--trace", trace.to_str().unwrap()]));

    // Curves measured over another trace, at the same configuration, put
    // where the tiny trace's sidecar belongs.
    run(&[
        "gen",
        "--kind",
        "zipf",
        "--accesses",
        "2000",
        "--out",
        other.to_str().unwrap(),
    ]);
    profile(&other);
    std::fs::copy(&other_sidecar, &sidecar).unwrap();

    let stale = info();
    assert!(
        stale.contains("STALE (recorded over different trace bytes)"),
        "{stale}"
    );
    let remeasured = profile(&trace);
    assert!(
        remeasured.contains(
            "was unusable (curve sidecar does not match the trace: trace hash differs); \
             re-profiled and rewrote it"
        ),
        "{remeasured}"
    );
    let fresh = info();
    assert!(fresh.contains("matches this trace"), "{fresh}");

    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_file(&other_sidecar);
    let _ = std::fs::remove_file(&other);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn sweep_shapes_reuses_the_profile_sidecar_and_passes_the_replay_check() {
    let dir = std::env::temp_dir().join("compmem-cli-sweep-shapes-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = record_tiny_trace(&dir);
    let sidecar = dir.join("mpeg2-tiny.curves");
    let _ = std::fs::remove_file(&sidecar);

    // profile and sweep-shapes share the whole-run sidecar: the second
    // command starts from the persisted curves.
    run(&[
        "profile",
        "--trace",
        trace.to_str().unwrap(),
        "--l2-kb",
        "32",
        "--sets-per-unit",
        "2",
    ]);
    let sweep = run(&[
        "sweep-shapes",
        "--trace",
        trace.to_str().unwrap(),
        "--l2-kb",
        "32",
        "--sets-per-unit",
        "2",
        "--check-replay",
        "on",
    ]);
    let text = stdout(&sweep);
    assert!(text.contains("reusing persisted curves"), "{text}");
    assert!(
        text.contains("all 21 shapes match the analytic sweep exactly"),
        "{text}"
    );

    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn windowed_profile_reports_phases() {
    let dir = std::env::temp_dir().join("compmem-cli-phases-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = record_tiny_trace(&dir);

    let windowed_sidecar = dir.join("mpeg2-tiny.w400.curves");
    let _ = std::fs::remove_file(&windowed_sidecar);
    let windowed_args = [
        "profile",
        "--trace",
        trace.to_str().unwrap(),
        "--l2-kb",
        "32",
        "--sets-per-unit",
        "2",
        "--windows",
        "400",
        "--phases",
        "0.1",
    ];
    let output = run(&windowed_args);
    let text = stdout(&output);
    assert!(text.contains("windows of 400 L2-bound accesses"), "{text}");
    assert!(text.contains("phase 0: windows"), "{text}");
    assert!(text.contains("allocations re-solved per phase"), "{text}");
    // The windowed pass persists under its own window-keyed path, so it
    // never fights the whole-run sidecar...
    assert!(windowed_sidecar.exists(), "window-keyed sidecar written");
    assert!(!dir.join("mpeg2-tiny.curves").exists());
    // ...and a second windowed invocation reuses it.
    let again = stdout(&run(&windowed_args));
    assert!(again.contains("reusing persisted curves"), "{again}");

    let _ = std::fs::remove_file(&windowed_sidecar);
    let _ = std::fs::remove_file(&trace);
}
