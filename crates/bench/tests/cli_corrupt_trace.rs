//! A corrupt trace is refused with one message by every verb that reads
//! it: whichever verb loads the file, and whatever it would do with the
//! trace next (print it, profile it, replay it, sweep it), it exits 1
//! with `error: PATH: corrupt trace: REASON` on stderr — the message
//! `info` gives.

use std::path::Path;
use std::process::{Command, Output};

fn compmem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_compmem"))
        .args(args)
        .output()
        .expect("compmem runs")
}

/// The argument lists of the verbs that load `trace`.
fn verbs(trace: &str) -> Vec<Vec<&str>> {
    vec![
        vec!["info", "--trace", trace],
        vec!["profile", "--trace", trace, "--save-curves", "off"],
        vec!["replay", "--trace", trace, "--qos", "1.0"],
        vec!["replay", "--trace", trace, "--org", "shared"],
        vec![
            "replay",
            "--trace",
            trace,
            "--controller",
            "greedy",
            "--window-cycles",
            "100000",
        ],
        vec!["sweep", "--trace", trace],
        vec!["sweep-shapes", "--trace", trace, "--check-replay", "on"],
        vec![
            "replay",
            "--trace",
            trace,
            "--schedule",
            "phases",
            "--save-curves",
            "off",
        ],
    ]
}

fn refuse_with_one_message(trace: &Path, reason: &str) {
    let path = trace.to_str().unwrap();
    let expected = format!("error: {path}: corrupt trace: {reason}\n");
    for args in verbs(path) {
        let output = compmem(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            expected,
            "{args:?}"
        );
    }
}

#[test]
fn every_verb_refuses_a_corrupt_trace_with_the_message_info_gives() {
    let dir = std::env::temp_dir().join(format!("compmem-cli-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("mpeg2-tiny.cmt");
    let recorded = compmem(&[
        "record",
        "--app",
        "mpeg2",
        "--scale",
        "tiny",
        "--out",
        good.to_str().unwrap(),
    ]);
    assert!(recorded.status.success());
    let bytes = std::fs::read(&good).unwrap();

    // Three bytes short: the last access record runs off the end.
    let truncated = dir.join("truncated.cmt");
    std::fs::write(&truncated, &bytes[..bytes.len() - 3]).unwrap();
    refuse_with_one_message(&truncated, "unexpected end of stream");

    // A trace ends with its END record (0x00); 0x04 is no record's tag.
    assert_eq!(bytes.last(), Some(&0x00));
    let mut unknown = bytes.clone();
    *unknown.last_mut().unwrap() = 0x04;
    let unknown_tag = dir.join("unknown-tag.cmt");
    std::fs::write(&unknown_tag, &unknown).unwrap();
    refuse_with_one_message(&unknown_tag, "unknown record tag");

    // No verb left a sidecar or another file behind.
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["mpeg2-tiny.cmt", "truncated.cmt", "unknown-tag.cmt"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
