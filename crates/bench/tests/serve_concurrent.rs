//! Concurrent end-to-end test of the `compmem serve` daemon: several
//! client threads hammer one in-process server with a mix of cache-hit
//! and cache-miss requests, and every single response must be
//! byte-identical to the serial one-shot reference — the output of
//! `compmem_bench::cli::dispatch` on the stored trace at the same
//! sidecar state. Afterwards the store must be consistent: the daemon's
//! counters add up and every sidecar file on disk parses and validates
//! against the trace (atomic writes — no torn files).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use compmem_bench::cli;
use compmem_bench::service::DaemonHandler;
use compmem_platform::{
    CommandHandler, CurveStore, ServeClient, ServeErrorKind, ServeRequest, ServeResponse,
    ServedFrom, Server,
};
use compmem_trace::{trace_content_hash, EncodedCurves};

/// Runs one one-shot CLI command in-process and returns its stdout bytes.
fn one_shot(verb: &str, args: &[&str]) -> Vec<u8> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    cli::dispatch(verb, &args, &mut out)
        .unwrap_or_else(|e| panic!("one-shot {verb} {args:?} failed: {e}"));
    out
}

/// Sends one command request and returns the daemon's output bytes.
fn daemon_command(client: &mut ServeClient, trace: u64, verb: &str, args: &[&str]) -> Vec<u8> {
    let request = ServeRequest::Command {
        trace,
        verb: verb.to_string(),
        args: args.iter().map(|s| s.to_string()).collect(),
    };
    match client.request(&request).expect("request round-trips") {
        ServeResponse::Output { bytes } => bytes,
        other => panic!("daemon rejected {verb} {args:?}: {other:?}"),
    }
}

fn record_tiny_trace(dir: &Path) -> PathBuf {
    let trace = dir.join("mpeg2-tiny.cmt");
    one_shot(
        "record",
        &[
            "--app",
            "mpeg2",
            "--scale",
            "tiny",
            "--out",
            trace.to_str().unwrap(),
        ],
    );
    trace
}

/// The flags every evaluation in this test shares: the tiny-scale L2.
const TINY_L2: [&str; 6] = ["--l2-kb", "32", "--ways", "4", "--sets-per-unit", "2"];

fn with_tiny_l2<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    TINY_L2
        .iter()
        .copied()
        .chain(extra.iter().copied())
        .collect()
}

#[test]
fn concurrent_clients_get_byte_identical_responses_and_a_consistent_store() {
    let dir = std::env::temp_dir().join(format!("compmem-serve-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_file = record_tiny_trace(&dir);
    let trace_bytes = std::fs::read(&trace_file).unwrap();
    let expected_hash = trace_content_hash(&trace_bytes);

    let store_dir = dir.join("store");
    let store = Arc::new(CurveStore::open(&store_dir).unwrap());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), DaemonHandler::new(2)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Upload over the wire; the daemon must store under the content hash.
    let mut client = ServeClient::connect(&addr).unwrap();
    let response = client
        .request(&ServeRequest::PutTrace {
            bytes: trace_bytes.clone(),
        })
        .unwrap();
    assert_eq!(
        response,
        ServeResponse::PutOk {
            hash: expected_hash,
            existed: false
        }
    );
    let stored = store.trace_path(expected_hash);
    let stored_str = stored.to_str().unwrap().to_string();

    // Warm the store through the daemon: both profile shapes run as cache
    // misses on the worker pool and persist their sidecars.
    let warm_whole = daemon_command(&mut client, expected_hash, "profile", &with_tiny_l2(&[]));
    assert!(
        String::from_utf8_lossy(&warm_whole).contains("wrote curve sidecar"),
        "first profile must be a measuring miss"
    );
    daemon_command(
        &mut client,
        expected_hash,
        "profile",
        &with_tiny_l2(&["--windows", "4"]),
    );

    // Serial references at the warm state. The schedule flow reuses the
    // windowed sidecar, so its output is state-independent from here on —
    // asserted by running the reference twice.
    let ref_info = one_shot("info", &["--trace", &stored_str]);
    let ref_profile = one_shot("profile", &{
        let mut a = vec!["--trace", &stored_str];
        a.extend(with_tiny_l2(&[]));
        a
    });
    assert!(
        String::from_utf8_lossy(&ref_profile).contains("reusing persisted curves"),
        "warm-state reference must be analytic"
    );
    let ref_shapes = one_shot("sweep-shapes", &{
        let mut a = vec!["--trace", &stored_str];
        a.extend(with_tiny_l2(&[]));
        a
    });
    let ref_windowed = one_shot("profile", &{
        let mut a = vec!["--trace", &stored_str];
        a.extend(with_tiny_l2(&["--windows", "4"]));
        a
    });
    let ref_schedule = one_shot("replay", &{
        let mut a = vec!["--trace", &stored_str, "--schedule", "phases"];
        a.extend(with_tiny_l2(&["--windows", "4"]));
        a
    });
    let ref_schedule_again = one_shot("replay", &{
        let mut a = vec!["--trace", &stored_str, "--schedule", "phases"];
        a.extend(with_tiny_l2(&["--windows", "4"]));
        a
    });
    assert_eq!(
        ref_schedule, ref_schedule_again,
        "schedule reference must be stable at the warm state"
    );

    // Hammer: four clients, each issuing the full hit mix, one schedule
    // (pool) and one thread-unique windowed profile (a genuine concurrent
    // miss — its sidecar does not exist yet).
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let ref_info = ref_info.clone();
            let ref_profile = ref_profile.clone();
            let ref_shapes = ref_shapes.clone();
            let ref_windowed = ref_windowed.clone();
            let ref_schedule = ref_schedule.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).unwrap();
                let windows = (11 + i).to_string();
                for _ in 0..2 {
                    let info = daemon_command(&mut client, expected_hash, "info", &[]);
                    assert_eq!(info, ref_info, "info response diverged");
                    let profile =
                        daemon_command(&mut client, expected_hash, "profile", &with_tiny_l2(&[]));
                    assert_eq!(profile, ref_profile, "profile hit response diverged");
                    let shapes = daemon_command(
                        &mut client,
                        expected_hash,
                        "sweep-shapes",
                        &with_tiny_l2(&[]),
                    );
                    assert_eq!(shapes, ref_shapes, "sweep-shapes response diverged");
                    let windowed = daemon_command(
                        &mut client,
                        expected_hash,
                        "profile",
                        &with_tiny_l2(&["--windows", "4"]),
                    );
                    assert_eq!(windowed, ref_windowed, "windowed hit response diverged");
                }
                let schedule = daemon_command(
                    &mut client,
                    expected_hash,
                    "schedule",
                    &with_tiny_l2(&["--windows", "4"]),
                );
                assert_eq!(schedule, ref_schedule, "schedule response diverged");
                // The unique miss: returned for comparison once the serial
                // reference can be computed at the same (empty) state.
                let miss = daemon_command(
                    &mut client,
                    expected_hash,
                    "profile",
                    &with_tiny_l2(&["--windows", &windows]),
                );
                (windows, miss)
            })
        })
        .collect();
    let misses: Vec<(String, Vec<u8>)> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread panicked"))
        .collect();

    // Miss parity: delete each unique sidecar and recompute the one-shot
    // at the same (absent) state; re-measuring is deterministic, so the
    // bytes — including the "wrote curve sidecar" line — must match.
    for (windows, daemon_bytes) in &misses {
        let sidecar = store_dir.join(format!("{expected_hash:016x}.w{windows}.curves"));
        let on_disk = std::fs::read(&sidecar).unwrap_or_else(|e| {
            panic!("miss sidecar {} must exist: {e}", sidecar.display());
        });
        std::fs::remove_file(&sidecar).unwrap();
        let reference = one_shot("profile", &{
            let mut a = vec!["--trace", &stored_str];
            a.extend(with_tiny_l2(&["--windows", windows]));
            a
        });
        assert_eq!(
            daemon_bytes, &reference,
            "concurrent miss (windows {windows}) diverged from the serial reference"
        );
        assert_eq!(
            std::fs::read(&sidecar).unwrap(),
            on_disk,
            "re-measuring must reproduce the daemon's sidecar bytes"
        );
    }

    // Typed errors, never a crash: unknown trace, forbidden flag, unknown
    // verb.
    let bad_hash = expected_hash ^ 1;
    match client
        .request(&ServeRequest::Command {
            trace: bad_hash,
            verb: "info".to_string(),
            args: vec![],
        })
        .unwrap()
    {
        ServeResponse::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::UnknownTrace),
        other => panic!("expected unknown-trace error, got {other:?}"),
    }
    match client
        .request(&ServeRequest::Command {
            trace: expected_hash,
            verb: "profile".to_string(),
            args: vec!["--jobs".to_string(), "8".to_string()],
        })
        .unwrap()
    {
        ServeResponse::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::BadRequest),
        other => panic!("expected bad-request error, got {other:?}"),
    }
    match client
        .request(&ServeRequest::Command {
            trace: expected_hash,
            verb: "record".to_string(),
            args: vec![],
        })
        .unwrap()
    {
        ServeResponse::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::BadRequest),
        other => panic!("expected bad-request error, got {other:?}"),
    }

    // The counters add up: 1 trace, 1 put, 3 typed errors, and exactly
    // the request volume split across hits and misses. Hits: warm state
    // info/profile/sweep-shapes/windowed (4 per round, 2 rounds, 4
    // threads). Misses: 2 warm-ups, 1 schedule + 1 unique windowed
    // profile per thread.
    let stats = match client.request(&ServeRequest::Stats).unwrap() {
        ServeResponse::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(stats.traces, 1);
    assert_eq!(stats.puts, 1);
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.cache_hits, 4 * 2 * 4);
    assert_eq!(stats.cache_misses, 2 + 4 * 2);

    // Store consistency: a fresh handle sees exactly the one trace, and
    // every sidecar on disk — written concurrently — parses and validates
    // against it (atomic writes guarantee no torn files).
    let reopened = CurveStore::open(&store_dir).unwrap();
    assert_eq!(reopened.trace_hashes(), vec![expected_hash]);
    let mut sidecars = 0;
    for entry in std::fs::read_dir(&store_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "curves") {
            let encoded = EncodedCurves::read_from(&path)
                .unwrap_or_else(|e| panic!("torn sidecar {}: {e}", path.display()));
            encoded
                .validate_for_trace(&trace_bytes)
                .unwrap_or_else(|e| panic!("stale sidecar {}: {e}", path.display()));
            sidecars += 1;
        }
    }
    // whole-run + w4 from the warm-up, one unique windowed per thread
    // (each deleted and rewritten once by the miss-parity check above).
    assert_eq!(sidecars, 2 + 4);

    // Graceful shutdown: the daemon acknowledges, the accept loop exits.
    assert_eq!(
        client.request(&ServeRequest::Shutdown).unwrap(),
        ServeResponse::ShuttingDown
    );
    server_thread
        .join()
        .expect("server thread panicked")
        .expect("server run loop failed");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon answers a `profile` or `sweep-shapes` request from the cache
/// exactly when that request reuses its persisted sidecar, whatever state
/// the sidecar is in: absent, matching, written at another
/// `--sets-per-unit` or `--windows`, corrupt, or copied from another
/// trace.
#[test]
fn daemon_hits_are_exactly_the_requests_that_reuse_their_sidecar() {
    let dir = std::env::temp_dir().join(format!("compmem-serve-classify-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_file = record_tiny_trace(&dir);
    let store = CurveStore::open(dir.join("store")).unwrap();
    let (hash, _) = store
        .put_bytes(std::fs::read(&trace_file).unwrap())
        .unwrap();
    let stored = store.trace_path(hash);
    let stored_str = stored.to_str().unwrap().to_string();
    let sidecar = compmem_trace::curves::sidecar_path(&stored);
    let sidecar_str = sidecar.to_str().unwrap().to_string();

    // A sidecar measured over another trace, at the request's own
    // configuration.
    let other = dir.join("other.cmt");
    let other_sidecar = dir.join("other.curves");
    one_shot(
        "gen",
        &[
            "--kind",
            "zipf",
            "--accesses",
            "2000",
            "--out",
            other.to_str().unwrap(),
        ],
    );
    one_shot("profile", &{
        let mut a = vec!["--trace", other.to_str().unwrap()];
        a.extend(with_tiny_l2(&[]));
        a
    });

    // Each state writes the whole-run sidecar the requests read.
    let write_at = |extra: &[&str]| {
        let _ = std::fs::remove_file(&sidecar);
        let mut args = vec!["--trace", &stored_str, "--save-curves", &sidecar_str];
        args.extend(with_tiny_l2(&[]));
        args.extend(extra);
        one_shot("profile", &args);
    };
    let handler = DaemonHandler::new(1);
    let args: Vec<String> = with_tiny_l2(&[]).iter().map(|s| s.to_string()).collect();
    for verb in ["profile", "sweep-shapes"] {
        for state in [
            "absent",
            "matching",
            "at another --sets-per-unit",
            "at another --windows",
            "corrupt",
            "from another trace",
        ] {
            match state {
                "absent" => {
                    let _ = std::fs::remove_file(&sidecar);
                }
                "matching" => write_at(&[]),
                "at another --sets-per-unit" => write_at(&["--sets-per-unit", "1"]),
                "at another --windows" => write_at(&["--windows", "4"]),
                "corrupt" => std::fs::write(&sidecar, b"not a sidecar").unwrap(),
                _ => {
                    std::fs::copy(&other_sidecar, &sidecar).unwrap();
                }
            }
            let (bytes, from) = handler.evaluate(&store, hash, verb, &args).unwrap();
            let reused = String::from_utf8_lossy(&bytes).contains("reusing persisted curves");
            assert_eq!(
                from == ServedFrom::Cache,
                reused,
                "{verb} with the sidecar {state}: served from {from:?}"
            );
            assert_eq!(
                reused,
                state == "matching",
                "{verb} with the sidecar {state}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request the CLI refuses — here an L2 over the `--l2-kb` bound, which
/// would otherwise ask the worker for gigabytes — comes back as a typed
/// evaluation error, and the daemon answers the next request.
#[test]
fn a_refused_request_leaves_the_daemon_serving() {
    let dir = std::env::temp_dir().join(format!("compmem-serve-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_bytes = std::fs::read(record_tiny_trace(&dir)).unwrap();
    let store = Arc::new(CurveStore::open(dir.join("store")).unwrap());
    let (hash, _) = store.put_bytes(trace_bytes).unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), DaemonHandler::new(1)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = ServeClient::connect(&addr).unwrap();

    let request = ServeRequest::Command {
        trace: hash,
        verb: "profile".to_string(),
        args: vec!["--l2-kb".to_string(), "268435456".to_string()],
    };
    assert_eq!(
        client.request(&request).unwrap(),
        ServeResponse::Error {
            kind: ServeErrorKind::Evaluation,
            message: "--l2-kb 268435456 is over the 65536 KB bound".to_string(),
        }
    );
    let info = daemon_command(&mut client, hash, "info", &[]);
    assert!(String::from_utf8_lossy(&info).contains(&format!("content hash {hash:016x}")));

    assert_eq!(
        client.request(&ServeRequest::Shutdown).unwrap(),
        ServeResponse::ShuttingDown
    );
    server_thread
        .join()
        .expect("server thread panicked")
        .expect("server run loop failed");
    let _ = std::fs::remove_dir_all(&dir);
}
