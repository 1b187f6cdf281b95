//! Cache-hit versus cache-miss request latency of the `compmem serve`
//! daemon, measured end to end through a real client connection: wire
//! round-trip, hit/miss classification, and evaluation.
//!
//! * `hit_profile` — a `profile` request against a warm daemon whose
//!   persisted sidecar passes the full reuse validation: answered
//!   analytically on the connection thread from the store's memoised
//!   trace, no L1 filter pass, no queueing;
//! * `miss_profile` — the same request as a *first touch*: a fresh
//!   daemon on a cold store, upload, decode, L1 filter pass and
//!   profiling on the worker pool. That is the work the sidecar cache
//!   exists to avoid, so the hit/miss gap is the cache's value.
//!
//! Both produce the same profiling payload (asserted before timing; only
//! the sidecar narration line differs). A hit reads the trace's memoised
//! content hash, so it does no work proportional to the trace: on a
//! 2-CPU host the baseline reads 0.63 ms per hit against 63 ms per first
//! touch, a ratio of about 100 (about 5 when every hit hashed the trace
//! twice). The committed `BENCH_serve.json` baseline records the gap;
//! `scripts/bench_check` gates the `miss_profile/hit_profile` ratio so
//! the analytic path never silently loses its advantage. Regenerate the
//! baseline with
//! `CRITERION_OUTPUT_JSON=BENCH_serve.json cargo bench --bench
//! serve_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use compmem_bench::service::DaemonHandler;
use compmem_bench::{mpeg2_experiment, Scale};
use compmem_platform::{CurveStore, ServeClient, ServeRequest, ServeResponse, Server};
use compmem_trace::trace_content_hash;

/// The request every contestant sends: a small-scale whole-run profile.
fn profile_request(trace: u64) -> ServeRequest {
    ServeRequest::Command {
        trace,
        verb: "profile".to_string(),
        args: ["--l2-kb", "64", "--ways", "4", "--sets-per-unit", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    }
}

fn output_bytes(client: &mut ServeClient, request: &ServeRequest) -> Vec<u8> {
    match client.request(request).expect("request round-trips") {
        ServeResponse::Output { bytes } => bytes,
        other => panic!("daemon rejected the profile request: {other:?}"),
    }
}

/// Starts a daemon over `store_dir` and returns a connected client plus
/// the join handle of its accept loop.
fn start_daemon(
    store_dir: &Path,
) -> (
    ServeClient,
    std::thread::JoinHandle<Result<(), compmem_platform::PlatformError>>,
) {
    let store = Arc::new(CurveStore::open(store_dir).expect("store opens"));
    let server = Server::bind("127.0.0.1:0", store, DaemonHandler::new(2)).expect("binds");
    let addr = server.local_addr().expect("bound address").to_string();
    let thread = std::thread::spawn(move || server.run());
    let client = ServeClient::connect(&addr).expect("client connects");
    (client, thread)
}

fn stop_daemon(
    client: &mut ServeClient,
    thread: std::thread::JoinHandle<Result<(), compmem_platform::PlatformError>>,
) {
    client
        .request(&ServeRequest::Shutdown)
        .expect("shutdown round-trips");
    thread.join().expect("server thread").expect("run loop");
}

/// One complete first-touch evaluation: fresh daemon, cold store,
/// upload, profile (a cache miss through the worker pool), shutdown.
fn first_touch(store_dir: &Path, trace_bytes: &[u8], hash: u64) -> Vec<u8> {
    let _ = std::fs::remove_dir_all(store_dir);
    let (mut client, thread) = start_daemon(store_dir);
    client
        .request(&ServeRequest::PutTrace {
            bytes: trace_bytes.to_vec(),
        })
        .expect("put round-trips");
    let bytes = output_bytes(&mut client, &profile_request(hash));
    stop_daemon(&mut client, thread);
    bytes
}

/// The profiling payload: everything after the sidecar narration line.
fn payload(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    text.lines().skip(1).collect::<Vec<_>>().join("\n")
}

fn bench_serve_throughput(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("compmem-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let experiment = mpeg2_experiment(Scale::Small);
    let (_, trace) = experiment
        .record_trace(&experiment.shared_spec())
        .expect("recording the small MPEG-2 run succeeds");
    let trace_bytes = trace.trace().bytes().to_vec();
    let hash = trace_content_hash(&trace_bytes);
    let request = profile_request(hash);

    // The warm daemon for the hit contestant: upload once, let the first
    // request persist the sidecar, and check both paths agree on the
    // payload before timing them.
    let hit_store = dir.join("hit-store");
    let (mut hit_client, hit_thread) = start_daemon(&hit_store);
    hit_client
        .request(&ServeRequest::PutTrace {
            bytes: trace_bytes.clone(),
        })
        .expect("put round-trips");
    let warm = output_bytes(&mut hit_client, &request);
    assert!(
        String::from_utf8_lossy(&warm).contains("wrote curve sidecar"),
        "warm-up must persist the sidecar"
    );
    let hit = output_bytes(&mut hit_client, &request);
    assert!(
        String::from_utf8_lossy(&hit).contains("reusing persisted curves"),
        "warm request must be served analytically"
    );
    assert_eq!(
        payload(&hit),
        payload(&warm),
        "hit and miss payloads diverge"
    );
    let miss_store = dir.join("miss-store");
    assert_eq!(
        payload(&first_touch(&miss_store, &trace_bytes, hash)),
        payload(&hit),
        "first-touch and analytic payloads diverge"
    );

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function("hit_profile", |b| {
        b.iter(|| black_box(output_bytes(&mut hit_client, &request).len()))
    });
    group.bench_function("miss_profile", |b| {
        b.iter(|| black_box(first_touch(&miss_store, &trace_bytes, hash).len()))
    });
    group.finish();

    stop_daemon(&mut hit_client, hit_thread);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
