//! The `serve_mixed` client: parity checks against `cli::dispatch` and
//! the closed-loop load on a running `compmem serve`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use compmem_bench::cli::{dispatch, dispatch_preloaded, PreloadedTrace};
use compmem_platform::{PreparedTrace, ServeClient, ServeRequest, ServeResponse, ServeStats};
use compmem_trace::curves::sidecar_path;
use compmem_trace::EncodedTrace;

use crate::{err, json_num, json_str, strings, upload, upload_spec, Flags, Tally};

/// The verbs a client rotates through for its cache hits.
pub const HIT_VERBS: [&str; 3] = ["profile", "sweep-shapes", "info"];

/// Flags of every request on the stored paper trace (512 KB 4-way L2,
/// 16 sets per allocation unit).
const PAPER_FLAGS: [&str; 4] = ["--l2-kb", "512", "--sets-per-unit", "16"];

/// Flags of the first-touch `profile` of an uploaded trace.
pub const UPLOAD_FLAGS: [&str; 4] = ["--l2-kb", "64", "--sets-per-unit", "4"];

/// Closed-loop clients (the reference host's CPUs).
const CLIENTS: usize = 2;

/// A generated upload (encoded bytes and content hash), or why not.
type Upload = Result<(Vec<u8>, u64), String>;

/// `layerbench serve-load`: parity checks, then the closed loop, then the
/// daemon's counters; prints every request latency by class.
pub fn load(f: &Flags) -> Result<String, String> {
    let addr = f.get("addr")?;
    let store = Path::new(f.get("store")?);
    let hash =
        u64::from_str_radix(f.get("hash")?, 16).map_err(|_| "--hash needs hex".to_string())?;
    let seed: u64 = f.num("seed")?;
    let cycles: usize = f.num("cycles")?;
    let flags = strings(&PAPER_FLAGS);
    let mut tally = Tally::default();

    let mut client = ServeClient::connect(addr).map_err(err)?;
    let before = stats(&mut client)?;
    let references = parity(&mut client, store, hash, &flags, seed + 1, &mut tally)?;
    let outputs: Vec<String> = references
        .iter()
        .map(|(verb, bytes)| {
            format!(
                "{}: {}",
                json_str(verb),
                json_str(&String::from_utf8_lossy(bytes))
            )
        })
        .collect();
    let load = closed_loop(addr, hash, &flags, seed + 2, cycles, references)?;
    let after = stats(&mut client)?;
    // The parity checks sent three hits, one put and one first touch.
    tally.check("stats", load.stats_problem(&before, &after, (3, 1, 1)));
    let durations = |spans: &[(Instant, Instant)]| {
        let ms: Vec<String> = spans
            .iter()
            .map(|(start, end)| json_num((*end - *start).as_secs_f64() * 1e3))
            .collect();
        format!("[{}]", ms.join(", "))
    };
    let upload_accesses: u64 = upload_spec(0).tasks.iter().map(|task| task.accesses).sum();
    let json = format!(
        "{{\"wall_s\": {}, \"hit_ms\": {}, \"put_ms\": {}, \"miss_ms\": {}, \
         \"upload_accesses\": {}, \"outputs\": {{{}}}, ",
        json_num(load.wall_s),
        durations(&load.hits),
        durations(&load.puts),
        durations(&load.misses),
        upload_accesses,
        outputs.join(", ")
    );
    tally.absorb(load.tally);
    Ok(format!("{json}{}}}", tally.json()))
}

/// Requests one command and returns its output bytes.
fn command(
    client: &mut ServeClient,
    hash: u64,
    verb: &str,
    args: &[String],
) -> Result<Vec<u8>, String> {
    let request = ServeRequest::Command {
        trace: hash,
        verb: verb.to_string(),
        args: args.to_vec(),
    };
    match client.request(&request).map_err(err)? {
        ServeResponse::Output { bytes } => Ok(bytes),
        ServeResponse::Error { kind, message } => {
            Err(format!("{verb}: {} error: {message}", kind.label()))
        }
        other => Err(format!("{verb}: unexpected response {other:?}")),
    }
}

pub fn stats(client: &mut ServeClient) -> Result<ServeStats, String> {
    match client.request(&ServeRequest::Stats).map_err(err)? {
        ServeResponse::Stats(stats) => Ok(stats),
        other => Err(format!("stats request answered {other:?}")),
    }
}

/// Checks the first answer of each verb against `cli::dispatch` on the
/// same argv at the same sidecar state, and returns the hit answers as
/// the references every later hit must equal.
fn parity(
    client: &mut ServeClient,
    store: &Path,
    hash: u64,
    flags: &[String],
    upload_seed: u64,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, Vec<u8>>, String> {
    let argv = |path: &Path, flags: &[String]| {
        let mut argv = vec!["--trace".to_string(), path.to_string_lossy().into_owned()];
        argv.extend(flags.iter().cloned());
        argv
    };
    let mut references = BTreeMap::new();
    let trace_path = store.join(format!("{hash:016x}.cmt"));
    let decoded = EncodedTrace::read_from(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let preloaded = PreloadedTrace {
        trace: Arc::new(PreparedTrace::from(decoded)),
        path: trace_path.clone(),
    };
    for verb in HIT_VERBS {
        let served = command(client, hash, verb, flags)?;
        let mut local = Vec::new();
        dispatch_preloaded(
            verb,
            &argv(&trace_path, flags),
            Some(&preloaded),
            &mut local,
        )?;
        tally.check(
            &format!("{verb} hit parity"),
            (served != local).then(|| "served bytes differ from cli::dispatch".to_string()),
        );
        references.insert(verb, served);
    }
    drop(preloaded);

    // A first touch, against a one-shot run from the same state: the
    // sidecar the daemon just wrote is removed again first.
    let (bytes, uploaded) = upload(upload_seed)?;
    match client
        .request(&ServeRequest::PutTrace { bytes })
        .map_err(err)?
    {
        ServeResponse::PutOk {
            hash,
            existed: false,
        } if hash == uploaded => {}
        other => return Err(format!("put answered {other:?}")),
    }
    let upload_flags = strings(&UPLOAD_FLAGS);
    let served = command(client, uploaded, "profile", &upload_flags)?;
    let upload_path = store.join(format!("{uploaded:016x}.cmt"));
    let sidecar = sidecar_path(&upload_path);
    std::fs::remove_file(&sidecar).map_err(|e| format!("{}: {e}", sidecar.display()))?;
    let mut local = Vec::new();
    dispatch("profile", &argv(&upload_path, &upload_flags), &mut local)?;
    tally.check(
        "first-touch profile parity",
        (served != local).then(|| "served bytes differ from cli::dispatch".to_string()),
    );
    Ok(references)
}

/// What the closed-loop clients saw: each answered request's start and
/// end by class, and the checks on every answer.
#[derive(Default)]
pub struct Load {
    pub hits: Vec<(Instant, Instant)>,
    pub puts: Vec<(Instant, Instant)>,
    pub misses: Vec<(Instant, Instant)>,
    wall_s: f64,
    pub tally: Tally,
}

impl Load {
    fn absorb(&mut self, other: Load) {
        self.hits.extend(other.hits);
        self.puts.extend(other.puts);
        self.misses.extend(other.misses);
        self.tally.absorb(other.tally);
    }

    /// Whether the daemon's counters moved by exactly the requests sent:
    /// this load's answered requests plus `extra` (hits, puts, misses).
    pub fn stats_problem(
        &self,
        before: &ServeStats,
        after: &ServeStats,
        extra: (usize, usize, usize),
    ) -> Option<String> {
        let sent = (
            (self.hits.len() + extra.0) as u64,
            (self.puts.len() + extra.1) as u64,
            (self.misses.len() + extra.2) as u64,
            0,
        );
        let counted = (
            after.cache_hits - before.cache_hits,
            after.puts - before.puts,
            after.cache_misses - before.cache_misses,
            after.errors - before.errors,
        );
        (counted != sent).then(|| {
            format!(
                "daemon counted {counted:?} (hits, puts, misses, errors), the clients were \
                 answered {sent:?}"
            )
        })
    }
}

/// `CLIENTS` closed-loop clients with zero think time, each repeating
/// `cycles` times: a hit on `hash` (the verbs in rotation), a `put` of
/// the next generated upload, a first-touch `profile` of it. The amount
/// of work is fixed, so the daemon's store ends every run holding the
/// same traces. A producer thread generates the uploads ahead of the
/// clients. Every hit answer must equal `references` (or, without one,
/// the run's first answer).
pub fn closed_loop(
    addr: &str,
    hash: u64,
    flags: &[String],
    first_upload: u64,
    cycles: usize,
    references: BTreeMap<&'static str, Vec<u8>>,
) -> Result<Load, String> {
    let references = Mutex::new(references);
    let (sender, receiver) = mpsc::sync_channel::<Upload>(CLIENTS);
    let receiver = Mutex::new(receiver);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            for seed in first_upload..first_upload + (CLIENTS * cycles) as u64 {
                if stop.load(Ordering::SeqCst) || sender.send(upload(seed)).is_err() {
                    break;
                }
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|offset| {
                let (references, receiver) = (&references, &receiver);
                scope.spawn(move || {
                    client_loop(addr, hash, flags, offset, cycles, receiver, references)
                })
            })
            .collect();
        let results: Vec<_> = clients
            .into_iter()
            .map(|client| {
                client
                    .join()
                    .map_err(|_| "a load client panicked".to_string())
            })
            .collect();
        // A client that stopped early leaves the producer blocked on the
        // full channel: drain it so the producer sees `stop`.
        stop.store(true, Ordering::SeqCst);
        while receiver
            .lock()
            .expect("a load client panicked holding the upload channel")
            .try_recv()
            .is_ok()
        {}
        results
    });
    let mut load = Load {
        wall_s: start.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for result in results {
        load.absorb(result??);
    }
    Ok(load)
}

fn client_loop(
    addr: &str,
    hash: u64,
    flags: &[String],
    offset: usize,
    cycles: usize,
    uploads: &Mutex<mpsc::Receiver<Upload>>,
    references: &Mutex<BTreeMap<&'static str, Vec<u8>>>,
) -> Result<Load, String> {
    let mut client = ServeClient::connect(addr).map_err(err)?;
    let upload_flags = strings(&UPLOAD_FLAGS);
    let mut log = Load::default();
    for turn in offset..offset + cycles {
        let verb = HIT_VERBS[turn % HIT_VERBS.len()];
        let start = Instant::now();
        let answer = command(&mut client, hash, verb, flags);
        let span = (start, Instant::now());
        let problem = match answer {
            Ok(bytes) => {
                let mut references = references
                    .lock()
                    .expect("a load client panicked holding the references");
                let first = references.entry(verb).or_insert_with(|| bytes.clone());
                (*first != bytes).then(|| "answer differs from the run's first".to_string())
            }
            Err(e) => Some(e),
        };
        if problem.is_none() {
            log.hits.push(span);
        }
        log.tally.check(&format!("{verb} hit"), problem);

        let next = uploads
            .lock()
            .expect("a load client panicked holding the upload channel")
            .recv();
        let Ok(next) = next else { break };
        let (bytes, local) = next?;
        let start = Instant::now();
        let answer = client
            .request(&ServeRequest::PutTrace { bytes })
            .map_err(err)?;
        let span = (start, Instant::now());
        let problem = match answer {
            ServeResponse::PutOk {
                hash,
                existed: false,
            } if hash == local => None,
            other => Some(format!("put answered {other:?}")),
        };
        if problem.is_none() {
            log.puts.push(span);
        }
        log.tally.check("put", problem);

        let start = Instant::now();
        let answer = command(&mut client, local, "profile", &upload_flags);
        let span = (start, Instant::now());
        let problem = match answer {
            Ok(bytes) if bytes.starts_with(b"wrote curve sidecar") => None,
            Ok(_) => Some("first touch did not write its sidecar".to_string()),
            Err(e) => Some(e),
        };
        if problem.is_none() {
            log.misses.push(span);
        }
        log.tally.check("first-touch profile", problem);
    }
    Ok(log)
}
