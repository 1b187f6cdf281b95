//! The serve layers of the traced run, in-process: the store and the
//! command handler called directly, then the wire and the work queue
//! under a short closed-loop load against an in-process server.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use compmem_bench::service::DaemonHandler;
use compmem_platform::{CommandHandler, CurveStore, ServeClient, ServeRequest, ServedFrom, Server};

use crate::serve::{closed_loop, stats, HIT_VERBS, UPLOAD_FLAGS};
use crate::spans::{counted, Ctx, Tracer};
use crate::traced::Setup;
use crate::{err, strings, upload, Tally};

/// Client cycles of the short closed-loop load the queue metrics need.
const LOAD_CYCLES: usize = 6;

pub fn run(t: &Tracer, s: &Setup, tally: &mut Tally) -> Result<(), String> {
    let root = s.work.join("layers-store");
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(CurveStore::open(&root).map_err(err)?);
    let (hash, _) = store.put_bytes(s.main_bytes()?).map_err(err)?;
    let jobs = compmem::executor::default_jobs();
    let handler = DaemonHandler::new(jobs);
    let upload_flags = strings(&UPLOAD_FLAGS);
    let mut seed = s.seed;
    let mut request = 1_000_000;

    // The whole-run sidecar the hits read, written by a first touch.
    let (_, from) = handler
        .evaluate(&store, hash, "profile", &s.flags)
        .map_err(|f| f.message)?;
    tally.check(
        "eval.warm",
        (from != ServedFrom::Pool).then(|| "first touch was answered from the cache".to_string()),
    );
    for _ in 0..3 {
        request += 1;
        seed += 1;
        let ctx = Ctx::request(request);
        let (bytes, _) = upload(seed)?;
        let (uploaded, _) = t.span("store.put", ctx, |_| {
            counted(store.put_bytes(bytes), |_| Vec::new())
        })?;
        let cold = CurveStore::open(&root).map_err(err)?;
        t.span("store.get", ctx, |_| {
            counted(cold.get(uploaded), |_| Vec::new())
        })?;
        let (_, from) = t.span("eval.miss", ctx, |_| {
            counted(
                handler
                    .evaluate(&store, uploaded, "profile", &upload_flags)
                    .map_err(|f| f.message),
                |_| Vec::new(),
            )
        })?;
        tally.check(
            "eval.miss",
            (from != ServedFrom::Pool)
                .then(|| "first touch was answered from the cache".to_string()),
        );
    }
    for i in 0..3 * HIT_VERBS.len() {
        request += 1;
        let verb = HIT_VERBS[i % HIT_VERBS.len()];
        let (_, from) = t.span("eval.hit", Ctx::request(request), |_| {
            counted(
                handler
                    .evaluate(&store, hash, verb, &s.flags)
                    .map_err(|f| f.message),
                |_| Vec::new(),
            )
        })?;
        tally.check(
            "eval.hit",
            (from != ServedFrom::Cache).then(|| format!("{verb} was not answered from the cache")),
        );
    }
    drop(handler);

    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&store), DaemonHandler::new(jobs)).map_err(err)?;
    let addr = server.local_addr().map_err(err)?.to_string();
    let accept_loop = std::thread::spawn(move || server.run());
    let measured = wire_and_load(t, s, &addr, hash, seed + 1, tally);
    // Stop the in-process server whatever happened, then join it.
    let stopped = ServeClient::connect(&addr).and_then(|mut c| c.request(&ServeRequest::Shutdown));
    let joined = accept_loop
        .join()
        .map_err(|_| "the in-process server panicked".to_string())?;
    measured?;
    stopped.map_err(err)?;
    joined.map_err(err)
}

fn wire_and_load(
    t: &Tracer,
    s: &Setup,
    addr: &str,
    hash: u64,
    first_upload: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(err)?;
    for i in 0..200 {
        t.span("wire.rtt", Ctx::request(2_000_000 + i), |_| {
            counted(client.request(&ServeRequest::Stats), |_| Vec::new())
        })?;
    }
    let before = stats(&mut client)?;
    let load = closed_loop(
        addr,
        hash,
        &s.flags,
        first_upload,
        LOAD_CYCLES,
        BTreeMap::new(),
    )?;
    let after = stats(&mut client)?;
    let mut request = 3_000_000;
    for (name, spans) in [
        ("client.hit", &load.hits),
        ("client.put", &load.puts),
        ("client.miss", &load.misses),
    ] {
        for &span in spans {
            request += 1;
            t.push(name, Ctx::request(request), span, Vec::new());
        }
    }
    let now = Instant::now();
    t.push(
        "serve.stats",
        Ctx::request(request + 1),
        (now, now),
        vec![
            ("hits", (after.cache_hits - before.cache_hits) as f64),
            ("misses", (after.cache_misses - before.cache_misses) as f64),
        ],
    );
    tally.check(
        "serve.stats",
        load.stats_problem(&before, &after, (0, 0, 0)),
    );
    tally.absorb(load.tally);
    Ok(())
}
