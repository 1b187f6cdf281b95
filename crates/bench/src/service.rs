//! The `compmem serve` daemon logic: command evaluation over the
//! content-addressed curve store.
//!
//! `compmem_platform::serve` owns transport and storage; this module
//! supplies the [`CommandHandler`] that gives wire requests their
//! meaning. A request names a verb (`profile`, `sweep-shapes`,
//! `schedule`, `info`), a stored trace (by content hash) and the flags
//! the one-shot CLI would take; the handler rebuilds the equivalent CLI
//! argv (`--trace <store>/<hash>.cmt` plus the forwarded flags) and runs
//! it through [`cli::dispatch`] — the *same* function the `compmem`
//! binary runs — into an in-memory buffer. The response bytes are
//! therefore byte-identical to the one-shot invocation by construction.
//!
//! The **hit/miss split**: before evaluating, the handler classifies the
//! request. `info` and any `profile`/`sweep-shapes` that
//! [`cli::reuses_sidecar`] says will reuse its persisted sidecar (by
//! `load_sidecar`, the one reuse check every profiling verb applies) are
//! *cache hits*: they run analytically on the connection thread, no L1
//! filter pass, no queueing.
//! Everything else is a *cache miss* and is submitted to a shared
//! [`WorkQueue`] — a pool of `jobs` workers, each taking the next job
//! when idle — so however many clients are connected, at most `jobs`
//! measurement threads run, and no miss waits behind another while a
//! worker is idle.

use std::sync::Arc;

use compmem::executor::WorkQueue;
use compmem_platform::{
    CommandFailure, CommandHandler, CurveStore, ServeErrorKind, ServedFrom, Server,
};

use crate::cli;

/// Flags a client may not forward: the daemon owns the trace (`--trace`),
/// the worker budget (`--jobs`, `--lanes`) and the filesystem
/// (`--save-schedule`); `--schedule` is expressed by the `schedule` verb.
const FORBIDDEN_FLAGS: [&str; 5] = ["trace", "jobs", "lanes", "schedule", "save-schedule"];

/// The daemon's [`CommandHandler`]: classifies each request as a cache
/// hit (served inline) or miss (queued on the shared worker pool) and
/// evaluates it through the one-shot CLI's own command functions.
pub struct DaemonHandler {
    queue: WorkQueue<Result<Vec<u8>, String>>,
}

impl DaemonHandler {
    /// Builds a handler whose cache-miss work runs on at most `jobs`
    /// worker threads, shared across every connected client.
    pub fn new(jobs: usize) -> Self {
        DaemonHandler {
            queue: WorkQueue::start(jobs),
        }
    }

    /// Runs one command inline and captures its output bytes.
    fn run_inline(
        verb: &str,
        argv: &[String],
        preloaded: &cli::PreloadedTrace,
    ) -> Result<Vec<u8>, CommandFailure> {
        let mut buffer = Vec::new();
        cli::dispatch_preloaded(verb, argv, Some(preloaded), &mut buffer)
            .map_err(|message| CommandFailure::new(ServeErrorKind::Evaluation, message))?;
        Ok(buffer)
    }
}

impl CommandHandler for DaemonHandler {
    fn evaluate(
        &self,
        store: &CurveStore,
        trace: u64,
        verb: &str,
        args: &[String],
    ) -> Result<(Vec<u8>, ServedFrom), CommandFailure> {
        let bad = |message: String| CommandFailure::new(ServeErrorKind::BadRequest, message);
        // `schedule` is the wire name of the phase-schedule validation
        // flow (`replay --schedule phases` in the one-shot CLI).
        let (cli_verb, prefix): (&str, Vec<String>) = match verb {
            "profile" => ("profile", vec![]),
            "sweep-shapes" => ("sweep-shapes", vec![]),
            "info" => ("info", vec![]),
            "schedule" => (
                "replay",
                vec!["--schedule".to_string(), "phases".to_string()],
            ),
            other => {
                return Err(bad(format!(
                    "unknown verb `{other}` (use profile, sweep-shapes, schedule or info)"
                )))
            }
        };
        let flags = cli::parse_flags(args).map_err(bad)?;
        for (name, _) in &flags {
            if FORBIDDEN_FLAGS.contains(&name.as_str()) {
                return Err(bad(format!(
                    "--{name} cannot be forwarded to the daemon (the daemon owns the \
                     store, the schedule verb and the worker budget)"
                )));
            }
            if name == "save-curves" {
                return Err(bad(
                    "--save-curves cannot be forwarded to the daemon (the store owns \
                     its sidecars)"
                        .to_string(),
                ));
            }
        }
        if !store.contains(trace) {
            return Err(CommandFailure::new(
                ServeErrorKind::UnknownTrace,
                format!("trace {trace:016x} is not in the store (put it first)"),
            ));
        }
        let trace_path = store.trace_path(trace);
        // Hand the store's memoised decode to the evaluation: a request
        // then pays for its answer, not for re-reading the trace file.
        // Decoding is deterministic, so the bytes are unchanged.
        let preloaded = cli::PreloadedTrace {
            path: trace_path.clone(),
            trace: store
                .get(trace)
                .map_err(|e| CommandFailure::new(ServeErrorKind::Store, e.to_string()))?,
        };
        let mut argv: Vec<String> = vec![
            "--trace".to_string(),
            trace_path.to_string_lossy().into_owned(),
        ];
        argv.extend(prefix);
        argv.extend(args.iter().cloned());

        // `info` is pure inspection — always analytic; `schedule` replays
        // the trace twice — always measurement; `profile` / `sweep-shapes`
        // are analytic iff they will reuse the persisted sidecar.
        let served_from = if verb == "info" || cli::reuses_sidecar(verb, &argv, &preloaded) {
            ServedFrom::Cache
        } else {
            ServedFrom::Pool
        };

        match served_from {
            ServedFrom::Cache => Self::run_inline(cli_verb, &argv, &preloaded)
                .map(|bytes| (bytes, ServedFrom::Cache)),
            ServedFrom::Pool => {
                let cli_verb = cli_verb.to_string();
                let receiver = self.queue.submit(move || {
                    let mut buffer = Vec::new();
                    // Command failures are data, not worker errors:
                    // only a panic surfaces as CoreError.
                    Ok(
                        cli::dispatch_preloaded(&cli_verb, &argv, Some(&preloaded), &mut buffer)
                            .map(|()| buffer),
                    )
                });
                match receiver.recv() {
                    Ok(Ok(Ok(bytes))) => Ok((bytes, ServedFrom::Pool)),
                    Ok(Ok(Err(message))) => {
                        Err(CommandFailure::new(ServeErrorKind::Evaluation, message))
                    }
                    Ok(Err(core_error)) => Err(CommandFailure::new(
                        ServeErrorKind::Panic,
                        core_error.to_string(),
                    )),
                    Err(_) => Err(CommandFailure::new(
                        ServeErrorKind::Evaluation,
                        "daemon work queue disconnected".to_string(),
                    )),
                }
            }
        }
    }
}

/// Configuration of a `compmem serve` invocation.
pub struct ServeOptions {
    /// Store directory (created if missing). Kept as given — the paths
    /// the daemon prints embed it verbatim.
    pub store: String,
    /// Address to bind (`host:port`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads shared by all cache-miss requests.
    pub jobs: usize,
}

/// Opens the store, starts the daemon and runs its accept loop until a
/// shutdown request arrives. Prints the bound address and store root to
/// `out` before serving (the line clients and scripts wait for).
///
/// # Errors
///
/// The rendered bind/store error.
pub fn run_serve(options: &ServeOptions, out: &mut dyn std::io::Write) -> Result<(), String> {
    let store = Arc::new(CurveStore::open(&options.store).map_err(|e| e.to_string())?);
    let handler = DaemonHandler::new(options.jobs);
    let server = Server::bind(&options.addr, store, handler).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "compmem serve: listening on {addr} (store {}, {} jobs)",
        options.store, options.jobs
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates a small zipf trace at `seed` into `dir` and returns its
    /// bytes.
    fn generated_trace(dir: &std::path::Path, seed: &str) -> Vec<u8> {
        let path = dir.join(format!("zipf-{seed}.cmt"));
        let args: Vec<String> = [
            "--kind",
            "zipf",
            "--accesses",
            "2000",
            "--seed",
            seed,
            "--out",
            path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cli::dispatch("gen", &args, &mut Vec::new()).unwrap();
        std::fs::read(&path).unwrap()
    }

    /// The store names a trace file by its hash, but a decoded trace's
    /// hash always comes from the bytes it holds: a file replaced behind
    /// the store fails its sidecar check after a restart and is
    /// re-measured on the worker pool.
    #[test]
    fn a_trace_file_replaced_behind_the_store_is_re_measured() {
        let dir =
            std::env::temp_dir().join(format!("compmem-serve-replaced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (generated_trace(&dir, "1"), generated_trace(&dir, "2"));
        assert_ne!(a, b);
        let args: Vec<String> = ["--l2-kb", "32", "--ways", "4", "--sets-per-unit", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let handler = DaemonHandler::new(1);

        let store = CurveStore::open(dir.join("store")).unwrap();
        let (hash, _) = store.put_bytes(a).unwrap();
        let (first, from) = handler.evaluate(&store, hash, "profile", &args).unwrap();
        assert_eq!(from, ServedFrom::Pool);
        assert!(String::from_utf8_lossy(&first).starts_with("wrote curve sidecar"));
        let (_, from) = handler.evaluate(&store, hash, "profile", &args).unwrap();
        assert_eq!(
            from,
            ServedFrom::Cache,
            "the sidecar answers the same store"
        );

        std::fs::write(store.trace_path(hash), &b).unwrap();
        let restarted = CurveStore::open(store.root()).unwrap();
        let (bytes, from) = handler
            .evaluate(&restarted, hash, "profile", &args)
            .unwrap();
        let text = String::from_utf8_lossy(&bytes);
        assert_eq!(from, ServedFrom::Pool, "{text}");
        assert!(
            text.contains(
                "was unusable (curve sidecar does not match the trace: trace hash differs)"
            ),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
