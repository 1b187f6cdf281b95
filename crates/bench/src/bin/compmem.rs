//! The `compmem` command-line tool: record, replay, profile and sweep
//! traces — one-shot, or through the `compmem serve` daemon. The worked
//! end-to-end session lives in `docs/CLI.md`.
//!
//! Usage:
//!
//! ```text
//! compmem record       --app jpeg_canny|mpeg2 [--scale paper|small|tiny]
//!                      [--org shared|way-partitioned] --out FILE
//! compmem gen          --kind zipf|scan|chase|phased|mix --out FILE [--seed N]
//!                      [--accesses N] [--cycles-per-access N], and by kind
//!                      zipf|chase [--ws-kb N], scan [--footprint-kb N],
//!                      phased [--hot-kb N] [--scan-kb N] [--phase-accesses N],
//!                      mix [--tasks family[:SIZE][xMULT],...]
//! compmem replay       --trace FILE [--l2-kb N] [--ways N]
//!                      [--policy lru|fifo|tree-plru|random], and one of
//!                      [--org ORG] [--lanes N]
//!                      --qos RATE|key=rate,... [--sets-per-unit N] [--solve KIND]
//!                       [--save-curves auto|off|PATH]
//!                      --schedule phases [--sets-per-unit N] [--windows N]
//!                       [--phases DELTA] [--solve KIND] [--save-curves auto|off|PATH]
//!                       [--save-schedule PATH]
//!                      --schedule PATH [--lanes N]
//!                      --controller greedy|hysteresis|oracle|compete
//!                       --window-cycles N [--sets-per-unit N] [--phases DELTA]
//!                       [--margin M] [--solve KIND]
//! compmem sweep        --trace FILE [--l2-kb N[,N...]] [--ways N] [--jobs N] [--lanes N]
//! compmem profile      --trace FILE [--l2-kb N] [--ways N] [--sets-per-unit N]
//!                      [--solve exact-ilp|greedy|equal-split]
//!                      [--windows N | --window-cycles N] [--phases DELTA]
//!                      [--save-curves auto|off|PATH] [--lanes N]
//! compmem sweep-shapes --trace FILE [--l2-kb N] [--ways N] [--sets-per-unit N]
//!                      [--check-replay on|off] [--jobs N] [--lanes N]
//!                      [--save-curves auto|off|PATH]
//! compmem info         --trace FILE [--schedule PATH] [--l2-kb N] [--ways N]
//! compmem serve        [--store DIR] [--port N] [--jobs N] [--background on|off]
//! compmem client VERB  [--port N] [--trace FILE | --hash HEX] [flags...]
//! ```
//!
//! `--jobs` and `--lanes` take 1 to 64 workers, and `--l2-kb` is at most
//! 65536 (64 MB); other values are refused by name before any work starts.
//!
//! The one-shot subcommands are documented in `compmem_bench::cli`, whose
//! command functions this binary runs against stdout. `serve` starts the
//! scenario-evaluation daemon: a content-hash-addressed store of traces
//! and `.curves` sidecars behind a local TCP socket (see
//! `compmem_platform::serve` and the "Service layer" section of
//! `docs/ARCHITECTURE.md`). `client` talks to it: `put` uploads a trace,
//! `profile` / `sweep-shapes` / `schedule` / `info` evaluate commands
//! over a stored trace (`--trace FILE` uploads-and-uses in one step;
//! `--hash HEX` names an already stored trace), `stats` prints the
//! daemon's counters and `shutdown` stops it cleanly. Every other flag is
//! forwarded verbatim to the daemon, and the response bytes are exactly
//! what the equivalent one-shot invocation would print — the parity
//! contract CI's `serve-smoke` job enforces.

use std::io::Write;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use compmem_bench::cli::{self, get, parse_flags};
use compmem_bench::service::{run_serve, ServeOptions};
use compmem_platform::{ServeClient, ServeRequest, ServeResponse, ServeStats};
use compmem_trace::trace_content_hash;

/// Default TCP port of `compmem serve` (a fixed local port so client
/// invocations need no configuration).
const DEFAULT_PORT: &str = "7177";

fn usage() {
    eprintln!(
        "usage:\n  compmem record --app jpeg_canny|mpeg2 [--scale paper|small|tiny] \
         [--org shared|way-partitioned] --out FILE\n  compmem gen \
         --kind zipf|scan|chase|phased|mix --out FILE [--seed N] [--accesses N] \
         [--cycles-per-access N], and by kind zipf|chase [--ws-kb N], scan \
         [--footprint-kb N], phased [--hot-kb N] [--scan-kb N] [--phase-accesses N], \
         mix [--tasks family[:SIZE][xMULT],...]\n  \
         compmem replay --trace FILE [--l2-kb N] [--ways N] \
         [--policy lru|fifo|tree-plru|random], and one of [--org ORG] [--lanes N] | \
         --qos RATE|key=rate,... [--sets-per-unit N] [--solve KIND] \
         [--save-curves auto|off|PATH] | --schedule phases [--sets-per-unit N] \
         [--windows N] [--phases DELTA] [--solve KIND] [--save-curves auto|off|PATH] \
         [--save-schedule PATH] | --schedule PATH [--lanes N] | \
         --controller greedy|hysteresis|oracle|compete --window-cycles N \
         [--sets-per-unit N] [--phases DELTA] [--margin M] [--solve KIND]\n  \
         compmem sweep --trace FILE [--l2-kb N[,N...]] [--ways N] [--jobs N] [--lanes N]\n  \
         compmem profile --trace FILE [--l2-kb N] [--ways N] [--sets-per-unit N] \
         [--solve exact-ilp|greedy|equal-split] [--windows N | --window-cycles N] \
         [--phases DELTA] [--save-curves auto|off|PATH] [--lanes N]\n  \
         compmem sweep-shapes --trace FILE [--l2-kb N] [--ways N] [--sets-per-unit N] \
         [--check-replay on|off] [--jobs N] [--lanes N] [--save-curves auto|off|PATH]\n  \
         compmem info --trace FILE [--schedule PATH] [--l2-kb N] [--ways N]\n  \
         compmem serve [--store DIR] [--port N] [--jobs N] [--background on|off]\n  \
         compmem client put|profile|sweep-shapes|schedule|info|stats|shutdown \
         [--port N] [--trace FILE | --hash HEX] [forwarded flags...]\n\
         (--jobs N bounds the worker pool of a sweep — default: the host's available \
         parallelism; --lanes N splits a replay or profiling pass into set shards \
         on up to N workers, required on replay and opportunistic on sweep; both \
         take 1 to 64; --l2-kb is at most 65536 (64 MB); \
         serve answers sidecar-covered requests analytically and queues the rest \
         on --jobs workers shared by all clients)"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "record" | "gen" | "replay" | "sweep" | "profile" | "sweep-shapes" | "info" => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            cli::dispatch(command, &args[1..], &mut out)
        }
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            usage();
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let store = get(&flags, "store").unwrap_or("store").to_string();
    let port = get(&flags, "port").unwrap_or(DEFAULT_PORT);
    let port: u16 = port
        .parse()
        .map_err(|_| "--port needs a port number".to_string())?;
    let jobs = cli::workers_flag(&flags, "jobs", cli::default_jobs())?;
    let background = match get(&flags, "background").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--background needs on or off, not `{other}`")),
    };
    let options = ServeOptions {
        store,
        addr: format!("127.0.0.1:{port}"),
        jobs,
    };
    if background {
        serve_background(&options, port, jobs)
    } else {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        run_serve(&options, &mut out)
    }
}

/// Re-executes this binary as a detached foreground daemon with its
/// output redirected to `<store>/serve.log`, waits until the socket
/// accepts connections, and returns. The child must not inherit stdout:
/// scripts capture `compmem serve --background on` with command
/// substitution, which would otherwise block until the daemon exits.
fn serve_background(options: &ServeOptions, port: u16, jobs: usize) -> Result<(), String> {
    std::fs::create_dir_all(&options.store)
        .map_err(|e| format!("cannot create store {}: {e}", options.store))?;
    let log_path = std::path::Path::new(&options.store).join("serve.log");
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;
    let log_err = log
        .try_clone()
        .map_err(|e| format!("cannot clone log handle: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args([
            "serve",
            "--store",
            &options.store,
            "--port",
            &port.to_string(),
            "--jobs",
            &jobs.to_string(),
            "--background",
            "off",
        ])
        .stdin(std::process::Stdio::null())
        .stdout(log)
        .stderr(log_err)
        .spawn()
        .map_err(|e| format!("cannot spawn daemon: {e}"))?;
    // Wait for the daemon to accept — or to die early (port in use,
    // unwritable store), in which case surface its exit instead of
    // spinning for the full timeout.
    let addr = format!("127.0.0.1:{port}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if TcpStream::connect(&addr).is_ok() {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "daemon exited during startup ({status}); see {}",
                log_path.display()
            ));
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "daemon did not start listening on {addr} within 10s; see {}",
                log_path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "compmem serve: daemon running on {addr} (pid {}, log {})",
        child.id(),
        log_path.display()
    );
    Ok(())
}

fn client(args: &[String]) -> Result<(), String> {
    let Some(verb) = args.first() else {
        return Err(
            "client needs a verb: put, profile, sweep-shapes, schedule, info, stats or shutdown"
                .to_string(),
        );
    };
    let flags = parse_flags(&args[1..])?;
    let port = get(&flags, "port").unwrap_or(DEFAULT_PORT);
    let addr = format!("127.0.0.1:{port}");
    let mut client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;

    match verb.as_str() {
        "put" => {
            let path = get(&flags, "trace").ok_or("client put needs --trace FILE")?;
            let (hash, existed) = put_trace(&mut client, path)?;
            println!(
                "stored trace {hash:016x} from {path}{}",
                if existed { " (already present)" } else { "" }
            );
            Ok(())
        }
        "stats" => match client
            .request(&ServeRequest::Stats)
            .map_err(|e| e.to_string())?
        {
            ServeResponse::Stats(stats) => {
                print_stats(&stats);
                Ok(())
            }
            other => Err(format!("unexpected response {other:?}")),
        },
        "shutdown" => {
            match client
                .request(&ServeRequest::Shutdown)
                .map_err(|e| e.to_string())?
            {
                ServeResponse::ShuttingDown => {
                    println!("daemon on {addr} is shutting down");
                    Ok(())
                }
                other => Err(format!("unexpected response {other:?}")),
            }
        }
        command_verb @ ("profile" | "sweep-shapes" | "schedule" | "info") => {
            let hash = match (get(&flags, "hash"), get(&flags, "trace")) {
                (Some(_), Some(_)) => {
                    return Err("--hash and --trace are exclusive".to_string());
                }
                (Some(hex), None) => u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("--hash needs a hex content hash, not `{hex}`"))?,
                (None, Some(path)) => put_trace(&mut client, path)?.0,
                (None, None) => {
                    return Err(format!(
                        "client {command_verb} needs --trace FILE (upload and use) \
                         or --hash HEX (an already stored trace)"
                    ));
                }
            };
            // Forward every flag except the client-side ones, preserving
            // the original order (parity requires the daemon to see the
            // argv a one-shot invocation would).
            let forwarded: Vec<String> = flags
                .iter()
                .filter(|(name, _)| !matches!(name.as_str(), "port" | "trace" | "hash"))
                .flat_map(|(name, value)| [format!("--{name}"), value.clone()])
                .collect();
            let request = ServeRequest::Command {
                trace: hash,
                verb: command_verb.to_string(),
                args: forwarded,
            };
            match client.request(&request).map_err(|e| e.to_string())? {
                ServeResponse::Output { bytes } => {
                    let stdout = std::io::stdout();
                    let mut out = stdout.lock();
                    out.write_all(&bytes)
                        .and_then(|()| out.flush())
                        .map_err(|e| format!("cannot write response: {e}"))
                }
                ServeResponse::Error { kind, message } => {
                    Err(format!("daemon refused ({}): {message}", kind.label()))
                }
                other => Err(format!("unexpected response {other:?}")),
            }
        }
        other => Err(format!(
            "unknown client verb `{other}` (use put, profile, sweep-shapes, schedule, \
             info, stats or shutdown)"
        )),
    }
}

/// Uploads a trace file and returns its content hash. Validates the hash
/// locally first so a corrupt upload fails client-side with the file
/// name, and cross-checks the daemon's answer.
fn put_trace(client: &mut ServeClient, path: &str) -> Result<(u64, bool), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let local_hash = trace_content_hash(&bytes);
    match client
        .request(&ServeRequest::PutTrace { bytes })
        .map_err(|e| e.to_string())?
    {
        ServeResponse::PutOk { hash, existed } => {
            if hash != local_hash {
                return Err(format!(
                    "daemon stored {path} as {hash:016x} but its local hash is \
                     {local_hash:016x}"
                ));
            }
            Ok((hash, existed))
        }
        ServeResponse::Error { kind, message } => {
            Err(format!("daemon refused ({}): {message}", kind.label()))
        }
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn print_stats(stats: &ServeStats) {
    println!("traces stored   {}", stats.traces);
    println!("puts handled    {}", stats.puts);
    println!("cache hits      {}", stats.cache_hits);
    println!("cache misses    {}", stats.cache_misses);
    println!("errors          {}", stats.errors);
}
