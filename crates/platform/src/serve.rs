//! The scenario-evaluation daemon: a content-addressed trace/curve store,
//! a length-prefixed wire protocol and a concurrent TCP server skeleton.
//!
//! The one-shot CLI pays the full decode + L1-filter cost on every
//! invocation. `compmem serve` amortises it: a long-running daemon owns a
//! [`CurveStore`] — traces and their `.curves` sidecars addressed by
//! [`EncodedTrace::content_hash`] — and evaluates
//! `profile`/`sweep-shapes`/`schedule`/`info` requests from many
//! concurrent clients. Requests a persisted sidecar can answer are served
//! analytically on the connection thread (the **cache-hit** path, no L1
//! filter pass); the rest queue onto a caller-provided worker pool (the
//! daemon wires them to `compmem::executor::WorkQueue`, so concurrent
//! clients share one bounded worker budget).
//!
//! The module is transport and storage only: it knows nothing about
//! scenarios. Command evaluation is injected through [`CommandHandler`],
//! implemented by `compmem-bench` on top of the same command functions
//! the one-shot CLI runs — which is what makes daemon responses
//! **byte-identical** to the equivalent CLI invocation, the correctness
//! contract CI's `serve-smoke` job diffs end to end.
//!
//! # Wire protocol
//!
//! Every message is one frame: a tag byte, a big-endian `u32` payload
//! length, then the payload (strings are length-prefixed UTF-8; integers
//! big-endian). A `PutTrace` upload and every response may be up to
//! [`MAX_FRAME_BYTES`]; any other request is a verb and a few flags, held
//! to [`MAX_REQUEST_FRAME_BYTES`]. A frame above its cap and an unknown
//! tag are typed [`PlatformError::Wire`] errors, never a panic — a
//! malformed client cannot take the daemon down, and a request that fails
//! (or panics) server-side comes back as a typed [`ServeResponse::Error`]
//! while the connection and the daemon live on.
//!
//! # Isolation and shutdown
//!
//! Each connection runs on its own thread; each command evaluation is
//! wrapped in `catch_unwind`, so one bad request fails alone with a
//! [`ServeErrorKind::Panic`] error. A [`ServeRequest::Shutdown`] drains
//! the accept loop and makes [`Server::run`] return cleanly; SIGTERM
//! terminates the process, which is equally safe because every store
//! write is atomic (temp file + rename — a reader observes the old or
//! the new bytes, never a torn file).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use compmem_trace::{write_file_atomic, EncodedTrace};

use crate::error::PlatformError;
use crate::replay::PreparedTrace;

/// Hard cap on a `PutTrace` frame and on every response frame (uploads
/// carry whole encoded traces, responses whole command outputs; 1 GiB
/// bounds a hostile length field).
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Cap on every other request frame: a `Command`, `Stats` or `Shutdown`
/// is a verb and a few flags, so a longer length claim is refused before
/// its payload is read.
pub const MAX_REQUEST_FRAME_BYTES: u32 = 64 * 1024;

/// The most a payload buffer holds before its first byte arrives: it
/// grows with the bytes actually received, so a header's length claim
/// alone never allocates more than this.
const FIRST_CHUNK_BYTES: usize = 64 * 1024;

const TAG_PUT: u8 = 0x01;
const TAG_COMMAND: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_OUTPUT: u8 = 0x81;
const TAG_ERROR: u8 = 0x82;
const TAG_PUT_OK: u8 = 0x83;
const TAG_STATS_OK: u8 = 0x84;
const TAG_BYE: u8 = 0x85;

fn wire(message: impl Into<String>) -> PlatformError {
    PlatformError::Wire {
        message: message.into(),
    }
}

fn store_error(message: impl Into<String>) -> PlatformError {
    PlatformError::Store {
        message: message.into(),
    }
}

// --- frame primitives ---------------------------------------------------

/// The largest payload a frame with `tag` may carry: [`MAX_FRAME_BYTES`]
/// for an upload or a response, [`MAX_REQUEST_FRAME_BYTES`] for anything
/// else a client sends.
fn frame_cap(tag: u8) -> u32 {
    match tag {
        TAG_PUT | TAG_OUTPUT | TAG_ERROR | TAG_PUT_OK | TAG_STATS_OK | TAG_BYE => MAX_FRAME_BYTES,
        _ => MAX_REQUEST_FRAME_BYTES,
    }
}

/// Writes one frame; refuses, before writing anything, a payload the
/// peer's [`read_frame`] would refuse.
fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<(), PlatformError> {
    let cap = frame_cap(tag);
    if payload.len() > cap as usize {
        return Err(wire(format!(
            "outgoing frame of {} bytes exceeds the {cap}-byte cap",
            payload.len()
        )));
    }
    let mut header = [0u8; 5];
    header[0] = tag;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| wire(format!("frame write failed: {e}")))
}

/// Reads one frame; `Ok(None)` on clean EOF before any header byte.
fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, PlatformError> {
    let mut header = [0u8; 5];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(wire("connection closed mid-frame")),
            Ok(n) => filled += n,
            Err(e) => return Err(wire(format!("frame read failed: {e}"))),
        }
    }
    let length = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
    let cap = frame_cap(header[0]);
    if length > cap {
        return Err(wire(format!(
            "incoming frame claims {length} bytes, above the {cap}-byte cap"
        )));
    }
    let mut payload = Vec::with_capacity((length as usize).min(FIRST_CHUNK_BYTES));
    r.take(u64::from(length))
        .read_to_end(&mut payload)
        .map_err(|e| wire(format!("frame payload read failed: {e}")))?;
    if payload.len() < length as usize {
        return Err(wire(format!(
            "connection closed mid-frame ({} of {length} payload bytes)",
            payload.len()
        )));
    }
    Ok(Some((header[0], payload)))
}

struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PlatformError> {
        if self.bytes.len() < n {
            return Err(wire("frame payload truncated"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, PlatformError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PlatformError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PlatformError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, PlatformError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, PlatformError> {
        String::from_utf8(self.bytes()?).map_err(|_| wire("string field is not UTF-8"))
    }

    fn finish(self) -> Result<(), PlatformError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(wire("frame payload has trailing bytes"))
        }
    }
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    push_bytes(out, s.as_bytes());
}

// --- messages -----------------------------------------------------------

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeRequest {
    /// Store an encoded trace; the daemon answers with its content hash.
    /// Idempotent: re-putting known bytes is a no-op.
    PutTrace {
        /// The encoded trace stream (the exact bytes of a `.cmt` file).
        bytes: Vec<u8>,
    },
    /// Evaluate a command over a stored trace.
    Command {
        /// Content hash of the stored trace the command targets.
        trace: u64,
        /// Command verb (`profile`, `sweep-shapes`, `schedule`, `info`).
        verb: String,
        /// Flag arguments, exactly as the one-shot CLI would receive them
        /// (minus `--trace`, which the daemon supplies from the store).
        args: Vec<String>,
    },
    /// Ask for the daemon's request counters.
    Stats,
    /// Ask the daemon to stop accepting connections and exit cleanly.
    Shutdown,
}

impl ServeRequest {
    fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            ServeRequest::PutTrace { bytes } => {
                let mut payload = Vec::with_capacity(bytes.len() + 4);
                push_bytes(&mut payload, bytes);
                (TAG_PUT, payload)
            }
            ServeRequest::Command { trace, verb, args } => {
                let mut payload = Vec::new();
                payload.extend_from_slice(&trace.to_be_bytes());
                push_string(&mut payload, verb);
                payload.extend_from_slice(&(args.len() as u32).to_be_bytes());
                for arg in args {
                    push_string(&mut payload, arg);
                }
                (TAG_COMMAND, payload)
            }
            ServeRequest::Stats => (TAG_STATS, Vec::new()),
            ServeRequest::Shutdown => (TAG_SHUTDOWN, Vec::new()),
        }
    }

    fn decode(tag: u8, payload: &[u8]) -> Result<Self, PlatformError> {
        let mut cursor = Cursor { bytes: payload };
        let request = match tag {
            TAG_PUT => ServeRequest::PutTrace {
                bytes: cursor.bytes()?,
            },
            TAG_COMMAND => {
                let trace = cursor.u64()?;
                let verb = cursor.string()?;
                let count = cursor.u32()?;
                if count > 4096 {
                    return Err(wire("command carries an absurd argument count"));
                }
                let mut args = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    args.push(cursor.string()?);
                }
                ServeRequest::Command { trace, verb, args }
            }
            TAG_STATS => ServeRequest::Stats,
            TAG_SHUTDOWN => ServeRequest::Shutdown,
            other => return Err(wire(format!("unknown request tag 0x{other:02x}"))),
        };
        cursor.finish()?;
        Ok(request)
    }
}

/// What failed, in a form a client can act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// The request itself was malformed (unknown verb, forbidden flag).
    BadRequest,
    /// The referenced trace hash is not in the store.
    UnknownTrace,
    /// The command ran and failed (the message is the CLI error text).
    Evaluation,
    /// The command panicked; the daemon caught it and lives on.
    Panic,
    /// The store could not read or write a file.
    Store,
}

impl ServeErrorKind {
    fn code(self) -> u8 {
        match self {
            ServeErrorKind::BadRequest => 0,
            ServeErrorKind::UnknownTrace => 1,
            ServeErrorKind::Evaluation => 2,
            ServeErrorKind::Panic => 3,
            ServeErrorKind::Store => 4,
        }
    }

    fn from_code(code: u8) -> Result<Self, PlatformError> {
        Ok(match code {
            0 => ServeErrorKind::BadRequest,
            1 => ServeErrorKind::UnknownTrace,
            2 => ServeErrorKind::Evaluation,
            3 => ServeErrorKind::Panic,
            4 => ServeErrorKind::Store,
            other => return Err(wire(format!("unknown error kind {other}"))),
        })
    }

    /// Stable lowercase label (used in CLI error messages and tests).
    pub fn label(self) -> &'static str {
        match self {
            ServeErrorKind::BadRequest => "bad-request",
            ServeErrorKind::UnknownTrace => "unknown-trace",
            ServeErrorKind::Evaluation => "evaluation",
            ServeErrorKind::Panic => "panic",
            ServeErrorKind::Store => "store",
        }
    }
}

/// The daemon's request counters, as returned by [`ServeRequest::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Traces currently in the store.
    pub traces: u64,
    /// `PutTrace` requests handled.
    pub puts: u64,
    /// Commands answered analytically from a persisted sidecar.
    pub cache_hits: u64,
    /// Commands that had to queue measurement/replay work.
    pub cache_misses: u64,
    /// Requests that came back as typed errors (panics included).
    pub errors: u64,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeResponse {
    /// Command output: the exact bytes the one-shot CLI would print.
    Output {
        /// The captured stdout of the command.
        bytes: Vec<u8>,
    },
    /// A stored trace's identity.
    PutOk {
        /// Content hash of the stored trace.
        hash: u64,
        /// Whether the trace was already present.
        existed: bool,
    },
    /// The daemon's counters.
    Stats(ServeStats),
    /// Acknowledgement of a shutdown request; the daemon exits after it.
    ShuttingDown,
    /// The request failed; the daemon lives on.
    Error {
        /// What class of failure this is.
        kind: ServeErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl ServeResponse {
    fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            ServeResponse::Output { bytes } => {
                let mut payload = Vec::with_capacity(bytes.len() + 4);
                push_bytes(&mut payload, bytes);
                (TAG_OUTPUT, payload)
            }
            ServeResponse::PutOk { hash, existed } => {
                let mut payload = Vec::with_capacity(9);
                payload.extend_from_slice(&hash.to_be_bytes());
                payload.push(u8::from(*existed));
                (TAG_PUT_OK, payload)
            }
            ServeResponse::Stats(stats) => {
                let mut payload = Vec::with_capacity(40);
                for field in [
                    stats.traces,
                    stats.puts,
                    stats.cache_hits,
                    stats.cache_misses,
                    stats.errors,
                ] {
                    payload.extend_from_slice(&field.to_be_bytes());
                }
                (TAG_STATS_OK, payload)
            }
            ServeResponse::ShuttingDown => (TAG_BYE, Vec::new()),
            ServeResponse::Error { kind, message } => {
                let mut payload = Vec::new();
                payload.push(kind.code());
                push_string(&mut payload, message);
                (TAG_ERROR, payload)
            }
        }
    }

    fn decode(tag: u8, payload: &[u8]) -> Result<Self, PlatformError> {
        let mut cursor = Cursor { bytes: payload };
        let response = match tag {
            TAG_OUTPUT => ServeResponse::Output {
                bytes: cursor.bytes()?,
            },
            TAG_PUT_OK => ServeResponse::PutOk {
                hash: cursor.u64()?,
                existed: cursor.u8()? != 0,
            },
            TAG_STATS_OK => ServeResponse::Stats(ServeStats {
                traces: cursor.u64()?,
                puts: cursor.u64()?,
                cache_hits: cursor.u64()?,
                cache_misses: cursor.u64()?,
                errors: cursor.u64()?,
            }),
            TAG_BYE => ServeResponse::ShuttingDown,
            TAG_ERROR => ServeResponse::Error {
                kind: ServeErrorKind::from_code(cursor.u8()?)?,
                message: cursor.string()?,
            },
            other => return Err(wire(format!("unknown response tag 0x{other:02x}"))),
        };
        cursor.finish()?;
        Ok(response)
    }
}

// --- content-addressed store --------------------------------------------

/// A content-hash-addressed store of traces and their curve sidecars.
///
/// A trace with content hash `h` lives at `<root>/<h as 016x>.cmt`; its
/// sidecars use the CLI's own naming convention next to it
/// (`<h>.curves`, `<h>.w400.curves`, ...), so a one-shot CLI invocation
/// pointed at the stored trace reads and writes **exactly** the files
/// the daemon does — shared cache, shared parity. Decoded traces are
/// memoised as [`PreparedTrace`]s so repeated requests skip the decode
/// (and, per L1 configuration, the filter pass) and the content hash:
/// each decoded trace hashes its own bytes at most once, however many
/// sidecar checks its requests make, so a cache hit does no work
/// proportional to the trace. The hash is never taken from a file name:
/// a trace file replaced behind the store hashes to what it now holds,
/// and the sidecars of the old bytes fail their check.
pub struct CurveStore {
    root: PathBuf,
    prepared: Mutex<HashMap<u64, Arc<PreparedTrace>>>,
}

impl CurveStore {
    /// Opens (creating if needed) a store rooted at `root`. The path is
    /// kept exactly as given — not canonicalised — so every file path the
    /// daemon prints matches what a CLI invocation using the same root
    /// string would print.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Store`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PlatformError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| store_error(format!("cannot create store {}: {e}", root.display())))?;
        Ok(CurveStore {
            root,
            prepared: Mutex::new(HashMap::new()),
        })
    }

    /// The store's root directory, as given to [`CurveStore::open`].
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the trace with content hash `hash` (whether or not it is
    /// stored yet).
    pub fn trace_path(&self, hash: u64) -> PathBuf {
        self.root.join(format!("{hash:016x}.cmt"))
    }

    /// Validates and stores encoded trace bytes; returns the content hash
    /// and whether the trace was already present, i.e. whether its file
    /// already held exactly these bytes. Otherwise the upload is written
    /// atomically over whatever the file held, and replaces the decode
    /// memoised for the hash, so a store file replaced behind the store
    /// is repaired by putting the right trace again. The hash that names
    /// the file is the decoded trace's own memo, so the requests that
    /// follow do not hash the upload again.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Store`] when the bytes do not decode as a trace
    /// or the file cannot be written.
    pub fn put_bytes(&self, bytes: Vec<u8>) -> Result<(u64, bool), PlatformError> {
        let trace = EncodedTrace::from_bytes(bytes)
            .map_err(|e| store_error(format!("rejected trace upload: {e}")))?;
        let hash = trace.content_hash();
        let path = self.trace_path(hash);
        let existed = std::fs::read(&path).is_ok_and(|stored| stored == trace.bytes());
        if !existed {
            write_file_atomic(&path, trace.bytes())
                .map_err(|e| store_error(format!("cannot write {}: {e}", path.display())))?;
        }
        let prepared = Arc::new(PreparedTrace::from(trace));
        let mut memo = self.prepared.lock().expect("store cache poisoned");
        if existed {
            memo.entry(hash).or_insert(prepared);
        } else {
            memo.insert(hash, prepared);
        }
        Ok((hash, existed))
    }

    /// Whether the store holds a trace with this content hash.
    pub fn contains(&self, hash: u64) -> bool {
        self.prepared
            .lock()
            .expect("store cache poisoned")
            .contains_key(&hash)
            || self.trace_path(hash).exists()
    }

    /// The prepared (decoded, filter-cached) trace for `hash`, memoised
    /// across requests.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Store`] when the trace is not stored or its file
    /// no longer decodes.
    pub fn get(&self, hash: u64) -> Result<Arc<PreparedTrace>, PlatformError> {
        if let Some(prepared) = self
            .prepared
            .lock()
            .expect("store cache poisoned")
            .get(&hash)
        {
            return Ok(Arc::clone(prepared));
        }
        let path = self.trace_path(hash);
        let trace = EncodedTrace::read_from(&path)
            .map_err(|e| store_error(format!("trace {hash:016x} unavailable in the store: {e}")))?;
        let prepared = Arc::new(PreparedTrace::from(trace));
        self.prepared
            .lock()
            .expect("store cache poisoned")
            .entry(hash)
            .or_insert_with(|| Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Content hashes of every trace file currently in the store
    /// directory (scanned from disk, so it sees traces stored by earlier
    /// daemon processes too).
    pub fn trace_hashes(&self) -> Vec<u64> {
        let mut hashes = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return hashes;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".cmt")) else {
                continue;
            };
            if stem.len() == 16 {
                if let Ok(hash) = u64::from_str_radix(stem, 16) {
                    hashes.push(hash);
                }
            }
        }
        hashes.sort_unstable();
        hashes
    }
}

// --- server -------------------------------------------------------------

/// Where a successful command was served from (drives the hit/miss
/// counters of [`ServeStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Answered analytically from a persisted sidecar on the connection
    /// thread — no measurement work queued.
    Cache,
    /// Queued measurement/replay work onto the shared worker pool.
    Pool,
}

/// A typed command failure (maps straight onto [`ServeResponse::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandFailure {
    /// What class of failure this is.
    pub kind: ServeErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl CommandFailure {
    /// Convenience constructor.
    pub fn new(kind: ServeErrorKind, message: impl Into<String>) -> Self {
        CommandFailure {
            kind,
            message: message.into(),
        }
    }
}

/// Evaluates wire commands against the store. Implemented by the CLI
/// layer on top of the exact command functions the one-shot binary runs;
/// the server wraps every call in `catch_unwind`, so implementations may
/// panic without taking the daemon down.
pub trait CommandHandler: Send + Sync + 'static {
    /// Evaluates `verb` with `args` over the stored trace `trace` and
    /// returns the output bytes plus whether a cached sidecar answered.
    fn evaluate(
        &self,
        store: &CurveStore,
        trace: u64,
        verb: &str,
        args: &[String],
    ) -> Result<(Vec<u8>, ServedFrom), CommandFailure>;
}

#[derive(Default)]
struct Counters {
    puts: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    errors: AtomicU64,
}

/// The daemon: a TCP accept loop over a [`CurveStore`] and a
/// [`CommandHandler`], one thread per connection, panic isolation per
/// request.
pub struct Server<H: CommandHandler> {
    listener: TcpListener,
    store: Arc<CurveStore>,
    handler: Arc<H>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
}

impl<H: CommandHandler> Server<H> {
    /// Binds the daemon to `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// [`PlatformError::Wire`] when the socket cannot be bound.
    pub fn bind(addr: &str, store: Arc<CurveStore>, handler: H) -> Result<Self, PlatformError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| wire(format!("cannot bind {addr}: {e}")))?;
        Ok(Server {
            listener,
            store,
            handler: Arc::new(handler),
            counters: Arc::new(Counters::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the daemon is listening on.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Wire`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, PlatformError> {
        self.listener
            .local_addr()
            .map_err(|e| wire(format!("no local address: {e}")))
    }

    /// Runs the accept loop until a [`ServeRequest::Shutdown`] arrives.
    /// Every connection gets its own thread; the loop itself never
    /// evaluates commands, so a slow request cannot starve `accept`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Wire`] when `accept` fails irrecoverably.
    pub fn run(self) -> Result<(), PlatformError> {
        let local = self.local_addr()?;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| wire(format!("accept failed: {e}")))?;
            // One small request frame, one response frame: Nagle's
            // algorithm would serialise every exchange behind the peer's
            // delayed ACK (~40 ms per stall on loopback).
            let _ = stream.set_nodelay(true);
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let store = Arc::clone(&self.store);
            let handler = Arc::clone(&self.handler);
            let counters = Arc::clone(&self.counters);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || {
                serve_connection(stream, &store, &*handler, &counters, &shutdown, local);
            });
        }
    }
}

/// Handles one client connection: a sequence of request frames, one
/// response frame each, until EOF or a shutdown request.
fn serve_connection<H: CommandHandler>(
    mut stream: TcpStream,
    store: &CurveStore,
    handler: &H,
    counters: &Counters,
    shutdown: &AtomicBool,
    local: SocketAddr,
) {
    loop {
        let request = match read_frame(&mut stream) {
            Ok(None) => return,
            Ok(Some((tag, payload))) => match ServeRequest::decode(tag, &payload) {
                Ok(request) => request,
                Err(e) => {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    let response = ServeResponse::Error {
                        kind: ServeErrorKind::BadRequest,
                        message: e.to_string(),
                    };
                    let (tag, payload) = response.encode();
                    let _ = write_frame(&mut stream, tag, &payload);
                    return;
                }
            },
            // A vanished client is not a daemon problem.
            Err(_) => return,
        };
        let response = match request {
            ServeRequest::PutTrace { bytes } => match store.put_bytes(bytes) {
                Ok((hash, existed)) => {
                    counters.puts.fetch_add(1, Ordering::Relaxed);
                    ServeResponse::PutOk { hash, existed }
                }
                Err(e) => {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    ServeResponse::Error {
                        kind: ServeErrorKind::Store,
                        message: e.to_string(),
                    }
                }
            },
            ServeRequest::Command { trace, verb, args } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handler.evaluate(store, trace, &verb, &args)
                }));
                match outcome {
                    Ok(Ok((bytes, from))) => {
                        match from {
                            ServedFrom::Cache => &counters.cache_hits,
                            ServedFrom::Pool => &counters.cache_misses,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        ServeResponse::Output { bytes }
                    }
                    Ok(Err(failure)) => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        ServeResponse::Error {
                            kind: failure.kind,
                            message: failure.message,
                        }
                    }
                    Err(payload) => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        let message = if let Some(s) = payload.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "command panicked with a non-string payload".to_string()
                        };
                        ServeResponse::Error {
                            kind: ServeErrorKind::Panic,
                            message: format!("command `{verb}` panicked: {message}"),
                        }
                    }
                }
            }
            ServeRequest::Stats => ServeResponse::Stats(ServeStats {
                traces: store.trace_hashes().len() as u64,
                puts: counters.puts.load(Ordering::Relaxed),
                cache_hits: counters.cache_hits.load(Ordering::Relaxed),
                cache_misses: counters.cache_misses.load(Ordering::Relaxed),
                errors: counters.errors.load(Ordering::Relaxed),
            }),
            ServeRequest::Shutdown => {
                let (tag, payload) = ServeResponse::ShuttingDown.encode();
                let _ = write_frame(&mut stream, tag, &payload);
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so Server::run observes the flag.
                let _ = TcpStream::connect(local);
                return;
            }
        };
        let (tag, payload) = response.encode();
        if write_frame(&mut stream, tag, &payload).is_err() {
            return;
        }
    }
}

// --- client -------------------------------------------------------------

/// A blocking client connection to a `compmem serve` daemon. One
/// connection carries any number of sequential request/response pairs.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to a daemon at `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// [`PlatformError::Wire`] when the connection fails.
    pub fn connect(addr: &str) -> Result<Self, PlatformError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| wire(format!("cannot connect to {addr}: {e}")))?;
        // Request/response frames are small; see the matching nodelay on
        // the daemon side.
        let _ = stream.set_nodelay(true);
        Ok(ServeClient { stream })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Wire`] on transport or framing failures (typed
    /// daemon-side failures come back as [`ServeResponse::Error`], not as
    /// an `Err`).
    pub fn request(&mut self, request: &ServeRequest) -> Result<ServeResponse, PlatformError> {
        let (tag, payload) = request.encode();
        write_frame(&mut self.stream, tag, &payload)?;
        match read_frame(&mut self.stream)? {
            Some((tag, payload)) => ServeResponse::decode(tag, &payload),
            None => Err(wire("daemon closed the connection without responding")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::{Access, Addr, RegionId, RegionKind, RegionTable, TaskId, TraceWriter};

    fn tiny_trace_bytes() -> Vec<u8> {
        trace_bytes(16)
    }

    /// A one-task trace of `records` loads.
    fn trace_bytes(records: u64) -> Vec<u8> {
        let mut table = RegionTable::new();
        let task = TaskId::new(0);
        table
            .insert("t0.data", RegionKind::TaskData { task }, 4096)
            .expect("region fits");
        let mut writer = TraceWriter::new(Vec::new(), &table, 1).expect("writer opens");
        for i in 0..records {
            writer.record(
                0,
                i * 4,
                &Access::load(Addr::new(i % 8 * 64), 4, task, RegionId::new(0)),
            );
        }
        let (bytes, _) = writer.finish().expect("finish succeeds");
        bytes
    }

    fn temp_dir(label: &str) -> PathBuf {
        static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "compmem-serve-{label}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn requests_roundtrip_through_the_wire_encoding() {
        let requests = vec![
            ServeRequest::PutTrace {
                bytes: vec![1, 2, 3],
            },
            ServeRequest::Command {
                trace: 0xdead_beef,
                verb: "profile".to_string(),
                args: vec!["--l2-kb".to_string(), "32".to_string()],
            },
            ServeRequest::Stats,
            ServeRequest::Shutdown,
        ];
        for request in requests {
            let (tag, payload) = request.encode();
            assert_eq!(ServeRequest::decode(tag, &payload).unwrap(), request);
        }
    }

    #[test]
    fn responses_roundtrip_through_the_wire_encoding() {
        let responses = vec![
            ServeResponse::Output {
                bytes: b"hello".to_vec(),
            },
            ServeResponse::PutOk {
                hash: 42,
                existed: true,
            },
            ServeResponse::Stats(ServeStats {
                traces: 1,
                puts: 2,
                cache_hits: 3,
                cache_misses: 4,
                errors: 5,
            }),
            ServeResponse::ShuttingDown,
            ServeResponse::Error {
                kind: ServeErrorKind::Panic,
                message: "boom".to_string(),
            },
        ];
        for response in responses {
            let (tag, payload) = response.encode();
            assert_eq!(ServeResponse::decode(tag, &payload).unwrap(), response);
        }
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        assert!(ServeRequest::decode(0x7f, &[]).is_err());
        assert!(ServeResponse::decode(0x7f, &[]).is_err());
        // Truncated command payload.
        assert!(ServeRequest::decode(TAG_COMMAND, &[1, 2, 3]).is_err());
        // Trailing garbage.
        let (tag, mut payload) = ServeRequest::Stats.encode();
        payload.push(9);
        assert!(ServeRequest::decode(tag, &payload).is_err());
        // Oversized length field.
        let mut framed = Vec::new();
        framed.push(TAG_STATS);
        framed.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let mut reader = &framed[..];
        assert!(matches!(
            read_frame(&mut reader),
            Err(PlatformError::Wire { .. })
        ));
    }

    /// Serves `bytes` and records the largest buffer it is asked to fill.
    struct RecordingReader<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for RecordingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_bare_length_claim_allocates_one_chunk_at_most() {
        // A header claiming the largest legal frame, then three bytes and
        // EOF: the short read is a typed error, and the buffer never grew
        // past what had arrived.
        let mut framed = vec![TAG_PUT];
        framed.extend_from_slice(&MAX_FRAME_BYTES.to_be_bytes());
        framed.extend_from_slice(&[1, 2, 3]);
        let mut reader = RecordingReader {
            bytes: &framed,
            largest: 0,
        };
        match read_frame(&mut reader) {
            Err(PlatformError::Wire { message }) => assert_eq!(
                message,
                format!("connection closed mid-frame (3 of {MAX_FRAME_BYTES} payload bytes)")
            ),
            other => panic!("expected a wire error, got {other:?}"),
        }
        assert!(
            reader.largest <= FIRST_CHUNK_BYTES,
            "asked to fill {} bytes before they arrived",
            reader.largest
        );
    }

    #[test]
    fn an_oversized_command_claim_is_refused_before_its_payload() {
        // A Command header claiming 1 MiB with nothing behind it: refused
        // at the header, naming the cap, not read until EOF.
        let mut framed = vec![TAG_COMMAND];
        framed.extend_from_slice(&(1u32 << 20).to_be_bytes());
        match read_frame(&mut &framed[..]) {
            Err(PlatformError::Wire { message }) => assert_eq!(
                message,
                format!(
                    "incoming frame claims 1048576 bytes, above the \
                     {MAX_REQUEST_FRAME_BYTES}-byte cap"
                )
            ),
            other => panic!("expected a wire error, got {other:?}"),
        }
        // The sender refuses the same frame locally, writing nothing.
        let mut sent = Vec::new();
        let payload = vec![0; MAX_REQUEST_FRAME_BYTES as usize + 1];
        assert!(matches!(
            write_frame(&mut sent, TAG_COMMAND, &payload),
            Err(PlatformError::Wire { .. })
        ));
        assert!(sent.is_empty());
        // An upload of the same size is within its own cap.
        write_frame(&mut sent, TAG_PUT, &payload).unwrap();
        let (tag, read) = read_frame(&mut &sent[..]).unwrap().unwrap();
        assert_eq!((tag, read.len()), (TAG_PUT, payload.len()));
    }

    #[test]
    fn store_is_content_addressed_and_idempotent() {
        let store = CurveStore::open(temp_dir("store")).unwrap();
        let bytes = tiny_trace_bytes();
        let (hash, existed) = store.put_bytes(bytes.clone()).unwrap();
        assert!(!existed);
        let (hash2, existed2) = store.put_bytes(bytes.clone()).unwrap();
        assert_eq!(hash, hash2);
        assert!(existed2);
        assert!(store.contains(hash));
        assert_eq!(store.trace_hashes(), vec![hash]);
        let prepared = store.get(hash).unwrap();
        assert_eq!(prepared.trace().content_hash(), hash);
        assert_eq!(prepared.trace().bytes(), &bytes[..]);
        // Garbage is rejected with a typed error, not stored.
        assert!(matches!(
            store.put_bytes(vec![0; 8]),
            Err(PlatformError::Store { .. })
        ));
        assert_eq!(store.trace_hashes(), vec![hash]);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn a_second_store_sees_traces_from_disk() {
        let dir = temp_dir("reopen");
        let first = CurveStore::open(&dir).unwrap();
        let (hash, _) = first.put_bytes(tiny_trace_bytes()).unwrap();
        drop(first);
        let second = CurveStore::open(&dir).unwrap();
        assert!(second.contains(hash));
        assert_eq!(second.get(hash).unwrap().trace().content_hash(), hash);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_put_repairs_a_store_file_replaced_behind_the_store() {
        let dir = temp_dir("repair");
        let (right, wrong) = (tiny_trace_bytes(), trace_bytes(24));
        let (hash, _) = CurveStore::open(&dir)
            .unwrap()
            .put_bytes(right.clone())
            .unwrap();
        let path = dir.join(format!("{hash:016x}.cmt"));
        std::fs::write(&path, &wrong).unwrap();
        // A fresh store memoises the replaced file's decode under `hash`.
        let store = CurveStore::open(&dir).unwrap();
        assert_ne!(store.get(hash).unwrap().trace().content_hash(), hash);
        let (again, existed) = store.put_bytes(right.clone()).unwrap();
        assert_eq!(again, hash);
        assert!(!existed, "a file holding other bytes is not the upload");
        assert_eq!(std::fs::read(&path).unwrap(), right);
        assert_eq!(store.get(hash).unwrap().trace().content_hash(), hash);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A handler that echoes, fails or panics on demand — exercises the
    /// server's isolation without any scenario machinery.
    struct TestHandler;

    impl CommandHandler for TestHandler {
        fn evaluate(
            &self,
            store: &CurveStore,
            trace: u64,
            verb: &str,
            args: &[String],
        ) -> Result<(Vec<u8>, ServedFrom), CommandFailure> {
            if !store.contains(trace) {
                return Err(CommandFailure::new(
                    ServeErrorKind::UnknownTrace,
                    format!("trace {trace:016x} is not stored"),
                ));
            }
            match verb {
                "echo" => Ok((args.join(" ").into_bytes(), ServedFrom::Cache)),
                "work" => Ok((b"worked".to_vec(), ServedFrom::Pool)),
                "panic" => panic!("handler exploded on purpose"),
                other => Err(CommandFailure::new(
                    ServeErrorKind::BadRequest,
                    format!("unknown verb `{other}`"),
                )),
            }
        }
    }

    #[test]
    fn server_isolates_panics_counts_requests_and_shuts_down() {
        let store = Arc::new(CurveStore::open(temp_dir("server")).unwrap());
        let root = store.root().to_path_buf();
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), TestHandler).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let runner = std::thread::spawn(move || server.run());

        let mut client = ServeClient::connect(&addr).unwrap();
        let bytes = tiny_trace_bytes();
        let ServeResponse::PutOk { hash, existed } = client
            .request(&ServeRequest::PutTrace {
                bytes: bytes.clone(),
            })
            .unwrap()
        else {
            panic!("expected PutOk");
        };
        assert!(!existed);

        // A panicking command fails alone...
        let response = client
            .request(&ServeRequest::Command {
                trace: hash,
                verb: "panic".to_string(),
                args: vec![],
            })
            .unwrap();
        match response {
            ServeResponse::Error { kind, message } => {
                assert_eq!(kind, ServeErrorKind::Panic);
                assert!(message.contains("exploded"), "message: {message}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }

        // ...and the same connection keeps serving.
        let response = client
            .request(&ServeRequest::Command {
                trace: hash,
                verb: "echo".to_string(),
                args: vec!["a".to_string(), "b".to_string()],
            })
            .unwrap();
        assert_eq!(
            response,
            ServeResponse::Output {
                bytes: b"a b".to_vec()
            }
        );
        let response = client
            .request(&ServeRequest::Command {
                trace: hash,
                verb: "work".to_string(),
                args: vec![],
            })
            .unwrap();
        assert_eq!(
            response,
            ServeResponse::Output {
                bytes: b"worked".to_vec()
            }
        );

        // An unknown trace is a typed error.
        let response = client
            .request(&ServeRequest::Command {
                trace: hash ^ 1,
                verb: "echo".to_string(),
                args: vec![],
            })
            .unwrap();
        assert!(matches!(
            response,
            ServeResponse::Error {
                kind: ServeErrorKind::UnknownTrace,
                ..
            }
        ));

        // Counters reflect all of the above.
        let ServeResponse::Stats(stats) = client.request(&ServeRequest::Stats).unwrap() else {
            panic!("expected Stats");
        };
        assert_eq!(stats.traces, 1);
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.errors, 2);

        // Shutdown is acknowledged and run() returns cleanly.
        assert_eq!(
            client.request(&ServeRequest::Shutdown).unwrap(),
            ServeResponse::ShuttingDown
        );
        runner
            .join()
            .expect("server thread joins")
            .expect("server run() returns Ok");
        std::fs::remove_dir_all(root).unwrap();
    }
}
