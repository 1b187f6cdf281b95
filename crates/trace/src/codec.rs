//! The binary trace IR: compact record/replay encoding of access streams.
//!
//! Recording an application once and replaying the encoded trace many times
//! is how organisation sweeps avoid re-executing the workload functionally.
//! This module defines the on-disk / in-memory intermediate representation
//! (IR) of such traces, the streaming [`TraceWriter`] / [`TraceReader`]
//! pair, and the self-contained in-memory [`EncodedTrace`].
//!
//! # IR layout
//!
//! A trace is one byte stream:
//!
//! ```text
//! header  := magic "CMTR" | version u8 (=3) | region table | varint processors
//! regions := varint count | { varint name_len | name bytes
//!                            | kind tag u8 | [varint task-or-buffer id]
//!                            | varint size }*
//! body    := { record }* | END
//! record  := DEF_TASK   (0x01) varint raw_task_id
//!          | DEF_REGION (0x02) varint raw_region_id
//!          | RUN        (0x03) varint processor | zigzag cycle_delta
//!          | ACCESS     (0x80|flags) …
//! END     := 0x00
//! ```
//!
//! Nothing follows `END`. The codec context — both dictionaries, the
//! previous address/cycle/task/region/size and the current processor —
//! runs from the first record to `END` without a reset, so a trace
//! decodes in one pass from its header.
//!
//! Version 3 is the only version read or written; any other version byte
//! is [`CodecError::UnsupportedVersion`].
//!
//! An `ACCESS` tag byte has bit 7 set; bits 0–1 carry the
//! [`AccessKind`] (0 = ifetch, 1 = load, 2 = store) and bit 2 is the
//! *context-repeat* flag. When the flag is clear, the record continues with
//! the task dictionary index, the region dictionary index and the access
//! size (all varint); when it is set, task, region and size are inherited
//! from the previous access. Every access then stores its address as a
//! zigzag-encoded delta from the previous access's address, and its cycle
//! as a plain varint gap from the previous cycle of the same run.
//!
//! Tasks and regions are *dictionary* encoded: the first time a raw
//! [`TaskId`] / [`RegionId`] appears, the writer emits a `DEF_TASK` /
//! `DEF_REGION` record appending it to the (dense) dictionary, and all
//! later references are small dictionary indices. A `RUN` record starts a
//! new *run* — a maximal stretch of accesses issued by one processor in
//! recorded order — and re-anchors the cycle clock with a signed delta, so
//! interleaved per-processor streams with locally monotone clocks encode
//! compactly.
//!
//! The header embeds the application's [`RegionTable`] (regions are
//! rebuilt by replaying `insert` calls, which reproduces identical base
//! addresses), so an encoded trace is a *self-contained scenario*: the
//! partitioned L2 organisations can be built against `trace.table()`
//! without the original application.
//!
//! Decoding is strict: every branch is bounds-checked and corrupt input is
//! reported as a [`CodecError`], never a panic.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::access::{Access, AccessKind};
use crate::addr::Addr;
use crate::region::{BufferId, RegionId, RegionKind, RegionTable, TaskId};

/// Magic bytes opening every encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"CMTR";
/// Version of the trace IR: one record stream from the header to END.
pub const TRACE_VERSION: u8 = 3;

/// Monotonic discriminator for atomic-write temp file names, so
/// concurrent writers within one process never collide.
static ATOMIC_WRITE_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Writes `bytes` to `path` atomically: a uniquely named temp file in the
/// same directory, then a rename. A concurrent reader observes the old
/// contents or the new contents, never a torn mixture — the property the
/// `compmem serve` curve store relies on when many clients write traces
/// and sidecars at once.
///
/// # Errors
///
/// Propagates the I/O error of the write or the rename (the temp file is
/// removed on a failed rename).
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let n = ATOMIC_WRITE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    name.push_str(&format!(".tmp-{}-{n}", std::process::id()));
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

const TAG_END: u8 = 0x00;
const TAG_DEF_TASK: u8 = 0x01;
const TAG_DEF_REGION: u8 = 0x02;
const TAG_RUN: u8 = 0x03;
const TAG_ACCESS: u8 = 0x80;
const FLAG_REPEAT: u8 = 0x04;

/// Longest legal LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: u32 = 10;

/// Most bytes one [`TraceWriter::record`] call writes: a run header (tag,
/// processor, cycle delta), a task and a region definition (tag, id), and
/// an access (tag, task and region indices, size, address and cycle
/// deltas).
pub(crate) const MAX_RECORD_BYTES: usize = (1 + 5 + 10) + 2 * (1 + 5) + (1 + 5 + 5 + 3 + 10 + 10);

/// Errors produced while encoding or decoding traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// An I/O error from the underlying reader or writer.
    Io(std::io::Error),
    /// The stream does not start with the trace magic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The stream's version is not supported by this reader.
    UnsupportedVersion {
        /// The version actually found.
        found: u8,
    },
    /// The stream is malformed.
    Corrupt {
        /// What was wrong.
        reason: &'static str,
    },
    /// A record referenced a dictionary entry that was never defined.
    UndefinedDictionaryEntry {
        /// `"task"` or `"region"`.
        kind: &'static str,
        /// The out-of-range dictionary index.
        index: u64,
    },
    /// The embedded region table could not be rebuilt.
    Region(crate::error::TraceError),
    /// The writer was asked for a trace the reader would refuse: a region
    /// table past the reader's bounds, or an access naming a region
    /// outside the table.
    Unencodable {
        /// What could not be encoded.
        reason: &'static str,
    },
    /// The stream does not start with the curve-sidecar magic (it is not a
    /// `.curves` file).
    BadSidecarMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// A curve sidecar is well-formed but does not belong to the trace (or
    /// the profiling configuration) it was loaded for.
    SidecarMismatch {
        /// Which header field differed (`"trace hash"`,
        /// `"l1 configuration"`, `"resolution"`, `"window config"`).
        field: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "trace i/o error: {e}"),
            CodecError::BadMagic { found } => {
                write!(f, "not a compmem trace (magic {found:02x?})")
            }
            CodecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (expected {TRACE_VERSION})"
                )
            }
            CodecError::Corrupt { reason } => write!(f, "corrupt trace: {reason}"),
            CodecError::UndefinedDictionaryEntry { kind, index } => {
                write!(
                    f,
                    "corrupt trace: undefined {kind} dictionary entry {index}"
                )
            }
            CodecError::Region(e) => write!(f, "corrupt trace: invalid region table: {e}"),
            CodecError::Unencodable { reason } => write!(f, "cannot encode trace: {reason}"),
            CodecError::BadSidecarMagic { found } => {
                write!(f, "not a compmem curve sidecar (magic {found:02x?})")
            }
            CodecError::SidecarMismatch { field } => {
                write!(f, "curve sidecar does not match the trace: {field} differs")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::Region(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(value: std::io::Error) -> Self {
        CodecError::Io(value)
    }
}

impl From<crate::error::TraceError> for CodecError {
    fn from(value: crate::error::TraceError) -> Self {
        CodecError::Region(value)
    }
}

// ----- varint / zigzag primitives (shared with the curve sidecar codec) -----

pub(crate) fn write_varint<W: Write>(w: &mut W, mut value: u64) -> std::io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn write_zigzag<W: Write>(w: &mut W, value: i64) -> std::io::Result<()> {
    write_varint(w, ((value << 1) ^ (value >> 63)) as u64)
}

/// Why a byte-level read failed: the reason of a
/// [`CodecError::Corrupt`], small enough that the decode hot path returns
/// it in registers; `?` converts it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Corrupt(pub(crate) &'static str);

impl From<Corrupt> for CodecError {
    #[cold]
    fn from(value: Corrupt) -> Self {
        CodecError::Corrupt { reason: value.0 }
    }
}

/// A byte cursor over an in-memory trace or sidecar.
///
/// Every reader decodes a slice it already holds, so the cursor reads the
/// slice in place: a byte is one bounds check, with no copy into a block
/// buffer and no I/O error path. Shared with the curve sidecar codec
/// (`crate::curves`), which has the same decoding needs.
#[derive(Debug, Clone)]
pub(crate) struct ByteSource<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteSource<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteSource { bytes, pos: 0 }
    }

    #[inline]
    pub(crate) fn next_byte(&mut self) -> Option<u8> {
        let byte = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    #[inline]
    pub(crate) fn require_byte(&mut self) -> Result<u8, Corrupt> {
        self.next_byte().ok_or(Corrupt("unexpected end of stream"))
    }

    pub(crate) fn read_exact(&mut self, out: &mut [u8]) -> Result<(), Corrupt> {
        let end = self
            .pos
            .checked_add(out.len())
            .filter(|&end| end <= self.bytes.len())
            .ok_or(Corrupt("unexpected end of stream"))?;
        out.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(())
    }

    /// Returns `true` if any byte remains (used to reject trailing
    /// garbage).
    pub(crate) fn has_more(&self) -> bool {
        self.pos < self.bytes.len()
    }

    /// Reads an LEB128 varint. Its tenth byte can only carry bit 63, so a
    /// larger tenth byte, or an eleventh, overflows `u64`; the check sits
    /// off the common path of short varints.
    #[inline]
    pub(crate) fn read_varint(&mut self) -> Result<u64, Corrupt> {
        const LAST_SHIFT: u32 = 7 * (MAX_VARINT_BYTES - 1);
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.require_byte()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if shift == LAST_SHIFT && byte > 1 {
                    return Err(Corrupt("varint overflows 64 bits"));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > LAST_SHIFT {
                return Err(Corrupt("varint overflows 64 bits"));
            }
        }
    }

    #[inline]
    fn read_zigzag(&mut self) -> Result<i64, Corrupt> {
        let raw = self.read_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }
}

// ----- region table embedding -----

fn kind_tag(kind: RegionKind) -> (u8, Option<u64>) {
    match kind {
        RegionKind::TaskCode { task } => (0, Some(task.index() as u64)),
        RegionKind::TaskData { task } => (1, Some(task.index() as u64)),
        RegionKind::TaskBss { task } => (2, Some(task.index() as u64)),
        RegionKind::TaskHeap { task } => (3, Some(task.index() as u64)),
        RegionKind::TaskStack { task } => (4, Some(task.index() as u64)),
        RegionKind::Fifo { buffer } => (5, Some(buffer.index() as u64)),
        RegionKind::FrameBuffer { buffer } => (6, Some(buffer.index() as u64)),
        RegionKind::AppData => (7, None),
        RegionKind::AppBss => (8, None),
        RegionKind::RtData => (9, None),
        RegionKind::RtBss => (10, None),
    }
}

fn kind_from_tag(tag: u8, r: &mut ByteSource<'_>) -> Result<RegionKind, CodecError> {
    let id = |r: &mut ByteSource<'_>| -> Result<u32, CodecError> {
        u32::try_from(r.read_varint()?).map_err(|_| CodecError::Corrupt {
            reason: "region-kind owner id exceeds 32 bits",
        })
    };
    Ok(match tag {
        0 => RegionKind::TaskCode {
            task: TaskId::new(id(r)?),
        },
        1 => RegionKind::TaskData {
            task: TaskId::new(id(r)?),
        },
        2 => RegionKind::TaskBss {
            task: TaskId::new(id(r)?),
        },
        3 => RegionKind::TaskHeap {
            task: TaskId::new(id(r)?),
        },
        4 => RegionKind::TaskStack {
            task: TaskId::new(id(r)?),
        },
        5 => RegionKind::Fifo {
            buffer: BufferId::new(id(r)?),
        },
        6 => RegionKind::FrameBuffer {
            buffer: BufferId::new(id(r)?),
        },
        7 => RegionKind::AppData,
        8 => RegionKind::AppBss,
        9 => RegionKind::RtData,
        10 => RegionKind::RtBss,
        _ => {
            return Err(CodecError::Corrupt {
                reason: "unknown region-kind tag",
            })
        }
    })
}

/// Most regions a trace header may embed. A region costs at least 3
/// bytes; a reader meeting a larger count calls it corrupt rather than
/// allocate for it, and the writer refuses such a table.
const MAX_REGIONS: u64 = 1_000_000;
/// Longest region name, in bytes, a trace header may embed.
const MAX_REGION_NAME_BYTES: usize = 4096;

fn write_region_table<W: Write>(w: &mut W, table: &RegionTable) -> std::io::Result<()> {
    write_varint(w, table.len() as u64)?;
    for region in table.iter() {
        write_varint(w, region.name.len() as u64)?;
        w.write_all(region.name.as_bytes())?;
        let (tag, payload) = kind_tag(region.kind);
        w.write_all(&[tag])?;
        if let Some(id) = payload {
            write_varint(w, id)?;
        }
        write_varint(w, region.size)?;
    }
    Ok(())
}

fn read_region_table(r: &mut ByteSource<'_>) -> Result<RegionTable, CodecError> {
    let count = r.read_varint()?;
    if count > MAX_REGIONS {
        return Err(CodecError::Corrupt {
            reason: "implausible region count",
        });
    }
    let mut table = RegionTable::new();
    for _ in 0..count {
        let name_len = r.read_varint()? as usize;
        if name_len > MAX_REGION_NAME_BYTES {
            return Err(CodecError::Corrupt {
                reason: "implausible region name length",
            });
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| CodecError::Corrupt {
            reason: "region name is not UTF-8",
        })?;
        let tag = r.require_byte()?;
        let kind = kind_from_tag(tag, r)?;
        let size = r.read_varint()?;
        // `insert` re-derives the identical base address (bases are the
        // running sum of line-rounded sizes), so the rebuilt table matches
        // the recorded one bit for bit.
        table.insert(name, kind, size)?;
    }
    Ok(table)
}

// ----- records -----

/// One decoded trace record: an access with its issue attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Processor that issued the access.
    pub processor: u32,
    /// Cycle at which the access issued.
    pub cycle: u64,
    /// The access itself.
    pub access: Access,
}

/// The one rule grouping decoded records into *runs*: maximal stretches
/// of accesses issued by one processor in recorded order.
///
/// A processor change starts a run. A clock regression on the same
/// processor does not: the encoder writes a `RUN` record there only to
/// re-anchor the cycle clock, so the stretch stays one run. The trace
/// summary counts runs by this rule and the L1 filter of
/// `compmem-platform` splits its refill stream by it, so the two never
/// disagree.
///
/// ```
/// use compmem_trace::codec::{EncodedTrace, RunSplitter, TraceWriter};
/// use compmem_trace::{Access, Addr, RegionId, RegionKind, RegionTable, TaskId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut table = RegionTable::new();
/// let task = TaskId::new(0);
/// table.insert("t0.data", RegionKind::TaskData { task }, 4096)?;
/// let access = Access::load(Addr::new(0), 4, task, RegionId::new(0));
/// let mut writer = TraceWriter::new(Vec::new(), &table, 2)?;
/// writer.record(0, 100, &access);
/// writer.record(1, 50, &access); // a processor change: a new run
/// writer.record(1, 40, &access); // a clock regression: the same run
/// let (bytes, _) = writer.finish()?;
/// let trace = EncodedTrace::from_bytes(bytes)?;
///
/// let mut splitter = RunSplitter::default();
/// let mut starts = Vec::new();
/// for record in trace.reader() {
///     let record = record?;
///     if splitter.starts_run(&record) {
///         starts.push(record.cycle);
///     }
/// }
/// assert_eq!(starts, [100, 50]);
/// assert_eq!(trace.summary().runs, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSplitter {
    processor: Option<u32>,
}

impl RunSplitter {
    /// Whether `record`, the next record in recorded order, starts a new
    /// run.
    #[inline]
    pub fn starts_run(&mut self, record: &TraceRecord) -> bool {
        self.starts_run_on(record.processor)
    }

    /// [`starts_run`](RunSplitter::starts_run) for the next access,
    /// issued by `processor`: the rule reads nothing else of a record, so
    /// the writer applies it to what it encodes.
    #[inline]
    fn starts_run_on(&mut self, processor: u32) -> bool {
        let starts = self.processor != Some(processor);
        self.processor = Some(processor);
        starts
    }
}

/// Counters describing an encoded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total accesses encoded.
    pub accesses: u64,
    /// Number of runs (contiguous same-processor stretches, split by
    /// [`RunSplitter`]).
    pub runs: u64,
    /// Number of processors the trace was recorded on.
    pub processors: u32,
    /// Encoded size in bytes (body and header).
    pub encoded_bytes: u64,
}

impl TraceSummary {
    /// Average encoded bytes per access (the raw in-memory record is 32 B).
    pub fn bytes_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / self.accesses as f64
        }
    }
}

struct EncodeContext {
    task_dict: HashMap<u32, u64>,
    region_dict: HashMap<u32, u64>,
    prev_addr: u64,
    prev_cycle: u64,
    prev_task: Option<TaskId>,
    prev_region: Option<RegionId>,
    prev_size: u16,
    current_processor: Option<u32>,
}

impl EncodeContext {
    fn new() -> Self {
        EncodeContext {
            task_dict: HashMap::new(),
            region_dict: HashMap::new(),
            prev_addr: 0,
            prev_cycle: 0,
            prev_task: None,
            prev_region: None,
            prev_size: 0,
            current_processor: None,
        }
    }
}

/// Streaming encoder of the trace IR.
///
/// `record` is infallible by signature so the writer can sit behind hot
/// recording paths; the first error poisons the writer and is surfaced by
/// [`finish`](TraceWriter::finish). The writer refuses what the reader
/// would refuse — a region table past the reader's bounds at
/// [`new`](TraceWriter::new), an access naming a region outside the table
/// at [`finish`](TraceWriter::finish) — so every stream it finishes
/// decodes without error.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    ctx: EncodeContext,
    summary: TraceSummary,
    /// The embedded region table, which every region an access names must
    /// be in.
    table: RegionTable,
    /// The [`RunSplitter`] rule applied to what is encoded, and the runs
    /// it counted: the count an [`EncodedTrace`] summary holds
    /// (`summary.runs` counts RUN records, clock re-anchors included).
    splitter: RunSplitter,
    split_runs: u64,
    error: Option<CodecError>,
}

impl std::fmt::Debug for EncodeContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodeContext")
            .field("tasks", &self.task_dict.len())
            .field("regions", &self.region_dict.len())
            .finish()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the header (magic, version, the embedded
    /// region table and the processor count) to `inner`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Unencodable`] for a table the reader would
    /// refuse (more than 1,000,000 regions, or a name longer than 4096
    /// bytes), and the underlying I/O error if the header cannot be
    /// written.
    pub fn new(mut inner: W, table: &RegionTable, processors: u32) -> Result<Self, CodecError> {
        if table.len() as u64 > MAX_REGIONS {
            return Err(CodecError::Unencodable {
                reason: "a region table of more than 1000000 regions",
            });
        }
        if table
            .iter()
            .any(|region| region.name.len() > MAX_REGION_NAME_BYTES)
        {
            return Err(CodecError::Unencodable {
                reason: "a region name longer than 4096 bytes",
            });
        }
        inner.write_all(&TRACE_MAGIC)?;
        inner.write_all(&[TRACE_VERSION])?;
        write_region_table(&mut inner, table)?;
        write_varint(&mut inner, u64::from(processors))?;
        Ok(TraceWriter {
            inner,
            ctx: EncodeContext::new(),
            summary: TraceSummary {
                processors,
                ..TraceSummary::default()
            },
            table: table.clone(),
            splitter: RunSplitter::default(),
            split_runs: 0,
            error: None,
        })
    }

    /// The sink the writer encodes into.
    pub(crate) fn sink_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Records one access issued by `processor` at `cycle`.
    pub fn record(&mut self, processor: u32, cycle: u64, access: &Access) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.encode(processor, cycle, access) {
            self.error = Some(e);
        }
    }

    /// Records a whole batch of accesses issued by `processor` starting at
    /// `cycle` (they share the batch's issue cycle).
    pub fn record_all(&mut self, processor: u32, cycle: u64, accesses: &[Access]) {
        for access in accesses {
            self.record(processor, cycle, access);
        }
    }

    fn encode(&mut self, processor: u32, cycle: u64, access: &Access) -> Result<(), CodecError> {
        self.split_runs += u64::from(self.splitter.starts_run_on(processor));
        // A processor change — or a clock that moved backwards, which plain
        // varint gaps cannot express — opens a new run.
        if self.ctx.current_processor != Some(processor) || cycle < self.ctx.prev_cycle {
            self.inner.write_all(&[TAG_RUN])?;
            write_varint(&mut self.inner, u64::from(processor))?;
            write_zigzag(
                &mut self.inner,
                cycle.wrapping_sub(self.ctx.prev_cycle) as i64,
            )?;
            self.ctx.current_processor = Some(processor);
            self.ctx.prev_cycle = cycle;
            self.summary.runs += 1;
        }

        let task_raw = access.task.index() as u32;
        if !self.ctx.task_dict.contains_key(&task_raw) {
            let idx = self.ctx.task_dict.len() as u64;
            self.ctx.task_dict.insert(task_raw, idx);
            self.inner.write_all(&[TAG_DEF_TASK])?;
            write_varint(&mut self.inner, u64::from(task_raw))?;
        }
        let region_raw = access.region.index() as u32;
        if !self.ctx.region_dict.contains_key(&region_raw) {
            // The reader's check of every DEF_REGION record, made here so
            // a finished stream never fails it.
            if region_raw as usize >= self.table.len() {
                return Err(CodecError::Unencodable {
                    reason: "an access names a region outside the embedded region table",
                });
            }
            let idx = self.ctx.region_dict.len() as u64;
            self.ctx.region_dict.insert(region_raw, idx);
            self.inner.write_all(&[TAG_DEF_REGION])?;
            write_varint(&mut self.inner, u64::from(region_raw))?;
        }

        let kind_bits = match access.kind {
            AccessKind::InstrFetch => 0u8,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        let repeat = self.ctx.prev_task == Some(access.task)
            && self.ctx.prev_region == Some(access.region)
            && self.ctx.prev_size == access.size;
        let mut tag = TAG_ACCESS | kind_bits;
        if repeat {
            tag |= FLAG_REPEAT;
        }
        self.inner.write_all(&[tag])?;
        if !repeat {
            write_varint(&mut self.inner, self.ctx.task_dict[&task_raw])?;
            write_varint(&mut self.inner, self.ctx.region_dict[&region_raw])?;
            write_varint(&mut self.inner, u64::from(access.size))?;
        }
        write_zigzag(
            &mut self.inner,
            access.addr.value().wrapping_sub(self.ctx.prev_addr) as i64,
        )?;
        write_varint(&mut self.inner, cycle - self.ctx.prev_cycle)?;

        self.ctx.prev_addr = access.addr.value();
        self.ctx.prev_cycle = cycle;
        self.ctx.prev_task = Some(access.task);
        self.ctx.prev_region = Some(access.region);
        self.ctx.prev_size = access.size;
        self.summary.accesses += 1;
        Ok(())
    }

    /// Terminates the stream with its END record and returns the writer
    /// together with the summary counters (`runs` counts the RUN records
    /// written, clock re-anchors included, and `encoded_bytes` is zero).
    ///
    /// # Errors
    ///
    /// Surfaces the first error hit while recording (an I/O error, or
    /// [`CodecError::Unencodable`] for an access naming a region outside
    /// the table), or the final flush error.
    pub fn finish(mut self) -> Result<(W, TraceSummary), CodecError> {
        self.end()?;
        Ok((self.inner, self.summary))
    }

    /// Surfaces the first recording error, else writes END and flushes.
    fn end(&mut self) -> Result<(), CodecError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.inner.write_all(&[TAG_END])?;
        self.inner.flush()?;
        Ok(())
    }
}

impl TraceWriter<Vec<u8>> {
    /// Terminates an in-memory stream and returns it as an
    /// [`EncodedTrace`] without decoding what was just encoded.
    ///
    /// The writer refused everything the reader would refuse, so the
    /// trace keeps the guarantee of [`EncodedTrace::from_bytes`], whose
    /// result it equals in bytes, table and summary: the summary counts
    /// runs by the [`RunSplitter`] rule and takes `encoded_bytes` from the
    /// buffer.
    ///
    /// # Errors
    ///
    /// As for [`finish`](TraceWriter::finish).
    pub fn finish_trace(mut self) -> Result<EncodedTrace, CodecError> {
        self.end()?;
        let summary = TraceSummary {
            runs: self.split_runs,
            encoded_bytes: self.inner.len() as u64,
            ..self.summary
        };
        Ok(EncodedTrace {
            bytes: self.inner,
            table: self.table,
            summary,
            hash: OnceLock::new(),
        })
    }
}

/// Streaming decoder of the trace IR, reading an in-memory byte slice.
#[derive(Debug)]
pub struct TraceReader<'a> {
    inner: ByteSource<'a>,
    table: RegionTable,
    processors: u32,
    task_dict: Vec<TaskId>,
    region_dict: Vec<RegionId>,
    prev_addr: u64,
    prev_cycle: u64,
    prev_task: Option<TaskId>,
    prev_region: Option<RegionId>,
    prev_size: u16,
    current_processor: Option<u32>,
    done: bool,
}

impl<'a> TraceReader<'a> {
    /// Opens a trace: parses and validates the header.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a wrong magic or version, or a
    /// truncated or corrupt header.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut inner = ByteSource::new(bytes);
        let mut magic = [0u8; 4];
        inner
            .read_exact(&mut magic)
            .map_err(|_| CodecError::Corrupt {
                reason: "stream shorter than the magic",
            })?;
        if magic != TRACE_MAGIC {
            return Err(CodecError::BadMagic { found: magic });
        }
        let version = inner.require_byte()?;
        if version != TRACE_VERSION {
            return Err(CodecError::UnsupportedVersion { found: version });
        }
        let table = read_region_table(&mut inner)?;
        let processors = u32::try_from(inner.read_varint()?).map_err(|_| CodecError::Corrupt {
            reason: "processor count exceeds 32 bits",
        })?;
        Ok(TraceReader {
            inner,
            table,
            processors,
            task_dict: Vec::new(),
            region_dict: Vec::new(),
            prev_addr: 0,
            prev_cycle: 0,
            prev_task: None,
            prev_region: None,
            prev_size: 0,
            current_processor: None,
            done: false,
        })
    }

    /// The region table embedded in the trace header.
    pub fn table(&self) -> &RegionTable {
        &self.table
    }

    /// Number of processors the trace was recorded on.
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// Decodes the next access record, or `None` at the end of the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on corrupt input; the reader is then
    /// exhausted.
    #[inline]
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, CodecError> {
        if self.done {
            return Ok(None);
        }
        let next = self.decode_next();
        if !matches!(next, Ok(Some(_))) {
            self.done = true;
        }
        next
    }

    #[inline]
    fn decode_next(&mut self) -> Result<Option<TraceRecord>, CodecError> {
        loop {
            let tag = self
                .inner
                .next_byte()
                .ok_or(Corrupt("stream ends without an END record"))?;
            if tag & TAG_ACCESS != 0 {
                return self.decode_access(tag).map(Some);
            }
            match tag {
                TAG_RUN => {
                    let processor = u32::try_from(self.inner.read_varint()?)
                        .map_err(|_| Corrupt("processor id exceeds 32 bits"))?;
                    let delta = self.inner.read_zigzag()?;
                    self.current_processor = Some(processor);
                    self.prev_cycle = self.prev_cycle.wrapping_add(delta as u64);
                }
                TAG_END => return Ok(None),
                TAG_DEF_TASK => {
                    let raw = u32::try_from(self.inner.read_varint()?)
                        .map_err(|_| Corrupt("task id exceeds 32 bits"))?;
                    self.task_dict.push(TaskId::new(raw));
                }
                TAG_DEF_REGION => {
                    let raw = u32::try_from(self.inner.read_varint()?)
                        .map_err(|_| Corrupt("region id exceeds 32 bits"))?;
                    // A trace is a self-contained scenario: every region an
                    // access names must exist in the embedded table, or
                    // consumers indexing per-region state (the profiler)
                    // would be handed a bogus index.
                    if raw as usize >= self.table.len() {
                        return Err(Corrupt("region id outside the embedded region table").into());
                    }
                    self.region_dict.push(RegionId::new(raw));
                }
                _ => return Err(Corrupt("unknown record tag").into()),
            }
        }
    }

    #[inline]
    fn decode_access(&mut self, tag: u8) -> Result<TraceRecord, CodecError> {
        let processor = self
            .current_processor
            .ok_or(Corrupt("access before any RUN record"))?;
        let kind = match tag & 0x03 {
            0 => AccessKind::InstrFetch,
            1 => AccessKind::Load,
            2 => AccessKind::Store,
            _ => return Err(Corrupt("invalid access kind").into()),
        };
        let (task, region, size) = if tag & FLAG_REPEAT != 0 {
            match (self.prev_task, self.prev_region) {
                (Some(t), Some(r)) => (t, r, self.prev_size),
                _ => return Err(Corrupt("context-repeat access with no previous access").into()),
            }
        } else {
            let task_idx = self.inner.read_varint()?;
            let Some(&task) = self.task_dict.get(task_idx as usize) else {
                return Err(undefined("task", task_idx));
            };
            let region_idx = self.inner.read_varint()?;
            let Some(&region) = self.region_dict.get(region_idx as usize) else {
                return Err(undefined("region", region_idx));
            };
            let size = u16::try_from(self.inner.read_varint()?)
                .map_err(|_| Corrupt("access size exceeds 16 bits"))?;
            (task, region, size)
        };
        let addr_delta = self.inner.read_zigzag()?;
        let addr = self.prev_addr.wrapping_add(addr_delta as u64);
        let gap = self.inner.read_varint()?;
        let cycle = self
            .prev_cycle
            .checked_add(gap)
            .ok_or(Corrupt("cycle counter overflows"))?;

        self.prev_addr = addr;
        self.prev_cycle = cycle;
        self.prev_task = Some(task);
        self.prev_region = Some(region);
        self.prev_size = size;

        let access = Access {
            addr: Addr::new(addr),
            kind,
            size,
            task,
            region,
        };
        Ok(TraceRecord {
            processor,
            cycle,
            access,
        })
    }
}

#[cold]
fn undefined(kind: &'static str, index: u64) -> CodecError {
    CodecError::UndefinedDictionaryEntry { kind, index }
}

impl Iterator for TraceReader<'_> {
    type Item = Result<TraceRecord, CodecError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// A complete encoded trace held in memory: the self-contained scenario the
/// replay pipeline and the organisation sweeps consume.
///
/// Every `EncodedTrace` decodes without error, so holders can stream it
/// without error handling surprises. Bytes from outside are validated
/// record by record by [`from_bytes`](EncodedTrace::from_bytes) (a
/// corrupt byte string is rejected with a [`CodecError`], never a panic);
/// a caller with work to do on every record hands it to that same pass
/// with [`from_bytes_visiting`](EncodedTrace::from_bytes_visiting) instead
/// of decoding the trace a second time. Bytes a [`TraceWriter`] just
/// encoded need no second look: [`TraceWriter::finish_trace`] builds the
/// trace from the writer's own counts.
///
/// It keeps the bytes and the summary, never the decoded accesses: a
/// consumer streams them from the bytes with
/// [`reader`](EncodedTrace::reader), or visits them while they are
/// validated — the L1 filter of `compmem-platform` does one or the other
/// once per L1 configuration — so a trace costs its encoded size in
/// memory, not its decoded size.
#[derive(Debug, Clone)]
pub struct EncodedTrace {
    bytes: Vec<u8>,
    table: RegionTable,
    summary: TraceSummary,
    /// The [`content_hash`](EncodedTrace::content_hash) of `bytes`,
    /// computed from them on first use and never set any other way.
    hash: OnceLock<u64>,
}

/// Equality is over the encoded bytes (the table and summary derive from
/// them).
impl PartialEq for EncodedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for EncodedTrace {}

impl EncodedTrace {
    /// Validates `bytes` as a complete trace stream: one decoding pass
    /// over every record, which keeps nothing decoded (it is
    /// [`from_bytes_visiting`](EncodedTrace::from_bytes_visiting) with a
    /// visitor that does nothing).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is truncated, corrupt, of an
    /// unsupported version or has trailing garbage after its END record.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CodecError> {
        Self::from_bytes_visiting(bytes, |_| |_: &TraceRecord| {})
    }

    /// Validates `bytes` exactly as [`from_bytes`](EncodedTrace::from_bytes)
    /// does — it is the one validating pass — and hands every record, in
    /// recorded order, to a visitor as it is decoded.
    ///
    /// `start` sees the processor count of the validated header and
    /// returns the visitor. The visitor cannot stop the pass: a corrupt
    /// stream fails with the same error at the same record whatever it
    /// does, and it has seen every record before the failing one.
    ///
    /// ```
    /// use compmem_trace::codec::{EncodedTrace, TraceRecord, TraceWriter};
    /// use compmem_trace::{Access, Addr, RegionId, RegionKind, RegionTable, TaskId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut table = RegionTable::new();
    /// let task = TaskId::new(0);
    /// table.insert("t0.data", RegionKind::TaskData { task }, 4096)?;
    /// let mut writer = TraceWriter::new(Vec::new(), &table, 2)?;
    /// for i in 0..8u64 {
    ///     let access = Access::load(Addr::new(i * 64), 4, task, RegionId::new(0));
    ///     writer.record((i % 2) as u32, i, &access);
    /// }
    /// let (bytes, _) = writer.finish()?;
    ///
    /// let mut per_processor = Vec::new();
    /// let trace = EncodedTrace::from_bytes_visiting(bytes, |processors| {
    ///     per_processor = vec![0u64; processors as usize];
    ///     |record: &TraceRecord| per_processor[record.processor as usize] += 1
    /// })?;
    /// assert_eq!(per_processor, [4, 4]);
    /// assert_eq!(trace.accesses(), 8);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`from_bytes`](EncodedTrace::from_bytes).
    pub fn from_bytes_visiting<V: FnMut(&TraceRecord)>(
        bytes: Vec<u8>,
        start: impl FnOnce(u32) -> V,
    ) -> Result<Self, CodecError> {
        let mut reader = TraceReader::new(&bytes)?;
        let mut visit = start(reader.processors);
        // One pass validates every record and counts what the summary
        // needs; only the visitor sees what was decoded.
        let mut splitter = RunSplitter::default();
        let (mut accesses, mut runs) = (0u64, 0u64);
        while let Some(record) = reader.next_record()? {
            accesses += 1;
            runs += u64::from(splitter.starts_run(&record));
            visit(&record);
        }
        if reader.inner.has_more() {
            return Err(CodecError::Corrupt {
                reason: "trailing bytes after END record",
            });
        }
        let processors = reader.processors;
        let table = reader.table;
        let encoded_bytes = bytes.len() as u64;
        Ok(EncodedTrace {
            bytes,
            table,
            summary: TraceSummary {
                accesses,
                runs,
                processors,
                encoded_bytes,
            },
            hash: OnceLock::new(),
        })
    }

    /// Encodes a flat access stream attributed to one processor at cycle
    /// gaps of one (a convenience for tests and synthetic scenarios).
    ///
    /// # Errors
    ///
    /// Propagates encoder errors: [`CodecError::Unencodable`] for a table
    /// past the reader's bounds or an access naming a region outside it.
    pub fn from_accesses(table: &RegionTable, accesses: &[Access]) -> Result<Self, CodecError> {
        let mut writer = TraceWriter::new(Vec::new(), table, 1)?;
        for (i, access) in accesses.iter().enumerate() {
            writer.record(0, i as u64, access);
        }
        writer.finish_trace()
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Version of the trace IR this trace was encoded with.
    pub fn version(&self) -> u8 {
        // Validated at construction; byte 4 follows the 4-byte magic.
        self.bytes[4]
    }

    /// Content hash of the encoded bytes — the identity a curve sidecar
    /// (see [`crate::curves`]) embeds to prove it was measured over this
    /// trace.
    ///
    /// It is [`trace_content_hash`](crate::curves::trace_content_hash) of
    /// [`bytes`](EncodedTrace::bytes), computed once per decoded trace (a
    /// clone taken after the first call copies the result): every later
    /// call, and so every later sidecar check on this trace, reads the
    /// memo instead of passing over the bytes again. Nothing else can set
    /// it — not a file name, not a caller — so a sidecar check always
    /// compares against the bytes actually held.
    pub fn content_hash(&self) -> u64 {
        *self
            .hash
            .get_or_init(|| crate::curves::trace_content_hash(&self.bytes))
    }

    /// The region table embedded in the trace.
    pub fn table(&self) -> &RegionTable {
        &self.table
    }

    /// Counters describing the trace.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// Number of processors the trace was recorded on.
    pub fn processors(&self) -> u32 {
        self.summary.processors
    }

    /// Total number of accesses in the trace.
    pub fn accesses(&self) -> u64 {
        self.summary.accesses
    }

    /// Returns `true` if the trace contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.summary.accesses == 0
    }

    /// Opens a streaming reader over the encoded bytes. The trace was
    /// validated at construction, so the reader yields every record
    /// without error.
    pub fn reader(&self) -> TraceReader<'_> {
        TraceReader::new(&self.bytes).expect("validated at construction")
    }

    /// Writes the encoded bytes to a file (atomically: temp file +
    /// rename, so a concurrent reader never observes a torn trace).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), CodecError> {
        write_file_atomic(path.as_ref(), &self.bytes).map_err(CodecError::Io)
    }

    /// Reads and validates an encoded trace from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        Self::from_bytes(std::fs::read(path).map_err(CodecError::Io)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{looping, strided, StreamParams};

    #[test]
    fn atomic_writes_replace_files_whole() {
        let dir = std::env::temp_dir().join(format!("compmem-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.bin");
        write_file_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_file_atomic(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn table() -> RegionTable {
        let mut t = RegionTable::new();
        t.insert(
            "t0.data",
            RegionKind::TaskData {
                task: TaskId::new(0),
            },
            8 * 1024,
        )
        .unwrap();
        t.insert(
            "fifo.x",
            RegionKind::Fifo {
                buffer: BufferId::new(0),
            },
            1024,
        )
        .unwrap();
        t
    }

    fn sample_accesses(t: &RegionTable) -> Vec<Access> {
        let r0 = t.regions()[0].id;
        let mut out = looping(
            StreamParams::for_region(t.region(r0), TaskId::new(0)),
            4 * 1024,
            64,
            2,
        );
        out.extend(strided(
            StreamParams::for_region(&t.regions()[1].clone(), TaskId::new(1)),
            64,
            16,
        ));
        out
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let t = table();
        let accesses = sample_accesses(&t);
        let mut writer = TraceWriter::new(Vec::new(), &t, 2).unwrap();
        for (i, a) in accesses.iter().enumerate() {
            writer.record((i % 2) as u32, (i * 3) as u64, a);
        }
        let (bytes, summary) = writer.finish().unwrap();
        assert_eq!(summary.accesses, accesses.len() as u64);
        assert!(summary.runs >= 2, "two processors alternate");

        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.processors(), 2);
        let mut decoded = Vec::new();
        while let Some(rec) = reader.next_record().unwrap() {
            decoded.push(rec);
        }
        assert_eq!(decoded.len(), accesses.len());
        for (i, (rec, a)) in decoded.iter().zip(&accesses).enumerate() {
            assert_eq!(rec.access, *a, "access {i} diverged");
            assert_eq!(rec.processor, (i % 2) as u32);
            assert_eq!(rec.cycle, (i * 3) as u64);
        }
    }

    #[test]
    fn region_table_roundtrips_bit_for_bit() {
        let t = table();
        let writer = TraceWriter::new(Vec::new(), &t, 4).unwrap();
        let (bytes, _) = writer.finish().unwrap();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.table().len(), t.len());
        for (a, b) in t.iter().zip(reader.table().iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn encoding_is_compact() {
        let t = table();
        let accesses = sample_accesses(&t);
        let trace = EncodedTrace::from_accesses(&t, &accesses).unwrap();
        // Sequential same-context accesses should cost only a few bytes each
        // against 32 bytes for the in-memory record.
        assert!(
            trace.summary().bytes_per_access() < 8.0,
            "got {} bytes/access",
            trace.summary().bytes_per_access()
        );
    }

    #[test]
    fn runs_split_on_processor_change_and_clock_regression() {
        let t = table();
        let a = sample_accesses(&t);
        let mut writer = TraceWriter::new(Vec::new(), &t, 2).unwrap();
        writer.record(0, 100, &a[0]);
        writer.record(0, 110, &a[1]);
        writer.record(1, 50, &a[2]); // processor change
        writer.record(1, 40, &a[3]); // clock regression within a processor
        let (bytes, summary) = writer.finish().unwrap();
        // The encoder re-anchors the clock with a RUN record at the
        // regression...
        assert_eq!(summary.runs, 3);
        let trace = EncodedTrace::from_bytes(bytes).unwrap();
        // ...but the stretch stays one run: (processor, start cycle,
        // accesses) per run, by the one grouping rule.
        let mut splitter = RunSplitter::default();
        let mut runs: Vec<(u32, u64, usize)> = Vec::new();
        for record in trace.reader() {
            let record = record.unwrap();
            if splitter.starts_run(&record) {
                runs.push((record.processor, record.cycle, 0));
            }
            runs.last_mut().unwrap().2 += 1;
        }
        assert_eq!(runs, [(0, 100, 2), (1, 50, 2)]);
        assert_eq!(trace.summary().runs, 2);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = RegionTable::new();
        let trace = EncodedTrace::from_accesses(&t, &[]).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.summary().runs, 0);
        assert_eq!(trace.reader().count(), 0);
        assert_eq!(trace.table().len(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let t = table();
        let accesses = sample_accesses(&t);
        let trace = EncodedTrace::from_accesses(&t, &accesses).unwrap();
        let dir = std::env::temp_dir().join("compmem-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cmt");
        trace.write_to(&path).unwrap();
        let back = EncodedTrace::read_from(&path).unwrap();
        assert_eq!(trace, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn content_hash_is_the_hash_of_the_bytes_held() {
        let t = table();
        let accesses = sample_accesses(&t);
        let trace = EncodedTrace::from_accesses(&t, &accesses).unwrap();
        let expected = crate::curves::trace_content_hash(trace.bytes());
        let cloned_before_use = trace.clone();
        assert_eq!(trace.content_hash(), expected);
        let cloned_after_use = trace.clone();
        assert_eq!(trace.content_hash(), expected);
        assert_eq!(cloned_before_use.content_hash(), expected);
        assert_eq!(cloned_after_use.content_hash(), expected);

        let path =
            std::env::temp_dir().join(format!("compmem-codec-hash-{}.cmt", std::process::id()));
        trace.write_to(&path).unwrap();
        let read_back = EncodedTrace::read_from(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_back.content_hash(), expected);

        // Other bytes, their own hash.
        let other = EncodedTrace::from_accesses(&t, &accesses[1..]).unwrap();
        assert_eq!(
            other.content_hash(),
            crate::curves::trace_content_hash(other.bytes())
        );
        assert_ne!(other.content_hash(), expected);
    }

    #[test]
    fn corrupt_inputs_error_instead_of_panicking() {
        let t = table();
        let accesses = sample_accesses(&t);
        let trace = EncodedTrace::from_accesses(&t, &accesses).unwrap();
        let good = trace.bytes().to_vec();

        // Truncations at every length must fail cleanly (or parse, for the
        // empty prefix of a still-valid stream — which cannot happen here
        // because the END record is mandatory).
        for cut in 0..good.len() {
            let err = EncodedTrace::from_bytes(good[..cut].to_vec());
            assert!(err.is_err(), "truncation at {cut} was accepted");
        }

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            EncodedTrace::from_bytes(bad),
            Err(CodecError::BadMagic { .. })
        ));

        // Wrong version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            EncodedTrace::from_bytes(bad),
            Err(CodecError::UnsupportedVersion { .. })
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0xff);
        assert!(matches!(
            EncodedTrace::from_bytes(bad),
            Err(CodecError::Corrupt { .. })
        ));
    }

    /// The in-memory finisher builds the trace `from_bytes` builds from
    /// the same bytes: same table, and a summary that counts runs by the
    /// splitter rule, not the writer's RUN records.
    #[test]
    fn finished_traces_equal_their_validated_bytes() {
        let t = table();
        let a = sample_accesses(&t);
        let mut writer = TraceWriter::new(Vec::new(), &t, 2).unwrap();
        writer.record(0, 100, &a[0]);
        writer.record(1, 50, &a[1]); // processor change
        writer.record(1, 40, &a[2]); // clock regression: a RUN record, not a run
        for (i, access) in a.iter().enumerate().skip(3) {
            writer.record((i / 7 % 2) as u32, 1000 + i as u64, access);
        }
        let trace = writer.finish_trace().unwrap();
        let validated = EncodedTrace::from_bytes(trace.bytes().to_vec()).unwrap();
        assert_eq!(trace.bytes(), validated.bytes());
        assert_eq!(trace.table(), validated.table());
        assert_eq!(trace.summary(), validated.summary());
        assert_eq!(trace.table(), &t);
        assert!(trace.summary().runs > 2);

        let empty = TraceWriter::new(Vec::new(), &t, 1)
            .unwrap()
            .finish_trace()
            .unwrap();
        let validated = EncodedTrace::from_bytes(empty.bytes().to_vec()).unwrap();
        assert_eq!(empty.summary(), validated.summary());
    }

    /// The writer refuses what the reader would refuse: an access naming
    /// a region outside the table (surfaced by both finishers), and a
    /// region name past the reader's bound.
    #[test]
    fn writer_refuses_what_the_reader_would() {
        let t = table();
        let inside = sample_accesses(&t)[0];
        let outside = Access::load(Addr::new(0), 4, TaskId::new(0), RegionId::new(2));
        let write = || {
            let mut writer = TraceWriter::new(Vec::new(), &t, 1).unwrap();
            writer.record(0, 0, &inside);
            writer.record(0, 1, &outside);
            writer.record(0, 2, &inside);
            writer
        };
        let message = "cannot encode trace: an access names a region outside the embedded \
                       region table";
        let err = write().finish().unwrap_err();
        assert!(matches!(err, CodecError::Unencodable { .. }));
        assert_eq!(err.to_string(), message);
        assert_eq!(write().finish_trace().unwrap_err().to_string(), message);
        assert_eq!(
            EncodedTrace::from_accesses(&t, &[inside, outside])
                .unwrap_err()
                .to_string(),
            message
        );

        let mut named = RegionTable::new();
        named
            .insert("n".repeat(4096), RegionKind::AppData, 64)
            .unwrap();
        let longest = EncodedTrace::from_accesses(&named, &[]).unwrap();
        assert_eq!(
            EncodedTrace::from_bytes(longest.bytes().to_vec()).unwrap(),
            longest
        );
        named
            .insert("n".repeat(4097), RegionKind::AppBss, 64)
            .unwrap();
        assert!(matches!(
            TraceWriter::new(Vec::new(), &named, 1),
            Err(CodecError::Unencodable {
                reason: "a region name longer than 4096 bytes"
            })
        ));
    }

    #[test]
    fn writer_surfaces_io_errors_at_finish() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(matches!(
            TraceWriter::new(FailingWriter, &RegionTable::new(), 1),
            Err(CodecError::Io(_))
        ));
    }

    #[test]
    fn version_1_header_is_unsupported() {
        let t = table();
        let good = EncodedTrace::from_accesses(&t, &sample_accesses(&t)).unwrap();
        assert_eq!(good.version(), TRACE_VERSION);
        // Versions 1 and 2 are refused by their version byte alone: no
        // compatibility path reads them.
        for old in [1u8, 2] {
            let mut bytes = good.bytes().to_vec();
            bytes[4] = old;
            let err = EncodedTrace::from_bytes(bytes).unwrap_err();
            assert!(matches!(err, CodecError::UnsupportedVersion { found } if found == old));
            assert_eq!(
                err.to_string(),
                format!("unsupported trace version {old} (expected 3)")
            );
        }
    }

    /// Each check a hand-made record stream can meet rejects it with its
    /// own reason; the unassigned tag 0x04 is an unknown record.
    #[test]
    fn every_record_check_rejects_its_input() {
        // The header of a one-processor trace over `table()` (two regions).
        let (header, _) = TraceWriter::new(Vec::new(), &table(), 1)
            .unwrap()
            .finish()
            .unwrap();
        let header = &header[..header.len() - 1];
        let decode = |body: &[u8]| EncodedTrace::from_bytes([header, body].concat());
        const RUN: [u8; 3] = [TAG_RUN, 0, 0];
        const DEFS: [u8; 4] = [TAG_DEF_TASK, 0, TAG_DEF_REGION, 0];
        // A load of 4 bytes by task 0 in region 0, address and gap 0.
        const LOAD: [u8; 6] = [TAG_ACCESS | 1, 0, 0, 4, 0, 0];
        let valid = [&RUN[..], &DEFS, &LOAD, &[TAG_END]].concat();
        assert_eq!(decode(&valid).unwrap().accesses(), 1);

        let with_load = |load: &[u8]| [&RUN[..], &DEFS, load, &[TAG_END]].concat();
        for (body, reason) in [
            (vec![0x04, TAG_END], "unknown record tag"),
            (
                vec![TAG_DEF_REGION, 2, TAG_END],
                "region id outside the embedded region table",
            ),
            (
                [&DEFS[..], &LOAD, &[TAG_END]].concat(),
                "access before any RUN record",
            ),
            (
                with_load(&[TAG_ACCESS | 1, 1, 0, 4, 0, 0]),
                "undefined task dictionary entry 1",
            ),
            (
                with_load(&[TAG_ACCESS | 1, 0, 1, 4, 0, 0]),
                "undefined region dictionary entry 1",
            ),
            (
                with_load(&[TAG_ACCESS | 3, 0, 0, 4, 0, 0]),
                "invalid access kind",
            ),
            (
                with_load(&[TAG_ACCESS | 1, 0, 0, 0xf0, 0xa2, 0x04, 0, 0]),
                "access size exceeds 16 bits",
            ),
            (
                // A RUN moving the clock back by one from 0 wraps it to
                // u64::MAX; a gap of one then overflows.
                [
                    &[TAG_RUN, 0, 1][..],
                    &DEFS,
                    &[TAG_ACCESS | 1, 0, 0, 4, 0, 1],
                    &[TAG_END],
                ]
                .concat(),
                "cycle counter overflows",
            ),
            (
                [&RUN[..], &[TAG_ACCESS | FLAG_REPEAT | 1, 0, 0], &[TAG_END]].concat(),
                "context-repeat access with no previous access",
            ),
            (
                valid[..valid.len() - 1].to_vec(),
                "stream ends without an END record",
            ),
            (
                [&valid[..], &[TAG_END]].concat(),
                "trailing bytes after END record",
            ),
        ] {
            let err = decode(&body).unwrap_err().to_string();
            assert!(err.contains(reason), "{body:02x?}: {err}");
        }
    }

    #[test]
    fn varints_decode_to_64_bits_and_no_further() {
        let decode = |bytes: &[u8]| ByteSource::new(bytes).read_varint().map_err(|e| e.0);
        for value in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, value).unwrap();
            assert_eq!(decode(&bytes), Ok(value));
        }
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(decode(&max), Ok(u64::MAX));
        let overflow = "varint overflows 64 bits";
        // A tenth byte above 1, and a tenth byte that continues.
        assert_eq!(decode(&[&max[..9], &[0x02]].concat()), Err(overflow));
        assert_eq!(decode(&[&max[..9], &[0x81, 0x00]].concat()), Err(overflow));
        assert_eq!(decode(&[0x80, 0x80]), Err("unexpected end of stream"));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = CodecError::Corrupt {
            reason: "unknown record tag",
        };
        assert!(e.to_string().contains("unknown record tag"));
        let e = CodecError::UndefinedDictionaryEntry {
            kind: "task",
            index: 7,
        };
        assert!(e.to_string().contains("task"));
    }
}
