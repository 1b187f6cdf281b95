//! The binary **curve sidecar** IR: persisted miss-rate curves next to a
//! trace.
//!
//! Profiling a recorded trace pays a full L1-filter simulation before the
//! stack-distance profiler sees a single access. The measured curves are a
//! pure function of the trace bytes and the profiling configuration, so
//! they can be persisted once and reloaded on every later invocation —
//! `compmem profile` writes a `.curves` file next to the `.trace` and
//! skips the L1 filter entirely when a matching sidecar exists.
//!
//! This module defines the on-disk format and its whole-sidecar codec,
//! [`EncodedCurves::from_bytes`] and [`EncodedCurves::to_bytes`]: every
//! sidecar is read and written whole. It deliberately speaks a *neutral*
//! data model
//! ([`SidecarKey`], [`CurveEntry`], [`WindowRecord`]): the semantic curve
//! types (`MissRateCurves`, `WindowedCurves`) live one layer up in
//! `compmem-cache`, which provides lossless conversions in both
//! directions.
//!
//! # IR layout
//!
//! A sidecar is one byte stream:
//!
//! ```text
//! header  := magic "CMCV" | version u8 (=1) | trace_hash u64 (little endian)
//!          | l1_signature u64 (little endian)
//!          | varint min_sets | varint max_sets | varint ways_cap
//!          | window kind u8 (0 = whole-run, 1 = accesses, 2 = cycles)
//!          | varint window_length
//! body    := { WINDOW (0x01) varint index | varint start_cycle
//!              | varint end_cycle | varint entry_count | entry* }*
//!            TOTAL (0x02) varint entry_count | entry*
//! entry   := key tag u8 | [varint id] | varint accesses | varint cold
//!          | varint bucket * (levels * (ways_cap + 1))
//! END     := 0x00
//! ```
//!
//! `trace_hash` is the [`trace_content_hash`] of the **encoded trace
//! bytes** the curves were measured over; a sidecar whose hash does not
//! match the trace it sits next to is rejected with
//! [`CodecError::SidecarMismatch`] — reusing curves measured over
//! different traffic would silently corrupt every downstream allocation.
//! `l1_signature` identifies the **L1 filter configuration** the curves
//! were measured behind (the L2-bound stream is a function of the trace
//! *and* the private L1s — a different L1 geometry yields different
//! curves from the same trace), and the resolution triple and the window
//! configuration are embedded for the same reason. `levels` is `log2(max_sets) - log2(min_sets) + 1`;
//! every entry carries one `ways_cap + 1`-bucket distance histogram per
//! level, exactly the in-memory layout of a `MissRateCurve`.
//!
//! Decoding is strict: every branch is bounds-checked and corrupt input is
//! reported as a [`CodecError`], never a panic.

use std::path::Path;

use crate::codec::{write_varint, ByteSource, CodecError};
use crate::region::{BufferId, TaskId};

/// Magic bytes opening every curve sidecar.
pub const CURVES_MAGIC: [u8; 4] = *b"CMCV";
/// Current version of the curve sidecar IR.
pub const CURVES_VERSION: u8 = 1;

/// Conventional file extension of a curve sidecar (`trace.cmt` →
/// `trace.curves`).
pub const CURVES_EXTENSION: &str = "curves";

const TAG_END: u8 = 0x00;
const TAG_WINDOW: u8 = 0x01;
const TAG_TOTAL: u8 = 0x02;

/// Hard decode bounds: anything larger is corrupt rather than worth
/// allocating for.
const MAX_LEVELS: u32 = 64;
const MAX_WAYS_CAP: u64 = 4096;
const MAX_ENTRIES: u64 = 1 << 20;
const MAX_WINDOWS: u64 = 1 << 24;

/// FNV-1a hash of a byte stream — the content identity that ties a curve
/// sidecar to the exact trace bytes it was measured over.
///
/// ```
/// use compmem_trace::curves::trace_content_hash;
/// let a = trace_content_hash(b"CMTR...");
/// let b = trace_content_hash(b"CMTR..!");
/// assert_ne!(a, b);
/// assert_eq!(a, trace_content_hash(b"CMTR..."));
/// ```
pub fn trace_content_hash(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The sidecar path of a trace file: same location, `.curves` extension.
pub fn sidecar_path(trace_path: &Path) -> std::path::PathBuf {
    trace_path.with_extension(CURVES_EXTENSION)
}

/// How the profiling pass that produced a sidecar sliced the access
/// stream into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SidecarWindowKind {
    /// One window covering the whole run (no slicing).
    WholeRun,
    /// Fixed number of L2-bound accesses per window.
    Accesses,
    /// Fixed number of cycles per window.
    Cycles,
}

/// The window configuration embedded in a sidecar header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidecarWindow {
    /// How windows were delimited.
    pub kind: SidecarWindowKind,
    /// Window length in the kind's unit (0 for [`SidecarWindowKind::WholeRun`]).
    pub length: u64,
}

impl SidecarWindow {
    /// The whole-run (single window) configuration.
    pub fn whole_run() -> Self {
        SidecarWindow {
            kind: SidecarWindowKind::WholeRun,
            length: 0,
        }
    }
}

/// The entity a persisted curve belongs to — the neutral, trace-level
/// mirror of `compmem-cache`'s `PartitionKey`, plus the aggregate
/// whole-L2 curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SidecarKey {
    /// The aggregate curve over the whole L2-bound stream (every entity).
    Aggregate,
    /// All private regions of one task.
    Task(TaskId),
    /// One inter-task communication buffer.
    Buffer(BufferId),
    /// Application-wide initialised data.
    AppData,
    /// Application-wide zero-initialised data.
    AppBss,
    /// Run-time-system initialised data.
    RtData,
    /// Run-time-system zero-initialised data.
    RtBss,
}

fn key_tag(key: SidecarKey) -> (u8, Option<u64>) {
    match key {
        SidecarKey::Aggregate => (0, None),
        SidecarKey::Task(task) => (1, Some(task.index() as u64)),
        SidecarKey::Buffer(buffer) => (2, Some(buffer.index() as u64)),
        SidecarKey::AppData => (3, None),
        SidecarKey::AppBss => (4, None),
        SidecarKey::RtData => (5, None),
        SidecarKey::RtBss => (6, None),
    }
}

fn key_from_tag(tag: u8, r: &mut ByteSource<'_>) -> Result<SidecarKey, CodecError> {
    let id = |r: &mut ByteSource<'_>| -> Result<u32, CodecError> {
        u32::try_from(r.read_varint()?).map_err(|_| CodecError::Corrupt {
            reason: "curve key id exceeds 32 bits",
        })
    };
    Ok(match tag {
        0 => SidecarKey::Aggregate,
        1 => SidecarKey::Task(TaskId::new(id(r)?)),
        2 => SidecarKey::Buffer(BufferId::new(id(r)?)),
        3 => SidecarKey::AppData,
        4 => SidecarKey::AppBss,
        5 => SidecarKey::RtData,
        6 => SidecarKey::RtBss,
        _ => {
            return Err(CodecError::Corrupt {
                reason: "unknown curve key tag",
            })
        }
    })
}

/// The header of a curve sidecar: the identity of the trace and the
/// profiling configuration the curves were measured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveHeader {
    /// [`trace_content_hash`] of the source trace's encoded bytes.
    pub trace_hash: u64,
    /// Opaque signature of the L1 filter configuration the curves were
    /// measured behind (computed by the profiling layer; 0 when the
    /// stream was fed to the profiler directly, with no L1 filter).
    pub l1_signature: u64,
    /// Smallest resolved set count (a power of two).
    pub min_sets: u32,
    /// Largest resolved set count (a power of two, `>= min_sets`).
    pub max_sets: u32,
    /// Largest resolved associativity.
    pub ways_cap: u32,
    /// How the pass sliced the stream into windows.
    pub window: SidecarWindow,
}

impl CurveHeader {
    /// Number of set-count levels each entry's histogram list must carry.
    pub fn levels(&self) -> usize {
        (self.max_sets.ilog2() - self.min_sets.ilog2() + 1) as usize
    }

    fn validate(&self) -> Result<(), CodecError> {
        if self.min_sets == 0
            || !self.min_sets.is_power_of_two()
            || self.max_sets == 0
            || !self.max_sets.is_power_of_two()
            || self.min_sets > self.max_sets
        {
            return Err(CodecError::Corrupt {
                reason: "curve resolution set counts are not ordered powers of two",
            });
        }
        if self.levels() > MAX_LEVELS as usize {
            return Err(CodecError::Corrupt {
                reason: "implausible curve level count",
            });
        }
        if self.ways_cap == 0 || u64::from(self.ways_cap) > MAX_WAYS_CAP {
            return Err(CodecError::Corrupt {
                reason: "implausible curve associativity cap",
            });
        }
        match self.window.kind {
            SidecarWindowKind::WholeRun => {
                if self.window.length != 0 {
                    return Err(CodecError::Corrupt {
                        reason: "whole-run window with a non-zero length",
                    });
                }
            }
            SidecarWindowKind::Accesses | SidecarWindowKind::Cycles => {
                if self.window.length == 0 {
                    return Err(CodecError::Corrupt {
                        reason: "zero-length profiling window",
                    });
                }
            }
        }
        Ok(())
    }

    /// Writes the validated header, magic and version first.
    fn write(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        self.validate()?;
        out.extend_from_slice(&CURVES_MAGIC);
        out.push(CURVES_VERSION);
        out.extend_from_slice(&self.trace_hash.to_le_bytes());
        out.extend_from_slice(&self.l1_signature.to_le_bytes());
        write_varint(out, u64::from(self.min_sets))?;
        write_varint(out, u64::from(self.max_sets))?;
        write_varint(out, u64::from(self.ways_cap))?;
        out.push(match self.window.kind {
            SidecarWindowKind::WholeRun => 0,
            SidecarWindowKind::Accesses => 1,
            SidecarWindowKind::Cycles => 2,
        });
        write_varint(out, self.window.length)?;
        Ok(())
    }

    /// Reads and validates the header, magic and version first.
    fn read(r: &mut ByteSource<'_>) -> Result<Self, CodecError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|_| CodecError::Corrupt {
            reason: "stream shorter than the sidecar magic",
        })?;
        if magic != CURVES_MAGIC {
            return Err(CodecError::BadSidecarMagic { found: magic });
        }
        let version = r.require_byte()?;
        if version != CURVES_VERSION {
            return Err(CodecError::UnsupportedVersion { found: version });
        }
        let mut hash = [0u8; 8];
        r.read_exact(&mut hash)?;
        let mut l1_signature = [0u8; 8];
        r.read_exact(&mut l1_signature)?;
        let as_u32 = |value: u64, reason: &'static str| {
            u32::try_from(value).map_err(|_| CodecError::Corrupt { reason })
        };
        let min_sets = as_u32(r.read_varint()?, "curve min_sets exceeds 32 bits")?;
        let max_sets = as_u32(r.read_varint()?, "curve max_sets exceeds 32 bits")?;
        let ways_cap = as_u32(r.read_varint()?, "curve ways_cap exceeds 32 bits")?;
        let kind = match r.require_byte()? {
            0 => SidecarWindowKind::WholeRun,
            1 => SidecarWindowKind::Accesses,
            2 => SidecarWindowKind::Cycles,
            _ => {
                return Err(CodecError::Corrupt {
                    reason: "unknown window kind",
                })
            }
        };
        let length = r.read_varint()?;
        let header = CurveHeader {
            trace_hash: u64::from_le_bytes(hash),
            l1_signature: u64::from_le_bytes(l1_signature),
            min_sets,
            max_sets,
            ways_cap,
            window: SidecarWindow { kind, length },
        };
        header.validate()?;
        Ok(header)
    }
}

/// One persisted curve: a key's distance histograms at every resolved
/// level, plus its access and cold-miss counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurveEntry {
    /// Whose curve this is.
    pub key: SidecarKey,
    /// Accesses of the key during the (window's share of the) pass.
    pub accesses: u64,
    /// First-touch accesses (misses at every size).
    pub cold: u64,
    /// Per-level distance histograms, `ways_cap + 1` buckets each.
    pub level_histograms: Vec<Vec<u64>>,
}

/// One profiling window's worth of curves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// Zero-based window index.
    pub index: u64,
    /// Cycle (or access ordinal) at which the window opened.
    pub start_cycle: u64,
    /// Cycle (or access ordinal) of the last access in the window.
    pub end_cycle: u64,
    /// The curves of every key active in the window, sorted by key.
    pub entries: Vec<CurveEntry>,
}

// ----- encoding -----

fn write_entries(
    out: &mut Vec<u8>,
    header: &CurveHeader,
    entries: &[CurveEntry],
) -> Result<(), CodecError> {
    write_varint(out, entries.len() as u64)?;
    for entry in entries {
        let (tag, id) = key_tag(entry.key);
        out.push(tag);
        if let Some(id) = id {
            write_varint(out, id)?;
        }
        write_varint(out, entry.accesses)?;
        write_varint(out, entry.cold)?;
        if entry.level_histograms.len() != header.levels()
            || entry
                .level_histograms
                .iter()
                .any(|h| h.len() != header.ways_cap as usize + 1)
        {
            return Err(CodecError::Corrupt {
                reason: "curve entry histogram shape disagrees with the header",
            });
        }
        for histogram in &entry.level_histograms {
            for &bucket in histogram {
                write_varint(out, bucket)?;
            }
        }
    }
    Ok(())
}

// ----- decoding -----

fn read_entry(r: &mut ByteSource<'_>, header: &CurveHeader) -> Result<CurveEntry, CodecError> {
    let tag = r.require_byte()?;
    let key = key_from_tag(tag, r)?;
    let accesses = r.read_varint()?;
    let cold = r.read_varint()?;
    if cold > accesses {
        return Err(CodecError::Corrupt {
            reason: "curve entry counts more cold misses than accesses",
        });
    }
    let buckets = header.ways_cap as usize + 1;
    let mut level_histograms = Vec::with_capacity(header.levels());
    for _ in 0..header.levels() {
        let mut histogram = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            histogram.push(r.read_varint()?);
        }
        // Every non-cold access lands in exactly one bucket per level.
        // Sum in u128: corrupt buckets near u64::MAX must be rejected,
        // not wrapped into a coincidentally-valid total (or a debug
        // overflow panic).
        let total: u128 = histogram.iter().map(|&b| u128::from(b)).sum();
        if total != u128::from(accesses - cold) {
            return Err(CodecError::Corrupt {
                reason: "curve histogram does not sum to the warm access count",
            });
        }
        level_histograms.push(histogram);
    }
    Ok(CurveEntry {
        key,
        accesses,
        cold,
        level_histograms,
    })
}

fn read_entries(
    r: &mut ByteSource<'_>,
    header: &CurveHeader,
) -> Result<Vec<CurveEntry>, CodecError> {
    let count = r.read_varint()?;
    if count > MAX_ENTRIES {
        return Err(CodecError::Corrupt {
            reason: "implausible curve entry count",
        });
    }
    let mut entries = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        entries.push(read_entry(r, header)?);
    }
    // Sorted, duplicate-free keys make the encoding canonical (and the
    // reuse path byte-reproducible).
    if entries.windows(2).any(|w| w[0].key >= w[1].key) {
        return Err(CodecError::Corrupt {
            reason: "curve entries are not strictly sorted by key",
        });
    }
    Ok(entries)
}

/// A complete, validated curve sidecar held in memory.
///
/// Construction walks the whole stream (corrupt input is rejected with a
/// [`CodecError`], never a panic), so holders can convert to the semantic
/// curve types without error-handling surprises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedCurves {
    header: CurveHeader,
    windows: Vec<WindowRecord>,
    total: Vec<CurveEntry>,
}

impl EncodedCurves {
    /// Assembles a sidecar from its parts (the encoding side; typically
    /// called by `compmem-cache`'s `WindowedCurves::to_sidecar`).
    pub fn from_parts(
        header: CurveHeader,
        windows: Vec<WindowRecord>,
        total: Vec<CurveEntry>,
    ) -> Self {
        EncodedCurves {
            header,
            windows,
            total,
        }
    }

    /// Validates `bytes` as a complete sidecar stream.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is truncated, corrupt, of an
    /// unsupported version or has trailing garbage after its END record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteSource::new(bytes);
        let header = CurveHeader::read(&mut r)?;
        let mut windows = Vec::new();
        loop {
            match r.require_byte()? {
                TAG_WINDOW => {
                    let index = r.read_varint()?;
                    if index != windows.len() as u64 || index >= MAX_WINDOWS {
                        return Err(CodecError::Corrupt {
                            reason: "window records out of order",
                        });
                    }
                    let start_cycle = r.read_varint()?;
                    let end_cycle = r.read_varint()?;
                    let entries = read_entries(&mut r, &header)?;
                    windows.push(WindowRecord {
                        index,
                        start_cycle,
                        end_cycle,
                        entries,
                    });
                }
                TAG_TOTAL => {
                    let total = read_entries(&mut r, &header)?;
                    if r.next_byte() != Some(TAG_END) {
                        return Err(CodecError::Corrupt {
                            reason: "sidecar does not end after the totals",
                        });
                    }
                    if r.has_more() {
                        return Err(CodecError::Corrupt {
                            reason: "trailing bytes after END record",
                        });
                    }
                    return Ok(EncodedCurves {
                        header,
                        windows,
                        total,
                    });
                }
                _ => {
                    return Err(CodecError::Corrupt {
                        reason: "unknown sidecar record tag",
                    })
                }
            }
        }
    }

    /// The sidecar header.
    pub fn header(&self) -> &CurveHeader {
        &self.header
    }

    /// The per-window curves, in window order.
    pub fn windows(&self) -> &[WindowRecord] {
        &self.windows
    }

    /// The whole-run totals.
    pub fn total(&self) -> &[CurveEntry] {
        &self.total
    }

    /// Encodes the sidecar to bytes. Deterministic: the same curves
    /// always produce the same bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the parts disagree with the
    /// header (histogram shapes, window order).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.header.write(&mut out)?;
        for (index, window) in self.windows.iter().enumerate() {
            if window.index != index as u64 {
                return Err(CodecError::Corrupt {
                    reason: "windows must be written in index order",
                });
            }
            out.push(TAG_WINDOW);
            write_varint(&mut out, window.index)?;
            write_varint(&mut out, window.start_cycle)?;
            write_varint(&mut out, window.end_cycle)?;
            write_entries(&mut out, &self.header, &window.entries)?;
        }
        out.push(TAG_TOTAL);
        write_entries(&mut out, &self.header, &self.total)?;
        out.push(TAG_END);
        Ok(out)
    }

    /// Checks that this sidecar was measured over exactly the given trace
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::SidecarMismatch`] on a hash mismatch.
    pub fn validate_for_trace(&self, trace_bytes: &[u8]) -> Result<(), CodecError> {
        if self.header.trace_hash != trace_content_hash(trace_bytes) {
            return Err(CodecError::SidecarMismatch {
                field: "trace hash",
            });
        }
        Ok(())
    }

    /// Writes the encoded sidecar to a file (atomically: temp file +
    /// rename, so a concurrent reader never observes a torn sidecar).
    ///
    /// # Errors
    ///
    /// Propagates encoding and I/O errors.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), CodecError> {
        crate::codec::write_file_atomic(path.as_ref(), &self.to_bytes()?).map_err(CodecError::Io)
    }

    /// Reads and validates a sidecar from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        Self::from_bytes(&std::fs::read(path).map_err(CodecError::Io)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CurveHeader {
        CurveHeader {
            trace_hash: 0xdead_beef_cafe_f00d,
            l1_signature: 0x11aa_22bb_33cc_44dd,
            min_sets: 4,
            max_sets: 16,
            ways_cap: 2,
            window: SidecarWindow {
                kind: SidecarWindowKind::Accesses,
                length: 100,
            },
        }
    }

    fn entry(key: SidecarKey, seed: u64) -> CurveEntry {
        // 3 levels (4, 8, 16 sets), 3 buckets each, rows summing alike.
        let warm = 6 * seed;
        CurveEntry {
            key,
            accesses: warm + seed,
            cold: seed,
            level_histograms: vec![
                vec![3 * seed, 2 * seed, seed],
                vec![4 * seed, seed, seed],
                vec![6 * seed, 0, 0],
            ],
        }
    }

    fn sample() -> EncodedCurves {
        let windows = vec![
            WindowRecord {
                index: 0,
                start_cycle: 0,
                end_cycle: 99,
                entries: vec![
                    entry(SidecarKey::Aggregate, 4),
                    entry(SidecarKey::Task(TaskId::new(0)), 2),
                    entry(SidecarKey::Buffer(BufferId::new(1)), 2),
                ],
            },
            WindowRecord {
                index: 1,
                start_cycle: 100,
                end_cycle: 150,
                entries: vec![
                    entry(SidecarKey::Aggregate, 3),
                    entry(SidecarKey::Task(TaskId::new(1)), 3),
                ],
            },
        ];
        let total = vec![
            entry(SidecarKey::Aggregate, 7),
            entry(SidecarKey::Task(TaskId::new(0)), 2),
            entry(SidecarKey::Task(TaskId::new(1)), 3),
            entry(SidecarKey::Buffer(BufferId::new(1)), 2),
            entry(SidecarKey::RtData, 1),
        ];
        EncodedCurves::from_parts(header(), windows, total)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let curves = sample();
        let bytes = curves.to_bytes().unwrap();
        let back = EncodedCurves::from_bytes(&bytes).unwrap();
        assert_eq!(curves, back);
        // Deterministic encoding.
        assert_eq!(bytes, back.to_bytes().unwrap());
    }

    #[test]
    fn hash_validation_catches_foreign_traces() {
        let curves = sample();
        let fake_trace = b"CMTR-not-really".to_vec();
        assert!(matches!(
            curves.validate_for_trace(&fake_trace),
            Err(CodecError::SidecarMismatch { .. })
        ));
        let matching = EncodedCurves::from_parts(
            CurveHeader {
                trace_hash: trace_content_hash(&fake_trace),
                ..header()
            },
            Vec::new(),
            Vec::new(),
        );
        assert!(matching.validate_for_trace(&fake_trace).is_ok());
    }

    #[test]
    fn corrupt_inputs_error_instead_of_panicking() {
        let good = sample().to_bytes().unwrap();
        for cut in 0..good.len() {
            assert!(
                EncodedCurves::from_bytes(&good[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            EncodedCurves::from_bytes(&bad),
            Err(CodecError::BadSidecarMagic { .. })
        ));
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            EncodedCurves::from_bytes(&bad),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut bad = good.clone();
        bad.push(0x77);
        assert!(EncodedCurves::from_bytes(&bad).is_err());
    }

    #[test]
    fn writer_rejects_malformed_input() {
        let encode =
            |header, windows, total| EncodedCurves::from_parts(header, windows, total).to_bytes();
        // Out-of-order windows.
        let window = WindowRecord {
            index: 3,
            start_cycle: 0,
            end_cycle: 0,
            entries: Vec::new(),
        };
        assert!(encode(header(), vec![window], Vec::new()).is_err());
        // Histogram shape disagreeing with the header.
        let bad_entry = CurveEntry {
            key: SidecarKey::AppData,
            accesses: 0,
            cold: 0,
            level_histograms: vec![vec![0, 0]],
        };
        assert!(encode(header(), Vec::new(), vec![bad_entry]).is_err());
        // Invalid headers never encode.
        let mut bad = header();
        bad.min_sets = 3;
        assert!(encode(bad, Vec::new(), Vec::new()).is_err());
        let mut bad = header();
        bad.window.length = 0;
        assert!(encode(bad, Vec::new(), Vec::new()).is_err());
    }

    #[test]
    fn unsorted_entries_are_rejected_on_decode() {
        let mut curves = sample();
        curves.windows[0].entries.swap(1, 2);
        let bytes = curves.to_bytes().unwrap();
        assert!(matches!(
            EncodedCurves::from_bytes(&bytes),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn overflowing_histograms_are_corrupt_not_panics() {
        // Two buckets near u64::MAX wrap to a small u64 sum; the decoder
        // must reject them (u128 arithmetic), not accept or panic.
        let half = 1u64 << 63;
        let evil = CurveEntry {
            key: SidecarKey::Aggregate,
            // The first row's wrapped u64 sum is exactly 2 = accesses -
            // cold (2^63 + 2^63 + 2 ≡ 2 mod 2^64): wrapping arithmetic
            // would falsely validate it, debug arithmetic would panic.
            accesses: 6,
            cold: 4,
            level_histograms: vec![vec![half, half, 2], vec![2, 0, 0], vec![2, 0, 0]],
        };
        let bytes = EncodedCurves::from_parts(header(), Vec::new(), vec![evil])
            .to_bytes()
            .unwrap();
        assert!(matches!(
            EncodedCurves::from_bytes(&bytes),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        assert_eq!(trace_content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(trace_content_hash(b"a"), trace_content_hash(b"b"));
    }

    #[test]
    fn sidecar_path_swaps_the_extension() {
        assert_eq!(
            sidecar_path(Path::new("/tmp/mpeg2-tiny.cmt")),
            Path::new("/tmp/mpeg2-tiny.curves")
        );
    }
}
