//! Synthetic access-stream generators and the **workload zoo**.
//!
//! The free functions at the top produce the classic parametric streams
//! cache studies are built on — sequential sweeps, strided walks and loop
//! nests over a working set — all attributed to a task and region so they
//! can drive the partitioned cache exactly like workload traffic does.
//! They are used by unit tests, property tests and the cache
//! micro-benchmarks.
//!
//! The workload zoo ([`GenSpec`] / [`generate`]) builds on them: a
//! deterministic, seed-parameterised scenario generator that emits
//! standard [`EncodedTrace`]s, so every layer above this crate
//! (profiling, shape sweeps, schedules, replay lanes, the online
//! controller, `compmem serve`) consumes synthetic scenarios with zero
//! changes. Four task families ([`GenKind`]) cover the canonical cache
//! behaviours — Zipf working sets, streaming scans, pointer chases and
//! phased mixtures with real regime structure — and a multi-program mix
//! composer interleaves per-task streams proportionally into one trace
//! with a region table. Generator provenance (family, parameters, seed)
//! is carried in the region names, the one string channel that survives
//! the codec round-trip, so `compmem info` can reconstruct how any
//! stored trace was generated ([`provenance`]).

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::Access;
use crate::addr::Addr;
use crate::codec::{CodecError, EncodedTrace, TraceWriter, MAX_RECORD_BYTES};
use crate::error::TraceError;
use crate::region::{Region, RegionId, RegionKind, RegionTable, TaskId};
use crate::LINE_SIZE_BYTES;

/// Parameters shared by all generators: who issues the accesses and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamParams {
    /// Task the accesses are attributed to.
    pub task: TaskId,
    /// Region the accesses are attributed to.
    pub region: RegionId,
    /// First byte address of the stream.
    pub base: Addr,
    /// Size in bytes of each access.
    pub access_size: u16,
}

impl StreamParams {
    /// Builds stream parameters covering the whole of `region`.
    pub fn for_region(region: &Region, task: TaskId) -> Self {
        StreamParams {
            task,
            region: region.id,
            base: region.base,
            access_size: 4,
        }
    }
}

/// Generates `count` sequential loads starting at the stream base, advancing
/// by `stride` bytes per access.
///
/// A stride of one line produces the classic streaming pattern with no
/// temporal reuse; a small stride produces spatial reuse within lines.
pub fn strided(params: StreamParams, stride: u64, count: usize) -> Vec<Access> {
    (0..count)
        .map(|i| {
            Access::load(
                params.base.offset(i as u64 * stride),
                params.access_size,
                params.task,
                params.region,
            )
        })
        .collect()
}

/// Generates `repeats` passes of sequential loads over a working set of
/// `working_set_bytes`, touching every `stride`-th byte.
///
/// When the working set fits in a cache the second and later passes hit;
/// when it does not, the LRU behaviour produces the classic thrashing
/// pattern. This is the access shape whose miss-vs-size curve has the sharp
/// knee the paper's optimiser exploits.
pub fn looping(
    params: StreamParams,
    working_set_bytes: u64,
    stride: u64,
    repeats: usize,
) -> Vec<Access> {
    assert!(stride > 0, "stride must be non-zero");
    let per_pass = (working_set_bytes / stride) as usize;
    let mut out = Vec::with_capacity(per_pass * repeats);
    for _ in 0..repeats {
        for i in 0..per_pass {
            out.push(Access::load(
                params.base.offset(i as u64 * stride),
                params.access_size,
                params.task,
                params.region,
            ));
        }
    }
    out
}

/// Interleaves several access streams round-robin, approximating concurrent
/// execution of independent tasks on different processors.
pub fn interleave(streams: Vec<Vec<Access>>) -> Vec<Access> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; streams.len()];
    let mut remaining = total;
    while remaining > 0 {
        for (stream, cursor) in streams.iter().zip(cursors.iter_mut()) {
            if *cursor < stream.len() {
                out.push(stream[*cursor]);
                *cursor += 1;
                remaining -= 1;
            }
        }
    }
    out
}

// === The workload zoo ====================================================

/// The largest footprint one generated task may span: 1 GB. Zipf and
/// chase tables hold one word per line of it, so the bound caps each at
/// 128 MB whatever the access budget.
pub const MAX_FOOTPRINT_BYTES: u64 = 1 << 30;

/// The most accesses one generated trace may hold, over all its tasks:
/// `u32::MAX`, the most L2-bound refills the platform's L1 filter can
/// index (every access could miss L1).
pub const MAX_TOTAL_ACCESSES: u64 = u32::MAX as u64;

/// Default cycles between consecutive interleaved accesses of a generated
/// trace. Matched to the platform's pipelined issue rate so controller
/// windows measured in cycles line up with access counts.
pub const DEFAULT_CYCLES_PER_ACCESS: u64 = 4;

/// One task family of the workload zoo.
///
/// Footprints are in bytes and rounded up to whole cache lines by the
/// region table. Every family is fully deterministic given the spec's
/// seed; [`GenKind::Scan`] and the phased loop/scan regimes are
/// seed-independent by construction (their access order is a pure
/// function of the index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// Zipf-distributed loads over a working set: line `r` receives
    /// traffic proportional to `1/(r+1)`, so a few hot lines dominate and
    /// the tail decays — the reuse pattern the stack-distance profiler's
    /// convex miss curves come from.
    Zipf {
        /// Size of the working set in bytes.
        working_set_bytes: u64,
    },
    /// Streaming scan: line-strided sequential loads wrapping over a
    /// footprint larger than any cache level — the classic no-reuse
    /// adversary used as the streamer in the isolation harness.
    Scan {
        /// Size of the scanned footprint in bytes.
        footprint_bytes: u64,
    },
    /// Pointer chase: a cyclic walk of a seeded random permutation of the
    /// working set's lines. Dependent loads with no spatial locality —
    /// hits once the working set fits, thrashes the moment it does not.
    Chase {
        /// Size of the chased working set in bytes.
        working_set_bytes: u64,
    },
    /// Phased mixture: alternates a hot loop over `hot_bytes` with a
    /// streaming scan over `scan_bytes` every `phase_accesses` accesses —
    /// traffic with real regime structure for the online controller.
    Phased {
        /// Size of the hot loop's working set in bytes.
        hot_bytes: u64,
        /// Size of the scan regime's footprint in bytes.
        scan_bytes: u64,
        /// Accesses per regime before switching to the other.
        phase_accesses: u64,
    },
}

impl GenKind {
    /// Short family name (`zipf`, `scan`, `chase`, `phased`).
    pub fn label(&self) -> &'static str {
        match self {
            GenKind::Zipf { .. } => "zipf",
            GenKind::Scan { .. } => "scan",
            GenKind::Chase { .. } => "chase",
            GenKind::Phased { .. } => "phased",
        }
    }

    /// Total bytes the task's data region must span.
    pub fn footprint_bytes(&self) -> u64 {
        match *self {
            GenKind::Zipf { working_set_bytes } => working_set_bytes,
            GenKind::Scan { footprint_bytes } => footprint_bytes,
            GenKind::Chase { working_set_bytes } => working_set_bytes,
            GenKind::Phased {
                hot_bytes,
                scan_bytes,
                ..
            } => hot_bytes.max(scan_bytes),
        }
    }

    /// Whether the family consumes the seed (scans and phased mixtures
    /// are pure functions of the access index).
    pub fn is_seeded(&self) -> bool {
        matches!(self, GenKind::Zipf { .. } | GenKind::Chase { .. })
    }

    /// The provenance tokens this family contributes to its region name.
    fn name_params(&self) -> String {
        match *self {
            GenKind::Zipf { working_set_bytes } => format!("ws{working_set_bytes}"),
            GenKind::Scan { footprint_bytes } => format!("fp{footprint_bytes}"),
            GenKind::Chase { working_set_bytes } => format!("ws{working_set_bytes}"),
            GenKind::Phased {
                hot_bytes,
                scan_bytes,
                phase_accesses,
            } => format!("hot{hot_bytes}.scan{scan_bytes}.p{phase_accesses}"),
        }
    }

    /// The task's access stream over `params`' region, drawing from its
    /// own RNG.
    fn stream(&self, params: StreamParams, mut rng: SmallRng) -> TaskStream {
        let lines = match *self {
            GenKind::Zipf { working_set_bytes } => {
                let lines = (working_set_bytes / LINE_SIZE_BYTES).max(1);
                // Integer harmonic weights (no floats: byte-determinism
                // across platforms): line r weighs SCALE/(r+1), cumulated
                // into a prefix-sum table sampled by binary search.
                const SCALE: u64 = 1 << 20;
                let mut cumulative = Vec::with_capacity(lines as usize);
                let mut total = 0u64;
                for rank in 0..lines {
                    total += (SCALE / (rank + 1)).max(1);
                    cumulative.push(total);
                }
                Lines::Zipf {
                    cumulative,
                    total,
                    rng,
                }
            }
            GenKind::Scan { footprint_bytes } => Lines::Scan {
                lines: (footprint_bytes / LINE_SIZE_BYTES).max(1),
            },
            GenKind::Chase { working_set_bytes } => {
                let lines = (working_set_bytes / LINE_SIZE_BYTES).max(1);
                // Fisher–Yates permutation of the working set's lines; the
                // walk visits the full cycle in that fixed random order.
                let mut order: Vec<u64> = (0..lines).collect();
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                Lines::Chase { order }
            }
            GenKind::Phased {
                hot_bytes,
                scan_bytes,
                phase_accesses,
            } => Lines::Phased {
                hot_lines: (hot_bytes / LINE_SIZE_BYTES).max(1),
                scan_lines: (scan_bytes / LINE_SIZE_BYTES).max(1),
                phase_accesses,
            },
        };
        TaskStream {
            params,
            issued: 0,
            lines,
        }
    }
}

/// Which line each access of a task stream touches.
enum Lines {
    Zipf {
        cumulative: Vec<u64>,
        total: u64,
        rng: SmallRng,
    },
    Scan {
        lines: u64,
    },
    Chase {
        order: Vec<u64>,
    },
    Phased {
        hot_lines: u64,
        scan_lines: u64,
        phase_accesses: u64,
    },
}

/// One task's access stream, drawn one access at a time.
struct TaskStream {
    params: StreamParams,
    /// Accesses drawn so far.
    issued: u64,
    lines: Lines,
}

impl TaskStream {
    /// Draws the task's next access.
    fn next_access(&mut self) -> Access {
        let i = self.issued;
        self.issued += 1;
        let line = match &mut self.lines {
            Lines::Zipf {
                cumulative,
                total,
                rng,
            } => {
                let x = rng.gen_range(0..*total);
                cumulative.partition_point(|&c| c <= x) as u64
            }
            Lines::Scan { lines } => i % *lines,
            Lines::Chase { order } => order[(i % order.len() as u64) as usize],
            Lines::Phased {
                hot_lines,
                scan_lines,
                phase_accesses,
            } => {
                if (i / *phase_accesses).is_multiple_of(2) {
                    i % *hot_lines
                } else {
                    i % *scan_lines
                }
            }
        };
        let params = self.params;
        Access::load(
            params.base.offset(line * LINE_SIZE_BYTES),
            params.access_size,
            params.task,
            params.region,
        )
    }
}

impl fmt::Display for GenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GenKind::Zipf { working_set_bytes } => {
                write!(
                    f,
                    "zipf over a {} working set",
                    fmt_bytes(working_set_bytes)
                )
            }
            GenKind::Scan { footprint_bytes } => {
                write!(f, "streaming scan over {}", fmt_bytes(footprint_bytes))
            }
            GenKind::Chase { working_set_bytes } => {
                write!(f, "pointer chase over {}", fmt_bytes(working_set_bytes))
            }
            GenKind::Phased {
                hot_bytes,
                scan_bytes,
                phase_accesses,
            } => write!(
                f,
                "phased {} hot loop / {} scan, switching every {} accesses",
                fmt_bytes(hot_bytes),
                fmt_bytes(scan_bytes),
                phase_accesses
            ),
        }
    }
}

/// Renders a byte count as KB when whole, bytes otherwise.
fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{} KB", bytes / 1024)
    } else {
        format!("{bytes} B")
    }
}

/// One task of a generated scenario: a family and its access budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenTask {
    /// The task's family and parameters.
    pub kind: GenKind,
    /// Accesses the task issues over the whole trace.
    pub accesses: u64,
}

/// A complete synthetic scenario: a seed, an issue rate and one or more
/// tasks whose streams the composer interleaves proportionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenSpec {
    /// Master seed; each task derives its own RNG from it.
    pub seed: u64,
    /// Cycles between consecutive interleaved accesses (a uniform issue
    /// rate, so recorded cycles are globally nondecreasing).
    pub cycles_per_access: u64,
    /// The scenario's tasks; task `i` becomes `TaskId(i)` on processor `i`.
    pub tasks: Vec<GenTask>,
}

impl GenSpec {
    /// A one-task scenario at the default issue rate.
    pub fn single(kind: GenKind, seed: u64, accesses: u64) -> Self {
        GenSpec::mix(vec![GenTask { kind, accesses }], seed)
    }

    /// A multi-task scenario at the default issue rate.
    pub fn mix(tasks: Vec<GenTask>, seed: u64) -> Self {
        GenSpec {
            seed,
            cycles_per_access: DEFAULT_CYCLES_PER_ACCESS,
            tasks,
        }
    }

    /// Total accesses across all tasks, saturating at `u64::MAX`: exact
    /// for every spec [`generate`] accepts.
    pub fn total_accesses(&self) -> u64 {
        self.tasks
            .iter()
            .fold(0, |total, t| total.saturating_add(t.accesses))
    }
}

/// Why a [`GenSpec`] could not be generated.
#[derive(Debug)]
pub enum GenError {
    /// The spec itself is malformed (no tasks, zero accesses, a zero-sized
    /// footprint or one over [`MAX_FOOTPRINT_BYTES`], zero-length phases,
    /// a zero issue rate, more than [`MAX_TOTAL_ACCESSES`] accesses).
    InvalidSpec {
        /// What is wrong with the spec.
        reason: String,
    },
    /// The region table rejected a task's data region.
    Trace(TraceError),
    /// Encoding the composed stream failed, e.g. because the trace
    /// outgrew the memory the process can allocate.
    Codec(CodecError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::InvalidSpec { reason } => write!(f, "invalid generator spec: {reason}"),
            GenError::Trace(e) => write!(f, "cannot build the scenario's region table: {e}"),
            GenError::Codec(e) => write!(f, "cannot encode the generated trace: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<TraceError> for GenError {
    fn from(e: TraceError) -> Self {
        GenError::Trace(e)
    }
}

impl From<CodecError> for GenError {
    fn from(e: CodecError) -> Self {
        GenError::Codec(e)
    }
}

/// Generator provenance parsed back out of a region name.
///
/// Region names are the only string channel that survives the trace codec
/// round-trip, so [`generate`] encodes each task's family, parameters,
/// access budget, seed and index into its data region's name (e.g.
/// `gen.zipf.ws24576.n20000.s42.t0`) and this type carries the decoded
/// form — enough to reconstruct the exact [`GenSpec`] task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenProvenance {
    /// The task's index in the generating spec (and its processor).
    pub task_index: u32,
    /// The task's family and parameters.
    pub kind: GenKind,
    /// Accesses the task issued.
    pub accesses: u64,
    /// The spec's master seed.
    pub seed: u64,
}

impl fmt::Display for GenProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {}: {} ({} accesses, seed {})",
            self.task_index, self.kind, self.accesses, self.seed
        )
    }
}

/// The region name carrying one task's provenance.
fn region_name(kind: GenKind, accesses: u64, seed: u64, task_index: u32) -> String {
    format!(
        "gen.{}.{}.n{accesses}.s{seed}.t{task_index}",
        kind.label(),
        kind.name_params()
    )
}

/// Parses one `u64` token with the given prefix (`ws24576` → `24576`).
fn parse_token(token: &str, prefix: &str) -> Option<u64> {
    token.strip_prefix(prefix)?.parse().ok()
}

/// Parses generator provenance back out of a region name, if the region
/// was produced by [`generate`].
pub fn parse_region_name(name: &str) -> Option<GenProvenance> {
    let rest = name.strip_prefix("gen.")?;
    let tokens: Vec<&str> = rest.split('.').collect();
    let (kind, tail) = match *tokens.first()? {
        "zipf" => (
            GenKind::Zipf {
                working_set_bytes: parse_token(tokens.get(1)?, "ws")?,
            },
            &tokens[2..],
        ),
        "scan" => (
            GenKind::Scan {
                footprint_bytes: parse_token(tokens.get(1)?, "fp")?,
            },
            &tokens[2..],
        ),
        "chase" => (
            GenKind::Chase {
                working_set_bytes: parse_token(tokens.get(1)?, "ws")?,
            },
            &tokens[2..],
        ),
        "phased" => (
            GenKind::Phased {
                hot_bytes: parse_token(tokens.get(1)?, "hot")?,
                scan_bytes: parse_token(tokens.get(2)?, "scan")?,
                phase_accesses: parse_token(tokens.get(3)?, "p")?,
            },
            &tokens[4..],
        ),
        _ => return None,
    };
    let [n, s, t] = tail else { return None };
    Some(GenProvenance {
        task_index: u32::try_from(parse_token(t, "t")?).ok()?,
        kind,
        accesses: parse_token(n, "n")?,
        seed: parse_token(s, "s")?,
    })
}

/// Generator provenance of every zoo-generated region in a table, in task
/// order. Empty for recorded (non-generated) traces.
pub fn provenance(table: &RegionTable) -> Vec<GenProvenance> {
    let mut out: Vec<GenProvenance> = table
        .iter()
        .filter_map(|region| parse_region_name(&region.name))
        .collect();
    out.sort_by_key(|p| p.task_index);
    out
}

/// Generates the scenario a [`GenSpec`] describes as a standard encoded
/// trace.
///
/// Each task gets its own data region (named for its provenance) and its
/// own RNG derived from the master seed, so adding a task never perturbs
/// another task's stream. The composer interleaves the per-task streams
/// proportionally — at every slot the task furthest behind its fair share
/// issues next (ties to the lowest index) — and records task `i` on
/// processor `i` at a uniform issue rate, so cycles are globally
/// nondecreasing and a 4:1 access-budget ratio really is 4:1 at every
/// point of the trace. Identical specs produce byte-identical traces.
/// The trace is built from the encoder's own counts
/// ([`TraceWriter::finish_trace`]), without decoding it again.
///
/// # Errors
///
/// Returns [`GenError::InvalidSpec`] for malformed specs, and
/// [`GenError::Codec`] when the encoded trace outgrows the memory the
/// process can allocate: every task streams straight into the encoder, so
/// generation stops at the first growth the allocator refuses. Table
/// failures are propagated (they cannot occur for valid specs).
pub fn generate(spec: &GenSpec) -> Result<EncodedTrace, GenError> {
    let invalid = |reason: String| GenError::InvalidSpec { reason };
    if spec.tasks.is_empty() {
        return Err(invalid("a scenario needs at least one task".into()));
    }
    if spec.cycles_per_access == 0 {
        return Err(invalid("cycles-per-access must be at least 1".into()));
    }
    for (i, task) in spec.tasks.iter().enumerate() {
        if task.accesses == 0 {
            return Err(invalid(format!("task {i} has an access budget of 0")));
        }
        let footprint = task.kind.footprint_bytes();
        if footprint == 0 {
            return Err(invalid(format!("task {i} has a zero-byte footprint")));
        }
        if footprint > MAX_FOOTPRINT_BYTES {
            return Err(invalid(format!(
                "task {i} has a {} footprint, over the {} bound",
                fmt_bytes(footprint),
                fmt_bytes(MAX_FOOTPRINT_BYTES)
            )));
        }
        if let GenKind::Phased { phase_accesses, .. } = task.kind {
            if phase_accesses == 0 {
                return Err(invalid(format!("task {i} has a zero-length phase")));
            }
        }
    }
    // Summed in u128, which no number of u64 budgets can overflow.
    let total: u128 = spec.tasks.iter().map(|t| u128::from(t.accesses)).sum();
    if total > u128::from(MAX_TOTAL_ACCESSES) {
        return Err(invalid(format!(
            "the tasks total {total} accesses, over the {MAX_TOTAL_ACCESSES} bound"
        )));
    }

    let mut table = RegionTable::new();
    let mut streams = Vec::with_capacity(spec.tasks.len());
    for (i, task) in spec.tasks.iter().enumerate() {
        let index = i as u32;
        let task_id = TaskId::new(index);
        let region_id = table.insert(
            region_name(task.kind, task.accesses, spec.seed, index),
            RegionKind::TaskData { task: task_id },
            task.kind.footprint_bytes(),
        )?;
        let region = &table.regions()[table.len() - 1];
        debug_assert_eq!(region.id, region_id);
        let params = StreamParams::for_region(region, task_id);
        // Derive a distinct, well-mixed RNG per task so task streams are
        // independent of each other and of the task count.
        let rng = SmallRng::seed_from_u64(
            spec.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1),
        );
        streams.push(task.kind.stream(params, rng));
    }

    let mut writer = TraceWriter::new(Vec::new(), &table, spec.tasks.len() as u32)?;
    let budgets: Vec<u128> = spec.tasks.iter().map(|t| u128::from(t.accesses)).collect();
    let mut cycle = 0u64;
    for _ in 0..spec.total_accesses() {
        // Proportional interleave: issue the task with the smallest
        // (issued + 1) / budget fraction, compared exactly via cross
        // multiplication; ties resolve to the lowest task index.
        let mut next = usize::MAX;
        for (t, &budget) in budgets.iter().enumerate() {
            let issued = u128::from(streams[t].issued);
            if issued >= budget {
                continue;
            }
            if next == usize::MAX
                || (issued + 1) * budgets[next] < (u128::from(streams[next].issued) + 1) * budget
            {
                next = t;
            }
        }
        let access = streams[next].next_access();
        reserve(writer.sink_mut(), MAX_RECORD_BYTES)?;
        writer.record(next as u32, cycle, &access);
        cycle += spec.cycles_per_access;
    }
    Ok(writer.finish_trace()?)
}

/// Makes room for `additional` more bytes of a generated trace with
/// [`Vec::try_reserve`], so a trace larger than the process can allocate
/// stops [`generate`] with an error instead of aborting it.
fn reserve(bytes: &mut Vec<u8>, additional: usize) -> Result<(), CodecError> {
    bytes.try_reserve(additional).map_err(|_| {
        CodecError::Io(std::io::Error::new(
            std::io::ErrorKind::OutOfMemory,
            format!("out of memory growing the trace past {} bytes", bytes.len()),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StreamParams {
        StreamParams {
            task: TaskId::new(0),
            region: RegionId::new(0),
            base: Addr::new(0x1000),
            access_size: 4,
        }
    }

    #[test]
    fn strided_advances_by_stride() {
        let s = strided(params(), 64, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].addr, Addr::new(0x1000));
        assert_eq!(s[3].addr, Addr::new(0x1000 + 3 * 64));
    }

    #[test]
    fn looping_repeats_the_working_set() {
        let s = looping(params(), 256, 64, 3);
        assert_eq!(s.len(), 4 * 3);
        assert_eq!(s[0].addr, s[4].addr);
        assert_eq!(s[3].addr, s[11].addr);
    }

    #[test]
    fn interleave_preserves_all_accesses() {
        let a = strided(params(), 64, 3);
        let b = strided(params(), 64, 5);
        let merged = interleave(vec![a.clone(), b.clone()]);
        assert_eq!(merged.len(), 8);
        assert_eq!(merged[0], a[0]);
        assert_eq!(merged[1], b[0]);
        assert_eq!(merged[7], b[4]);
    }

    fn zoo_kinds() -> [GenKind; 4] {
        [
            GenKind::Zipf {
                working_set_bytes: 8 * 1024,
            },
            GenKind::Scan {
                footprint_bytes: 16 * 1024,
            },
            GenKind::Chase {
                working_set_bytes: 8 * 1024,
            },
            GenKind::Phased {
                hot_bytes: 2 * 1024,
                scan_bytes: 16 * 1024,
                phase_accesses: 100,
            },
        ]
    }

    #[test]
    fn zoo_families_are_deterministic_per_seed() {
        for kind in zoo_kinds() {
            let spec = GenSpec::single(kind, 42, 1000);
            let a = generate(&spec).unwrap();
            let b = generate(&spec).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{kind:?} is not deterministic");
            assert_eq!(a.content_hash(), b.content_hash());
            assert_eq!(a.summary().accesses, 1000);
            if kind.is_seeded() {
                let other = generate(&GenSpec::single(kind, 43, 1000)).unwrap();
                assert_ne!(a.bytes(), other.bytes(), "{kind:?} ignores its seed");
            }
        }
    }

    #[test]
    fn zoo_streams_stay_inside_their_region() {
        for kind in zoo_kinds() {
            let trace = generate(&GenSpec::single(kind, 7, 500)).unwrap();
            let region = &trace.table().regions()[0];
            for record in trace.reader() {
                let access = record.unwrap().access;
                assert!(access.addr >= region.base);
                assert!(access.addr < region.base.offset(region.size));
            }
        }
    }

    #[test]
    fn zoo_mix_interleaves_proportionally() {
        let spec = GenSpec::mix(
            vec![
                GenTask {
                    kind: GenKind::Chase {
                        working_set_bytes: 4 * 1024,
                    },
                    accesses: 1000,
                },
                GenTask {
                    kind: GenKind::Scan {
                        footprint_bytes: 32 * 1024,
                    },
                    accesses: 4000,
                },
            ],
            9,
        );
        let trace = generate(&spec).unwrap();
        assert_eq!(trace.summary().accesses, 5000);
        assert_eq!(trace.processors(), 2);
        // The 1:4 budget ratio must hold at every point, not just in
        // aggregate: after any 50-access window the victim has issued
        // 10 ± 1 of them.
        let issuers: Vec<u32> = trace.reader().map(|r| r.unwrap().processor).collect();
        for window in issuers.chunks(50) {
            let t0 = window.iter().filter(|&&p| p == 0).count();
            assert!((9..=11).contains(&t0), "unbalanced window: {t0}/50 from t0");
        }
    }

    #[test]
    fn zoo_provenance_round_trips_through_region_names() {
        let tasks = vec![
            GenTask {
                kind: GenKind::Zipf {
                    working_set_bytes: 24 * 1024,
                },
                accesses: 300,
            },
            GenTask {
                kind: GenKind::Phased {
                    hot_bytes: 8 * 1024,
                    scan_bytes: 128 * 1024,
                    phase_accesses: 2048,
                },
                accesses: 200,
            },
        ];
        let spec = GenSpec::mix(tasks.clone(), 77);
        let trace = generate(&spec).unwrap();
        let parsed = provenance(trace.table());
        assert_eq!(parsed.len(), tasks.len());
        for (i, (p, task)) in parsed.iter().zip(&tasks).enumerate() {
            assert_eq!(p.task_index, i as u32);
            assert_eq!(p.kind, task.kind);
            assert_eq!(p.accesses, task.accesses);
            assert_eq!(p.seed, 77);
        }
        // Recorded (non-generated) names parse as no provenance.
        assert_eq!(parse_region_name("idct.coeffs"), None);
        assert_eq!(parse_region_name("gen.zipf.bogus"), None);
    }

    #[test]
    fn zoo_rejects_malformed_specs() {
        let zipf = GenKind::Zipf {
            working_set_bytes: 1024,
        };
        let cases = [
            GenSpec::mix(vec![], 1),
            GenSpec::single(zipf, 1, 0),
            GenSpec::single(GenKind::Scan { footprint_bytes: 0 }, 1, 10),
            GenSpec::single(
                GenKind::Phased {
                    hot_bytes: 1024,
                    scan_bytes: 1024,
                    phase_accesses: 0,
                },
                1,
                10,
            ),
            GenSpec {
                cycles_per_access: 0,
                ..GenSpec::single(zipf, 1, 10)
            },
        ];
        for spec in cases {
            assert!(
                matches!(generate(&spec), Err(GenError::InvalidSpec { .. })),
                "{spec:?} was not rejected"
            );
        }
    }

    /// A footprint over the bound is refused by name before any per-line
    /// table is sized from it; the bound itself still generates.
    #[test]
    fn zoo_rejects_footprints_over_the_bound() {
        let huge = GenKind::Zipf {
            working_set_bytes: 100_000_000 * 1024,
        };
        let spec = GenSpec::mix(
            vec![
                GenTask {
                    kind: GenKind::Scan {
                        footprint_bytes: 4096,
                    },
                    accesses: 10,
                },
                GenTask {
                    kind: huge,
                    accesses: 10,
                },
            ],
            1,
        );
        let err = generate(&spec).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid generator spec: task 1 has a 100000000 KB footprint, \
             over the 1048576 KB bound"
        );
        for kind in [
            GenKind::Scan {
                footprint_bytes: MAX_FOOTPRINT_BYTES + 1,
            },
            GenKind::Chase {
                working_set_bytes: MAX_FOOTPRINT_BYTES + 64,
            },
            GenKind::Phased {
                hot_bytes: 1024,
                scan_bytes: MAX_FOOTPRINT_BYTES * 2,
                phase_accesses: 10,
            },
        ] {
            assert!(
                matches!(
                    generate(&GenSpec::single(kind, 1, 10)),
                    Err(GenError::InvalidSpec { .. })
                ),
                "{kind:?} was not rejected"
            );
        }
        let at_bound = GenKind::Scan {
            footprint_bytes: MAX_FOOTPRINT_BYTES,
        };
        assert_eq!(
            generate(&GenSpec::single(at_bound, 1, 10))
                .unwrap()
                .accesses(),
            10
        );
    }

    /// A total access budget over the bound is refused by name before any
    /// task stream starts, also when the sum overflows `u64`.
    #[test]
    fn zoo_rejects_totals_over_the_access_bound() {
        let scan = GenKind::Scan {
            footprint_bytes: 128 * 1024,
        };
        let err = generate(&GenSpec::single(scan, 1, 10_000_000_000))
            .unwrap_err()
            .to_string();
        assert_eq!(
            err,
            "invalid generator spec: the tasks total 10000000000 accesses, \
             over the 4294967295 bound"
        );
        let half = 1 << 63;
        let overflowing = GenSpec::mix(
            vec![
                GenTask {
                    kind: scan,
                    accesses: half,
                },
                GenTask {
                    kind: scan,
                    accesses: half,
                },
            ],
            1,
        );
        assert_eq!(overflowing.total_accesses(), u64::MAX);
        let err = generate(&overflowing).unwrap_err().to_string();
        assert_eq!(
            err,
            "invalid generator spec: the tasks total 18446744073709551616 accesses, \
             over the 4294967295 bound"
        );
    }

    #[test]
    fn a_growth_the_allocator_refuses_is_an_io_error() {
        let err = reserve(&mut vec![1, 2, 3], usize::MAX).unwrap_err();
        assert!(matches!(&err, CodecError::Io(e) if e.kind() == std::io::ErrorKind::OutOfMemory));
        assert_eq!(
            err.to_string(),
            "trace i/o error: out of memory growing the trace past 3 bytes"
        );
    }

    #[test]
    fn zoo_cycles_are_uniform_and_nondecreasing() {
        let spec = GenSpec::single(
            GenKind::Scan {
                footprint_bytes: 4096,
            },
            3,
            100,
        );
        let trace = generate(&spec).unwrap();
        let mut last = None;
        for (i, record) in trace.reader().enumerate() {
            let cycle = record.unwrap().cycle;
            if let Some(prev) = last {
                assert_eq!(cycle, prev + spec.cycles_per_access, "access {i}");
            }
            last = Some(cycle);
        }
    }
}
