//! Streaming feeds for the single-pass stack-distance profiler.
//!
//! The [`StackDistanceProfiler`](compmem_cache::StackDistanceProfiler)
//! consumes the **L2-bound** access stream — the L1 misses, in global
//! issue order — which is exactly the stream the shared L2 serves. This
//! module provides the two ways to produce that stream without mounting
//! anything in the hierarchy:
//!
//! * [`profile_trace`] profiles a recorded [`PreparedTrace`] through the
//!   trace's cached L1 filter (the same
//!   [`filtered_for`](PreparedTrace::filtered_for) pass replays use), so
//!   profiling a trace that has already been replayed — or replaying a
//!   trace that has been profiled — pays the L1 simulation only once;
//! * a [`WindowedProfiler`] is itself an [`AccessTap`] and profiles a
//!   **live** run: [`System::run_traced`](crate::System::run_traced)
//!   hands it the refills the system's own private L1s produced, run by
//!   run, so the profiler observes exactly the stream the shared L2
//!   serves and no L1 is simulated twice — one live run yields the
//!   shared-cache baseline *and* the full miss-rate curves, with no trace
//!   on disk or in memory.
//!
//! # Windowed profiling
//!
//! Both feeds produce a [`WindowedCurves`] — a [`MissRateCurves`]
//! snapshot per fixed-size window plus the exact whole-run curves — for
//! phase-aware partitioning; a [`WindowConfig::whole_run`] pass is the
//! plain profile ([`profile_trace`] is exactly that). Access-count
//! windows are exact everywhere. Both feeds clock every refill at its
//! run's issue cycle (runs are short, so that coarsening is one run long
//! at worst). Multiprocessor streams are observed in *issue order*, which
//! is only approximately chronological (a processor's chunk runs ahead
//! of a peer's clock), so a cycle window can absorb slightly
//! earlier-cycled accesses from another processor — see
//! [`WindowKind::Cycles`](compmem_cache::WindowKind) for the boundary
//! semantics.
//!
//! # Set-sharded profiling
//!
//! [`profile_trace_windowed_lanes`] splits a trace pass into set shards
//! by the rule of [`lanes`](crate::lanes): every profiler stack picks its
//! set from the line's low bits, so when the shard count divides the
//! resolution's smallest set count, shard `i` owns the stacks and first
//! touches of the lines with `line % N == i`. Each shard walks the whole
//! refill stream on its own thread, profiles its own lines and only
//! advances the window clock past the others
//! ([`WindowedProfiler::skip_at`]); the shards' curves add up to the
//! serial pass's, window for window and aggregate curve included.
//!
//! # Persisted curve sidecars
//!
//! Profiling a trace pays the L1 filter simulation before the profiler
//! sees an access, but the curves are a pure function of the trace
//! bytes, the **L1 filter configuration** (which L2-bound stream the
//! trace reduces to) and the profiling resolution/window configuration.
//! [`profile_trace_with_sidecar`] therefore persists them in a `.curves`
//! file next to the trace (the binary sidecar IR of
//! `compmem_trace::curves`, keyed by a content hash of the trace bytes
//! plus [`l1_filter_signature`]): when a matching sidecar exists the
//! curves are loaded back and the **L1 filter pass is skipped
//! entirely**; corrupt, foreign or configuration-mismatched sidecars are
//! silently re-measured and rewritten (their parse failure is a
//! [`CodecError`] [`SidecarOutcome::Rewritten`] records, never a panic).
//!
//! [`CodecError`]: compmem_trace::CodecError

use std::path::Path;

use compmem_cache::{
    CurveResolution, MissRateCurves, WindowConfig, WindowedCurves, WindowedProfiler,
};
use compmem_trace::curves::{trace_content_hash, EncodedCurves};
use compmem_trace::{Access, CodecError, RegionTable};

use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::lanes::{run_shards, set_shards, SetShard};
use crate::memory::L1Refill;
use crate::replay::{AccessTap, FilteredTrace, PreparedTrace};

/// Measuring **windowed** miss-rate curves during a live run
/// ([`WindowConfig::whole_run`] gives the plain curves): every refill the
/// system's private L1s sent to the L2 is observed at its run's issue
/// cycle. The tap never perturbs the simulation.
impl AccessTap for WindowedProfiler {
    fn record_run(&mut self, _: usize, cycle: u64, _: &[Access], refills: &[L1Refill]) {
        for refill in refills {
            self.observe_at(cycle, &refill.access);
        }
    }
}

/// Profiles a recorded trace in one pass and returns the miss-rate curves
/// of every partition key, using the trace's cached per-L1-configuration
/// filter (shared with replays of the same trace).
///
/// # Errors
///
/// Returns [`PlatformError::ProcessorOutOfRange`] if a trace run names a
/// processor outside the trace's declared processor count.
pub fn profile_trace(
    config: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
) -> Result<MissRateCurves, PlatformError> {
    profile_trace_windowed(config, trace, resolution, WindowConfig::whole_run())
        .map(|windowed| windowed.total)
}

/// Profiles a recorded trace in windows (see the module docs): the
/// whole-run pass of [`profile_trace`] plus one [`MissRateCurves`]
/// snapshot per window.
///
/// Refills are clocked at their run's start cycle, as in the live feed,
/// so cycle windows are run-granular; access-count windows are exact.
///
/// # Errors
///
/// Returns [`PlatformError::ProcessorOutOfRange`] if a trace run names a
/// processor outside the trace's declared processor count.
pub fn profile_trace_windowed(
    config: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
    window: WindowConfig,
) -> Result<WindowedCurves, PlatformError> {
    profile_trace_windowed_lanes(config, trace, resolution, window, 1)
}

/// Profiles one set shard: the refills of its own lines are observed,
/// every other refill only advances the window clock.
fn profile_shard(
    filtered: &FilteredTrace,
    regions: &RegionTable,
    resolution: CurveResolution,
    window: WindowConfig,
    shard: SetShard,
) -> WindowedCurves {
    let mut profiler = WindowedProfiler::new(window, resolution, regions);
    for run in &filtered.runs {
        for refill in filtered.refills_of(run) {
            if shard.owns(&refill.access) {
                profiler.observe_at(run.start_cycle, &refill.access);
            } else {
                profiler.skip_at(run.start_cycle);
            }
        }
    }
    profiler.finish()
}

/// The set shards a profiling pass at `resolution` splits into for up to
/// `requested` workers: the set-shard rule of [`lanes`](crate::lanes)
/// over the profiler's smallest stack level (every larger level is a
/// multiple of it).
pub fn profile_shards(resolution: CurveResolution, requested: usize) -> usize {
    set_shards(requested, [(0, resolution.min_sets)])
}

/// Set-sharded sibling of [`profile_trace_windowed`]: splits the pass
/// into [`profile_shards`] set shards (see the module docs), one worker
/// each, and adds their curves up — point for point the serial result,
/// so the job count is a performance knob, never a semantics switch.
///
/// # Errors
///
/// As for [`profile_trace_windowed`].
pub fn profile_trace_windowed_lanes(
    config: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
    window: WindowConfig,
    jobs: usize,
) -> Result<WindowedCurves, PlatformError> {
    let shards = profile_shards(resolution, jobs);
    let filtered = trace.filtered_for(config)?;
    let mut lanes = run_shards(shards, |shard| {
        profile_shard(&filtered, trace.table(), resolution, window, shard)
    })
    .into_iter();
    let mut merged = lanes.next().expect("a pass has at least one shard");
    for lane in lanes {
        merged.absorb_shard(&lane);
    }
    Ok(merged)
}

/// What [`profile_trace_with_sidecar`] did to satisfy the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidecarOutcome {
    /// A matching sidecar existed: its curves were loaded and the L1
    /// filter pass was skipped.
    Reused,
    /// No sidecar existed: the trace was profiled and the sidecar
    /// written.
    Written,
    /// A sidecar existed but could not be used; the trace was re-profiled
    /// and the sidecar replaced.
    Rewritten {
        /// Why the existing sidecar was rejected (the rendered
        /// [`CodecError`] — e.g. corrupt
        /// bytes, a foreign trace hash, or a different profiling
        /// configuration).
        reason: String,
    },
}

/// Profiles a prepared trace with a persisted curve sidecar: loads the
/// curves from `sidecar` when it matches the trace and the requested
/// configuration — **skipping the L1 filter pass entirely** — and
/// otherwise profiles the trace and (re)writes the sidecar.
///
/// A sidecar matches when its embedded content hash equals the trace's
/// ([`EncodedTrace::content_hash`](compmem_trace::EncodedTrace::content_hash)),
/// its L1 signature equals [`l1_filter_signature`] of `config` (the
/// L2-bound stream — and hence every curve — depends on the private L1
/// geometry the filter runs), and its resolution and window
/// configuration equal the requested ones. The sidecar encoding is
/// deterministic, so reusing and rewriting are byte-for-byte idempotent.
///
/// ```
/// use compmem_cache::{CurveResolution, WindowConfig};
/// use compmem_platform::{profile_trace_with_sidecar, PlatformConfig, PreparedTrace,
///     SidecarOutcome};
/// use compmem_trace::codec::{EncodedTrace, TraceWriter};
/// use compmem_trace::{Access, Addr, RegionId, RegionKind, RegionTable, TaskId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut table = RegionTable::new();
/// let task = TaskId::new(0);
/// table.insert("t0.data", RegionKind::TaskData { task }, 4096)?;
/// let mut writer = TraceWriter::new(Vec::new(), &table, 1)?;
/// for i in 0..64u64 {
///     writer.record(0, i, &Access::load(Addr::new(i % 48 * 64), 4, task, RegionId::new(0)));
/// }
/// let (bytes, _) = writer.finish()?;
/// let trace = PreparedTrace::from(EncodedTrace::from_bytes(bytes)?);
///
/// let dir = std::env::temp_dir().join("compmem-sidecar-doctest");
/// std::fs::create_dir_all(&dir)?;
/// let sidecar = dir.join("doctest.curves");
/// let _ = std::fs::remove_file(&sidecar);
///
/// let config = PlatformConfig::default();
/// let resolution = CurveResolution::new(4, 16, 2)?;
/// let window = WindowConfig::whole_run();
/// // First call measures and persists...
/// let (first, outcome) =
///     profile_trace_with_sidecar(&config, &trace, resolution, window, &sidecar)?;
/// assert_eq!(outcome, SidecarOutcome::Written);
/// // ...the second loads the sidecar back, skipping the L1 filter.
/// let (second, outcome) =
///     profile_trace_with_sidecar(&config, &trace, resolution, window, &sidecar)?;
/// assert_eq!(outcome, SidecarOutcome::Reused);
/// assert_eq!(second, first);
/// # let _ = std::fs::remove_file(&sidecar);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PlatformError::ProcessorOutOfRange`] for an unprofilable
/// trace and [`PlatformError::SidecarWrite`] if the freshly measured
/// sidecar cannot be written. A corrupt or mismatched *existing* sidecar
/// is never an error — it is re-measured and reported through
/// [`SidecarOutcome::Rewritten`].
pub fn profile_trace_with_sidecar(
    config: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
    window: WindowConfig,
    sidecar: &Path,
) -> Result<(WindowedCurves, SidecarOutcome), PlatformError> {
    profile_trace_with_sidecar_lanes(config, trace, resolution, window, sidecar, 1)
}

/// Set-sharded sibling of [`profile_trace_with_sidecar`]: a missing or
/// mismatched sidecar is re-measured by
/// [`profile_trace_windowed_lanes`] on up to `jobs` workers. Sharded
/// curves equal serial ones point-for-point and the sidecar encoding is
/// deterministic, so the written sidecar is **byte-identical** for every
/// job count — and a sidecar written serially is reused as-is.
///
/// # Errors
///
/// As for [`profile_trace_with_sidecar`].
pub fn profile_trace_with_sidecar_lanes(
    config: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
    window: WindowConfig,
    sidecar: &Path,
    jobs: usize,
) -> Result<(WindowedCurves, SidecarOutcome), PlatformError> {
    let rejection = match load_sidecar(config, trace, resolution, window, sidecar) {
        Ok(Some(windowed)) => return Ok((windowed, SidecarOutcome::Reused)),
        Ok(None) => None,
        Err(reason) => Some(reason),
    };
    let windowed = profile_trace_windowed_lanes(config, trace, resolution, window, jobs)?;
    windowed
        .to_sidecar(trace.trace().content_hash(), l1_filter_signature(config))
        .write_to(sidecar)
        .map_err(|e| PlatformError::SidecarWrite {
            message: e.to_string(),
        })?;
    let outcome = match rejection {
        None => SidecarOutcome::Written,
        Some(reason) => SidecarOutcome::Rewritten { reason },
    };
    Ok((windowed, outcome))
}

/// Stable signature of the L1 filter configuration a profiling pass runs
/// behind: the instruction and data L1 geometries, replacement policies
/// and seeds, hashed in a fixed field order. Embedded in every curve
/// sidecar so curves measured behind one L1 configuration are never
/// reused for another (a different L1 produces a different L2-bound
/// stream from the same trace).
pub fn l1_filter_signature(config: &PlatformConfig) -> u64 {
    let mut fields = Vec::with_capacity(2 * 4 * 8);
    for l1 in [config.l1i, config.l1d] {
        fields.extend_from_slice(&u64::from(l1.geometry().sets()).to_le_bytes());
        fields.extend_from_slice(&u64::from(l1.geometry().ways()).to_le_bytes());
        fields.extend_from_slice(&(l1.replacement_policy() as u64).to_le_bytes());
        fields.extend_from_slice(&l1.random_seed().to_le_bytes());
    }
    trace_content_hash(&fields)
}

/// Loads the sidecar at `sidecar` if it may stand in for profiling
/// `trace` at `resolution` and `window` behind `config`'s L1s, or
/// returns `Ok(None)` when no file is there. This is the one definition
/// of sidecar reuse: every profiling verb and the `compmem serve`
/// daemon's hit/miss classification go through it. It checks the trace
/// hash, the L1 filter signature, the resolution and the window config.
///
/// The trace hash it compares against is
/// [`EncodedTrace::content_hash`](compmem_trace::EncodedTrace::content_hash),
/// computed once per decoded trace from its bytes: repeated checks on one
/// trace (a served hit classifies, then answers) cost the sidecar read,
/// not a pass over the trace.
///
/// # Errors
///
/// Why the sidecar cannot stand in, when the file exists but is corrupt
/// or belongs to another trace or configuration.
pub fn load_sidecar(
    config: &PlatformConfig,
    trace: &PreparedTrace,
    resolution: CurveResolution,
    window: WindowConfig,
    sidecar: &Path,
) -> Result<Option<WindowedCurves>, String> {
    if !sidecar.exists() {
        return Ok(None);
    }
    let mismatch = |field: &'static str| CodecError::SidecarMismatch { field }.to_string();
    let encoded = EncodedCurves::read_from(sidecar).map_err(|e| e.to_string())?;
    if encoded.header().trace_hash != trace.trace().content_hash() {
        return Err(mismatch("trace hash"));
    }
    if encoded.header().l1_signature != l1_filter_signature(config) {
        return Err(mismatch("l1 configuration"));
    }
    let windowed = WindowedCurves::from_sidecar(&encoded).map_err(|e| e.to_string())?;
    if windowed.resolution != resolution {
        return Err(mismatch("resolution"));
    }
    if windowed.config != window {
        return Err(mismatch("window config"));
    }
    Ok(Some(windowed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Burst, BurstOutcome, Op, WorkloadDriver};
    use crate::replay::ReplaySystem;
    use crate::scheduler::TaskMapping;
    use crate::system::System;
    use compmem_cache::{per_size_profiles, CacheConfig, CacheSizeLattice, PartitionKey};
    use compmem_trace::codec::{EncodedTrace, TraceWriter};
    use compmem_trace::{Addr, RegionId, RegionKind, RegionTable, TaskId};

    /// Two tasks with interleaving loads, stores and compute over distinct
    /// regions (the same shape as the replay tests).
    struct MixedDriver {
        remaining: Vec<u32>,
        cursor: Vec<u64>,
    }

    impl WorkloadDriver for MixedDriver {
        fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
            let t = task.index();
            if self.remaining[t] == 0 {
                return BurstOutcome::Finished;
            }
            self.remaining[t] -= 1;
            let base = 0x10_0000 * (t as u64 + 1);
            let mut ops = Vec::new();
            for i in 0..12 {
                let addr = base + ((self.cursor[t] + i * 3) % 160) * 64;
                ops.push(Op::Compute(1 + (i % 2) as u32));
                let access = if i % 4 == 0 {
                    Access::store(Addr::new(addr), 4, task, RegionId::new(t as u32))
                } else {
                    Access::load(Addr::new(addr), 4, task, RegionId::new(t as u32))
                };
                ops.push(Op::Mem(access));
            }
            self.cursor[t] += 12;
            BurstOutcome::Ready(Burst::new(ops))
        }
    }

    fn driver() -> MixedDriver {
        MixedDriver {
            remaining: vec![40, 40],
            cursor: vec![0, 0],
        }
    }

    fn region_table() -> RegionTable {
        let mut table = RegionTable::new();
        for t in 0..2u32 {
            table
                .insert(
                    format!("t{t}.data"),
                    RegionKind::TaskData {
                        task: TaskId::new(t),
                    },
                    160 * 64,
                )
                .unwrap();
        }
        table
    }

    fn l2_config() -> CacheConfig {
        CacheConfig::new(64, 4).unwrap()
    }

    fn resolution() -> CurveResolution {
        CurveResolution::for_geometry(l2_config().geometry(), 4).unwrap()
    }

    fn platform() -> PlatformConfig {
        PlatformConfig::default().processors(2)
    }

    fn mapping() -> TaskMapping {
        TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2)
    }

    /// Runs the workload live with a whole-run profiling tap and returns
    /// the curves it measured.
    fn live_curves() -> MissRateCurves {
        let mut system = System::new(
            platform(),
            Box::new(compmem_cache::SharedCache::new(l2_config())),
            mapping(),
        )
        .unwrap();
        let mut tap =
            WindowedProfiler::new(WindowConfig::whole_run(), resolution(), &region_table());
        system.run_traced(&mut driver(), &mut tap).unwrap();
        tap.finish().total
    }

    /// Runs the workload live with a `TraceWriter` tap and returns the
    /// encoded trace.
    fn record() -> EncodedTrace {
        let mut system = System::new(
            platform(),
            Box::new(compmem_cache::SharedCache::new(l2_config())),
            mapping(),
        )
        .unwrap();
        let mut writer = TraceWriter::new(Vec::new(), &region_table(), 2).unwrap();
        system.run_traced(&mut driver(), &mut writer).unwrap();
        let (bytes, _) = writer.finish().unwrap();
        EncodedTrace::from_bytes(bytes).unwrap()
    }

    #[test]
    fn live_tap_matches_the_shadow_cache_profiling_run() {
        // Reference profiles: the recorded run's L2-bound refills, each
        // key alone through one LRU cache per lattice size.
        let lattice = CacheSizeLattice::new(l2_config().geometry(), 4);
        let prepared = PreparedTrace::from(record());
        let filtered = prepared.filtered_for(&platform()).unwrap();
        let expected = per_size_profiles(filtered.accesses(), prepared.table(), &lattice, 4);

        // The same run live, with the tap measuring the curves on the side.
        let profiles = live_curves().to_profiles(&lattice, 4).unwrap();
        assert_eq!(profiles, expected);
    }

    #[test]
    fn trace_profiles_match_the_live_tap() {
        let prepared = PreparedTrace::from(record());
        let from_trace = profile_trace(&platform(), &prepared, resolution()).unwrap();
        let live = live_curves();
        assert!(live.accesses() > 0);
        assert_eq!(live, from_trace);
    }

    #[test]
    fn profiling_shares_the_replay_l1_filter() {
        let prepared = PreparedTrace::from(record());
        let config = platform();
        // Replay first: the filter pass is computed and cached...
        let mut replay = ReplaySystem::new(
            &config,
            Box::new(compmem_cache::SharedCache::new(l2_config())),
            &prepared,
        )
        .unwrap();
        let report = replay.run();
        // ...then profiling reuses it (same Arc), and its per-key access
        // totals are exactly the L2 accesses of the replay.
        let before = prepared.filtered_for(&config).unwrap();
        let curves = profile_trace(&config, &prepared, resolution()).unwrap();
        let after = prepared.filtered_for(&config).unwrap();
        assert!(std::sync::Arc::ptr_eq(&before, &after));
        let profiled: u64 = curves.curves.values().map(|c| c.accesses).sum();
        assert_eq!(profiled, report.l2.accesses);
    }

    #[test]
    fn out_of_range_processor_is_reported() {
        let mut table = RegionTable::new();
        table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                4096,
            )
            .unwrap();
        let mut writer = TraceWriter::new(Vec::new(), &table, 1).unwrap();
        let access = Access::load(Addr::new(0x40), 4, TaskId::new(0), RegionId::new(0));
        writer.record(5, 0, &access);
        let (bytes, _) = writer.finish().unwrap();
        let trace = EncodedTrace::from_bytes(bytes).unwrap();

        // A trace naming a region outside its embedded table is refused
        // by the writer, and rejected at decode time when such bytes come
        // from elsewhere — no profiler or replay consumer can be handed a
        // bogus region index.
        let empty = RegionTable::new();
        let mut corrupt_writer = TraceWriter::new(Vec::new(), &empty, 1).unwrap();
        corrupt_writer.record(0, 0, &access);
        assert!(matches!(
            corrupt_writer.finish(),
            Err(CodecError::Unencodable { .. })
        ));
        let header_of = |table: &RegionTable| {
            let (mut header, _) = TraceWriter::new(Vec::new(), table, 1)
                .unwrap()
                .finish()
                .unwrap();
            header.pop(); // the END record
            header
        };
        let body = &trace.bytes()[header_of(&table).len()..];
        let corrupt = [header_of(&empty).as_slice(), body].concat();
        let err = EncodedTrace::from_bytes(corrupt).unwrap_err();
        assert!(err
            .to_string()
            .contains("region id outside the embedded region table"));
        let prepared = PreparedTrace::from(trace);
        assert!(matches!(
            profile_trace(&PlatformConfig::default(), &prepared, resolution()),
            Err(PlatformError::ProcessorOutOfRange { .. })
        ));
    }

    #[test]
    fn windowed_totals_match_the_plain_pass_across_all_feeds() {
        let prepared = PreparedTrace::from(record());
        let window = compmem_cache::WindowConfig::accesses(40).unwrap();

        let plain = profile_trace(&platform(), &prepared, resolution()).unwrap();
        let windowed =
            profile_trace_windowed(&platform(), &prepared, resolution(), window).unwrap();
        assert!(windowed.windows.len() > 1, "enough traffic for 2+ windows");
        assert_eq!(windowed.total, plain);
        assert_eq!(windowed.reconstruct_total(), plain);

        // The live windowed tap agrees on the whole-run curves too.
        let mut system = System::new(
            platform(),
            Box::new(compmem_cache::SharedCache::new(l2_config())),
            mapping(),
        )
        .unwrap();
        let mut tap = WindowedProfiler::new(window, resolution(), &region_table());
        system.run_traced(&mut driver(), &mut tap).unwrap();
        let live = tap.finish().total;
        assert!(live.accesses() > 0);
        assert_eq!(live, plain);
    }

    #[test]
    fn sidecar_is_written_then_reused_byte_identically() {
        let dir = std::env::temp_dir().join("compmem-sidecar-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.curves");
        let _ = std::fs::remove_file(&path);

        let prepared = PreparedTrace::from(record());
        let window = compmem_cache::WindowConfig::accesses(64).unwrap();
        let (first, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &path)
                .unwrap();
        assert_eq!(outcome, SidecarOutcome::Written);
        let bytes = std::fs::read(&path).unwrap();

        // Second invocation: loaded back, file untouched, curves equal.
        let (second, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &path)
                .unwrap();
        assert_eq!(outcome, SidecarOutcome::Reused);
        assert_eq!(second, first);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // A different profiling configuration rejects the sidecar and
        // rewrites it.
        let other = compmem_cache::WindowConfig::accesses(32).unwrap();
        let (_, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), other, &path).unwrap();
        assert!(matches!(outcome, SidecarOutcome::Rewritten { ref reason }
            if reason.contains("window config")));

        // A different *L1 configuration* rejects it too: the L2-bound
        // stream (and hence every curve) depends on the private L1s, so
        // curves measured behind one L1 must never answer for another.
        std::fs::write(&path, &bytes).unwrap();
        let small_l1 = platform().l1(CacheConfig::new(4, 2).unwrap());
        assert_ne!(
            l1_filter_signature(&small_l1),
            l1_filter_signature(&platform())
        );
        let (refiltered, outcome) =
            profile_trace_with_sidecar(&small_l1, &prepared, resolution(), window, &path).unwrap();
        assert!(matches!(outcome, SidecarOutcome::Rewritten { ref reason }
            if reason.contains("l1 configuration")));
        assert_ne!(
            refiltered.total, first.total,
            "a smaller L1 passes more refills through to the profiler"
        );

        // Restore, then corrupt the file: silently re-measured, never a
        // panic.
        std::fs::write(&path, &bytes).unwrap();
        let (_, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &path)
                .unwrap();
        assert_eq!(outcome, SidecarOutcome::Reused);
        std::fs::write(&path, b"garbage").unwrap();
        let (_, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &path)
                .unwrap();
        assert!(matches!(outcome, SidecarOutcome::Rewritten { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sidecar_reuse_skips_the_l1_filter_entirely() {
        // A trace whose run names processor 5 on a 1-processor recording
        // cannot pass the L1 filter (ProcessorOutOfRange) — but a valid
        // sidecar for its bytes loads fine, proving the reuse path never
        // touches the filter.
        let mut table = RegionTable::new();
        table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                4096,
            )
            .unwrap();
        let mut writer = TraceWriter::new(Vec::new(), &table, 1).unwrap();
        let access = Access::load(Addr::new(0x40), 4, TaskId::new(0), RegionId::new(0));
        writer.record(5, 0, &access);
        let (bytes, _) = writer.finish().unwrap();
        let prepared = PreparedTrace::from(EncodedTrace::from_bytes(bytes).unwrap());

        let window = compmem_cache::WindowConfig::whole_run();
        let dir = std::env::temp_dir().join("compmem-sidecar-skip-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.curves");

        // Without a sidecar, profiling must fail in the filter.
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &path),
            Err(PlatformError::ProcessorOutOfRange { .. })
        ));

        // Plant a (trivial) sidecar bound to the trace's content hash
        // and the platform's L1 configuration.
        let empty = compmem_cache::WindowedProfiler::new(window, resolution(), &table).finish();
        empty
            .to_sidecar(
                prepared.trace().content_hash(),
                l1_filter_signature(&platform()),
            )
            .write_to(&path)
            .unwrap();
        let (loaded, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &path)
                .unwrap();
        assert_eq!(outcome, SidecarOutcome::Reused);
        assert_eq!(loaded, empty);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lane_parallel_windowed_profiles_match_serial_window_for_window() {
        let prepared = PreparedTrace::from(record());
        for window in [
            compmem_cache::WindowConfig::whole_run(),
            compmem_cache::WindowConfig::accesses(40).unwrap(),
            compmem_cache::WindowConfig::cycles(200).unwrap(),
        ] {
            let serial =
                profile_trace_windowed(&platform(), &prepared, resolution(), window).unwrap();
            for jobs in [1, 2, 4, 8] {
                assert_eq!(profile_shards(resolution(), jobs), jobs.min(4));
                let laned = profile_trace_windowed_lanes(
                    &platform(),
                    &prepared,
                    resolution(),
                    window,
                    jobs,
                )
                .unwrap();
                assert_eq!(laned, serial, "window {window:?}, jobs = {jobs}");
            }
        }
    }

    #[test]
    fn lane_profiled_sidecar_is_byte_identical_to_serial() {
        let dir = std::env::temp_dir().join("compmem-sidecar-lanes-test");
        std::fs::create_dir_all(&dir).unwrap();
        let serial_path = dir.join("serial.curves");
        let laned_path = dir.join("laned.curves");
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&laned_path);

        let prepared = PreparedTrace::from(record());
        let window = compmem_cache::WindowConfig::accesses(64).unwrap();
        let (serial, outcome) =
            profile_trace_with_sidecar(&platform(), &prepared, resolution(), window, &serial_path)
                .unwrap();
        assert_eq!(outcome, SidecarOutcome::Written);
        let (laned, outcome) = profile_trace_with_sidecar_lanes(
            &platform(),
            &prepared,
            resolution(),
            window,
            &laned_path,
            4,
        )
        .unwrap();
        assert_eq!(outcome, SidecarOutcome::Written);
        assert_eq!(laned, serial);
        assert_eq!(
            std::fs::read(&serial_path).unwrap(),
            std::fs::read(&laned_path).unwrap(),
            "lane-measured sidecars must be byte-identical to serial ones"
        );

        // A serially written sidecar satisfies a lane-parallel request.
        let (reused, outcome) = profile_trace_with_sidecar_lanes(
            &platform(),
            &prepared,
            resolution(),
            window,
            &serial_path,
            4,
        )
        .unwrap();
        assert_eq!(outcome, SidecarOutcome::Reused);
        assert_eq!(reused, serial);
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&laned_path);
    }

    #[test]
    fn curves_name_every_active_key() {
        let prepared = PreparedTrace::from(record());
        let curves = profile_trace(&platform(), &prepared, resolution()).unwrap();
        for t in 0..2 {
            assert!(
                curves.curve(PartitionKey::Task(TaskId::new(t))).is_some(),
                "task {t} reached the L2"
            );
        }
    }
}
