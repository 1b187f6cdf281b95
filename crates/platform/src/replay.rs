//! Trace record/replay: tapping live runs and replaying encoded traces.
//!
//! Recording and replaying splits the simulator's two jobs — *executing the
//! workload* and *timing the memory hierarchy* — so that organisation
//! sweeps pay the workload cost once:
//!
//! * **Record**: [`System::run_traced`](crate::System::run_traced) drives a
//!   live run and hands every run of accesses that entered the hierarchy
//!   to an [`AccessTap`], in issue order, with its processor, its issue
//!   cycle and the L1 refills [`MemorySystem::access_burst`] computed for
//!   it. The tap for the binary trace IR is [`TraceWriter`], which keeps
//!   the accesses, so recording streams straight to a file or an
//!   in-memory [`EncodedTrace`]; the live profiling tap keeps the refills.
//! * **Replay**: a [`ReplaySystem`] rebuilds the hierarchy (fresh L1s, bus,
//!   any `Box<dyn CacheModel>` L2) and re-issues the decoded trace: one
//!   loop walks the recorded runs in global recorded order through
//!   [`MemorySystem::refill_burst`], so the whole hierarchy sees exactly
//!   the access sequence of the live run — cache statistics and snapshots
//!   are **bit-identical** to the recording run under the same
//!   organisation — while skipping workload execution and the L1
//!   lookups, which the filter pass made once.
//!
//! Replay *cache state* is exact; replay *timing* is a reconstruction:
//! every run starts at its recorded issue cycle and advances by one cycle
//! per data access plus the stalls recomputed under the replayed
//! organisation, so compute phases between runs are carried by the
//! recorded cycles rather than re-simulated.
//!
//! # The L1 filter
//!
//! An L2-organisation sweep replays one trace many times, but the private
//! L1 caches do not depend on the L2 organisation at all: the L2-bound
//! refill stream — which access misses the L1, in what order, with which
//! dirty victims — is a function of the trace and the L1 configuration
//! alone. A [`PreparedTrace`] therefore filters the trace **once** per L1
//! configuration, through the same private L1 bank type a
//! [`MemorySystem`] holds, and caches the result; every [`ReplaySystem`]
//! built from it replays only the refills (via
//! [`MemorySystem::refill_burst`]), typically one to two orders of
//! magnitude fewer accesses, with bus traffic, issue times and L2 state
//! bit-identical to replaying the full run.
//!
//! The filter takes records as they are decoded from the encoded bytes,
//! one step per record, and nothing decoded outlives it: the result is
//! one [`FilteredTrace`] holding a single refill vector in global
//! recorded order plus one [`FilteredRun`] header per run — its processor,
//! start cycle, access counts and the range of its refills
//! ([`FilteredTrace::refills_of`]). Runs split by the codec's one rule,
//! [`RunSplitter`]. Replay, the set-sharded lanes (each one a
//! [`ReplaySystem`] restricted to its set shard), the profiler feeds and
//! the online controller all read slices of that one vector, so no step
//! from decode to L2 allocates per run or per access.
//!
//! The records come from one of two decoding passes, and each record is
//! decoded once per pass (trace stripping: Uhlig & Mudge, "Trace-driven
//! memory simulation: a survey", ACM Computing Surveys 1997):
//!
//! * [`PreparedTrace::from_bytes_filtered`] runs the filter step as the
//!   visitor of the validating pass
//!   ([`EncodedTrace::from_bytes_visiting`]) and caches the result for
//!   that L1 configuration, so a trace read to be filtered is decoded
//!   once, not once to validate and again to filter. The one-shot CLI
//!   verbs that filter load their trace this way;
//! * [`PreparedTrace::filtered_for`] filters an already validated trace
//!   for any other L1 configuration on first use, streaming its records
//!   again ([`EncodedTrace::reader`]).

use std::io::Write;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use compmem_cache::{
    CacheConfig, CacheError, CacheModel, CacheStats, OrganizationSpec, PartitionSchedule,
    ScheduleStep,
};
use compmem_trace::codec::{
    CodecError, EncodedTrace, RunSplitter, TraceRecord, TraceSummary, TraceWriter,
};
use compmem_trace::{Access, RegionTable};

use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::lanes::SetShard;
use crate::memory::{L1Filter, L1Refill, MemorySystem};
use crate::metrics::{ProcessorReport, SystemReport};

/// Observer of every run of accesses entering the memory hierarchy of a
/// live run.
///
/// Taps see runs in issue order, after the hierarchy served them: the
/// issuing processor, the run's issue cycle (every access of a run shares
/// it, as in the trace IR), its accesses and the L1 refills
/// [`MemorySystem::access_burst`] computed for them — the run's L2-bound
/// stream. The no-op [`NullTap`] is what plain
/// [`System::run`](crate::System::run) uses; it monomorphises away
/// entirely.
pub trait AccessTap {
    /// Observes a run of `accesses` issued by `processor` at `cycle`,
    /// of which `refills` missed the private L1s.
    fn record_run(
        &mut self,
        processor: usize,
        cycle: u64,
        accesses: &[Access],
        refills: &[L1Refill],
    );
}

/// A tap that observes nothing (the plain, untraced run).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTap;

impl AccessTap for NullTap {
    #[inline]
    fn record_run(&mut self, _: usize, _: u64, _: &[Access], _: &[L1Refill]) {}
}

/// Streaming a live run into the binary trace IR.
impl<W: Write> AccessTap for TraceWriter<W> {
    fn record_run(&mut self, processor: usize, cycle: u64, accesses: &[Access], _: &[L1Refill]) {
        self.record_all(processor as u32, cycle, accesses);
    }
}

/// The header of one recorded run filtered through the private L1s: the
/// range of its L2-bound refills in [`FilteredTrace::refills`], plus the
/// counts needed to reconstruct timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteredRun {
    /// Processor that issued the run.
    pub processor: u32,
    /// Cycle at which the first access of the run issued.
    pub start_cycle: u64,
    /// The L1 misses of the run, in issue order, as a range of
    /// [`FilteredTrace::refills`] (read them with
    /// [`FilteredTrace::refills_of`]).
    pub refills: Range<u32>,
    /// Loads and stores in the full (unfiltered) run.
    pub data_accesses: u64,
    /// Instruction fetches in the full (unfiltered) run.
    pub instr_fetches: u64,
}

/// A trace filtered through one L1 configuration: the run headers, the one
/// refill vector they index, and the L1 statistics the filter pass
/// accumulated (which are exactly the L1 statistics any replay of the
/// trace would produce).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteredTrace {
    /// The filtered runs in global recorded order.
    pub runs: Vec<FilteredRun>,
    /// Every run's L1 misses, run after run in global recorded order.
    pub refills: Vec<L1Refill>,
    /// Aggregate statistics over all private L1 caches.
    pub l1_aggregate: CacheStats,
    /// Number of processors.
    pub processors: usize,
}

impl FilteredTrace {
    /// The L1 misses of `run`, in issue order.
    pub fn refills_of(&self, run: &FilteredRun) -> &[L1Refill] {
        &self.refills[run.refills.start as usize..run.refills.end as usize]
    }

    /// The L2-bound accesses (every refill's access) in global recorded
    /// order: the stream the L2 and the profilers see.
    pub fn accesses(&self) -> impl Iterator<Item = &Access> {
        self.refills.iter().map(|refill| &refill.access)
    }
}

/// The L1 configuration a filter pass was computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FilterKey {
    l1i: CacheConfig,
    l1d: CacheConfig,
}

impl FilterKey {
    fn of(config: &PlatformConfig) -> Self {
        FilterKey {
            l1i: config.l1i,
            l1d: config.l1d,
        }
    }
}

/// A recorded trace prepared for repeated replay.
///
/// Wraps the [`EncodedTrace`] together with a cache of L1-filtered traces
/// keyed by L1 configuration, so an organisation sweep pays the decode and
/// the L1 simulation once per distinct L1 configuration — usually once.
///
/// Two constructors differ only in when the first entry is filled.
/// [`From<EncodedTrace>`](PreparedTrace::from) and
/// [`new`](PreparedTrace::new) take a validated trace with an empty
/// cache, which [`filtered_for`](PreparedTrace::filtered_for) fills by
/// decoding the trace again. A caller that knows its L1 configuration
/// when it reads the bytes uses
/// [`from_bytes_filtered`](PreparedTrace::from_bytes_filtered), which
/// fills that configuration's entry in the validating pass itself, so
/// each record is decoded once.
#[derive(Debug)]
pub struct PreparedTrace {
    trace: Arc<EncodedTrace>,
    filtered: Mutex<Vec<(FilterKey, Arc<FilteredTrace>)>>,
}

/// Equality is over the underlying trace (the filter cache derives from
/// it).
impl PartialEq for PreparedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.trace == other.trace
    }
}

impl Eq for PreparedTrace {}

impl From<EncodedTrace> for PreparedTrace {
    fn from(value: EncodedTrace) -> Self {
        PreparedTrace::new(Arc::new(value))
    }
}

impl PreparedTrace {
    /// Prepares a trace for replay.
    pub fn new(trace: Arc<EncodedTrace>) -> Self {
        PreparedTrace {
            trace,
            filtered: Mutex::new(Vec::new()),
        }
    }

    /// Validates `bytes` as a trace and filters it through the private
    /// L1s of `config` in the same pass: the L1 filter is the visitor of
    /// [`EncodedTrace::from_bytes_visiting`], so each record is decoded
    /// once, and [`filtered_for`](PreparedTrace::filtered_for) with an
    /// L1 configuration equal to `config`'s returns the filtered trace
    /// without decoding again.
    ///
    /// Validation decides the result: a corrupt trace fails with exactly
    /// the error [`EncodedTrace::from_bytes`] returns. A filter error
    /// ([`PlatformError::ProcessorOutOfRange`],
    /// [`PlatformError::TooManyRefills`]) stops only the filtering and
    /// leaves the filter cache empty, so `filtered_for` reports it where
    /// and as it would for a trace built from
    /// [`EncodedTrace::from_bytes`].
    ///
    /// # Errors
    ///
    /// As for [`EncodedTrace::from_bytes`].
    pub fn from_bytes_filtered(
        bytes: Vec<u8>,
        config: &PlatformConfig,
    ) -> Result<Self, CodecError> {
        let key = FilterKey::of(config);
        let mut pass = None;
        let slot = &mut pass;
        let trace = EncodedTrace::from_bytes_visiting(bytes, move |processors| {
            *slot = Some(FilterPass::new(key, processors, 0));
            move |record: &TraceRecord| {
                if let Some(filter) = slot.as_mut() {
                    if filter.step(record).is_err() {
                        *slot = None;
                    }
                }
            }
        })?;
        let filtered = pass.map(|pass| (key, Arc::new(pass.finish())));
        Ok(PreparedTrace {
            trace: Arc::new(trace),
            filtered: Mutex::new(filtered.into_iter().collect()),
        })
    }

    /// The underlying encoded trace.
    pub fn trace(&self) -> &EncodedTrace {
        &self.trace
    }

    /// The region table embedded in the trace.
    pub fn table(&self) -> &RegionTable {
        self.trace.table()
    }

    /// Counters describing the trace.
    pub fn summary(&self) -> TraceSummary {
        self.trace.summary()
    }

    /// Total number of accesses in the trace.
    pub fn accesses(&self) -> u64 {
        self.trace.accesses()
    }

    /// Number of processors the trace was recorded on.
    pub fn processors(&self) -> u32 {
        self.trace.processors()
    }

    /// The trace filtered through the L1 configuration of `config`,
    /// computed on first use and cached.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ProcessorOutOfRange`] if a trace run names
    /// a processor outside the trace's declared processor count.
    pub fn filtered_for(
        &self,
        config: &PlatformConfig,
    ) -> Result<Arc<FilteredTrace>, PlatformError> {
        let key = FilterKey::of(config);
        let mut cache = self.filtered.lock().expect("filter cache poisoned");
        if let Some((_, filtered)) = cache.iter().find(|(k, _)| *k == key) {
            return Ok(filtered.clone());
        }
        let filtered = Arc::new(filter_trace(&self.trace, key)?);
        cache.push((key, filtered.clone()));
        Ok(filtered)
    }
}

/// Streams the trace's records from its bytes through fresh private L1s,
/// keeping only the refills: one refill vector, one header per run.
fn filter_trace(trace: &EncodedTrace, key: FilterKey) -> Result<FilteredTrace, PlatformError> {
    let mut pass = FilterPass::new(key, trace.processors(), trace.summary().runs as usize);
    for record in trace.reader() {
        pass.step(&record.expect("validated at construction"))?;
    }
    Ok(pass.finish())
}

/// A filter pass under way: fresh private L1s for one configuration, and
/// the run headers and refills of the records stepped through so far.
/// [`filter_trace`] steps it through a validated trace's reader, and
/// [`PreparedTrace::from_bytes_filtered`] through the validating pass.
struct FilterPass {
    filter: L1Filter,
    splitter: RunSplitter,
    runs: Vec<FilteredRun>,
    refills: Vec<L1Refill>,
}

impl FilterPass {
    /// A pass over a trace declaring `processors` processors, with room
    /// for `runs` run headers.
    fn new(key: FilterKey, processors: u32, runs: usize) -> Self {
        let processors = (processors as usize).max(1);
        FilterPass {
            filter: L1Filter::new(key.l1i, key.l1d, processors),
            splitter: RunSplitter::default(),
            runs: Vec::with_capacity(runs),
            refills: Vec::new(),
        }
    }

    /// Filters the next record in recorded order: the one per-record step
    /// of every filter pass. Runs split by the codec's rule,
    /// [`RunSplitter`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::ProcessorOutOfRange`] for a run on a processor
    /// outside the declared count, [`PlatformError::TooManyRefills`] past
    /// `u32::MAX` refills.
    // Forced inline: as a call per record returning its `Result` through
    // memory, the step cost the paper MPEG-2 trace's filter pass about
    // 50 ms (of 400) on a 2-CPU host.
    #[inline(always)]
    fn step(&mut self, record: &TraceRecord) -> Result<(), PlatformError> {
        if self.splitter.starts_run(record) {
            // A run never changes processor, so checking its first record
            // covers all of them.
            let processors = self.filter.processors();
            if record.processor as usize >= processors {
                return Err(PlatformError::ProcessorOutOfRange {
                    processor: record.processor as usize,
                    processors,
                });
            }
            let start = self.refills.len() as u32;
            self.runs.push(FilteredRun {
                processor: record.processor,
                start_cycle: record.cycle,
                refills: start..start,
                data_accesses: 0,
                instr_fetches: 0,
            });
        }
        let run = self.runs.last_mut().expect("the first record starts a run");
        let access = &record.access;
        if let Some(refill) =
            self.filter
                .filter(record.processor as usize, access, run.data_accesses)
        {
            self.refills.push(refill);
            run.refills.end =
                u32::try_from(self.refills.len()).map_err(|_| PlatformError::TooManyRefills)?;
        }
        if access.kind.is_instruction() {
            run.instr_fetches += 1;
        } else {
            run.data_accesses += 1;
        }
        Ok(())
    }

    fn finish(self) -> FilteredTrace {
        FilteredTrace {
            l1_aggregate: self.filter.aggregate_stats(),
            processors: self.filter.processors(),
            runs: self.runs,
            refills: self.refills,
        }
    }
}

/// Summary of one replayed processor's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounters {
    /// Runs replayed.
    pub runs: u64,
    /// Data accesses (loads and stores) replayed.
    pub data_accesses: u64,
    /// Instruction fetches replayed.
    pub instr_fetches: u64,
    /// Stall cycles recomputed under the replayed organisation.
    pub stall_cycles: u64,
    /// Local clock after the last run (recorded issue time plus replayed
    /// stalls of that run).
    pub clock: u64,
}

/// The switches of an installed schedule not applied yet, and the one
/// rule of when each applies (see [`ReplaySystem`]).
#[derive(Debug, Default)]
struct PendingSwitches {
    steps: Vec<ScheduleStep>,
    next: usize,
}

impl PendingSwitches {
    /// The switches of `schedule` (every step after step 0), none applied.
    fn new(schedule: &PartitionSchedule) -> Self {
        PendingSwitches {
            steps: schedule.switches().to_vec(),
            next: 0,
        }
    }

    /// Takes the next switch due just before a run that starts at
    /// `start_cycle` — its boundary is at or before that cycle — if any.
    /// `u64::MAX` takes the switches left after the last run.
    fn next_due(&mut self, start_cycle: u64) -> Option<&ScheduleStep> {
        let step = self
            .steps
            .get(self.next)
            .filter(|step| step.at_cycle <= start_cycle)?;
        self.next += 1;
        Some(step)
    }
}

/// A multiprocessor system that replays a recorded trace instead of
/// executing a workload.
///
/// The memory hierarchy below the L1s is the live one — the shared bus,
/// any `Box<dyn CacheModel>` L2, DRAM — while the L1s are pre-applied by
/// the [`PreparedTrace`]'s cached filter pass. Traffic is the filtered
/// runs, replayed once each in global recorded order.
///
/// # The time axis of repartitions
///
/// Every repartition applies by one rule: a switch at cycle `C` applies
/// just before the first run, in recorded order, whose recorded start
/// cycle is at least `C`, and switches past the last run apply after
/// it. Installed schedules and controller decisions both follow it, as
/// do the windowed profilers (which clock every refill at its run's
/// start), so no run is ever split by a switch.
///
/// # Set shards
///
/// A set-sharded lane ([`replay_lanes`](crate::replay_lanes)) is a
/// `ReplaySystem` restricted to one set shard: it walks every run and
/// applies every due switch, but hands
/// [`refill_burst`](MemorySystem::refill_burst) only the refills of its
/// own lines, filtered in place. Its cache-side counters are then exactly
/// its shard's share of the serial replay's; its timing is not
/// meaningful.
#[derive(Debug)]
pub struct ReplaySystem {
    memory: MemorySystem,
    /// Per-processor counters, indexed by the recorded processor.
    processors: Vec<ReplayCounters>,
    filtered: Arc<FilteredTrace>,
    /// The recorded trace, whose region table every switch validates
    /// against.
    trace: Arc<EncodedTrace>,
    /// The installed schedule's switches not applied yet.
    switches: PendingSwitches,
    /// Index of the next run of `filtered.runs` to replay: a second
    /// replay of the same system replays nothing.
    next_run: usize,
    /// The set shard a lane replays, if the system is one.
    shard: Option<SetShard>,
}

impl ReplaySystem {
    /// Builds a replay system for `trace` over the given platform
    /// parameters (L1 geometry, latencies, bus) and L2 organisation.
    ///
    /// The processor count comes from the trace itself, so a recorded
    /// 4-processor run replays on 4 processors' worth of hierarchy
    /// regardless of `config.num_processors`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ProcessorOutOfRange`] if a trace run names
    /// a processor outside the trace's declared processor count.
    pub fn new(
        config: &PlatformConfig,
        l2: Box<dyn CacheModel>,
        trace: &PreparedTrace,
    ) -> Result<Self, PlatformError> {
        let num_processors = (trace.processors() as usize).max(1);
        let memory = MemorySystem::new(&config.processors(num_processors), l2);
        let filtered = trace.filtered_for(config)?;
        Ok(ReplaySystem {
            memory,
            processors: vec![ReplayCounters::default(); num_processors],
            filtered,
            trace: Arc::clone(&trace.trace),
            switches: PendingSwitches::default(),
            next_run: 0,
            shard: None,
        })
    }

    /// Restricts the replay to the refills of `shard` (see the
    /// [type docs](ReplaySystem)).
    pub(crate) fn restrict_to(&mut self, shard: SetShard) {
        self.shard = Some(shard);
    }

    /// The memory hierarchy (e.g. to inspect L2 statistics after a replay).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Installs the switches of a [`PartitionSchedule`] (every step after
    /// the implicit step 0, whose organisation the L2 was built with):
    /// each applies just before the first run whose recorded start cycle
    /// reaches its boundary (see the [type docs](ReplaySystem)), through
    /// [`MemorySystem::repartition`].
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionSchedule::validate_for`] errors against the
    /// L2's geometry and the trace's region table, and returns
    /// [`CacheError::ReconfigureUnsupported`] when the first switch is of
    /// another organisation kind than the L2, so a switch can never fail
    /// mid-replay.
    pub fn install_schedule(&mut self, schedule: &PartitionSchedule) -> Result<(), CacheError> {
        let l2 = self.memory.l2();
        schedule.validate_for(l2.geometry(), self.trace.table())?;
        if let Some(first) = schedule.switches().first() {
            let (from, to) = (l2.organization(), first.organization.label());
            if from != to {
                return Err(CacheError::ReconfigureUnsupported { from, to });
            }
        }
        self.switches = PendingSwitches::new(schedule);
        Ok(())
    }

    /// The per-processor counters, indexed by recorded processor.
    pub fn processors(&self) -> &[ReplayCounters] {
        &self.processors
    }

    /// Consumes the system and returns the L2 organisation, exactly as
    /// [`System::into_l2`](crate::System::into_l2) does.
    pub fn into_l2(self) -> Box<dyn CacheModel> {
        self.memory.into_l2()
    }

    /// Replays the whole trace and returns the report: the
    /// [`run_controlled`](ReplaySystem::run_controlled) loop under a
    /// controller that never switches.
    pub fn run(&mut self) -> SystemReport {
        self.run_controlled(|_, _| None)
            .expect("installed switches were validated and no controller switches")
    }

    /// Replays the whole trace with an online controller in the loop.
    ///
    /// One loop walks `filtered.runs` in global recorded order — the
    /// replayed access interleaving is exactly the recorded one. At each
    /// run the due installed switches apply first; then `controller`
    /// observes the run — its header (recorded start cycle) and its
    /// L2-bound refills, the organisation-independent data the windowed
    /// profilers consume —
    /// and a `Some(organization)` repartitions the L2 at the run's start
    /// cycle ([`MemorySystem::repartition`]) before the run replays
    /// through [`MemorySystem::refill_burst`]: the one rule of the
    /// [type docs](ReplaySystem), with the same flush accounting and
    /// [`RepartitionRecord`](crate::RepartitionRecord) logging as an
    /// installed switch. Installed switches past the last run apply at
    /// the end.
    ///
    /// Every run replays once per system: a second call replays nothing
    /// and returns the same report.
    ///
    /// # Errors
    ///
    /// Propagates [`MemorySystem::repartition`] errors; the replay stops
    /// at the offending decision.
    pub fn run_controlled<F>(&mut self, mut controller: F) -> Result<SystemReport, CacheError>
    where
        F: FnMut(&FilteredRun, &[L1Refill]) -> Option<OrganizationSpec>,
    {
        let filtered = Arc::clone(&self.filtered);
        while let Some(run) = filtered.runs.get(self.next_run) {
            self.next_run += 1;
            let refills = filtered.refills_of(run);
            self.apply_installed_switches(run.start_cycle)?;
            if let Some(organization) = controller(run, refills) {
                self.memory
                    .repartition(run.start_cycle, &organization, self.trace.table())?;
            }
            let (start, data, instr) = (run.start_cycle, run.data_accesses, run.instr_fetches);
            let stats = match self.shard {
                None => self.memory.refill_burst(start, refills, data, instr),
                Some(shard) => {
                    let owned = refills.iter().filter(|refill| shard.owns(&refill.access));
                    self.memory.refill_burst(start, owned, data, instr)
                }
            };
            let counters = &mut self.processors[run.processor as usize];
            counters.runs += 1;
            counters.data_accesses += stats.data_accesses;
            counters.instr_fetches += stats.instr_fetches;
            counters.stall_cycles += stats.stall_cycles;
            counters.clock = run.start_cycle + stats.elapsed;
        }
        self.apply_installed_switches(u64::MAX)?;
        Ok(self.report())
    }

    /// Applies every installed switch due just before a run that starts
    /// at `start_cycle`.
    fn apply_installed_switches(&mut self, start_cycle: u64) -> Result<(), CacheError> {
        while let Some(step) = self.switches.next_due(start_cycle) {
            self.memory
                .repartition(step.at_cycle, &step.organization, self.trace.table())?;
        }
        Ok(())
    }

    fn report(&self) -> SystemReport {
        let processors: Vec<ProcessorReport> = self
            .processors
            .iter()
            .map(|c| ProcessorReport {
                cycles: c.clock,
                // A data access is one architectural instruction, as in
                // live execution; compute phases are not replayed, so
                // busy cycles cover the replayed instructions only.
                busy_cycles: c.data_accesses,
                stall_cycles: c.stall_cycles,
                switch_cycles: 0,
                idle_cycles: 0,
                instructions: c.data_accesses,
                task_switches: 0,
            })
            .collect();
        let makespan_cycles = processors.iter().map(|p| p.cycles).max().unwrap_or(0);
        let l2 = self.memory.l2();
        SystemReport {
            // The L1s were applied by the filter pass; its statistics are
            // exactly what replaying the full runs would accumulate.
            l1: self.filtered.l1_aggregate,
            l2: *l2.stats(),
            l2_by_task: l2.stats_by_task().iter().map(|(k, v)| (*k, *v)).collect(),
            l2_by_region: l2.stats_by_region().iter().map(|(k, v)| (*k, *v)).collect(),
            dram_accesses: self.memory.dram_accesses(),
            dram_writebacks: self.memory.dram_writebacks(),
            bus_wait_cycles: self.memory.bus().total_wait_cycles(),
            bus_bytes: self.memory.bus().bytes_transferred(),
            makespan_cycles,
            processors,
            repartitions: self.memory.repartition_log().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Burst, BurstOutcome, Op, WorkloadDriver};
    use crate::scheduler::TaskMapping;
    use crate::system::System;
    use compmem_cache::{CacheConfig, CacheModel, SharedCache};
    use compmem_trace::{Addr, RegionId, RegionKind, RegionTable, TaskId};

    fn shared_l2() -> Box<dyn CacheModel> {
        Box::new(SharedCache::new(CacheConfig::new(64, 4).unwrap()))
    }

    /// A two-task driver with interleaving memory and compute work.
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
                let addr = base + ((self.cursor[t] + i) % 96) * 64;
                ops.push(Op::Compute(2 + (i % 3) as u32));
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

    fn region_table() -> RegionTable {
        let mut table = RegionTable::new();
        for t in 0..2u32 {
            table
                .insert(
                    format!("t{t}.data"),
                    RegionKind::TaskData {
                        task: TaskId::new(t),
                    },
                    96 * 64,
                )
                .unwrap();
        }
        table
    }

    fn record_run() -> (SystemReport, EncodedTrace) {
        let config = PlatformConfig::default().processors(2);
        let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = MixedDriver {
            remaining: vec![30, 30],
            cursor: vec![0, 0],
        };
        let mut writer = TraceWriter::new(Vec::new(), &region_table(), 2).unwrap();
        let report = system.run_traced(&mut driver, &mut writer).unwrap();
        let (bytes, summary) = writer.finish().unwrap();
        assert!(summary.accesses > 0);
        (report, EncodedTrace::from_bytes(bytes).unwrap())
    }

    #[test]
    fn replay_reproduces_the_live_l2_snapshot_exactly() {
        let (live_report, trace) = record_run();
        let prepared = PreparedTrace::from(trace);
        let config = PlatformConfig::default();
        let mut replay = ReplaySystem::new(&config, shared_l2(), &prepared).unwrap();
        let replay_report = replay.run();
        // Cache-side state is bit-identical: L1 aggregate, L2 stats,
        // per-task and per-region attribution, DRAM and bus traffic.
        assert_eq!(live_report.l1, replay_report.l1);
        assert_eq!(live_report.l2, replay_report.l2);
        assert_eq!(live_report.l2_by_task, replay_report.l2_by_task);
        assert_eq!(live_report.l2_by_region, replay_report.l2_by_region);
        assert_eq!(live_report.dram_accesses, replay_report.dram_accesses);
        assert_eq!(live_report.dram_writebacks, replay_report.dram_writebacks);
        assert_eq!(live_report.bus_bytes, replay_report.bus_bytes);
    }

    #[test]
    fn replay_is_deterministic() {
        let (_, trace) = record_run();
        let prepared = PreparedTrace::from(trace);
        let config = PlatformConfig::default();
        let run = |l2: Box<dyn CacheModel>| {
            let mut replay = ReplaySystem::new(&config, l2, &prepared).unwrap();
            replay.run()
        };
        assert_eq!(run(shared_l2()), run(shared_l2()));
    }

    #[test]
    fn replay_counts_every_recorded_access() {
        let (_, trace) = record_run();
        let prepared = PreparedTrace::from(trace);
        let config = PlatformConfig::default();
        let mut replay = ReplaySystem::new(&config, shared_l2(), &prepared).unwrap();
        let report = replay.run();
        let replayed: u64 = replay
            .processors()
            .iter()
            .map(|p| p.data_accesses + p.instr_fetches)
            .sum();
        assert_eq!(replayed, prepared.accesses());
        assert!(report.makespan_cycles > 0);
        assert_eq!(report.processors.len(), 2);
    }

    #[test]
    fn controller_sees_every_filtered_run_once_in_recorded_order() {
        let (_, trace) = record_run();
        let prepared = PreparedTrace::from(trace);
        let config = PlatformConfig::default();
        let shape = |run: &FilteredRun| (run.processor, run.start_cycle, run.refills.len());
        let recorded: Vec<_> = prepared
            .filtered_for(&config)
            .unwrap()
            .runs
            .iter()
            .map(shape)
            .collect();
        // The recording interleaves both processors, so the order is not
        // trivially one processor's runs after the other's.
        let handovers = recorded.windows(2).filter(|w| w[0].0 != w[1].0).count();
        assert!(handovers > 2, "only {handovers} processor handovers");

        let mut replay = ReplaySystem::new(&config, shared_l2(), &prepared).unwrap();
        let mut observed = Vec::new();
        replay
            .run_controlled(|run, refills| {
                assert_eq!(refills.len(), run.refills.len());
                observed.push(shape(run));
                None
            })
            .unwrap();
        assert_eq!(observed, recorded);
    }

    #[test]
    fn a_second_run_replays_nothing() {
        let (_, trace) = record_run();
        let prepared = PreparedTrace::from(trace);
        let mut replay =
            ReplaySystem::new(&PlatformConfig::default(), shared_l2(), &prepared).unwrap();
        let first = replay.run();
        assert!(first.l2.accesses > 0);
        assert_eq!(replay.run(), first);
    }

    #[test]
    fn filter_pass_is_cached_per_l1_configuration() {
        let (_, trace) = record_run();
        let prepared = PreparedTrace::from(trace);
        let config = PlatformConfig::default();
        let a = prepared.filtered_for(&config).unwrap();
        let b = prepared.filtered_for(&config).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same L1 config must reuse the filter");
        let other = config.l1(CacheConfig::new(4, 2).unwrap());
        let c = prepared.filtered_for(&other).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different L1 config refilters");
        assert!(c.l1_aggregate.misses > a.l1_aggregate.misses);
        // Refill totals never exceed the unfiltered access count, and the
        // run headers tile the one refill vector in order.
        let refills: usize = a.runs.iter().map(|r| r.refills.len()).sum();
        assert!(refills > 0);
        assert!((refills as u64) < prepared.accesses());
        assert_eq!(refills, a.refills.len());
        let mut next = 0;
        for run in &a.runs {
            assert_eq!(run.refills.start, next);
            next = run.refills.end;
        }
    }

    #[test]
    fn untraced_and_null_tapped_runs_agree() {
        let config = PlatformConfig::default().processors(2);
        let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);
        let run = |tapped: bool| {
            let mut system = System::new(config, shared_l2(), mapping.clone()).unwrap();
            let mut driver = MixedDriver {
                remaining: vec![10, 10],
                cursor: vec![0, 0],
            };
            if tapped {
                system.run_traced(&mut driver, &mut NullTap).unwrap()
            } else {
                system.run(&mut driver).unwrap()
            }
        };
        assert_eq!(run(false), run(true));
    }

    /// The filter splits runs by the codec's one rule: a processor change
    /// starts a run, a clock regression on the same processor does not.
    #[test]
    fn runs_split_on_processor_change_and_clock_regression() {
        let table = region_table();
        let access =
            |line: u64| Access::load(Addr::new(line * 64), 4, TaskId::new(0), RegionId::new(0));
        let mut writer = TraceWriter::new(Vec::new(), &table, 2).unwrap();
        writer.record(0, 100, &access(0));
        writer.record(0, 110, &access(1));
        writer.record(1, 50, &access(2)); // processor change
        writer.record(1, 40, &access(3)); // clock regression within a processor
        let (bytes, summary) = writer.finish().unwrap();
        assert_eq!(summary.runs, 3, "the encoder re-anchors the clock");
        let prepared = PreparedTrace::from(EncodedTrace::from_bytes(bytes).unwrap());
        assert_eq!(prepared.summary().runs, 2);
        let filtered = prepared.filtered_for(&PlatformConfig::default()).unwrap();
        let runs: Vec<_> = filtered
            .runs
            .iter()
            .map(|run| {
                (
                    run.processor,
                    run.start_cycle,
                    run.data_accesses,
                    run.refills.clone(),
                )
            })
            .collect();
        // Four distinct lines: every access is a cold L1 miss.
        assert_eq!(runs, [(0, 100, 2, 0..2), (1, 50, 2, 2..4)]);
    }

    /// The fused pass decodes each record once: the entry it leaves in
    /// the filter cache is the one `filtered_for` hands out for that L1
    /// configuration, and it equals a separate filter pass over the
    /// validated trace. Another L1 configuration filters on demand.
    #[test]
    fn fused_pass_prefills_the_separate_filter_pass() {
        let (_, trace) = record_run();
        let config = PlatformConfig::default();
        let fused = PreparedTrace::from_bytes_filtered(trace.bytes().to_vec(), &config).unwrap();
        assert_eq!(fused.trace(), &trace);
        assert_eq!(fused.summary(), trace.summary());
        let prefilled = {
            let cache = fused.filtered.lock().unwrap();
            assert_eq!(cache.len(), 1);
            Arc::clone(&cache[0].1)
        };
        assert!(Arc::ptr_eq(
            &prefilled,
            &fused.filtered_for(&config).unwrap()
        ));
        let validated = EncodedTrace::from_bytes(trace.bytes().to_vec()).unwrap();
        let separate = filter_trace(&validated, FilterKey::of(&config)).unwrap();
        assert_eq!(*prefilled, separate);

        let other = config.l1(CacheConfig::new(4, 2).unwrap());
        let refiltered = fused.filtered_for(&other).unwrap();
        assert_eq!(
            *refiltered,
            *PreparedTrace::from(validated).filtered_for(&other).unwrap()
        );
        assert_eq!(fused.filtered.lock().unwrap().len(), 2);
    }

    /// A trace cut anywhere fails the fused pass with exactly the error
    /// `from_bytes` gives it.
    #[test]
    fn fused_pass_fails_as_from_bytes_does() {
        let (_, trace) = record_run();
        let bytes = trace.bytes();
        for cut in 0..bytes.len() {
            let plain = EncodedTrace::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            let fused = PreparedTrace::from_bytes_filtered(
                bytes[..cut].to_vec(),
                &PlatformConfig::default(),
            )
            .unwrap_err();
            assert_eq!(format!("{fused:?}"), format!("{plain:?}"), "cut at {cut}");
        }
    }

    #[test]
    fn trace_with_out_of_range_processor_is_rejected() {
        // Hand-craft a trace declaring 1 processor but recording on id 3.
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
        writer.record(3, 0, &access);
        let (bytes, _) = writer.finish().unwrap();
        let config = PlatformConfig::default();
        let rejected = PlatformError::ProcessorOutOfRange {
            processor: 3,
            processors: 1,
        };
        let prepared = PreparedTrace::from(EncodedTrace::from_bytes(bytes.clone()).unwrap());
        let err = ReplaySystem::new(&config, shared_l2(), &prepared).unwrap_err();
        assert_eq!(err, rejected);
        // The fused pass validates the trace, stops only its filtering and
        // leaves the cache empty: the replay reports the same error.
        let fused = PreparedTrace::from_bytes_filtered(bytes, &config).unwrap();
        assert!(fused.filtered.lock().unwrap().is_empty());
        let err = ReplaySystem::new(&config, shared_l2(), &fused).unwrap_err();
        assert_eq!(err, rejected);
    }
}
