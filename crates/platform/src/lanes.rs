//! Set-sharded parallel replay: splitting one trace replay across threads
//! by L2 set.
//!
//! Every L2 organisation picks a line's set from the line's low bits:
//! `base + line % sets` inside a set-partitioned partition, `line % sets`
//! in a shared or way-partitioned cache. Call each such block of
//! consecutive sets a *set group*. When `N` divides the first set and the
//! size of every group of every schedule step, set `s` only ever holds
//! lines with `line % N == s % N`, in every step. Each physical set — its
//! ways, its LRU/FIFO stamps, its tree-PLRU bits and its Random generator
//! (seeded `seed ^ set_index`) — and each first-touch entry then belongs
//! to exactly one residue class of lines.
//!
//! Lane `i` of `N` therefore replays only the L2-bound refills with
//! `line % N == i`, against its own full copy of the scheduled L2, on its
//! own thread. Nothing a lane skips could have touched the sets it uses,
//! so the lanes' counters add up to the serial replay's exactly. This
//! holds for every organisation and every replacement policy, shared
//! caches, overlapping way masks and Random replacement included.
//! One rule picks `N` for replay and profiling alike: the largest power
//! of two that is at most the request and meets the condition. A run whose smallest group is a
//! single set cannot split.
//!
//! What merges exactly: the L2 aggregate [`CacheStats`], the per-task /
//! per-region / per-partition attributions, DRAM accesses and
//! write-backs, bus *bytes* (every bus transfer of the serial timing path
//! is a per-refill or per-flush constant) and the flushes of every
//! repartition event (a flushed set is non-empty in one lane only). What
//! does not: timing — bus wait cycles, stall cycles and the makespan
//! depend on the global interleaving of transfers and are reported by the
//! serial [`ReplaySystem`](crate::ReplaySystem) only.
//!
//! Repartition events of a [`PartitionSchedule`] apply by the serial
//! replay's one rule: a switch applies just before the first run, in
//! recorded order, whose recorded start cycle reaches its boundary, and
//! switches past the last run apply after it. Every lane walks every run
//! and asks the serial replay's switch queue for the due switches once
//! per run, so every lane applies every switch at the point of the stream
//! where the serial replay does, and the lanes' [`RepartitionRecord`]s —
//! flushes and L2 counters at the switch — add up to the serial ones.

use std::fmt;

use compmem_cache::{
    CacheConfig, CacheError, CacheModel, CacheStats, OrganizationSpec, PartitionKey,
    PartitionSchedule, ScheduleStep, StatsByKey,
};
use compmem_trace::{RegionId, RegionTable, TaskId, LINE_SIZE_BYTES};
use serde::{Deserialize, Serialize};

use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::metrics::RepartitionRecord;
use crate::replay::{FilteredTrace, PendingSwitches, PreparedTrace};

/// A block of consecutive L2 sets that one set index maps lines into: a
/// partition or a whole cache.
#[derive(Debug)]
struct SetGroup {
    /// What the group is, e.g. `the task T0 partition of step 1`.
    name: String,
    /// First set of the group.
    first: u32,
    /// Number of sets in the group.
    sets: u32,
}

/// The largest power of two dividing both a group's first set and its
/// size.
fn alignment(first: u32, sets: u32) -> usize {
    1 << (first | sets).trailing_zeros()
}

impl fmt::Display for SetGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (sets [{}, {}))",
            self.name,
            self.first,
            self.first + self.sets
        )
    }
}

/// The set groups a replay of `schedule` on an `l2`-shaped cache indexes,
/// step by step.
fn schedule_set_groups(l2: CacheConfig, schedule: &PartitionSchedule) -> Vec<SetGroup> {
    let mut groups = Vec::new();
    for (step, ScheduleStep { organization, .. }) in schedule.steps().iter().enumerate() {
        let whole = SetGroup {
            name: format!("the {} cache of step {step}", organization.label()),
            first: 0,
            sets: l2.geometry().sets(),
        };
        match organization {
            OrganizationSpec::Shared | OrganizationSpec::WayPartitioned(_) => groups.push(whole),
            OrganizationSpec::SetPartitioned(map) => {
                groups.extend(map.iter().map(|(key, partition)| SetGroup {
                    name: format!("the {key} partition of step {step}"),
                    first: partition.base_set,
                    sets: partition.sets,
                }));
            }
        }
    }
    groups
}

/// The one shard-count rule of set-sharded replay and profiling: the
/// largest power of two that is at most `requested` and divides the
/// first set and the size of every `(first, sets)` group. One shard
/// means no split.
pub(crate) fn set_shards(requested: usize, groups: impl IntoIterator<Item = (u32, u32)>) -> usize {
    groups
        .into_iter()
        .map(|(first, sets)| alignment(first, sets))
        .fold(1 << requested.max(1).ilog2(), usize::min)
}

/// Runs `run(shard)` for every shard on its own scoped thread — the
/// shard count never exceeds the caller's worker cap — and returns the
/// results in shard order.
pub(crate) fn run_shards<T: Send>(shards: usize, run: impl Fn(u64) -> T + Sync) -> Vec<T> {
    if shards <= 1 {
        return vec![run(0)];
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..shards as u64)
            .map(|shard| {
                let run = &run;
                scope.spawn(move || run(shard))
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// How a lane replay split: what was asked for and what ran. The CLI
/// prints it as `lane split: K set shards on up to N workers (smallest
/// set group S sets)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneDecision {
    /// Worker cap the caller asked for.
    pub requested: usize,
    /// Set shards the replay split into, one worker each.
    pub shards: usize,
    /// Sets in the smallest set group of the schedule.
    pub smallest_group: u32,
}

/// Cache-side result of a lane replay, merged over all lanes.
///
/// Field for field this matches the corresponding members of
/// [`SystemReport`](crate::SystemReport) (timing fields excluded, see the
/// module docs); the parity tests assert equality against a serial
/// [`ReplaySystem`](crate::ReplaySystem) run.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// Aggregate statistics over all private L1 caches (from the shared
    /// filter pass; identical for every lane count).
    pub l1: CacheStats,
    /// Aggregate L2 statistics, merged over the lanes.
    pub l2: CacheStats,
    /// Per-task L2 statistics.
    pub l2_by_task: StatsByKey<TaskId>,
    /// Per-region L2 statistics.
    pub l2_by_region: StatsByKey<RegionId>,
    /// Per-partition-key L2 statistics, for organisations that attribute
    /// accesses to partitions.
    pub l2_by_partition: Option<StatsByKey<PartitionKey>>,
    /// Accesses served by DRAM (L2 misses).
    pub dram_accesses: u64,
    /// Dirty L2 lines written back to DRAM (evictions plus repartition
    /// flushes).
    pub dram_writebacks: u64,
    /// Bytes transferred over the shared bus.
    pub bus_bytes: u64,
    /// Every repartition event of the schedule, in schedule order: its
    /// step and boundary, with the flush counts and the L2 counters at the
    /// switch summed over the lanes.
    pub repartitions: Vec<RepartitionRecord>,
    /// How the replay split.
    pub decision: LaneDecision,
}

fn lane_cache_error(error: CacheError) -> PlatformError {
    PlatformError::LaneCache {
        message: error.to_string(),
    }
}

/// The serial timing path's additive counters, kept by one lane.
#[derive(Default)]
struct LaneCounters {
    dram_accesses: u64,
    dram_writebacks: u64,
    bus_bytes: u64,
    repartitions: Vec<RepartitionRecord>,
}

impl LaneCounters {
    /// Applies one repartition event to the lane's cache and logs it with
    /// the lane's L2 counters at the switch. Flush traffic takes the same
    /// path as in the serial replay: one bus transfer and one DRAM
    /// write-back per dirty line.
    fn switch(
        &mut self,
        cache: &mut dyn CacheModel,
        step: &ScheduleStep,
        regions: &RegionTable,
    ) -> Result<(), PlatformError> {
        let before = *cache.stats();
        let flush = cache
            .reconfigure(&step.organization, regions)
            .map_err(lane_cache_error)?;
        self.dram_writebacks += flush.written_back;
        self.bus_bytes += flush.written_back * LINE_SIZE_BYTES;
        self.repartitions.push(RepartitionRecord {
            step: self.repartitions.len() + 1,
            at_cycle: step.at_cycle,
            flush,
            l2_accesses_before: before.accesses,
            l2_misses_before: before.misses,
        });
        Ok(())
    }
}

/// Replays the refills of set shard `shard` of `shards` (a power of two)
/// against a fresh copy of the scheduled L2 organisation.
fn replay_shard(
    l2: CacheConfig,
    schedule: &PartitionSchedule,
    regions: &RegionTable,
    filtered: &FilteredTrace,
    shards: u64,
    shard: u64,
) -> Result<(Box<dyn CacheModel>, LaneCounters), PlatformError> {
    let mut cache = schedule
        .initial()
        .build(l2, regions)
        .map_err(lane_cache_error)?;
    let mut counters = LaneCounters::default();
    let mut switches = PendingSwitches::new(schedule);
    for run in &filtered.runs {
        while let Some(step) = switches.next_due(run.start_cycle) {
            counters.switch(cache.as_mut(), step, regions)?;
        }
        for refill in filtered.refills_of(run) {
            if refill.access.addr.line().value() & (shards - 1) != shard {
                continue;
            }
            // The bus request sequence of the serial path, as bytes:
            // refill transfer, optional L1 write-back, optional DRAM
            // fill, optional L2 write-back.
            counters.bus_bytes += LINE_SIZE_BYTES;
            if refill.l1_victim_dirty {
                counters.bus_bytes += LINE_SIZE_BYTES;
            }
            let outcome = cache.access(&refill.access);
            if !outcome.hit {
                counters.dram_accesses += 1;
                counters.bus_bytes += LINE_SIZE_BYTES;
            }
            if outcome.evicted.is_some_and(|e| e.dirty) {
                counters.dram_writebacks += 1;
                counters.bus_bytes += LINE_SIZE_BYTES;
            }
        }
    }
    // Switches whose boundary lies beyond the last run still apply, as
    // the serial replay applies them at the end.
    while let Some(step) = switches.next_due(u64::MAX) {
        counters.switch(cache.as_mut(), step, regions)?;
    }
    Ok((cache, counters))
}

/// Replays `trace` under the scheduled L2 organisation split into set
/// shards on up to `requested` worker threads (see the module docs), and
/// returns the merged cache-side report. `requested <= 1` replays one
/// shard, i.e. the whole stream on one lane.
///
/// # Errors
///
/// * [`PlatformError::LanesIneligible`] if `requested > 1` and no split
///   exists: a set group of the schedule has an odd number of sets
///   (typically a single set) or starts on an odd set. The error names
///   that group.
/// * [`PlatformError::LaneCache`] if the schedule does not fit the cache
///   geometry or does not cover every region of the trace,
/// * [`PlatformError::ProcessorOutOfRange`] if a trace run names a
///   processor outside the trace's declared processor count.
pub fn replay_lanes(
    config: &PlatformConfig,
    l2: CacheConfig,
    schedule: &PartitionSchedule,
    trace: &PreparedTrace,
    requested: usize,
) -> Result<LaneReport, PlatformError> {
    let regions = trace.table();
    schedule
        .validate_for(l2.geometry(), regions)
        .map_err(lane_cache_error)?;
    let groups = schedule_set_groups(l2, schedule);
    let shards = set_shards(requested, groups.iter().map(|g| (g.first, g.sets)));
    if shards == 1 && requested > 1 {
        let group = groups
            .iter()
            .find(|g| alignment(g.first, g.sets) == 1)
            .expect("only a group of odd size or first set blocks every split");
        let why = match group.sets {
            1 => "is a single set",
            sets if sets % 2 == 1 => "has an odd number of sets",
            _ => "starts on an odd set",
        };
        return Err(PlatformError::LanesIneligible {
            requested,
            reason: format!("{group} {why}"),
        });
    }
    let filtered = trace.filtered_for(config)?;
    let lanes = run_shards(shards, |shard| {
        replay_shard(l2, schedule, regions, &filtered, shards as u64, shard)
    });

    let mut report = LaneReport {
        l1: filtered.l1_aggregate,
        l2: CacheStats::new(),
        l2_by_task: StatsByKey::new(),
        l2_by_region: StatsByKey::new(),
        l2_by_partition: None,
        dram_accesses: 0,
        dram_writebacks: 0,
        bus_bytes: 0,
        repartitions: schedule
            .switches()
            .iter()
            .enumerate()
            .map(|(i, step)| RepartitionRecord {
                step: i + 1,
                at_cycle: step.at_cycle,
                ..RepartitionRecord::default()
            })
            .collect(),
        decision: LaneDecision {
            requested,
            shards,
            smallest_group: groups.iter().map(|group| group.sets).min().unwrap_or(0),
        },
    };
    for lane in lanes {
        let (cache, counters) = lane?;
        report.l2.merge(cache.stats());
        report.l2_by_task.merge(cache.stats_by_task());
        report.l2_by_region.merge(cache.stats_by_region());
        if let Some(by_partition) = cache.stats_by_partition() {
            report
                .l2_by_partition
                .get_or_insert_with(StatsByKey::new)
                .merge(by_partition);
        }
        report.dram_accesses += counters.dram_accesses;
        report.dram_writebacks += counters.dram_writebacks;
        report.bus_bytes += counters.bus_bytes;
        for (total, lane) in report.repartitions.iter_mut().zip(counters.repartitions) {
            total.flush.absorb(lane.flush);
            total.l2_accesses_before += lane.l2_accesses_before;
            total.l2_misses_before += lane.l2_misses_before;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SystemReport;
    use crate::op::{Burst, BurstOutcome, Op, WorkloadDriver};
    use crate::replay::ReplaySystem;
    use crate::scheduler::TaskMapping;
    use crate::system::System;
    use compmem_cache::{KeyStats, PartitionMap, ReplacementPolicy, SharedCache, WayAllocation};
    use compmem_trace::codec::{EncodedTrace, TraceWriter};
    use compmem_trace::{Access, Addr, BufferId, RegionKind, TaskId};

    /// Two tasks on two processors, each touching its own data region and
    /// a shared FIFO region (three partition keys), with a long
    /// compute-only phase in the middle whose recorded-cycle gap hosts
    /// schedule boundaries.
    struct PhasedDriver {
        remaining: Vec<u32>,
        total: u32,
        cursor: Vec<u64>,
        own: Vec<(Addr, compmem_trace::RegionId)>,
        buffer: (Addr, compmem_trace::RegionId),
        gap_cycles: u32,
    }

    impl WorkloadDriver for PhasedDriver {
        fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
            let t = task.index();
            if self.remaining[t] == 0 {
                return BurstOutcome::Finished;
            }
            self.remaining[t] -= 1;
            if self.gap_cycles > 0 && self.remaining[t] == self.total / 2 {
                return BurstOutcome::Ready(Burst::new(vec![Op::Compute(self.gap_cycles)]));
            }
            let mut ops = Vec::new();
            for i in 0..12u64 {
                ops.push(Op::Compute(1 + (i % 3) as u32));
                let (base, region, lines) = if i % 5 == 4 {
                    (self.buffer.0, self.buffer.1, 64)
                } else {
                    (self.own[t].0, self.own[t].1, 96)
                };
                let addr = base.offset(((self.cursor[t] + i) % lines) * 64);
                let access = if i % 4 == 0 {
                    Access::store(addr, 4, task, region)
                } else {
                    Access::load(addr, 4, task, region)
                };
                ops.push(Op::Mem(access));
            }
            self.cursor[t] += 7;
            BurstOutcome::Ready(Burst::new(ops))
        }
    }

    fn platform() -> PlatformConfig {
        PlatformConfig::default()
            .processors(2)
            .l1(CacheConfig::new(4, 2).unwrap())
    }

    fn record(gap_cycles: u32) -> PreparedTrace {
        let mut table = RegionTable::new();
        let r0 = table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                96 * 64,
            )
            .unwrap();
        let r1 = table
            .insert(
                "t1.data",
                RegionKind::TaskData {
                    task: TaskId::new(1),
                },
                96 * 64,
            )
            .unwrap();
        let rb = table
            .insert(
                "fifo",
                RegionKind::Fifo {
                    buffer: BufferId::new(0),
                },
                64 * 64,
            )
            .unwrap();
        let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);
        let mut system = System::new(
            platform(),
            Box::new(SharedCache::new(CacheConfig::new(64, 4).unwrap())),
            mapping,
        )
        .unwrap();
        let mut driver = PhasedDriver {
            remaining: vec![40, 40],
            total: 40,
            cursor: vec![0, 0],
            own: vec![(table.region(r0).base, r0), (table.region(r1).base, r1)],
            buffer: (table.region(rb).base, rb),
            gap_cycles,
        };
        let mut writer = TraceWriter::new(Vec::new(), &table, 2).unwrap();
        system.run_traced(&mut driver, &mut writer).unwrap();
        let (bytes, summary) = writer.finish().unwrap();
        assert!(summary.accesses > 0);
        PreparedTrace::from(EncodedTrace::from_bytes(bytes).unwrap())
    }

    fn task(i: u32) -> PartitionKey {
        PartitionKey::Task(TaskId::new(i))
    }

    fn buffer() -> PartitionKey {
        PartitionKey::Buffer(BufferId::new(0))
    }

    /// Serial reference: a [`ReplaySystem`] over the same platform, L2 and
    /// schedule.
    fn serial(
        l2: CacheConfig,
        schedule: &PartitionSchedule,
        trace: &PreparedTrace,
    ) -> (SystemReport, Option<StatsByKey<PartitionKey>>) {
        let model = schedule.initial().build(l2, trace.table()).unwrap();
        let mut replay = ReplaySystem::new(&platform(), model, trace).unwrap();
        replay.install_schedule(schedule).unwrap();
        let report = replay.run();
        let by_partition = replay.memory().l2().stats_by_partition().cloned();
        (report, by_partition)
    }

    fn assert_parity(
        serial: &SystemReport,
        serial_by_partition: &Option<StatsByKey<PartitionKey>>,
        lanes: &LaneReport,
        context: &str,
    ) {
        assert_eq!(serial.l1, lanes.l1, "{context}: L1");
        assert_eq!(serial.l2, lanes.l2, "{context}: L2");
        let by_task: std::collections::BTreeMap<TaskId, KeyStats> =
            lanes.l2_by_task.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(serial.l2_by_task, by_task, "{context}: per task");
        let by_region: std::collections::BTreeMap<compmem_trace::RegionId, KeyStats> =
            lanes.l2_by_region.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(serial.l2_by_region, by_region, "{context}: per region");
        assert_eq!(
            *serial_by_partition, lanes.l2_by_partition,
            "{context}: per partition"
        );
        assert_eq!(serial.dram_accesses, lanes.dram_accesses, "{context}");
        assert_eq!(serial.dram_writebacks, lanes.dram_writebacks, "{context}");
        assert_eq!(serial.bus_bytes, lanes.bus_bytes, "{context}");
        assert_eq!(
            serial.repartitions, lanes.repartitions,
            "{context}: repartitions"
        );
    }

    /// Three layouts of one organisation kind: the first is also the
    /// static schedule.
    type Steps = [OrganizationSpec; 3];

    /// Every organisation of the exactness matrix, as three scheduled
    /// steps (the first is also its static schedule).
    fn organisations(l2: CacheConfig) -> Vec<(&'static str, Steps)> {
        let g = l2.geometry();
        let sets = |sizes: [u32; 3]| {
            let keys = [task(0), task(1), buffer()];
            let sizes: Vec<(PartitionKey, u32)> = keys.into_iter().zip(sizes).collect();
            OrganizationSpec::SetPartitioned(PartitionMap::pack(g, &sizes).unwrap())
        };
        let ways = |masks: [u64; 3]| {
            let mut allocation = WayAllocation::new(g);
            for (key, mask) in [task(0), task(1), buffer()].into_iter().zip(masks) {
                allocation.assign(key, mask).unwrap();
            }
            OrganizationSpec::WayPartitioned(allocation)
        };
        vec![
            (
                "shared",
                [
                    OrganizationSpec::Shared,
                    OrganizationSpec::Shared,
                    OrganizationSpec::Shared,
                ],
            ),
            (
                "set-partitioned",
                [sets([16, 16, 16]), sets([8, 32, 8]), sets([32, 8, 16])],
            ),
            (
                "way-partitioned, disjoint masks",
                [
                    ways([0b0011, 0b0100, 0b1000]),
                    ways([0b0001, 0b0110, 0b1000]),
                    ways([0b1000, 0b0011, 0b0100]),
                ],
            ),
            (
                "way-partitioned, overlapping masks",
                [
                    ways([0b0011, 0b0110, 0b1000]),
                    ways([0b0111, 0b1110, 0b1100]),
                    ways([0b0001, 0b0011, 0b1111]),
                ],
            ),
        ]
    }

    #[test]
    fn set_shards_match_serial_for_every_organisation_policy_and_schedule() {
        let trace = record(400_000);
        let filtered = trace.filtered_for(&platform()).unwrap();
        let runs = &filtered.runs;
        // One cycle after a busy run's start: inside the run's own refill
        // window, where the serial clock and any per-refill clock differ.
        let busy_boundary = runs[runs.len() / 4].start_cycle + 1;
        let (gap, mid_boundary) = runs
            .windows(2)
            .map(|pair| {
                let gap = pair[1].start_cycle.saturating_sub(pair[0].start_cycle);
                (gap, pair[0].start_cycle + gap / 2)
            })
            .max()
            .unwrap();
        assert!(gap > 100_000, "the compute phase must leave a gap");
        let end_boundary = runs.last().unwrap().start_cycle + 10_000_000;

        let mut flushed = 0;
        for policy in ReplacementPolicy::ALL {
            let l2 = CacheConfig::new(64, 4).unwrap().policy(policy);
            for (name, [first, second, third]) in organisations(l2) {
                let steps = vec![
                    (0, first.clone()),
                    (busy_boundary, second),
                    (mid_boundary, third),
                    (end_boundary, first.clone()),
                ];
                let schedules = [
                    ("static", PartitionSchedule::single(first)),
                    ("4-step", PartitionSchedule::new(steps).unwrap()),
                ];
                for (kind, schedule) in schedules {
                    let (serial_report, serial_bp) = serial(l2, &schedule, &trace);
                    assert_eq!(serial_report.repartitions.len(), schedule.switches().len());
                    flushed += serial_report
                        .repartitions
                        .iter()
                        .map(|record| record.flush.invalidated)
                        .sum::<u64>();
                    for requested in [1, 2, 4] {
                        let context = format!("{name}, {policy}, {kind}, {requested} lanes");
                        let lanes =
                            replay_lanes(&platform(), l2, &schedule, &trace, requested).unwrap();
                        assert_eq!(lanes.decision.shards, requested, "{context}");
                        assert_parity(&serial_report, &serial_bp, &lanes, &context);
                        assert!(lanes.l2.misses > 0, "{context}: the L2 must be exercised");
                    }
                }
            }
        }
        assert!(flushed > 0, "the schedules must flush lines");
    }

    #[test]
    fn the_split_is_the_largest_power_of_two_every_group_admits() {
        let l2 = CacheConfig::new(64, 4).unwrap();
        let map = |sizes: &[(PartitionKey, u32)]| {
            PartitionSchedule::single(OrganizationSpec::SetPartitioned(
                PartitionMap::pack(l2.geometry(), sizes).unwrap(),
            ))
        };
        let split = |schedule: &PartitionSchedule, requested| {
            let groups = schedule_set_groups(l2, schedule);
            set_shards(requested, groups.iter().map(|g| (g.first, g.sets)))
        };
        let even = map(&[(task(0), 16), (task(1), 8), (buffer(), 4)]);
        assert_eq!(split(&even, 3), 2);
        assert_eq!(split(&even, 8), 4);
        assert_eq!(split(&even, 64), 4);
        let shared = PartitionSchedule::single(OrganizationSpec::Shared);
        assert_eq!(split(&shared, 64), 64);
        assert_eq!(split(&shared, 1), 1);
    }

    #[test]
    fn requiring_a_split_of_an_unsplittable_map_names_the_group() {
        let trace = record(0);
        let l2 = CacheConfig::new(64, 4).unwrap();
        let geometry = l2.geometry();
        let single =
            PartitionMap::pack(geometry, &[(task(0), 1), (task(1), 16), (buffer(), 16)]).unwrap();
        let mut odd_start = PartitionMap::new(geometry);
        odd_start.assign(task(0), 1, 2).unwrap();
        odd_start.assign(task(1), 4, 16).unwrap();
        odd_start.assign(buffer(), 20, 16).unwrap();
        for (map, reason) in [
            (
                single,
                "the task T0 partition of step 0 (sets [0, 1)) is a single set",
            ),
            (
                odd_start,
                "the task T0 partition of step 0 (sets [1, 3)) starts on an odd set",
            ),
        ] {
            let schedule = PartitionSchedule::single(OrganizationSpec::SetPartitioned(map));
            match replay_lanes(&platform(), l2, &schedule, &trace, 4) {
                Err(PlatformError::LanesIneligible {
                    requested: 4,
                    reason: got,
                }) => assert_eq!(got, reason),
                other => panic!("expected LanesIneligible, got {other:?}"),
            }
            // One lane is always available, and exact.
            let (serial_report, serial_bp) = serial(l2, &schedule, &trace);
            let one = replay_lanes(&platform(), l2, &schedule, &trace, 1).unwrap();
            assert_parity(&serial_report, &serial_bp, &one, "one lane");
        }
    }

    #[test]
    fn invalid_schedules_surface_as_lane_cache_errors() {
        let trace = record(0);
        let l2 = CacheConfig::new(64, 4).unwrap();
        // A map that covers only one of the three keys.
        let map = PartitionMap::pack(l2.geometry(), &[(task(0), 16)]).unwrap();
        let schedule = PartitionSchedule::single(OrganizationSpec::SetPartitioned(map));
        let err = replay_lanes(&platform(), l2, &schedule, &trace, 4).unwrap_err();
        assert!(matches!(err, PlatformError::LaneCache { .. }));
        assert!(err.to_string().contains("lane replay cache error"));
    }
}
