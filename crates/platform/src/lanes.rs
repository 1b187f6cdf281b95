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
//! Lane `i` of `N` is therefore an ordinary serial replay over a subset of
//! the sets (Nicol, Greenberg & Lubachevsky, "Massively parallel
//! algorithms for trace-driven cache simulations", IEEE TPDS 1994): a
//! [`ReplaySystem`] with its own full copy of the scheduled L2, the
//! schedule installed through
//! [`install_schedule`](ReplaySystem::install_schedule), restricted to the
//! L2-bound refills with `line % N == i`, on its own thread. Nothing a
//! lane skips could have touched the sets it uses, so the lanes' counters
//! add up to the serial replay's exactly — by construction, since every
//! lane runs the serial accounting itself. This holds for every
//! organisation and every replacement policy, shared caches, overlapping
//! way masks and Random replacement included. One rule picks `N` for
//! replay and profiling alike: the largest power of two that is at most
//! the request and meets the condition. A run whose smallest group is a
//! single set cannot split.
//!
//! What merges exactly: the L2 aggregate [`CacheStats`](compmem_cache::CacheStats),
//! the per-task and per-region attributions, DRAM accesses and
//! write-backs, bus *bytes* (every bus transfer is a per-refill or
//! per-flush constant) and the flushes of every repartition event (a
//! flushed set is non-empty in one lane only). What does not: timing —
//! bus wait cycles, stall cycles and the makespan depend on the global
//! interleaving of transfers and are reported by the serial
//! [`ReplaySystem`] only; the merged report leaves them zero.
//!
//! Every lane walks every run and asks its replay's switch queue for the
//! due switches once per run, so every lane applies every switch at the
//! point of the stream where the serial replay does, and the lanes'
//! [`RepartitionRecord`](crate::RepartitionRecord)s — flushes and L2
//! counters at the switch — add up to the serial ones.

use std::collections::BTreeMap;
use std::fmt;

use compmem_cache::{
    CacheConfig, CacheError, KeyStats, OrganizationSpec, PartitionSchedule, ScheduleStep,
};
use compmem_trace::Access;
use serde::{Deserialize, Serialize};

use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::metrics::SystemReport;
use crate::replay::{PreparedTrace, ReplaySystem};

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

/// Set shard `index` of a power-of-two shard count: the lines with
/// `line % count == index`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetShard {
    mask: u64,
    index: u64,
}

impl SetShard {
    /// Whether `access`'s line belongs to the shard.
    #[inline]
    pub(crate) fn owns(self, access: &Access) -> bool {
        access.addr.line().value() & self.mask == self.index
    }
}

/// Runs `run(shard)` for every shard of `shards` (a power of two) on its
/// own scoped thread — the shard count never exceeds the caller's worker
/// cap — and returns the results in shard order.
pub(crate) fn run_shards<T: Send>(shards: usize, run: impl Fn(SetShard) -> T + Sync) -> Vec<T> {
    let mask = shards as u64 - 1;
    if shards <= 1 {
        return vec![run(SetShard { mask, index: 0 })];
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..shards as u64)
            .map(|index| {
                let run = &run;
                scope.spawn(move || run(SetShard { mask, index }))
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

fn lane_cache_error(error: CacheError) -> PlatformError {
    PlatformError::LaneCache {
        message: error.to_string(),
    }
}

/// Adds one lane's per-key counters to the merged ones.
fn add_keyed<K: Ord>(total: &mut BTreeMap<K, KeyStats>, lane: BTreeMap<K, KeyStats>) {
    for (key, stats) in lane {
        let entry = total.entry(key).or_default();
        entry.accesses += stats.accesses;
        entry.misses += stats.misses;
    }
}

/// Replays `trace` under the scheduled L2 organisation split into set
/// shards on up to `requested` worker threads (see the module docs), and
/// returns the cache-side report merged over the lanes — timing fields
/// zero, L1 statistics from the shared filter pass — with the split.
/// `requested <= 1` replays one shard, i.e. the whole stream on one lane.
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
) -> Result<(SystemReport, LaneDecision), PlatformError> {
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
    // The lanes share one filter pass.
    trace.filtered_for(config)?;
    let mut lanes = run_shards(shards, |shard| {
        let cache = schedule
            .initial()
            .build(l2, regions)
            .map_err(lane_cache_error)?;
        let mut lane = ReplaySystem::new(config, cache, trace)?;
        lane.install_schedule(schedule).map_err(lane_cache_error)?;
        lane.restrict_to(shard);
        Ok::<_, PlatformError>(lane.run())
    })
    .into_iter();
    let first = lanes.next().expect("a replay has at least one lane")?;
    let mut report = SystemReport {
        processors: Vec::new(),
        bus_wait_cycles: 0,
        makespan_cycles: 0,
        ..first
    };
    for lane in lanes {
        let lane = lane?;
        report.l2.merge(&lane.l2);
        add_keyed(&mut report.l2_by_task, lane.l2_by_task);
        add_keyed(&mut report.l2_by_region, lane.l2_by_region);
        report.dram_accesses += lane.dram_accesses;
        report.dram_writebacks += lane.dram_writebacks;
        report.bus_bytes += lane.bus_bytes;
        for (total, lane) in report.repartitions.iter_mut().zip(lane.repartitions) {
            total.flush.absorb(lane.flush);
            total.l2_accesses_before += lane.l2_accesses_before;
            total.l2_misses_before += lane.l2_misses_before;
        }
    }
    let decision = LaneDecision {
        requested,
        shards,
        smallest_group: groups.iter().map(|group| group.sets).min().unwrap_or(0),
    };
    Ok((report, decision))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Burst, BurstOutcome, Op, WorkloadDriver};
    use crate::scheduler::TaskMapping;
    use crate::system::System;
    use compmem_cache::{
        PartitionKey, PartitionMap, ReplacementPolicy, SharedCache, WayAllocation,
    };
    use compmem_trace::codec::{EncodedTrace, TraceWriter};
    use compmem_trace::{Addr, BufferId, RegionKind, RegionTable, TaskId};

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
    ) -> SystemReport {
        let model = schedule.initial().build(l2, trace.table()).unwrap();
        let mut replay = ReplaySystem::new(&platform(), model, trace).unwrap();
        replay.install_schedule(schedule).unwrap();
        replay.run()
    }

    fn assert_parity(serial: &SystemReport, lanes: &SystemReport, context: &str) {
        assert_eq!(serial.l1, lanes.l1, "{context}: L1");
        assert_eq!(serial.l2, lanes.l2, "{context}: L2");
        assert_eq!(serial.l2_by_task, lanes.l2_by_task, "{context}: per task");
        assert_eq!(
            serial.l2_by_region, lanes.l2_by_region,
            "{context}: per region"
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
                    let serial_report = serial(l2, &schedule, &trace);
                    assert_eq!(serial_report.repartitions.len(), schedule.switches().len());
                    flushed += serial_report
                        .repartitions
                        .iter()
                        .map(|record| record.flush.invalidated)
                        .sum::<u64>();
                    for requested in [1, 2, 4] {
                        let context = format!("{name}, {policy}, {kind}, {requested} lanes");
                        let (lanes, decision) =
                            replay_lanes(&platform(), l2, &schedule, &trace, requested).unwrap();
                        assert_eq!(decision.shards, requested, "{context}");
                        assert_parity(&serial_report, &lanes, &context);
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
            let serial_report = serial(l2, &schedule, &trace);
            let (one, _) = replay_lanes(&platform(), l2, &schedule, &trace, 1).unwrap();
            assert_parity(&serial_report, &one, "one lane");
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
