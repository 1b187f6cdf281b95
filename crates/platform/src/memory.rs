//! The memory hierarchy: private L1 caches, the shared L2 and DRAM.
//!
//! [`MemorySystem`] is the only code that decides which accesses reach the
//! L2 and what each L2-bound refill and each repartition flush costs.
//! Every consumer calls it rather than mirroring it:
//!
//! * the live engine issues every run of accesses, the run-time system's
//!   task-switch traffic included, through
//!   [`access_burst`](MemorySystem::access_burst), and hands the refills
//!   it computed to the run's [`AccessTap`](crate::AccessTap);
//! * a trace filter pass runs the recorded accesses through the same
//!   private L1 bank type once per L1 configuration, and every replay —
//!   serial or one set-sharded lane of it — issues the stored refills
//!   through [`refill_burst`](MemorySystem::refill_burst), one loop that
//!   looks each refill up in the L2 and times it (a lane hands it the
//!   refills it owns, filtered in place);
//! * every repartition, installed or decided online, goes through
//!   [`repartition`](MemorySystem::repartition).

use compmem_cache::{
    CacheConfig, CacheError, CacheModel, CacheStats, OrganizationSpec, SetAssocCache,
};
use compmem_trace::{Access, RegionTable, LINE_SIZE_BYTES};

use crate::bus::Bus;
use crate::config::PlatformConfig;
use crate::metrics::RepartitionRecord;

/// Timing summary of one burst of accesses through the hierarchy (see
/// [`MemorySystem::access_burst`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstStats {
    /// Cycles the issuing processor advanced over the whole burst: one
    /// cycle per data access plus every stall cycle (instruction fetches
    /// contribute stall cycles only, as in the live path).
    pub elapsed: u64,
    /// Total stall cycles of the burst.
    pub stall_cycles: u64,
    /// Data accesses (loads and stores) in the burst.
    pub data_accesses: u64,
    /// Instruction fetches in the burst.
    pub instr_fetches: u64,
}

/// One L1 miss of a pre-filtered trace run: the access that must travel to
/// the shared L2, its position inside the run, and whether refilling it
/// evicted a dirty L1 victim.
///
/// Filtering a recorded run through the (organisation-invariant) private
/// L1s once and replaying only these refills is what makes organisation
/// sweeps fast: the L2, bus and DRAM see exactly the traffic — at exactly
/// the issue times — they would see replaying the full run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Refill {
    /// The access that missed in the L1.
    pub access: Access,
    /// Data accesses (loads and stores) preceding this one in its run:
    /// each advances the issuing processor's clock by one cycle, so this
    /// is the hit-path component of the refill's issue time.
    pub data_accesses_before: u64,
    /// Whether the L1 victim was dirty (its write-back consumes bus
    /// bandwidth).
    pub l1_victim_dirty: bool,
}

/// The private L1 caches of every processor: one instruction and one data
/// cache each.
///
/// This is the **single** definition of "L2-bound" in the crate: the
/// hierarchy's own L1s are an `L1Filter`, and so are the L1s the trace
/// filter pass ([`PreparedTrace::filtered_for`](crate::PreparedTrace::filtered_for))
/// runs a recorded trace through.
#[derive(Debug)]
pub(crate) struct L1Filter {
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
}

impl L1Filter {
    /// Creates per-processor instruction and data L1s from their
    /// configurations.
    pub(crate) fn new(l1i: CacheConfig, l1d: CacheConfig, processors: usize) -> Self {
        L1Filter {
            l1i: (0..processors).map(|_| SetAssocCache::new(l1i)).collect(),
            l1d: (0..processors).map(|_| SetAssocCache::new(l1d)).collect(),
        }
    }

    /// Number of processors the bank serves.
    pub(crate) fn processors(&self) -> usize {
        self.l1d.len()
    }

    /// Runs one access through `processor`'s L1 and returns the refill it
    /// sends to the L2 when it misses; `data_accesses_before` is the
    /// access's position in its run (see [`L1Refill`]).
    ///
    /// # Panics
    ///
    /// If `processor` is outside the bank.
    #[inline]
    pub(crate) fn filter(
        &mut self,
        processor: usize,
        access: &Access,
        data_accesses_before: u64,
    ) -> Option<L1Refill> {
        let l1 = if access.kind.is_instruction() {
            &mut self.l1i[processor]
        } else {
            &mut self.l1d[processor]
        };
        let outcome = l1.access(access);
        (!outcome.hit).then(|| L1Refill {
            access: *access,
            data_accesses_before,
            l1_victim_dirty: outcome.evicted.is_some_and(|e| e.dirty),
        })
    }

    /// Aggregate statistics over all private L1 caches.
    pub(crate) fn aggregate_stats(&self) -> CacheStats {
        let mut aggregate = CacheStats::new();
        for cache in self.l1i.iter().chain(self.l1d.iter()) {
            aggregate.merge(cache.stats());
        }
        aggregate
    }
}

/// The full memory hierarchy of one tile.
///
/// Each processor has private L1 instruction and data caches (one
/// `L1Filter` bank); all processors share one L2 organisation held as a
/// `Box<dyn CacheModel>` (conventional, set-partitioned or way-partitioned
/// — see `compmem-cache`) and the bus to it and to DRAM. Because the L2 is a
/// trait object, the *same* timing path — L1 lookup, bus arbitration, L2
/// lookup, DRAM — serves every organisation; swapping organisations never
/// changes how stall cycles are computed, only how the L2 indexes and
/// evicts.
///
/// Accesses enter either one at a time ([`access`](MemorySystem::access))
/// or as whole runs ([`access_burst`](MemorySystem::access_burst)); the
/// burst entry point produces identical cache state and timing, and its
/// timing half ([`refill_burst`](MemorySystem::refill_burst)) is what a
/// trace replay runs on the refills the filter pass stored.
#[derive(Debug)]
pub struct MemorySystem {
    l1: L1Filter,
    l2: Box<dyn CacheModel>,
    bus: Bus,
    l2_hit_latency: u32,
    dram_latency: u32,
    dram_accesses: u64,
    dram_writebacks: u64,
    /// Scratch buffer reused across bursts so the live path does not
    /// allocate per run.
    burst_refills: Vec<L1Refill>,
    repartition_log: Vec<RepartitionRecord>,
}

impl MemorySystem {
    /// Builds the hierarchy for `config.num_processors` processors around the
    /// given shared L2 organisation.
    pub fn new(config: &PlatformConfig, l2: Box<dyn CacheModel>) -> Self {
        MemorySystem {
            l1: L1Filter::new(config.l1i, config.l1d, config.num_processors),
            l2,
            bus: Bus::new(config.bus_bytes_per_cycle),
            l2_hit_latency: config.l2_hit_latency,
            dram_latency: config.dram_latency,
            dram_accesses: 0,
            dram_writebacks: 0,
            burst_refills: Vec::new(),
            repartition_log: Vec::new(),
        }
    }

    /// Reconfigures the live L2 into `organization` at cycle `at_cycle`.
    ///
    /// Every written-back line of the switch's flush is charged as one
    /// bus transfer plus one DRAM write-back issued at `at_cycle` — the
    /// path an L2 eviction's write-back takes — and the event is logged
    /// as a [`RepartitionRecord`] with the L2 counters at the switch.
    /// Callers apply switches between runs, so no burst ever straddles
    /// one.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheModel::reconfigure`] errors — a geometry
    /// mismatch, an uncovered region, or a switch across organisation
    /// kinds — before any line is touched; the log is then unchanged.
    pub fn repartition(
        &mut self,
        at_cycle: u64,
        organization: &OrganizationSpec,
        regions: &RegionTable,
    ) -> Result<(), CacheError> {
        let l2_stats = *self.l2.stats();
        let flush = self.l2.reconfigure(organization, regions)?;
        for _ in 0..flush.written_back {
            self.dram_writebacks += 1;
            let _ = self.bus.request(at_cycle, LINE_SIZE_BYTES as u32);
        }
        self.repartition_log.push(RepartitionRecord {
            step: self.repartition_log.len() + 1,
            at_cycle,
            flush,
            l2_accesses_before: l2_stats.accesses,
            l2_misses_before: l2_stats.misses,
        });
        Ok(())
    }

    /// The repartition events applied so far, in order.
    pub fn repartition_log(&self) -> &[RepartitionRecord] {
        &self.repartition_log
    }

    /// Performs one access from `processor` at time `now` and returns the
    /// stall cycles seen by the processor (zero on an L1 hit).
    ///
    /// This is the per-access timing path of the simulator, and the
    /// reference the burst paths are checked against: L1 lookup, shared
    /// bus arbitration for the refill, L2 lookup through the
    /// [`CacheModel`], and DRAM plus a second bus transfer on an L2 miss.
    pub fn access(&mut self, processor: usize, now: u64, access: &Access) -> u64 {
        let Some(refill) = self.l1.filter(processor, access, 0) else {
            return 0;
        };

        // L1 refill: the line travels over the shared bus from the L2.
        let (bus_wait, bus_duration) = self.bus.request(now, LINE_SIZE_BYTES as u32);
        // A dirty L1 victim is written back to the L2; it consumes bus
        // bandwidth but does not stall the processor (write buffer).
        if refill.l1_victim_dirty {
            let _ = self.bus.request(now, LINE_SIZE_BYTES as u32);
        }

        let l2_outcome = self.l2.access(access);
        let mut stall = bus_wait + bus_duration + u64::from(self.l2_hit_latency);
        if !l2_outcome.hit {
            self.dram_accesses += 1;
            stall += u64::from(self.dram_latency);
            let (dram_wait, dram_duration) = self.bus.request(now + stall, LINE_SIZE_BYTES as u32);
            stall += dram_wait + dram_duration;
        }
        if l2_outcome.evicted.is_some_and(|e| e.dirty) {
            // L2 write-back to DRAM: bus traffic only.
            self.dram_writebacks += 1;
            let _ = self.bus.request(now + stall, LINE_SIZE_BYTES as u32);
        }
        stall
    }

    /// Performs a whole run of accesses from `processor`, the first issuing
    /// at time `now`, and returns the burst's timing summary together with
    /// the run's L2-bound refills (its L1 misses, in issue order).
    ///
    /// This is the batch entry point of the timing path: the run's
    /// accesses look up the private L1s one by one (each hit or miss
    /// depends on the previous ones), and the misses issue through
    /// [`refill_burst`](MemorySystem::refill_burst). Cache state,
    /// statistics and stall cycles are bit-identical to issuing the same
    /// accesses through [`access`](MemorySystem::access) one by one.
    pub fn access_burst(
        &mut self,
        processor: usize,
        now: u64,
        accesses: &[Access],
    ) -> (BurstStats, &[L1Refill]) {
        let mut refills = std::mem::take(&mut self.burst_refills);
        refills.clear();
        let (mut data_accesses, mut instr_fetches) = (0, 0);
        for access in accesses {
            if let Some(refill) = self.l1.filter(processor, access, data_accesses) {
                refills.push(refill);
            }
            if access.kind.is_instruction() {
                instr_fetches += 1;
            } else {
                data_accesses += 1;
            }
        }
        let stats = self.refill_burst(now, &refills, data_accesses, instr_fetches);
        self.burst_refills = refills;
        (stats, &self.burst_refills)
    }

    /// Issues the L2-bound refills of one run, whose first access issued
    /// at `now` and which contained `data_accesses` loads and stores and
    /// `instr_fetches` instruction fetches in total.
    ///
    /// This is the timing half of [`access_burst`](MemorySystem::access_burst),
    /// and what a replay runs on refills the trace's filter pass already
    /// computed (a set-sharded lane passes only the refills it owns):
    /// each refill looks up the L2 in turn, and the bus sees exactly the
    /// request sequence of the per-access path (refill, optional L1
    /// write-back, optional DRAM fill, optional L2 write-back — per miss,
    /// in order), with the issue clock advancing one cycle per data access
    /// plus the stalls. The private L1s of this hierarchy are left
    /// untouched.
    pub fn refill_burst<'r>(
        &mut self,
        now: u64,
        refills: impl IntoIterator<Item = &'r L1Refill>,
        data_accesses: u64,
        instr_fetches: u64,
    ) -> BurstStats {
        let mut stall_total = 0u64;
        for refill in refills {
            // Hits before this refill advance the clock one cycle per data
            // access; earlier refills advance it by their stalls.
            let clock = now + refill.data_accesses_before + stall_total;
            let l2_outcome = self.l2.access(&refill.access);
            let (bus_wait, bus_duration) = self.bus.request(clock, LINE_SIZE_BYTES as u32);
            // A dirty L1 victim is written back to the L2; it consumes bus
            // bandwidth but does not stall the processor (write buffer).
            if refill.l1_victim_dirty {
                let _ = self.bus.request(clock, LINE_SIZE_BYTES as u32);
            }
            let mut stall = bus_wait + bus_duration + u64::from(self.l2_hit_latency);
            if !l2_outcome.hit {
                self.dram_accesses += 1;
                stall += u64::from(self.dram_latency);
                let (dram_wait, dram_duration) =
                    self.bus.request(clock + stall, LINE_SIZE_BYTES as u32);
                stall += dram_wait + dram_duration;
            }
            if l2_outcome.evicted.is_some_and(|e| e.dirty) {
                self.dram_writebacks += 1;
                let _ = self.bus.request(clock + stall, LINE_SIZE_BYTES as u32);
            }
            stall_total += stall;
        }
        BurstStats {
            elapsed: data_accesses + stall_total,
            stall_cycles: stall_total,
            data_accesses,
            instr_fetches,
        }
    }

    /// Shared L2 organisation.
    pub fn l2(&self) -> &dyn CacheModel {
        self.l2.as_ref()
    }

    /// Consumes the hierarchy and returns the shared L2 organisation (e.g.
    /// to read its final counters).
    pub fn into_l2(self) -> Box<dyn CacheModel> {
        self.l2
    }

    /// Aggregate L1 statistics over all processors and both L1 caches.
    pub fn l1_aggregate_stats(&self) -> CacheStats {
        self.l1.aggregate_stats()
    }

    /// Number of accesses served by DRAM (L2 misses).
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Number of dirty L2 lines written back to DRAM.
    pub fn dram_writebacks(&self) -> u64 {
        self.dram_writebacks
    }

    /// The shared bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Number of processors the hierarchy was built for.
    pub fn processors(&self) -> usize {
        self.l1.processors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_cache::{CacheConfig, SharedCache};
    use compmem_trace::{Addr, RegionId, TaskId};

    fn tiny_system() -> MemorySystem {
        let config = PlatformConfig::default()
            .processors(2)
            .l1(CacheConfig::new(4, 2).unwrap());
        MemorySystem::new(
            &config,
            Box::new(SharedCache::new(CacheConfig::new(64, 4).unwrap())),
        )
    }

    fn load(addr: u64, task: u32) -> Access {
        Access::load(Addr::new(addr), 4, TaskId::new(task), RegionId::new(0))
    }

    #[test]
    fn l1_hit_has_no_stall() {
        let mut m = tiny_system();
        let a = load(0x1000, 0);
        let first = m.access(0, 0, &a);
        assert!(first > 0, "cold miss must stall");
        let second = m.access(0, 10_000, &a);
        assert_eq!(second, 0, "L1 hit must not stall");
    }

    #[test]
    fn l2_hit_is_cheaper_than_dram() {
        let mut m = tiny_system();
        let a = load(0x2000, 0);
        let cold = m.access(0, 0, &a); // misses both levels -> DRAM
                                       // Evict it from the tiny L1 of processor 0 by touching conflicting
                                       // lines (same L1 set: L1 has 4 sets of 64 B => 256 B stride).
        for i in 1..=2 {
            let _ = m.access(0, 10_000 * i, &load(0x2000 + i * 256, 0));
        }
        let warm = m.access(0, 100_000, &a); // misses L1, hits L2
        assert!(warm > 0);
        assert!(
            warm < cold,
            "L2 hit ({warm}) should be cheaper than DRAM ({cold})"
        );
        assert_eq!(m.dram_accesses(), 3);
    }

    #[test]
    fn l1_caches_are_private_per_processor() {
        let mut m = tiny_system();
        let a = load(0x3000, 0);
        let _ = m.access(0, 0, &a);
        // Processor 1 misses its own L1 but hits the shared L2.
        let stall = m.access(1, 1_000, &a);
        assert!(stall > 0);
        let l1 = m.l1_aggregate_stats();
        assert_eq!((l1.accesses, l1.misses), (2, 2));
        assert_eq!(m.l2().stats().accesses, 2);
        assert_eq!(m.l2().stats().misses, 1);
    }

    #[test]
    fn instruction_fetches_use_the_instruction_cache() {
        let mut m = tiny_system();
        let i = Access::ifetch(Addr::new(0x4000), 64, TaskId::new(0), RegionId::new(1));
        assert!(m.access(0, 0, &i) > 0);
        assert_eq!(m.access(0, 1_000, &i), 0, "the fetched line is in the L1i");
        // The same line as data misses the L1d and hits the shared L2.
        assert!(m.access(0, 2_000, &load(0x4000, 0)) > 0);
        assert_eq!(m.l2().stats().accesses, 2);
        assert_eq!(m.l2().stats().misses, 1);
        let agg = m.l1_aggregate_stats();
        assert_eq!((agg.instr_accesses, agg.instr_misses), (2, 1));
        assert_eq!((agg.load_accesses, agg.load_misses), (1, 1));
    }

    #[test]
    fn bus_contention_inflates_stalls() {
        let mut m = tiny_system();
        // Two processors miss at the same instant: the second pays a
        // queueing delay on the shared bus.
        let s0 = m.access(0, 0, &load(0x8000, 0));
        let s1 = m.access(1, 0, &load(0x9000, 1));
        assert!(s1 > s0 - 8, "second request cannot be faster");
        assert!(m.bus().total_wait_cycles() > 0);
        assert!(m.bus().transfers() >= 2);
    }

    #[test]
    fn dirty_writebacks_reach_dram_counter() {
        let config = PlatformConfig::default()
            .processors(1)
            .l1(CacheConfig::new(1, 1).unwrap());
        let mut m = MemorySystem::new(
            &config,
            Box::new(SharedCache::new(CacheConfig::new(1, 1).unwrap())),
        );
        let w = Access::store(Addr::new(0), 4, TaskId::new(0), RegionId::new(0));
        let _ = m.access(0, 0, &w);
        // Conflicting store evicts the dirty line from the one-line L2.
        let w2 = Access::store(Addr::new(64), 4, TaskId::new(0), RegionId::new(0));
        let _ = m.access(0, 100, &w2);
        assert_eq!(m.dram_writebacks(), 1);
        assert_eq!(m.processors(), 1);
    }

    #[test]
    fn access_burst_matches_per_access_execution_exactly() {
        // Same mixed stream (loads, stores, ifetches, conflict evictions)
        // through both entry points, in uneven runs alternating between two
        // processors whose clocks overlap, so refills contend for the bus:
        // identical L1 misses, clocks, stall totals, cache state and bus
        // traffic.
        let stream: Vec<Access> = (0..200)
            .map(|i| {
                let addr = Addr::new(0x1000 + (i % 7) * 256 + (i % 3) * 64);
                let task = TaskId::new((i % 2) as u32);
                match i % 5 {
                    0 => Access::store(addr, 4, task, RegionId::new(0)),
                    1 | 2 => Access::load(addr, 4, task, RegionId::new(0)),
                    _ => Access::ifetch(addr, 64, task, RegionId::new(1)),
                }
            })
            .collect();

        let mut one_by_one = tiny_system();
        let mut burst = tiny_system();
        let (mut now, mut clock) = ([0u64; 2], [0u64; 2]);
        let (mut stall_total, mut burst_stalls) = (0u64, 0u64);
        let mut cursor = 0usize;
        for (i, run_len) in [17usize, 1, 64, 5, 113].into_iter().enumerate() {
            let processor = i % 2;
            let run = &stream[cursor..cursor + run_len];
            cursor += run_len;
            let mut missed = Vec::new();
            for a in run {
                let stall = one_by_one.access(processor, now[processor], a);
                if stall > 0 {
                    missed.push(*a);
                }
                stall_total += stall;
                now[processor] += if a.kind.is_instruction() {
                    stall
                } else {
                    1 + stall
                };
            }
            let (stats, refills) = burst.access_burst(processor, clock[processor], run);
            let refilled: Vec<Access> = refills.iter().map(|refill| refill.access).collect();
            assert_eq!(refilled, missed, "L1 misses diverged");
            clock[processor] += stats.elapsed;
            burst_stalls += stats.stall_cycles;
        }
        assert_eq!(cursor, stream.len());
        assert!(burst.bus().total_wait_cycles() > 0, "no bus contention");

        assert_eq!(clock, now, "clocks diverged");
        assert_eq!(burst_stalls, stall_total, "stall totals diverged");
        assert_eq!(one_by_one.l2().snapshot(), burst.l2().snapshot());
        assert_eq!(one_by_one.l1_aggregate_stats(), burst.l1_aggregate_stats());
        assert_eq!(one_by_one.dram_accesses(), burst.dram_accesses());
        assert_eq!(one_by_one.dram_writebacks(), burst.dram_writebacks());
        assert_eq!(
            one_by_one.bus().total_wait_cycles(),
            burst.bus().total_wait_cycles()
        );
        assert_eq!(
            one_by_one.bus().bytes_transferred(),
            burst.bus().bytes_transferred()
        );
    }

    #[test]
    fn scheduled_repartition_applies_at_the_boundary_and_charges_writebacks() {
        use compmem_cache::{OrganizationSpec, PartitionKey, PartitionMap, WayAllocation};
        use compmem_trace::{RegionKind, RegionTable};
        let mut table = RegionTable::new();
        let region = table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                64 * 1024,
            )
            .unwrap();
        let l2 = CacheConfig::new(64, 4).unwrap();
        let key = PartitionKey::Task(TaskId::new(0));
        let map_a = PartitionMap::pack(l2.geometry(), &[(key, 16)]).unwrap();
        let map_b = {
            let mut m = PartitionMap::new(l2.geometry());
            m.assign(key, 32, 16).unwrap();
            m
        };
        let config = PlatformConfig::default()
            .processors(1)
            .l1(CacheConfig::new(1, 1).unwrap());
        let mut m = MemorySystem::new(
            &config,
            OrganizationSpec::SetPartitioned(map_a)
                .build(l2, &table)
                .unwrap(),
        );

        let base = table.region(region).base;
        // Dirty a line before the boundary, then alternate two conflicting
        // L1 lines so every access reaches the L2.
        let store = Access::store(base, 4, TaskId::new(0), region);
        let _ = m.access(0, 0, &store);
        let load = Access::load(base.offset(64), 4, TaskId::new(0), region);
        let _ = m.access(0, 100, &load);
        let writebacks_before = m.dram_writebacks();
        let bytes_before = m.bus().bytes_transferred();

        // A switch across organisation kinds is refused before any line
        // is touched: no record, no flush, no traffic.
        let ways = WayAllocation::equal_split(l2.geometry(), &[key]);
        assert!(matches!(
            m.repartition(5_000, &OrganizationSpec::WayPartitioned(ways), &table),
            Err(CacheError::ReconfigureUnsupported { .. })
        ));
        assert!(m.repartition_log().is_empty());
        assert_eq!(m.dram_writebacks(), writebacks_before);
        assert_eq!(m.l2().stats().accesses, 2);

        // The switch at the boundary flushes the moved partition and
        // writes the dirty line back over the bus to DRAM.
        m.repartition(10_000, &OrganizationSpec::SetPartitioned(map_b), &table)
            .unwrap();
        let log = m.repartition_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].step, 1);
        assert_eq!(log[0].at_cycle, 10_000);
        assert_eq!(log[0].flush.invalidated, 2);
        assert_eq!(log[0].flush.written_back, 1);
        assert_eq!(log[0].l2_accesses_before, 2);
        assert_eq!(log[0].l2_misses_before, 2);
        assert_eq!(m.dram_writebacks(), writebacks_before + 1);
        assert_eq!(m.bus().bytes_transferred(), bytes_before + LINE_SIZE_BYTES);

        // The re-fetch of the flushed dirty line misses, but not cold.
        let (misses, cold) = (m.l2().stats().misses, m.l2().stats().cold_misses);
        let _ = m.access(0, 10_100, &store);
        assert_eq!(
            m.l2().stats().misses,
            misses + 1,
            "the flushed dirty line must be re-fetched"
        );
        assert_eq!(m.l2().stats().cold_misses, cold);
    }

    #[test]
    fn organisations_swap_behind_the_same_hierarchy() {
        use compmem_cache::{OrganizationSpec, PartitionKey, PartitionMap};
        use compmem_trace::{RegionKind, RegionTable};
        let mut table = RegionTable::new();
        let region = table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                64 * 1024,
            )
            .unwrap();
        let l2 = CacheConfig::new(64, 4).unwrap();
        let map =
            PartitionMap::pack(l2.geometry(), &[(PartitionKey::Task(TaskId::new(0)), 16)]).unwrap();
        let config = PlatformConfig::default()
            .processors(1)
            .l1(CacheConfig::new(4, 2).unwrap());
        let base = table.region(region).base;
        for spec in [
            OrganizationSpec::Shared,
            OrganizationSpec::SetPartitioned(map),
        ] {
            let mut m = MemorySystem::new(&config, spec.build(l2, &table).unwrap());
            let a = Access::load(base, 4, TaskId::new(0), region);
            assert!(m.access(0, 0, &a) > 0);
            assert_eq!(m.l2().organization(), spec.label());
            assert_eq!(m.l2().stats().accesses, 1);
        }
    }
}
