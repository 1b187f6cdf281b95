//! The memory hierarchy: private L1 caches, the shared L2 and DRAM.

use serde::{Deserialize, Serialize};

use compmem_cache::{
    CacheError, CacheModel, CacheStats, OrganizationSpec, PartitionSchedule, ScheduleStep,
    SetAssocCache,
};
use compmem_trace::{Access, RegionTable, LINE_SIZE_BYTES};

use crate::bus::Bus;
use crate::config::PlatformConfig;
use crate::metrics::RepartitionRecord;

/// One level of the hierarchy, used to label aggregated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryLevel {
    /// Private L1 instruction cache.
    L1Instruction,
    /// Private L1 data cache.
    L1Data,
    /// Shared unified L2 cache.
    L2,
    /// Off-chip DRAM.
    Dram,
}

/// Timing summary of one burst of accesses through the hierarchy (see
/// [`MemorySystem::access_burst`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// The full memory hierarchy of one tile.
///
/// Each processor has private L1 instruction and data caches; all
/// processors share one L2 organisation held as a `Box<dyn CacheModel>`
/// (conventional, set-partitioned or way-partitioned — see
/// `compmem-cache`) and the bus to it and to DRAM. Because the L2 is a
/// trait object, the *same* timing path — L1 lookup, bus arbitration, L2
/// lookup, DRAM — serves every organisation; swapping organisations never
/// changes how stall cycles are computed, only how the L2 indexes and
/// evicts.
///
/// Accesses enter either one at a time ([`access`](MemorySystem::access))
/// or as whole runs ([`access_burst`](MemorySystem::access_burst)); the
/// burst entry point produces identical cache state and timing while
/// paying one virtual L2 dispatch per run, which is what makes trace
/// replay fast.
#[derive(Debug)]
pub struct MemorySystem {
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    l2: Box<dyn CacheModel>,
    bus: Bus,
    l2_hit_latency: u32,
    dram_latency: u32,
    dram_accesses: u64,
    dram_writebacks: u64,
    /// Scratch buffers reused across bursts so the hot replay path does not
    /// allocate per run.
    burst_refills: Vec<BurstRefill>,
    burst_batch: Vec<Access>,
    burst_outcomes: Vec<compmem_cache::AccessOutcome>,
    /// Pending repartition events (the switches of an installed
    /// [`PartitionSchedule`]), plus the region table they reconfigure
    /// over and the log of fired events.
    switches: Vec<ScheduleStep>,
    switch_regions: Option<RegionTable>,
    next_switch: usize,
    /// Boundary cycle of the next pending switch, cached so the hot paths
    /// pay a single `u64` comparison per access (`u64::MAX` when none).
    next_switch_at: u64,
    repartition_log: Vec<RepartitionRecord>,
}

/// One L1 miss of a burst: which access refills and whether the L1 victim
/// was dirty.
#[derive(Debug, Clone, Copy)]
struct BurstRefill {
    index: usize,
    l1_victim_dirty: bool,
}

impl MemorySystem {
    /// Builds the hierarchy for `config.num_processors` processors around the
    /// given shared L2 organisation.
    pub fn new(config: &PlatformConfig, l2: Box<dyn CacheModel>) -> Self {
        let l1i = (0..config.num_processors)
            .map(|_| SetAssocCache::new(config.l1i))
            .collect();
        let l1d = (0..config.num_processors)
            .map(|_| SetAssocCache::new(config.l1d))
            .collect();
        MemorySystem {
            l1i,
            l1d,
            l2,
            bus: Bus::new(config.bus_bytes_per_cycle),
            l2_hit_latency: config.l2_hit_latency,
            dram_latency: config.dram_latency,
            dram_accesses: 0,
            dram_writebacks: 0,
            burst_refills: Vec::new(),
            burst_batch: Vec::new(),
            burst_outcomes: Vec::new(),
            switches: Vec::new(),
            switch_regions: None,
            next_switch: 0,
            next_switch_at: u64::MAX,
            repartition_log: Vec::new(),
        }
    }

    /// Installs the repartition events of `schedule` (every step after
    /// the implicit step 0, whose organisation the L2 was built with).
    /// From then on the hierarchy applies each switch to the live L2 at
    /// its exact cycle boundary — the first access (or burst refill)
    /// whose issue clock reaches the boundary sees the new organisation —
    /// and charges the flush write-backs through the bus/DRAM path.
    ///
    /// # Errors
    ///
    /// Propagates schedule validation errors
    /// ([`PartitionSchedule::validate_for`] against the L2's geometry and
    /// `regions`), so a switch can never fail mid-run.
    pub fn install_schedule(
        &mut self,
        schedule: &PartitionSchedule,
        regions: &RegionTable,
    ) -> Result<(), CacheError> {
        schedule.validate_for(self.l2.geometry(), regions)?;
        // The initial organisation must be reconfigurable into step 1:
        // validated here by label, as in `PartitionSchedule::new`.
        if let Some(first) = schedule.switches().first() {
            let (from, to) = (self.l2.organization(), first.organization.label());
            if from != to {
                return Err(CacheError::ReconfigureUnsupported { from, to });
            }
        }
        self.switches = schedule.switches().to_vec();
        self.switch_regions = Some(regions.clone());
        self.next_switch = 0;
        self.next_switch_at = self.switches.first().map_or(u64::MAX, |step| step.at_cycle);
        self.repartition_log.clear();
        Ok(())
    }

    /// Appends one pending repartition event: from `at_cycle` on, the L2
    /// runs under `organization`.
    ///
    /// This is the incremental sibling of
    /// [`install_schedule`](MemorySystem::install_schedule) for online
    /// controllers that decide switches *during* a run: the step passes
    /// the same geometry/coverage/like-for-like validation a schedule
    /// step does, joins the same pending queue, and fires through the
    /// same [`apply_due_repartitions`](MemorySystem::apply_due_repartitions)
    /// machinery with exact flush accounting — once pending, a pushed
    /// switch and an installed one are indistinguishable. Unlike
    /// `install_schedule`, pushing never resets the repartition log, so
    /// fired events keep accumulating across pushes.
    ///
    /// # Errors
    ///
    /// * [`CacheError::ScheduleOutOfOrder`] if `at_cycle` is 0 (step 0 is
    ///   the organisation the cache was built with) or does not lie
    ///   strictly after the last pushed or installed switch,
    /// * [`CacheError::ReconfigureUnsupported`] if `organization` is not
    ///   like-for-like with the live L2,
    /// * geometry and coverage errors as for
    ///   [`PartitionSchedule::validate_for`].
    pub fn push_switch(
        &mut self,
        at_cycle: u64,
        organization: OrganizationSpec,
        regions: &RegionTable,
    ) -> Result<(), CacheError> {
        if at_cycle == 0 || self.switches.last().is_some_and(|s| at_cycle <= s.at_cycle) {
            return Err(CacheError::ScheduleOutOfOrder { at_cycle });
        }
        let (from, to) = (self.l2.organization(), organization.label());
        if from != to {
            return Err(CacheError::ReconfigureUnsupported { from, to });
        }
        // Reuse the schedule validator for the geometry/coverage checks:
        // a pushed step must satisfy exactly what an installed one does.
        PartitionSchedule::single(organization.clone())
            .validate_for(self.l2.geometry(), regions)?;
        self.switches.push(ScheduleStep {
            at_cycle,
            organization,
        });
        if self.switch_regions.is_none() {
            self.switch_regions = Some(regions.clone());
        }
        self.next_switch_at = self
            .switches
            .get(self.next_switch)
            .map_or(u64::MAX, |step| step.at_cycle);
        Ok(())
    }

    /// Applies every pending switch whose boundary is `<= now` to the
    /// live L2, charging each switch's dirty write-backs as bus/DRAM
    /// traffic at its boundary cycle.
    pub fn apply_due_repartitions(&mut self, now: u64) {
        // The explicit bound matters at `now == u64::MAX` (the replay
        // loop's "fire everything remaining"): the exhausted sentinel
        // `next_switch_at == u64::MAX` must not index past the switches.
        while self.next_switch < self.switches.len() && self.next_switch_at <= now {
            let step = &self.switches[self.next_switch];
            let regions = self
                .switch_regions
                .as_ref()
                .expect("switches are only installed together with their region table");
            let l2_stats = *self.l2.stats();
            let flush = self
                .l2
                .reconfigure(&step.organization, regions)
                .expect("schedule steps were validated at install time");
            // Flush traffic takes the same path an L2 eviction's
            // write-back does: one bus transfer and one DRAM write-back
            // per dirty line, issued at the boundary cycle.
            for _ in 0..flush.written_back {
                self.dram_writebacks += 1;
                let _ = self.bus.request(step.at_cycle, LINE_SIZE_BYTES as u32);
            }
            self.repartition_log.push(RepartitionRecord {
                step: self.next_switch + 1,
                at_cycle: step.at_cycle,
                flush,
                l2_accesses_before: l2_stats.accesses,
                l2_misses_before: l2_stats.misses,
            });
            self.next_switch += 1;
            self.next_switch_at = self
                .switches
                .get(self.next_switch)
                .map_or(u64::MAX, |step| step.at_cycle);
        }
    }

    /// The repartition events fired so far, in schedule order.
    pub fn repartition_log(&self) -> &[RepartitionRecord] {
        &self.repartition_log
    }

    /// Performs one access from `processor` at time `now` and returns the
    /// stall cycles seen by the processor (zero on an L1 hit).
    ///
    /// This is the single timing path of the simulator: L1 lookup, shared
    /// bus arbitration for the refill, L2 lookup through the
    /// [`CacheModel`], and DRAM plus a second bus transfer on an L2 miss.
    pub fn access(&mut self, processor: usize, now: u64, access: &Access) -> u64 {
        if now >= self.next_switch_at {
            self.apply_due_repartitions(now);
        }
        let l1 = if access.kind.is_instruction() {
            &mut self.l1i[processor]
        } else {
            &mut self.l1d[processor]
        };
        let l1_outcome = l1.access(access);
        if l1_outcome.hit {
            return 0;
        }

        // L1 refill: the line travels over the shared bus from the L2.
        let (bus_wait, bus_duration) = self.bus.request(now, LINE_SIZE_BYTES as u32);
        // A dirty L1 victim is written back to the L2; it consumes bus
        // bandwidth but does not stall the processor (write buffer).
        if l1_outcome.evicted.is_some_and(|e| e.dirty) {
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
    /// at time `now`, and returns the burst's timing summary.
    ///
    /// This is the batch entry point of the single timing path: every
    /// access still flows L1 → bus → L2 → DRAM with the issue time
    /// advancing exactly as in per-access execution (one cycle per data
    /// access plus its stall; stall only for instruction fetches), but the
    /// L1 misses of the run reach the shared L2 through **one**
    /// [`CacheModel::access_batch`] call, so replaying a decoded trace run
    /// costs one virtual dispatch instead of one per access. Cache state,
    /// statistics and stall cycles are bit-identical to issuing the same
    /// accesses through [`access`](MemorySystem::access) one by one.
    pub fn access_burst(&mut self, processor: usize, now: u64, accesses: &[Access]) -> BurstStats {
        // Phase 1: private L1 lookups (always per access — each access's
        // hit/miss depends on the previous ones), collecting the misses
        // that must travel to the shared L2.
        let mut refills = std::mem::take(&mut self.burst_refills);
        let mut batch = std::mem::take(&mut self.burst_batch);
        refills.clear();
        batch.clear();
        for (index, access) in accesses.iter().enumerate() {
            let l1 = if access.kind.is_instruction() {
                &mut self.l1i[processor]
            } else {
                &mut self.l1d[processor]
            };
            let outcome = l1.access(access);
            if !outcome.hit {
                refills.push(BurstRefill {
                    index,
                    l1_victim_dirty: outcome.evicted.is_some_and(|e| e.dirty),
                });
                batch.push(*access);
            }
        }

        // Phase 2: one virtual dispatch hands the whole miss stream to the
        // L2 organisation, in order. With repartition events pending the
        // batch cannot be dispatched up front — a boundary may fall
        // mid-burst — so the L2 is accessed refill by refill in phase 3
        // instead, at the exact issue clock.
        let batched = self.next_switch_at == u64::MAX;
        let mut outcomes = std::mem::take(&mut self.burst_outcomes);
        if batched {
            self.l2.access_batch(&batch, &mut outcomes);
        } else {
            outcomes.clear();
        }

        // Phase 3: timing. The bus sees exactly the request sequence of the
        // per-access path (refill, optional L1 write-back, optional DRAM
        // fill, optional L2 write-back — per miss, in order), with the
        // issue clock advancing across the run.
        let mut stats = BurstStats::default();
        let mut clock = now;
        let mut refill_cursor = 0usize;
        for (index, access) in accesses.iter().enumerate() {
            let mut stall = 0u64;
            if refills.get(refill_cursor).is_some_and(|r| r.index == index) {
                let refill = refills[refill_cursor];
                let l2_outcome = if batched {
                    outcomes[refill_cursor]
                } else {
                    if clock >= self.next_switch_at {
                        self.apply_due_repartitions(clock);
                    }
                    self.l2.access(access)
                };
                refill_cursor += 1;
                let (bus_wait, bus_duration) = self.bus.request(clock, LINE_SIZE_BYTES as u32);
                if refill.l1_victim_dirty {
                    let _ = self.bus.request(clock, LINE_SIZE_BYTES as u32);
                }
                stall = bus_wait + bus_duration + u64::from(self.l2_hit_latency);
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
            }
            stats.stall_cycles += stall;
            if access.kind.is_instruction() {
                clock += stall;
                stats.instr_fetches += 1;
            } else {
                clock += 1 + stall;
                stats.data_accesses += 1;
            }
        }
        stats.elapsed = clock - now;

        self.burst_refills = refills;
        self.burst_batch = batch;
        self.burst_outcomes = outcomes;
        stats
    }

    /// Issues the pre-filtered L2-bound refills of one run, whose first
    /// access issued at `now` and which contained `data_accesses` loads and
    /// stores and `instr_fetches` instruction fetches in total.
    ///
    /// This is [`access_burst`](MemorySystem::access_burst) with the L1
    /// phase already performed (once, when the trace was filtered): the
    /// bus request sequence, the L2 access stream and the returned timing
    /// are bit-identical to replaying the full run — the private L1s of
    /// this hierarchy are bypassed and left untouched.
    pub fn refill_burst(
        &mut self,
        now: u64,
        refills: &[L1Refill],
        data_accesses: u64,
        instr_fetches: u64,
    ) -> BurstStats {
        // As in `access_burst`: pending repartition events force the L2
        // accesses to happen refill by refill at their exact issue
        // clocks, so a boundary falling inside the run splits it.
        let batched = self.next_switch_at == u64::MAX;
        let mut batch = std::mem::take(&mut self.burst_batch);
        batch.clear();
        let mut outcomes = std::mem::take(&mut self.burst_outcomes);
        if batched {
            batch.extend(refills.iter().map(|r| r.access));
            self.l2.access_batch(&batch, &mut outcomes);
        } else {
            outcomes.clear();
        }

        let mut stall_total = 0u64;
        for (i, refill) in refills.iter().enumerate() {
            // Hits before this refill advance the clock one cycle per data
            // access; earlier refills advance it by their stalls.
            let clock = now + refill.data_accesses_before + stall_total;
            let l2_outcome = if batched {
                outcomes[i]
            } else {
                if clock >= self.next_switch_at {
                    self.apply_due_repartitions(clock);
                }
                self.l2.access(&refill.access)
            };
            let (bus_wait, bus_duration) = self.bus.request(clock, LINE_SIZE_BYTES as u32);
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

        self.burst_batch = batch;
        self.burst_outcomes = outcomes;
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

    /// Mutable access to the shared L2 organisation.
    pub fn l2_mut(&mut self) -> &mut dyn CacheModel {
        self.l2.as_mut()
    }

    /// Consumes the hierarchy and returns the shared L2 organisation (e.g.
    /// to read its final counters).
    pub fn into_l2(self) -> Box<dyn CacheModel> {
        self.l2
    }

    /// Statistics of the L1 instruction cache of `processor`.
    pub fn l1i_stats(&self, processor: usize) -> &CacheStats {
        self.l1i[processor].stats()
    }

    /// Statistics of the L1 data cache of `processor`.
    pub fn l1d_stats(&self, processor: usize) -> &CacheStats {
        self.l1d[processor].stats()
    }

    /// Aggregate L1 statistics over all processors and both L1 caches.
    pub fn l1_aggregate_stats(&self) -> CacheStats {
        let mut agg = CacheStats::new();
        for c in self.l1i.iter().chain(self.l1d.iter()) {
            agg.merge(c.stats());
        }
        agg
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
        self.l1d.len()
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
        assert_eq!(m.l1d_stats(1).misses, 1);
        assert_eq!(m.l1d_stats(0).misses, 1);
        assert_eq!(m.l2().stats().accesses, 2);
        assert_eq!(m.l2().stats().misses, 1);
    }

    #[test]
    fn instruction_fetches_use_the_instruction_cache() {
        let mut m = tiny_system();
        let i = Access::ifetch(Addr::new(0x4000), 64, TaskId::new(0), RegionId::new(1));
        let _ = m.access(0, 0, &i);
        assert_eq!(m.l1i_stats(0).accesses, 1);
        assert_eq!(m.l1d_stats(0).accesses, 0);
        let agg = m.l1_aggregate_stats();
        assert_eq!(agg.accesses, 1);
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
        // through both entry points: identical stall totals, cache state
        // and bus traffic.
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
        let mut now = 0u64;
        let mut stall_total = 0u64;
        for a in &stream {
            let stall = one_by_one.access(0, now, a);
            stall_total += stall;
            now += if a.kind.is_instruction() {
                stall
            } else {
                1 + stall
            };
        }

        let mut burst = tiny_system();
        // Split the stream into uneven runs to exercise the scratch reuse.
        let mut clock = 0u64;
        let mut burst_stalls = 0u64;
        let mut cursor = 0usize;
        for (i, run_len) in [17usize, 1, 64, 5, 113].iter().enumerate() {
            let run = &stream[cursor..cursor + run_len];
            cursor += run_len;
            let stats = burst.access_burst(0, clock, run);
            clock += stats.elapsed;
            burst_stalls += stats.stall_cycles;
            let _ = i;
        }
        assert_eq!(cursor, stream.len());

        assert_eq!(clock, now, "clocks diverged");
        assert_eq!(burst_stalls, stall_total, "stall totals diverged");
        assert_eq!(one_by_one.l2().snapshot(), burst.l2().snapshot());
        assert_eq!(one_by_one.l1d_stats(0), burst.l1d_stats(0));
        assert_eq!(one_by_one.l1i_stats(0), burst.l1i_stats(0));
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
        use compmem_cache::{OrganizationSpec, PartitionKey, PartitionMap, PartitionSchedule};
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
        let schedule = PartitionSchedule::new(vec![
            (0, OrganizationSpec::SetPartitioned(map_a.clone())),
            (10_000, OrganizationSpec::SetPartitioned(map_b)),
        ])
        .unwrap();
        let config = PlatformConfig::default()
            .processors(1)
            .l1(CacheConfig::new(1, 1).unwrap());
        let mut m = MemorySystem::new(
            &config,
            OrganizationSpec::SetPartitioned(map_a)
                .build(l2, &table)
                .unwrap(),
        );
        m.install_schedule(&schedule, &table).unwrap();

        let base = table.region(region).base;
        // Dirty a line before the boundary, then alternate two conflicting
        // L1 lines so every access reaches the L2.
        let store = Access::store(base, 4, TaskId::new(0), region);
        let _ = m.access(0, 0, &store);
        let load = Access::load(base.offset(64), 4, TaskId::new(0), region);
        let _ = m.access(0, 100, &load);
        assert!(m.repartition_log().is_empty(), "boundary not reached yet");
        let writebacks_before = m.dram_writebacks();

        // The first access at/after the boundary applies the switch: the
        // moved partition is flushed, the dirty line written back, and
        // the re-fetch of the stored line misses (but is not cold).
        let _ = m.access(0, 10_000, &load);
        let log = m.repartition_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].step, 1);
        assert_eq!(log[0].at_cycle, 10_000);
        assert_eq!(log[0].flush.invalidated, 2);
        assert_eq!(log[0].flush.written_back, 1);
        assert_eq!(log[0].l2_accesses_before, 2);
        assert_eq!(m.dram_writebacks(), writebacks_before + 1);
        let misses_before = m.l2().stats().misses;
        let _ = m.access(0, 10_100, &store);
        assert_eq!(
            m.l2().stats().misses,
            misses_before + 1,
            "the flushed dirty line must be re-fetched"
        );
    }

    #[test]
    fn scheduled_access_burst_matches_per_access_execution_exactly() {
        use compmem_cache::{OrganizationSpec, PartitionKey, PartitionMap, PartitionSchedule};
        use compmem_trace::{RegionKind, RegionTable};
        let mut table = RegionTable::new();
        let region = table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                512 * 1024,
            )
            .unwrap();
        let l2 = CacheConfig::new(64, 4).unwrap();
        let key = PartitionKey::Task(TaskId::new(0));
        let map = |base_set| {
            let mut m = PartitionMap::new(l2.geometry());
            m.assign(key, base_set, 16).unwrap();
            m
        };
        let schedule = PartitionSchedule::new(vec![
            (0, OrganizationSpec::SetPartitioned(map(0))),
            (150, OrganizationSpec::SetPartitioned(map(16))),
            (900, OrganizationSpec::SetPartitioned(map(32))),
        ])
        .unwrap();
        let base = table.region(region).base;
        let stream: Vec<Access> = (0..160)
            .map(|i| {
                let addr = base.offset((i % 9) * 256 + (i % 5) * 64);
                if i % 4 == 0 {
                    Access::store(addr, 4, TaskId::new(0), region)
                } else {
                    Access::load(addr, 4, TaskId::new(0), region)
                }
            })
            .collect();
        let config = PlatformConfig::default()
            .processors(1)
            .l1(CacheConfig::new(4, 2).unwrap());
        let fresh = || {
            let mut m = MemorySystem::new(
                &config,
                OrganizationSpec::SetPartitioned(map(0))
                    .build(l2, &table)
                    .unwrap(),
            );
            m.install_schedule(&schedule, &table).unwrap();
            m
        };

        // Per-access execution (boundaries applied at each access clock)...
        let mut one_by_one = fresh();
        let mut now = 0u64;
        for a in &stream {
            let stall = one_by_one.access(0, now, a);
            now += if a.kind.is_instruction() {
                stall
            } else {
                1 + stall
            };
        }
        // ...must match burst execution, which detects the pending
        // schedule and issues L2 accesses refill by refill.
        let mut burst = fresh();
        let mut clock = 0u64;
        let mut cursor = 0usize;
        for run_len in [13usize, 1, 70, 76] {
            let run = &stream[cursor..cursor + run_len];
            cursor += run_len;
            let stats = burst.access_burst(0, clock, run);
            clock += stats.elapsed;
        }
        assert_eq!(cursor, stream.len());
        assert_eq!(clock, now, "clocks diverged");
        assert_eq!(one_by_one.l2().snapshot(), burst.l2().snapshot());
        assert_eq!(one_by_one.repartition_log(), burst.repartition_log());
        assert_eq!(burst.repartition_log().len(), 2, "both switches fired");
        assert_eq!(one_by_one.dram_writebacks(), burst.dram_writebacks());
        assert_eq!(
            one_by_one.bus().bytes_transferred(),
            burst.bus().bytes_transferred()
        );
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
