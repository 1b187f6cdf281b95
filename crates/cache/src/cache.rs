//! The set-associative cache core shared by all organisations.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use compmem_trace::{Access, LineAddr, RegionId, TaskId};

use crate::config::CacheConfig;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;
use crate::set::SetArray;
use crate::stats::{CacheStats, StatsByKey};

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The line address that was evicted (tags store the full line address).
    pub line: LineAddr,
    /// Whether the line was dirty and needs a write-back.
    pub dirty: bool,
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the missed line had never been referenced before (cold miss).
    pub cold: bool,
    /// The line evicted to make room, if any.
    pub evicted: Option<EvictedLine>,
}

impl AccessOutcome {
    /// Returns `true` if the access missed.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// Multiply-xorshift hasher for line addresses.
///
/// The cold-miss tracker tests membership on **every** access of every
/// cache, so it cannot afford SipHash; line numbers hashed through one
/// multiplication and a finalising shift distribute well enough for the
/// table and cost a couple of cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineAddrHasher(u64);

impl Hasher for LineAddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type LineSet = HashSet<LineAddr, BuildHasherDefault<LineAddrHasher>>;

/// A set-associative, write-back, write-allocate cache with per-task and
/// per-region miss attribution.
///
/// The cache operates on whatever set index the caller supplies, so the same
/// core serves the conventional organisation (the line address masked by
/// the set count) and the paper's set-partitioned organisation (index
/// translated through the OS-loaded partition table). The ways of every
/// set live in flat arrays: an access allocates nothing beyond the
/// amortised growth of the cold-miss tracker.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    sets: SetArray,
    stats: CacheStats,
    by_task: StatsByKey<TaskId>,
    by_region: StatsByKey<RegionId>,
    seen_lines: LineSet,
}

impl SetAssocCache {
    /// Creates an empty cache from a configuration.
    pub fn new(config: CacheConfig) -> Self {
        let geometry = config.geometry();
        SetAssocCache {
            geometry,
            policy: config.replacement_policy(),
            sets: SetArray::new(geometry.sets(), geometry.ways(), config.random_seed()),
            stats: CacheStats::new(),
            by_task: StatsByKey::new(),
            by_region: StatsByKey::new(),
            seen_lines: LineSet::default(),
        }
    }

    /// Returns the geometry of the cache.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Returns the replacement policy of the cache.
    pub fn replacement_policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accesses the cache with conventional set indexing.
    pub fn access(&mut self, access: &Access) -> AccessOutcome {
        let index = self.geometry.index_of(access.addr.line());
        self.access_at(index, u64::MAX, access)
    }

    /// Accesses the cache at an explicitly chosen set index, restricted to
    /// the ways allowed by `allowed_ways`.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn access_at(
        &mut self,
        set_index: u32,
        allowed_ways: u64,
        access: &Access,
    ) -> AccessOutcome {
        assert!(
            set_index < self.geometry.sets(),
            "set index {set_index} out of range ({} sets)",
            self.geometry.sets()
        );
        let line = access.addr.line();
        let tag = self.geometry.tag_of(line);
        let outcome = self.sets.access(
            set_index as usize,
            tag,
            access.kind.is_write(),
            allowed_ways,
            self.policy,
        );
        let evicted = outcome.evicted.map(|(tag, dirty)| EvictedLine {
            line: LineAddr::new(tag),
            dirty,
        });
        // Cold tracking only needs the set membership test on a miss: a hit
        // line is resident, so it was necessarily inserted when it was
        // first filled.
        let cold = !outcome.hit && self.seen_lines.insert(line);
        let writeback = evicted.is_some_and(|e| e.dirty);
        self.stats.record(access.kind, outcome.hit, cold, writeback);
        self.by_task.record(access.task, outcome.hit);
        self.by_region.record(access.region, outcome.hit);
        AccessOutcome {
            hit: outcome.hit,
            cold,
            evicted,
        }
    }

    /// Returns `true` if `line` is currently resident (under conventional
    /// indexing; no statistics or replacement state is updated).
    pub fn probe(&self, line: LineAddr) -> bool {
        let index = self.geometry.index_of(line);
        self.probe_at(index, line)
    }

    /// Returns `true` if `line` is resident in the given set.
    pub fn probe_at(&self, set_index: u32, line: LineAddr) -> bool {
        self.sets
            .probe(set_index as usize, self.geometry.tag_of(line))
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets.occupancy()
    }

    /// Invalidates the whole cache, returning the number of dirty lines that
    /// would have been written back.
    pub fn flush(&mut self) -> u64 {
        let dirty = self.sets.flush();
        self.seen_lines.clear();
        dirty
    }

    /// Invalidates one set, returning `(invalidated, dirty)` line counts.
    ///
    /// Unlike [`flush`](Self::flush) the cold-miss tracker is untouched:
    /// a repartition-invalidated line was referenced before, so its
    /// re-fetch is a (repartition-induced) conflict miss, not a cold one.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn flush_set(&mut self, set_index: u32) -> (u64, u64) {
        assert!(
            set_index < self.geometry.sets(),
            "set index {set_index} out of range ({} sets)",
            self.geometry.sets()
        );
        self.sets.invalidate_ways(set_index as usize, u64::MAX)
    }

    /// Invalidates the ways selected by `mask` in **every** set, returning
    /// `(invalidated, dirty)` line counts; the cold-miss tracker is
    /// untouched, as in [`flush_set`](Self::flush_set).
    pub fn flush_ways(&mut self, mask: u64) -> (u64, u64) {
        let mut invalidated = 0;
        let mut dirty = 0;
        for set in 0..self.geometry.sets() as usize {
            let (i, d) = self.sets.invalidate_ways(set, mask);
            invalidated += i;
            dirty += d;
        }
        (invalidated, dirty)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-task statistics.
    pub fn stats_by_task(&self) -> &StatsByKey<TaskId> {
        &self.by_task
    }

    /// Per-region statistics.
    pub fn stats_by_region(&self) -> &StatsByKey<RegionId> {
        &self.by_region
    }

    /// Clears all statistics (contents stay resident).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
        self.by_task = StatsByKey::new();
        self.by_region = StatsByKey::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::Addr;

    fn load(addr: u64) -> Access {
        Access::load(Addr::new(addr), 4, TaskId::new(0), RegionId::new(0))
    }

    fn store(addr: u64) -> Access {
        Access::store(Addr::new(addr), 4, TaskId::new(0), RegionId::new(0))
    }

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(4, 2).unwrap())
    }

    #[test]
    fn second_access_to_same_line_hits() {
        let mut c = small_cache();
        assert!(c.access(&load(0x1000)).is_miss());
        assert!(c.access(&load(0x1004)).hit, "same line, different byte");
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().cold_misses, 1);
    }

    #[test]
    fn conflicting_lines_evict_within_set() {
        let mut c = small_cache();
        // 4 sets * 64 B = 256 B per way; lines 0, 4, 8 map to set 0.
        let set_stride = 4 * 64;
        assert!(c.access(&load(0)).is_miss());
        assert!(c.access(&load(set_stride)).is_miss());
        assert!(c.access(&load(2 * set_stride)).is_miss());
        // Line 0 was LRU and must be gone.
        assert!(c.access(&load(0)).is_miss());
        assert_eq!(c.stats().cold_misses, 3);
        assert_eq!(c.stats().non_cold_misses(), 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 1).unwrap());
        c.access(&store(0));
        let out = c.access(&load(64));
        assert_eq!(
            out.evicted,
            Some(EvictedLine {
                line: LineAddr::new(0),
                dirty: true
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn per_task_and_region_attribution() {
        let mut c = small_cache();
        let a0 = Access::load(Addr::new(0), 4, TaskId::new(0), RegionId::new(0));
        let a1 = Access::load(Addr::new(0x2000), 4, TaskId::new(1), RegionId::new(3));
        c.access(&a0);
        c.access(&a1);
        c.access(&a0);
        assert_eq!(c.stats_by_task().get(&TaskId::new(0)).accesses, 2);
        assert_eq!(c.stats_by_task().get(&TaskId::new(0)).misses, 1);
        assert_eq!(c.stats_by_task().get(&TaskId::new(1)).misses, 1);
        assert_eq!(c.stats_by_region().get(&RegionId::new(3)).accesses, 1);
    }

    #[test]
    fn access_at_respects_explicit_index() {
        let mut c = small_cache();
        // Place the same line in two different sets explicitly; both are
        // misses because the tag is looked up per set.
        assert!(c.access_at(0, u64::MAX, &load(0)).is_miss());
        assert!(c.access_at(1, u64::MAX, &load(0)).is_miss());
        assert!(c.access_at(0, u64::MAX, &load(0)).hit);
        assert!(c.probe_at(1, LineAddr::new(0)));
    }

    #[test]
    fn flush_empties_and_resets_cold_tracking() {
        let mut c = small_cache();
        c.access(&store(0));
        assert_eq!(c.occupancy(), 1);
        let dirty = c.flush();
        assert_eq!(dirty, 1);
        assert_eq!(c.occupancy(), 0);
        let out = c.access(&load(0));
        assert!(out.cold, "after flush the line counts as cold again");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small_cache();
        c.access(&load(0));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(&load(0)).hit, "contents survived the stats reset");
    }

    #[test]
    #[should_panic(expected = "set index")]
    fn out_of_range_set_index_panics() {
        let mut c = small_cache();
        c.access_at(100, u64::MAX, &load(0));
    }

    #[test]
    fn matches_stack_distance_oracle_for_fully_associative() {
        // A 1-set cache is fully associative: its LRU miss count must match
        // the reuse-distance oracle from the trace crate.
        use compmem_trace::gen::{looping, StreamParams};
        use compmem_trace::stats::ReuseDistanceHistogram;
        let params = StreamParams {
            task: TaskId::new(0),
            region: RegionId::new(0),
            base: Addr::new(0),
            access_size: 4,
        };
        let trace = looping(params, 24 * 64, 64, 5);
        let oracle = ReuseDistanceHistogram::from_accesses(&trace);
        for ways in [8u32, 16, 32] {
            let mut c = SetAssocCache::new(CacheConfig::new(1, ways).unwrap());
            for a in &trace {
                c.access(a);
            }
            assert_eq!(
                c.stats().misses,
                oracle.lru_misses(u64::from(ways)),
                "ways = {ways}"
            );
        }
    }
}
