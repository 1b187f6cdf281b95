//! Set-partitioned cache: the paper's proposal.
//!
//! Every "memory-active entity" — a task, a FIFO, a frame buffer or one of
//! the shared static sections — is a [`PartitionKey`]. The operating system
//! assigns each key an exclusive group of cache sets ([`Partition`]) and
//! loads the resulting [`PartitionMap`] into the cache controller. On every
//! access the controller finds the region of the address (the interval table
//! of `compmem-trace`), derives the key, and re-computes the set index
//! *inside* the key's partition. Tasks therefore can never evict each
//! other's lines, which is exactly the compositionality mechanism of §3.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use compmem_trace::{Access, BufferId, RegionId, RegionKind, RegionTable, TaskId};

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::geometry::CacheGeometry;
use crate::model::CacheModel;
use crate::schedule::FlushStats;
use crate::spec::OrganizationSpec;
use crate::stats::{CacheStats, KeyStats, StatsByKey};

/// The entity a cache partition is allocated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PartitionKey {
    /// All private regions (code, data, bss, heap, stack) of one task.
    Task(TaskId),
    /// One inter-task communication buffer (FIFO or frame buffer).
    Buffer(BufferId),
    /// Application-wide initialised data shared by all tasks.
    AppData,
    /// Application-wide zero-initialised data shared by all tasks.
    AppBss,
    /// Run-time-system initialised data.
    RtData,
    /// Run-time-system zero-initialised data.
    RtBss,
}

impl PartitionKey {
    /// Derives the partition key an address of the given region kind is
    /// cached under.
    pub fn from_region_kind(kind: RegionKind) -> Self {
        match kind {
            RegionKind::TaskCode { task }
            | RegionKind::TaskData { task }
            | RegionKind::TaskBss { task }
            | RegionKind::TaskHeap { task }
            | RegionKind::TaskStack { task } => PartitionKey::Task(task),
            RegionKind::Fifo { buffer } | RegionKind::FrameBuffer { buffer } => {
                PartitionKey::Buffer(buffer)
            }
            RegionKind::AppData => PartitionKey::AppData,
            RegionKind::AppBss => PartitionKey::AppBss,
            RegionKind::RtData => PartitionKey::RtData,
            RegionKind::RtBss => PartitionKey::RtBss,
        }
    }

    /// The distinct partition keys of a region table, in region order.
    ///
    /// This is the canonical entity list of an application (or of a
    /// recorded trace, whose embedded table this is typically called on):
    /// the experiment driver, the CLI sweeps and the equal-split
    /// organisations all partition over exactly these keys.
    pub fn distinct_keys(table: &RegionTable) -> Vec<PartitionKey> {
        let mut keys = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for region in table.iter() {
            let key = PartitionKey::from_region_kind(region.kind);
            if seen.insert(key) {
                keys.push(key);
            }
        }
        keys
    }
}

impl fmt::Display for PartitionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionKey::Task(t) => write!(f, "task {t}"),
            PartitionKey::Buffer(b) => write!(f, "buffer {b}"),
            PartitionKey::AppData => write!(f, "app.data"),
            PartitionKey::AppBss => write!(f, "app.bss"),
            PartitionKey::RtData => write!(f, "rt.data"),
            PartitionKey::RtBss => write!(f, "rt.bss"),
        }
    }
}

/// An exclusive group of consecutive cache sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Partition {
    /// First set of the group.
    pub base_set: u32,
    /// Number of sets in the group (a power of two).
    pub sets: u32,
}

impl Partition {
    /// The set an address line maps to inside this partition: the line
    /// address modulo the group's set count, taken as a mask (the count
    /// is a power of two).
    pub fn index_of(&self, line: compmem_trace::LineAddr) -> u32 {
        self.base_set + (line.value() & u64::from(self.sets - 1)) as u32
    }

    /// One-past-the-last set of the group.
    pub fn end_set(&self) -> u32 {
        self.base_set + self.sets
    }

    /// Returns `true` if the two partitions share any set.
    pub fn overlaps(&self, other: &Partition) -> bool {
        self.base_set < other.end_set() && other.base_set < self.end_set()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sets [{}, {})", self.base_set, self.end_set())
    }
}

/// The OS-managed table assigning an exclusive partition to every key.
///
/// ```
/// use compmem_cache::{CacheGeometry, PartitionKey, PartitionMap};
/// use compmem_trace::TaskId;
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// let geometry = CacheGeometry::new(128, 4)?;
/// let mut map = PartitionMap::new(geometry);
/// map.assign(PartitionKey::Task(TaskId::new(0)), 0, 32)?;
/// map.assign(PartitionKey::Task(TaskId::new(1)), 32, 64)?;
/// assert_eq!(map.assigned_sets(), 96);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionMap {
    geometry: CacheGeometry,
    assignments: BTreeMap<PartitionKey, Partition>,
}

impl PartitionMap {
    /// Creates an empty map for a cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        PartitionMap {
            geometry,
            assignments: BTreeMap::new(),
        }
    }

    /// Geometry the map was built for.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Assigns `sets` consecutive sets starting at `base_set` to `key`.
    ///
    /// # Errors
    ///
    /// * [`CacheError::PartitionNotPowerOfTwo`] if `sets` is not a non-zero
    ///   power of two,
    /// * [`CacheError::PartitionOutOfRange`] if the range exceeds the cache,
    /// * [`CacheError::PartitionOverlap`] if the range overlaps an existing
    ///   partition of a *different* key (re-assigning the same key replaces
    ///   its partition).
    pub fn assign(
        &mut self,
        key: PartitionKey,
        base_set: u32,
        sets: u32,
    ) -> Result<(), CacheError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(CacheError::PartitionNotPowerOfTwo { sets });
        }
        let partition = Partition { base_set, sets };
        if partition.end_set() > self.geometry.sets() {
            return Err(CacheError::PartitionOutOfRange {
                base_set,
                sets,
                cache_sets: self.geometry.sets(),
            });
        }
        for (other_key, other) in &self.assignments {
            if *other_key != key && partition.overlaps(other) {
                return Err(CacheError::PartitionOverlap { base_set, sets });
            }
        }
        self.assignments.insert(key, partition);
        Ok(())
    }

    /// Packs the given `(key, sets)` requests back to back starting at set 0.
    ///
    /// This is how the experiment driver turns an optimiser result (sizes
    /// only) into concrete set ranges.
    ///
    /// # Errors
    ///
    /// Same as [`assign`](Self::assign); in addition the total must fit in
    /// the cache.
    pub fn pack(
        geometry: CacheGeometry,
        sizes: &[(PartitionKey, u32)],
    ) -> Result<Self, CacheError> {
        let mut map = PartitionMap::new(geometry);
        let mut base = 0u32;
        for &(key, sets) in sizes {
            map.assign(key, base, sets)?;
            base += sets;
        }
        Ok(map)
    }

    /// Packs the given `(key, sets)` requests while disturbing `previous`
    /// as little as possible: every key whose requested size equals its
    /// partition in `previous` **keeps that exact partition** (so a later
    /// repartition will not flush it), and only re-sized or new keys are
    /// placed into the remaining gaps (largest first). When the gaps
    /// fragment too much to fit every pending key, the whole request
    /// falls back to a plain [`pack`](Self::pack) — correct, just
    /// flush-heavier.
    ///
    /// This is the layout policy of
    /// [`PhasePlan::to_schedule`](../compmem/experiment/struct.PhasePlan.html#method.to_schedule):
    /// without it, resizing one partition shifts the base of every
    /// partition packed after it and a switch flushes nearly the whole
    /// cache.
    ///
    /// # Errors
    ///
    /// As for [`pack`](Self::pack).
    pub fn pack_stable(
        geometry: CacheGeometry,
        sizes: &[(PartitionKey, u32)],
        previous: &PartitionMap,
    ) -> Result<Self, CacheError> {
        let mut map = PartitionMap::new(geometry);
        let mut pending: Vec<(PartitionKey, u32)> = Vec::new();
        for &(key, sets) in sizes {
            match previous.partition_for(key) {
                Some(p) if p.sets == sets => map.assign(key, p.base_set, sets)?,
                _ => pending.push((key, sets)),
            }
        }
        // Largest first limits fragmentation; the sort is stable, so
        // equal sizes keep the caller's (deterministic) order.
        pending.sort_by_key(|&(_, sets)| std::cmp::Reverse(sets));
        for &(key, sets) in &pending {
            match map.find_gap(sets) {
                Some(base) => map.assign(key, base, sets)?,
                None => return Self::pack(geometry, sizes),
            }
        }
        Ok(map)
    }

    /// First free range of at least `sets` consecutive sets, scanning
    /// from set 0.
    fn find_gap(&self, sets: u32) -> Option<u32> {
        let mut occupied: Vec<Partition> = self.assignments.values().copied().collect();
        occupied.sort_by_key(|p| p.base_set);
        let mut cursor = 0u32;
        for p in occupied {
            if p.base_set >= cursor && p.base_set - cursor >= sets {
                return Some(cursor);
            }
            cursor = cursor.max(p.end_set());
        }
        (self.geometry.sets() >= cursor && self.geometry.sets() - cursor >= sets).then_some(cursor)
    }

    /// Packs an equal split over `keys`: every key receives the largest
    /// power-of-two set count that still lets all keys fit in the cache
    /// (the set-indexed analogue of [`WayAllocation::equal_split`]).
    ///
    /// [`WayAllocation::equal_split`]: crate::WayAllocation::equal_split
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] if `keys` is empty (nothing to cover) or the
    /// split is invalid for the geometry.
    pub fn equal_split(geometry: CacheGeometry, keys: &[PartitionKey]) -> Result<Self, CacheError> {
        if keys.is_empty() {
            return Err(CacheError::NoPartitionKeys);
        }
        let per = (geometry.sets() / keys.len() as u32).max(1);
        let per = 1 << (u32::BITS - 1 - per.leading_zeros()); // previous power of two
        let sizes: Vec<(PartitionKey, u32)> = keys.iter().map(|&k| (k, per)).collect();
        Self::pack(geometry, &sizes)
    }

    /// Returns the partition assigned to `key`, if any.
    pub fn partition_for(&self, key: PartitionKey) -> Option<Partition> {
        self.assignments.get(&key).copied()
    }

    /// Number of sets whose ownership would change when reconfiguring
    /// from this map to `next`: sets that move to a different key, join a
    /// key, or leave all keys. Every line resident in such a set is
    /// invalidated by the switch, so `moved_sets × ways` bounds the flush
    /// cost — the estimate a hysteresis controller weighs predicted miss
    /// savings against before committing to a repartition.
    pub fn moved_sets(&self, next: &PartitionMap) -> u32 {
        let owner = |map: &PartitionMap, set: u32| {
            map.assignments
                .iter()
                .find(|(_, p)| p.base_set <= set && set < p.end_set())
                .map(|(key, _)| *key)
        };
        (0..self.geometry.sets())
            .filter(|&set| owner(self, set) != owner(next, set))
            .count() as u32
    }

    /// Iterates over `(key, partition)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PartitionKey, &Partition)> {
        self.assignments.iter()
    }

    /// Number of keys with a partition.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Returns `true` if no partition has been assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Total number of sets assigned over all keys.
    pub fn assigned_sets(&self) -> u32 {
        self.assignments.values().map(|p| p.sets).sum()
    }

    /// Checks that every region of `table` maps to a key with a partition.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnassignedRegion`] naming the first uncovered
    /// region.
    pub fn validate_covers(&self, table: &RegionTable) -> Result<(), CacheError> {
        for region in table.iter() {
            let key = PartitionKey::from_region_kind(region.kind);
            if !self.assignments.contains_key(&key) {
                return Err(CacheError::UnassignedRegion {
                    region: region.id.index(),
                });
            }
        }
        Ok(())
    }
}

/// The set-partitioned shared cache of the paper.
///
/// Construction takes the application's [`RegionTable`] and the OS
/// [`PartitionMap`]; every region must be covered. Accesses are indexed
/// inside the partition of their region's key, so no entity can evict
/// another entity's lines.
#[derive(Debug, Clone)]
pub struct SetPartitionedCache {
    inner: SetAssocCache,
    /// The OS map currently loaded into the controller.
    map: PartitionMap,
    /// Dense map: region index -> (partition, key).
    region_partitions: Vec<(Partition, PartitionKey)>,
    by_partition: StatsByKey<PartitionKey>,
}

impl SetPartitionedCache {
    /// Creates a partitioned cache.
    ///
    /// # Errors
    ///
    /// Returns an error if the partition map does not cover every region of
    /// the table (see [`PartitionMap::validate_covers`]).
    pub fn new(
        config: CacheConfig,
        regions: &RegionTable,
        map: &PartitionMap,
    ) -> Result<Self, CacheError> {
        map.validate_covers(regions)?;
        Ok(SetPartitionedCache {
            inner: SetAssocCache::new(config),
            region_partitions: Self::region_partitions(regions, map),
            map: map.clone(),
            by_partition: StatsByKey::new(),
        })
    }

    /// The dense region-index -> (partition, key) table of a validated map.
    fn region_partitions(
        regions: &RegionTable,
        map: &PartitionMap,
    ) -> Vec<(Partition, PartitionKey)> {
        regions
            .iter()
            .map(|r| {
                let key = PartitionKey::from_region_kind(r.kind);
                let partition = map
                    .partition_for(key)
                    .expect("validated: every region key has a partition");
                (partition, key)
            })
            .collect()
    }

    /// The OS map currently loaded into the controller.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Loads a new OS map into the live cache — the repartition event of
    /// a schedule.
    ///
    /// A key keeps its contents only if its partition is *identical*
    /// (same base set, same size) under both maps: moving or resizing a
    /// partition changes the in-partition index mapping, so its sets are
    /// invalidated wholesale, as are the sets of keys that disappeared.
    /// Dirty invalidated lines are counted as write-backs in the returned
    /// [`FlushStats`]. Invalidated lines do **not** become cold again —
    /// their re-fetches are repartition-induced conflict misses.
    /// Statistics are preserved across the switch.
    ///
    /// # Errors
    ///
    /// Returns an error if the new map's geometry differs from the
    /// cache's or it does not cover every region of `regions`.
    pub fn repartition(
        &mut self,
        regions: &RegionTable,
        map: &PartitionMap,
    ) -> Result<FlushStats, CacheError> {
        if map.geometry() != self.inner.geometry() {
            return Err(CacheError::GeometryMismatch {
                what: "partition map",
                found: map.geometry(),
                expected: self.inner.geometry(),
            });
        }
        map.validate_covers(regions)?;
        let mut stats = FlushStats::default();
        for (key, old) in self.map.iter() {
            if map.partition_for(*key) == Some(*old) {
                continue; // unchanged partition: contents stay valid
            }
            for set in old.base_set..old.end_set() {
                let (invalidated, dirty) = self.inner.flush_set(set);
                stats.invalidated += invalidated;
                stats.written_back += dirty;
            }
        }
        self.region_partitions = Self::region_partitions(regions, map);
        self.map = map.clone();
        Ok(stats)
    }

    /// Per-partition-key statistics (tasks, buffers, shared sections).
    pub fn stats_by_partition(&self) -> &StatsByKey<PartitionKey> {
        &self.by_partition
    }

    /// Counters for one partition key.
    pub fn partition_stats(&self, key: PartitionKey) -> KeyStats {
        self.by_partition.get(&key)
    }

    /// The partition an access of region `region` would be cached in.
    ///
    /// # Panics
    ///
    /// Panics if `region` was not part of the region table given at
    /// construction.
    pub fn partition_of_region(&self, region: RegionId) -> Partition {
        self.region_partitions[region.index()].0
    }
}

impl CacheModel for SetPartitionedCache {
    fn organization(&self) -> &'static str {
        "set-partitioned"
    }

    fn access(&mut self, access: &Access) -> AccessOutcome {
        let (partition, key) = self.region_partitions[access.region.index()];
        let set = partition.index_of(access.addr.line());
        let outcome = self.inner.access_at(set, u64::MAX, access);
        self.by_partition.record(key, outcome.hit);
        outcome
    }

    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn stats_by_task(&self) -> &StatsByKey<TaskId> {
        self.inner.stats_by_task()
    }

    fn stats_by_region(&self) -> &StatsByKey<RegionId> {
        self.inner.stats_by_region()
    }

    fn stats_by_partition(&self) -> Option<&StatsByKey<PartitionKey>> {
        Some(&self.by_partition)
    }

    fn flush(&mut self) -> u64 {
        self.inner.flush()
    }

    fn reconfigure(
        &mut self,
        spec: &OrganizationSpec,
        regions: &RegionTable,
    ) -> Result<FlushStats, CacheError> {
        match spec {
            OrganizationSpec::SetPartitioned(map) => self.repartition(regions, map),
            other => Err(CacheError::ReconfigureUnsupported {
                from: self.organization(),
                to: other.label(),
            }),
        }
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.by_partition = StatsByKey::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::RegionKind;

    fn two_task_table() -> (RegionTable, RegionId, RegionId) {
        let mut table = RegionTable::new();
        let r0 = table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                64 * 1024,
            )
            .unwrap();
        let r1 = table
            .insert(
                "t1.data",
                RegionKind::TaskData {
                    task: TaskId::new(1),
                },
                64 * 1024,
            )
            .unwrap();
        (table, r0, r1)
    }

    fn map_for(geometry: CacheGeometry) -> PartitionMap {
        PartitionMap::pack(
            geometry,
            &[
                (PartitionKey::Task(TaskId::new(0)), 2),
                (PartitionKey::Task(TaskId::new(1)), 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn partition_map_rejects_bad_assignments() {
        let g = CacheGeometry::new(16, 2).unwrap();
        let mut map = PartitionMap::new(g);
        assert!(matches!(
            map.assign(PartitionKey::AppData, 0, 3),
            Err(CacheError::PartitionNotPowerOfTwo { .. })
        ));
        assert!(matches!(
            map.assign(PartitionKey::AppData, 12, 8),
            Err(CacheError::PartitionOutOfRange { .. })
        ));
        map.assign(PartitionKey::AppData, 0, 8).unwrap();
        assert!(matches!(
            map.assign(PartitionKey::AppBss, 4, 4),
            Err(CacheError::PartitionOverlap { .. })
        ));
        // Re-assigning the same key replaces it rather than overlapping.
        map.assign(PartitionKey::AppData, 0, 4).unwrap();
        assert_eq!(map.partition_for(PartitionKey::AppData).unwrap().sets, 4);
    }

    #[test]
    fn uncovered_region_is_rejected_at_construction() {
        let (table, _, _) = two_task_table();
        let g = CacheGeometry::new(16, 2).unwrap();
        let map = PartitionMap::pack(g, &[(PartitionKey::Task(TaskId::new(0)), 2)]).unwrap();
        let err = SetPartitionedCache::new(CacheConfig::new(16, 2).unwrap(), &table, &map);
        assert!(matches!(err, Err(CacheError::UnassignedRegion { .. })));
    }

    #[test]
    fn tasks_do_not_evict_each_other() {
        let (table, r0, r1) = two_task_table();
        let config = CacheConfig::new(16, 2).unwrap();
        let map = map_for(config.geometry());
        let mut cache = SetPartitionedCache::new(config, &table, &map).unwrap();

        let base0 = table.region(r0).base;
        let base1 = table.region(r1).base;
        // Task 0 touches 4 lines (fits in 2 sets * 2 ways), then task 1
        // sweeps a large working set; task 0 must still hit afterwards.
        let t0_lines: Vec<Access> = (0..4)
            .map(|i| Access::load(base0.offset(i * 64), 4, TaskId::new(0), r0))
            .collect();
        for a in &t0_lines {
            cache.access(a);
        }
        for i in 0..1024 {
            let a = Access::load(base1.offset(i * 64), 4, TaskId::new(1), r1);
            cache.access(&a);
        }
        for a in &t0_lines {
            assert!(cache.access(a).hit, "task 1 evicted task 0's line");
        }
        assert_eq!(
            cache
                .partition_stats(PartitionKey::Task(TaskId::new(0)))
                .misses,
            4,
            "only the four cold misses"
        );
    }

    #[test]
    fn partition_indexing_stays_in_range() {
        let (table, r0, _) = two_task_table();
        let config = CacheConfig::new(16, 2).unwrap();
        let map = map_for(config.geometry());
        let cache = SetPartitionedCache::new(config, &table, &map).unwrap();
        let p = cache.partition_of_region(r0);
        for i in 0..100 {
            let set = p.index_of(compmem_trace::LineAddr::new(i * 37));
            assert!(set >= p.base_set && set < p.end_set());
        }
    }

    #[test]
    fn key_derivation_groups_task_sections() {
        let t = TaskId::new(4);
        for kind in [
            RegionKind::TaskCode { task: t },
            RegionKind::TaskData { task: t },
            RegionKind::TaskBss { task: t },
            RegionKind::TaskHeap { task: t },
            RegionKind::TaskStack { task: t },
        ] {
            assert_eq!(PartitionKey::from_region_kind(kind), PartitionKey::Task(t));
        }
        assert_eq!(
            PartitionKey::from_region_kind(RegionKind::Fifo {
                buffer: BufferId::new(2)
            }),
            PartitionKey::Buffer(BufferId::new(2))
        );
        assert_eq!(
            PartitionKey::from_region_kind(RegionKind::RtBss),
            PartitionKey::RtBss
        );
    }

    #[test]
    fn pack_lays_out_back_to_back() {
        let g = CacheGeometry::new(64, 4).unwrap();
        let map = PartitionMap::pack(
            g,
            &[
                (PartitionKey::AppData, 4),
                (PartitionKey::AppBss, 8),
                (PartitionKey::RtData, 16),
            ],
        )
        .unwrap();
        assert_eq!(
            map.partition_for(PartitionKey::AppData).unwrap().base_set,
            0
        );
        assert_eq!(map.partition_for(PartitionKey::AppBss).unwrap().base_set, 4);
        assert_eq!(
            map.partition_for(PartitionKey::RtData).unwrap().base_set,
            12
        );
        assert_eq!(map.assigned_sets(), 28);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn pack_stable_keeps_unchanged_partitions_in_place() {
        let g = CacheGeometry::new(64, 4).unwrap();
        let t = |i| PartitionKey::Task(TaskId::new(i));
        let old = PartitionMap::pack(g, &[(t(0), 8), (t(1), 16), (t(2), 4), (t(3), 8)]).unwrap();
        // Resize only t1 (16 -> 8): everyone else keeps their exact
        // partition, and t1 lands in a free gap.
        let new = PartitionMap::pack_stable(g, &[(t(0), 8), (t(1), 8), (t(2), 4), (t(3), 8)], &old)
            .unwrap();
        for key in [t(0), t(2), t(3)] {
            assert_eq!(new.partition_for(key), old.partition_for(key), "{key}");
        }
        let p1 = new.partition_for(t(1)).unwrap();
        assert_eq!(p1.sets, 8);
        // No overlap with the kept partitions.
        for key in [t(0), t(2), t(3)] {
            assert!(!p1.overlaps(&new.partition_for(key).unwrap()));
        }
        // A dropped key frees its range; a new key can take a gap.
        let with_new =
            PartitionMap::pack_stable(g, &[(t(0), 8), (t(4), 16), (t(3), 8)], &new).unwrap();
        assert_eq!(with_new.partition_for(t(0)), old.partition_for(t(0)));
        assert_eq!(with_new.partition_for(t(3)), old.partition_for(t(3)));
        assert!(with_new.partition_for(t(1)).is_none());
        assert_eq!(with_new.partition_for(t(4)).unwrap().sets, 16);
        // Fragmented gaps that cannot hold a pending request fall back to
        // a full repack rather than failing: kept partitions at [0, 8)
        // and [32, 40) leave two 24-set gaps, neither of which holds the
        // resized 32-set request even though 48 sets are free in total.
        let mut fragmented = PartitionMap::new(g);
        fragmented.assign(t(0), 0, 8).unwrap();
        fragmented.assign(t(1), 32, 8).unwrap();
        fragmented.assign(t(2), 8, 16).unwrap();
        let repacked =
            PartitionMap::pack_stable(g, &[(t(0), 8), (t(1), 8), (t(2), 32)], &fragmented).unwrap();
        assert_eq!(
            repacked,
            PartitionMap::pack(g, &[(t(0), 8), (t(1), 8), (t(2), 32)]).unwrap()
        );
    }

    #[test]
    fn repartition_keeps_unchanged_partitions_and_flushes_moved_ones() {
        let (table, r0, r1) = two_task_table();
        let config = CacheConfig::new(16, 2).unwrap();
        let map = PartitionMap::pack(
            config.geometry(),
            &[
                (PartitionKey::Task(TaskId::new(0)), 2),
                (PartitionKey::Task(TaskId::new(1)), 4),
            ],
        )
        .unwrap();
        let mut cache = SetPartitionedCache::new(config, &table, &map).unwrap();
        let base0 = table.region(r0).base;
        let base1 = table.region(r1).base;
        // Task 0 fills its 2x2 partition (one line dirty); task 1 touches
        // two lines of its own.
        let t0_lines: Vec<Access> = (0..4)
            .map(|i| Access::load(base0.offset(i * 64), 4, TaskId::new(0), r0))
            .collect();
        for a in &t0_lines {
            cache.access(a);
        }
        cache.access(&Access::store(base0, 4, TaskId::new(0), r0));
        let t1_lines: Vec<Access> = (0..2)
            .map(|i| Access::load(base1.offset(i * 64), 4, TaskId::new(1), r1))
            .collect();
        for a in &t1_lines {
            cache.access(a);
        }

        // Task 0 keeps its partition; task 1's is resized: only task 1's
        // lines are invalidated (none dirty).
        let resized = PartitionMap::pack(
            config.geometry(),
            &[
                (PartitionKey::Task(TaskId::new(0)), 2),
                (PartitionKey::Task(TaskId::new(1)), 8),
            ],
        )
        .unwrap();
        let stats = cache.repartition(&table, &resized).unwrap();
        assert_eq!(stats.invalidated, 2);
        assert_eq!(stats.written_back, 0);
        for a in &t0_lines {
            assert!(cache.access(a).hit, "task 0's partition was untouched");
        }
        for a in &t1_lines {
            let out = cache.access(a);
            assert!(out.is_miss(), "task 1's lines were invalidated");
            assert!(!out.cold, "repartition misses are not cold misses");
        }
        assert_eq!(
            cache
                .map()
                .partition_for(PartitionKey::Task(TaskId::new(1)))
                .unwrap()
                .sets,
            8
        );

        // Moving task 0's (dirty) partition counts the write-back.
        let moved = PartitionMap::pack(
            config.geometry(),
            &[
                (PartitionKey::Task(TaskId::new(1)), 8),
                (PartitionKey::Task(TaskId::new(0)), 4),
            ],
        )
        .unwrap();
        let stats = cache.repartition(&table, &moved).unwrap();
        // Both partitions moved: task 0's four lines plus the two task-1
        // lines refilled after the first switch.
        assert_eq!(stats.invalidated, 6);
        assert_eq!(stats.written_back, 1, "only task 0's stored line was dirty");
        // Statistics survived both switches.
        assert!(cache.stats().accesses > 0);
        assert!(
            cache
                .partition_stats(PartitionKey::Task(TaskId::new(0)))
                .accesses
                > 0
        );
    }

    #[test]
    fn identical_repartition_flushes_nothing() {
        let (table, r0, _) = two_task_table();
        let config = CacheConfig::new(16, 2).unwrap();
        let map = map_for(config.geometry());
        let mut cache = SetPartitionedCache::new(config, &table, &map).unwrap();
        let base0 = table.region(r0).base;
        let a = Access::load(base0, 4, TaskId::new(0), r0);
        cache.access(&a);
        let stats = cache.repartition(&table, &map).unwrap();
        assert_eq!(stats, FlushStats::default());
        assert!(cache.access(&a).hit);
    }

    #[test]
    fn repartition_validates_geometry_and_coverage() {
        let (table, _, _) = two_task_table();
        let config = CacheConfig::new(16, 2).unwrap();
        let map = map_for(config.geometry());
        let mut cache = SetPartitionedCache::new(config, &table, &map).unwrap();
        let wrong_geometry = PartitionMap::pack(
            CacheGeometry::new(32, 2).unwrap(),
            &[
                (PartitionKey::Task(TaskId::new(0)), 2),
                (PartitionKey::Task(TaskId::new(1)), 2),
            ],
        )
        .unwrap();
        assert!(matches!(
            cache.repartition(&table, &wrong_geometry),
            Err(CacheError::GeometryMismatch { .. })
        ));
        let uncovered = PartitionMap::pack(
            config.geometry(),
            &[(PartitionKey::Task(TaskId::new(0)), 2)],
        )
        .unwrap();
        assert!(matches!(
            cache.repartition(&table, &uncovered),
            Err(CacheError::UnassignedRegion { .. })
        ));
        // Failed repartitions leave the loaded map untouched.
        assert_eq!(cache.map(), &map);
    }

    #[test]
    fn reconfigure_goes_through_the_trait_object() {
        let (table, _, _) = two_task_table();
        let config = CacheConfig::new(16, 2).unwrap();
        let map = map_for(config.geometry());
        let mut cache: Box<dyn CacheModel> =
            Box::new(SetPartitionedCache::new(config, &table, &map).unwrap());
        let stats = cache
            .reconfigure(&OrganizationSpec::SetPartitioned(map), &table)
            .unwrap();
        assert_eq!(stats, FlushStats::default());
        assert!(matches!(
            cache.reconfigure(&OrganizationSpec::Shared, &table),
            Err(CacheError::ReconfigureUnsupported {
                from: "set-partitioned",
                to: "shared"
            })
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PartitionKey::Task(TaskId::new(2)).to_string(), "task T2");
        assert_eq!(
            Partition {
                base_set: 4,
                sets: 8
            }
            .to_string(),
            "sets [4, 12)"
        );
    }
}
