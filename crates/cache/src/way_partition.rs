//! Way-partitioned (column-caching) baseline.
//!
//! The related work the paper compares against (Suh et al., Stone et al.)
//! partitions the cache by *ways*: every key is restricted to a subset of
//! the ways of every set. Section 2 of the paper argues that this severely
//! restricts the allocation granularity — a 4-way cache can only be divided
//! into at most four exclusive partitions, and the smallest possible
//! partition is a quarter of the cache. This module implements that scheme
//! so the ablation experiment (E6 of DESIGN.md) can quantify the argument.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use compmem_trace::{Access, RegionId, RegionTable, TaskId};

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::geometry::CacheGeometry;
use crate::model::CacheModel;
use crate::partition::PartitionKey;
use crate::schedule::FlushStats;
use crate::spec::OrganizationSpec;
use crate::stats::{CacheStats, StatsByKey};

/// Assignment of way masks to partition keys.
///
/// ```
/// use compmem_cache::{CacheGeometry, PartitionKey, WayAllocation};
/// use compmem_trace::TaskId;
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// let geometry = CacheGeometry::new(128, 4)?;
/// let mut alloc = WayAllocation::new(geometry);
/// alloc.assign(PartitionKey::Task(TaskId::new(0)), 0b0011)?;
/// alloc.assign(PartitionKey::Task(TaskId::new(1)), 0b1100)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WayAllocation {
    geometry: CacheGeometry,
    masks: BTreeMap<PartitionKey, u64>,
}

impl WayAllocation {
    /// Creates an empty allocation for a cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        WayAllocation {
            geometry,
            masks: BTreeMap::new(),
        }
    }

    /// Geometry the allocation was built for.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Iterates over `(key, mask)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PartitionKey, &u64)> {
        self.masks.iter()
    }

    /// Assigns the ways selected by `mask` to `key`.
    ///
    /// Masks of different keys may overlap (shared ways), as in dynamic
    /// column caching.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidWayMask`] if the mask is zero or selects
    /// ways beyond the associativity.
    pub fn assign(&mut self, key: PartitionKey, mask: u64) -> Result<(), CacheError> {
        let ways = self.geometry.ways();
        let valid = if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        };
        if mask == 0 || mask & !valid != 0 {
            return Err(CacheError::InvalidWayMask { mask, ways });
        }
        self.masks.insert(key, mask);
        Ok(())
    }

    /// Splits the ways as evenly as possible over `keys`, in order, giving
    /// each key at least one way. With more keys than ways the ways are
    /// shared round-robin (which is exactly the granularity problem §2 of
    /// the paper points out).
    pub fn equal_split(geometry: CacheGeometry, keys: &[PartitionKey]) -> Self {
        let mut alloc = WayAllocation::new(geometry);
        if keys.is_empty() {
            return alloc;
        }
        let ways = geometry.ways() as usize;
        for (i, &key) in keys.iter().enumerate() {
            let mask = if keys.len() <= ways {
                // Contiguous chunk of ways for each key.
                let per = ways / keys.len();
                let extra = ways % keys.len();
                let start = i * per + i.min(extra);
                let count = per + usize::from(i < extra);
                ((1u64 << count) - 1) << start
            } else {
                // More keys than ways: each key gets a single (shared) way.
                1u64 << (i % ways)
            };
            alloc
                .assign(key, mask)
                .expect("constructed masks are valid");
        }
        alloc
    }

    /// Returns the mask assigned to `key`, if any.
    pub fn mask_for(&self, key: PartitionKey) -> Option<u64> {
        self.masks.get(&key).copied()
    }

    /// Number of keys with an assigned mask.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Returns `true` if no mask has been assigned.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Checks that every region of `table` maps to a key with a mask.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnassignedRegion`] naming the first uncovered
    /// region.
    pub fn validate_covers(&self, table: &RegionTable) -> Result<(), CacheError> {
        for region in table.iter() {
            let key = PartitionKey::from_region_kind(region.kind);
            if !self.masks.contains_key(&key) {
                return Err(CacheError::UnassignedRegion {
                    region: region.id.index(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for WayAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "way allocation ({} ways):", self.geometry.ways())?;
        for (key, mask) in &self.masks {
            writeln!(f, "  {key}: {mask:#06b}")?;
        }
        Ok(())
    }
}

/// Column-caching organisation: conventional set indexing, but fills and
/// evictions of each key are restricted to its assigned ways.
#[derive(Debug, Clone)]
pub struct WayPartitionedCache {
    inner: SetAssocCache,
    /// The allocation currently loaded into the controller.
    allocation: WayAllocation,
    region_masks: Vec<(u64, PartitionKey)>,
    by_partition: StatsByKey<PartitionKey>,
}

impl WayPartitionedCache {
    /// Creates a way-partitioned cache.
    ///
    /// # Errors
    ///
    /// Returns an error if the allocation does not cover every region of the
    /// table.
    pub fn new(
        config: CacheConfig,
        regions: &RegionTable,
        allocation: &WayAllocation,
    ) -> Result<Self, CacheError> {
        allocation.validate_covers(regions)?;
        Ok(WayPartitionedCache {
            inner: SetAssocCache::new(config),
            region_masks: Self::region_masks(regions, allocation),
            allocation: allocation.clone(),
            by_partition: StatsByKey::new(),
        })
    }

    /// The dense region-index -> (mask, key) table of a validated
    /// allocation.
    fn region_masks(regions: &RegionTable, allocation: &WayAllocation) -> Vec<(u64, PartitionKey)> {
        regions
            .iter()
            .map(|r| {
                let key = PartitionKey::from_region_kind(r.kind);
                let mask = allocation
                    .mask_for(key)
                    .expect("validated: every region key has a mask");
                (mask, key)
            })
            .collect()
    }

    /// The allocation currently loaded into the controller.
    pub fn allocation(&self) -> &WayAllocation {
        &self.allocation
    }

    /// Per-partition-key statistics.
    pub fn stats_by_partition(&self) -> &StatsByKey<PartitionKey> {
        &self.by_partition
    }

    /// Loads a new way allocation into the live cache — the column-caching
    /// analogue of
    /// [`SetPartitionedCache::repartition`](crate::SetPartitionedCache::repartition).
    ///
    /// A way's *owner set* is the set of keys whose mask selects it. Every
    /// way whose owner set changes is invalidated across all sets (its
    /// resident lines belong to the old owners); ways owned by exactly
    /// the same keys keep their contents. Dirty invalidated lines are
    /// counted as write-backs. Invalidated lines do not become cold
    /// again, and statistics are preserved across the switch.
    ///
    /// # Errors
    ///
    /// Returns an error if the new allocation's geometry differs from the
    /// cache's or it does not cover every region of `regions`.
    pub fn reallocate(
        &mut self,
        regions: &RegionTable,
        allocation: &WayAllocation,
    ) -> Result<FlushStats, CacheError> {
        if allocation.geometry() != self.inner.geometry() {
            return Err(CacheError::GeometryMismatch {
                what: "way allocation",
                found: allocation.geometry(),
                expected: self.inner.geometry(),
            });
        }
        allocation.validate_covers(regions)?;
        // Owner sets per way, old and new, as sorted key lists.
        let ways = self.inner.geometry().ways();
        let owners = |alloc: &WayAllocation, way: u32| -> Vec<PartitionKey> {
            alloc
                .iter()
                .filter(|(_, mask)| *mask & (1 << way) != 0)
                .map(|(key, _)| *key)
                .collect()
        };
        let mut changed = 0u64;
        for way in 0..ways {
            if owners(&self.allocation, way) != owners(allocation, way) {
                changed |= 1 << way;
            }
        }
        let (invalidated, written_back) = if changed == 0 {
            (0, 0)
        } else {
            self.inner.flush_ways(changed)
        };
        self.region_masks = Self::region_masks(regions, allocation);
        self.allocation = allocation.clone();
        Ok(FlushStats {
            invalidated,
            written_back,
        })
    }
}

impl CacheModel for WayPartitionedCache {
    fn organization(&self) -> &'static str {
        "way-partitioned"
    }

    fn access(&mut self, access: &Access) -> AccessOutcome {
        let (mask, key) = self.region_masks[access.region.index()];
        let set = self.inner.geometry().index_of(access.addr.line());
        let outcome = self.inner.access_at(set, mask, access);
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
            OrganizationSpec::WayPartitioned(allocation) => self.reallocate(regions, allocation),
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

    #[test]
    fn mask_validation() {
        let g = CacheGeometry::new(16, 4).unwrap();
        let mut alloc = WayAllocation::new(g);
        assert!(matches!(
            alloc.assign(PartitionKey::AppData, 0),
            Err(CacheError::InvalidWayMask { .. })
        ));
        assert!(matches!(
            alloc.assign(PartitionKey::AppData, 0b10000),
            Err(CacheError::InvalidWayMask { .. })
        ));
        alloc.assign(PartitionKey::AppData, 0b1010).unwrap();
        assert_eq!(alloc.mask_for(PartitionKey::AppData), Some(0b1010));
    }

    #[test]
    fn equal_split_covers_all_ways_disjointly_when_possible() {
        let g = CacheGeometry::new(16, 4).unwrap();
        let keys = [
            PartitionKey::Task(TaskId::new(0)),
            PartitionKey::Task(TaskId::new(1)),
        ];
        let alloc = WayAllocation::equal_split(g, &keys);
        let m0 = alloc.mask_for(keys[0]).unwrap();
        let m1 = alloc.mask_for(keys[1]).unwrap();
        assert_eq!(m0 & m1, 0);
        assert_eq!(m0 | m1, 0b1111);
    }

    #[test]
    fn equal_split_shares_ways_when_keys_exceed_associativity() {
        let g = CacheGeometry::new(16, 2).unwrap();
        let keys: Vec<_> = (0..5).map(|i| PartitionKey::Task(TaskId::new(i))).collect();
        let alloc = WayAllocation::equal_split(g, &keys);
        for k in &keys {
            let m = alloc.mask_for(*k).unwrap();
            assert_eq!(m.count_ones(), 1);
        }
        // With 5 keys over 2 ways some keys must share a way.
        let distinct: std::collections::BTreeSet<u64> =
            keys.iter().map(|k| alloc.mask_for(*k).unwrap()).collect();
        assert!(distinct.len() <= 2);
    }

    #[test]
    fn disjoint_ways_isolate_tasks() {
        let (table, r0, r1) = two_task_table();
        let config = CacheConfig::new(16, 4).unwrap();
        let alloc = WayAllocation::equal_split(
            config.geometry(),
            &[
                PartitionKey::Task(TaskId::new(0)),
                PartitionKey::Task(TaskId::new(1)),
            ],
        );
        let mut cache = WayPartitionedCache::new(config, &table, &alloc).unwrap();
        let base0 = table.region(r0).base;
        let base1 = table.region(r1).base;
        // Task 0 fills its two ways of set 0 (lines 0 and 16 both map to set
        // 0 of a 16-set cache).
        let t0 = [
            Access::load(base0, 4, TaskId::new(0), r0),
            Access::load(base0.offset(16 * 64), 4, TaskId::new(0), r0),
        ];
        for a in &t0 {
            cache.access(a);
        }
        // Task 1 thrashes the same sets heavily.
        for i in 0..512 {
            let a = Access::load(base1.offset(i * 64), 4, TaskId::new(1), r1);
            cache.access(&a);
        }
        for a in &t0 {
            assert!(cache.access(a).hit, "task 1 stole a way from task 0");
        }
    }

    #[test]
    fn uncovered_region_rejected() {
        let (table, _, _) = two_task_table();
        let config = CacheConfig::new(16, 4).unwrap();
        let mut alloc = WayAllocation::new(config.geometry());
        alloc
            .assign(PartitionKey::Task(TaskId::new(0)), 0b0011)
            .unwrap();
        assert!(matches!(
            WayPartitionedCache::new(config, &table, &alloc),
            Err(CacheError::UnassignedRegion { .. })
        ));
    }

    #[test]
    fn reallocate_flushes_only_ways_that_change_owners() {
        let (table, r0, r1) = two_task_table();
        let config = CacheConfig::new(16, 4).unwrap();
        let keys = [
            PartitionKey::Task(TaskId::new(0)),
            PartitionKey::Task(TaskId::new(1)),
        ];
        let mut old = WayAllocation::new(config.geometry());
        old.assign(keys[0], 0b0011).unwrap();
        old.assign(keys[1], 0b1100).unwrap();
        let mut cache = WayPartitionedCache::new(config, &table, &old).unwrap();
        let base0 = table.region(r0).base;
        let base1 = table.region(r1).base;
        // Task 0 fills its two ways of set 0 (one dirty); task 1 fills its
        // two ways of set 0.
        cache.access(&Access::store(base0, 4, TaskId::new(0), r0));
        cache.access(&Access::load(base0.offset(16 * 64), 4, TaskId::new(0), r0));
        let t1 = [
            Access::load(base1, 4, TaskId::new(1), r1),
            Access::load(base1.offset(16 * 64), 4, TaskId::new(1), r1),
        ];
        for a in &t1 {
            cache.access(a);
        }

        // Task 0 gives way 1 to task 1: ways 1 and 2..3 change owners
        // (way 0 stays task 0's alone). Wait — way 1 moves from {t0} to
        // {t1}, ways 2-3 stay {t1}: flushed ways are exactly way 1.
        let mut new = WayAllocation::new(config.geometry());
        new.assign(keys[0], 0b0001).unwrap();
        new.assign(keys[1], 0b1110).unwrap();
        let stats = cache.reallocate(&table, &new).unwrap();
        // Only way 1's resident lines were invalidated (at most one per
        // set was filled here).
        assert!(stats.invalidated >= 1);
        assert!(stats.invalidated <= 2);
        for a in &t1 {
            assert!(cache.access(a).hit, "task 1's ways 2-3 were untouched");
        }
        assert_eq!(cache.allocation().mask_for(keys[0]), Some(0b0001));

        // An identical reallocation flushes nothing.
        let stats = cache.reallocate(&table, &new).unwrap();
        assert_eq!(stats, FlushStats::default());

        // Validation failures leave the allocation untouched.
        let uncovered = {
            let mut a = WayAllocation::new(config.geometry());
            a.assign(keys[0], 0b0001).unwrap();
            a
        };
        assert!(matches!(
            cache.reallocate(&table, &uncovered),
            Err(CacheError::UnassignedRegion { .. })
        ));
        assert_eq!(cache.allocation(), &new);
    }

    #[test]
    fn display_lists_masks() {
        let g = CacheGeometry::new(16, 4).unwrap();
        let mut alloc = WayAllocation::new(g);
        alloc.assign(PartitionKey::RtData, 0b0001).unwrap();
        let s = alloc.to_string();
        assert!(s.contains("rt.data"));
        assert!(s.contains("0b0001"));
    }
}
