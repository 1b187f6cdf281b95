//! Miss-vs-cache-size profiling: the `m_i(S_k)` inputs of the paper's ILP.
//!
//! The paper obtains, for every task, the number of misses as a function of
//! the exclusively allocated cache size "by simulation or program analysis".
//! The reproduction measures them in one pass with the
//! [`StackDistanceProfiler`](crate::StackDistanceProfiler); this module
//! holds the allocation-unit [`CacheSizeLattice`], the per-key
//! [`MissProfiles`] the optimiser consumes, and [`per_size_profiles`],
//! the by-simulation reference the profiler is tested against.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use compmem_trace::{Access, RegionTable};

use crate::cache::SetAssocCache;
use crate::config::CacheConfig;
use crate::geometry::CacheGeometry;
use crate::partition::PartitionKey;

/// The allocation-unit lattice: partition sizes are multiples of a fixed
/// number of sets, restricted to powers of two, exactly as in §3.2 of the
/// paper ("due to implementation reasons `z_k` can be limited to powers of
/// two").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSizeLattice {
    /// Sets per allocation unit.
    pub sets_per_unit: u32,
    /// Total number of allocation units in the cache.
    pub total_units: u32,
    /// Candidate unit counts (powers of two).
    pub candidate_units: Vec<u32>,
}

impl CacheSizeLattice {
    /// Builds the lattice for a cache geometry and a unit size in sets.
    ///
    /// Candidate sizes are the powers of two from one unit up to half the
    /// cache (no single entity may monopolise the whole cache).
    ///
    /// # Panics
    ///
    /// Panics if `sets_per_unit` is zero, not a power of two, or larger than
    /// the cache.
    pub fn new(geometry: CacheGeometry, sets_per_unit: u32) -> Self {
        assert!(
            sets_per_unit > 0
                && sets_per_unit.is_power_of_two()
                && sets_per_unit <= geometry.sets(),
            "sets per unit must be a power of two no larger than the cache"
        );
        let total_units = geometry.sets() / sets_per_unit;
        let max_candidate = (total_units / 2).max(1);
        let mut candidate_units = Vec::new();
        let mut u = 1;
        while u <= max_candidate {
            candidate_units.push(u);
            u *= 2;
        }
        CacheSizeLattice {
            sets_per_unit,
            total_units,
            candidate_units,
        }
    }

    /// The paper's configuration: 512 KB 4-way L2 (2048 sets) divided into
    /// 128 units of 16 sets (4 KB per unit).
    pub fn paper_default() -> Self {
        Self::new(CacheConfig::paper_l2().geometry(), 16)
    }

    /// Bytes per allocation unit for a given geometry.
    pub fn unit_bytes(&self, geometry: CacheGeometry) -> u64 {
        u64::from(self.sets_per_unit) * u64::from(geometry.ways()) * geometry.line_size()
    }

    /// Number of sets of `units` allocation units.
    pub fn sets_of(&self, units: u32) -> u32 {
        units * self.sets_per_unit
    }

    /// The smallest candidate size (in units) whose byte capacity is at
    /// least `bytes` (used to pin FIFO partitions to the FIFO size).
    pub fn units_for_bytes(&self, geometry: CacheGeometry, bytes: u64) -> u32 {
        let unit_bytes = self.unit_bytes(geometry);
        let needed = bytes.div_ceil(unit_bytes).max(1) as u32;
        needed
            .next_power_of_two()
            .min(*self.candidate_units.last().unwrap_or(&1))
    }
}

/// The miss profile of one partition key: misses as a function of the number
/// of exclusively allocated units.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissProfile {
    /// L2 accesses of the entity during the profiling run.
    pub accesses: u64,
    /// Misses for each candidate unit count.
    pub misses_by_units: BTreeMap<u32, u64>,
}

impl MissProfile {
    /// Misses with `units` allocated units.
    ///
    /// For unit counts between candidates the next smaller candidate is
    /// used (conservative).
    pub fn misses_at(&self, units: u32) -> u64 {
        self.misses_by_units
            .range(..=units)
            .next_back()
            .map(|(_, &m)| m)
            .or_else(|| self.misses_by_units.values().next().copied())
            .unwrap_or(0)
    }

    /// Miss reduction obtained by growing the partition from `from` units to
    /// `to` units.
    pub fn gain(&self, from: u32, to: u32) -> u64 {
        self.misses_at(from).saturating_sub(self.misses_at(to))
    }

    /// Predicted miss rate (misses over the entity's profiled L2-bound
    /// accesses) with `units` allocated units. Zero for an entity that
    /// never reached the L2 — the denominator a QoS floor is stated
    /// against.
    pub fn miss_rate_at(&self, units: u32) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses_at(units) as f64 / self.accesses as f64
        }
    }
}

/// Profiles of every partition key observed during a profiling run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissProfiles {
    /// Per-key profiles.
    pub profiles: BTreeMap<PartitionKey, MissProfile>,
    /// The lattice the profiles were measured on.
    pub lattice_units: Vec<u32>,
}

impl MissProfiles {
    /// Profile of one key, if it generated any L2 traffic.
    pub fn profile(&self, key: PartitionKey) -> Option<&MissProfile> {
        self.profiles.get(&key)
    }

    /// All keys with a profile, in deterministic order.
    pub fn keys(&self) -> Vec<PartitionKey> {
        self.profiles.keys().copied().collect()
    }

    /// Total misses over all keys for a given per-key allocation (keys
    /// absent from `units` contribute their smallest-size misses).
    pub fn total_misses(&self, units: &BTreeMap<PartitionKey, u32>) -> u64 {
        self.profiles
            .iter()
            .map(|(key, p)| p.misses_at(units.get(key).copied().unwrap_or(1)))
            .sum()
    }
}

/// The reference miss profiles: every key's accesses, alone, through one
/// plain LRU [`SetAssocCache`] of `ways` ways per lattice size.
///
/// Under exclusive set partitioning no other key touches a key's sets, so
/// the `S_k`-set cache sees exactly the misses the key would have in an
/// `S_k`-set partition. This is exact by construction, at the price of
/// one simulation per key and size. Feed it the L2-bound stream (the L1
/// refills) in issue order.
pub fn per_size_profiles<'a>(
    accesses: impl IntoIterator<Item = &'a Access>,
    regions: &RegionTable,
    lattice: &CacheSizeLattice,
    ways: u32,
) -> MissProfiles {
    let mut banks: BTreeMap<PartitionKey, (u64, Vec<SetAssocCache>)> = BTreeMap::new();
    for access in accesses {
        let key = PartitionKey::from_region_kind(regions.region(access.region).kind);
        let (count, caches) = banks.entry(key).or_insert_with(|| {
            let caches = lattice
                .candidate_units
                .iter()
                .map(|&units| {
                    SetAssocCache::new(
                        CacheConfig::new(lattice.sets_of(units), ways)
                            .expect("lattice sizes are powers of two"),
                    )
                })
                .collect();
            (0, caches)
        });
        *count += 1;
        for cache in caches {
            cache.access(access);
        }
    }
    let profiles = banks
        .into_iter()
        .map(|(key, (accesses, caches))| {
            let misses_by_units = lattice
                .candidate_units
                .iter()
                .zip(&caches)
                .map(|(&units, cache)| (units, cache.stats().misses))
                .collect();
            let profile = MissProfile {
                accesses,
                misses_by_units,
            };
            (key, profile)
        })
        .collect();
    MissProfiles {
        profiles,
        lattice_units: lattice.candidate_units.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::{RegionId, RegionKind, TaskId};

    fn region_table() -> RegionTable {
        let mut t = RegionTable::new();
        t.insert(
            "t0.data",
            RegionKind::TaskData {
                task: TaskId::new(0),
            },
            256 * 1024,
        )
        .unwrap();
        t.insert(
            "t1.data",
            RegionKind::TaskData {
                task: TaskId::new(1),
            },
            256 * 1024,
        )
        .unwrap();
        t
    }

    #[test]
    fn lattice_of_the_paper() {
        let lattice = CacheSizeLattice::paper_default();
        assert_eq!(lattice.total_units, 128);
        assert_eq!(lattice.sets_per_unit, 16);
        assert_eq!(lattice.candidate_units, vec![1, 2, 4, 8, 16, 32, 64]);
        let geometry = CacheConfig::paper_l2().geometry();
        assert_eq!(lattice.unit_bytes(geometry), 4096);
        assert_eq!(lattice.units_for_bytes(geometry, 1), 1);
        assert_eq!(lattice.units_for_bytes(geometry, 4096), 1);
        assert_eq!(lattice.units_for_bytes(geometry, 4097), 2);
        assert_eq!(lattice.units_for_bytes(geometry, 20_000), 8);
    }

    #[test]
    fn profile_lookup_uses_next_smaller_candidate() {
        let mut profile = MissProfile::default();
        profile.misses_by_units.insert(1, 100);
        profile.misses_by_units.insert(4, 40);
        profile.misses_by_units.insert(16, 10);
        assert_eq!(profile.misses_at(1), 100);
        assert_eq!(profile.misses_at(2), 100);
        assert_eq!(profile.misses_at(4), 40);
        assert_eq!(profile.misses_at(10), 40);
        assert_eq!(profile.misses_at(64), 10);
        assert_eq!(profile.gain(1, 16), 90);
    }

    #[test]
    fn shadow_caches_measure_per_entity_working_sets() {
        let regions = region_table();
        let lattice = CacheSizeLattice::new(CacheConfig::new(256, 4).unwrap().geometry(), 16);
        // Task 0 loops over a 32 KB working set (8 units of 4 KB), task 1
        // over 8 KB (2 units); both repeat their sweep four times.
        let t0_base = regions.region(RegionId::new(0)).base;
        let t1_base = regions.region(RegionId::new(1)).base;
        let mut accesses = Vec::new();
        for _round in 0..4 {
            for line in 0..(32 * 1024 / 64) {
                let a = Access::load(
                    t0_base.offset(line * 64),
                    4,
                    TaskId::new(0),
                    RegionId::new(0),
                );
                accesses.push(a);
            }
            for line in 0..(8 * 1024 / 64) {
                let a = Access::load(
                    t1_base.offset(line * 64),
                    4,
                    TaskId::new(1),
                    RegionId::new(1),
                );
                accesses.push(a);
            }
        }
        let profiles = per_size_profiles(&accesses, &regions, &lattice, 4);
        let p0 = profiles
            .profile(PartitionKey::Task(TaskId::new(0)))
            .unwrap();
        let p1 = profiles
            .profile(PartitionKey::Task(TaskId::new(1)))
            .unwrap();
        // With a partition at least as large as the working set only the
        // cold misses remain; with a smaller partition the LRU sweep misses
        // every time.
        assert_eq!(p0.misses_at(8), 512);
        assert_eq!(p0.misses_at(4), 4 * 512);
        assert_eq!(p1.misses_at(2), 128);
        assert_eq!(p1.misses_at(1), 4 * 128);
        assert_eq!(p0.accesses, 4 * 512);
        assert_eq!(profiles.lattice_units, lattice.candidate_units);
        // The total-misses helper combines per-key lookups.
        let mut alloc = BTreeMap::new();
        alloc.insert(PartitionKey::Task(TaskId::new(0)), 8);
        alloc.insert(PartitionKey::Task(TaskId::new(1)), 2);
        assert_eq!(profiles.total_misses(&alloc), 512 + 128);
    }
}
