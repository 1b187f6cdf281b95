//! The object-safe [`CacheModel`] trait and the conventional shared-cache
//! baseline.
//!
//! # The unified cache layer
//!
//! The paper compares one application over three interchangeable L2
//! organisations — conventional shared, set-partitioned and
//! way-partitioned (column caching). `CacheModel` is the single interface
//! all three implement; it is **object safe**, so the multiprocessor
//! platform holds a `Box<dyn CacheModel>` and an organisation can be
//! chosen at run time (for example from an
//! [`OrganizationSpec`](crate::OrganizationSpec)) rather than
//! monomorphised into a separate simulator per organisation. One
//! timing path — L1 → bus arbitration → L2 → DRAM — therefore serves every
//! experiment, and independent runs can be farmed out across threads
//! (`CacheModel: Send`).
//!
//! Beyond per-access behaviour the trait standardises *observation*:
//! aggregate statistics, per-task / per-region / per-partition attribution,
//! a uniform [`CacheSnapshot`] for golden comparisons, and `reset`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use compmem_trace::{Access, RegionId, RegionTable, TaskId};

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::geometry::CacheGeometry;
use crate::partition::PartitionKey;
use crate::schedule::FlushStats;
use crate::spec::OrganizationSpec;
use crate::stats::{CacheStats, KeyStats, StatsByKey};

/// A uniform, organisation-independent view of a cache's counters.
///
/// Snapshots are plain data (no references into the model), so they can be
/// compared across organisations, across runs and across threads; the
/// golden-parity tests assert byte-identical snapshots between the
/// `Box<dyn CacheModel>` path and direct construction of each concrete
/// organisation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Name of the organisation that produced the snapshot.
    pub organization: String,
    /// Aggregate statistics.
    pub aggregate: CacheStats,
    /// Per-task statistics.
    pub by_task: BTreeMap<TaskId, KeyStats>,
    /// Per-region statistics.
    pub by_region: BTreeMap<RegionId, KeyStats>,
    /// Per-partition-key statistics (empty for organisations that do not
    /// attribute accesses to partitions, e.g. the shared baseline).
    pub by_partition: BTreeMap<PartitionKey, KeyStats>,
}

/// An interchangeable L2 cache organisation.
///
/// Implementations: [`SharedCache`] (the paper's baseline),
/// [`SetPartitionedCache`](crate::SetPartitionedCache) (the paper's
/// proposal) and [`WayPartitionedCache`](crate::WayPartitionedCache) (the
/// column-caching related work).
///
/// The trait is object safe and `Send`; the platform's memory hierarchy
/// stores a `Box<dyn CacheModel>` and never needs to know which
/// organisation it is driving.
pub trait CacheModel: Send + std::fmt::Debug {
    /// Short name of the organisation (`"shared"`, `"set-partitioned"`,
    /// `"way-partitioned"`).
    fn organization(&self) -> &'static str;

    /// Performs one access and returns its outcome.
    fn access(&mut self, access: &Access) -> AccessOutcome;

    /// Geometry of the underlying cache.
    fn geometry(&self) -> CacheGeometry;

    /// Aggregate statistics.
    fn stats(&self) -> &CacheStats;

    /// Per-task statistics.
    fn stats_by_task(&self) -> &StatsByKey<TaskId>;

    /// Per-region statistics.
    fn stats_by_region(&self) -> &StatsByKey<RegionId>;

    /// Per-partition-key statistics, for organisations that attribute
    /// accesses to partitions (the default is `None`).
    fn stats_by_partition(&self) -> Option<&StatsByKey<PartitionKey>> {
        None
    }

    /// Invalidates the cache contents, returning the number of dirty lines.
    fn flush(&mut self) -> u64;

    /// Applies a new organisation to the **live** cache — the repartition
    /// event of a [`PartitionSchedule`](crate::PartitionSchedule).
    ///
    /// Reconfiguration is like-for-like: a set-partitioned cache takes a
    /// new `PartitionMap`, a way-partitioned cache a new `WayAllocation`,
    /// and the shared baseline only its own (no-op) spec. Lines whose
    /// set/way ownership changes are invalidated; the returned
    /// [`FlushStats`] counts them (and the dirty ones among them, which
    /// the platform charges as bus/DRAM write-back traffic). Statistics
    /// are never reset — the run's counters keep accumulating across the
    /// switch.
    ///
    /// # Errors
    ///
    /// [`CacheError::ReconfigureUnsupported`] if `spec` names another
    /// organisation, and the map's or allocation's coverage error if it
    /// does not fit the cache.
    fn reconfigure(
        &mut self,
        spec: &OrganizationSpec,
        regions: &RegionTable,
    ) -> Result<FlushStats, CacheError>;

    /// Clears statistics without touching contents.
    fn reset_stats(&mut self);

    /// Captures an organisation-independent copy of every counter.
    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            organization: self.organization().to_string(),
            aggregate: *self.stats(),
            by_task: self.stats_by_task().iter().map(|(k, v)| (*k, *v)).collect(),
            by_region: self
                .stats_by_region()
                .iter()
                .map(|(k, v)| (*k, *v))
                .collect(),
            by_partition: self
                .stats_by_partition()
                .map(|s| s.iter().map(|(k, v)| (*k, *v)).collect())
                .unwrap_or_default(),
        }
    }
}

/// The baseline of the paper: a conventional shared cache in which every
/// task indexes every set, so tasks evict each other unpredictably.
#[derive(Debug, Clone)]
pub struct SharedCache {
    inner: SetAssocCache,
}

impl SharedCache {
    /// Creates a shared cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        SharedCache {
            inner: SetAssocCache::new(config),
        }
    }
}

impl CacheModel for SharedCache {
    fn organization(&self) -> &'static str {
        "shared"
    }

    fn access(&mut self, access: &Access) -> AccessOutcome {
        self.inner.access(access)
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

    fn flush(&mut self) -> u64 {
        self.inner.flush()
    }

    fn reconfigure(
        &mut self,
        spec: &OrganizationSpec,
        _regions: &RegionTable,
    ) -> Result<FlushStats, CacheError> {
        // A shared cache has no partition state: the only organisation it
        // can "switch" to is itself, and doing so touches nothing.
        match spec {
            OrganizationSpec::Shared => Ok(FlushStats::default()),
            other => Err(CacheError::ReconfigureUnsupported {
                from: self.organization(),
                to: other.label(),
            }),
        }
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::Addr;

    #[test]
    fn tasks_interfere_in_a_shared_cache() {
        // Two tasks alternately touching working sets that each fit in the
        // cache but together do not: every access misses after warmup.
        let mut cache = SharedCache::new(CacheConfig::new(4, 1).unwrap());
        let lines_per_ws = 4;
        let mut accesses = Vec::new();
        for round in 0..8 {
            for i in 0..lines_per_ws {
                // Task 0 at base 0, task 1 at base 16 KiB; both map onto the
                // same 4 sets of the tiny cache.
                for (task, base) in [(0u32, 0u64), (1, 16 * 1024)] {
                    accesses.push(Access::load(
                        Addr::new(base + i * 64),
                        4,
                        TaskId::new(task),
                        RegionId::new(task),
                    ));
                }
            }
            let _ = round;
        }
        for a in &accesses {
            cache.access(a);
        }
        let stats = cache.stats();
        // With both tasks thrashing the same sets, far more than the cold
        // misses occur.
        assert_eq!(stats.cold_misses, 8);
        assert!(
            stats.misses > stats.cold_misses * 4,
            "expected heavy inter-task conflict, got {stats:?}"
        );
        assert_eq!(
            cache.stats_by_task().get(&TaskId::new(0)).accesses,
            cache.stats_by_task().get(&TaskId::new(1)).accesses
        );
    }

    #[test]
    fn trait_object_usable() {
        let mut cache: Box<dyn CacheModel> =
            Box::new(SharedCache::new(CacheConfig::new(4, 2).unwrap()));
        let a = Access::load(Addr::new(0), 4, TaskId::new(0), RegionId::new(0));
        assert!(cache.access(&a).is_miss());
        assert!(cache.access(&a).hit);
        assert_eq!(cache.geometry().sets(), 4);
        assert_eq!(cache.organization(), "shared");
        assert!(cache.stats_by_partition().is_none());
        cache.reset_stats();
        assert_eq!(cache.stats().accesses, 0);
        assert_eq!(cache.flush(), 0);
    }

    #[test]
    fn snapshot_captures_all_counters() {
        let mut cache = SharedCache::new(CacheConfig::new(4, 2).unwrap());
        let a = Access::load(Addr::new(0), 4, TaskId::new(3), RegionId::new(7));
        cache.access(&a);
        cache.access(&a);
        let snap = cache.snapshot();
        assert_eq!(snap.organization, "shared");
        assert_eq!(snap.aggregate.accesses, 2);
        assert_eq!(snap.aggregate.misses, 1);
        assert_eq!(snap.by_task.get(&TaskId::new(3)).unwrap().accesses, 2);
        assert_eq!(snap.by_region.get(&RegionId::new(7)).unwrap().misses, 1);
        assert!(snap.by_partition.is_empty());
    }
}
