//! Cache models for the `compmem` compositional memory system.
//!
//! This crate provides the cache substrate of the reproduction of
//! *"Compositional memory systems for multimedia communicating tasks"*
//! (Molnos et al., DATE 2005):
//!
//! * [`CacheGeometry`] / [`CacheConfig`] — line/set/way organisation.
//! * [`SetAssocCache`] — a set-associative cache with selectable
//!   [`ReplacementPolicy`] (LRU, tree-PLRU, FIFO, random), write-back /
//!   write-allocate behaviour, and per-task / per-region miss accounting.
//! * [`CacheModel`] — the **object-safe** trait unifying the three L2
//!   organisations of the study; the multiprocessor platform holds a
//!   `Box<dyn CacheModel>`, so organisations are interchangeable at run
//!   time and one timing path serves every experiment.
//! * [`SharedCache`] — the baseline organisation of the paper: all tasks
//!   index the cache directly and evict each other freely.
//! * [`SetPartitionedCache`] — the paper's proposal: an OS-loaded
//!   translation table maps every region (task, FIFO, frame buffer, shared
//!   static section) to an exclusive group of sets, and the set index is
//!   recomputed inside that group.
//! * [`WayPartitionedCache`] — the column-caching baseline from the related
//!   work (Suh et al. / Stone et al.), which restricts each partition to a
//!   subset of the ways of every set; its granularity is limited by the
//!   associativity, which is the argument §2 of the paper makes against it.
//! * [`StackDistanceProfiler`] — the **single-pass** source of the
//!   miss-vs-size curves that feed the partition-sizing optimiser:
//!   per-key, per-set bounded Mattson reuse stacks at every power-of-two
//!   set count produce a [`MissRateCurve`] per entity — the exact miss
//!   count at *every* resolved cache shape from one pass — and
//!   [`MissRateCurves::to_profiles`] converts them into the
//!   [`MissProfiles`] of any [`CacheSizeLattice`].
//! * [`per_size_profiles`] — the same [`MissProfiles`] by plain
//!   simulation: each key's accesses alone through one LRU cache per
//!   lattice size. It is the reference the profiler is tested against.
//! * [`OrganizationSpec`] — a declarative, `Send + Sync` description of any
//!   of the three organisations; [`OrganizationSpec::build`] produces the
//!   `Box<dyn CacheModel>` a run executes against.
//! * [`PartitionSchedule`] — partitioning as a **time-varying policy**:
//!   validated, ordered `(at_cycle, OrganizationSpec)` steps. The platform
//!   applies each later step to the live cache through
//!   [`CacheModel::reconfigure`] (a new [`PartitionMap`] /
//!   [`WayAllocation`] loaded in place), invalidating the lines whose
//!   set/way ownership changed and reporting them as [`FlushStats`] so the
//!   flush traffic can be charged on the bus/DRAM timing path.
//!
//! (The workspace-level architecture guide — layers, dataflow, the
//! one-pass profiling invariant — lives in `docs/ARCHITECTURE.md`; the
//! CLI walkthrough in `docs/CLI.md`.)
//!
//! # Example
//!
//! ```
//! use compmem_cache::{CacheConfig, CacheModel, OrganizationSpec};
//! use compmem_trace::{Access, Addr, RegionId, RegionTable, TaskId};
//!
//! # fn main() -> Result<(), compmem_cache::CacheError> {
//! let config = CacheConfig::new(64, 4)?; // 64 sets, 4 ways, 64-byte lines
//! let regions = RegionTable::new();
//! let mut cache = OrganizationSpec::Shared.build(config, &regions)?;
//! let a = Access::load(Addr::new(0x4000), 4, TaskId::new(0), RegionId::new(0));
//! let first = cache.access(&a);
//! let second = cache.access(&a);
//! assert!(!first.hit);
//! assert!(second.hit);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod distance;
mod error;
mod geometry;
mod model;
mod partition;
mod profile;
mod replacement;
mod schedule;
mod set;
mod spec;
mod stats;
mod way_partition;

pub use cache::{AccessOutcome, EvictedLine, SetAssocCache};
pub use config::CacheConfig;
pub use distance::{
    curve_delta, CurveResolution, CurveWindow, MissRateCurve, MissRateCurves, OnlinePhaseDetector,
    Phase, StackDistanceProfiler, WindowConfig, WindowKind, WindowedCurves, WindowedProfiler,
};
pub use error::CacheError;
pub use geometry::CacheGeometry;
pub use model::{CacheModel, CacheSnapshot, SharedCache};
pub use partition::{Partition, PartitionKey, PartitionMap, SetPartitionedCache};
pub use profile::{per_size_profiles, CacheSizeLattice, MissProfile, MissProfiles};
pub use replacement::ReplacementPolicy;
pub use schedule::{FlushStats, PartitionSchedule, ScheduleStep};
pub use spec::OrganizationSpec;
pub use stats::{CacheStats, KeyStats, StatsByKey};
pub use way_partition::{WayAllocation, WayPartitionedCache};
