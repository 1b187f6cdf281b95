//! Declarative construction of L2 organisations.
//!
//! [`OrganizationSpec`] is the value the experiment layer passes around
//! instead of concrete cache types: it names one of the three organisations
//! of the study together with its organisation-specific parameters, and
//! [`OrganizationSpec::build`] turns it into a ready `Box<dyn CacheModel>`
//! for the platform. Because a spec is plain data (`Clone + Send + Sync`),
//! independent runs over different organisations can be described up front
//! and executed in parallel worker threads, each building its own model.

use std::fmt;

use compmem_trace::RegionTable;

use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::model::{CacheModel, SharedCache};
use crate::partition::{PartitionMap, SetPartitionedCache};
use crate::way_partition::{WayAllocation, WayPartitionedCache};

/// A declarative description of one L2 organisation.
#[derive(Debug, Clone, PartialEq)]
pub enum OrganizationSpec {
    /// The conventional shared cache (the paper's baseline).
    Shared,
    /// The paper's proposal: exclusive groups of sets per entity.
    SetPartitioned(PartitionMap),
    /// The column-caching related work: way masks per entity.
    WayPartitioned(WayAllocation),
}

impl OrganizationSpec {
    /// Short name of the organisation this spec builds, matching
    /// [`CacheModel::organization`].
    pub fn label(&self) -> &'static str {
        match self {
            OrganizationSpec::Shared => "shared",
            OrganizationSpec::SetPartitioned(_) => "set-partitioned",
            OrganizationSpec::WayPartitioned(_) => "way-partitioned",
        }
    }

    /// Builds the described organisation for a cache of configuration
    /// `config` serving the regions of `regions`.
    ///
    /// # Errors
    ///
    /// Propagates the constructor errors of the partitioned organisations
    /// (uncovered regions, invalid maps); `Shared` cannot fail.
    pub fn build(
        &self,
        config: CacheConfig,
        regions: &RegionTable,
    ) -> Result<Box<dyn CacheModel>, CacheError> {
        Ok(match self {
            OrganizationSpec::Shared => Box::new(SharedCache::new(config)),
            OrganizationSpec::SetPartitioned(map) => {
                Box::new(SetPartitionedCache::new(config, regions, map)?)
            }
            OrganizationSpec::WayPartitioned(allocation) => {
                Box::new(WayPartitionedCache::new(config, regions, allocation)?)
            }
        })
    }
}

impl fmt::Display for OrganizationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionKey;
    use compmem_trace::{Access, RegionId, RegionKind, TaskId};

    fn one_task_table() -> RegionTable {
        let mut table = RegionTable::new();
        table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                64 * 1024,
            )
            .unwrap();
        table
    }

    #[test]
    fn every_spec_builds_its_organisation() {
        let table = one_task_table();
        let config = CacheConfig::new(16, 4).unwrap();
        let map = PartitionMap::pack(
            config.geometry(),
            &[(PartitionKey::Task(TaskId::new(0)), 8)],
        )
        .unwrap();
        let alloc =
            WayAllocation::equal_split(config.geometry(), &[PartitionKey::Task(TaskId::new(0))]);
        let specs = [
            (OrganizationSpec::Shared, "shared"),
            (OrganizationSpec::SetPartitioned(map), "set-partitioned"),
            (OrganizationSpec::WayPartitioned(alloc), "way-partitioned"),
        ];
        for (spec, label) in specs {
            assert_eq!(spec.label(), label);
            assert_eq!(spec.to_string(), label);
            let mut model = spec.build(config, &table).unwrap();
            assert_eq!(model.organization(), label);
            let base = table.region(RegionId::new(0)).base;
            let a = Access::load(base, 4, TaskId::new(0), RegionId::new(0));
            assert!(model.access(&a).is_miss());
            assert!(model.access(&a).hit);
        }
    }

    #[test]
    fn partitioned_spec_propagates_coverage_errors() {
        let table = one_task_table();
        let config = CacheConfig::new(16, 4).unwrap();
        // Empty partition map covers no region.
        let spec = OrganizationSpec::SetPartitioned(PartitionMap::new(config.geometry()));
        assert!(matches!(
            spec.build(config, &table),
            Err(CacheError::UnassignedRegion { .. })
        ));
        let spec = OrganizationSpec::WayPartitioned(WayAllocation::new(config.geometry()));
        assert!(matches!(
            spec.build(config, &table),
            Err(CacheError::UnassignedRegion { .. })
        ));
    }

    #[test]
    fn specs_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OrganizationSpec>();
    }
}
