//! Time-varying partitioning: the [`PartitionSchedule`] value type and
//! the flush accounting of a live reconfiguration.
//!
//! The paper's premise is an OS that *manages* the partitioned L2 as
//! workload demands change. A [`PartitionSchedule`] is the OS's plan for
//! one run: an ordered list of `(at_cycle, OrganizationSpec)` steps, the
//! first of which (the implicit step 0) is the organisation the cache is
//! built with, and every later one a **repartition event** the platform
//! applies to the live cache at that exact cycle boundary via
//! [`CacheModel::reconfigure`](crate::CacheModel::reconfigure).
//!
//! Reconfiguration is like-for-like: a new [`PartitionMap`] on a
//! set-partitioned cache, a new
//! [`WayAllocation`](crate::WayAllocation) on a way-partitioned cache,
//! or the trivial shared-to-shared no-op. Lines whose set/way ownership
//! changes are invalidated (dirty ones write back), and the counts come
//! back as [`FlushStats`] so the platform can charge the flush traffic
//! through the bus/DRAM timing path.

use std::fmt;

use serde::{Deserialize, Serialize};

use compmem_trace::RegionTable;

use crate::error::CacheError;
use crate::spec::OrganizationSpec;

/// Line counts of one live reconfiguration: how many resident lines lost
/// their set/way ownership and were invalidated, and how many of those
/// were dirty and must be written back to DRAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushStats {
    /// Lines invalidated because their set/way ownership changed.
    pub invalidated: u64,
    /// Invalidated lines that were dirty (each one is a DRAM write-back
    /// and a bus transfer).
    pub written_back: u64,
}

impl FlushStats {
    /// Accumulates another reconfiguration's counts into this one.
    pub fn absorb(&mut self, other: FlushStats) {
        self.invalidated += other.invalidated;
        self.written_back += other.written_back;
    }
}

impl fmt::Display for FlushStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lines invalidated, {} written back",
            self.invalidated, self.written_back
        )
    }
}

/// One step of a [`PartitionSchedule`]: from `at_cycle` on, the cache
/// runs under `organization`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStep {
    /// First cycle the organisation applies to. Step 0 is implicit: its
    /// cycle is always 0 (the organisation the cache is built with).
    pub at_cycle: u64,
    /// The organisation in force from `at_cycle` on.
    pub organization: OrganizationSpec,
}

/// A validated, time-ordered partitioning policy for one run.
///
/// ```
/// use compmem_cache::{CacheGeometry, OrganizationSpec, PartitionKey, PartitionMap,
///     PartitionSchedule};
/// use compmem_trace::TaskId;
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// let g = CacheGeometry::new(64, 4)?;
/// let t = |i| PartitionKey::Task(TaskId::new(i));
/// let a = PartitionMap::pack(g, &[(t(0), 32), (t(1), 16)])?;
/// let b = PartitionMap::pack(g, &[(t(0), 16), (t(1), 32)])?;
/// let schedule = PartitionSchedule::new(vec![
///     (0, OrganizationSpec::SetPartitioned(a)),
///     (10_000, OrganizationSpec::SetPartitioned(b)),
/// ])?;
/// assert_eq!(schedule.len(), 2);
/// assert!(!schedule.is_static());
/// assert_eq!(schedule.switches().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSchedule {
    steps: Vec<ScheduleStep>,
}

impl PartitionSchedule {
    /// The static (single-step) schedule: one organisation for the whole
    /// run. This is what every pre-schedule call site builds implicitly.
    pub fn single(organization: OrganizationSpec) -> Self {
        PartitionSchedule {
            steps: vec![ScheduleStep {
                at_cycle: 0,
                organization,
            }],
        }
    }

    /// Builds a schedule from `(at_cycle, organization)` steps.
    ///
    /// # Errors
    ///
    /// * [`CacheError::EmptySchedule`] if `steps` is empty,
    /// * [`CacheError::ScheduleOutOfOrder`] if the first step is not at
    ///   cycle 0 or the cycles are not strictly increasing,
    /// * [`CacheError::ReconfigureUnsupported`] if a later step names an
    ///   organisation the previous step's cache cannot morph into
    ///   (switches are like-for-like).
    pub fn new(steps: Vec<(u64, OrganizationSpec)>) -> Result<Self, CacheError> {
        let Some(first) = steps.first() else {
            return Err(CacheError::EmptySchedule);
        };
        if first.0 != 0 {
            return Err(CacheError::ScheduleOutOfOrder { at_cycle: first.0 });
        }
        for pair in steps.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(CacheError::ScheduleOutOfOrder {
                    at_cycle: pair[1].0,
                });
            }
            let (from, to) = (pair[0].1.label(), pair[1].1.label());
            if from != to {
                return Err(CacheError::ReconfigureUnsupported { from, to });
            }
        }
        Ok(PartitionSchedule {
            steps: steps
                .into_iter()
                .map(|(at_cycle, organization)| ScheduleStep {
                    at_cycle,
                    organization,
                })
                .collect(),
        })
    }

    /// The organisation the run starts under (step 0).
    pub fn initial(&self) -> &OrganizationSpec {
        &self.steps[0].organization
    }

    /// All steps, in cycle order (step 0 first).
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// The repartition events: every step after the implicit step 0.
    pub fn switches(&self) -> &[ScheduleStep] {
        &self.steps[1..]
    }

    /// Number of steps (at least 1).
    #[allow(clippy::len_without_is_empty)] // a schedule is never empty
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for a single-step schedule (no repartitioning; the
    /// pre-schedule behaviour of every run).
    pub fn is_static(&self) -> bool {
        self.steps.len() == 1
    }

    /// Short name of the initial organisation, matching
    /// [`OrganizationSpec::label`].
    pub fn label(&self) -> &'static str {
        self.initial().label()
    }

    /// Checks every step against the cache geometry and region table the
    /// schedule will run over: partitioned steps must target the same
    /// geometry and cover every region, so that applying a switch to the
    /// live cache cannot fail mid-run.
    ///
    /// # Errors
    ///
    /// Propagates the step's coverage/geometry error, naming the first
    /// offending step.
    pub fn validate_for(
        &self,
        geometry: crate::CacheGeometry,
        regions: &RegionTable,
    ) -> Result<(), CacheError> {
        for step in &self.steps {
            match &step.organization {
                OrganizationSpec::SetPartitioned(map) => {
                    if map.geometry() != geometry {
                        return Err(CacheError::GeometryMismatch {
                            what: "schedule partition map",
                            found: map.geometry(),
                            expected: geometry,
                        });
                    }
                    map.validate_covers(regions)?;
                }
                OrganizationSpec::WayPartitioned(allocation) => {
                    if allocation.geometry() != geometry {
                        return Err(CacheError::GeometryMismatch {
                            what: "schedule way allocation",
                            found: allocation.geometry(),
                            expected: geometry,
                        });
                    }
                    allocation.validate_covers(regions)?;
                }
                OrganizationSpec::Shared => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for PartitionSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_static() {
            return write!(f, "{} (static)", self.label());
        }
        write!(f, "{} x {} steps (switch at", self.label(), self.len())?;
        for (i, step) in self.switches().iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{}", step.at_cycle)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionKey, PartitionMap};
    use crate::{CacheGeometry, WayAllocation};
    use compmem_trace::{RegionKind, TaskId};

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(64, 4).unwrap()
    }

    fn task(i: u32) -> PartitionKey {
        PartitionKey::Task(TaskId::new(i))
    }

    fn map(sizes: &[(PartitionKey, u32)]) -> OrganizationSpec {
        OrganizationSpec::SetPartitioned(PartitionMap::pack(geometry(), sizes).unwrap())
    }

    #[test]
    fn single_step_schedules_are_static() {
        let s = PartitionSchedule::single(OrganizationSpec::Shared);
        assert!(s.is_static());
        assert_eq!(s.len(), 1);
        assert!(s.switches().is_empty());
        assert_eq!(s.label(), "shared");
        assert_eq!(s.to_string(), "shared (static)");
    }

    #[test]
    fn schedules_validate_order_and_transitions() {
        assert!(matches!(
            PartitionSchedule::new(vec![]),
            Err(CacheError::EmptySchedule)
        ));
        assert!(matches!(
            PartitionSchedule::new(vec![(5, OrganizationSpec::Shared)]),
            Err(CacheError::ScheduleOutOfOrder { at_cycle: 5 })
        ));
        assert!(matches!(
            PartitionSchedule::new(vec![
                (0, OrganizationSpec::Shared),
                (100, OrganizationSpec::Shared),
                (100, OrganizationSpec::Shared),
            ]),
            Err(CacheError::ScheduleOutOfOrder { at_cycle: 100 })
        ));
        // Cross-organisation switches are rejected up front.
        assert!(matches!(
            PartitionSchedule::new(vec![
                (0, OrganizationSpec::Shared),
                (100, map(&[(task(0), 32)])),
            ]),
            Err(CacheError::ReconfigureUnsupported {
                from: "shared",
                to: "set-partitioned"
            })
        ));
        let ok = PartitionSchedule::new(vec![
            (0, map(&[(task(0), 32)])),
            (100, map(&[(task(0), 16)])),
            (250, map(&[(task(0), 64)])),
        ])
        .unwrap();
        assert_eq!(ok.len(), 3);
        assert_eq!(ok.switches().len(), 2);
        assert_eq!(ok.switches()[1].at_cycle, 250);
        assert_eq!(
            ok.to_string(),
            "set-partitioned x 3 steps (switch at 100, 250)"
        );
    }

    #[test]
    fn validate_for_checks_geometry_and_coverage() {
        let mut table = RegionTable::new();
        table
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                4096,
            )
            .unwrap();
        let good = PartitionSchedule::new(vec![
            (0, map(&[(task(0), 32)])),
            (100, map(&[(task(0), 16)])),
        ])
        .unwrap();
        good.validate_for(geometry(), &table).unwrap();

        // A map over the wrong geometry is rejected.
        let other = CacheGeometry::new(128, 4).unwrap();
        let err = good.validate_for(other, &table).unwrap_err();
        assert!(matches!(err, CacheError::GeometryMismatch { .. }));
        assert_eq!(
            err.to_string(),
            "schedule partition map over 64 sets x 4 ways does not match \
             the cache's 128 sets x 4 ways"
        );

        // A step whose map misses a region is rejected.
        let uncovered = PartitionSchedule::new(vec![
            (0, map(&[(task(0), 32)])),
            (100, map(&[(task(1), 16)])),
        ])
        .unwrap();
        assert!(matches!(
            uncovered.validate_for(geometry(), &table),
            Err(CacheError::UnassignedRegion { .. })
        ));

        // Way-partitioned schedules validate the same way.
        let ways = PartitionSchedule::new(vec![
            (
                0,
                OrganizationSpec::WayPartitioned(WayAllocation::equal_split(
                    geometry(),
                    &[task(0)],
                )),
            ),
            (
                50,
                OrganizationSpec::WayPartitioned(WayAllocation::equal_split(
                    geometry(),
                    &[task(1)],
                )),
            ),
        ])
        .unwrap();
        assert!(matches!(
            ways.validate_for(geometry(), &table),
            Err(CacheError::UnassignedRegion { .. })
        ));
    }

    #[test]
    fn flush_stats_absorb_and_display() {
        let mut a = FlushStats {
            invalidated: 3,
            written_back: 1,
        };
        a.absorb(FlushStats {
            invalidated: 2,
            written_back: 2,
        });
        assert_eq!(
            a,
            FlushStats {
                invalidated: 5,
                written_back: 3
            }
        );
        assert_eq!(a.to_string(), "5 lines invalidated, 3 written back");
    }
}
