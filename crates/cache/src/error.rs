//! Error type of the cache crate.

use std::error::Error;
use std::fmt;

use crate::geometry::CacheGeometry;

/// Errors produced while configuring caches and partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// A geometry parameter broke one of its rules — a non-zero power of
    /// two, a bound, a multiple of the way size — and `rule` says which.
    InvalidGeometry {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Value supplied.
        value: u64,
        /// The rule the value breaks, phrased to follow it (e.g. "is not
        /// a non-zero power of two").
        rule: String,
    },
    /// A partition map or way allocation was applied to a cache of a
    /// different geometry.
    GeometryMismatch {
        /// What was applied (e.g. `"partition map"`).
        what: &'static str,
        /// Geometry the map or allocation was built for.
        found: CacheGeometry,
        /// Geometry of the cache it was applied to.
        expected: CacheGeometry,
    },
    /// A partition referenced sets outside the cache.
    PartitionOutOfRange {
        /// First set of the partition.
        base_set: u32,
        /// Number of sets of the partition.
        sets: u32,
        /// Number of sets in the cache.
        cache_sets: u32,
    },
    /// A partition's set count was not a power of two.
    PartitionNotPowerOfTwo {
        /// Number of sets requested.
        sets: u32,
    },
    /// Two partitions overlap.
    PartitionOverlap {
        /// First set of the overlapping range.
        base_set: u32,
        /// Number of sets of the overlapping range.
        sets: u32,
    },
    /// A way-partition mask was empty or referenced ways beyond the
    /// associativity.
    InvalidWayMask {
        /// The offending mask.
        mask: u64,
        /// Associativity of the cache.
        ways: u32,
    },
    /// An access hit a region with no partition assigned.
    UnassignedRegion {
        /// Index of the region.
        region: usize,
    },
    /// A partitioned organisation was requested over an empty key set.
    NoPartitionKeys,
    /// A profiling window configuration was invalid (zero length).
    InvalidWindow {
        /// The offending window length.
        length: u64,
    },
    /// A live reconfiguration was requested between organisations that
    /// cannot morph into one another (only like-for-like repartitioning
    /// is supported: a new `PartitionMap` on a set-partitioned cache, a
    /// new `WayAllocation` on a way-partitioned cache, or the trivial
    /// shared-to-shared no-op).
    ReconfigureUnsupported {
        /// Organisation of the live cache.
        from: &'static str,
        /// Organisation the reconfiguration asked for.
        to: &'static str,
    },
    /// A partition schedule contained no steps.
    EmptySchedule,
    /// A partition schedule's step cycles were not strictly increasing
    /// from an implicit first step at cycle 0.
    ScheduleOutOfOrder {
        /// The offending step cycle.
        at_cycle: u64,
    },
    /// A miss-rate curve was asked about a cache shape outside the
    /// resolution it was profiled at.
    CurveOutOfRange {
        /// Set count asked about.
        sets: u32,
        /// Associativity asked about.
        ways: u32,
        /// Smallest resolved set count.
        min_sets: u32,
        /// Largest resolved set count.
        max_sets: u32,
        /// Largest resolved associativity.
        ways_cap: u32,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::InvalidGeometry {
                parameter,
                value,
                rule,
            } => write!(f, "cache {parameter} of {value} {rule}"),
            CacheError::GeometryMismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "{what} over {} sets x {} ways does not match the cache's {} sets x {} ways",
                found.sets(),
                found.ways(),
                expected.sets(),
                expected.ways()
            ),
            CacheError::PartitionOutOfRange {
                base_set,
                sets,
                cache_sets,
            } => write!(
                f,
                "partition [{base_set}, {}) exceeds the {cache_sets} sets of the cache",
                base_set + sets
            ),
            CacheError::PartitionNotPowerOfTwo { sets } => {
                write!(f, "partition size of {sets} sets is not a power of two")
            }
            CacheError::PartitionOverlap { base_set, sets } => {
                write!(
                    f,
                    "partition [{base_set}, {}) overlaps an existing partition",
                    base_set + sets
                )
            }
            CacheError::InvalidWayMask { mask, ways } => {
                write!(f, "way mask {mask:#b} is invalid for a {ways}-way cache")
            }
            CacheError::UnassignedRegion { region } => {
                write!(f, "region {region} has no cache partition assigned")
            }
            CacheError::NoPartitionKeys => {
                write!(
                    f,
                    "a partitioned organisation needs at least one partition key"
                )
            }
            CacheError::InvalidWindow { length } => {
                write!(
                    f,
                    "profiling window length of {length} is invalid (must be > 0)"
                )
            }
            CacheError::ReconfigureUnsupported { from, to } => write!(
                f,
                "a live `{from}` cache cannot be reconfigured into `{to}` \
                 (only like-for-like repartitioning is supported)"
            ),
            CacheError::EmptySchedule => {
                write!(f, "a partition schedule needs at least one step")
            }
            CacheError::ScheduleOutOfOrder { at_cycle } => write!(
                f,
                "partition schedule step at cycle {at_cycle} is out of order \
                 (steps must start at cycle 0 and strictly increase)"
            ),
            CacheError::CurveOutOfRange {
                sets,
                ways,
                min_sets,
                max_sets,
                ways_cap,
            } => write!(
                f,
                "miss-rate curve does not resolve {sets} sets x {ways} ways \
                 (profiled at {min_sets}..={max_sets} power-of-two sets, up to {ways_cap} ways)"
            ),
        }
    }
}

impl CacheError {
    /// The [`InvalidGeometry`](CacheError::InvalidGeometry) error of a
    /// parameter that must be a non-zero power of two.
    pub(crate) fn not_power_of_two(parameter: &'static str, value: u64) -> Self {
        CacheError::InvalidGeometry {
            parameter,
            value,
            rule: "is not a non-zero power of two".to_string(),
        }
    }
}

impl Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_values() {
        let e = CacheError::not_power_of_two("sets", 3);
        assert!(e.to_string().contains("sets"));
        assert!(e.to_string().contains('3'));
        let e = CacheError::PartitionOutOfRange {
            base_set: 100,
            sets: 64,
            cache_sets: 128,
        };
        assert!(e.to_string().contains("164"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheError>();
    }
}
