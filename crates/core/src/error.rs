//! Error type of the top-level crate.

use std::error::Error;
use std::fmt;

use compmem_cache::CacheError;
use compmem_platform::PlatformError;
use compmem_workloads::WorkloadError;

/// Errors produced while sizing partitions and running experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The requested partition sizes do not fit in the cache.
    CapacityExceeded {
        /// Units requested.
        requested: u32,
        /// Units available.
        available: u32,
    },
    /// A partition key has no miss profile (it never reached the L2 during
    /// profiling and was not pinned to a size).
    MissingProfile {
        /// Display name of the key.
        key: String,
    },
    /// The allocation problem has no feasible solution (e.g. more keys than
    /// allocation units).
    Infeasible {
        /// Explanation of the infeasibility.
        reason: String,
    },
    /// Stack-distance profiling was requested for a scenario whose L2
    /// replacement policy is not LRU. The profiler's curves are exact
    /// for LRU only (the Mattson stack-inclusion identity the single
    /// pass relies on); profiling a
    /// FIFO/PLRU/random L2 would silently produce curves the real cache
    /// does not follow, so it is a typed error instead.
    NonLruProfiling {
        /// Display name of the offending replacement policy.
        policy: String,
    },
    /// Windowed curves handed to the controller do not describe the
    /// replay (see [`compete`](crate::controller::compete)).
    CurvesMismatch {
        /// What differs.
        reason: String,
    },
    /// A QoS floor cannot be honoured: no candidate size keeps the
    /// entity's predicted miss rate at or under its stated bound, or the
    /// floors' combined minimum sizes exceed the cache. Rates are carried
    /// pre-rendered because this enum is `Eq` (no floats).
    QosInfeasible {
        /// Display name of the floored partition key.
        key: String,
        /// Why the floor is unsatisfiable, with the rates involved.
        reason: String,
    },
    /// An underlying cache-model error.
    Cache(CacheError),
    /// An underlying platform error.
    Platform(PlatformError),
    /// An underlying workload error.
    Workload(WorkloadError),
    /// A trace encode/decode error (the message of the underlying
    /// [`CodecError`](compmem_trace::CodecError), which is not `Clone`).
    Codec {
        /// Rendered message of the codec error.
        message: String,
    },
    /// A worker thread of the batch executor panicked while evaluating one
    /// work item. The panic is caught per item, so a poisoned spec reports
    /// this error in its own result slot instead of aborting the whole
    /// batch (see [`executor`](crate::executor)).
    WorkerPanicked {
        /// Rendered panic payload of the worker.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CapacityExceeded {
                requested,
                available,
            } => write!(
                f,
                "allocation requests {requested} units but only {available} are available"
            ),
            CoreError::MissingProfile { key } => {
                write!(f, "no miss profile for partition key `{key}`")
            }
            CoreError::Infeasible { reason } => write!(f, "allocation infeasible: {reason}"),
            CoreError::NonLruProfiling { policy } => write!(
                f,
                "stack-distance profiling is exact for LRU only; the scenario's L2 uses \
                 `{policy}` (switch the L2 to LRU)"
            ),
            CoreError::CurvesMismatch { reason } => write!(f, "mismatched curves: {reason}"),
            CoreError::QosInfeasible { key, reason } => {
                write!(f, "QoS floor for `{key}` is unsatisfiable: {reason}")
            }
            CoreError::Cache(e) => write!(f, "cache error: {e}"),
            CoreError::Platform(e) => write!(f, "platform error: {e}"),
            CoreError::Workload(e) => write!(f, "workload error: {e}"),
            CoreError::Codec { message } => write!(f, "trace codec error: {message}"),
            CoreError::WorkerPanicked { message } => {
                write!(f, "batch worker panicked: {message}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Cache(e) => Some(e),
            CoreError::Platform(e) => Some(e),
            CoreError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for CoreError {
    fn from(value: CacheError) -> Self {
        CoreError::Cache(value)
    }
}

impl From<PlatformError> for CoreError {
    fn from(value: PlatformError) -> Self {
        CoreError::Platform(value)
    }
}

impl From<WorkloadError> for CoreError {
    fn from(value: WorkloadError) -> Self {
        CoreError::Workload(value)
    }
}

impl From<compmem_trace::CodecError> for CoreError {
    fn from(value: compmem_trace::CodecError) -> Self {
        CoreError::Codec {
            message: value.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: CoreError = CacheError::PartitionNotPowerOfTwo { sets: 3 }.into();
        assert!(e.to_string().contains('3'));
        assert!(e.source().is_some());
        let e = CoreError::CapacityExceeded {
            requested: 200,
            available: 128,
        };
        assert!(e.to_string().contains("200"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
