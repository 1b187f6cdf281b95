//! Error type of the platform crate.

use std::error::Error;
use std::fmt;

use compmem_trace::TaskId;

/// Errors produced while configuring or running the platform simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Description of the problem.
        reason: String,
    },
    /// A task was mapped to a processor that does not exist.
    ProcessorOutOfRange {
        /// The offending processor index.
        processor: usize,
        /// Number of processors configured.
        processors: usize,
    },
    /// A task appeared more than once in the mapping.
    DuplicateTask {
        /// The duplicated task.
        task: TaskId,
    },
    /// The mapping contained no tasks.
    EmptyMapping,
    /// No task could make progress although none had finished: the workload
    /// deadlocked (e.g. a process network with undersized FIFOs).
    Deadlock {
        /// Tasks that were still blocked when progress stopped.
        blocked: Vec<TaskId>,
    },
    /// The simulation exceeded the configured cycle limit.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A curve sidecar could not be written (the message of the
    /// underlying [`CodecError`](compmem_trace::CodecError), which is not
    /// `Clone`). Unreadable or mismatched sidecars are *not* errors — the
    /// profiling feeds fall back to measuring and rewriting them.
    SidecarWrite {
        /// Rendered message of the codec error.
        message: String,
    },
    /// A replay lane could not build or reconfigure its L2 organisation
    /// (the message of the underlying
    /// [`CacheError`](compmem_cache::CacheError): an invalid schedule, a
    /// partition map over the wrong geometry, an uncovered region).
    LaneCache {
        /// Rendered message of the cache error.
        message: String,
    },
    /// The caller required a multi-lane run but the scenario cannot
    /// split into set shards (see [`lanes`](crate::lanes)): one of its
    /// set groups has an odd number of sets (typically a single set) or
    /// starts on an odd set. Opportunistic callers replay serially
    /// instead of raising this.
    LanesIneligible {
        /// Lane count the caller required.
        requested: usize,
        /// The set group that admits no split, and why.
        reason: String,
    },
    /// A wire-protocol frame could not be read, written or decoded (the
    /// rendered I/O or framing problem; `std::io::Error` is not `Clone`).
    /// Raised by the `compmem serve` transport — a malformed frame is a
    /// typed error back to the client, never a daemon crash.
    Wire {
        /// Rendered message of the transport failure.
        message: String,
    },
    /// The content-addressed curve store could not read, validate or
    /// write a trace file (rendered I/O or codec problem).
    Store {
        /// Rendered message of the store failure.
        message: String,
    },
    /// A trace's L1 filter pass yields more L2-bound refills than a
    /// [`FilteredTrace`](crate::FilteredTrace) indexes (`u32::MAX`).
    TooManyRefills,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid platform configuration: {parameter}: {reason}")
            }
            PlatformError::ProcessorOutOfRange {
                processor,
                processors,
            } => write!(
                f,
                "task mapped to processor {processor} but only {processors} processors exist"
            ),
            PlatformError::DuplicateTask { task } => {
                write!(f, "task {task} is mapped to more than one processor")
            }
            PlatformError::EmptyMapping => write!(f, "task mapping contains no tasks"),
            PlatformError::Deadlock { blocked } => {
                write!(
                    f,
                    "workload deadlocked with {} blocked tasks",
                    blocked.len()
                )
            }
            PlatformError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            PlatformError::SidecarWrite { message } => {
                write!(f, "curve sidecar write error: {message}")
            }
            PlatformError::LaneCache { message } => {
                write!(f, "lane replay cache error: {message}")
            }
            PlatformError::LanesIneligible { requested, reason } => write!(
                f,
                "{requested} lanes were required but the scenario cannot \
                 split into set shards: {reason}"
            ),
            PlatformError::Wire { message } => {
                write!(f, "wire protocol error: {message}")
            }
            PlatformError::Store { message } => {
                write!(f, "curve store error: {message}")
            }
            PlatformError::TooManyRefills => {
                write!(f, "the trace has more than {} L2-bound refills", u32::MAX)
            }
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PlatformError::ProcessorOutOfRange {
            processor: 7,
            processors: 4,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));
        let e = PlatformError::Deadlock {
            blocked: vec![TaskId::new(0), TaskId::new(1)],
        };
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlatformError>();
    }
}
