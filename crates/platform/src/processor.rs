//! Processor identifiers and per-processor execution counters.

/// Identifier of a processor on the tile (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessorId(usize);

impl ProcessorId {
    /// Creates a processor identifier from a dense index.
    pub const fn new(index: usize) -> Self {
        ProcessorId(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Execution counters of one processor, accumulated by the simulation loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProcessorCounters {
    /// Local clock (cycles simulated so far).
    pub time: u64,
    /// Cycles spent executing instructions.
    pub busy_cycles: u64,
    /// Cycles spent stalled on the memory hierarchy.
    pub stall_cycles: u64,
    /// Cycles spent in task switches (including run-time-system traffic).
    pub switch_cycles: u64,
    /// Cycles spent idle (no runnable task).
    pub idle_cycles: u64,
    /// Architectural instructions executed.
    pub instructions: u64,
    /// Number of task switches performed.
    pub task_switches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_id_roundtrip_and_display() {
        let p = ProcessorId::new(3);
        assert_eq!(p.index(), 3);
        assert_eq!(p.to_string(), "cpu3");
    }

    #[test]
    fn counters_default_to_zero() {
        let c = ProcessorCounters::default();
        assert_eq!(c.time, 0);
        assert_eq!(c.instructions, 0);
    }
}
