//! The workload interface: operations, bursts and the driver trait.

use compmem_trace::{Access, TaskId};

/// One operation executed by a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` back-to-back compute instructions with no memory reference
    /// (one cycle each).
    Compute(u32),
    /// One memory reference. Loads and stores count as one instruction plus
    /// any memory stall; instruction fetches model the fetch of a code line
    /// and contribute stall cycles only.
    Mem(Access),
}

impl Op {
    /// Number of architectural instructions this operation represents.
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Compute(n) => u64::from(*n),
            Op::Mem(a) if a.kind.is_instruction() => 0,
            Op::Mem(_) => 1,
        }
    }
}

/// A sequence of operations a task executes without any possibility of
/// blocking — in the Kahn-process-network runtime, one firing of a process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Burst {
    ops: Vec<Op>,
}

impl Burst {
    /// Creates a burst from a list of operations.
    pub fn new(ops: Vec<Op>) -> Self {
        Burst { ops }
    }

    /// Creates an empty burst (the task made progress without touching
    /// memory, e.g. consumed a control token).
    pub fn empty() -> Self {
        Burst { ops: Vec::new() }
    }

    /// Operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the burst contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total number of architectural instructions in the burst.
    pub fn instructions(&self) -> u64 {
        self.ops.iter().map(Op::instructions).sum()
    }

    /// Number of memory operations (including instruction fetches).
    pub fn memory_ops(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Mem(_))).count()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Consumes the burst and returns its operations.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }
}

impl FromIterator<Op> for Burst {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Burst {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Op> for Burst {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

/// What a task can offer the scheduler when asked for work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BurstOutcome {
    /// The task has a burst of operations ready to execute.
    Ready(Burst),
    /// The task cannot progress until some other task produces or consumes
    /// data (blocking read from an empty FIFO / write to a full FIFO).
    Blocked,
    /// The task has completed all its work.
    Finished,
}

impl BurstOutcome {
    /// Returns `true` for [`BurstOutcome::Finished`].
    pub fn is_finished(&self) -> bool {
        matches!(self, BurstOutcome::Finished)
    }

    /// Returns `true` for [`BurstOutcome::Blocked`].
    pub fn is_blocked(&self) -> bool {
        matches!(self, BurstOutcome::Blocked)
    }
}

/// Source of work for the platform: the application side of the simulator.
///
/// The scheduler calls [`next_burst`](WorkloadDriver::next_burst) whenever
/// the processor owning `task` is ready to execute it. Returning
/// [`BurstOutcome::Blocked`] parks the task until some other task has
/// executed a burst (at which point it will be asked again); returning
/// [`BurstOutcome::Finished`] retires it permanently.
pub trait WorkloadDriver {
    /// Produces the next burst of work for `task`.
    fn next_burst(&mut self, task: TaskId) -> BurstOutcome;
}

impl<D: WorkloadDriver + ?Sized> WorkloadDriver for &mut D {
    fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
        (**self).next_burst(task)
    }
}

impl<D: WorkloadDriver + ?Sized> WorkloadDriver for Box<D> {
    fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
        (**self).next_burst(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::{Addr, RegionId};

    fn load() -> Op {
        Op::Mem(Access::load(
            Addr::new(0x100),
            4,
            TaskId::new(0),
            RegionId::new(0),
        ))
    }

    fn ifetch() -> Op {
        Op::Mem(Access::ifetch(
            Addr::new(0x200),
            64,
            TaskId::new(0),
            RegionId::new(1),
        ))
    }

    #[test]
    fn instruction_counting() {
        assert_eq!(Op::Compute(5).instructions(), 5);
        assert_eq!(load().instructions(), 1);
        assert_eq!(ifetch().instructions(), 0);
        let b = Burst::new(vec![Op::Compute(3), load(), ifetch(), load()]);
        assert_eq!(b.instructions(), 5);
        assert_eq!(b.memory_ops(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn burst_collect_and_extend() {
        let mut b: Burst = vec![Op::Compute(1)].into_iter().collect();
        b.extend(vec![load()]);
        b.push(ifetch());
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Burst::empty().is_empty());
        assert_eq!(b.clone().into_ops().len(), 3);
    }

    #[test]
    fn outcome_predicates() {
        assert!(BurstOutcome::Finished.is_finished());
        assert!(BurstOutcome::Blocked.is_blocked());
        assert!(!BurstOutcome::Ready(Burst::empty()).is_finished());
    }

    #[test]
    fn driver_usable_through_references_and_boxes() {
        struct D(u32);
        impl WorkloadDriver for D {
            fn next_burst(&mut self, _task: TaskId) -> BurstOutcome {
                self.0 += 1;
                BurstOutcome::Finished
            }
        }
        let mut d = D(0);
        let by_ref: &mut D = &mut d;
        assert!(by_ref.next_burst(TaskId::new(0)).is_finished());
        let mut boxed: Box<dyn WorkloadDriver> = Box::new(D(0));
        assert!(boxed.next_burst(TaskId::new(0)).is_finished());
    }
}
