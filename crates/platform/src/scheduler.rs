//! Task-to-processor mapping.

use std::collections::BTreeSet;

use compmem_trace::TaskId;

use crate::error::PlatformError;

/// A static assignment of tasks to processors.
///
/// The paper's analytical throughput model (§3.1) requires a static
/// assignment so that the execution time of a processor is the sum of its
/// tasks' execution times; the simulator uses the same model: each task runs
/// only on its assigned processor, scheduled data-driven (run until blocked)
/// with an optional quantum.
///
/// ```
/// use compmem_platform::TaskMapping;
/// use compmem_trace::TaskId;
/// let tasks: Vec<TaskId> = (0..6).map(TaskId::new).collect();
/// let mapping = TaskMapping::round_robin(&tasks, 4);
/// assert_eq!(mapping.processors_used(), 4);
/// assert_eq!(mapping.tasks_of(0).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskMapping {
    assignments: Vec<Vec<TaskId>>,
}

impl TaskMapping {
    /// Creates a mapping from explicit per-processor task lists.
    pub fn new(assignments: Vec<Vec<TaskId>>) -> Self {
        TaskMapping { assignments }
    }

    /// Maps every task onto a single processor.
    pub fn single_processor(tasks: &[TaskId]) -> Self {
        TaskMapping {
            assignments: vec![tasks.to_vec()],
        }
    }

    /// Distributes tasks round-robin over `processors` processors.
    pub fn round_robin(tasks: &[TaskId], processors: usize) -> Self {
        assert!(processors > 0, "at least one processor is required");
        let mut assignments = vec![Vec::new(); processors.min(tasks.len().max(1))];
        for (i, &t) in tasks.iter().enumerate() {
            let p = i % assignments.len();
            assignments[p].push(t);
        }
        TaskMapping { assignments }
    }

    /// Number of processors that have at least one task (trailing empty
    /// processors are not counted).
    pub fn processors_used(&self) -> usize {
        self.assignments.len()
    }

    /// Tasks assigned to processor `processor` (empty slice if none).
    pub fn tasks_of(&self, processor: usize) -> &[TaskId] {
        self.assignments
            .get(processor)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All tasks in the mapping, in processor order.
    pub fn all_tasks(&self) -> Vec<TaskId> {
        self.assignments.iter().flatten().copied().collect()
    }

    /// Total number of tasks.
    pub fn task_count(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// The processor a task is assigned to, if any.
    pub fn processor_of(&self, task: TaskId) -> Option<usize> {
        self.assignments
            .iter()
            .position(|tasks| tasks.contains(&task))
    }

    /// Validates the mapping against a processor count.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::EmptyMapping`] if there are no tasks at all,
    /// * [`PlatformError::ProcessorOutOfRange`] if more processors are used
    ///   than exist,
    /// * [`PlatformError::DuplicateTask`] if a task appears twice.
    pub fn validate(&self, num_processors: usize) -> Result<(), PlatformError> {
        if self.task_count() == 0 {
            return Err(PlatformError::EmptyMapping);
        }
        if self.assignments.len() > num_processors {
            return Err(PlatformError::ProcessorOutOfRange {
                processor: self.assignments.len() - 1,
                processors: num_processors,
            });
        }
        let mut seen = BTreeSet::new();
        for &task in self.assignments.iter().flatten() {
            if !seen.insert(task) {
                return Err(PlatformError::DuplicateTask { task });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(n: u32) -> Vec<TaskId> {
        (0..n).map(TaskId::new).collect()
    }

    #[test]
    fn round_robin_distributes_evenly() {
        let m = TaskMapping::round_robin(&tasks(10), 4);
        assert_eq!(m.processors_used(), 4);
        assert_eq!(m.tasks_of(0).len(), 3);
        assert_eq!(m.tasks_of(1).len(), 3);
        assert_eq!(m.tasks_of(2).len(), 2);
        assert_eq!(m.tasks_of(3).len(), 2);
        assert_eq!(m.task_count(), 10);
        assert!(m.validate(4).is_ok());
    }

    #[test]
    fn round_robin_with_fewer_tasks_than_processors() {
        let m = TaskMapping::round_robin(&tasks(2), 8);
        assert_eq!(m.processors_used(), 2);
        assert!(m.validate(8).is_ok());
    }

    #[test]
    fn processor_of_finds_the_right_processor() {
        let m = TaskMapping::round_robin(&tasks(5), 2);
        assert_eq!(m.processor_of(TaskId::new(0)), Some(0));
        assert_eq!(m.processor_of(TaskId::new(1)), Some(1));
        assert_eq!(m.processor_of(TaskId::new(4)), Some(0));
        assert_eq!(m.processor_of(TaskId::new(99)), None);
    }

    #[test]
    fn validation_catches_errors() {
        assert!(matches!(
            TaskMapping::new(vec![]).validate(4),
            Err(PlatformError::EmptyMapping)
        ));
        let m = TaskMapping::new(vec![vec![TaskId::new(0)], vec![TaskId::new(1)]]);
        assert!(matches!(
            m.validate(1),
            Err(PlatformError::ProcessorOutOfRange { .. })
        ));
        let m = TaskMapping::new(vec![vec![TaskId::new(0), TaskId::new(0)]]);
        assert!(matches!(
            m.validate(1),
            Err(PlatformError::DuplicateTask { .. })
        ));
    }

    #[test]
    fn single_processor_mapping() {
        let m = TaskMapping::single_processor(&tasks(3));
        assert_eq!(m.processors_used(), 1);
        assert_eq!(m.all_tasks(), tasks(3));
        assert!(m.validate(4).is_ok());
    }
}
