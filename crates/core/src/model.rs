//! The analytical throughput and power formulation of §3.1 of the paper.
//!
//! With a static task-to-processor assignment the completion time of a
//! processor is the sum of its tasks' execution times (which depend on their
//! allocated cache through the number of misses) plus the task-switch and
//! idle time; the application throughput is the inverse of the largest
//! per-processor completion time, and the power proxy follows the total
//! execution time and the off-chip traffic. These formulas are used to
//! predict the effect of an allocation before simulating it and to check the
//! simulator against the model in tests.

use std::collections::BTreeMap;

use compmem_platform::TaskMapping;
use compmem_trace::TaskId;

/// Per-task inputs of the analytical model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskCost {
    /// Architectural instructions executed by the task for one application
    /// execution.
    pub instructions: u64,
    /// Number of L2 misses of the task under the allocation being evaluated.
    pub l2_misses: u64,
    /// Number of L2 hits of the task (accesses that missed the L1).
    pub l2_hits: u64,
}

/// Platform-cost parameters of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Average cycles per instruction when not stalled on the L2 (base CPI
    /// including L1 effects).
    pub base_cpi: f64,
    /// Penalty in cycles of an access served by the L2.
    pub l2_hit_penalty: f64,
    /// Penalty in cycles of an access served by DRAM (an L2 miss).
    pub l2_miss_penalty: f64,
    /// Cycles per task switch.
    pub task_switch_cycles: f64,
    /// Relative energy weight of one off-chip transfer versus one cycle.
    pub dram_energy_weight: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            base_cpi: 1.0,
            l2_hit_penalty: 20.0,
            l2_miss_penalty: 110.0,
            task_switch_cycles: 200.0,
            dram_energy_weight: 8.0,
        }
    }
}

/// The analytical model: execution time per task, completion time per
/// processor, throughput and power proxy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalyticModel {
    /// Per-task costs.
    pub tasks: BTreeMap<TaskId, TaskCost>,
    /// Model parameters.
    pub params: ModelParams,
}

impl AnalyticModel {
    /// Creates a model from per-task costs using default parameters.
    pub fn new(tasks: BTreeMap<TaskId, TaskCost>) -> Self {
        AnalyticModel {
            tasks,
            params: ModelParams::default(),
        }
    }

    /// Execution time of one task in cycles: `t_i(S(t_i))` of §3.1.
    pub fn task_time(&self, task: TaskId) -> f64 {
        let cost = self.tasks.get(&task).copied().unwrap_or_default();
        cost.instructions as f64 * self.params.base_cpi
            + cost.l2_hits as f64 * self.params.l2_hit_penalty
            + cost.l2_misses as f64 * self.params.l2_miss_penalty
    }

    /// Completion time `Y(p_j)` of one processor: the sum of its tasks'
    /// execution times plus the switching overhead (idle time is not known
    /// analytically and is reported by the simulator).
    pub fn processor_time(&self, mapping: &TaskMapping, processor: usize) -> f64 {
        let tasks = mapping.tasks_of(processor);
        let switches = tasks.len().saturating_sub(1) as f64;
        tasks.iter().map(|&t| self.task_time(t)).sum::<f64>()
            + switches * self.params.task_switch_cycles
    }

    /// Application throughput: `1 / max_j Y(p_j)` (executions per cycle).
    pub fn throughput(&self, mapping: &TaskMapping) -> f64 {
        let worst = (0..mapping.processors_used())
            .map(|p| self.processor_time(mapping, p))
            .fold(0.0f64, f64::max);
        if worst == 0.0 {
            0.0
        } else {
            1.0 / worst
        }
    }

    /// Power proxy: total execution time plus energy-weighted off-chip
    /// transfers (minimising the total number of misses minimises this, the
    /// argument of §3.1).
    pub fn power_proxy(&self, mapping: &TaskMapping) -> f64 {
        let total_time: f64 = (0..mapping.processors_used())
            .map(|p| self.processor_time(mapping, p))
            .sum();
        let total_misses: u64 = self.tasks.values().map(|c| c.l2_misses).sum();
        total_time + self.params.dram_energy_weight * total_misses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (AnalyticModel, TaskMapping) {
        let mut tasks = BTreeMap::new();
        tasks.insert(
            TaskId::new(0),
            TaskCost {
                instructions: 1000,
                l2_misses: 10,
                l2_hits: 50,
            },
        );
        tasks.insert(
            TaskId::new(1),
            TaskCost {
                instructions: 2000,
                l2_misses: 100,
                l2_hits: 20,
            },
        );
        tasks.insert(
            TaskId::new(2),
            TaskCost {
                instructions: 500,
                l2_misses: 0,
                l2_hits: 0,
            },
        );
        let mapping = TaskMapping::new(vec![
            vec![TaskId::new(0), TaskId::new(2)],
            vec![TaskId::new(1)],
        ]);
        (AnalyticModel::new(tasks), mapping)
    }

    #[test]
    fn task_time_combines_instructions_and_misses() {
        let (m, _) = model();
        assert!((m.task_time(TaskId::new(0)) - (1000.0 + 50.0 * 20.0 + 10.0 * 110.0)).abs() < 1e-9);
        assert_eq!(m.task_time(TaskId::new(9)), 0.0);
    }

    #[test]
    fn processor_time_sums_tasks_and_switches() {
        let (m, mapping) = model();
        let p0 = m.processor_time(&mapping, 0);
        assert!(
            (p0 - (m.task_time(TaskId::new(0)) + m.task_time(TaskId::new(2)) + 200.0)).abs() < 1e-9
        );
        let p1 = m.processor_time(&mapping, 1);
        assert!((p1 - m.task_time(TaskId::new(1))).abs() < 1e-9);
    }

    #[test]
    fn throughput_follows_the_bottleneck_processor() {
        let (m, mapping) = model();
        let p1 = m.processor_time(&mapping, 1);
        assert!(p1 > m.processor_time(&mapping, 0));
        assert!((m.throughput(&mapping) - 1.0 / p1).abs() < 1e-15);
    }

    #[test]
    fn fewer_misses_improve_throughput_and_power() {
        let (mut better, mapping) = model();
        let baseline = better.clone();
        better.tasks.get_mut(&TaskId::new(1)).unwrap().l2_misses = 10;
        assert!(better.throughput(&mapping) > baseline.throughput(&mapping));
        assert!(better.power_proxy(&mapping) < baseline.power_proxy(&mapping));
    }

    #[test]
    fn empty_model_has_zero_throughput() {
        let m = AnalyticModel::default();
        let mapping = TaskMapping::single_processor(&[]);
        assert_eq!(m.throughput(&mapping), 0.0);
    }
}
