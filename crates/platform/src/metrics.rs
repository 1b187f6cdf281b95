//! Simulation reports: the quantities the paper's evaluation tables are
//! built from.

use std::collections::BTreeMap;

use compmem_cache::{CacheStats, FlushStats, KeyStats};
use compmem_trace::{RegionId, TaskId};

/// One fired repartition event of a
/// [`PartitionSchedule`](compmem_cache::PartitionSchedule) run: when it
/// applied, what it flushed, and the L2 counters at the boundary (so
/// per-segment miss counts fall out as differences).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepartitionRecord {
    /// The schedule step that fired (1-based: step 0 is the organisation
    /// the run started under).
    pub step: usize,
    /// The scheduled boundary cycle the step applied at.
    pub at_cycle: u64,
    /// Lines invalidated / written back by the switch.
    pub flush: FlushStats,
    /// L2 accesses accumulated before the switch.
    pub l2_accesses_before: u64,
    /// L2 misses accumulated before the switch.
    pub l2_misses_before: u64,
}

/// Execution summary of one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorReport {
    /// Total simulated cycles on this processor (its local clock at the end).
    pub cycles: u64,
    /// Cycles spent executing instructions.
    pub busy_cycles: u64,
    /// Cycles stalled on the memory hierarchy.
    pub stall_cycles: u64,
    /// Cycles spent switching tasks.
    pub switch_cycles: u64,
    /// Cycles spent idle.
    pub idle_cycles: u64,
    /// Architectural instructions executed.
    pub instructions: u64,
    /// Number of task switches.
    pub task_switches: u64,
}

impl ProcessorReport {
    /// Cycles per instruction, counting busy, stall and switch cycles (the
    /// processor-centric CPI the paper reports), or zero if the processor
    /// executed nothing.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.busy_cycles + self.stall_cycles + self.switch_cycles) as f64
                / self.instructions as f64
        }
    }

    /// Fraction of cycles the processor was not idle.
    pub fn utilisation(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            1.0 - self.idle_cycles as f64 / self.cycles as f64
        }
    }
}

/// Full result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemReport {
    /// Per-processor execution summaries.
    pub processors: Vec<ProcessorReport>,
    /// Aggregate statistics of all private L1 caches.
    pub l1: CacheStats,
    /// Statistics of the shared L2 cache.
    pub l2: CacheStats,
    /// L2 accesses and misses per task.
    pub l2_by_task: BTreeMap<TaskId, KeyStats>,
    /// L2 accesses and misses per region.
    pub l2_by_region: BTreeMap<RegionId, KeyStats>,
    /// Number of accesses served by DRAM.
    pub dram_accesses: u64,
    /// Number of dirty L2 lines written back to DRAM.
    pub dram_writebacks: u64,
    /// Total cycles requests waited for the shared bus.
    pub bus_wait_cycles: u64,
    /// Total bytes moved over the shared bus.
    pub bus_bytes: u64,
    /// Wall-clock of the run: the largest processor local clock.
    pub makespan_cycles: u64,
    /// The repartition events that fired during the run, in schedule
    /// order (empty for static runs).
    pub repartitions: Vec<RepartitionRecord>,
}

impl SystemReport {
    /// Total instructions executed over all processors.
    pub fn total_instructions(&self) -> u64 {
        self.processors.iter().map(|p| p.instructions).sum()
    }

    /// Average CPI over all processors that executed instructions.
    pub fn average_cpi(&self) -> f64 {
        let active: Vec<&ProcessorReport> = self
            .processors
            .iter()
            .filter(|p| p.instructions > 0)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().map(|p| p.cpi()).sum::<f64>() / active.len() as f64
        }
    }

    /// Miss rate of the shared L2.
    pub fn l2_miss_rate(&self) -> f64 {
        self.l2.miss_rate()
    }

    /// Total L2 misses.
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses
    }

    /// L2 misses of one task (zero if the task never reached the L2).
    pub fn l2_misses_of_task(&self, task: TaskId) -> u64 {
        self.l2_by_task.get(&task).map_or(0, |s| s.misses)
    }

    /// L2 misses of one region (zero if the region never reached the L2).
    pub fn l2_misses_of_region(&self, region: RegionId) -> u64 {
        self.l2_by_region.get(&region).map_or(0, |s| s.misses)
    }

    /// Every repartition that fired during the run, folded into one
    /// flush total.
    pub fn total_flush(&self) -> FlushStats {
        let mut total = FlushStats::default();
        for record in &self.repartitions {
            total.absorb(record.flush);
        }
        total
    }

    /// The throughput figure of §3.1: the inverse of the largest
    /// per-processor completion time (application executions per cycle).
    pub fn throughput(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            1.0 / self.makespan_cycles as f64
        }
    }

    /// The memory-traffic-dominated power proxy of §3.1: total execution
    /// cycles plus a weighted count of off-chip transfers.
    pub fn power_proxy(&self, cycle_weight: f64, dram_weight: f64) -> f64 {
        let cycles: u64 = self.processors.iter().map(|p| p.cycles).sum();
        cycle_weight * cycles as f64
            + dram_weight * (self.dram_accesses + self.dram_writebacks) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_counts_busy_stall_and_switch() {
        let p = ProcessorReport {
            cycles: 250,
            busy_cycles: 100,
            stall_cycles: 40,
            switch_cycles: 10,
            idle_cycles: 100,
            instructions: 100,
            task_switches: 1,
        };
        assert!((p.cpi() - 1.5).abs() < 1e-12);
        assert!((p.utilisation() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_instruction_processor_has_zero_cpi() {
        let p = ProcessorReport::default();
        assert_eq!(p.cpi(), 0.0);
        assert_eq!(p.utilisation(), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let mut r = SystemReport::default();
        r.processors.push(ProcessorReport {
            cycles: 100,
            busy_cycles: 80,
            stall_cycles: 20,
            switch_cycles: 0,
            idle_cycles: 0,
            instructions: 80,
            task_switches: 0,
        });
        r.processors.push(ProcessorReport::default());
        r.makespan_cycles = 100;
        assert_eq!(r.total_instructions(), 80);
        assert!((r.average_cpi() - 1.25).abs() < 1e-12);
        assert!((r.throughput() - 0.01).abs() < 1e-12);
        assert_eq!(r.l2_misses_of_task(TaskId::new(0)), 0);
        assert_eq!(r.l2_misses_of_region(RegionId::new(0)), 0);
        assert!(r.power_proxy(1.0, 10.0) >= 100.0);
    }
}
