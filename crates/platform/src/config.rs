//! Platform configuration.

use compmem_cache::CacheConfig;
use compmem_trace::{Addr, RegionId, TaskId};

use crate::error::PlatformError;

/// Regions of the run-time system, touched on every task switch.
///
/// The paper's experimental set-up gives the run-time operating system its
/// own exclusive cache partitions (the `rt data` / `rt bss` rows of Tables 1
/// and 2); modelling the switch-time traffic makes those partitions earn
/// their keep in the reproduction as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsRegions {
    /// Task identifier the run-time system's accesses are attributed to.
    pub os_task: TaskId,
    /// Initialised data region of the run-time system.
    pub rt_data: RegionId,
    /// First byte of the run-time system's initialised data region.
    pub rt_data_base: Addr,
    /// Zero-initialised data region of the run-time system.
    pub rt_bss: RegionId,
    /// First byte of the run-time system's zero-initialised data region.
    pub rt_bss_base: Addr,
    /// Number of distinct lines of each region touched per task switch.
    pub lines_per_switch: u32,
}

/// Configuration of one CAKE tile.
///
/// The defaults reproduce the instance used in the paper's evaluation:
/// four processors, 16 KB 4-way private L1 I/D caches, a 12-cycle shared L2
/// and 90-cycle DRAM behind an 8-byte-per-cycle arbitrated bus, and a
/// 200-cycle task-switch penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Number of processors on the tile.
    pub num_processors: usize,
    /// Configuration of each private L1 instruction cache.
    pub l1i: CacheConfig,
    /// Configuration of each private L1 data cache.
    pub l1d: CacheConfig,
    /// Latency of an L2 hit in cycles (includes the translation-table
    /// lookup of the partitioned organisation).
    pub l2_hit_latency: u32,
    /// Additional latency of an access served by DRAM, in cycles.
    pub dram_latency: u32,
    /// Bus bandwidth in bytes per cycle for L2 refills and write-backs.
    pub bus_bytes_per_cycle: u32,
    /// Cycles consumed by a task switch (scheduler plus register save).
    pub task_switch_cycles: u32,
    /// Scheduling quantum in executed instructions; `None` means tasks run
    /// until they block or finish (plain data-driven scheduling).
    pub quantum_instructions: Option<u64>,
    /// Hard limit on simulated cycles per processor (deadlock backstop).
    pub cycle_limit: u64,
    /// Run-time-system regions touched on every task switch, if modelled.
    pub os_regions: Option<OsRegions>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            num_processors: 4,
            l1i: CacheConfig::paper_l1(),
            l1d: CacheConfig::paper_l1(),
            l2_hit_latency: 12,
            dram_latency: 90,
            bus_bytes_per_cycle: 8,
            task_switch_cycles: 200,
            quantum_instructions: None,
            cycle_limit: 20_000_000_000,
            os_regions: None,
        }
    }
}

impl PlatformConfig {
    /// Creates the default (paper) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of processors.
    #[must_use]
    pub fn processors(mut self, n: usize) -> Self {
        self.num_processors = n;
        self
    }

    /// Sets the L1 instruction- and data-cache configuration (both levels use
    /// the same organisation).
    #[must_use]
    pub fn l1(mut self, config: CacheConfig) -> Self {
        self.l1i = config;
        self.l1d = config;
        self
    }

    /// Sets the L2 hit latency in cycles.
    #[must_use]
    pub fn l2_latency(mut self, cycles: u32) -> Self {
        self.l2_hit_latency = cycles;
        self
    }

    /// Sets the DRAM latency in cycles.
    #[must_use]
    pub fn dram(mut self, cycles: u32) -> Self {
        self.dram_latency = cycles;
        self
    }

    /// Sets the task-switch penalty in cycles.
    #[must_use]
    pub fn task_switch(mut self, cycles: u32) -> Self {
        self.task_switch_cycles = cycles;
        self
    }

    /// Sets the scheduling quantum in instructions.
    #[must_use]
    pub fn quantum(mut self, instructions: u64) -> Self {
        self.quantum_instructions = Some(instructions);
        self
    }

    /// Sets the run-time-system regions touched on each task switch.
    #[must_use]
    pub fn with_os_regions(mut self, os: OsRegions) -> Self {
        self.os_regions = Some(os);
        self
    }

    /// Sets the cycle limit used as a deadlock backstop.
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] if the processor count or
    /// bus bandwidth is zero.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.num_processors == 0 {
            return Err(PlatformError::InvalidConfig {
                parameter: "num_processors",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.bus_bytes_per_cycle == 0 {
            return Err(PlatformError::InvalidConfig {
                parameter: "bus_bytes_per_cycle",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.cycle_limit == 0 {
            return Err(PlatformError::InvalidConfig {
                parameter: "cycle_limit",
                reason: "must be non-zero".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let c = PlatformConfig::default();
        assert_eq!(c.num_processors, 4);
        assert_eq!(c.l1d.geometry().size_bytes(), 16 * 1024);
        assert_eq!(c.l2_hit_latency, 12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides() {
        let c = PlatformConfig::default()
            .processors(2)
            .l2_latency(20)
            .dram(120)
            .task_switch(100)
            .quantum(50_000)
            .with_cycle_limit(1_000);
        assert_eq!(c.num_processors, 2);
        assert_eq!(c.l2_hit_latency, 20);
        assert_eq!(c.dram_latency, 120);
        assert_eq!(c.task_switch_cycles, 100);
        assert_eq!(c.quantum_instructions, Some(50_000));
        assert_eq!(c.cycle_limit, 1_000);
    }

    #[test]
    fn zero_processors_rejected() {
        assert!(PlatformConfig::default().processors(0).validate().is_err());
        let c = PlatformConfig {
            bus_bytes_per_cycle: 0,
            ..PlatformConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(PlatformConfig::default()
            .with_cycle_limit(0)
            .validate()
            .is_err());
    }
}
