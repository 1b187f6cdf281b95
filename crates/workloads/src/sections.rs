//! Shared static sections: application data/bss and run-time-system
//! data/bss.
//!
//! On the paper's platform the statically allocated application data (e.g.
//! quantisation and scan tables) and the run-time system's data are shared
//! between tasks, so — with the same reasoning as for communication
//! buffers — they receive their own exclusive cache partitions (the last
//! rows of Tables 1 and 2).

use compmem_platform::OsRegions;
use compmem_trace::{AddressSpace, RegionId, RegionKind, ScalarArray, TaskId};

use crate::dct::{zigzag_order, DEFAULT_QUANT_TABLE};
use crate::error::WorkloadError;

/// Offset (in 4-byte elements) of the quantisation table inside `app.data`.
pub(crate) const APP_DATA_QUANT_OFFSET: usize = 0;
/// Offset (in 4-byte elements) of the zig-zag table inside `app.data`.
pub(crate) const APP_DATA_ZIGZAG_OFFSET: usize = 64;

/// The four shared static sections of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSections {
    /// Application initialised data (constant tables shared by all tasks).
    pub app_data: RegionId,
    /// Application zero-initialised data (shared counters and scratch).
    pub app_bss: RegionId,
    /// Run-time-system initialised data.
    pub rt_data: RegionId,
    /// Run-time-system zero-initialised data.
    pub rt_bss: RegionId,
}

impl SharedSections {
    /// Allocates the four sections in `space` with the given sizes in bytes.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from the address space.
    pub fn allocate(
        space: &mut AddressSpace,
        app_data_bytes: u64,
        app_bss_bytes: u64,
        rt_data_bytes: u64,
        rt_bss_bytes: u64,
    ) -> Result<Self, WorkloadError> {
        Ok(SharedSections {
            app_data: space.allocate_region("app.data", RegionKind::AppData, app_data_bytes)?,
            app_bss: space.allocate_region("app.bss", RegionKind::AppBss, app_bss_bytes)?,
            rt_data: space.allocate_region("rt.data", RegionKind::RtData, rt_data_bytes)?,
            rt_bss: space.allocate_region("rt.bss", RegionKind::RtBss, rt_bss_bytes)?,
        })
    }

    /// Returns a fresh handle onto `app.data`, pre-initialised with the
    /// shared constant tables (quantisation table at element
    /// `APP_DATA_QUANT_OFFSET`, zig-zag order at
    /// `APP_DATA_ZIGZAG_OFFSET`).
    ///
    /// Each process takes its own handle; the tables are read-only so the
    /// duplicated functional storage is irrelevant — all handles emit
    /// accesses to the same addresses.
    ///
    /// # Errors
    ///
    /// Propagates errors from the address space.
    pub fn app_data_tables(&self, space: &AddressSpace) -> Result<ScalarArray, WorkloadError> {
        let mut array = space.array(self.app_data)?;
        for (i, &q) in DEFAULT_QUANT_TABLE.iter().enumerate() {
            array.poke(APP_DATA_QUANT_OFFSET + i, q);
        }
        for (i, &z) in zigzag_order().iter().enumerate() {
            array.poke(APP_DATA_ZIGZAG_OFFSET + i, z as i32);
        }
        Ok(array)
    }

    /// Builds the [`OsRegions`] descriptor the platform uses to model the
    /// run-time system's traffic on every task switch.
    pub fn os_regions(
        &self,
        space: &AddressSpace,
        os_task: TaskId,
        lines_per_switch: u32,
    ) -> OsRegions {
        OsRegions {
            os_task,
            rt_data: self.rt_data,
            rt_data_base: space.region(self.rt_data).base,
            rt_bss: self.rt_bss,
            rt_bss_base: space.region(self.rt_bss).base,
            lines_per_switch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_are_allocated_with_the_right_kinds() {
        let mut space = AddressSpace::new();
        let s = SharedSections::allocate(&mut space, 4096, 2048, 1024, 1024).unwrap();
        assert_eq!(space.region(s.app_data).kind, RegionKind::AppData);
        assert_eq!(space.region(s.app_bss).kind, RegionKind::AppBss);
        assert_eq!(space.region(s.rt_data).kind, RegionKind::RtData);
        assert_eq!(space.region(s.rt_bss).kind, RegionKind::RtBss);
    }

    #[test]
    fn app_data_tables_hold_quant_and_zigzag() {
        let mut space = AddressSpace::new();
        let s = SharedSections::allocate(&mut space, 4096, 2048, 1024, 1024).unwrap();
        let tables = s.app_data_tables(&space).unwrap();
        assert_eq!(tables.peek(APP_DATA_QUANT_OFFSET), 16);
        assert_eq!(tables.peek(APP_DATA_ZIGZAG_OFFSET), 0);
        assert_eq!(tables.peek(APP_DATA_ZIGZAG_OFFSET + 1), 1);
        assert_eq!(tables.peek(APP_DATA_ZIGZAG_OFFSET + 2), 8);
    }

    #[test]
    fn os_regions_point_into_rt_sections() {
        let mut space = AddressSpace::new();
        let s = SharedSections::allocate(&mut space, 4096, 2048, 1024, 1024).unwrap();
        let os = s.os_regions(&space, TaskId::new(42), 4);
        assert_eq!(os.rt_data, s.rt_data);
        assert_eq!(os.rt_data_base, space.region(s.rt_data).base);
        assert_eq!(os.lines_per_switch, 4);
        assert_eq!(os.os_task, TaskId::new(42));
    }
}
