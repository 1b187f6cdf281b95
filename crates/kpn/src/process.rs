//! The process trait and per-task memory layout.

use compmem_trace::{Addr, AddressSpace, RegionId, RegionKind, TaskId};

use crate::context::FireContext;
use crate::error::KpnError;

/// Result of one firing attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireResult {
    /// The process performed one grain of work.
    Fired,
    /// The process cannot progress: an input FIFO is empty or an output FIFO
    /// is full (YAPI blocking read / blocking write).
    Blocked,
    /// The process has produced all its output and will never fire again.
    Finished,
}

/// A YAPI task: a sequential process that communicates through FIFOs and
/// frame buffers.
///
/// Firing granularity is chosen by the implementation — typically one
/// macroblock, one image line or one token batch — and must be small enough
/// that a firing never needs to block halfway: the process checks
/// availability with [`FireContext::available`] / [`FireContext::space`]
/// first and returns [`FireResult::Blocked`] if it cannot complete a whole
/// firing.
pub trait Process {
    /// Human-readable name of the process (used in reports and tables).
    fn name(&self) -> &str;

    /// Attempts one firing.
    fn fire(&mut self, ctx: &mut FireContext<'_>) -> FireResult;
}

/// The memory layout of one task: where its code lives (for the
/// instruction-fetch model) and how large its steady-state loop body is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskLayout {
    /// The task this layout belongs to.
    pub task: TaskId,
    /// Region holding the task's instructions.
    pub code_region: RegionId,
    /// First byte of the code region.
    pub code_base: Addr,
    /// Size of the code footprint in bytes.
    pub code_bytes: u64,
}

impl TaskLayout {
    /// Allocates a code region of `code_bytes` named `"<name>.code"` in
    /// `space` and returns the corresponding layout.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from the address space (duplicate name,
    /// zero size).
    pub fn with_code_size(
        space: &mut AddressSpace,
        name: &str,
        task: TaskId,
        code_bytes: u64,
    ) -> Result<Self, KpnError> {
        let code_region = space.allocate_region(
            format!("{name}.code"),
            RegionKind::TaskCode { task },
            code_bytes,
        )?;
        let code_base = space.region(code_region).base;
        Ok(TaskLayout {
            task,
            code_region,
            code_base,
            code_bytes: space.region(code_region).size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_allocates_code_region() {
        let mut space = AddressSpace::new();
        let t = TaskId::new(3);
        let layout = TaskLayout::with_code_size(&mut space, "idct", t, 3000).unwrap();
        assert_eq!(layout.task, t);
        let region = space.region(layout.code_region);
        assert_eq!(region.name, "idct.code");
        assert_eq!(region.kind, RegionKind::TaskCode { task: t });
        assert_eq!(layout.code_bytes, region.size);
        assert!(layout.code_bytes >= 3000);
        assert_eq!(layout.code_base, region.base);
    }

    #[test]
    fn duplicate_layout_name_is_rejected() {
        let mut space = AddressSpace::new();
        let t = TaskId::new(0);
        TaskLayout::with_code_size(&mut space, "x", t, 64).unwrap();
        assert!(TaskLayout::with_code_size(&mut space, "x", t, 64).is_err());
    }

    #[test]
    fn fire_result_is_comparable() {
        assert_eq!(FireResult::Fired, FireResult::Fired);
        assert_ne!(FireResult::Blocked, FireResult::Finished);
    }
}
