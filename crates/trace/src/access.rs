//! Individual memory references.

use std::fmt;

use crate::addr::Addr;
use crate::region::{RegionId, TaskId};

/// The kind of a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (read of the task's code region).
    InstrFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// Returns `true` for loads and instruction fetches.
    pub const fn is_read(self) -> bool {
        matches!(self, AccessKind::Load | AccessKind::InstrFetch)
    }

    /// Returns `true` for stores.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }

    /// Returns `true` for instruction fetches.
    pub const fn is_instruction(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::InstrFetch => "ifetch",
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        };
        f.write_str(s)
    }
}

/// One memory reference issued by a task.
///
/// An access carries the issuing task and the region the address belongs to,
/// so that the cache models can account misses per task and per
/// communication buffer exactly as the paper's Figure 2 does, and so the
/// partitioned L2 can find the partition to index without a separate lookup
/// on the critical path of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address referenced.
    pub addr: Addr,
    /// Kind of the reference.
    pub kind: AccessKind,
    /// Number of bytes referenced (1, 2, 4 or 8 for data, a line for code).
    pub size: u16,
    /// Task that issued the reference.
    pub task: TaskId,
    /// Region the address belongs to.
    pub region: RegionId,
}

impl Access {
    /// Creates a data load access.
    pub const fn load(addr: Addr, size: u16, task: TaskId, region: RegionId) -> Self {
        Access {
            addr,
            kind: AccessKind::Load,
            size,
            task,
            region,
        }
    }

    /// Creates a data store access.
    pub const fn store(addr: Addr, size: u16, task: TaskId, region: RegionId) -> Self {
        Access {
            addr,
            kind: AccessKind::Store,
            size,
            task,
            region,
        }
    }

    /// Creates an instruction-fetch access.
    pub const fn ifetch(addr: Addr, size: u16, task: TaskId, region: RegionId) -> Self {
        Access {
            addr,
            kind: AccessKind::InstrFetch,
            size,
            task,
            region,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}B by {} in {}",
            self.kind, self.addr, self.size, self.task, self.region
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Load.is_read());
        assert!(AccessKind::InstrFetch.is_read());
        assert!(!AccessKind::Store.is_read());
        assert!(AccessKind::Store.is_write());
        assert!(AccessKind::InstrFetch.is_instruction());
        assert!(!AccessKind::Load.is_instruction());
    }

    #[test]
    fn constructors_set_kind() {
        let t = TaskId::new(1);
        let r = RegionId::new(2);
        assert_eq!(Access::load(Addr::new(8), 4, t, r).kind, AccessKind::Load);
        assert_eq!(Access::store(Addr::new(8), 4, t, r).kind, AccessKind::Store);
        assert_eq!(
            Access::ifetch(Addr::new(8), 64, t, r).kind,
            AccessKind::InstrFetch
        );
    }

    #[test]
    fn display_mentions_task_and_region() {
        let a = Access::store(Addr::new(0x100), 4, TaskId::new(3), RegionId::new(7));
        let s = a.to_string();
        assert!(s.contains("store"));
        assert!(s.contains("T3"));
        assert!(s.contains("R7"));
    }
}
