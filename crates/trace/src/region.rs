//! Memory regions: the "memory-active entities" the paper allocates cache to.
//!
//! The paper partitions the shared L2 between *tasks*, *communication
//! buffers* (YAPI FIFOs and frame buffers) and the *shared static sections*
//! (application data/bss and run-time-system data/bss). A [`Region`] is one
//! such entity together with the address interval it occupies; the
//! [`RegionTable`] is the interval table the operating system loads into the
//! cache controller so that every access can be attributed to a region.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::{Addr, LINE_SIZE_BYTES};
use crate::error::TraceError;

/// Identifier of a task in the application graph.
///
/// Tasks are the nodes of the YAPI process network; the identifier is dense
/// (0..n) and assigned by the application builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates a task identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        TaskId(index)
    }

    /// Returns the dense index of the task.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of an inter-task communication buffer (FIFO or frame buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(u32);

impl BufferId {
    /// Creates a buffer identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        BufferId(index)
    }

    /// Returns the dense index of the buffer.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Identifier of a memory region, dense over the whole address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        RegionId(index)
    }

    /// Returns the dense index of the region.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// What a region is used for, i.e. which "memory-active entity" owns it.
///
/// The cache-allocation strategy of the paper treats the kinds differently:
/// task-private regions are cached in the task's exclusive partition, each
/// communication buffer gets its own partition, and the shared static
/// sections get small dedicated partitions so that they cannot evict any
/// task's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Instructions of a task.
    TaskCode {
        /// Owning task.
        task: TaskId,
    },
    /// Statically initialised private data of a task.
    TaskData {
        /// Owning task.
        task: TaskId,
    },
    /// Zero-initialised private data (bss) of a task.
    TaskBss {
        /// Owning task.
        task: TaskId,
    },
    /// Heap storage privately owned by a task (dedicated `malloc` arena).
    TaskHeap {
        /// Owning task.
        task: TaskId,
    },
    /// Stack of a task.
    TaskStack {
        /// Owning task.
        task: TaskId,
    },
    /// A bounded YAPI FIFO channel between two tasks.
    Fifo {
        /// Buffer identifier of the FIFO.
        buffer: BufferId,
    },
    /// A frame buffer produced completely before being consumed.
    FrameBuffer {
        /// Buffer identifier of the frame buffer.
        buffer: BufferId,
    },
    /// Application-wide statically initialised data shared by all tasks.
    AppData,
    /// Application-wide zero-initialised data shared by all tasks.
    AppBss,
    /// Run-time system (operating system) initialised data.
    RtData,
    /// Run-time system (operating system) zero-initialised data.
    RtBss,
}

impl RegionKind {
    /// Returns the owning task for task-private region kinds.
    pub fn owner_task(&self) -> Option<TaskId> {
        match *self {
            RegionKind::TaskCode { task }
            | RegionKind::TaskData { task }
            | RegionKind::TaskBss { task }
            | RegionKind::TaskHeap { task }
            | RegionKind::TaskStack { task } => Some(task),
            _ => None,
        }
    }

    /// Returns the communication buffer for FIFO / frame-buffer kinds.
    pub fn buffer(&self) -> Option<BufferId> {
        match *self {
            RegionKind::Fifo { buffer } | RegionKind::FrameBuffer { buffer } => Some(buffer),
            _ => None,
        }
    }

    /// Returns `true` for the shared static sections (application and
    /// run-time-system data / bss).
    pub fn is_shared_static(&self) -> bool {
        matches!(
            self,
            RegionKind::AppData | RegionKind::AppBss | RegionKind::RtData | RegionKind::RtBss
        )
    }

    /// Returns `true` for inter-task communication buffers.
    pub fn is_communication(&self) -> bool {
        self.buffer().is_some()
    }

    /// Returns `true` for regions private to a single task.
    pub fn is_task_private(&self) -> bool {
        self.owner_task().is_some()
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RegionKind::TaskCode { task } => write!(f, "code({task})"),
            RegionKind::TaskData { task } => write!(f, "data({task})"),
            RegionKind::TaskBss { task } => write!(f, "bss({task})"),
            RegionKind::TaskHeap { task } => write!(f, "heap({task})"),
            RegionKind::TaskStack { task } => write!(f, "stack({task})"),
            RegionKind::Fifo { buffer } => write!(f, "fifo({buffer})"),
            RegionKind::FrameBuffer { buffer } => write!(f, "frame({buffer})"),
            RegionKind::AppData => write!(f, "app.data"),
            RegionKind::AppBss => write!(f, "app.bss"),
            RegionKind::RtData => write!(f, "rt.data"),
            RegionKind::RtBss => write!(f, "rt.bss"),
        }
    }
}

/// A named, contiguous, line-aligned address interval owned by one entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Dense identifier of the region.
    pub id: RegionId,
    /// Human-readable name, e.g. `"idct1.code"` or `"fifo.vld_to_isiq"`.
    pub name: String,
    /// What the region is used for.
    pub kind: RegionKind,
    /// First byte of the region (line aligned).
    pub base: Addr,
    /// Size of the region in bytes (multiple of the line size).
    pub size: u64,
}

impl Region {
    /// Returns the first address past the end of the region.
    pub fn end(&self) -> Addr {
        self.base.offset(self.size)
    }

    /// Returns `true` if `addr` lies inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Returns the number of cache lines spanned by the region.
    pub fn lines(&self) -> u64 {
        self.size / LINE_SIZE_BYTES
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}..{} ({} B)",
            self.name,
            self.kind,
            self.base,
            self.end(),
            self.size
        )
    }
}

/// The interval table that maps addresses to regions.
///
/// This is the software model of the table the operating system loads into
/// the partitionable L2 controller (the "third alternative" of §4.2 of the
/// paper): on every access the cache looks up the interval containing the
/// address to find the owning region and, from it, the partition to index.
///
/// ```
/// use compmem_trace::{Addr, RegionKind, RegionTable, TaskId};
/// # fn main() -> Result<(), compmem_trace::TraceError> {
/// let mut table = RegionTable::new();
/// let code = table.insert("t0.code", RegionKind::TaskCode { task: TaskId::new(0) }, 4096)?;
/// let region = table.region(code);
/// assert!(table.lookup(region.base).is_some());
/// assert_eq!(table.lookup(region.base).unwrap().id, code);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionTable {
    regions: Vec<Region>,
    /// Interval index: base address -> region index, for binary search.
    by_base: BTreeMap<u64, usize>,
    next_base: u64,
}

impl RegionTable {
    /// Creates an empty region table.
    ///
    /// The first allocated region starts at a non-zero base so that address
    /// zero is never valid (helps catch uninitialised-address bugs).
    pub fn new() -> Self {
        RegionTable {
            regions: Vec::new(),
            by_base: BTreeMap::new(),
            next_base: LINE_SIZE_BYTES,
        }
    }

    /// Allocates a new region of `size` bytes at the next free base address.
    ///
    /// The size is rounded up to a whole number of cache lines so that no
    /// cache line is ever shared between two regions.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyRegion`] if `size` is zero and
    /// [`TraceError::DuplicateRegionName`] if `name` is already in use.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        kind: RegionKind,
        size: u64,
    ) -> Result<RegionId, TraceError> {
        let name = name.into();
        if size == 0 {
            return Err(TraceError::EmptyRegion { name });
        }
        if self.regions.iter().any(|r| r.name == name) {
            return Err(TraceError::DuplicateRegionName { name });
        }
        let size = size.div_ceil(LINE_SIZE_BYTES) * LINE_SIZE_BYTES;
        let id = RegionId::new(self.regions.len() as u32);
        let base = Addr::new(self.next_base);
        self.next_base += size;
        let index = self.regions.len();
        self.regions.push(Region {
            id,
            name,
            kind,
            base,
            size,
        });
        self.by_base.insert(base.value(), index);
        Ok(id)
    }

    /// Returns the region with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier was not produced by this table.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Returns the region containing `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<&Region> {
        let (_, &index) = self.by_base.range(..=addr.value()).next_back()?;
        let region = &self.regions[index];
        region.contains(addr).then_some(region)
    }

    /// Returns the region with the given name, if any.
    pub fn by_name(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Returns all regions in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Returns the number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if no region has been allocated.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Returns an iterator over the regions in allocation order.
    pub fn iter(&self) -> std::slice::Iter<'_, Region> {
        self.regions.iter()
    }

    /// Total footprint in bytes of all allocated regions.
    pub fn total_footprint(&self) -> u64 {
        self.regions.iter().map(|r| r.size).sum()
    }

    /// Returns all regions owned by `task` (code, data, bss, heap, stack).
    pub fn task_regions(&self, task: TaskId) -> Vec<&Region> {
        self.regions
            .iter()
            .filter(|r| r.kind.owner_task() == Some(task))
            .collect()
    }

    /// Returns all communication-buffer regions (FIFOs and frame buffers).
    pub fn buffer_regions(&self) -> Vec<&Region> {
        self.regions
            .iter()
            .filter(|r| r.kind.is_communication())
            .collect()
    }
}

impl<'a> IntoIterator for &'a RegionTable {
    type Item = &'a Region;
    type IntoIter = std::slice::Iter<'a, Region>;

    fn into_iter(self) -> Self::IntoIter {
        self.regions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(sizes: &[u64]) -> RegionTable {
        let mut t = RegionTable::new();
        for (i, &s) in sizes.iter().enumerate() {
            t.insert(
                format!("r{i}"),
                RegionKind::TaskData {
                    task: TaskId::new(i as u32),
                },
                s,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn regions_are_line_aligned_and_disjoint() {
        let t = table_with(&[1, 63, 64, 65, 1000]);
        for r in t.iter() {
            assert_eq!(r.base.value() % LINE_SIZE_BYTES, 0);
            assert_eq!(r.size % LINE_SIZE_BYTES, 0);
        }
        for (a, b) in t.iter().zip(t.iter().skip(1)) {
            assert!(a.end() <= b.base, "{a} overlaps {b}");
        }
    }

    #[test]
    fn lookup_finds_containing_region() {
        let t = table_with(&[128, 256, 64]);
        for r in t.iter() {
            assert_eq!(t.lookup(r.base).unwrap().id, r.id);
            assert_eq!(t.lookup(r.base.offset(r.size - 1)).unwrap().id, r.id);
        }
        assert!(t.lookup(Addr::new(0)).is_none());
        let last = t.regions().last().unwrap();
        assert!(t.lookup(last.end()).is_none());
    }

    #[test]
    fn empty_region_is_rejected() {
        let mut t = RegionTable::new();
        let err = t.insert("zero", RegionKind::AppData, 0).unwrap_err();
        assert!(matches!(err, TraceError::EmptyRegion { .. }));
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let mut t = RegionTable::new();
        t.insert("x", RegionKind::AppData, 64).unwrap();
        let err = t.insert("x", RegionKind::AppBss, 64).unwrap_err();
        assert!(matches!(err, TraceError::DuplicateRegionName { .. }));
    }

    #[test]
    fn kind_classification() {
        let task = TaskId::new(3);
        assert_eq!(RegionKind::TaskHeap { task }.owner_task(), Some(task));
        assert!(RegionKind::AppBss.is_shared_static());
        assert!(RegionKind::Fifo {
            buffer: BufferId::new(1)
        }
        .is_communication());
        assert!(!RegionKind::RtData.is_task_private());
    }

    #[test]
    fn task_and_buffer_queries() {
        let mut t = RegionTable::new();
        let task = TaskId::new(0);
        t.insert("t0.code", RegionKind::TaskCode { task }, 128)
            .unwrap();
        t.insert("t0.data", RegionKind::TaskData { task }, 128)
            .unwrap();
        t.insert(
            "f0",
            RegionKind::Fifo {
                buffer: BufferId::new(0),
            },
            256,
        )
        .unwrap();
        t.insert("app.data", RegionKind::AppData, 64).unwrap();
        assert_eq!(t.task_regions(task).len(), 2);
        assert_eq!(t.buffer_regions().len(), 1);
        assert_eq!(t.total_footprint(), 128 + 128 + 256 + 64);
    }

    #[test]
    fn by_name_finds_region() {
        let t = table_with(&[64, 64]);
        assert!(t.by_name("r1").is_some());
        assert!(t.by_name("nope").is_none());
    }

    #[test]
    fn display_formats() {
        let t = table_with(&[64]);
        let r = &t.regions()[0];
        let s = r.to_string();
        assert!(s.contains("r0"));
        assert!(s.contains("data(T0)"));
    }
}
