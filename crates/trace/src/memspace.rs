//! Instrumented address space used by the functional workloads.
//!
//! The paper's workloads are real TriMedia binaries; the reproduction runs
//! functional Rust implementations of the same task graphs instead. To make
//! those implementations produce realistic address streams, all their state
//! lives in [`ScalarArray`]s allocated from an [`AddressSpace`]: every element
//! read or write emits an [`Access`] with the correct byte address, task and
//! region attribution.

use crate::access::Access;
use crate::addr::Addr;
use crate::error::TraceError;
use crate::region::{Region, RegionId, RegionKind, RegionTable, TaskId};
use crate::sink::AccessSink;

/// Allocator of the simulated linear address space.
///
/// Thin wrapper around a [`RegionTable`] that also hands out instrumented
/// arrays backed by the allocated regions.
///
/// ```
/// use compmem_trace::{AddressSpace, RegionKind, TaskId, TraceBuffer};
/// # fn main() -> Result<(), compmem_trace::TraceError> {
/// let mut space = AddressSpace::new();
/// let t = TaskId::new(0);
/// let r = space.allocate_region("t0.data", RegionKind::TaskData { task: t }, 1024)?;
/// let mut a = space.array(r)?;
/// let mut sink = TraceBuffer::new();
/// a.write(&mut sink, t, 0, 7);
/// assert_eq!(a.read(&mut sink, t, 0), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    table: RegionTable,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            table: RegionTable::new(),
        }
    }

    /// Allocates a region of `size` bytes and returns its identifier.
    ///
    /// # Errors
    ///
    /// See [`RegionTable::insert`].
    pub fn allocate_region(
        &mut self,
        name: impl Into<String>,
        kind: RegionKind,
        size: u64,
    ) -> Result<RegionId, TraceError> {
        self.table.insert(name, kind, size)
    }

    /// Returns the metadata of a region.
    pub fn region(&self, id: RegionId) -> &Region {
        self.table.region(id)
    }

    /// Returns the underlying region table (e.g. to load it into the
    /// partitioned cache controller).
    pub fn table(&self) -> &RegionTable {
        &self.table
    }

    /// Creates an instrumented array of 4-byte elements covering `region`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownRegion`] if `region` was not allocated
    /// from this space.
    pub fn array(&self, region: RegionId) -> Result<ScalarArray, TraceError> {
        self.array_with_elem_size(region, 4)
    }

    /// Creates an instrumented array with the given element size in bytes
    /// (1, 2, 4 or 8) covering `region`.
    ///
    /// The array length is the region size divided by the element size.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownRegion`] if `region` was not allocated
    /// from this space.
    ///
    /// # Panics
    ///
    /// Panics if `elem_size` is not 1, 2, 4 or 8.
    pub fn array_with_elem_size(
        &self,
        region: RegionId,
        elem_size: u16,
    ) -> Result<ScalarArray, TraceError> {
        assert!(
            matches!(elem_size, 1 | 2 | 4 | 8),
            "element size must be 1, 2, 4 or 8 bytes"
        );
        if region.index() >= self.table.len() {
            return Err(TraceError::UnknownRegion {
                index: region.index(),
            });
        }
        let r = self.table.region(region);
        Ok(ScalarArray::new(r, elem_size))
    }
}

/// An instrumented array mapped onto one region of the address space.
///
/// Element reads and writes go through an [`AccessSink`] so the memory
/// hierarchy (or a trace buffer) observes the exact byte addresses the
/// workload touches. Storage is `i32` regardless of the element size; the
/// element size only determines how addresses advance, which is what the
/// caches care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarArray {
    region: RegionId,
    name: String,
    base: Addr,
    elem_size: u16,
    data: Vec<i32>,
}

impl ScalarArray {
    fn new(region: &Region, elem_size: u16) -> Self {
        let len = (region.size / u64::from(elem_size)) as usize;
        ScalarArray {
            region: region.id,
            name: region.name.clone(),
            base: region.base,
            elem_size,
            data: vec![0; len],
        }
    }

    /// Region this array is mapped onto.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element size in bytes.
    pub fn elem_size(&self) -> u16 {
        self.elem_size
    }

    /// Byte address of element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn addr_of(&self, index: usize) -> Addr {
        assert!(index < self.data.len(), "index out of bounds");
        self.base.offset(index as u64 * u64::from(self.elem_size))
    }

    /// Reads element `index`, reporting the access to `sink` on behalf of
    /// `task`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn read<S: AccessSink>(&self, sink: &mut S, task: TaskId, index: usize) -> i32 {
        sink.record(Access::load(
            self.addr_of(index),
            self.elem_size,
            task,
            self.region,
        ));
        self.data[index]
    }

    /// Writes element `index`, reporting the access to `sink` on behalf of
    /// `task`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn write<S: AccessSink>(&mut self, sink: &mut S, task: TaskId, index: usize, value: i32) {
        sink.record(Access::store(
            self.addr_of(index),
            self.elem_size,
            task,
            self.region,
        ));
        self.data[index] = value;
    }

    /// Reads element `index` without reporting an access (for checks and
    /// assertions outside the measured computation).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn peek(&self, index: usize) -> i32 {
        self.data[index]
    }

    /// Writes element `index` without reporting an access (for initialising
    /// inputs outside the measured computation).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn poke(&mut self, index: usize, value: i32) {
        self.data[index] = value;
    }

    /// Fills the whole array with `value`, reporting one store per element.
    ///
    /// The stores are reported as **one batch** through
    /// [`AccessSink::record_all`], so sinks that understand batches (the
    /// platform's burst path, the trace writer) preserve the run instead of
    /// paying per-access dispatch.
    pub fn fill<S: AccessSink>(&mut self, sink: &mut S, task: TaskId, value: i32) {
        let stores: Vec<Access> = (0..self.data.len())
            .map(|i| Access::store(self.addr_of(i), self.elem_size, task, self.region))
            .collect();
        sink.record_all(&stores);
        self.data.fill(value);
    }

    /// Silently fills the whole array with `value` (initialisation data).
    pub fn fill_silent(&mut self, value: i32) {
        self.data.fill(value);
    }

    /// Returns the raw contents (for functional verification in tests).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceBuffer;
    use crate::AccessKind;

    fn space_and_region(size: u64) -> (AddressSpace, RegionId) {
        let mut space = AddressSpace::new();
        let r = space
            .allocate_region(
                "t.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                size,
            )
            .unwrap();
        (space, r)
    }

    #[test]
    fn array_length_depends_on_elem_size() {
        let (space, r) = space_and_region(256);
        assert_eq!(space.array(r).unwrap().len(), 64);
        assert_eq!(space.array_with_elem_size(r, 1).unwrap().len(), 256);
        assert_eq!(space.array_with_elem_size(r, 8).unwrap().len(), 32);
    }

    #[test]
    fn read_write_emit_correct_addresses() {
        let (space, r) = space_and_region(256);
        let base = space.region(r).base;
        let mut a = space.array(r).unwrap();
        let mut sink = TraceBuffer::new();
        let t = TaskId::new(0);
        a.write(&mut sink, t, 3, 99);
        let v = a.read(&mut sink, t, 3);
        assert_eq!(v, 99);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.accesses()[0].kind, AccessKind::Store);
        assert_eq!(sink.accesses()[0].addr, base.offset(12));
        assert_eq!(sink.accesses()[1].kind, AccessKind::Load);
        assert_eq!(sink.accesses()[1].region, r);
    }

    #[test]
    fn peek_and_poke_do_not_emit() {
        let (space, r) = space_and_region(64);
        let mut a = space.array(r).unwrap();
        let mut sink = TraceBuffer::new();
        a.poke(0, 5);
        assert_eq!(a.peek(0), 5);
        assert!(sink.is_empty());
        a.fill(&mut sink, TaskId::new(0), 1);
        assert_eq!(sink.len(), a.len());
        assert!(a.as_slice().iter().all(|&x| x == 1));
    }

    #[test]
    fn unknown_region_is_rejected() {
        let (space, _) = space_and_region(64);
        let err = space.array(RegionId::new(99)).unwrap_err();
        assert!(matches!(err, TraceError::UnknownRegion { .. }));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_read_panics() {
        let (space, r) = space_and_region(64);
        let a = space.array(r).unwrap();
        let mut sink = TraceBuffer::new();
        let _ = a.read(&mut sink, TaskId::new(0), 1000);
    }

    #[test]
    #[should_panic(expected = "element size")]
    fn bad_elem_size_panics() {
        let (space, r) = space_and_region(64);
        let _ = space.array_with_elem_size(r, 3);
    }

    #[test]
    fn fill_silent_does_not_touch_sink() {
        let (space, r) = space_and_region(64);
        let mut a = space.array(r).unwrap();
        a.fill_silent(42);
        assert!(a.as_slice().iter().all(|&x| x == 42));
    }
}
