//! Destinations for generated memory accesses.

use serde::{Deserialize, Serialize};

use crate::access::Access;

/// A destination for memory accesses produced by instrumented workloads.
///
/// The workloads of the reproduction are functional Rust implementations of
/// the paper's task graphs; every element they touch in an instrumented
/// [`AddressSpace`](crate::AddressSpace) is reported to an `AccessSink`. The
/// platform simulator implements this trait to feed accesses straight into
/// the memory hierarchy; [`TraceBuffer`] implements it to record them for
/// offline analysis.
pub trait AccessSink {
    /// Records one access.
    fn record(&mut self, access: Access);

    /// Records a whole batch of accesses. The default forwards to
    /// [`record`](AccessSink::record) one by one.
    fn record_all(&mut self, accesses: &[Access]) {
        for &a in accesses {
            self.record(a);
        }
    }
}

/// An in-memory trace: the simplest [`AccessSink`], storing every access.
///
/// ```
/// use compmem_trace::{Access, AccessSink, Addr, RegionId, TaskId, TraceBuffer};
/// let mut buf = TraceBuffer::new();
/// buf.record(Access::load(Addr::new(64), 4, TaskId::new(0), RegionId::new(0)));
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceBuffer {
    accesses: Vec<Access>,
}

impl TraceBuffer {
    /// Creates an empty trace buffer.
    pub fn new() -> Self {
        TraceBuffer {
            accesses: Vec::new(),
        }
    }

    /// Creates an empty trace buffer with capacity for `n` accesses.
    pub fn with_capacity(n: usize) -> Self {
        TraceBuffer {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Returns the recorded accesses in program order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Removes all recorded accesses, keeping the allocation.
    pub fn clear(&mut self) {
        self.accesses.clear();
    }

    /// Returns an iterator over the recorded accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// Appends all accesses of `other` to this buffer.
    pub fn append(&mut self, other: &mut TraceBuffer) {
        self.accesses.append(&mut other.accesses);
    }

    /// Drains the recorded accesses, leaving the buffer empty.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Access> {
        self.accesses.drain(..)
    }
}

impl AccessSink for TraceBuffer {
    fn record(&mut self, access: Access) {
        self.accesses.push(access);
    }

    fn record_all(&mut self, accesses: &[Access]) {
        self.accesses.extend_from_slice(accesses);
    }
}

impl FromIterator<Access> for TraceBuffer {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        TraceBuffer {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<Access> for TraceBuffer {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a TraceBuffer {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for TraceBuffer {
    type Item = Access;
    type IntoIter = std::vec::IntoIter<Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

/// Forward implementation so `&mut S` can be passed where a sink is expected.
impl<S: AccessSink + ?Sized> AccessSink for &mut S {
    fn record(&mut self, access: Access) {
        (**self).record(access);
    }

    fn record_all(&mut self, accesses: &[Access]) {
        (**self).record_all(accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, RegionId, TaskId};

    fn access(n: u64) -> Access {
        Access::load(Addr::new(n * 64), 4, TaskId::new(0), RegionId::new(0))
    }

    #[test]
    fn trace_buffer_records_in_order() {
        let mut buf = TraceBuffer::new();
        buf.record(access(1));
        buf.record(access(2));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.accesses()[0].addr, Addr::new(64));
        assert_eq!(buf.accesses()[1].addr, Addr::new(128));
    }

    #[test]
    fn collect_and_extend() {
        let buf: TraceBuffer = (0..5).map(access).collect();
        assert_eq!(buf.len(), 5);
        let mut buf2 = TraceBuffer::new();
        buf2.extend(buf.iter().copied());
        assert_eq!(buf2.len(), 5);
        assert_eq!(buf2, buf);
    }

    #[test]
    fn record_all_extends() {
        let mut buf = TraceBuffer::with_capacity(4);
        buf.record_all(&[access(0), access(1)]);
        assert_eq!(buf.len(), 2);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn mutable_reference_is_a_sink() {
        fn use_sink<S: AccessSink>(mut s: S) {
            s.record(access(9));
        }
        let mut buf = TraceBuffer::new();
        use_sink(&mut buf);
        assert_eq!(buf.len(), 1);
    }
}
