//! Memory-access trace primitives for the `compmem` compositional memory
//! system.
//!
//! This crate is the lowest layer of the reproduction of *"Compositional
//! memory systems for multimedia communicating tasks"* (Molnos et al.,
//! DATE 2005). Everything above it — cache models, the multiprocessor
//! platform, the Kahn-process-network runtime and the workloads — speaks in
//! terms of the types defined here:
//!
//! * [`Addr`] — a byte address in the flat, linear address space of the
//!   simulated platform.
//! * [`RegionId`] / [`RegionKind`] / [`RegionTable`] — the "memory-active
//!   entities" of the paper: task code/data/bss/heap, FIFOs, frame buffers
//!   and the shared application / run-time-system sections. The partitioned
//!   L2 cache keys its index-translation table on the region an address
//!   belongs to.
//! * [`Access`] — one memory reference (instruction fetch, load or store)
//!   attributed to a task and a region.
//! * [`AccessSink`] / [`TraceBuffer`] — how instrumented workloads emit and
//!   collect references. Sinks accept whole batches through
//!   [`AccessSink::record_all`], which the platform's burst path preserves
//!   end-to-end.
//! * [`codec`] — the binary trace IR for record/replay: delta-encoded
//!   addresses, varint cycle gaps and per-task/region dictionaries behind
//!   streaming [`TraceWriter`]/[`TraceReader`] codecs and the in-memory
//!   [`EncodedTrace`]. A recorded trace embeds its region table, so it is a
//!   self-contained scenario for organisation sweeps (see the `compmem`
//!   CLI: `compmem record` / `compmem replay` / `compmem sweep`).
//! * [`curves`] — the binary **curve sidecar** IR: miss-rate curves
//!   persisted in a `.curves` file next to the trace they were measured
//!   over, keyed by a content hash of the trace bytes so stale or foreign
//!   sidecars are rejected ([`CodecError`], never a panic). `compmem
//!   profile` uses it to skip the L1 filter pass on re-invocation.
//! * [`gen`] — synthetic access-stream generators and the **workload
//!   zoo**: deterministic, seed-parameterised scenario generation
//!   ([`GenSpec`] → [`gen::generate`]) whose multi-program mixes drive
//!   every layer above through standard encoded traces (`compmem gen`).
//! * [`stats`] — reuse-distance analysis of traces.
//!
//! (The workspace-level architecture guide — layers, dataflow, the
//! one-pass profiling invariant — lives in `docs/ARCHITECTURE.md`; the
//! CLI walkthrough in `docs/CLI.md`.)
//!
//! # Example
//!
//! ```
//! use compmem_trace::{AddressSpace, AccessKind, RegionKind, TaskId, TraceBuffer};
//!
//! # fn main() -> Result<(), compmem_trace::TraceError> {
//! let mut space = AddressSpace::new();
//! let task = TaskId::new(0);
//! let region = space.allocate_region("idct.coeffs", RegionKind::TaskData { task }, 4096)?;
//! let mut sink = TraceBuffer::new();
//! let mut array = space.array(region)?;
//! array.write(&mut sink, task, 10, 42);
//! let v = array.read(&mut sink, task, 10);
//! assert_eq!(v, 42);
//! assert_eq!(sink.len(), 2);
//! assert_eq!(sink.accesses()[1].kind, AccessKind::Load);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
pub mod codec;
pub mod curves;
mod error;
pub mod gen;
mod memspace;
mod region;
mod sink;
pub mod stats;

pub use access::{Access, AccessKind};
pub use addr::{Addr, LineAddr, LINE_SIZE_BYTES};
pub use codec::{
    write_file_atomic, CodecError, EncodedTrace, RunSplitter, TraceReader, TraceRecord,
    TraceSummary, TraceWriter,
};
pub use curves::{
    trace_content_hash, CurveEntry, CurveHeader, EncodedCurves, SidecarKey, SidecarWindow,
    SidecarWindowKind, WindowRecord,
};
pub use error::TraceError;
pub use gen::{GenError, GenKind, GenProvenance, GenSpec, GenTask, DEFAULT_CYCLES_PER_ACCESS};
pub use memspace::{AddressSpace, ScalarArray};
pub use region::{BufferId, Region, RegionId, RegionKind, RegionTable, TaskId};
pub use sink::{AccessSink, TraceBuffer};
