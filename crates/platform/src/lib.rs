//! Cycle-approximate multiprocessor memory-hierarchy simulator.
//!
//! This crate models the experimental platform of *"Compositional memory
//! systems for multimedia communicating tasks"* (Molnos et al., DATE 2005):
//! one tile of the CAKE architecture — a homogeneous set of processors with
//! private L1 instruction and data caches, a shared unified L2 cache held
//! as a `Box<dyn CacheModel>` (conventional, set-partitioned or
//! way-partitioned, see `compmem-cache`), a shared arbitrated
//! memory bus and off-chip DRAM.
//!
//! Execution is **discrete-event**: an [`EventQueue`] (a min-heap of
//! `(ready_cycle, processor)` entries) drives the run loop. The earliest
//! -ready processor executes a chunk of its current burst against the
//! single timing path (L1 → bus arbitration → L2 → DRAM) and is pushed
//! back at its advanced local clock; processors whose tasks are all
//! blocked park and are woken by burst-completion and task-retirement
//! events. The same queue powers the functional scheduler of
//! `compmem-kpn`, so per-processor task firing, FIFO stalls and bus
//! contention are all ordered by one global clock.
//!
//! The simulator is *workload driven*: tasks are supplied by a
//! [`WorkloadDriver`] that hands out [`Burst`]s of operations (compute
//! instructions and memory accesses). The Kahn-process-network runtime of
//! `compmem-kpn` implements this trait; synthetic drivers are used in unit
//! tests.
//!
//! What is modelled, and what deliberately is not:
//!
//! * Processors execute one instruction per cycle when not stalled (the
//!   TriMedia VLIW issue width is folded into the workloads' instruction
//!   counts). Memory stalls come from L1 misses that go to the shared L2 and
//!   possibly to DRAM over the shared bus.
//! * The shared bus serialises L2/DRAM transfers (round-robin by request
//!   time), so co-running tasks perturb each other's *timing* — but under a
//!   partitioned L2 they can no longer perturb each other's *miss counts*,
//!   which is the compositionality property the paper establishes.
//! * Task switching costs a configurable number of cycles and (optionally)
//!   touches the run-time-system data/bss regions, as in the paper's
//!   experimental set-up where the RT system has its own cache partition.
//!
//! (The workspace-level architecture guide — layers, dataflow, the
//! one-pass profiling invariant — lives in `docs/ARCHITECTURE.md`; the
//! CLI walkthrough in `docs/CLI.md`.)
//!
//! # Example
//!
//! ```
//! use compmem_cache::{CacheConfig, SharedCache};
//! use compmem_platform::{Burst, BurstOutcome, Op, PlatformConfig, System, TaskMapping,
//!     WorkloadDriver};
//! use compmem_trace::{Access, Addr, RegionId, TaskId};
//!
//! /// A driver with a single task that loads one line and finishes.
//! struct OneShot { fired: bool }
//! impl WorkloadDriver for OneShot {
//!     fn next_burst(&mut self, _task: TaskId) -> BurstOutcome {
//!         if self.fired { return BurstOutcome::Finished; }
//!         self.fired = true;
//!         BurstOutcome::Ready(Burst::new(vec![
//!             Op::Compute(10),
//!             Op::Mem(Access::load(Addr::new(0x1000), 4, TaskId::new(0), RegionId::new(0))),
//!         ]))
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = PlatformConfig::default().processors(1);
//! let l2 = Box::new(SharedCache::new(CacheConfig::paper_l2()));
//! let mapping = TaskMapping::single_processor(&[TaskId::new(0)]);
//! let mut system = System::new(config, l2, mapping)?;
//! let report = system.run(&mut OneShot { fired: false })?;
//! assert_eq!(report.total_instructions(), 11);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod config;
mod engine;
mod error;
pub mod lanes;
mod memory;
mod metrics;
mod op;
mod processor;
pub mod profile;
pub mod replay;
mod scheduler;
pub mod serve;
mod system;

pub use bus::Bus;
pub use config::{OsRegions, PlatformConfig};
pub use engine::EventQueue;
pub use error::PlatformError;
pub use lanes::{replay_lanes, LaneDecision};
pub use memory::{BurstStats, L1Refill, MemorySystem};
pub use metrics::{ProcessorReport, RepartitionRecord, SystemReport};
pub use op::{Burst, BurstOutcome, Op, WorkloadDriver};
pub use processor::ProcessorId;
pub use profile::{
    l1_filter_signature, load_sidecar, profile_shards, profile_trace, profile_trace_windowed,
    profile_trace_windowed_lanes, profile_trace_with_sidecar, profile_trace_with_sidecar_lanes,
    SidecarOutcome,
};
pub use replay::{
    AccessTap, FilteredRun, FilteredTrace, NullTap, PreparedTrace, ReplayCounters, ReplaySystem,
};
pub use scheduler::TaskMapping;
pub use serve::{
    CommandFailure, CommandHandler, CurveStore, ServeClient, ServeErrorKind, ServeRequest,
    ServeResponse, ServeStats, ServedFrom, Server,
};
pub use system::System;
