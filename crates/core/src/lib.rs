//! Compositional memory systems for multimedia communicating tasks.
//!
//! This crate is the top of the reproduction of Molnos et al., *DATE 2005*:
//! it combines the cache models (`compmem-cache`), the CAKE-like
//! multiprocessor simulator (`compmem-platform`), the YAPI runtime
//! (`compmem-kpn`) and the multimedia workloads (`compmem-workloads`) into
//! the method the paper proposes:
//!
//! 1. **Miss profiling** ([`profile`]) — measure, for every memory-active
//!    entity (task, communication buffer, shared static section), the number
//!    of L2 misses as a function of the exclusively allocated cache size
//!    (power-of-two allocation units), exactly the `m_i(S_k)` inputs of the
//!    paper's ILP. The profiles come from a **single-pass stack-distance
//!    profiler** (`StackDistanceProfiler` riding the shared baseline run
//!    as an access tap, or fed from a recorded trace) whose
//!    `MissRateCurves` resolve every power-of-two cache shape at once;
//!    `per_size_profiles`, which simulates every key alone at every
//!    lattice size, is the reference the profiler is tested against.
//! 2. **Partition sizing** ([`optimizer`]) — minimise the total number of
//!    misses subject to the cache capacity, with an exact
//!    dynamic-programming solver equivalent to the paper's (M)ILP, a greedy
//!    marginal-gain approximation and an equal-split strawman.
//!    [`SolverContext`] is the one sizing step every flow calls: curves →
//!    profiles → allocation (optionally under QoS floors) →
//!    capacity-checked partition map, after the one LRU precondition
//!    ([`profile::require_lru`]).
//! 3. **Compositional execution** — run the application on the
//!    set-partitioned L2 and verify that per-task misses match the
//!    stand-alone expectation ([`compositionality`]), which is the paper's
//!    Figure 3 result (≤ 2 % deviation).
//! 4. **Experiments** ([`experiment`]) — a single spec-driven driver:
//!    every run is described by a [`experiment::ScenarioSpec`] (L2
//!    configuration, a `PartitionSchedule` — partitioning as a
//!    **time-varying policy**, where a plain `OrganizationSpec` is the
//!    single-step schedule — and a [`experiment::TrafficSource`] naming
//!    live execution or replay of a recorded trace) and executed through
//!    one `Box<dyn CacheModel>` timing path; batches of independent runs
//!    fan out across threads ([`experiment::Experiment::run_all`]), and
//!    [`experiment::Experiment::record_trace`] /
//!    [`experiment::run_replay`] implement the record-once / sweep-many
//!    workflow. Phase-aware execution rides the same driver:
//!    [`experiment::PhasePlan::to_schedule`] converts per-phase sizings
//!    into repartition events,
//!    [`experiment::Experiment::run_scheduled`] executes them, and
//!    [`experiment::validate_phase_plan`] replays static-best vs
//!    phase-scheduled on one trace with per-phase predicted vs measured
//!    miss deltas. The drivers regenerate every table and figure of the
//!    paper's evaluation (Tables 1–2, Figures 2–3, the headline
//!    miss-rate/CPI numbers) plus the ablations.
//!
//! (The workspace-level architecture guide — layers, dataflow, the
//! one-pass profiling invariant — lives in `docs/ARCHITECTURE.md`; the
//! CLI walkthrough in `docs/CLI.md`.)
//!
//! # Quickstart
//!
//! ```no_run
//! use compmem::experiment::{Experiment, ExperimentConfig};
//! use compmem_workloads::apps::{jpeg_canny_app, JpegCannyParams};
//!
//! # fn main() -> Result<(), compmem::CoreError> {
//! let params = JpegCannyParams::tiny();
//! let experiment = Experiment::new(ExperimentConfig::default(), move || {
//!     jpeg_canny_app(&params).expect("valid parameters")
//! });
//! let outcome = experiment.run_paper_flow()?;
//! println!("{}", outcome.summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compositionality;
pub mod controller;
mod error;
pub mod executor;
pub mod experiment;
pub mod isolation;
pub mod model;
pub mod optimizer;
pub mod profile;
pub mod report;

pub use controller::{
    compete, replay_controlled, ControlledOutcome, ControllerConfig, ControllerPolicy,
    ControllerTick, CurveFeed, Greedy, Hysteresis, Oracle, PolicyRegret, RegretReport,
};
pub use error::CoreError;
pub use isolation::{run_isolation, IsolationReport, IsolationRun, IsolationSpec};
pub use optimizer::{
    apply_qos_floors, solve_with_floors, Allocation, AllocationProblem, OptimizerKind, QosFloor,
    SolverContext,
};
pub use profile::{
    CacheSizeLattice, CurveResolution, MissProfile, MissProfiles, MissRateCurve, MissRateCurves,
    StackDistanceProfiler, WindowConfig, WindowedCurves,
};
