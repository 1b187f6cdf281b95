//! The compositionality stress harness: victim vs adversarial streamer.
//!
//! The paper's central claim is that a task with a guaranteed cache
//! partition behaves independently of its co-runners. This module turns
//! that claim into an executable experiment over any pair of traces (in
//! practice the workload zoo's generated scenarios — see
//! `compmem_trace::gen`):
//!
//! 1. **solo** — replay the victim's own trace through a shared L2: the
//!    baseline miss rate the victim would see running alone.
//! 2. **shared** — replay the victim+streamer mix through the same shared
//!    L2: the adversary evicts the victim's working set at will.
//! 3. **partitioned** — profile the mix, size the partitions under a
//!    [`QosFloor`] for the victim through the one sizing step
//!    ([`SolverContext`]), and replay the mix through the resulting
//!    set-partitioned L2.
//!
//! The report carries the victim's measured miss rate under each
//! configuration and its delta against solo. Compositionality holds when
//! the partitioned run stays within tolerance of solo (and under the
//! floor) while the shared run measurably violates it — asserted by
//! `tests/gen_parity.rs` and CI's `gen-smoke` job.

use std::fmt;
use std::sync::Arc;

use compmem_cache::{CacheConfig, CacheSizeLattice, OrganizationSpec, PartitionKey};
use compmem_platform::{profile_trace, PlatformConfig, PreparedTrace};
use compmem_trace::TaskId;

use crate::error::CoreError;
use crate::experiment::{run_replay, ScenarioSpec};
use crate::optimizer::{Allocation, OptimizerKind, QosFloor, SolverContext};
use crate::profile::{require_lru, CurveResolution};

/// What to run: the L2 under test, the allocation lattice, the victim and
/// its guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationSpec {
    /// The L2 configuration every run uses.
    pub l2: CacheConfig,
    /// Allocation-unit granularity of the floor-solved partitioning.
    pub sets_per_unit: u32,
    /// The task whose isolation is under test.
    pub victim: TaskId,
    /// The victim's QoS floor: highest acceptable predicted miss rate.
    pub max_miss_rate: f64,
    /// Solver used for the partitioned configuration.
    pub solver: OptimizerKind,
}

/// The victim's measured L2 behaviour under one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationRun {
    /// Which configuration was run (`solo`, `shared`, `partitioned`).
    pub label: &'static str,
    /// The victim's L2-bound accesses.
    pub accesses: u64,
    /// The victim's L2 misses.
    pub misses: u64,
}

impl IsolationRun {
    /// The victim's measured miss rate (zero when it never reached L2).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The three-configuration comparison [`run_isolation`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationReport {
    /// The victim's partition key.
    pub victim: PartitionKey,
    /// The floor the partitioned configuration was solved under.
    pub max_miss_rate: f64,
    /// Victim alone through the shared L2.
    pub solo: IsolationRun,
    /// Victim plus streamer through the shared L2.
    pub shared: IsolationRun,
    /// Victim plus streamer through the floor-solved partitioned L2.
    pub partitioned: IsolationRun,
    /// The floor-respecting allocation the partitioned run used.
    pub allocation: Allocation,
    /// The victim's predicted miss rate at its allocated size.
    pub predicted_rate: f64,
}

impl IsolationReport {
    /// Shared-run miss-rate increase over solo (percentage points / 100).
    pub fn shared_delta(&self) -> f64 {
        self.shared.miss_rate() - self.solo.miss_rate()
    }

    /// Partitioned-run miss-rate increase over solo.
    pub fn partitioned_delta(&self) -> f64 {
        self.partitioned.miss_rate() - self.solo.miss_rate()
    }

    /// Whether the victim's measured miss rate under the adversary, with
    /// its guaranteed partition, stays at or under the floor.
    pub fn floor_holds(&self) -> bool {
        self.partitioned.miss_rate() <= self.max_miss_rate
    }

    /// Whether the shared configuration measurably violates the floor —
    /// i.e. the guarantee is doing real work, not holding vacuously.
    pub fn shared_violates_floor(&self) -> bool {
        self.shared.miss_rate() > self.max_miss_rate
    }
}

impl fmt::Display for IsolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "isolation report for {} (floor {:.2}%):",
            self.victim,
            self.max_miss_rate * 100.0
        )?;
        writeln!(
            f,
            "  {:<16} {:>10} {:>10} {:>10} {:>14}",
            "configuration", "accesses", "misses", "miss rate", "delta vs solo"
        )?;
        for run in [&self.solo, &self.shared, &self.partitioned] {
            let delta = run.miss_rate() - self.solo.miss_rate();
            writeln!(
                f,
                "  {:<16} {:>10} {:>10} {:>9.2}% {:>12.2}pp",
                run.label,
                run.accesses,
                run.misses,
                run.miss_rate() * 100.0,
                delta * 100.0
            )?;
        }
        write!(
            f,
            "  floor {} under the adversary (predicted {:.2}%, measured {:.2}%)",
            if self.floor_holds() { "holds" } else { "FAILS" },
            self.predicted_rate * 100.0,
            self.partitioned.miss_rate() * 100.0
        )
    }
}

/// The victim's stats under one outcome (zeros if it never reached L2).
fn victim_run(
    label: &'static str,
    outcome: &crate::experiment::RunOutcome,
    key: PartitionKey,
) -> IsolationRun {
    let stats = outcome.by_key.get(&key).copied().unwrap_or_default();
    IsolationRun {
        label,
        accesses: stats.accesses,
        misses: stats.misses,
    }
}

/// Runs the three-configuration isolation experiment.
///
/// `solo` is the victim's stand-alone trace; `mix` is the victim plus its
/// adversary (any number of co-runners) with the victim attributed to
/// `spec.victim` in both tables. The partitioned configuration is solved
/// from a profile of `mix` under the victim's floor, so the experiment
/// exercises the complete paper flow: profile → floor-constrained sizing
/// → partitioned execution.
///
/// # Errors
///
/// Returns [`CoreError::NonLruProfiling`] for a non-LRU L2,
/// [`CoreError::QosInfeasible`] when no partition size can honour the
/// floor, and propagates profiling, solver and replay errors.
pub fn run_isolation(
    platform: &PlatformConfig,
    spec: &IsolationSpec,
    solo: Arc<PreparedTrace>,
    mix: Arc<PreparedTrace>,
) -> Result<IsolationReport, CoreError> {
    require_lru(spec.l2)?;
    let key = PartitionKey::Task(spec.victim);
    let geometry = spec.l2.geometry();

    // Profile the mix once and solve the allocation under the floor.
    let resolution = CurveResolution::for_geometry(geometry, spec.sets_per_unit)?;
    let curves = profile_trace(platform, &mix, resolution)?;
    let lattice = CacheSizeLattice::new(geometry, spec.sets_per_unit);
    let solver = SolverContext {
        table: mix.trace().table(),
        lattice: &lattice,
        geometry,
        optimizer: spec.solver,
    };
    let profiles = solver.profiles(&curves)?;
    let floor = QosFloor {
        key,
        max_miss_rate: spec.max_miss_rate,
    };
    let allocation = solver.allocate(profiles.clone(), &[floor])?;
    let predicted_rate = profiles
        .profile(key)
        .map_or(0.0, |p| p.miss_rate_at(allocation.units_of(key)));
    let map = solver.pack(&allocation, None)?;

    let solo_outcome = run_replay(
        platform,
        &ScenarioSpec::replay(spec.l2, OrganizationSpec::Shared, solo),
    )?;
    let shared_outcome = run_replay(
        platform,
        &ScenarioSpec::replay(spec.l2, OrganizationSpec::Shared, Arc::clone(&mix)),
    )?;
    let partitioned_outcome = run_replay(
        platform,
        &ScenarioSpec::replay(spec.l2, OrganizationSpec::SetPartitioned(map), mix),
    )?;

    Ok(IsolationReport {
        victim: key,
        max_miss_rate: spec.max_miss_rate,
        solo: victim_run("solo/shared", &solo_outcome, key),
        shared: victim_run("mix/shared", &shared_outcome, key),
        partitioned: victim_run("mix/partitioned", &partitioned_outcome, key),
        allocation,
        predicted_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn run(label: &'static str, accesses: u64, misses: u64) -> IsolationRun {
        IsolationRun {
            label,
            accesses,
            misses,
        }
    }

    fn report() -> IsolationReport {
        IsolationReport {
            victim: PartitionKey::Task(TaskId::new(0)),
            max_miss_rate: 0.05,
            solo: run("solo/shared", 10_000, 200),
            shared: run("mix/shared", 10_000, 9_900),
            partitioned: run("mix/partitioned", 10_000, 210),
            allocation: Allocation {
                kind: OptimizerKind::ExactIlp,
                units: BTreeMap::new(),
                total_units: 0,
                predicted_misses: 0,
            },
            predicted_rate: 0.02,
        }
    }

    #[test]
    fn deltas_and_verdicts() {
        let r = report();
        assert!((r.solo.miss_rate() - 0.02).abs() < 1e-12);
        assert!(r.shared_delta() > 0.9);
        assert!(r.partitioned_delta().abs() < 0.01);
        assert!(r.floor_holds());
        assert!(r.shared_violates_floor());
    }

    #[test]
    fn zero_access_runs_have_zero_rate() {
        assert_eq!(run("solo/shared", 0, 0).miss_rate(), 0.0);
    }

    #[test]
    fn report_renders_all_three_configurations() {
        let text = report().to_string();
        assert!(text.contains("solo/shared"));
        assert!(text.contains("mix/shared"));
        assert!(text.contains("mix/partitioned"));
        assert!(text.contains("floor holds under the adversary"));
        let failing = IsolationReport {
            partitioned: run("mix/partitioned", 10_000, 900),
            ..report()
        };
        assert!(failing.to_string().contains("floor FAILS"));
    }
}
