//! The self-tuning online cache controller: closing the paper's loop.
//!
//! The offline pipeline of [`experiment`](crate::experiment) measures a
//! whole recorded run, segments it into phases and *then* derives a
//! [`PartitionSchedule`] — it knows the future. This module runs the same
//! machinery **online**: every time a profiling window closes, a
//! [`ControllerPolicy`] may re-solve the allocation problem on the
//! *measured* curves and repartition the live L2 at the run that closes
//! it. Policies size through [`SolverContext`], the one sizing step the
//! offline flows call too, so an online re-solve and an offline phase
//! plan pack the same curves into the same map.
//!
//! The curves depend only on the L2-bound stream, so one windowed pass
//! ([`profile_trace_windowed`]) serves every policy, the [`Oracle`]'s
//! plan and [`compete`]. Every refill is one profiled access and a cycle
//! window closes only on a run's first refill, so window `N` closes at
//! the first run with refills whose first refill is stream access
//! `Σ accesses(0..=N)`; there the causal feed shows window `N`
//! ([`CurveFeed`]). A causal policy thus lags the offline oracle by one
//! window, and the gap is the controller's *regret*, measured by
//! [`compete`] in misses plus flush write-backs on identical traffic.
//!
//! Three reference policies span the design space:
//!
//! * [`Greedy`] re-solves and repartitions at **every** window boundary —
//!   maximal adaptivity, maximal flush traffic;
//! * [`Hysteresis`] re-solves only when the [`OnlinePhaseDetector`]
//!   reports a phase change, and switches only when the predicted miss
//!   savings exceed the predicted flush cost by a margin;
//! * [`Oracle`] replays the best offline schedule
//!   ([`validate_phase_plan`]'s static-vs-scheduled winner) — zero
//!   regret by construction, the yardstick the others are charged
//!   against.
//!
//! Everything runs through the exact-replay engine
//! ([`ReplaySystem::run_controlled`]), so competing policies see
//! byte-identical traffic and their miss deltas are attributable to the
//! control decisions alone. A run's cost is its L2 misses plus the
//! write-backs of [`SystemReport::total_flush`], the one flush total.

use std::borrow::Borrow;
use std::sync::Arc;

use compmem_cache::{
    CacheConfig, CacheSizeLattice, CurveResolution, FlushStats, MissRateCurves,
    OnlinePhaseDetector, OrganizationSpec, PartitionMap, PartitionSchedule, WindowConfig,
    WindowKind, WindowedCurves,
};
use compmem_platform::{
    profile_trace_windowed, PlatformConfig, PlatformError, PreparedTrace, ReplaySystem,
    SystemReport,
};

use crate::error::CoreError;
use crate::experiment::{
    phase_allocations_for_table, replay_serial, validate_phase_plan, RunOutcome,
};
use crate::optimizer::OptimizerKind;
pub use crate::optimizer::SolverContext;
use crate::profile::require_lru;

/// One observation handed to a policy: a profiling window just closed
/// (or, under [`CurveFeed::Oracle`], is just opening) and the engine is
/// at the run that closes it, where a repartition can be installed.
#[derive(Debug)]
pub struct ControllerTick<'a> {
    /// Index of the window `curves` describe.
    pub window: usize,
    /// The window's measured miss-rate curves.
    pub curves: &'a MissRateCurves,
    /// Cycle of the run boundary the decision would be installed at.
    pub at_cycle: u64,
    /// The map currently installed on the L2.
    pub current: &'a PartitionMap,
}

/// Which window's curves a tick carries — the causality knob of the
/// controller loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveFeed {
    /// **Causal** (the default): the tick at the run that closes window
    /// `N` carries window `N`'s curves, and the default start map is an
    /// equal split. This is what a real controller can know; its
    /// one-window lag is the source of regret.
    Measured,
    /// **Clairvoyant**: the same tick carries the curves of window
    /// `N + 1`, the one that run opens, and the start map solves window
    /// 0. A [`Greedy`] policy on this feed reproduces the offline
    /// per-window schedule switch for switch (the parity test),
    /// isolating the lag from every other difference.
    Oracle,
}

/// Configuration of a controlled replay.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// How the stream is sliced into profiling windows. Must be
    /// [`WindowKind::Cycles`]: a cycle grid closes windows exactly at
    /// run boundaries of the replayed stream (every refill of a run
    /// carries the run's start cycle), so the switch the policy emits
    /// installs at the true window edge. An access-count window can
    /// close *mid*-run, after boundary refills already replayed — the
    /// driver rejects the configuration rather than silently lag.
    pub window: WindowConfig,
    /// Resolution of the profiled curves.
    pub resolution: CurveResolution,
    /// Solver used for every re-solve.
    pub optimizer: OptimizerKind,
    /// Which window's curves each tick carries.
    pub feed: CurveFeed,
}

impl ControllerConfig {
    /// A causal controller re-solving every `window_cycles` cycles with
    /// the exact DP solver.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`](compmem_cache::CacheError) if
    /// `window_cycles` is zero.
    pub fn cycles(window_cycles: u64, resolution: CurveResolution) -> Result<Self, CoreError> {
        Ok(ControllerConfig {
            window: WindowConfig::cycles(window_cycles)?,
            resolution,
            optimizer: OptimizerKind::ExactIlp,
            feed: CurveFeed::Measured,
        })
    }

    /// The same controller on the clairvoyant feed (see
    /// [`CurveFeed::Oracle`]).
    pub fn oracle_feed(mut self) -> Self {
        self.feed = CurveFeed::Oracle;
        self
    }
}

/// An online repartitioning policy driven by the controller loop.
pub trait ControllerPolicy {
    /// Display name of the policy (used in regret tables and the CLI).
    fn name(&self) -> &str;

    /// The map the run starts under. With curves available (the
    /// clairvoyant feed shows window 0) the default solves them;
    /// otherwise it falls back to an equal split — a causal controller
    /// knows nothing before the first window closes.
    ///
    /// # Errors
    ///
    /// Propagates solver and map-packing errors.
    fn initial_map(
        &mut self,
        solver: &SolverContext<'_>,
        curves: Option<&MissRateCurves>,
    ) -> Result<PartitionMap, CoreError> {
        match curves {
            Some(curves) => {
                let allocation = solver.solve(curves)?;
                solver.pack(&allocation, None)
            }
            None => solver.equal_split(),
        }
    }

    /// A policy that replays a precomputed offline schedule instead of
    /// deciding online ([`Oracle`]). When this returns `Some`, the
    /// driver installs the schedule through the ordinary
    /// [`ReplaySystem::install_schedule`] path and never calls
    /// [`observe`](ControllerPolicy::observe).
    fn preinstalled_schedule(&self) -> Option<&PartitionSchedule> {
        None
    }

    /// Reacts to one window boundary; `Some` installs the map at the
    /// tick's cycle.
    ///
    /// # Errors
    ///
    /// Propagates solver and map-packing errors; the driver aborts the
    /// decision loop and surfaces the first error after the replay.
    fn observe(
        &mut self,
        solver: &SolverContext<'_>,
        tick: &ControllerTick<'_>,
    ) -> Result<Option<PartitionMap>, CoreError>;
}

/// Re-solves and repartitions at **every** window boundary, mirroring
/// the offline per-phase schedule's behaviour (identical maps are still
/// re-installed: they flush nothing and their fired boundary records
/// segment the run for measurement, exactly as
/// [`PhasePlan::to_schedule`](crate::experiment::PhasePlan::to_schedule)
/// keeps same-allocation steps).
#[derive(Debug, Default)]
pub struct Greedy;

impl ControllerPolicy for Greedy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn observe(
        &mut self,
        solver: &SolverContext<'_>,
        tick: &ControllerTick<'_>,
    ) -> Result<Option<PartitionMap>, CoreError> {
        let allocation = solver.solve(tick.curves)?;
        Ok(Some(solver.pack(&allocation, Some(tick.current))?))
    }
}

/// Sums the misses the curves predict for the next window under `map`:
/// each key's curve evaluated at its partition's set count. `None` when
/// any partition's shape falls outside the profiled resolution (e.g. a
/// non-power-of-two equal-split share).
fn predicted_misses(curves: &MissRateCurves, map: &PartitionMap, ways: u32) -> Option<u64> {
    let mut total = 0u64;
    for (key, curve) in &curves.curves {
        let partition = map.partition_for(*key)?;
        total += curve.misses(partition.sets, ways).ok()?;
    }
    Some(total)
}

/// Switches only on detected phase changes, and only when it pays:
/// the [`OnlinePhaseDetector`] gates re-solving, and a candidate map is
/// installed only if the miss savings its curves predict for the next
/// window exceed the predicted flush cost (sets moved × ways, the upper
/// bound on lines invalidated by the switch) by `margin`.
#[derive(Debug)]
pub struct Hysteresis {
    detector: OnlinePhaseDetector,
    margin: f64,
}

impl Hysteresis {
    /// A detector-gated policy: phase threshold `threshold` (see
    /// [`curve_delta`](compmem_cache::curve_delta)), switch margin
    /// `margin` (a switch needs `savings > margin × flush_cost`). Its
    /// detector's decisions match the offline segmentation window for
    /// window.
    pub fn new(threshold: f64, margin: f64) -> Self {
        Hysteresis {
            detector: OnlinePhaseDetector::new(threshold),
            margin,
        }
    }
}

impl ControllerPolicy for Hysteresis {
    fn name(&self) -> &str {
        "hysteresis"
    }

    fn observe(
        &mut self,
        solver: &SolverContext<'_>,
        tick: &ControllerTick<'_>,
    ) -> Result<Option<PartitionMap>, CoreError> {
        if self.detector.observe(tick.curves).is_none() {
            return Ok(None); // still inside the current phase
        }
        let allocation = solver.solve(tick.curves)?;
        let candidate = solver.pack(&allocation, Some(tick.current))?;
        if candidate == *tick.current {
            return Ok(None);
        }
        let ways = solver.geometry.ways();
        let stay = predicted_misses(tick.curves, tick.current, ways);
        let go = predicted_misses(tick.curves, &candidate, ways);
        let switch = match (stay, go) {
            // The currently installed map cannot be priced on the curves
            // (off-lattice shapes, e.g. the equal-split start): escape it.
            (None, _) => true,
            // The candidate cannot be priced: stay put.
            (Some(_), None) => false,
            (Some(stay), Some(go)) => {
                let savings = stay.saturating_sub(go);
                let flush = u64::from(tick.current.moved_sets(&candidate)) * u64::from(ways);
                savings as f64 > self.margin * flush as f64
            }
        };
        Ok(switch.then_some(candidate))
    }
}

/// The offline clairvoyant: replays the better of
/// [`validate_phase_plan`]'s static-best and phase-scheduled runs (by
/// measured misses plus flush write-backs). Its regret is zero by
/// construction — [`compete`] charges every other policy against it.
#[derive(Debug)]
pub struct Oracle {
    schedule: PartitionSchedule,
    /// Measured cost of the chosen schedule in the planning replay
    /// (misses + flush write-backs); the competition replay reproduces
    /// it exactly, which the competition test asserts.
    pub planned_cost: u64,
}

/// Misses plus repartition write-backs of one run — the single scalar
/// cost the regret harness optimises.
fn cost_of(report: &SystemReport) -> u64 {
    report.l2.misses + report.total_flush().written_back
}

impl Oracle {
    /// Plans the oracle schedule for a trace from its windowed `curves`
    /// (as [`compete`] takes them): segments phases at `threshold`, runs
    /// the static-vs-scheduled validation replay and keeps the cheaper
    /// policy.
    ///
    /// # Errors
    ///
    /// Propagates solver, schedule and platform errors.
    pub fn plan(
        platform: &PlatformConfig,
        l2: CacheConfig,
        lattice: &CacheSizeLattice,
        trace: &PreparedTrace,
        curves: &WindowedCurves,
        threshold: f64,
        config: &ControllerConfig,
    ) -> Result<Self, CoreError> {
        let plan = phase_allocations_for_table(
            curves,
            threshold,
            trace.table(),
            lattice,
            l2.geometry(),
            config.optimizer,
        )?;
        let validation = validate_phase_plan(platform, l2, lattice, &plan, trace)?;
        let static_cost = cost_of(&validation.static_outcome.report);
        let scheduled_cost = cost_of(&validation.scheduled_outcome.report);
        Ok(if scheduled_cost <= static_cost {
            Oracle {
                schedule: validation.schedule,
                planned_cost: scheduled_cost,
            }
        } else {
            Oracle {
                schedule: validation.static_schedule,
                planned_cost: static_cost,
            }
        })
    }

    /// The schedule the oracle replays.
    pub fn schedule(&self) -> &PartitionSchedule {
        &self.schedule
    }
}

impl ControllerPolicy for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn preinstalled_schedule(&self) -> Option<&PartitionSchedule> {
        Some(&self.schedule)
    }

    fn observe(
        &mut self,
        _solver: &SolverContext<'_>,
        _tick: &ControllerTick<'_>,
    ) -> Result<Option<PartitionMap>, CoreError> {
        Ok(None) // never reached: the driver takes the preinstalled path
    }
}

/// Result of one controlled replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledOutcome {
    /// Name of the policy that drove the run.
    pub policy: String,
    /// The replay outcome (report, per-key statistics, repartition log).
    pub outcome: RunOutcome,
    /// Window boundaries the policy was shown (0 for a preinstalled
    /// schedule, which bypasses the online loop).
    pub ticks: usize,
    /// The run's partitioning as an offline-equivalent schedule: the
    /// initial map plus every switch the controller installed, in the
    /// exact form [`PhasePlan::to_schedule`] would produce — the parity
    /// test compares the two byte for byte.
    ///
    /// [`PhasePlan::to_schedule`]: crate::experiment::PhasePlan::to_schedule
    pub schedule: PartitionSchedule,
}

impl ControlledOutcome {
    /// Every switch fired during the run, folded into one flush total.
    pub fn total_flush(&self) -> FlushStats {
        self.outcome.report.total_flush()
    }

    /// The scalar the regret harness charges: L2 misses plus flush
    /// write-backs (each written-back line is one extra bus/DRAM
    /// transfer the switch caused).
    pub fn cost(&self) -> u64 {
        cost_of(&self.outcome.report)
    }

    /// Switches the run actually fired.
    pub fn switches(&self) -> usize {
        self.outcome.report.repartitions.len()
    }
}

/// Replays a recorded trace under an online controller policy.
///
/// A [preinstalled](ControllerPolicy::preinstalled_schedule) schedule
/// replays as is. Otherwise one [`profile_trace_windowed`] pass measures
/// the curves, and at each run that closes a window (see the module
/// docs) the policy is shown a window's curves ([`ControllerTick`]) and
/// may answer with a map, which repartitions the L2 at that run's start
/// cycle, just before the run replays, with exact [`FlushStats`]
/// accounting — the rule an installed [`PartitionSchedule`] step at that
/// boundary follows, so replaying the emitted
/// [`schedule`](ControlledOutcome::schedule) reproduces the run.
///
/// # Errors
///
/// * [`CoreError::NonLruProfiling`] if the L2's replacement policy is
///   not LRU — the controller's curves would be fiction;
/// * [`CoreError::Infeasible`] if the window kind is not
///   [`WindowKind::Cycles`] (see [`ControllerConfig::window`]);
/// * profiling, solver, map-packing, schedule and platform errors from
///   the decision loop and the replay.
pub fn replay_controlled(
    platform: &PlatformConfig,
    l2: CacheConfig,
    lattice: &CacheSizeLattice,
    trace: &Arc<PreparedTrace>,
    policy: &mut dyn ControllerPolicy,
    config: &ControllerConfig,
) -> Result<ControlledOutcome, CoreError> {
    let profile = || profile_trace_windowed(platform, trace, config.resolution, config.window);
    run_policy(platform, l2, lattice, trace, policy, config, profile)
}

/// One controlled replay: the checks in order (LRU, the preinstalled
/// schedule, which needs no curves, the window kind), and only then
/// `curves()` and the online loop over them, one tick per closed window.
fn run_policy<C: Borrow<WindowedCurves>>(
    platform: &PlatformConfig,
    l2: CacheConfig,
    lattice: &CacheSizeLattice,
    trace: &Arc<PreparedTrace>,
    policy: &mut dyn ControllerPolicy,
    config: &ControllerConfig,
    curves: impl FnOnce() -> Result<C, PlatformError>,
) -> Result<ControlledOutcome, CoreError> {
    require_lru(l2)?;
    if let Some(schedule) = policy.preinstalled_schedule() {
        return Ok(ControlledOutcome {
            policy: policy.name().to_string(),
            outcome: replay_serial(platform, l2, schedule, trace)?,
            ticks: 0,
            schedule: schedule.clone(),
        });
    }
    if config.window.kind != WindowKind::Cycles {
        return Err(CoreError::Infeasible {
            reason: format!(
                "the online controller requires cycle windows ({:?} windows can close \
                 mid-run, after the boundary's refills already replayed)",
                config.window.kind
            ),
        });
    }
    let curves = curves()?;
    let curves = curves.borrow();

    let table = trace.table();
    let solver = SolverContext {
        table,
        lattice,
        geometry: l2.geometry(),
        optimizer: config.optimizer,
    };
    // The clairvoyant feed shows the window a tick's run opens and solves
    // window 0 for the start map; the causal feed starts blind.
    let (lookahead, start_curves) = match config.feed {
        CurveFeed::Measured => (0, None),
        CurveFeed::Oracle => (1, curves.windows.first().map(|w| &w.curves)),
    };
    let initial = policy.initial_map(&solver, start_curves)?;
    let l2_model = OrganizationSpec::SetPartitioned(initial.clone()).build(l2, table)?;
    let mut system = ReplaySystem::new(platform, l2_model, trace)?;

    // Window `ticks` closes at the run whose first refill is stream access
    // `closes_at`; the last window closes past every refill, so never.
    let mut closes_at = curves.windows.first().map_or(0, |w| w.curves.accesses());
    let mut ticks = 0usize;
    let mut steps = vec![(0, OrganizationSpec::SetPartitioned(initial.clone()))];
    let mut current = initial;
    let mut decision_error: Option<CoreError> = None;

    let report = system.run_controlled(|run, refills| {
        let closing = !refills.is_empty() && u64::from(run.refills.start) == closes_at;
        if !closing || decision_error.is_some() {
            return None;
        }
        let window = ticks + lookahead;
        ticks += 1;
        closes_at += curves.windows[ticks].curves.accesses();
        let tick = ControllerTick {
            window,
            curves: &curves.windows[window].curves,
            at_cycle: run.start_cycle,
            current: &current,
        };
        match policy.observe(&solver, &tick) {
            Ok(decision) => decision.map(|map| {
                current = map.clone();
                let organization = OrganizationSpec::SetPartitioned(map);
                steps.push((run.start_cycle, organization.clone()));
                organization
            }),
            Err(e) => {
                decision_error = Some(e);
                None
            }
        }
    })?;
    if let Some(error) = decision_error {
        return Err(error);
    }

    Ok(ControlledOutcome {
        policy: policy.name().to_string(),
        outcome: RunOutcome::new(report, table, system.into_l2().snapshot()),
        ticks,
        schedule: PartitionSchedule::new(steps)?,
    })
}

/// One row of a [`RegretReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRegret {
    /// Policy name.
    pub policy: String,
    /// Measured L2 misses of the policy's run.
    pub misses: u64,
    /// Lines written back by the policy's repartition flushes.
    pub flush_written_back: u64,
    /// Switches the run fired.
    pub switches: usize,
    /// Misses plus flush write-backs.
    pub cost: u64,
    /// `cost − oracle_cost`; the oracle's own row is zero by
    /// construction.
    pub regret: i64,
}

/// The competition's verdict: every policy's measured cost charged
/// against the oracle's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegretReport {
    /// Name of the baseline the others are charged against (`"oracle"`
    /// when present, otherwise the cheapest entry).
    pub baseline: String,
    /// The baseline's cost.
    pub oracle_cost: u64,
    /// One row per competed policy, in competition order.
    pub entries: Vec<PolicyRegret>,
}

impl RegretReport {
    /// Builds the report from competed outcomes: the entry named
    /// `"oracle"` is the baseline; without one, the cheapest entry is.
    pub fn from_outcomes(outcomes: &[ControlledOutcome]) -> RegretReport {
        let baseline = outcomes
            .iter()
            .find(|o| o.policy == "oracle")
            .or_else(|| outcomes.iter().min_by_key(|o| o.cost()));
        let (baseline, oracle_cost) =
            baseline.map_or_else(|| ("none".to_string(), 0), |o| (o.policy.clone(), o.cost()));
        let entries = outcomes
            .iter()
            .map(|o| PolicyRegret {
                policy: o.policy.clone(),
                misses: o.outcome.report.l2.misses,
                flush_written_back: o.total_flush().written_back,
                switches: o.switches(),
                cost: o.cost(),
                regret: o.cost() as i64 - oracle_cost as i64,
            })
            .collect();
        RegretReport {
            baseline,
            oracle_cost,
            entries,
        }
    }

    /// The report as a fixed-width text table (one header line, one row
    /// per policy), for the CLI and the CI smoke log.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<12} {:>12} {:>12} {:>8} {:>12} {:>10}\n",
            "policy", "misses", "flushed", "switches", "cost", "regret"
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{:<12} {:>12} {:>12} {:>8} {:>12} {:>10}\n",
                e.policy, e.misses, e.flush_written_back, e.switches, e.cost, e.regret
            ));
        }
        out
    }
}

/// Runs every policy on the **same** recorded trace and the same
/// `curves` ([`profile_trace_windowed`] under `config`) and charges each
/// against the oracle (any policy whose
/// [`preinstalled_schedule`](ControllerPolicy::preinstalled_schedule)
/// is set and whose name is `"oracle"`). Each run is the policy's
/// [`replay_controlled`] run.
///
/// # Errors
///
/// [`CoreError::CurvesMismatch`] if `curves` have another window
/// configuration or resolution than `config`, or another access count
/// than the trace's L2-bound refills; otherwise as for
/// [`replay_controlled`], for whichever policy fails first.
pub fn compete(
    platform: &PlatformConfig,
    l2: CacheConfig,
    lattice: &CacheSizeLattice,
    trace: &Arc<PreparedTrace>,
    curves: &WindowedCurves,
    policies: &mut [&mut dyn ControllerPolicy],
    config: &ControllerConfig,
) -> Result<(Vec<ControlledOutcome>, RegretReport), CoreError> {
    // The loop reads window boundaries off the curves' access counts.
    let refills = trace.filtered_for(platform)?.refills.len() as u64;
    let profiled = (curves.config, curves.resolution, curves.total.accesses());
    if profiled != (config.window, config.resolution, refills) {
        return Err(CoreError::CurvesMismatch {
            reason: format!(
                "profiled with {:?} windows at {:?} over {} L2-bound accesses, but the \
                 replay has {:?} windows at {:?} over {refills} refills",
                profiled.0, profiled.1, profiled.2, config.window, config.resolution
            ),
        });
    }
    let mut outcomes = Vec::with_capacity(policies.len());
    for policy in policies.iter_mut() {
        let measured = || Ok(curves);
        outcomes.push(run_policy(
            platform, l2, lattice, trace, *policy, config, measured,
        )?);
    }
    let report = RegretReport::from_outcomes(&outcomes);
    Ok((outcomes, report))
}
