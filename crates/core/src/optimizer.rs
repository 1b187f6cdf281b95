//! Partition sizing: the paper's (M)ILP, solved exactly, plus baselines.
//!
//! The paper formulates the choice of per-entity partition sizes as a 0/1
//! integer linear program: pick one candidate size `z_k` per entity such
//! that the total number of misses `sum_i m_i(z_{k(i)})` is minimal and the
//! sizes fit in the cache. With one SOS-1 row per entity and one capacity
//! row this is a grouped (multiple-choice) knapsack; the exact
//! dynamic-programming solver below explores the same solution space an ILP
//! solver would and returns an optimal assignment. A greedy marginal-gain
//! heuristic and an equal-split strawman are provided for the optimiser
//! ablation (E8 in DESIGN.md).
//!
//! [`SolverContext`] is the one sizing step every flow runs: measured
//! curves → per-entity profiles on the allocation lattice → an
//! [`Allocation`] (optionally under [`QosFloor`]s) → a capacity-checked
//! [`PartitionMap`].

use std::collections::BTreeMap;

use compmem_cache::{CacheGeometry, CacheSizeLattice, MissRateCurves, PartitionKey, PartitionMap};
use compmem_trace::RegionTable;

use crate::error::CoreError;
use crate::experiment::allocation_problem_for_table;
use crate::profile::MissProfiles;

/// Which solver produced an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Exact dynamic program over the candidate-size lattice (equivalent to
    /// the paper's ILP).
    ExactIlp,
    /// Greedy marginal-gain heuristic.
    Greedy,
    /// Equal split of the available units over all keys.
    EqualSplit,
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OptimizerKind::ExactIlp => "exact-ilp",
            OptimizerKind::Greedy => "greedy",
            OptimizerKind::EqualSplit => "equal-split",
        };
        f.write_str(s)
    }
}

/// One entity of the allocation problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationEntity {
    /// The partition key being sized.
    pub key: PartitionKey,
    /// Candidate unit counts the optimiser may choose from. A single
    /// element pins the entity to that size (the paper's rule for FIFOs:
    /// partition size = FIFO size).
    pub candidates: Vec<u32>,
}

/// The allocation problem: entities, their candidate sizes and profiles, and
/// the capacity of the cache in allocation units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationProblem {
    /// Entities to size.
    pub entities: Vec<AllocationEntity>,
    /// Miss profiles measured by the profiling run.
    pub profiles: MissProfiles,
    /// Total allocation units available.
    pub total_units: u32,
}

impl AllocationProblem {
    fn misses_of(&self, key: PartitionKey, units: u32) -> u64 {
        self.profiles
            .profile(key)
            .map(|p| p.misses_at(units))
            .unwrap_or(0)
    }
}

/// A chosen per-entity partition sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Solver that produced the allocation.
    pub kind: OptimizerKind,
    /// Units allocated to every key.
    pub units: BTreeMap<PartitionKey, u32>,
    /// Total units allocated.
    pub total_units: u32,
    /// Total misses predicted by the profiles for this allocation.
    pub predicted_misses: u64,
}

impl Allocation {
    /// Units allocated to `key` (zero if the key is not part of the
    /// allocation).
    pub fn units_of(&self, key: PartitionKey) -> u32 {
        self.units.get(&key).copied().unwrap_or(0)
    }

    /// Iterates over `(key, units)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PartitionKey, &u32)> {
        self.units.iter()
    }
}

fn finish(
    kind: OptimizerKind,
    problem: &AllocationProblem,
    units: BTreeMap<PartitionKey, u32>,
) -> Allocation {
    let total_units = units.values().sum();
    let predicted_misses = units.iter().map(|(k, &u)| problem.misses_of(*k, u)).sum();
    Allocation {
        kind,
        units,
        total_units,
        predicted_misses,
    }
}

fn check_feasible(problem: &AllocationProblem) -> Result<(), CoreError> {
    if problem.entities.is_empty() {
        return Err(CoreError::Infeasible {
            reason: "no entities to allocate".to_string(),
        });
    }
    let minimum: u32 = problem
        .entities
        .iter()
        .map(|e| e.candidates.iter().copied().min().unwrap_or(1))
        .sum();
    if minimum > problem.total_units {
        return Err(CoreError::Infeasible {
            reason: format!(
                "minimum allocation of {minimum} units exceeds the {} available",
                problem.total_units
            ),
        });
    }
    for e in &problem.entities {
        if e.candidates.is_empty() {
            return Err(CoreError::Infeasible {
                reason: format!("entity {} has no candidate sizes", e.key),
            });
        }
    }
    Ok(())
}

/// Exact multiple-choice-knapsack dynamic program minimising total misses.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] if even the smallest candidate of every
/// entity does not fit.
pub fn solve_exact(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    check_feasible(problem)?;
    let capacity = problem.total_units as usize;
    let n = problem.entities.len();
    const INFEASIBLE: u64 = u64::MAX;
    // dp[i][c] = minimal misses for entities i.. using at most c units.
    let mut dp = vec![vec![INFEASIBLE; capacity + 1]; n + 1];
    let mut choice = vec![vec![0u32; capacity + 1]; n];
    dp[n].fill(0);
    for i in (0..n).rev() {
        let entity = &problem.entities[i];
        for c in 0..=capacity {
            for &units in &entity.candidates {
                let u = units as usize;
                if u > c || dp[i + 1][c - u] == INFEASIBLE {
                    continue;
                }
                let cost = problem.misses_of(entity.key, units) + dp[i + 1][c - u];
                if cost < dp[i][c] {
                    dp[i][c] = cost;
                    choice[i][c] = units;
                }
            }
        }
    }
    if dp[0][capacity] == INFEASIBLE {
        return Err(CoreError::Infeasible {
            reason: "no combination of candidate sizes fits the cache".to_string(),
        });
    }
    let mut units = BTreeMap::new();
    let mut remaining = capacity;
    for (i, entity) in problem.entities.iter().enumerate() {
        let chosen = choice[i][remaining];
        units.insert(entity.key, chosen);
        remaining -= chosen as usize;
    }
    Ok(finish(OptimizerKind::ExactIlp, problem, units))
}

/// Greedy marginal-gain heuristic: start from every entity's smallest
/// candidate and repeatedly grant the doubling with the best miss reduction
/// per extra unit.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] if even the smallest candidates do not
/// fit.
pub fn solve_greedy(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    check_feasible(problem)?;
    let mut units: BTreeMap<PartitionKey, u32> = problem
        .entities
        .iter()
        .map(|e| (e.key, *e.candidates.iter().min().expect("non-empty")))
        .collect();
    let mut used: u32 = units.values().sum();
    loop {
        let mut best: Option<(PartitionKey, u32, f64)> = None;
        for e in &problem.entities {
            let current = units[&e.key];
            let Some(&next) = e.candidates.iter().filter(|&&c| c > current).min() else {
                continue;
            };
            let extra = next - current;
            if used + extra > problem.total_units {
                continue;
            }
            let gain = problem.misses_of(e.key, current) - problem.misses_of(e.key, next);
            let density = gain as f64 / f64::from(extra);
            if gain > 0 && best.as_ref().is_none_or(|(_, _, d)| density > *d) {
                best = Some((e.key, next, density));
            }
        }
        match best {
            Some((key, next, _)) => {
                used += next - units[&key];
                units.insert(key, next);
            }
            None => break,
        }
    }
    Ok(finish(OptimizerKind::Greedy, problem, units))
}

/// Equal-split strawman: give every entity the same (largest feasible)
/// candidate size.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] if even the smallest candidates do not
/// fit.
pub fn solve_equal_split(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    check_feasible(problem)?;
    let n = problem.entities.len() as u32;
    let fair_share = (problem.total_units / n).max(1);
    let units: BTreeMap<PartitionKey, u32> = problem
        .entities
        .iter()
        .map(|e| {
            let size = e
                .candidates
                .iter()
                .copied()
                .filter(|&c| c <= fair_share)
                .max()
                .or_else(|| e.candidates.iter().copied().min())
                .expect("non-empty candidates");
            (e.key, size)
        })
        .collect();
    let total: u32 = units.values().sum();
    if total > problem.total_units {
        return Err(CoreError::Infeasible {
            reason: "equal split does not fit".to_string(),
        });
    }
    Ok(finish(OptimizerKind::EqualSplit, problem, units))
}

/// Solves the problem with the requested solver.
///
/// # Errors
///
/// See the individual solvers.
pub fn solve(problem: &AllocationProblem, kind: OptimizerKind) -> Result<Allocation, CoreError> {
    match kind {
        OptimizerKind::ExactIlp => solve_exact(problem),
        OptimizerKind::Greedy => solve_greedy(problem),
        OptimizerKind::EqualSplit => solve_equal_split(problem),
    }
}

/// A per-entity quality-of-service floor: the chosen partition must keep
/// the entity's **predicted** miss rate (its profile's misses over its
/// profiled L2-bound accesses) at or under `max_miss_rate`.
///
/// This is the paper's compositionality guarantee as a constraint: a task
/// whose floor holds behaves within a stated bound of its solo run no
/// matter what its co-runners do, because its partition is exclusively
/// its own. Floors compose with every solver via [`solve_with_floors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosFloor {
    /// The entity whose service is guaranteed.
    pub key: PartitionKey,
    /// Highest acceptable predicted miss rate in `[0, 1]`.
    pub max_miss_rate: f64,
}

/// Restricts each floored entity's candidate sizes to those meeting its
/// floor, in place.
///
/// An entity without a profile never reached the L2 during profiling, so
/// every candidate trivially satisfies its floor and the entity is left
/// untouched.
///
/// # Errors
///
/// Returns [`CoreError::QosInfeasible`] when a floor names a key that is
/// not part of the problem, when no candidate size of a floored entity
/// meets its bound, or when the floored minimum sizes no longer fit the
/// cache (a plain [`CoreError::Infeasible`] problem stays `Infeasible`;
/// only floor-caused impossibility gets the QoS error).
pub fn apply_qos_floors(
    problem: &mut AllocationProblem,
    floors: &[QosFloor],
) -> Result<(), CoreError> {
    if floors.is_empty() {
        return Ok(());
    }
    for floor in floors {
        let Some(index) = problem.entities.iter().position(|e| e.key == floor.key) else {
            return Err(CoreError::QosInfeasible {
                key: floor.key.to_string(),
                reason: "the key is not part of the allocation problem".to_string(),
            });
        };
        let Some(profile) = problem.profiles.profile(floor.key) else {
            continue;
        };
        let entity = &problem.entities[index];
        let kept: Vec<u32> = entity
            .candidates
            .iter()
            .copied()
            .filter(|&units| profile.miss_rate_at(units) <= floor.max_miss_rate)
            .collect();
        if kept.is_empty() {
            let best = entity
                .candidates
                .iter()
                .map(|&units| profile.miss_rate_at(units))
                .fold(f64::INFINITY, f64::min);
            return Err(CoreError::QosInfeasible {
                key: floor.key.to_string(),
                reason: format!(
                    "no candidate size meets the {:.2}% floor (best predicted miss \
                     rate over the candidates is {:.2}%)",
                    floor.max_miss_rate * 100.0,
                    best * 100.0
                ),
            });
        }
        problem.entities[index].candidates = kept;
    }
    let minimum: u32 = problem
        .entities
        .iter()
        .map(|e| e.candidates.iter().copied().min().unwrap_or(1))
        .sum();
    if minimum > problem.total_units {
        let demanding = floors
            .iter()
            .max_by_key(|f| {
                problem
                    .entities
                    .iter()
                    .find(|e| e.key == f.key)
                    .and_then(|e| e.candidates.iter().copied().min())
                    .unwrap_or(0)
            })
            .expect("floors is non-empty");
        return Err(CoreError::QosInfeasible {
            key: demanding.key.to_string(),
            reason: format!(
                "honouring every floor needs at least {minimum} units but only {} \
                 are available",
                problem.total_units
            ),
        });
    }
    Ok(())
}

/// Solves the problem with the requested solver under per-entity QoS
/// floors: every floored entity's chosen size must keep its predicted
/// miss rate at or under its bound, and the solver minimises total misses
/// within what the floors leave open.
///
/// # Errors
///
/// As for [`apply_qos_floors`] and the individual solvers.
pub fn solve_with_floors(
    problem: &AllocationProblem,
    floors: &[QosFloor],
    kind: OptimizerKind,
) -> Result<Allocation, CoreError> {
    let mut constrained = problem.clone();
    apply_qos_floors(&mut constrained, floors)?;
    solve(&constrained, kind)
}

/// The sizing step of the paper's method, defined once: the trace's
/// region table (which names the entities and pins the FIFOs), the
/// allocation-unit lattice, the L2 geometry and the solver.
///
/// [`profiles`](Self::profiles) reads measured curves at the L2's
/// associativity, [`allocate`](Self::allocate) solves the allocation
/// problem over them, optionally under QoS floors, and
/// [`pack`](Self::pack) lays the allocation out as a capacity-checked
/// [`PartitionMap`]. The paper flow, phase plans, their schedules and
/// validation, the online policies and the oracle, the isolation harness
/// and the CLI's `profile` and `replay --qos` all size through it.
#[derive(Debug, Clone, Copy)]
pub struct SolverContext<'a> {
    /// Region table of the sized run (names the partition keys).
    pub table: &'a RegionTable,
    /// The allocation-unit lattice partition sizes are drawn from.
    pub lattice: &'a CacheSizeLattice,
    /// Geometry of the L2 being partitioned.
    pub geometry: CacheGeometry,
    /// Solver used for every solve.
    pub optimizer: OptimizerKind,
}

impl SolverContext<'_> {
    /// The per-entity miss profiles `curves` give on this lattice at the
    /// L2's associativity.
    ///
    /// # Errors
    ///
    /// Propagates curve-conversion errors (a lattice size outside the
    /// curves' resolution).
    pub fn profiles(&self, curves: &MissRateCurves) -> Result<MissProfiles, CoreError> {
        Ok(curves.to_profiles(self.lattice, self.geometry.ways())?)
    }

    /// Solves the allocation problem of the table's entities over
    /// `profiles` under `floors`; with no floors this is exactly the
    /// allocation of the free function [`solve`](fn@solve).
    ///
    /// # Errors
    ///
    /// As for [`solve_with_floors`].
    pub fn allocate(
        &self,
        profiles: MissProfiles,
        floors: &[QosFloor],
    ) -> Result<Allocation, CoreError> {
        let problem =
            allocation_problem_for_table(self.table, self.lattice, self.geometry, profiles);
        solve_with_floors(&problem, floors, self.optimizer)
    }

    /// Sizes the partitions from one set of measured curves:
    /// [`profiles`](Self::profiles), then [`allocate`](Self::allocate)
    /// without floors.
    ///
    /// # Errors
    ///
    /// Propagates curve-conversion and optimizer errors.
    pub fn solve(&self, curves: &MissRateCurves) -> Result<Allocation, CoreError> {
        self.allocate(self.profiles(curves)?, &[])
    }

    /// Packs an allocation into a partition map — laid out fresh
    /// ([`PartitionMap::pack`]) when `previous` is `None`, or stably
    /// against the currently installed map
    /// ([`PartitionMap::pack_stable`]) so unchanged keys keep their
    /// exact sets and the switch flushes only what actually moved.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CapacityExceeded`] if the allocation does
    /// not fit the lattice, and propagates map-packing errors.
    pub fn pack(
        &self,
        allocation: &Allocation,
        previous: Option<&PartitionMap>,
    ) -> Result<PartitionMap, CoreError> {
        pack_allocation(self.lattice, self.geometry, allocation, previous)
    }

    /// The profile-free fallback start map: every key of the table gets
    /// an equal share of the sets.
    ///
    /// # Errors
    ///
    /// Propagates map construction errors (an empty table has no keys).
    pub fn equal_split(&self) -> Result<PartitionMap, CoreError> {
        let keys = PartitionKey::distinct_keys(self.table);
        PartitionMap::equal_split(self.geometry, &keys).map_err(CoreError::from)
    }
}

/// The body of [`SolverContext::pack`], for the flows that pack an
/// allocation without a region table at hand (a phase plan's schedule and
/// its validation): the capacity check, units → sets, then a fresh or a
/// stable pack.
pub(crate) fn pack_allocation(
    lattice: &CacheSizeLattice,
    geometry: CacheGeometry,
    allocation: &Allocation,
    previous: Option<&PartitionMap>,
) -> Result<PartitionMap, CoreError> {
    if allocation.total_units > lattice.total_units {
        return Err(CoreError::CapacityExceeded {
            requested: allocation.total_units,
            available: lattice.total_units,
        });
    }
    let sizes: Vec<(PartitionKey, u32)> = allocation
        .iter()
        .map(|(key, &units)| (*key, lattice.sets_of(units)))
        .collect();
    let map = match previous {
        None => PartitionMap::pack(geometry, &sizes),
        Some(previous) => PartitionMap::pack_stable(geometry, &sizes, previous),
    };
    Ok(map?)
}

/// Brute-force reference solver used in tests (exponential; only for tiny
/// problems).
pub fn solve_exhaustive(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    check_feasible(problem)?;
    let mut best: Option<(u64, Vec<u32>)> = None;
    let mut current = vec![0u32; problem.entities.len()];
    fn recurse(
        problem: &AllocationProblem,
        index: usize,
        used: u32,
        misses: u64,
        current: &mut Vec<u32>,
        best: &mut Option<(u64, Vec<u32>)>,
    ) {
        if index == problem.entities.len() {
            if best.as_ref().is_none_or(|(m, _)| misses < *m) {
                *best = Some((misses, current.clone()));
            }
            return;
        }
        for &units in &problem.entities[index].candidates {
            if used + units > problem.total_units {
                continue;
            }
            current[index] = units;
            recurse(
                problem,
                index + 1,
                used + units,
                misses + problem.misses_of(problem.entities[index].key, units),
                current,
                best,
            );
        }
    }
    recurse(problem, 0, 0, 0, &mut current, &mut best);
    let (_, sizes) = best.ok_or_else(|| CoreError::Infeasible {
        reason: "no combination of candidate sizes fits the cache".to_string(),
    })?;
    let units: BTreeMap<PartitionKey, u32> = problem
        .entities
        .iter()
        .zip(sizes)
        .map(|(e, u)| (e.key, u))
        .collect();
    Ok(finish(OptimizerKind::ExactIlp, problem, units))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MissProfile;
    use compmem_trace::TaskId;

    fn profile(points: &[(u32, u64)]) -> MissProfile {
        MissProfile {
            accesses: points.iter().map(|(_, m)| m).sum(),
            misses_by_units: points.iter().copied().collect(),
        }
    }

    fn problem(total_units: u32) -> AllocationProblem {
        // Task 0 benefits hugely from 8 units, task 1 saturates at 2, task 2
        // is a streaming task that never benefits.
        let keys = [
            PartitionKey::Task(TaskId::new(0)),
            PartitionKey::Task(TaskId::new(1)),
            PartitionKey::Task(TaskId::new(2)),
        ];
        let mut profiles = MissProfiles {
            lattice_units: vec![1, 2, 4, 8],
            ..Default::default()
        };
        profiles
            .profiles
            .insert(keys[0], profile(&[(1, 1000), (2, 900), (4, 500), (8, 50)]));
        profiles
            .profiles
            .insert(keys[1], profile(&[(1, 400), (2, 80), (4, 75), (8, 70)]));
        profiles
            .profiles
            .insert(keys[2], profile(&[(1, 300), (2, 300), (4, 300), (8, 300)]));
        AllocationProblem {
            entities: keys
                .iter()
                .map(|&key| AllocationEntity {
                    key,
                    candidates: vec![1, 2, 4, 8],
                })
                .collect(),
            profiles,
            total_units,
        }
    }

    #[test]
    fn exact_matches_exhaustive_and_respects_capacity() {
        for capacity in [3, 6, 11, 16, 24] {
            let p = problem(capacity);
            let exact = solve_exact(&p).unwrap();
            let brute = solve_exhaustive(&p).unwrap();
            assert_eq!(
                exact.predicted_misses, brute.predicted_misses,
                "capacity {capacity}"
            );
            assert!(exact.total_units <= capacity);
        }
    }

    #[test]
    fn exact_prefers_the_task_with_the_knee() {
        let p = problem(11);
        let a = solve_exact(&p).unwrap();
        assert_eq!(a.units_of(PartitionKey::Task(TaskId::new(0))), 8);
        assert_eq!(a.units_of(PartitionKey::Task(TaskId::new(1))), 2);
        assert_eq!(a.units_of(PartitionKey::Task(TaskId::new(2))), 1);
        assert_eq!(a.predicted_misses, 50 + 80 + 300);
    }

    #[test]
    fn greedy_is_close_to_exact_here() {
        let p = problem(11);
        let exact = solve_exact(&p).unwrap();
        let greedy = solve_greedy(&p).unwrap();
        assert!(greedy.predicted_misses >= exact.predicted_misses);
        assert!(greedy.total_units <= p.total_units);
        // On this profile shape the greedy heuristic also finds the knee.
        assert_eq!(greedy.units_of(PartitionKey::Task(TaskId::new(0))), 8);
    }

    #[test]
    fn equal_split_is_worse_than_exact() {
        let p = problem(12);
        let exact = solve_exact(&p).unwrap();
        let equal = solve_equal_split(&p).unwrap();
        assert!(equal.predicted_misses > exact.predicted_misses);
        assert!(equal.total_units <= p.total_units);
    }

    #[test]
    fn pinned_entities_keep_their_size() {
        let mut p = problem(16);
        p.entities[2].candidates = vec![4];
        let a = solve_exact(&p).unwrap();
        assert_eq!(a.units_of(PartitionKey::Task(TaskId::new(2))), 4);
    }

    #[test]
    fn infeasible_problems_are_reported() {
        let p = problem(2);
        assert!(matches!(solve_exact(&p), Err(CoreError::Infeasible { .. })));
        let mut empty = problem(8);
        empty.entities.clear();
        assert!(solve(&empty, OptimizerKind::Greedy).is_err());
    }

    #[test]
    fn qos_floor_pins_the_floored_entity_to_meeting_sizes() {
        // Task 1's profile has accesses 625: rates 0.64 / 0.128 / 0.12 /
        // 0.112 over the candidates. A 0.119 floor leaves only 8 units.
        let p = problem(16);
        let key = PartitionKey::Task(TaskId::new(1));
        let floor = QosFloor {
            key,
            max_miss_rate: 0.119,
        };
        let a = solve_with_floors(&p, &[floor], OptimizerKind::ExactIlp).unwrap();
        assert_eq!(a.units_of(key), 8);
        let rate = p.profiles.profile(key).unwrap().miss_rate_at(8);
        assert!(rate <= floor.max_miss_rate);
        // Without the floor the same capacity gives task 1 less.
        let free = solve_exact(&p).unwrap();
        assert!(free.units_of(key) < 8);
        assert!(free.predicted_misses <= a.predicted_misses);
    }

    #[test]
    fn qos_floor_no_candidate_is_a_typed_error() {
        // Task 2 streams: 300/1200 = 25% misses at every size.
        let p = problem(16);
        let key = PartitionKey::Task(TaskId::new(2));
        let err = solve_with_floors(
            &p,
            &[QosFloor {
                key,
                max_miss_rate: 0.2,
            }],
            OptimizerKind::Greedy,
        )
        .unwrap_err();
        match err {
            CoreError::QosInfeasible { key: k, reason } => {
                assert_eq!(k, key.to_string());
                assert!(reason.contains("20.00%"), "{reason}");
            }
            other => panic!("expected QosInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn qos_floors_that_do_not_fit_together_are_a_typed_error() {
        // Floors forcing tasks 0 and 1 to 8 units each leave no room for
        // task 2's smallest candidate in a 16-unit cache.
        let p = problem(16);
        let floors = [
            QosFloor {
                key: PartitionKey::Task(TaskId::new(0)),
                max_miss_rate: 0.05,
            },
            QosFloor {
                key: PartitionKey::Task(TaskId::new(1)),
                max_miss_rate: 0.119,
            },
        ];
        let err = solve_with_floors(&p, &floors, OptimizerKind::ExactIlp).unwrap_err();
        assert!(
            matches!(err, CoreError::QosInfeasible { .. }),
            "expected QosInfeasible, got {err:?}"
        );
    }

    #[test]
    fn qos_floor_on_an_unknown_key_is_a_typed_error() {
        let p = problem(16);
        let err = solve_with_floors(
            &p,
            &[QosFloor {
                key: PartitionKey::Task(TaskId::new(9)),
                max_miss_rate: 0.5,
            }],
            OptimizerKind::ExactIlp,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::QosInfeasible { .. }));
    }

    #[test]
    fn qos_floor_on_an_unprofiled_entity_is_trivially_satisfied() {
        // An entity that never reached the L2 has no profile; any floor
        // holds and its candidates stay untouched.
        let mut p = problem(16);
        let key = PartitionKey::Task(TaskId::new(2));
        p.profiles.profiles.remove(&key);
        let mut constrained = p.clone();
        apply_qos_floors(
            &mut constrained,
            &[QosFloor {
                key,
                max_miss_rate: 0.0,
            }],
        )
        .unwrap();
        assert_eq!(constrained.entities, p.entities);
    }

    #[test]
    fn empty_floors_leave_the_problem_alone() {
        let p = problem(11);
        let with = solve_with_floors(&p, &[], OptimizerKind::ExactIlp).unwrap();
        let without = solve_exact(&p).unwrap();
        assert_eq!(with, without);
        // A plainly infeasible problem stays `Infeasible`, not QoS.
        let tiny = problem(2);
        assert!(matches!(
            solve_with_floors(&tiny, &[], OptimizerKind::ExactIlp),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn solver_dispatch_by_kind() {
        let p = problem(16);
        assert_eq!(
            solve(&p, OptimizerKind::ExactIlp).unwrap().kind,
            OptimizerKind::ExactIlp
        );
        assert_eq!(
            solve(&p, OptimizerKind::Greedy).unwrap().kind,
            OptimizerKind::Greedy
        );
        assert_eq!(
            solve(&p, OptimizerKind::EqualSplit).unwrap().kind,
            OptimizerKind::EqualSplit
        );
        assert_eq!(OptimizerKind::ExactIlp.to_string(), "exact-ilp");
    }
}
