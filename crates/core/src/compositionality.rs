//! Compositionality analysis: expected versus simulated misses per entity
//! (the paper's Figure 3).
//!
//! A memory system is compositional if the performance of a task can be
//! predicted from its stand-alone behaviour. After partitioning, the number
//! of misses each entity *should* experience is simply its miss profile
//! evaluated at its allocated size; the analysis compares that expectation
//! with what the full co-scheduled simulation measured. The paper reports
//! the largest per-task deviation relative to the total number of simulated
//! misses (≤ 2 % in their experiments).

use std::collections::BTreeMap;

use compmem_cache::PartitionKey;

use crate::optimizer::Allocation;
use crate::profile::MissProfiles;

/// Expected and simulated misses of one entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionalityEntry {
    /// The entity.
    pub key: PartitionKey,
    /// Units allocated to the entity.
    pub units: u32,
    /// Misses expected from the stand-alone profile at the allocated size.
    pub expected_misses: u64,
    /// Misses measured in the co-scheduled partitioned simulation.
    pub simulated_misses: u64,
}

impl CompositionalityEntry {
    /// Absolute difference between expectation and simulation.
    pub fn absolute_difference(&self) -> u64 {
        self.expected_misses.abs_diff(self.simulated_misses)
    }
}

/// The full expected-versus-simulated comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompositionalityReport {
    /// Per-entity comparison.
    pub entries: Vec<CompositionalityEntry>,
    /// Total simulated misses (the denominator of the paper's metric).
    pub total_simulated_misses: u64,
}

impl CompositionalityReport {
    /// Builds the report from the profiles, the chosen allocation and the
    /// per-entity misses measured in the partitioned run.
    pub fn compare(
        profiles: &MissProfiles,
        allocation: &Allocation,
        simulated: &BTreeMap<PartitionKey, u64>,
    ) -> Self {
        let total_simulated_misses = simulated.values().sum();
        let mut entries = Vec::new();
        for (&key, &units) in allocation.iter() {
            let expected = profiles.profile(key).map_or(0, |p| p.misses_at(units));
            let simulated_misses = simulated.get(&key).copied().unwrap_or(0);
            entries.push(CompositionalityEntry {
                key,
                units,
                expected_misses: expected,
                simulated_misses,
            });
        }
        CompositionalityReport {
            entries,
            total_simulated_misses,
        }
    }

    /// The paper's metric: the largest per-entity deviation relative to the
    /// total number of simulated misses.
    pub fn max_relative_difference(&self) -> f64 {
        if self.total_simulated_misses == 0 {
            return 0.0;
        }
        self.entries
            .iter()
            .map(|e| e.absolute_difference() as f64 / self.total_simulated_misses as f64)
            .fold(0.0, f64::max)
    }

    /// Mean per-entity deviation relative to the total simulated misses.
    pub fn mean_relative_difference(&self) -> f64 {
        if self.total_simulated_misses == 0 || self.entries.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .entries
            .iter()
            .map(|e| e.absolute_difference() as f64 / self.total_simulated_misses as f64)
            .sum();
        sum / self.entries.len() as f64
    }

    /// Returns `true` if every entity's deviation is within `fraction` of
    /// the total simulated misses.
    pub fn is_compositional_within(&self, fraction: f64) -> bool {
        self.max_relative_difference() <= fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerKind;
    use crate::profile::MissProfile;
    use compmem_trace::TaskId;

    fn setup() -> (MissProfiles, Allocation, BTreeMap<PartitionKey, u64>) {
        let k0 = PartitionKey::Task(TaskId::new(0));
        let k1 = PartitionKey::Task(TaskId::new(1));
        let mut profiles = MissProfiles::default();
        profiles.profiles.insert(
            k0,
            MissProfile {
                accesses: 1000,
                misses_by_units: [(1, 500), (4, 100)].into_iter().collect(),
            },
        );
        profiles.profiles.insert(
            k1,
            MissProfile {
                accesses: 1000,
                misses_by_units: [(1, 300), (4, 290)].into_iter().collect(),
            },
        );
        let allocation = Allocation {
            kind: OptimizerKind::ExactIlp,
            units: [(k0, 4), (k1, 1)].into_iter().collect(),
            total_units: 5,
            predicted_misses: 400,
        };
        let simulated = [(k0, 102u64), (k1, 306u64)].into_iter().collect();
        (profiles, allocation, simulated)
    }

    #[test]
    fn report_compares_expected_and_simulated() {
        let (profiles, allocation, simulated) = setup();
        let report = CompositionalityReport::compare(&profiles, &allocation, &simulated);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.total_simulated_misses, 408);
        let e0 = &report.entries[0];
        assert_eq!(e0.expected_misses, 100);
        assert_eq!(e0.simulated_misses, 102);
        assert_eq!(e0.absolute_difference(), 2);
        let max = report.max_relative_difference();
        assert!((max - 6.0 / 408.0).abs() < 1e-12);
        assert!(report.is_compositional_within(0.02));
        assert!(!report.is_compositional_within(0.01));
        assert!(report.mean_relative_difference() > 0.0);
        assert!(report.mean_relative_difference() <= max);
    }

    #[test]
    fn empty_report_is_trivially_compositional() {
        let report = CompositionalityReport::default();
        assert_eq!(report.max_relative_difference(), 0.0);
        assert!(report.is_compositional_within(0.0));
    }
}
