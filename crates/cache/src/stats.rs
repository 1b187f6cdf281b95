//! Miss and hit accounting, overall and attributed per task / region /
//! partition.

use serde::{Deserialize, Serialize};

use compmem_trace::AccessKind;

/// Aggregate counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Misses to lines never referenced before (cold / compulsory misses).
    pub cold_misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Instruction-fetch accesses.
    pub instr_accesses: u64,
    /// Instruction-fetch misses.
    pub instr_misses: u64,
    /// Load accesses.
    pub load_accesses: u64,
    /// Load misses.
    pub load_misses: u64,
    /// Store accesses.
    pub store_accesses: u64,
    /// Store misses.
    pub store_misses: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access outcome.
    pub(crate) fn record(&mut self, kind: AccessKind, hit: bool, cold: bool, writeback: bool) {
        self.accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if cold {
                self.cold_misses += 1;
            }
        }
        if writeback {
            self.writebacks += 1;
        }
        let (acc, miss) = match kind {
            AccessKind::InstrFetch => (&mut self.instr_accesses, &mut self.instr_misses),
            AccessKind::Load => (&mut self.load_accesses, &mut self.load_misses),
            AccessKind::Store => (&mut self.store_accesses, &mut self.store_misses),
        };
        *acc += 1;
        if !hit {
            *miss += 1;
        }
    }

    /// Miss rate (misses / accesses), zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate (hits / accesses), zero when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses that are not cold (inter-task conflict plus capacity misses).
    pub fn non_cold_misses(&self) -> u64 {
        self.misses - self.cold_misses
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.cold_misses += other.cold_misses;
        self.writebacks += other.writebacks;
        self.instr_accesses += other.instr_accesses;
        self.instr_misses += other.instr_misses;
        self.load_accesses += other.load_accesses;
        self.load_misses += other.load_misses;
        self.store_accesses += other.store_accesses;
        self.store_misses += other.store_misses;
    }
}

/// Per-key access/miss counters (key = task, region or partition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyStats {
    /// Accesses attributed to the key.
    pub accesses: u64,
    /// Misses attributed to the key.
    pub misses: u64,
}

impl KeyStats {
    /// Hits attributed to the key.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Miss rate for the key, zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A map of per-key counters kept in deterministic (sorted) order.
///
/// The map sits on the per-access hot path of every cache (task and region
/// attribution), so it is a sorted vector with a last-hit memo rather than
/// a tree: access streams are bursty — long runs share one task and one
/// region — so the memo makes the common case a single comparison, and the
/// handful of distinct keys keeps the insert path cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsByKey<K: Ord> {
    /// `(key, counters)` sorted by key.
    entries: Vec<(K, KeyStats)>,
    /// Index of the most recently recorded key.
    last: usize,
}

/// Equality ignores the memo: two maps with the same counters are equal
/// regardless of which key was recorded last.
impl<K: Ord> PartialEq for StatsByKey<K> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<K: Ord> Eq for StatsByKey<K> {}

impl<K: Ord> Default for StatsByKey<K> {
    fn default() -> Self {
        StatsByKey {
            entries: Vec::new(),
            last: 0,
        }
    }
}

impl<K: Ord> StatsByKey<K> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access outcome for `key`.
    pub fn record(&mut self, key: K, hit: bool) {
        if let Some((k, stats)) = self.entries.get_mut(self.last) {
            if *k == key {
                stats.accesses += 1;
                if !hit {
                    stats.misses += 1;
                }
                return;
            }
        }
        let index = match self.entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(index) => index,
            Err(index) => {
                self.entries.insert(index, (key, KeyStats::default()));
                index
            }
        };
        self.last = index;
        let stats = &mut self.entries[index].1;
        stats.accesses += 1;
        if !hit {
            stats.misses += 1;
        }
    }

    /// Returns the counters for `key` (zeros if never seen).
    pub fn get(&self, key: &K) -> KeyStats {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .map(|index| self.entries[index].1)
            .unwrap_or_default()
    }

    /// Iterates over `(key, counters)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &KeyStats)> {
        self.entries.iter().map(|(k, s)| (k, s))
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no key has been seen.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of misses over all keys.
    pub fn total_misses(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.misses).sum()
    }

    /// Sum of accesses over all keys.
    pub fn total_accesses(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.accesses).sum()
    }
}

impl<K: Ord + Clone> StatsByKey<K> {
    /// Merges another map into this one, adding counters key-wise (keys
    /// present in only one map keep their counts). Used to combine the
    /// per-key attributions of independently replayed set-shard lanes.
    pub fn merge(&mut self, other: &StatsByKey<K>) {
        for (key, stats) in other.iter() {
            let index = match self.entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(index) => index,
                Err(index) => {
                    self.entries
                        .insert(index, (key.clone(), KeyStats::default()));
                    index
                }
            };
            let entry = &mut self.entries[index].1;
            entry.accesses += stats.accesses;
            entry.misses += stats.misses;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compmem_trace::TaskId;

    #[test]
    fn record_classifies_by_kind() {
        let mut s = CacheStats::new();
        s.record(AccessKind::Load, false, true, false);
        s.record(AccessKind::Load, true, false, false);
        s.record(AccessKind::Store, false, false, true);
        s.record(AccessKind::InstrFetch, true, false, false);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.cold_misses, 1);
        assert_eq!(s.non_cold_misses(), 1);
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.load_accesses, 2);
        assert_eq!(s.load_misses, 1);
        assert_eq!(s.store_misses, 1);
        assert_eq!(s.instr_misses, 0);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CacheStats::new();
        a.record(AccessKind::Load, false, true, false);
        let mut b = CacheStats::new();
        b.record(AccessKind::Store, true, false, false);
        a.merge(&b);
        assert_eq!(a.accesses, 2);
        assert_eq!(a.hits, 1);
        assert_eq!(a.misses, 1);
    }

    #[test]
    fn stats_by_key_merges_key_wise() {
        let mut a: StatsByKey<TaskId> = StatsByKey::new();
        a.record(TaskId::new(0), false);
        a.record(TaskId::new(2), true);
        let mut b: StatsByKey<TaskId> = StatsByKey::new();
        b.record(TaskId::new(0), true);
        b.record(TaskId::new(1), false);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(&TaskId::new(0)).accesses, 2);
        assert_eq!(a.get(&TaskId::new(0)).misses, 1);
        assert_eq!(a.get(&TaskId::new(1)).misses, 1);
        assert_eq!(a.get(&TaskId::new(2)).accesses, 1);
        // Key order stays sorted after merging unseen keys.
        let keys: Vec<_> = a.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![TaskId::new(0), TaskId::new(1), TaskId::new(2)]);
    }

    #[test]
    fn stats_by_key_accumulates() {
        let mut s: StatsByKey<TaskId> = StatsByKey::new();
        s.record(TaskId::new(0), false);
        s.record(TaskId::new(0), true);
        s.record(TaskId::new(1), false);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&TaskId::new(0)).accesses, 2);
        assert_eq!(s.get(&TaskId::new(0)).misses, 1);
        assert_eq!(s.get(&TaskId::new(0)).hits(), 1);
        assert_eq!(s.get(&TaskId::new(2)).accesses, 0);
        assert_eq!(s.total_misses(), 2);
        assert_eq!(s.total_accesses(), 3);
        assert!((s.get(&TaskId::new(1)).miss_rate() - 1.0).abs() < 1e-12);
    }
}
