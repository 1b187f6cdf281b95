//! The ways of a set-associative cache, every set in flat arrays.

use serde::{Deserialize, Serialize};

use crate::replacement::ReplacementPolicy;

/// Tag of an invalid way. Tags are line addresses (a byte address over the
/// line size), so no resident line can carry it.
const EMPTY: u64 = u64::MAX;

/// Outcome of accessing one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetOutcome {
    /// Whether the tag was already present.
    pub hit: bool,
    /// Tag and dirtiness of a line that was evicted to make room, if any.
    pub evicted: Option<(u64, bool)>,
}

/// Every set of a cache: its ways plus the replacement metadata, each
/// field one flat array indexed `set * ways + way` (or `set` for per-set
/// state), so an access touches a few contiguous words and nothing on the
/// hot path allocates.
///
/// Way-partitioned organisations pass an `allowed_ways` bit mask restricting
/// both where a line may be filled and which ways may be victimised; the
/// conventional and set-partitioned organisations pass an all-ones mask.
/// Masks address at most 64 ways.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SetArray {
    ways: usize,
    /// The ways a mask can select: `ways` low bits.
    all_ways: u64,
    /// Tag of every way, [`EMPTY`] when invalid.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    /// Last-use stamps (LRU and the masked fallback of tree-PLRU).
    use_stamp: Vec<u64>,
    /// Fill stamps (FIFO).
    fill_stamp: Vec<u64>,
    /// Tree-PLRU internal-node bits, one word per set.
    plru_bits: Vec<u64>,
    /// Deterministic xorshift state for the random policy, one per set.
    rng_state: Vec<u64>,
    /// Monotonic event counter for the stamps above. Stamps are only
    /// compared within a set, so one counter serves every set.
    clock: u64,
}

impl SetArray {
    /// Creates `sets` empty sets of `ways` ways; set `i`'s random policy
    /// is seeded with `seed ^ i`.
    pub fn new(sets: u32, ways: u32, seed: u64) -> Self {
        let slots = sets as usize * ways as usize;
        SetArray {
            ways: ways as usize,
            all_ways: u64::MAX >> (64 - ways.min(64)),
            tags: vec![EMPTY; slots],
            dirty: vec![false; slots],
            use_stamp: vec![0; slots],
            fill_stamp: vec![0; slots],
            plru_bits: vec![0; sets as usize],
            rng_state: (0..sets).map(|i| (seed ^ u64::from(i)) | 1).collect(),
            clock: 0,
        }
    }

    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Returns `true` if `tag` is present in `set` (no metadata update).
    pub fn probe(&self, set: usize, tag: u64) -> bool {
        tag != EMPTY && self.tags[self.slots(set)].contains(&tag)
    }

    /// Number of filled ways over all sets.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Invalidates every line of every set, returning the number of dirty
    /// lines.
    pub fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for (tag, is_dirty) in self.tags.iter_mut().zip(&self.dirty) {
            if *tag != EMPTY && *is_dirty {
                dirty += 1;
            }
            *tag = EMPTY;
        }
        dirty
    }

    /// Invalidates the lines of `set` resident in the ways selected by
    /// `mask`, returning `(invalidated, dirty)` line counts (dirty lines
    /// would be written back). Replacement metadata of the flushed ways is
    /// left as is — the stamps only matter relative to occupied ways.
    pub fn invalidate_ways(&mut self, set: usize, mask: u64) -> (u64, u64) {
        let mut invalidated = 0;
        let mut dirty = 0;
        let base = set * self.ways;
        let mut selected = mask & self.all_ways;
        while selected != 0 {
            let slot = base + selected.trailing_zeros() as usize;
            selected &= selected - 1;
            if self.tags[slot] != EMPTY {
                self.tags[slot] = EMPTY;
                invalidated += 1;
                if self.dirty[slot] {
                    dirty += 1;
                }
            }
        }
        (invalidated, dirty)
    }

    /// Accesses `tag` in `set`.
    ///
    /// On a miss the line is filled into an allowed way, evicting a victim if
    /// all allowed ways are occupied. `is_write` marks the line dirty.
    pub fn access(
        &mut self,
        set: usize,
        tag: u64,
        is_write: bool,
        allowed_ways: u64,
        policy: ReplacementPolicy,
    ) -> SetOutcome {
        self.clock += 1;
        let base = set * self.ways;
        // Hit path: the line may live in any way (a line filled before a
        // repartitioning may sit outside the current mask; hits on it are
        // still hits, as in column caching).
        if let Some(way) = self.tags[self.slots(set)].iter().position(|&t| t == tag) {
            self.touch(set, way, policy);
            if is_write {
                self.dirty[base + way] = true;
            }
            return SetOutcome {
                hit: true,
                evicted: None,
            };
        }

        // Miss path: fill into a free allowed way, else evict the policy
        // victim among the allowed ways.
        let way = match self.free_allowed_way(base, allowed_ways) {
            Some(w) => w,
            None => self.victim(set, allowed_ways, policy),
        };
        let slot = base + way;
        let evicted = (self.tags[slot] != EMPTY).then(|| (self.tags[slot], self.dirty[slot]));
        self.tags[slot] = tag;
        self.dirty[slot] = is_write;
        self.fill_stamp[slot] = self.clock;
        self.touch(set, way, policy);
        SetOutcome {
            hit: false,
            evicted,
        }
    }

    fn free_allowed_way(&self, base: usize, allowed_ways: u64) -> Option<usize> {
        let mut allowed = allowed_ways & self.all_ways;
        while allowed != 0 {
            let way = allowed.trailing_zeros() as usize;
            if self.tags[base + way] == EMPTY {
                return Some(way);
            }
            allowed &= allowed - 1;
        }
        None
    }

    fn touch(&mut self, set: usize, way: usize, policy: ReplacementPolicy) {
        self.use_stamp[set * self.ways + way] = self.clock;
        if policy == ReplacementPolicy::TreePlru {
            self.plru_touch(set, way);
        }
    }

    fn victim(&mut self, set: usize, allowed_ways: u64, policy: ReplacementPolicy) -> usize {
        let allowed = allowed_ways & self.all_ways;
        assert!(
            allowed != 0,
            "way mask must allow at least one way of the set"
        );
        match policy {
            ReplacementPolicy::Lru => self.oldest(set, allowed, &self.use_stamp),
            ReplacementPolicy::Fifo => self.oldest(set, allowed, &self.fill_stamp),
            ReplacementPolicy::TreePlru if allowed == self.all_ways => self.plru_victim(set),
            // Masked tree-PLRU has no meaningful hardware analogue; fall back
            // to LRU stamps restricted to the allowed ways.
            ReplacementPolicy::TreePlru => self.oldest(set, allowed, &self.use_stamp),
            ReplacementPolicy::Random => {
                // xorshift64*
                let state = &mut self.rng_state[set];
                *state ^= *state >> 12;
                *state ^= *state << 25;
                *state ^= *state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                // The `r % count`-th allowed way, in way order.
                let mut rest = allowed;
                for _ in 0..r % u64::from(allowed.count_ones()) {
                    rest &= rest - 1;
                }
                rest.trailing_zeros() as usize
            }
        }
    }

    /// The allowed way of `set` with the smallest stamp (the lowest way on
    /// a tie).
    fn oldest(&self, set: usize, allowed: u64, stamps: &[u64]) -> usize {
        let stamps = &stamps[self.slots(set)];
        let mut rest = allowed;
        let mut oldest = rest.trailing_zeros() as usize;
        while rest != 0 {
            let way = rest.trailing_zeros() as usize;
            if stamps[way] < stamps[oldest] {
                oldest = way;
            }
            rest &= rest - 1;
        }
        oldest
    }

    /// Updates the tree-PLRU bits of `set` so they point away from `way`.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let ways = self.ways;
        if ways == 1 {
            return;
        }
        let bits = &mut self.plru_bits[set];
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed the left half: point the bit to the right half.
                *bits |= 1 << node;
                hi = mid;
                node *= 2;
            } else {
                *bits &= !(1 << node);
                lo = mid;
                node = node * 2 + 1;
            }
        }
    }

    /// Follows the tree-PLRU bits of `set` to the victim way.
    fn plru_victim(&self, set: usize) -> usize {
        let bits = self.plru_bits[set];
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << node) != 0 {
                // Bit points right.
                lo = mid;
                node = node * 2 + 1;
            } else {
                hi = mid;
                node *= 2;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u64 = u64::MAX;

    /// One set of `ways` ways.
    fn set(ways: u32, seed: u64) -> SetArray {
        SetArray::new(1, ways, seed)
    }

    fn access(set: &mut SetArray, tag: u64, mask: u64, policy: ReplacementPolicy) -> SetOutcome {
        set.access(0, tag, false, mask, policy)
    }

    #[test]
    fn fills_empty_ways_before_evicting() {
        let mut set = set(4, 1);
        for tag in 0..4 {
            let out = access(&mut set, tag, ALL, ReplacementPolicy::Lru);
            assert!(!out.hit);
            assert!(out.evicted.is_none());
        }
        assert_eq!(set.occupancy(), 4);
        let out = access(&mut set, 99, ALL, ReplacementPolicy::Lru);
        assert!(!out.hit);
        assert!(out.evicted.is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut set = set(2, 1);
        access(&mut set, 1, ALL, ReplacementPolicy::Lru);
        access(&mut set, 2, ALL, ReplacementPolicy::Lru);
        access(&mut set, 1, ALL, ReplacementPolicy::Lru); // 2 is now LRU
        let out = access(&mut set, 3, ALL, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((2, false)));
        assert!(set.probe(0, 1));
        assert!(set.probe(0, 3));
    }

    #[test]
    fn fifo_ignores_reuse() {
        let mut set = set(2, 1);
        access(&mut set, 1, ALL, ReplacementPolicy::Fifo);
        access(&mut set, 2, ALL, ReplacementPolicy::Fifo);
        access(&mut set, 1, ALL, ReplacementPolicy::Fifo); // reuse does not protect 1
        let out = access(&mut set, 3, ALL, ReplacementPolicy::Fifo);
        assert_eq!(out.evicted, Some((1, false)));
    }

    #[test]
    fn dirty_lines_report_dirty_on_eviction() {
        let mut set = set(1, 1);
        set.access(0, 7, true, ALL, ReplacementPolicy::Lru);
        let out = access(&mut set, 8, ALL, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((7, true)));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut set = set(1, 1);
        access(&mut set, 7, ALL, ReplacementPolicy::Lru);
        set.access(0, 7, true, ALL, ReplacementPolicy::Lru);
        let out = access(&mut set, 8, ALL, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((7, true)));
    }

    #[test]
    fn way_mask_restricts_fill_and_victim() {
        let mut set = set(4, 1);
        // Partition A owns ways 0-1, partition B owns ways 2-3.
        let mask_a = 0b0011;
        let mask_b = 0b1100;
        access(&mut set, 1, mask_a, ReplacementPolicy::Lru);
        access(&mut set, 2, mask_a, ReplacementPolicy::Lru);
        access(&mut set, 10, mask_b, ReplacementPolicy::Lru);
        access(&mut set, 11, mask_b, ReplacementPolicy::Lru);
        // A third line of partition A must evict an A line, not a B line.
        let out = access(&mut set, 3, mask_a, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((1, false)));
        assert!(set.probe(0, 10));
        assert!(set.probe(0, 11));
    }

    #[test]
    fn hit_outside_mask_is_still_a_hit() {
        let mut set = set(2, 1);
        access(&mut set, 5, 0b01, ReplacementPolicy::Lru);
        let out = access(&mut set, 5, 0b10, ReplacementPolicy::Lru);
        assert!(out.hit);
    }

    #[test]
    fn tree_plru_cycles_through_all_ways() {
        let mut set = set(4, 1);
        for tag in 0..4 {
            access(&mut set, tag, ALL, ReplacementPolicy::TreePlru);
        }
        // Access tags 0..4 again (all hits), then a stream of new tags must
        // eventually evict every original line: PLRU never evicts the way it
        // just touched.
        let mut evicted = Vec::new();
        for tag in 10..18 {
            let out = access(&mut set, tag, ALL, ReplacementPolicy::TreePlru);
            if let Some((t, _)) = out.evicted {
                evicted.push(t);
            }
        }
        assert_eq!(evicted.len(), 8);
        for tag in 0..4 {
            assert!(evicted.contains(&tag), "way holding {tag} never evicted");
        }
    }

    #[test]
    fn plru_victim_is_not_most_recently_used() {
        let mut set = set(4, 1);
        for tag in 0..4 {
            access(&mut set, tag, ALL, ReplacementPolicy::TreePlru);
        }
        access(&mut set, 2, ALL, ReplacementPolicy::TreePlru);
        let out = access(&mut set, 42, ALL, ReplacementPolicy::TreePlru);
        assert_ne!(out.evicted, Some((2, false)));
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut set = set(4, seed);
            let mut evictions = Vec::new();
            for tag in 0..32 {
                if let Some(e) = access(&mut set, tag, ALL, ReplacementPolicy::Random).evicted {
                    evictions.push(e.0);
                }
            }
            evictions
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn flush_counts_dirty_lines_and_empties() {
        let mut set = set(4, 1);
        set.access(0, 1, true, ALL, ReplacementPolicy::Lru);
        access(&mut set, 2, ALL, ReplacementPolicy::Lru);
        assert_eq!(set.flush(), 1);
        assert_eq!(set.occupancy(), 0);
        assert!(!set.probe(0, 1));
    }

    #[test]
    fn sets_are_independent() {
        let mut sets = SetArray::new(2, 1, 1);
        sets.access(0, 1, false, ALL, ReplacementPolicy::Lru);
        let out = sets.access(1, 2, false, ALL, ReplacementPolicy::Lru);
        assert!(out.evicted.is_none(), "set 1 has its own way");
        assert!(sets.probe(0, 1));
        assert!(!sets.probe(1, 1));
        assert_eq!(sets.invalidate_ways(1, ALL), (1, 0));
        assert!(sets.probe(0, 1));
    }

    #[test]
    #[should_panic(expected = "way mask")]
    fn empty_mask_with_full_set_panics() {
        let mut set = set(2, 1);
        access(&mut set, 1, ALL, ReplacementPolicy::Lru);
        access(&mut set, 2, ALL, ReplacementPolicy::Lru);
        access(&mut set, 3, 0, ReplacementPolicy::Lru);
    }
}
