//! Reuse-distance analysis of access traces.
//!
//! The paper's optimiser needs, for every task, the number of misses as a
//! function of allocated cache size. The full reproduction measures that by
//! simulation (crate `compmem`); the reuse-distance histogram here is the
//! stack-distance-based miss estimate the tests use as an independent
//! cross-check of the cache model.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::access::Access;
use crate::addr::LineAddr;

/// Histogram of LRU stack (reuse) distances at cache-line granularity.
///
/// Entry `d` counts references whose previous use of the same line had
/// exactly `d` distinct other lines referenced in between; cold references
/// are counted separately. For a fully-associative LRU cache of `c` lines the
/// number of misses equals the cold references plus all references with
/// distance `>= c` — the classic stack-distance identity used as an oracle in
/// the cache-model tests.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseDistanceHistogram {
    /// `histogram[d]` = number of references with stack distance `d`.
    pub histogram: BTreeMap<u64, u64>,
    /// References to lines never seen before.
    pub cold: u64,
}

impl ReuseDistanceHistogram {
    /// Computes the reuse-distance histogram of `accesses`.
    ///
    /// Uses the straightforward O(n·u) stack simulation (u = unique lines),
    /// which is plenty for the trace sizes used in tests.
    pub fn from_accesses(accesses: &[Access]) -> Self {
        let mut stack: Vec<LineAddr> = Vec::new();
        let mut hist = ReuseDistanceHistogram::default();
        for a in accesses {
            let line = a.addr.line();
            match stack.iter().rposition(|&l| l == line) {
                None => {
                    hist.cold += 1;
                    stack.push(line);
                }
                Some(pos) => {
                    let distance = (stack.len() - 1 - pos) as u64;
                    *hist.histogram.entry(distance).or_insert(0) += 1;
                    stack.remove(pos);
                    stack.push(line);
                }
            }
        }
        hist
    }

    /// Number of misses a fully-associative LRU cache with `capacity_lines`
    /// lines would incur on the analysed trace.
    pub fn lru_misses(&self, capacity_lines: u64) -> u64 {
        let far: u64 = self
            .histogram
            .iter()
            .filter(|(&d, _)| d >= capacity_lines)
            .map(|(_, &n)| n)
            .sum();
        self.cold + far
    }

    /// Total number of references analysed.
    pub fn total(&self) -> u64 {
        self.cold + self.histogram.values().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{looping, strided, StreamParams};
    use crate::{Addr, RegionId, TaskId};

    fn params() -> StreamParams {
        StreamParams {
            task: TaskId::new(0),
            region: RegionId::new(0),
            base: Addr::new(0),
            access_size: 4,
        }
    }

    #[test]
    fn reuse_distance_of_looping_stream() {
        // Working set of 8 lines, swept 3 times: first pass cold, later
        // passes all at distance 7.
        let s = looping(params(), 512, 64, 3);
        let h = ReuseDistanceHistogram::from_accesses(&s);
        assert_eq!(h.cold, 8);
        assert_eq!(h.histogram[&7], 16);
        assert_eq!(h.total(), 24);
        // A cache of 8 lines captures the reuse; 7 lines does not.
        assert_eq!(h.lru_misses(8), 8);
        assert_eq!(h.lru_misses(7), 24);
    }

    #[test]
    fn reuse_distance_zero_for_immediate_reuse() {
        let p = params();
        let mut s = strided(p, 0, 1);
        s.extend(strided(p, 0, 1));
        let h = ReuseDistanceHistogram::from_accesses(&s);
        assert_eq!(h.cold, 1);
        assert_eq!(h.histogram[&0], 1);
        assert_eq!(h.lru_misses(1), 1);
    }
}
