//! Single-pass stack-distance profiling: the full miss-rate curve of every
//! partition key from one pass over the access stream.
//!
//! # Why a stack-distance profiler
//!
//! The paper's optimiser needs, for every memory-active entity, the number
//! of L2 misses at *every* candidate partition size (the `m_i(S_k)` inputs
//! of the ILP). [`per_size_profiles`](crate::per_size_profiles) measures
//! those points by replaying each entity's accesses into one cache per
//! lattice point — `K` full cache simulations per entity. The
//! [`StackDistanceProfiler`] obtains the same numbers in **one** pass
//! with no cache bank: it exploits Mattson's inclusion property of
//! LRU (an access that hits in a cache of size `S` hits in every larger
//! size) to record a *distance histogram* from which the miss count at any
//! size is a suffix sum. The resulting [`MissRateCurve`] converts into
//! [`MissProfiles`] for **any** [`CacheSizeLattice`] after the fact — pay
//! the pass once, sweep as many lattices as you like.
//!
//! # The algorithm
//!
//! The caches being replaced are set-associative LRU caches with
//! power-of-two set counts, modulo indexing and full-line tags. For such a
//! cache with `S` sets and `W` ways, an access to line `l` misses exactly
//! when fewer than one of the `W` most recently used *distinct* lines of
//! `l`'s set is `l` itself — i.e. when the per-set LRU stack distance of
//! `l` is `>= W` (or `l` was never referenced: a cold miss). The profiler
//! therefore keeps, per partition key and per power-of-two set count
//! ("level") between [`CurveResolution::min_sets`] and
//! [`CurveResolution::max_sets`], a bank of per-set **bounded Mattson
//! stacks**: the `ways_cap` most recently used distinct lines of every
//! set, most recent first. One access then does, per level:
//!
//! 1. index the stack of set `line & (sets - 1)`;
//! 2. scan its `<= ways_cap` entries for the line — the position *is* the
//!    stack distance; record it in the level's distance histogram (the
//!    bucket `ways_cap` means "distance >= ways_cap", see below);
//! 3. rotate the line to the front (LRU update).
//!
//! Because the set counts are nested powers of two, every level sees the
//! same access exactly once, so the whole pass is `O(levels * ways_cap)`
//! per access — independent of the number of lattice points served later.
//!
//! Truncating each stack at `ways_cap` entries loses no information for
//! the question being asked: a line pushed off the end has, by
//! construction, `>= ways_cap` distinct more-recent lines in its set, so
//! any later access to it has distance `>= ways_cap` and misses at every
//! associativity up to `ways_cap` — exactly what the saturated histogram
//! bucket records. Distances below the cap are exact, hence
//! [`MissRateCurve::misses`] is **exact** (not an estimate) for every
//! `ways <= ways_cap` and every power-of-two set count within the
//! resolution, and agrees with the per-size simulation bit for bit.
//! (Those reference caches are LRU, the policy the stack-distance
//! identity holds for.)
//!
//! Cold misses are tracked once per key (first touch of a line misses at
//! every size simultaneously), mirroring the per-cache cold accounting.
//!
//! # The aggregate curve
//!
//! Besides the per-key curves the profiler maintains one **aggregate**
//! curve over the whole L2-bound stream, with every key folded into one
//! set of stacks. Its [`MissRateCurve::misses`] at shape `(S, W)` is the
//! exact miss count a *shared* `S`-set, `W`-way LRU L2 incurs over the
//! same stream — so one pass also answers the "what if the whole L2 were
//! shape X" question analytically, for every resolved shape at once.
//! That is what `Experiment::sweep_shapes` evaluates (and what the parity
//! test cross-checks against a replay per shape). Because every line
//! belongs to exactly one region (regions are line-aligned) and every
//! region to exactly one key, the aggregate's cold count is the per-key
//! cold count of the access's key — the aggregate rides the same
//! first-touch test.
//!
//! # Windowed profiling
//!
//! Multimedia workloads are phasic: a whole-run curve averages away phase
//! shifts the partition optimizer could exploit. A [`WindowedProfiler`]
//! wraps the profiler and emits a [`MissRateCurves`] snapshot per
//! fixed-size window ([`WindowConfig`]: a number of L2-bound accesses or
//! a number of cycles). Windows are *differences of cumulative
//! snapshots*, so stacks are **not** reset at boundaries — a window's
//! curve counts the misses its accesses contribute given everything
//! already resident — and summing all windows reconstructs the whole-run
//! curve exactly (a property test asserts this). The
//! [`WindowedCurves::phases`] detector then merges consecutive windows
//! whose curve delta (see [`curve_delta`]) stays under a threshold, so
//! `Experiment` can re-run the optimizer per phase.
//!
//! # Set shards
//!
//! Every stack at every level picks its set from the low bits of the
//! line (`line & (sets - 1)`), and every first-touch entry belongs to
//! one line. When `N` divides [`CurveResolution::min_sets`], the lines
//! with `line % N == i` therefore own their stacks and first touches
//! outright, so a pass splits into `N` **set shards** that never share
//! state: shard `i` observes its own lines, advances the window clock
//! past all others ([`WindowedProfiler::skip_at`]), and the shards' curves
//! add up to the serial pass's, window for window
//! ([`WindowedCurves::absorb_shard`]).

use std::collections::{BTreeMap, HashSet};
use std::hash::BuildHasherDefault;

use serde::{Deserialize, Serialize};

use compmem_trace::curves::{
    CurveEntry, CurveHeader, EncodedCurves, SidecarKey, SidecarWindow, SidecarWindowKind,
    WindowRecord,
};
use compmem_trace::{Access, CodecError, LineAddr, RegionTable};

use crate::cache::LineAddrHasher;
use crate::error::CacheError;
use crate::geometry::CacheGeometry;
use crate::partition::PartitionKey;
use crate::profile::{CacheSizeLattice, MissProfile, MissProfiles};

type LineSet = HashSet<LineAddr, BuildHasherDefault<LineAddrHasher>>;

/// Sentinel for an empty stack slot (no real line address reaches it: line
/// addresses are byte addresses shifted right by the line bits).
const EMPTY: u64 = u64::MAX;

/// The range of cache shapes a profiling pass resolves: every power-of-two
/// set count between `min_sets` and `max_sets`, at every associativity up
/// to `ways_cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CurveResolution {
    /// Smallest set count resolved (a power of two).
    pub min_sets: u32,
    /// Largest set count resolved (a power of two, `>= min_sets`).
    pub max_sets: u32,
    /// Largest associativity resolved exactly; distances beyond it
    /// saturate.
    pub ways_cap: u32,
}

impl CurveResolution {
    /// Creates a resolution.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] if either set count is zero
    /// or not a power of two, if `min_sets > max_sets`, or if `ways_cap`
    /// is zero.
    pub fn new(min_sets: u32, max_sets: u32, ways_cap: u32) -> Result<Self, CacheError> {
        for (parameter, value) in [("min_sets", min_sets), ("max_sets", max_sets)] {
            if !value.is_power_of_two() {
                return Err(CacheError::not_power_of_two(parameter, u64::from(value)));
            }
        }
        if min_sets > max_sets {
            return Err(CacheError::InvalidGeometry {
                parameter: "min_sets",
                value: u64::from(min_sets),
                rule: format!("exceeds max_sets of {max_sets}"),
            });
        }
        if ways_cap == 0 {
            return Err(CacheError::InvalidGeometry {
                parameter: "ways_cap",
                value: 0,
                rule: "must be at least 1".to_string(),
            });
        }
        Ok(CurveResolution {
            min_sets,
            max_sets,
            ways_cap,
        })
    }

    /// The resolution covering every lattice of a cache geometry: set
    /// counts from one allocation unit up to the full cache, at the
    /// cache's associativity.
    ///
    /// # Errors
    ///
    /// As for [`CurveResolution::new`] (e.g. `sets_per_unit` not a power
    /// of two or larger than the cache).
    pub fn for_geometry(geometry: CacheGeometry, sets_per_unit: u32) -> Result<Self, CacheError> {
        if !sets_per_unit.is_power_of_two() {
            return Err(CacheError::not_power_of_two(
                "sets_per_unit",
                u64::from(sets_per_unit),
            ));
        }
        if sets_per_unit > geometry.sets() {
            return Err(CacheError::InvalidGeometry {
                parameter: "sets_per_unit",
                value: u64::from(sets_per_unit),
                rule: format!("exceeds the cache's {} sets", geometry.sets()),
            });
        }
        Self::new(sets_per_unit, geometry.sets(), geometry.ways())
    }

    /// Number of set-count levels resolved.
    pub fn levels(&self) -> usize {
        (self.max_sets.ilog2() - self.min_sets.ilog2() + 1) as usize
    }

    /// The level index of a set count, if it is resolved.
    pub fn level_of(&self, sets: u32) -> Option<usize> {
        if sets < self.min_sets || sets > self.max_sets || !sets.is_power_of_two() {
            return None;
        }
        Some((sets.ilog2() - self.min_sets.ilog2()) as usize)
    }

    /// Set count of a level index.
    fn sets_of_level(&self, level: usize) -> u32 {
        self.min_sets << level
    }
}

/// The exact miss-vs-size/associativity surface of one partition key,
/// extracted from a profiling pass.
///
/// `level_histograms[j][d]` counts the non-cold accesses whose per-set LRU
/// stack distance at set count `min_sets << j` was exactly `d`
/// (`d < ways_cap`) or at least `ways_cap` (the last bucket). The miss
/// count of an `S`-set, `W`-way LRU cache over the profiled stream is the
/// cold count plus the suffix sum from bucket `W` — see
/// [`misses`](MissRateCurve::misses).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissRateCurve {
    /// Accesses of the key during the pass.
    pub accesses: u64,
    /// First-touch (cold) accesses: misses at every size.
    pub cold: u64,
    /// Smallest resolved set count.
    pub min_sets: u32,
    /// Associativity cap of the pass.
    pub ways_cap: u32,
    /// Per-level distance histograms, `ways_cap + 1` buckets each.
    pub level_histograms: Vec<Vec<u64>>,
}

impl MissRateCurve {
    /// Returns `true` if the curve resolves an `sets`-set, `ways`-way
    /// cache.
    pub fn supports(&self, sets: u32, ways: u32) -> bool {
        ways >= 1 && ways <= self.ways_cap && self.level_index(sets).is_some()
    }

    fn level_index(&self, sets: u32) -> Option<usize> {
        if sets < self.min_sets || !sets.is_power_of_two() {
            return None;
        }
        let level = (sets.ilog2() - self.min_sets.ilog2()) as usize;
        (level < self.level_histograms.len()).then_some(level)
    }

    /// The exact number of misses an `sets`-set, `ways`-way LRU cache
    /// incurs over the profiled access stream of this key.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::CurveOutOfRange`] if the shape is outside the
    /// profiled resolution.
    pub fn misses(&self, sets: u32, ways: u32) -> Result<u64, CacheError> {
        let out_of_range = || CacheError::CurveOutOfRange {
            sets,
            ways,
            min_sets: self.min_sets,
            max_sets: self.min_sets << (self.level_histograms.len().max(1) - 1),
            ways_cap: self.ways_cap,
        };
        if ways == 0 || ways > self.ways_cap {
            return Err(out_of_range());
        }
        let level = self.level_index(sets).ok_or_else(out_of_range)?;
        let far: u64 = self.level_histograms[level][ways as usize..].iter().sum();
        Ok(self.cold + far)
    }

    /// Miss rate at the given shape.
    ///
    /// # Errors
    ///
    /// As for [`misses`](MissRateCurve::misses).
    pub fn miss_rate(&self, sets: u32, ways: u32) -> Result<f64, CacheError> {
        let misses = self.misses(sets, ways)?;
        if self.accesses == 0 {
            return Ok(0.0);
        }
        Ok(misses as f64 / self.accesses as f64)
    }

    /// An all-zero curve of the given resolution (the identity of
    /// [`absorb`](MissRateCurve::absorb)).
    pub fn zero(resolution: &CurveResolution) -> Self {
        MissRateCurve {
            accesses: 0,
            cold: 0,
            min_sets: resolution.min_sets,
            ways_cap: resolution.ways_cap,
            level_histograms: vec![vec![0; resolution.ways_cap as usize + 1]; resolution.levels()],
        }
    }

    /// The counter-wise difference `self - earlier` of two *cumulative*
    /// snapshots of the same profiling pass (the per-window curve).
    ///
    /// # Panics
    ///
    /// Panics if the curves have different shapes or `earlier` is not a
    /// prefix of `self` — cumulative counters never decrease, so that is
    /// a programming error, not an input condition.
    fn minus(&self, earlier: &MissRateCurve) -> MissRateCurve {
        assert_eq!(self.min_sets, earlier.min_sets);
        assert_eq!(self.ways_cap, earlier.ways_cap);
        assert_eq!(self.level_histograms.len(), earlier.level_histograms.len());
        MissRateCurve {
            accesses: self.accesses - earlier.accesses,
            cold: self.cold - earlier.cold,
            min_sets: self.min_sets,
            ways_cap: self.ways_cap,
            level_histograms: self
                .level_histograms
                .iter()
                .zip(&earlier.level_histograms)
                .map(|(now, then)| now.iter().zip(then).map(|(n, t)| n - t).collect())
                .collect(),
        }
    }

    /// Adds another curve's counters into this one (merging windows into
    /// phases, or reconstructing the whole run from its windows).
    ///
    /// # Panics
    ///
    /// Panics if the curves have different shapes (a programming error:
    /// all curves of one pass share the pass's resolution).
    pub fn absorb(&mut self, other: &MissRateCurve) {
        assert_eq!(self.min_sets, other.min_sets);
        assert_eq!(self.ways_cap, other.ways_cap);
        assert_eq!(self.level_histograms.len(), other.level_histograms.len());
        self.accesses += other.accesses;
        self.cold += other.cold;
        for (mine, theirs) in self
            .level_histograms
            .iter_mut()
            .zip(&other.level_histograms)
        {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }
}

/// The miss-rate curves of every partition key observed during a pass,
/// plus the aggregate curve of the whole stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissRateCurves {
    /// Per-key curves.
    pub curves: BTreeMap<PartitionKey, MissRateCurve>,
    /// The curve of the whole L2-bound stream with every key folded into
    /// one set of stacks: its [`misses`](MissRateCurve::misses) at
    /// `(sets, ways)` is the exact miss count of a **shared** LRU L2 of
    /// that shape over the profiled stream (the analytic shape sweep).
    pub aggregate: MissRateCurve,
    /// The resolution of the pass.
    pub resolution: CurveResolution,
}

impl MissRateCurves {
    /// An empty curve set at the given resolution.
    pub fn empty(resolution: CurveResolution) -> Self {
        MissRateCurves {
            curves: BTreeMap::new(),
            aggregate: MissRateCurve::zero(&resolution),
            resolution,
        }
    }

    /// Curve of one key, if it generated any traffic.
    pub fn curve(&self, key: PartitionKey) -> Option<&MissRateCurve> {
        self.curves.get(&key)
    }

    /// All keys with a curve, in deterministic order.
    pub fn keys(&self) -> Vec<PartitionKey> {
        self.curves.keys().copied().collect()
    }

    /// Total accesses of the profiled stream.
    pub fn accesses(&self) -> u64 {
        self.aggregate.accesses
    }

    /// The exact number of misses a **shared** `sets`-set, `ways`-way LRU
    /// L2 incurs over the profiled stream (the analytic shape sweep; see
    /// [`MissRateCurves::aggregate`]).
    ///
    /// ```
    /// use compmem_cache::{CurveResolution, StackDistanceProfiler};
    /// use compmem_trace::{Access, RegionId, RegionKind, RegionTable, TaskId};
    ///
    /// # fn main() -> Result<(), compmem_cache::CacheError> {
    /// let mut regions = RegionTable::new();
    /// let task = TaskId::new(0);
    /// regions.insert("t0.data", RegionKind::TaskData { task }, 32 * 64).unwrap();
    /// let base = regions.regions()[0].base;
    /// let mut profiler =
    ///     StackDistanceProfiler::new(CurveResolution::new(1, 8, 4)?, &regions);
    /// // Sweep 24 lines twice: the second round only hits where the
    /// // shape is big enough to hold the working set.
    /// for round in 0..2u64 {
    ///     for line in 0..24u64 {
    ///         profiler.observe(&Access::load(
    ///             base.offset(line * 64), 4, task, RegionId::new(0)));
    ///     }
    ///     let _ = round;
    /// }
    /// let curves = profiler.into_curves();
    /// // One pass answers every resolved shape of a *shared* L2. A
    /// // 8-set, 4-way cache holds all 24 lines: only the cold misses.
    /// assert_eq!(curves.shared_misses(8, 4)?, 24);
    /// assert_eq!(curves.shared_misses(8, 4)?, curves.aggregate.misses(8, 4)?);
    /// // A 1-set, 1-way cache thrashes: every access misses.
    /// assert_eq!(curves.shared_misses(1, 1)?, 48);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::CurveOutOfRange`] if the shape is outside
    /// the profiled resolution.
    pub fn shared_misses(&self, sets: u32, ways: u32) -> Result<u64, CacheError> {
        self.aggregate.misses(sets, ways)
    }

    /// Adds another curve set's counters into this one (merging windows
    /// into phases). Keys absent on either side are treated as zero.
    ///
    /// # Panics
    ///
    /// Panics if the resolutions differ (a programming error: all curves
    /// of one pass share the pass's resolution).
    pub fn absorb(&mut self, other: &MissRateCurves) {
        assert_eq!(self.resolution, other.resolution);
        for (key, curve) in &other.curves {
            self.curves
                .entry(*key)
                .or_insert_with(|| MissRateCurve::zero(&self.resolution))
                .absorb(curve);
        }
        self.aggregate.absorb(&other.aggregate);
    }

    /// The per-window difference of two *cumulative* snapshots of one
    /// pass: per-key `self - earlier` with zero-traffic keys dropped (a
    /// key absent from `earlier` contributes its full curve), and the
    /// aggregate differenced directly. This is the single definition of
    /// "the curves of a window": every [`WindowedProfiler`] differences
    /// through it, set shards included.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots have different shapes or `earlier` is not
    /// a prefix of `self` (cumulative counters never decrease) — a
    /// programming error, as for [`MissRateCurves::absorb`].
    pub fn delta_since(&self, earlier: &MissRateCurves) -> MissRateCurves {
        let mut curves: BTreeMap<PartitionKey, MissRateCurve> = BTreeMap::new();
        for (key, curve) in &self.curves {
            let delta = match earlier.curves.get(key) {
                Some(before) => curve.minus(before),
                None => curve.clone(),
            };
            if delta.accesses > 0 {
                curves.insert(*key, delta);
            }
        }
        MissRateCurves {
            curves,
            aggregate: self.aggregate.minus(&earlier.aggregate),
            resolution: self.resolution,
        }
    }

    /// Converts the curves into the [`MissProfiles`] of a lattice: for
    /// every key and every candidate unit count, the exact miss count of a
    /// `ways`-way LRU cache of that many sets.
    ///
    /// This is the bridge to the partition-sizing optimiser — and because
    /// the curves are lattice-independent, the same pass serves any number
    /// of lattices.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::CurveOutOfRange`] if a candidate size or the
    /// associativity falls outside the profiled resolution.
    pub fn to_profiles(
        &self,
        lattice: &CacheSizeLattice,
        ways: u32,
    ) -> Result<MissProfiles, CacheError> {
        let mut profiles = BTreeMap::new();
        for (&key, curve) in &self.curves {
            let mut profile = MissProfile {
                accesses: curve.accesses,
                misses_by_units: BTreeMap::new(),
            };
            for &units in &lattice.candidate_units {
                let misses = curve.misses(lattice.sets_of(units), ways)?;
                profile.misses_by_units.insert(units, misses);
            }
            profiles.insert(key, profile);
        }
        Ok(MissProfiles {
            profiles,
            lattice_units: lattice.candidate_units.clone(),
        })
    }
}

/// One per-set stack bank at a fixed set count.
#[derive(Debug, Clone)]
struct LevelBank {
    set_mask: u64,
    /// `sets * ways_cap` slots, each set's stack contiguous, most recent
    /// first, [`EMPTY`] beyond the occupancy.
    stacks: Vec<u64>,
    /// Distance histogram, `ways_cap + 1` buckets (last = saturated).
    histogram: Vec<u64>,
}

impl LevelBank {
    fn new(sets: u32, ways_cap: u32) -> Self {
        LevelBank {
            set_mask: u64::from(sets - 1),
            stacks: vec![EMPTY; sets as usize * ways_cap as usize],
            histogram: vec![0; ways_cap as usize + 1],
        }
    }

    /// Records one (warm) access and performs the LRU update; `push` skips
    /// the histogram for cold accesses, which are counted per key.
    #[inline]
    fn observe(&mut self, line: u64, ways_cap: usize, cold: bool) {
        let set = (line & self.set_mask) as usize;
        let stack = &mut self.stacks[set * ways_cap..(set + 1) * ways_cap];
        // A cold line cannot be resident; skip the scan.
        let position = if cold {
            None
        } else {
            stack.iter().position(|&t| t == line)
        };
        match position {
            Some(distance) => {
                if !cold {
                    self.histogram[distance] += 1;
                }
                stack.copy_within(..distance, 1);
            }
            None => {
                if !cold {
                    *self.histogram.last_mut().expect("ways_cap >= 1") += 1;
                }
                stack.copy_within(..ways_cap - 1, 1);
            }
        }
        stack[0] = line;
    }
}

/// Per-key profiling state.
#[derive(Debug, Clone)]
struct KeyState {
    accesses: u64,
    cold: u64,
    seen: LineSet,
    levels: Vec<LevelBank>,
}

impl KeyState {
    fn new(resolution: &CurveResolution) -> Self {
        let levels = (0..resolution.levels())
            .map(|level| LevelBank::new(resolution.sets_of_level(level), resolution.ways_cap))
            .collect();
        KeyState {
            accesses: 0,
            cold: 0,
            seen: LineSet::default(),
            levels,
        }
    }
}

/// The single-pass profiler: feed it the L2-bound access stream once and
/// extract the exact [`MissRateCurves`] of every partition key.
///
/// Accesses are attributed to partition keys through the region table,
/// exactly as [`per_size_profiles`](crate::per_size_profiles) attributes
/// them, so the two produce identical [`MissProfiles`] — asserted point
/// for point by the cross-validation tests. State is allocated
/// lazily per key on first contact.
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    resolution: CurveResolution,
    /// Partition key of every region (dense by region index).
    region_keys: Vec<PartitionKey>,
    /// State slot of every region ([`UNTOUCHED`] until first contact).
    /// Regions sharing a partition key share a slot, and the per-access
    /// lookup is one array index — no keyed map on the hot path.
    region_slots: Vec<usize>,
    states: Vec<(PartitionKey, KeyState)>,
    /// The aggregate stacks with every key folded together (see the
    /// module docs): the shared-L2 shape sweep. Its `seen` set stays
    /// empty — cold misses ride the per-key first-touch test, because a
    /// line belongs to exactly one region and hence exactly one key.
    aggregate: KeyState,
}

/// Sentinel in [`StackDistanceProfiler::region_slots`] for a region whose
/// key state has not been created yet.
const UNTOUCHED: usize = usize::MAX;

impl StackDistanceProfiler {
    /// Creates a profiler for the given resolution and region table.
    pub fn new(resolution: CurveResolution, regions: &RegionTable) -> Self {
        let region_keys: Vec<PartitionKey> = regions
            .iter()
            .map(|r| PartitionKey::from_region_kind(r.kind))
            .collect();
        StackDistanceProfiler {
            resolution,
            region_slots: vec![UNTOUCHED; region_keys.len()],
            region_keys,
            states: Vec::new(),
            aggregate: KeyState::new(&resolution),
        }
    }

    /// The resolution of this profiler.
    pub fn resolution(&self) -> CurveResolution {
        self.resolution
    }

    /// Total accesses observed so far.
    pub fn accesses(&self) -> u64 {
        // The aggregate sees every access of every key.
        self.aggregate.accesses
    }

    /// Observes one access of the L2-bound stream.
    ///
    /// # Panics
    ///
    /// Panics if the access names a region outside the profiler's region
    /// table — a programming error, not an input condition: accesses
    /// decoded from a trace are validated against its embedded table by
    /// the codec, and live accesses come from the same table the profiler
    /// was built over.
    pub fn observe(&mut self, access: &Access) {
        let region = access.region.index();
        let slot = self
            .region_slots
            .get(region)
            .copied()
            .expect("access names a region outside the profiler's region table");
        let state = if slot == UNTOUCHED {
            // First contact with this region: find or create its key's
            // state (rare; the key may be shared with other regions).
            let key = self.region_keys[region];
            let index = match self.states.iter().position(|(k, _)| *k == key) {
                Some(index) => index,
                None => {
                    self.states.push((key, KeyState::new(&self.resolution)));
                    self.states.len() - 1
                }
            };
            self.region_slots[region] = index;
            &mut self.states[index].1
        } else {
            &mut self.states[slot].1
        };
        state.accesses += 1;
        let line_addr = access.addr.line();
        let cold = state.seen.insert(line_addr);
        if cold {
            state.cold += 1;
        }
        let line = line_addr.value();
        let ways_cap = self.resolution.ways_cap as usize;
        for bank in &mut state.levels {
            bank.observe(line, ways_cap, cold);
        }
        // The aggregate stacks see every access of every key; a line's
        // first touch under its key is also its first touch overall.
        self.aggregate.accesses += 1;
        if cold {
            self.aggregate.cold += 1;
        }
        for bank in &mut self.aggregate.levels {
            bank.observe(line, ways_cap, cold);
        }
    }

    /// Observes a run of accesses in order.
    pub fn observe_all(&mut self, accesses: &[Access]) {
        for access in accesses {
            self.observe(access);
        }
    }

    /// Extracts the measured curves.
    pub fn into_curves(self) -> MissRateCurves {
        let resolution = self.resolution;
        let curve_of = |state: KeyState| MissRateCurve {
            accesses: state.accesses,
            cold: state.cold,
            min_sets: resolution.min_sets,
            ways_cap: resolution.ways_cap,
            level_histograms: state
                .levels
                .into_iter()
                .map(|bank| bank.histogram)
                .collect(),
        };
        MissRateCurves {
            curves: self
                .states
                .into_iter()
                .map(|(key, state)| (key, curve_of(state)))
                .collect(),
            aggregate: curve_of(self.aggregate),
            resolution,
        }
    }

    /// Clones the curves accumulated so far without consuming the
    /// profiler — the cumulative snapshot the windowed profiler
    /// differences at every window boundary.
    pub fn snapshot_curves(&self) -> MissRateCurves {
        let resolution = self.resolution;
        let curve_of = |state: &KeyState| MissRateCurve {
            accesses: state.accesses,
            cold: state.cold,
            min_sets: resolution.min_sets,
            ways_cap: resolution.ways_cap,
            level_histograms: state
                .levels
                .iter()
                .map(|bank| bank.histogram.clone())
                .collect(),
        };
        MissRateCurves {
            curves: self
                .states
                .iter()
                .map(|(key, state)| (*key, curve_of(state)))
                .collect(),
            aggregate: curve_of(&self.aggregate),
            resolution,
        }
    }
}

// ----- windowed profiling -----

/// How a profiling pass slices the access stream into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowKind {
    /// One window covering the whole run (no slicing).
    WholeRun,
    /// A fixed number of L2-bound accesses per window.
    Accesses,
    /// A fixed number of cycles per window. Boundaries lie on a fixed
    /// grid anchored at the first observed cycle and advance
    /// monotonically with the *observed* cycle sequence; empty grid
    /// cells are skipped. Multiprocessor streams are only approximately
    /// chronological (a processor's chunk can run ahead of a peer's
    /// clock), so an access observed after the grid advanced joins the
    /// current window even if its cycle is slightly earlier — window
    /// cycle ranges report the min/max cycle actually observed and may
    /// overlap across windows by up to that interleaving skew.
    Cycles,
}

/// The window configuration of a profiling pass.
///
/// ```
/// use compmem_cache::{WindowConfig, WindowKind};
/// let w = WindowConfig::accesses(4096)?;
/// assert_eq!((w.kind, w.length), (WindowKind::Accesses, 4096));
/// assert!(WindowConfig::cycles(0).is_err());
/// assert_eq!(WindowConfig::whole_run().kind, WindowKind::WholeRun);
/// # Ok::<(), compmem_cache::CacheError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// How windows are delimited.
    pub kind: WindowKind,
    /// Window length in the kind's unit (0 for [`WindowKind::WholeRun`]).
    pub length: u64,
}

impl WindowConfig {
    /// The whole-run (single window) configuration.
    pub fn whole_run() -> Self {
        WindowConfig {
            kind: WindowKind::WholeRun,
            length: 0,
        }
    }

    /// A window of `length` L2-bound accesses.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidWindow`] if `length` is zero.
    pub fn accesses(length: u64) -> Result<Self, CacheError> {
        if length == 0 {
            return Err(CacheError::InvalidWindow { length });
        }
        Ok(WindowConfig {
            kind: WindowKind::Accesses,
            length,
        })
    }

    /// A window of `length` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidWindow`] if `length` is zero.
    pub fn cycles(length: u64) -> Result<Self, CacheError> {
        if length == 0 {
            return Err(CacheError::InvalidWindow { length });
        }
        Ok(WindowConfig {
            kind: WindowKind::Cycles,
            length,
        })
    }

    /// The sidecar encoding of this configuration.
    pub fn to_sidecar(self) -> SidecarWindow {
        SidecarWindow {
            kind: match self.kind {
                WindowKind::WholeRun => SidecarWindowKind::WholeRun,
                WindowKind::Accesses => SidecarWindowKind::Accesses,
                WindowKind::Cycles => SidecarWindowKind::Cycles,
            },
            length: self.length,
        }
    }

    /// Decodes a sidecar window configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidWindow`] for a zero-length windowed
    /// configuration (the sidecar codec rejects those too).
    pub fn from_sidecar(window: SidecarWindow) -> Result<Self, CacheError> {
        match window.kind {
            SidecarWindowKind::WholeRun => Ok(Self::whole_run()),
            SidecarWindowKind::Accesses => Self::accesses(window.length),
            SidecarWindowKind::Cycles => Self::cycles(window.length),
        }
    }
}

/// One profiling window: the curves its accesses contributed.
///
/// Windows are differences of cumulative profiler snapshots (stacks are
/// not reset at boundaries), so `curves` counts the misses of the
/// window's accesses *given everything already resident* — and summing
/// all windows of a pass reconstructs the whole-run curves exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveWindow {
    /// Zero-based window index.
    pub index: usize,
    /// Cycle (or access ordinal, for feeds without a clock) of the first
    /// access in the window.
    pub start_cycle: u64,
    /// Cycle (or access ordinal) of the last access in the window.
    pub end_cycle: u64,
    /// The curves of every key active in the window (zero-traffic keys
    /// are dropped), plus the window's aggregate.
    pub curves: MissRateCurves,
}

/// A maximal run of consecutive windows whose curves stay within the
/// phase threshold of each other.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// First member window (index into [`WindowedCurves::windows`]).
    pub first_window: usize,
    /// Last member window (inclusive).
    pub last_window: usize,
    /// Start cycle of the first member window.
    pub start_cycle: u64,
    /// End cycle of the last member window.
    pub end_cycle: u64,
    /// The merged curves of the member windows.
    pub curves: MissRateCurves,
}

impl Phase {
    /// Number of member windows.
    pub fn window_count(&self) -> usize {
        self.last_window - self.first_window + 1
    }
}

/// Normalised distance between two windows' curves, in `[0, 2]`.
///
/// The distance is the sum of two `[0, 1]` terms:
///
/// * **mix** — the total-variation distance between the windows' per-key
///   access shares (which keys are generating traffic, and how much);
/// * **behaviour** — the access-share-weighted mean absolute difference
///   of per-key miss rates over every resolved shape (how each key's
///   curve moved).
///
/// A key absent from a window contributes zero share and zero miss rate
/// there, so keys appearing or disappearing register in both terms.
/// Windows with no traffic at all are at distance 0 from each other.
///
/// # Panics
///
/// Panics if the curve sets were profiled at different resolutions — a
/// programming error, as with [`MissRateCurves::absorb`]: all windows of
/// one pass share the pass's resolution, and comparing curves across
/// resolutions has no well-defined shape grid.
pub fn curve_delta(a: &MissRateCurves, b: &MissRateCurves) -> f64 {
    assert_eq!(
        a.resolution, b.resolution,
        "curve_delta compares curves of one profiling resolution"
    );
    let total_a = a.aggregate.accesses as f64;
    let total_b = b.aggregate.accesses as f64;
    if total_a == 0.0 && total_b == 0.0 {
        return 0.0;
    }
    let resolution = a.resolution;
    let shapes: Vec<(u32, u32)> = (0..resolution.levels())
        .flat_map(|level| {
            let sets = resolution.min_sets << level;
            (1..=resolution.ways_cap).map(move |ways| (sets, ways))
        })
        .collect();
    let share = |curve: Option<&MissRateCurve>, total: f64| {
        curve.map_or(0.0, |c| {
            if total == 0.0 {
                0.0
            } else {
                c.accesses as f64 / total
            }
        })
    };
    let rate = |curve: Option<&MissRateCurve>, sets: u32, ways: u32| {
        curve.map_or(0.0, |c| c.miss_rate(sets, ways).unwrap_or(0.0))
    };
    let mut mix = 0.0;
    let mut behaviour = 0.0;
    let combined = total_a + total_b;
    let keys: std::collections::BTreeSet<PartitionKey> =
        a.curves.keys().chain(b.curves.keys()).copied().collect();
    for key in keys {
        let ca = a.curves.get(&key);
        let cb = b.curves.get(&key);
        let sa = share(ca, total_a);
        let sb = share(cb, total_b);
        mix += (sa - sb).abs() / 2.0;
        let weight =
            (ca.map_or(0, |c| c.accesses) + cb.map_or(0, |c| c.accesses)) as f64 / combined;
        let mut diff = 0.0;
        for &(sets, ways) in &shapes {
            diff += (rate(ca, sets, ways) - rate(cb, sets, ways)).abs();
        }
        behaviour += weight * diff / shapes.len() as f64;
    }
    mix + behaviour
}

/// Streaming phase detection: the one curve-delta phase rule, applied
/// window by window.
///
/// A window opens a new phase when its [`curve_delta`] from the previous
/// window exceeds the threshold. The detector consumes windows **as they
/// close** — e.g. straight from a [`WindowedProfiler`] during a live run —
/// and keeps only the previous window's curves, so the online controller
/// and the offline [`WindowedCurves::phases`] (which folds this detector
/// over a finished pass) segment a run identically.
#[derive(Debug)]
pub struct OnlinePhaseDetector {
    threshold: f64,
    previous: Option<MissRateCurves>,
    /// Index the next observed window will get.
    next_index: usize,
    /// First window of the currently open phase.
    phase_start: usize,
}

impl OnlinePhaseDetector {
    /// Creates a detector splitting at curve-delta `threshold`.
    pub fn new(threshold: f64) -> Self {
        OnlinePhaseDetector {
            threshold,
            previous: None,
            next_index: 0,
            phase_start: 0,
        }
    }

    /// Observes the next window's curves. When the window opens a new
    /// phase, returns the *completed* phase as its inclusive
    /// `(first_window, last_window)` range.
    ///
    /// # Panics
    ///
    /// As for [`curve_delta`]: all windows of one pass must share one
    /// profiling resolution.
    pub fn observe(&mut self, curves: &MissRateCurves) -> Option<(usize, usize)> {
        let index = self.next_index;
        self.next_index += 1;
        let mut completed = None;
        if let Some(previous) = &self.previous {
            if curve_delta(previous, curves) > self.threshold {
                completed = Some((self.phase_start, index - 1));
                self.phase_start = index;
            }
        }
        self.previous = Some(curves.clone());
        completed
    }

    /// Closes the trailing phase, if any window was observed.
    pub fn finish(self) -> Option<(usize, usize)> {
        (self.next_index > 0).then(|| (self.phase_start, self.next_index - 1))
    }
}

/// A [`StackDistanceProfiler`] that additionally snapshots a
/// [`MissRateCurves`] per fixed-size window.
///
/// Feed it with [`observe_at`](WindowedProfiler::observe_at) when the
/// stream carries cycles (trace records, live taps) or plain
/// [`observe`](WindowedProfiler::observe) otherwise (the access ordinal
/// then stands in for the clock), and extract the result with
/// [`finish`](WindowedProfiler::finish).
///
/// ```
/// use compmem_cache::{CurveResolution, WindowConfig, WindowedProfiler};
/// use compmem_trace::{Access, Addr, RegionId, RegionKind, RegionTable, TaskId};
///
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// let mut regions = RegionTable::new();
/// let task = TaskId::new(0);
/// regions.insert("t0.data", RegionKind::TaskData { task }, 64 * 64).unwrap();
/// let resolution = CurveResolution::new(4, 16, 2)?;
/// let mut profiler = WindowedProfiler::new(
///     WindowConfig::accesses(50)?, resolution, &regions);
/// let base = regions.regions()[0].base;
/// for i in 0..120u64 {
///     profiler.observe(&Access::load(base.offset(i % 64 * 64), 4, task, RegionId::new(0)));
/// }
/// let windowed = profiler.finish();
/// // 120 accesses in 50-access windows: 50 + 50 + a 20-access tail.
/// assert_eq!(windowed.windows.len(), 3);
/// assert_eq!(windowed.total.accesses(), 120);
/// // Summing the windows reconstructs the whole-run curves exactly.
/// assert_eq!(windowed.reconstruct_total(), windowed.total);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WindowedProfiler {
    profiler: StackDistanceProfiler,
    config: WindowConfig,
    windows: Vec<CurveWindow>,
    /// Cumulative snapshot at the last window boundary.
    previous: MissRateCurves,
    /// Accesses observed in the current window.
    window_accesses: u64,
    /// Cycle grid anchor of the current window ([`WindowKind::Cycles`]).
    grid_start: u64,
    /// First and last cycle observed in the current window.
    first_cycle: u64,
    last_cycle: u64,
    /// Total accesses observed (the pseudo-clock of plain `observe`).
    observed: u64,
}

impl WindowedProfiler {
    /// Creates a windowed profiler.
    pub fn new(config: WindowConfig, resolution: CurveResolution, regions: &RegionTable) -> Self {
        WindowedProfiler {
            profiler: StackDistanceProfiler::new(resolution, regions),
            previous: MissRateCurves::empty(resolution),
            config,
            windows: Vec::new(),
            window_accesses: 0,
            grid_start: 0,
            first_cycle: 0,
            last_cycle: 0,
            observed: 0,
        }
    }

    /// Observes one access of the L2-bound stream, issued at `cycle`.
    ///
    /// A cycle-windowed pass closes the current window before observing
    /// an access that lies past the window's grid boundary. Cycles are
    /// expected to be (approximately) non-decreasing; an access whose
    /// cycle regresses — multiprocessor interleavings produce bounded
    /// regressions — simply joins the current window and widens its
    /// reported cycle range (see [`WindowKind::Cycles`]).
    ///
    /// # Panics
    ///
    /// As for [`StackDistanceProfiler::observe`] (a region outside the
    /// profiler's table is a programming error).
    pub fn observe_at(&mut self, cycle: u64, access: &Access) {
        self.tick(cycle, Some(access));
    }

    /// Advances the window clock past one access of the stream that
    /// another set shard measures: windows open, close and report their
    /// cycle ranges exactly as if [`observe_at`](WindowedProfiler::observe_at)
    /// had seen the access, but no curve counts it. Feeding every shard
    /// of a set-sharded pass the whole stream — its own lines through
    /// `observe_at`, the rest through `skip_at` — gives all shards the
    /// serial pass's windows, so their curves add up window for window
    /// ([`WindowedCurves::absorb_shard`]).
    pub fn skip_at(&mut self, cycle: u64) {
        self.tick(cycle, None);
    }

    fn tick(&mut self, cycle: u64, access: Option<&Access>) {
        if self.config.kind == WindowKind::Cycles {
            if self.window_accesses == 0 {
                // First access of a window anchors (or re-anchors) the
                // grid cell it falls into.
                if self.windows.is_empty() && self.observed == 0 {
                    self.grid_start = cycle;
                } else if cycle >= self.grid_start + self.config.length {
                    let cells = (cycle - self.grid_start) / self.config.length;
                    self.grid_start += cells * self.config.length;
                }
            } else if cycle >= self.grid_start + self.config.length {
                self.close_window();
                let cells = (cycle - self.grid_start) / self.config.length;
                self.grid_start += cells * self.config.length;
            }
        }
        if self.window_accesses == 0 {
            self.first_cycle = cycle;
            self.last_cycle = cycle;
        } else {
            // Multiprocessor feeds may observe slightly out-of-order
            // cycles; report the true min/max of the window.
            self.first_cycle = self.first_cycle.min(cycle);
            self.last_cycle = self.last_cycle.max(cycle);
        }
        if let Some(access) = access {
            self.profiler.observe(access);
        }
        self.observed += 1;
        self.window_accesses += 1;
        if self.config.kind == WindowKind::Accesses && self.window_accesses == self.config.length {
            self.close_window();
        }
    }

    /// Observes one access, using the running access ordinal as the
    /// clock (exact for access-count windows; for cycle windows this
    /// degrades to counting accesses).
    pub fn observe(&mut self, access: &Access) {
        self.observe_at(self.observed, access);
    }

    fn close_window(&mut self) {
        if self.window_accesses == 0 {
            return;
        }
        let cumulative = self.profiler.snapshot_curves();
        let curves = cumulative.delta_since(&self.previous);
        self.windows.push(CurveWindow {
            index: self.windows.len(),
            start_cycle: self.first_cycle,
            end_cycle: self.last_cycle,
            curves,
        });
        self.previous = cumulative;
        self.window_accesses = 0;
    }

    /// Closes the trailing window and extracts the windowed curves.
    pub fn finish(mut self) -> WindowedCurves {
        self.close_window();
        let config = self.config;
        let windows = std::mem::take(&mut self.windows);
        let total = self.profiler.into_curves();
        WindowedCurves {
            config,
            resolution: total.resolution,
            windows,
            total,
        }
    }
}

/// The result of a windowed profiling pass: per-window curves plus the
/// exact whole-run curves.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedCurves {
    /// The window configuration of the pass.
    pub config: WindowConfig,
    /// The resolution of the pass.
    pub resolution: CurveResolution,
    /// The emitted windows, in stream order.
    pub windows: Vec<CurveWindow>,
    /// The whole-run curves (identical to what an unwindowed pass over
    /// the same stream measures).
    pub total: MissRateCurves,
}

impl WindowedCurves {
    /// Sums the windows back into whole-run curves — by construction
    /// equal to [`total`](WindowedCurves::total); exposed so tests (and a
    /// property test) can assert the windowed/whole-run consistency
    /// invariant.
    pub fn reconstruct_total(&self) -> MissRateCurves {
        let mut sum = MissRateCurves::empty(self.resolution);
        for window in &self.windows {
            sum.absorb(&window.curves);
        }
        sum
    }

    /// Adds another set shard's windowed curves into this one, window
    /// for window. Shards of one set-sharded pass share the window clock
    /// (see [`WindowedProfiler::skip_at`]) and split every reuse stack
    /// and first-touch set between them, so the sums are exactly the
    /// serial pass's curves.
    ///
    /// # Panics
    ///
    /// Panics if the shards disagree on window configuration, resolution
    /// or window boundaries — a programming error, as for
    /// [`MissRateCurves::absorb`]: shards of one pass share one clock.
    pub fn absorb_shard(&mut self, other: &WindowedCurves) {
        assert_eq!(
            (self.config, self.resolution, self.windows.len()),
            (other.config, other.resolution, other.windows.len()),
            "windowed shards of one pass share their window configuration"
        );
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            assert_eq!(
                (mine.index, mine.start_cycle, mine.end_cycle),
                (theirs.index, theirs.start_cycle, theirs.end_cycle),
                "windowed shards of one pass share their window boundaries"
            );
            mine.curves.absorb(&theirs.curves);
        }
        self.total.absorb(&other.total);
    }

    /// Merges an inclusive window range into one curve set (the curves
    /// of a phase).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn merged(&self, first: usize, last: usize) -> MissRateCurves {
        assert!(first <= last && last < self.windows.len());
        let mut sum = MissRateCurves::empty(self.resolution);
        for window in &self.windows[first..=last] {
            sum.absorb(&window.curves);
        }
        sum
    }

    /// Segments the windows into phases by folding an
    /// [`OnlinePhaseDetector`] over them: consecutive windows whose
    /// [`curve_delta`] stays `<= threshold` merge into one phase; a
    /// window farther than that from its predecessor opens a new phase.
    ///
    /// A threshold of `0.10` separates clearly distinct phases while
    /// tolerating sampling noise; the whole-run pass (one window) always
    /// yields exactly one phase.
    pub fn phases(&self, threshold: f64) -> Vec<Phase> {
        let mut detector = OnlinePhaseDetector::new(threshold);
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for window in &self.windows {
            ranges.extend(detector.observe(&window.curves));
        }
        ranges.extend(detector.finish());
        ranges
            .into_iter()
            .map(|(first, last)| Phase {
                first_window: first,
                last_window: last,
                start_cycle: self.windows[first].start_cycle,
                end_cycle: self.windows[last].end_cycle,
                curves: self.merged(first, last),
            })
            .collect()
    }

    // ----- sidecar bridge -----

    /// Encodes the windowed curves as a sidecar for the trace whose
    /// encoded bytes hash to `trace_hash` (see
    /// [`compmem_trace::curves::trace_content_hash`]).
    ///
    /// `l1_signature` identifies the L1 filter configuration the curves
    /// were measured behind (the L2-bound stream depends on it; pass 0
    /// for streams fed to the profiler directly). The profiling layer
    /// computes it — see `compmem-platform`'s `l1_filter_signature`.
    ///
    /// The encoding is lossless and deterministic:
    /// [`from_sidecar`](WindowedCurves::from_sidecar) restores an equal
    /// value, and equal values produce identical bytes.
    pub fn to_sidecar(&self, trace_hash: u64, l1_signature: u64) -> EncodedCurves {
        let header = CurveHeader {
            trace_hash,
            l1_signature,
            min_sets: self.resolution.min_sets,
            max_sets: self.resolution.max_sets,
            ways_cap: self.resolution.ways_cap,
            window: self.config.to_sidecar(),
        };
        let windows = self
            .windows
            .iter()
            .map(|window| WindowRecord {
                index: window.index as u64,
                start_cycle: window.start_cycle,
                end_cycle: window.end_cycle,
                entries: entries_of(&window.curves),
            })
            .collect();
        EncodedCurves::from_parts(header, windows, entries_of(&self.total))
    }

    /// Decodes a sidecar back into windowed curves.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the sidecar's resolution or
    /// curve shapes are semantically invalid (the byte-level checks
    /// already ran when `encoded` was parsed).
    pub fn from_sidecar(encoded: &EncodedCurves) -> Result<Self, CodecError> {
        let header = encoded.header();
        let resolution = CurveResolution::new(header.min_sets, header.max_sets, header.ways_cap)
            .map_err(|_| CodecError::Corrupt {
                reason: "sidecar resolution is not a valid curve resolution",
            })?;
        let config =
            WindowConfig::from_sidecar(header.window).map_err(|_| CodecError::Corrupt {
                reason: "sidecar window configuration is invalid",
            })?;
        let windows = encoded
            .windows()
            .iter()
            .map(|record| {
                Ok(CurveWindow {
                    index: record.index as usize,
                    start_cycle: record.start_cycle,
                    end_cycle: record.end_cycle,
                    curves: curves_of(&record.entries, resolution)?,
                })
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        Ok(WindowedCurves {
            config,
            resolution,
            windows,
            total: curves_of(encoded.total(), resolution)?,
        })
    }
}

fn sidecar_key(key: PartitionKey) -> SidecarKey {
    match key {
        PartitionKey::Task(task) => SidecarKey::Task(task),
        PartitionKey::Buffer(buffer) => SidecarKey::Buffer(buffer),
        PartitionKey::AppData => SidecarKey::AppData,
        PartitionKey::AppBss => SidecarKey::AppBss,
        PartitionKey::RtData => SidecarKey::RtData,
        PartitionKey::RtBss => SidecarKey::RtBss,
    }
}

fn entry_of(key: SidecarKey, curve: &MissRateCurve) -> CurveEntry {
    CurveEntry {
        key,
        accesses: curve.accesses,
        cold: curve.cold,
        level_histograms: curve.level_histograms.clone(),
    }
}

/// Flattens a curve set into sorted sidecar entries ([`SidecarKey`]
/// orders the aggregate first, then keys in [`PartitionKey`] order).
fn entries_of(curves: &MissRateCurves) -> Vec<CurveEntry> {
    let mut entries = Vec::with_capacity(curves.curves.len() + 1);
    entries.push(entry_of(SidecarKey::Aggregate, &curves.aggregate));
    for (key, curve) in &curves.curves {
        entries.push(entry_of(sidecar_key(*key), curve));
    }
    entries
}

/// Rebuilds a curve set from sidecar entries.
fn curves_of(
    entries: &[CurveEntry],
    resolution: CurveResolution,
) -> Result<MissRateCurves, CodecError> {
    let mut curves = BTreeMap::new();
    let mut aggregate = None;
    for entry in entries {
        let curve = MissRateCurve {
            accesses: entry.accesses,
            cold: entry.cold,
            min_sets: resolution.min_sets,
            ways_cap: resolution.ways_cap,
            level_histograms: entry.level_histograms.clone(),
        };
        let key = match entry.key {
            SidecarKey::Aggregate => {
                aggregate = Some(curve);
                continue;
            }
            SidecarKey::Task(task) => PartitionKey::Task(task),
            SidecarKey::Buffer(buffer) => PartitionKey::Buffer(buffer),
            SidecarKey::AppData => PartitionKey::AppData,
            SidecarKey::AppBss => PartitionKey::AppBss,
            SidecarKey::RtData => PartitionKey::RtData,
            SidecarKey::RtBss => PartitionKey::RtBss,
        };
        curves.insert(key, curve);
    }
    let aggregate = match aggregate {
        Some(aggregate) => aggregate,
        None if entries.is_empty() => MissRateCurve::zero(&resolution),
        None => {
            return Err(CodecError::Corrupt {
                reason: "sidecar curve set lacks the aggregate curve",
            })
        }
    };
    Ok(MissRateCurves {
        curves,
        aggregate,
        resolution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::profile::per_size_profiles;
    use compmem_trace::{Access, RegionId, RegionKind, TaskId};

    fn region_table() -> RegionTable {
        let mut t = RegionTable::new();
        t.insert(
            "t0.data",
            RegionKind::TaskData {
                task: TaskId::new(0),
            },
            512 * 1024,
        )
        .unwrap();
        t.insert(
            "t1.data",
            RegionKind::TaskData {
                task: TaskId::new(1),
            },
            512 * 1024,
        )
        .unwrap();
        t
    }

    /// Deterministic pseudo-random access mix over both regions.
    fn scrambled_accesses(regions: &RegionTable, count: u64) -> Vec<Access> {
        let mut accesses = Vec::new();
        let mut state = 0x9e37_79b9u64;
        for i in 0..count {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let region = (i % 3 == 0) as u32; // 2:1 mix of the two tasks
            let base = regions.region(RegionId::new(region)).base;
            // A mix of tight loops and scattered lines.
            let line = if i % 5 < 3 { state % 96 } else { state % 4096 };
            let a = if i % 7 == 0 {
                Access::store(
                    base.offset(line * 64),
                    4,
                    TaskId::new(region),
                    RegionId::new(region),
                )
            } else {
                Access::load(
                    base.offset(line * 64),
                    4,
                    TaskId::new(region),
                    RegionId::new(region),
                )
            };
            accesses.push(a);
        }
        accesses
    }

    #[test]
    fn resolution_validation() {
        assert!(CurveResolution::new(16, 256, 4).is_ok());
        assert!(CurveResolution::new(0, 256, 4).is_err());
        assert!(CurveResolution::new(16, 24, 4).is_err());
        assert!(CurveResolution::new(256, 16, 4).is_err());
        assert!(CurveResolution::new(16, 256, 0).is_err());
        let r = CurveResolution::new(16, 256, 4).unwrap();
        assert_eq!(r.levels(), 5);
        assert_eq!(r.level_of(16), Some(0));
        assert_eq!(r.level_of(256), Some(4));
        assert_eq!(r.level_of(8), None);
        assert_eq!(r.level_of(48), None);
        let g = CacheGeometry::new(256, 4).unwrap();
        assert_eq!(
            CurveResolution::for_geometry(g, 16).unwrap(),
            CurveResolution::new(16, 256, 4).unwrap()
        );
        assert!(CurveResolution::for_geometry(g, 512).is_err());
    }

    #[test]
    fn resolution_errors_name_the_rule_they_check() {
        let message = |result: Result<CurveResolution, CacheError>| result.unwrap_err().to_string();
        let g = CacheGeometry::new(4, 4).unwrap();
        assert_eq!(
            message(CurveResolution::for_geometry(g, 16)),
            "cache sets_per_unit of 16 exceeds the cache's 4 sets"
        );
        assert_eq!(
            message(CurveResolution::for_geometry(g, 3)),
            "cache sets_per_unit of 3 is not a non-zero power of two"
        );
        assert_eq!(
            message(CurveResolution::new(64, 32, 4)),
            "cache min_sets of 64 exceeds max_sets of 32"
        );
        assert_eq!(
            message(CurveResolution::new(16, 32, 0)),
            "cache ways_cap of 0 must be at least 1"
        );
    }

    #[test]
    fn single_pass_matches_the_shadow_cache_bank_exactly() {
        // The acceptance property in miniature: the profiler's misses at
        // every lattice point equal the per-size simulation of each key
        // alone, on a scrambled mixed-key stream.
        let regions = region_table();
        let config = CacheConfig::new(256, 4).unwrap();
        let lattice = CacheSizeLattice::new(config.geometry(), 16);
        let accesses = scrambled_accesses(&regions, 20_000);
        let expected = per_size_profiles(&accesses, &regions, &lattice, 4);

        let resolution = CurveResolution::for_geometry(config.geometry(), 16).unwrap();
        let mut profiler = StackDistanceProfiler::new(resolution, &regions);
        profiler.observe_all(&accesses);
        assert_eq!(profiler.accesses(), accesses.len() as u64);
        let curves = profiler.into_curves();
        let profiles = curves.to_profiles(&lattice, 4).unwrap();
        assert_eq!(profiles, expected);
    }

    #[test]
    fn one_pass_serves_smaller_associativities_too() {
        // The same pass answers for every ways <= ways_cap: check against
        // direct simulation at 1 and 2 ways.
        let regions = region_table();
        let geometry = CacheGeometry::new(256, 4).unwrap();
        let accesses = scrambled_accesses(&regions, 8_000);
        let resolution = CurveResolution::for_geometry(geometry, 16).unwrap();
        let mut profiler = StackDistanceProfiler::new(resolution, &regions);
        profiler.observe_all(&accesses);
        let curves = profiler.into_curves();

        for ways in [1u32, 2, 4] {
            for sets in [16u32, 64, 256] {
                let mut cache =
                    crate::cache::SetAssocCache::new(CacheConfig::new(sets, ways).unwrap());
                for a in accesses.iter().filter(|a| a.region == RegionId::new(0)) {
                    let index = (a.addr.line().value() % u64::from(sets)) as u32;
                    cache.access_at(index, u64::MAX, a);
                }
                let curve = curves.curve(PartitionKey::Task(TaskId::new(0))).unwrap();
                assert_eq!(
                    curve.misses(sets, ways).unwrap(),
                    cache.stats().misses,
                    "sets={sets} ways={ways}"
                );
            }
        }
    }

    #[test]
    fn fully_associative_level_matches_the_reuse_distance_oracle() {
        use compmem_trace::gen::{looping, StreamParams};
        use compmem_trace::stats::ReuseDistanceHistogram;
        let mut regions = RegionTable::new();
        regions
            .insert(
                "t0.data",
                RegionKind::TaskData {
                    task: TaskId::new(0),
                },
                64 * 1024,
            )
            .unwrap();
        let params = StreamParams {
            task: TaskId::new(0),
            region: RegionId::new(0),
            base: regions.region(RegionId::new(0)).base,
            access_size: 4,
        };
        let trace = looping(params, 24 * 64, 64, 5);
        let oracle = ReuseDistanceHistogram::from_accesses(&trace);
        // A 1-set level is fully associative up to the cap.
        let resolution = CurveResolution::new(1, 4, 32).unwrap();
        let mut profiler = StackDistanceProfiler::new(resolution, &regions);
        profiler.observe_all(&trace);
        let curves = profiler.into_curves();
        let curve = curves.curve(PartitionKey::Task(TaskId::new(0))).unwrap();
        for capacity in [8u32, 16, 24, 32] {
            assert_eq!(
                curve.misses(1, capacity).unwrap(),
                oracle.lru_misses(u64::from(capacity)),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn out_of_range_shapes_are_rejected() {
        let regions = region_table();
        let resolution = CurveResolution::new(16, 64, 4).unwrap();
        let mut profiler = StackDistanceProfiler::new(resolution, &regions);
        profiler.observe_all(&scrambled_accesses(&regions, 100));
        let curves = profiler.into_curves();
        let curve = curves.curve(PartitionKey::Task(TaskId::new(0))).unwrap();
        assert!(curve.supports(16, 4));
        assert!(curve.supports(64, 1));
        assert!(!curve.supports(8, 4), "below min_sets");
        assert!(!curve.supports(128, 4), "above max_sets");
        assert!(!curve.supports(32, 5), "above ways_cap");
        assert!(!curve.supports(48, 2), "not a power of two");
        for (sets, ways) in [(8, 4), (128, 4), (32, 5), (32, 0), (48, 2)] {
            assert!(matches!(
                curve.misses(sets, ways),
                Err(CacheError::CurveOutOfRange { .. })
            ));
        }
        // The lattice conversion propagates the error.
        let geometry = CacheGeometry::new(2048, 4).unwrap();
        let wide = CacheSizeLattice::new(geometry, 16);
        assert!(curves.to_profiles(&wide, 4).is_err());
    }

    #[test]
    fn aggregate_curve_predicts_the_shared_cache_at_every_shape() {
        // The aggregate curve's misses at (S, W) must equal a shared
        // S-set, W-way LRU cache run over the same mixed-key stream —
        // the exactness claim behind the analytic shape sweep.
        let regions = region_table();
        let accesses = scrambled_accesses(&regions, 12_000);
        let resolution = CurveResolution::new(16, 256, 4).unwrap();
        let mut profiler = StackDistanceProfiler::new(resolution, &regions);
        profiler.observe_all(&accesses);
        let curves = profiler.into_curves();
        assert_eq!(curves.accesses(), accesses.len() as u64);

        for sets in [16u32, 32, 64, 128, 256] {
            for ways in [1u32, 2, 4] {
                let mut cache =
                    crate::cache::SetAssocCache::new(CacheConfig::new(sets, ways).unwrap());
                for a in &accesses {
                    let index = (a.addr.line().value() % u64::from(sets)) as u32;
                    cache.access_at(index, u64::MAX, a);
                }
                assert_eq!(
                    curves.shared_misses(sets, ways).unwrap(),
                    cache.stats().misses,
                    "sets={sets} ways={ways}"
                );
            }
        }
        // Per-key curves do NOT sum to the aggregate in general: the
        // aggregate carries the inter-key interference a shared cache
        // sees and an exclusive partition does not.
        let summed: u64 = curves
            .curves
            .values()
            .map(|c| c.misses(64, 4).unwrap())
            .sum();
        assert!(summed <= curves.shared_misses(64, 4).unwrap());
    }

    #[test]
    fn windows_partition_the_run_and_sum_back_to_it() {
        let regions = region_table();
        let accesses = scrambled_accesses(&regions, 5_000);
        let resolution = CurveResolution::new(16, 64, 4).unwrap();

        let mut whole = StackDistanceProfiler::new(resolution, &regions);
        whole.observe_all(&accesses);
        let whole = whole.into_curves();

        let mut windowed =
            WindowedProfiler::new(WindowConfig::accesses(700).unwrap(), resolution, &regions);
        for a in &accesses {
            windowed.observe(a);
        }
        let windowed = windowed.finish();

        // 5000 accesses in 700-access windows: 7 full + a 100-access tail.
        assert_eq!(windowed.windows.len(), 8);
        let per_window: Vec<u64> = windowed
            .windows
            .iter()
            .map(|w| w.curves.accesses())
            .collect();
        assert_eq!(per_window[..7], [700; 7]);
        assert_eq!(per_window[7], 100);
        // Consistency invariant: per-window counts sum to the whole run,
        // and the whole-run curves are unchanged by windowing.
        assert_eq!(per_window.iter().sum::<u64>(), accesses.len() as u64);
        assert_eq!(windowed.total, whole);
        assert_eq!(windowed.reconstruct_total(), whole);
        // Window cycle ranges tile the access ordinals.
        assert_eq!(windowed.windows[0].start_cycle, 0);
        assert_eq!(windowed.windows[0].end_cycle, 699);
        assert_eq!(windowed.windows[7].start_cycle, 4900);
    }

    #[test]
    fn cycle_windows_follow_the_grid_and_skip_empty_cells() {
        let regions = region_table();
        let base = regions.region(RegionId::new(0)).base;
        let resolution = CurveResolution::new(16, 64, 4).unwrap();
        let mut profiler =
            WindowedProfiler::new(WindowConfig::cycles(100).unwrap(), resolution, &regions);
        let access =
            |line: u64| Access::load(base.offset(line * 64), 4, TaskId::new(0), RegionId::new(0));
        // Two accesses in cell [1000, 1100), a long idle gap, one in
        // [1750, 1850) — the empty cells in between produce no windows.
        profiler.observe_at(1000, &access(0));
        profiler.observe_at(1099, &access(1));
        profiler.observe_at(1750, &access(2));
        let windowed = profiler.finish();
        assert_eq!(windowed.windows.len(), 2);
        assert_eq!(windowed.windows[0].start_cycle, 1000);
        assert_eq!(windowed.windows[0].end_cycle, 1099);
        assert_eq!(windowed.windows[0].curves.accesses(), 2);
        assert_eq!(windowed.windows[1].start_cycle, 1750);
        assert_eq!(windowed.windows[1].curves.accesses(), 1);
        assert_eq!(windowed.total.accesses(), 3);
    }

    #[test]
    fn phase_detector_splits_a_two_phase_stream() {
        // Phase A: task 0 loops over a tiny working set (hits in any
        // shape). Phase B: task 1 strides over a huge set (misses in
        // every shape). The curve delta at the A→B boundary is large.
        let regions = region_table();
        let resolution = CurveResolution::new(16, 64, 4).unwrap();
        let mut profiler =
            WindowedProfiler::new(WindowConfig::accesses(500).unwrap(), resolution, &regions);
        let base0 = regions.region(RegionId::new(0)).base;
        let base1 = regions.region(RegionId::new(1)).base;
        for i in 0..2000u64 {
            profiler.observe(&Access::load(
                base0.offset(i % 8 * 64),
                4,
                TaskId::new(0),
                RegionId::new(0),
            ));
        }
        for i in 0..2000u64 {
            profiler.observe(&Access::load(
                base1.offset(i * 64 % (512 * 1024)),
                4,
                TaskId::new(1),
                RegionId::new(1),
            ));
        }
        let windowed = profiler.finish();
        assert_eq!(windowed.windows.len(), 8);
        let phases = windowed.phases(0.1);
        assert_eq!(phases.len(), 2, "one boundary at the workload switch");
        assert_eq!(phases[0].first_window, 0);
        assert_eq!(phases[0].last_window, 3);
        assert_eq!(phases[1].first_window, 4);
        assert_eq!(phases[1].last_window, 7);
        assert_eq!(phases[0].window_count(), 4);
        // Phase curves merge their member windows.
        assert_eq!(phases[0].curves.accesses(), 2000);
        assert_eq!(phases[1].curves.accesses(), 2000);
        assert!(phases[0]
            .curves
            .curve(PartitionKey::Task(TaskId::new(1)))
            .is_none());
        // A sky-high threshold keeps everything in one phase.
        assert_eq!(windowed.phases(10.0).len(), 1);
        // The delta between the two phases' curves is itself large.
        assert!(curve_delta(&phases[0].curves, &phases[1].curves) > 0.5);
    }

    #[test]
    fn online_detector_closes_each_phase_when_the_jump_arrives() {
        // No windows at all: no trailing phase.
        assert_eq!(OnlinePhaseDetector::new(0.1).finish(), None);
        let regions = region_table();
        let resolution = CurveResolution::new(16, 64, 4).unwrap();
        let base = regions.region(RegionId::new(0)).base;
        let curves_of = |stride: u64| {
            let mut p = StackDistanceProfiler::new(resolution, &regions);
            for i in 0..200u64 {
                p.observe(&Access::load(
                    base.offset(i * stride % (256 * 1024)),
                    4,
                    TaskId::new(0),
                    RegionId::new(0),
                ));
            }
            p.into_curves()
        };
        let quiet = curves_of(0);
        let wild = curves_of(4096);
        assert!(curve_delta(&quiet, &wild) > 0.1);
        let mut detector = OnlinePhaseDetector::new(0.1);
        assert_eq!(detector.observe(&quiet), None);
        assert_eq!(detector.observe(&quiet), None);
        // The jump closes the phase [0, 1] as the window that makes it
        // arrives, and `finish` closes the tail.
        assert_eq!(detector.observe(&wild), Some((0, 1)));
        assert_eq!(detector.observe(&wild), None);
        assert_eq!(detector.finish(), Some((2, 3)));

        // A drift whose every step stays at the threshold opens no phase:
        // each window is compared with the previous one, not with the
        // phase's first, and a delta equal to the threshold does not split.
        // The traffic moves from task 0 to task 1 in two half steps.
        let mix_of = |task1_accesses: u64| {
            let mut p = StackDistanceProfiler::new(resolution, &regions);
            for i in 0..200u64 {
                let region = RegionId::new(u32::from(i < task1_accesses));
                p.observe(&Access::load(
                    regions.region(region).base,
                    4,
                    TaskId::new(region.index() as u32),
                    region,
                ));
            }
            p.into_curves()
        };
        let drift = [mix_of(0), mix_of(100), mix_of(200)];
        let steps = [
            curve_delta(&drift[0], &drift[1]),
            curve_delta(&drift[1], &drift[2]),
        ];
        let threshold = steps[0].max(steps[1]);
        assert!(curve_delta(&drift[0], &drift[2]) > threshold);
        let mut detector = OnlinePhaseDetector::new(threshold);
        for window in &drift {
            assert_eq!(detector.observe(window), None);
        }
        assert_eq!(detector.finish(), Some((0, 2)));
    }

    #[test]
    fn sidecar_roundtrip_is_lossless_and_deterministic() {
        let regions = region_table();
        let accesses = scrambled_accesses(&regions, 3_000);
        let resolution = CurveResolution::new(16, 64, 4).unwrap();
        let mut profiler =
            WindowedProfiler::new(WindowConfig::accesses(800).unwrap(), resolution, &regions);
        for a in &accesses {
            profiler.observe(a);
        }
        let windowed = profiler.finish();

        let encoded = windowed.to_sidecar(0x1234, 0x5678);
        let bytes = encoded.to_bytes().unwrap();
        let back = WindowedCurves::from_sidecar(
            &compmem_trace::EncodedCurves::from_bytes(&bytes).unwrap(),
        )
        .unwrap();
        assert_eq!(back, windowed);
        // Re-encoding the decoded value reproduces the bytes exactly —
        // the "byte-identical curves on reuse" guarantee.
        assert_eq!(back.to_sidecar(0x1234, 0x5678).to_bytes().unwrap(), bytes);
    }

    #[test]
    fn cold_and_access_counters_are_per_key() {
        let regions = region_table();
        let resolution = CurveResolution::new(16, 64, 4).unwrap();
        let mut profiler = StackDistanceProfiler::new(resolution, &regions);
        let base = regions.region(RegionId::new(1)).base;
        for round in 0..3u64 {
            for line in 0..10u64 {
                profiler.observe(&Access::load(
                    base.offset(line * 64),
                    4,
                    TaskId::new(1),
                    RegionId::new(1),
                ));
            }
            let _ = round;
        }
        let curves = profiler.into_curves();
        assert!(curves.curve(PartitionKey::Task(TaskId::new(0))).is_none());
        let curve = curves.curve(PartitionKey::Task(TaskId::new(1))).unwrap();
        assert_eq!(curve.accesses, 30);
        assert_eq!(curve.cold, 10, "each line cold exactly once");
        // 10 lines fit in any resolved shape: only the cold misses remain.
        assert_eq!(curve.misses(64, 4).unwrap(), 10);
        assert_eq!(curve.miss_rate(64, 4).unwrap(), 10.0 / 30.0);
        assert_eq!(curves.keys(), vec![PartitionKey::Task(TaskId::new(1))]);
    }

    #[test]
    fn set_shards_add_up_to_the_serial_windows() {
        let regions = region_table();
        let accesses = scrambled_accesses(&regions, 6_000);
        let resolution = CurveResolution::new(4, 64, 4).unwrap();
        let cycle_of = |i: usize| i as u64 / 3;
        for config in [
            WindowConfig::whole_run(),
            WindowConfig::accesses(700).unwrap(),
            WindowConfig::cycles(450).unwrap(),
        ] {
            let mut serial = WindowedProfiler::new(config, resolution, &regions);
            for (i, access) in accesses.iter().enumerate() {
                serial.observe_at(cycle_of(i), access);
            }
            let serial = serial.finish();
            for shards in [2u64, 4] {
                let mut merged: Option<WindowedCurves> = None;
                for shard in 0..shards {
                    let mut lane = WindowedProfiler::new(config, resolution, &regions);
                    for (i, access) in accesses.iter().enumerate() {
                        if access.addr.line().value() % shards == shard {
                            lane.observe_at(cycle_of(i), access);
                        } else {
                            lane.skip_at(cycle_of(i));
                        }
                    }
                    let lane = lane.finish();
                    match merged.as_mut() {
                        Some(merged) => merged.absorb_shard(&lane),
                        None => merged = Some(lane),
                    }
                }
                assert_eq!(merged.unwrap(), serial, "{config:?} over {shards} shards");
            }
        }
    }
}
