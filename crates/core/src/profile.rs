//! Miss-vs-cache-size profiling (re-exported), and its precondition.
//!
//! The profiling layer lives in `compmem-cache`, next to the L2
//! organisations it measures: the single-pass [`StackDistanceProfiler`]
//! (per-set bounded Mattson stacks producing a [`MissRateCurve`] per
//! entity, convertible to the profiles of any lattice) and
//! [`per_size_profiles`], the per-size simulation the profiler is tested
//! against. This module re-exports the types under their historical
//! `compmem` paths.

pub use compmem_cache::{
    curve_delta, per_size_profiles, CacheSizeLattice, CurveResolution, CurveWindow, MissProfile,
    MissProfiles, MissRateCurve, MissRateCurves, Phase, StackDistanceProfiler, WindowConfig,
    WindowKind, WindowedCurves, WindowedProfiler,
};

use compmem_cache::{CacheConfig, ReplacementPolicy};

use crate::error::CoreError;

/// Checks that `l2` replaces LRU, the only policy the stack-distance
/// identity is exact for: curves profiled for any other L2 would
/// predict misses the real cache does not follow. Every flow that sizes
/// partitions from profiled curves checks this first.
///
/// # Errors
///
/// Returns [`CoreError::NonLruProfiling`] naming the offending policy.
pub fn require_lru(l2: CacheConfig) -> Result<(), CoreError> {
    let policy = l2.replacement_policy();
    if policy != ReplacementPolicy::Lru {
        return Err(CoreError::NonLruProfiling {
            policy: policy.to_string(),
        });
    }
    Ok(())
}
