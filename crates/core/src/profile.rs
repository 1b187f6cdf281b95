//! Miss-vs-cache-size profiling (re-exported).
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
