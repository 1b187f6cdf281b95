//! Cache configuration builder.

use crate::error::CacheError;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;

/// Configuration of a set-associative cache: geometry, replacement policy and
/// the seed of the (deterministic) random replacement policy.
///
/// ```
/// use compmem_cache::{CacheConfig, ReplacementPolicy};
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// let cfg = CacheConfig::with_size_bytes(512 * 1024, 4)?
///     .policy(ReplacementPolicy::Lru);
/// assert_eq!(cfg.geometry().sets(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    seed: u64,
}

impl CacheConfig {
    /// Creates a configuration from a set count and associativity, with LRU
    /// replacement.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] for parameters that are zero
    /// or not powers of two.
    pub fn new(sets: u32, ways: u32) -> Result<Self, CacheError> {
        Ok(CacheConfig {
            geometry: CacheGeometry::new(sets, ways)?,
            policy: ReplacementPolicy::Lru,
            seed: 0x5eed_cafe,
        })
    }

    /// Creates a configuration from a total size in bytes and associativity.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] if the implied set count is
    /// not a power of two.
    pub fn with_size_bytes(size_bytes: u64, ways: u32) -> Result<Self, CacheError> {
        Ok(CacheConfig {
            geometry: CacheGeometry::with_size(size_bytes, ways)?,
            policy: ReplacementPolicy::Lru,
            seed: 0x5eed_cafe,
        })
    }

    /// The paper's shared L2: 512 KB, 4-way, 64-byte lines (2048 sets).
    pub fn paper_l2() -> Self {
        Self::with_size_bytes(512 * 1024, 4).expect("paper L2 geometry is valid")
    }

    /// The larger L2 used in the paper's 1 MB shared-cache comparison point.
    pub fn paper_l2_1mb() -> Self {
        Self::with_size_bytes(1024 * 1024, 4).expect("1 MB L2 geometry is valid")
    }

    /// A TriMedia-like private L1: 16 KB, 4-way, 64-byte lines (64 sets).
    pub fn paper_l1() -> Self {
        Self::with_size_bytes(16 * 1024, 4).expect("paper L1 geometry is valid")
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the seed of the deterministic random replacement policy.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Returns the replacement policy.
    pub fn replacement_policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Returns the random-policy seed.
    pub fn random_seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_expected_geometry() {
        assert_eq!(CacheConfig::paper_l2().geometry().sets(), 2048);
        assert_eq!(CacheConfig::paper_l2().geometry().size_bytes(), 524_288);
        assert_eq!(CacheConfig::paper_l2_1mb().geometry().sets(), 4096);
        assert_eq!(CacheConfig::paper_l1().geometry().sets(), 64);
    }

    #[test]
    fn builder_sets_policy_and_seed() {
        let cfg = CacheConfig::new(64, 2)
            .unwrap()
            .policy(ReplacementPolicy::Fifo)
            .seed(42);
        assert_eq!(cfg.replacement_policy(), ReplacementPolicy::Fifo);
        assert_eq!(cfg.random_seed(), 42);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(CacheConfig::new(100, 4).is_err());
        assert!(CacheConfig::with_size_bytes(100_000, 4).is_err());
    }
}
