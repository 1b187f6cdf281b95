//! Replacement policies for set-associative caches.

/// Replacement policy selecting the victim way within a set.
///
/// The CAKE L2 modelled by the paper is an LRU cache; the other policies are
/// provided for sensitivity studies (the compositionality property does not
/// depend on the policy, only on the exclusive set allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (default).
    #[default]
    Lru,
    /// Evict the way that was filled the longest ago, regardless of use.
    Fifo,
    /// Tree-based pseudo-LRU, as commonly implemented in hardware.
    TreePlru,
    /// Evict a deterministic-pseudo-random way.
    Random,
}

impl ReplacementPolicy {
    /// All supported policies, useful for sweeps in tests and benches.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Random => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    #[test]
    fn all_contains_every_variant_once() {
        assert_eq!(ReplacementPolicy::ALL.len(), 4);
        for (i, a) in ReplacementPolicy::ALL.iter().enumerate() {
            for (j, b) in ReplacementPolicy::ALL.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::TreePlru.to_string(), "tree-plru");
    }
}
