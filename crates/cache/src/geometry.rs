//! Cache geometry: the line / set / way organisation.

use serde::{Deserialize, Serialize};

use compmem_trace::{LineAddr, LINE_SIZE_BYTES};

use crate::error::CacheError;

/// The organisation of a set-associative cache.
///
/// The line size is fixed crate-wide at [`LINE_SIZE_BYTES`]; sets and ways
/// must be non-zero powers of two so that the index can be extracted with a
/// mask, exactly like the hardware the paper models.
///
/// ```
/// use compmem_cache::CacheGeometry;
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// // The paper's L2: 512 KB, 4-way, 64-byte lines => 2048 sets.
/// let l2 = CacheGeometry::new(2048, 4)?;
/// assert_eq!(l2.size_bytes(), 512 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry with the given number of sets and ways.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] if either parameter is zero or
    /// not a power of two.
    pub fn new(sets: u32, ways: u32) -> Result<Self, CacheError> {
        for (parameter, value) in [("sets", sets), ("ways", ways)] {
            if !value.is_power_of_two() {
                return Err(CacheError::not_power_of_two(parameter, u64::from(value)));
            }
        }
        Ok(CacheGeometry { sets, ways })
    }

    /// Creates the geometry of a cache of `size_bytes` with the given
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] if `ways` is zero or not a
    /// power of two, if `size_bytes` is not a whole number of lines per
    /// way, or if the implied set count is zero, not a power of two or
    /// beyond `u32`.
    pub fn with_size(size_bytes: u64, ways: u32) -> Result<Self, CacheError> {
        if !ways.is_power_of_two() {
            return Err(CacheError::not_power_of_two("ways", u64::from(ways)));
        }
        let way_bytes = u64::from(ways) * LINE_SIZE_BYTES;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(CacheError::InvalidGeometry {
                parameter: "size_bytes",
                value: size_bytes,
                rule: format!(
                    "is not a multiple of {way_bytes} ({ways} ways x {LINE_SIZE_BYTES}-byte lines)"
                ),
            });
        }
        let sets =
            u32::try_from(size_bytes / way_bytes).map_err(|_| CacheError::InvalidGeometry {
                parameter: "size_bytes",
                value: size_bytes,
                rule: format!("implies more than {} sets", u32::MAX),
            })?;
        Self::new(sets, ways)
    }

    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (ways per set).
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub const fn line_size(&self) -> u64 {
        LINE_SIZE_BYTES
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * LINE_SIZE_BYTES
    }

    /// Total capacity in cache lines.
    pub const fn lines(&self) -> u64 {
        self.sets as u64 * self.ways as u64
    }

    /// The set a line maps to under conventional indexing: the line
    /// address modulo the set count, taken as a mask (the count is a power
    /// of two).
    pub const fn index_of(&self, line: LineAddr) -> u32 {
        (line.value() & (self.sets as u64 - 1)) as u32
    }

    /// The tag of a line: the full line address is used as tag so that any
    /// index remapping (set partitioning) remains unambiguous.
    pub const fn tag_of(&self, line: LineAddr) -> u64 {
        line.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let g = CacheGeometry::with_size(512 * 1024, 4).unwrap();
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.size_bytes(), 524_288);
        assert_eq!(g.lines(), 8192);
    }

    #[test]
    fn l1_geometry() {
        let g = CacheGeometry::with_size(16 * 1024, 4).unwrap();
        assert_eq!(g.sets(), 64);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheGeometry::new(3, 4).is_err());
        assert!(CacheGeometry::new(64, 3).is_err());
        assert!(CacheGeometry::new(0, 4).is_err());
        assert!(CacheGeometry::new(64, 0).is_err());
        assert!(CacheGeometry::with_size(100, 4).is_err());
    }

    #[test]
    fn with_size_names_the_rule_each_parameter_breaks() {
        let message = |size_bytes, ways| {
            CacheGeometry::with_size(size_bytes, ways)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            message(65536, 3),
            "cache ways of 3 is not a non-zero power of two"
        );
        assert_eq!(
            message(65536, 0),
            "cache ways of 0 is not a non-zero power of two"
        );
        assert_eq!(
            message(1024, 32),
            "cache size_bytes of 1024 is not a multiple of 2048 (32 ways x 64-byte lines)"
        );
        assert_eq!(
            message(49152, 4),
            "cache sets of 192 is not a non-zero power of two"
        );
        // 2^36 + 1024 sets must not truncate to a valid 1024-set cache.
        assert_eq!(
            message((1 << 42) + 65536, 1),
            "cache size_bytes of 4398046576640 implies more than 4294967295 sets"
        );
    }

    #[test]
    fn index_wraps_modulo_sets() {
        let g = CacheGeometry::new(64, 4).unwrap();
        assert_eq!(g.index_of(LineAddr::new(0)), 0);
        assert_eq!(g.index_of(LineAddr::new(63)), 63);
        assert_eq!(g.index_of(LineAddr::new(64)), 0);
        assert_eq!(g.index_of(LineAddr::new(130)), 2);
    }

    #[test]
    fn tag_is_full_line_address() {
        let g = CacheGeometry::new(64, 4).unwrap();
        assert_eq!(g.tag_of(LineAddr::new(12345)), 12345);
    }
}
