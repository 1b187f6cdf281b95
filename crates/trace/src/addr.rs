//! Byte and cache-line addresses of the simulated linear address space.

use std::fmt;

/// Cache-line size used throughout the platform, in bytes.
///
/// The CAKE instance modelled in the paper uses 64-byte lines in both cache
/// levels; the value is a crate-wide constant because the region allocator
/// aligns every region to a line boundary so that no line is shared between
/// two regions (a prerequisite for exclusive set allocation).
pub const LINE_SIZE_BYTES: u64 = 64;

/// A byte address in the flat, linear address space of the simulated
/// platform.
///
/// Addresses are plain 64-bit values; the newtype prevents accidentally
/// mixing them with sizes, counts or set indices.
///
/// ```
/// use compmem_trace::Addr;
/// let a = Addr::new(0x1000);
/// assert_eq!(a.offset(64).value(), 0x1040);
/// assert_eq!(a.line().value(), 0x40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from its raw byte value.
    pub const fn new(value: u64) -> Self {
        Addr(value)
    }

    /// Returns the raw byte value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the addition overflows `u64`.
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// Returns the cache line containing this address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE_BYTES)
    }

    /// Returns the byte offset of this address inside its cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_SIZE_BYTES
    }

    /// Returns this address rounded down to its line boundary.
    pub const fn line_base(self) -> Addr {
        Addr(self.0 - self.0 % LINE_SIZE_BYTES)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(value: u64) -> Self {
        Addr(value)
    }
}

impl From<Addr> for u64 {
    fn from(value: Addr) -> Self {
        value.0
    }
}

/// A cache-line-granular address (byte address divided by [`LINE_SIZE_BYTES`]).
///
/// Caches operate on line addresses: the tag/index split is computed from the
/// line number, never from the byte offset inside a line.
///
/// ```
/// use compmem_trace::{Addr, LineAddr};
/// assert_eq!(Addr::new(130).line(), LineAddr::new(2));
/// assert_eq!(LineAddr::new(2).first_byte(), Addr::new(128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(line_number: u64) -> Self {
        LineAddr(line_number)
    }

    /// Returns the raw line number.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of the line.
    pub const fn first_byte(self) -> Addr {
        Addr(self.0 * LINE_SIZE_BYTES)
    }

    /// Returns the line advanced by `lines`.
    pub const fn offset(self, lines: u64) -> Self {
        LineAddr(self.0 + lines)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(value: u64) -> Self {
        LineAddr(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_address_divides_by_line_size() {
        assert_eq!(Addr::new(0).line(), LineAddr::new(0));
        assert_eq!(Addr::new(63).line(), LineAddr::new(0));
        assert_eq!(Addr::new(64).line(), LineAddr::new(1));
        assert_eq!(Addr::new(6400).line(), LineAddr::new(100));
    }

    #[test]
    fn line_offset_and_base_are_consistent() {
        let a = Addr::new(0x1234);
        assert_eq!(a.line_base().value() + a.line_offset(), a.value());
        assert_eq!(a.line_base().line_offset(), 0);
    }

    #[test]
    fn offset_advances_bytes() {
        assert_eq!(Addr::new(10).offset(54), Addr::new(64));
        assert_eq!(LineAddr::new(3).offset(2), LineAddr::new(5));
    }

    #[test]
    fn conversions_roundtrip() {
        let a = Addr::from(12345u64);
        assert_eq!(u64::from(a), 12345);
        assert_eq!(LineAddr::new(7).first_byte().line(), LineAddr::new(7));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(LineAddr::new(16).to_string(), "line 0x10");
    }
}
