//! The shared memory bus connecting the L1 caches to the L2 and DRAM.

/// A single shared bus with first-come-first-served arbitration.
///
/// Every L2 access (refill of an L1 line) and every DRAM transfer occupies
/// the bus for `line_bytes / bytes_per_cycle` cycles. Requests are granted
/// in the order they arrive; a request issued at time `t` while the bus is
/// busy until `t_free` starts at `max(t, t_free)`. The resulting queueing
/// delay is how co-running tasks disturb each other's *timing* even when the
/// partitioned L2 keeps their *miss counts* independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bus {
    bytes_per_cycle: u32,
    busy_until: u64,
    transfers: u64,
    bytes_transferred: u64,
    total_wait_cycles: u64,
}

impl Bus {
    /// Creates a bus with the given bandwidth in bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(bytes_per_cycle: u32) -> Self {
        assert!(bytes_per_cycle > 0, "bus bandwidth must be non-zero");
        Bus {
            bytes_per_cycle,
            busy_until: 0,
            transfers: 0,
            bytes_transferred: 0,
            total_wait_cycles: 0,
        }
    }

    /// Requests a transfer of `bytes` starting no earlier than `now`.
    ///
    /// Returns `(wait_cycles, transfer_cycles)`: the queueing delay before
    /// the transfer could start and the time the transfer itself occupied
    /// the bus.
    pub fn request(&mut self, now: u64, bytes: u32) -> (u64, u64) {
        let start = now.max(self.busy_until);
        let wait = start - now;
        let duration = u64::from(bytes.div_ceil(self.bytes_per_cycle)).max(1);
        self.busy_until = start + duration;
        self.transfers += 1;
        self.bytes_transferred += u64::from(bytes);
        self.total_wait_cycles += wait;
        (wait, duration)
    }

    /// Time at which the bus becomes idle.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Number of transfers granted.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Total cycles requests spent waiting for the bus.
    pub fn total_wait_cycles(&self) -> u64 {
        self.total_wait_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_grants_immediately() {
        let mut bus = Bus::new(8);
        let (wait, dur) = bus.request(100, 64);
        assert_eq!(wait, 0);
        assert_eq!(dur, 8);
        assert_eq!(bus.busy_until(), 108);
    }

    #[test]
    fn overlapping_requests_queue() {
        let mut bus = Bus::new(8);
        bus.request(0, 64); // busy until 8
        let (wait, dur) = bus.request(2, 64);
        assert_eq!(wait, 6);
        assert_eq!(dur, 8);
        assert_eq!(bus.busy_until(), 16);
        assert_eq!(bus.total_wait_cycles(), 6);
        assert_eq!(bus.transfers(), 2);
        assert_eq!(bus.bytes_transferred(), 128);
    }

    #[test]
    fn late_request_after_idle_gap() {
        let mut bus = Bus::new(8);
        bus.request(0, 64);
        let (wait, _) = bus.request(1000, 64);
        assert_eq!(wait, 0);
        assert_eq!(bus.busy_until(), 1008);
    }

    #[test]
    fn small_transfer_takes_at_least_one_cycle() {
        let mut bus = Bus::new(64);
        let (_, dur) = bus.request(0, 4);
        assert_eq!(dur, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = Bus::new(0);
    }
}
