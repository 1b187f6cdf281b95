//! Pins the set-associative kernel: a fixed pseudo-random stream through a
//! 4-way `SetAssocCache` under every replacement policy, with all ways, a
//! 2-of-4 way mask and a mask changed midway, folded into one digest per
//! case. Any change to hits, cold misses, victims, dirtiness, flush counts
//! or the final statistics moves a digest.

use compmem_cache::{AccessOutcome, CacheConfig, CacheStats, ReplacementPolicy, SetAssocCache};
use compmem_trace::{Access, AccessKind, Addr, RegionId, TaskId};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, outcome: &AccessOutcome) {
        self.word(u64::from(outcome.hit));
        self.word(u64::from(outcome.cold));
        match outcome.evicted {
            Some(line) => {
                self.word(line.line.value());
                self.word(u64::from(line.dirty));
            }
            None => self.word(u64::MAX),
        }
    }

    fn stats(&mut self, stats: &CacheStats) {
        for value in [
            stats.accesses,
            stats.hits,
            stats.misses,
            stats.cold_misses,
            stats.writebacks,
            stats.instr_accesses,
            stats.instr_misses,
            stats.load_accesses,
            stats.load_misses,
            stats.store_accesses,
            stats.store_misses,
        ] {
            self.word(value);
        }
    }
}

/// How the way mask of each access is chosen.
#[derive(Debug, Clone, Copy)]
enum Masking {
    AllWays,
    TwoOfFour,
    ChangedMidway,
}

const ACCESSES: u64 = 6_000;

fn digest(policy: ReplacementPolicy, masking: Masking) -> u64 {
    // 8 sets x 4 ways over 80 lines: 10 lines contend for each set.
    let config = CacheConfig::new(8, 4).unwrap().policy(policy).seed(0x5eed);
    let geometry = config.geometry();
    let mut cache = SetAssocCache::new(config);
    let mut digest = Digest::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..ACCESSES {
        if i == ACCESSES / 3 {
            let (invalidated, dirty) = cache.flush_set(3);
            digest.word(invalidated);
            digest.word(dirty);
        }
        if i == 2 * ACCESSES / 3 {
            let (invalidated, dirty) = cache.flush_ways(0b0101);
            digest.word(invalidated);
            digest.word(dirty);
        }
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // A skewed line choice, so some lines stay hot.
        let line = if state.is_multiple_of(4) {
            (state >> 8) % 80
        } else {
            (state >> 8) % 20
        };
        let kind = match (state >> 32) % 8 {
            0 => AccessKind::InstrFetch,
            1 | 2 => AccessKind::Store,
            _ => AccessKind::Load,
        };
        let access = Access {
            addr: Addr::new(line * 64 + (state >> 40) % 64),
            kind,
            size: 4,
            task: TaskId::new(0),
            region: RegionId::new(0),
        };
        let mask = match masking {
            Masking::AllWays => u64::MAX,
            Masking::TwoOfFour => 0b0110,
            Masking::ChangedMidway if i < ACCESSES / 2 => 0b0011,
            Masking::ChangedMidway => 0b1110,
        };
        let set = geometry.index_of(access.addr.line());
        digest.outcome(&cache.access_at(set, mask, &access));
    }
    digest.stats(cache.stats());
    digest.word(cache.occupancy() as u64);
    digest.0
}

#[test]
fn set_kernel_outcomes_match_their_recorded_digests() {
    let expected = [
        (
            ReplacementPolicy::Lru,
            Masking::AllWays,
            0xc718_7cb3_f425_907b,
        ),
        (
            ReplacementPolicy::Lru,
            Masking::TwoOfFour,
            0x3490_3d30_d676_4f0e,
        ),
        (
            ReplacementPolicy::Lru,
            Masking::ChangedMidway,
            0x8715_6f06_2597_86dc,
        ),
        (
            ReplacementPolicy::Fifo,
            Masking::AllWays,
            0x1585_f2c1_c156_e3c4,
        ),
        (
            ReplacementPolicy::Fifo,
            Masking::TwoOfFour,
            0x3c22_6404_f39f_716d,
        ),
        (
            ReplacementPolicy::Fifo,
            Masking::ChangedMidway,
            0xdc03_c937_9577_9388,
        ),
        (
            ReplacementPolicy::TreePlru,
            Masking::AllWays,
            0x548e_55ab_fe3a_2a16,
        ),
        (
            ReplacementPolicy::TreePlru,
            Masking::TwoOfFour,
            0x3490_3d30_d676_4f0e,
        ),
        (
            ReplacementPolicy::TreePlru,
            Masking::ChangedMidway,
            0x8715_6f06_2597_86dc,
        ),
        (
            ReplacementPolicy::Random,
            Masking::AllWays,
            0x78c3_a0e4_ef76_e757,
        ),
        (
            ReplacementPolicy::Random,
            Masking::TwoOfFour,
            0x680f_26aa_2b0b_9428,
        ),
        (
            ReplacementPolicy::Random,
            Masking::ChangedMidway,
            0xe661_ac2a_76bb_2e30,
        ),
    ];
    let mut mismatches = Vec::new();
    for (policy, masking, want) in expected {
        let got = digest(policy, masking);
        if got != want {
            mismatches.push(format!(
                "{policy} {masking:?}: {got:#018x} (want {want:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
