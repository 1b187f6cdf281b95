//! Property tests of the workload zoo: identical specs produce
//! byte-identical traces, different seeds produce different traces, and
//! every generated trace is a valid v3 stream — codec-validated,
//! decodable to every access, provenance-round-trippable.

use proptest::prelude::*;

use compmem_trace::codec::{EncodedTrace, TraceReader};
use compmem_trace::gen::{generate, parse_region_name, provenance, GenKind, GenSpec, GenTask};

/// Raw ingredients of one arbitrary task: family selector, two footprint
/// line counts, a phase length and an access budget. Footprints stay in
/// whole lines (64 B to 16 KB) so every size is representable.
type RawTask = (u8, u64, u64, u64, u64);

fn raw_tasks() -> impl Strategy<Value = Vec<RawTask>> {
    prop::collection::vec((0u8..4, 1u64..257, 1u64..257, 1u64..513, 1u64..2001), 1..4)
}

fn build_spec(seed: u64, cycles_per_access: u64, raw: &[RawTask]) -> GenSpec {
    let tasks = raw
        .iter()
        .map(|&(family, lines_a, lines_b, phase, accesses)| {
            let kind = match family {
                0 => GenKind::Zipf {
                    working_set_bytes: lines_a * 64,
                },
                1 => GenKind::Scan {
                    footprint_bytes: lines_a * 64,
                },
                2 => GenKind::Chase {
                    working_set_bytes: lines_a * 64,
                },
                _ => GenKind::Phased {
                    hot_bytes: lines_a * 64,
                    scan_bytes: lines_b * 64,
                    phase_accesses: phase,
                },
            };
            GenTask { kind, accesses }
        })
        .collect();
    GenSpec {
        seed,
        cycles_per_access,
        tasks,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical seed + params ⇒ byte-identical traces, equal hashes.
    #[test]
    fn identical_specs_generate_byte_identical_traces(
        seed in 0u64..=u64::MAX,
        cycles in 1u64..9,
        raw in raw_tasks(),
    ) {
        let spec = build_spec(seed, cycles, &raw);
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        prop_assert_eq!(a.bytes(), b.bytes());
        prop_assert_eq!(a.content_hash(), b.content_hash());
    }

    /// A different seed changes the bytes whenever any task family
    /// actually consumes the seed (scans and phased regimes are pure
    /// functions of the index, so seed-free specs are exempt).
    #[test]
    fn different_seeds_generate_different_traces(
        seed in 0u64..=u64::MAX,
        cycles in 1u64..9,
        raw in raw_tasks(),
    ) {
        let spec = build_spec(seed, cycles, &raw);
        prop_assume!(spec.tasks.iter().any(|t| t.kind.is_seeded()));
        // A one-line zipf/chase working set has a single possible stream;
        // require at least two lines somewhere seeded for the seed to
        // have observable effect.
        prop_assume!(spec
            .tasks
            .iter()
            .any(|t| t.kind.is_seeded() && t.kind.footprint_bytes() > 64));
        let other = GenSpec {
            seed: seed.wrapping_add(1),
            ..spec.clone()
        };
        let a = generate(&spec).unwrap();
        let b = generate(&other).unwrap();
        prop_assert!(a.bytes() != b.bytes(), "seed change left bytes identical");
        prop_assert!(a.content_hash() != b.content_hash());
    }

    /// Every generated trace passes strict codec validation and decodes
    /// to runs covering exactly its access count.
    #[test]
    fn generated_traces_validate_and_decode_to_every_access(
        seed in 0u64..=u64::MAX,
        cycles in 1u64..9,
        raw in raw_tasks(),
    ) {
        let spec = build_spec(seed, cycles, &raw);
        let trace = generate(&spec).unwrap();
        prop_assert_eq!(trace.summary().accesses, spec.total_accesses());
        prop_assert_eq!(trace.processors(), spec.tasks.len() as u32);

        // Re-validate the raw bytes through the strict entry point.
        let revalidated = EncodedTrace::from_bytes(trace.bytes().to_vec()).unwrap();
        prop_assert_eq!(revalidated.summary(), trace.summary());

        // A fresh streaming decode covers the whole stream.
        let decoded: Result<Vec<_>, _> = TraceReader::new(trace.bytes()).unwrap().collect();
        prop_assert_eq!(decoded.unwrap().len() as u64, spec.total_accesses());
    }

    /// Provenance region names round-trip the full spec of every task.
    #[test]
    fn provenance_round_trips_every_task(
        seed in 0u64..=u64::MAX,
        cycles in 1u64..9,
        raw in raw_tasks(),
    ) {
        let spec = build_spec(seed, cycles, &raw);
        let trace = generate(&spec).unwrap();
        let parsed = provenance(trace.table());
        prop_assert_eq!(parsed.len(), spec.tasks.len());
        for (i, (p, task)) in parsed.iter().zip(&spec.tasks).enumerate() {
            prop_assert_eq!(p.task_index, i as u32);
            prop_assert_eq!(p.kind, task.kind);
            prop_assert_eq!(p.accesses, task.accesses);
            prop_assert_eq!(p.seed, spec.seed);
        }
        // And the names parse individually straight off the table.
        for region in trace.table().iter() {
            prop_assert!(parse_region_name(&region.name).is_some());
        }
    }
}
