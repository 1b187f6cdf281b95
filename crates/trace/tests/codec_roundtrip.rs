//! Property tests of the binary trace IR: encode→decode is lossless for
//! arbitrary access streams, and corrupt input fails with an error, never
//! a panic.

use proptest::prelude::*;

use compmem_trace::codec::{CodecError, EncodedTrace, TraceReader, TraceWriter};
use compmem_trace::{Access, AccessKind, Addr, RegionId, TaskId};

/// Strategy ingredients for one arbitrary access: address, kind selector,
/// size selector, task id, region id, cycle gap.
type RawAccess = (u64, u8, u8, u32, u32, u64);

fn access_strategy() -> impl Strategy<Value = Vec<RawAccess>> {
    prop::collection::vec(
        // Addresses across the whole 48-bit range force large positive and
        // negative deltas; tasks/regions from a small pool exercise the
        // dictionary and the context-repeat flag; gaps up to 2^20 exercise
        // multi-byte varints.
        (
            0u64..(1 << 48),
            0u8..3,
            0u8..4,
            0u32..6,
            0u32..9,
            0u64..(1 << 20),
        ),
        1..200,
    )
}

/// A region table covering the generator's region-id pool (0..9): the
/// codec validates that every region an access names exists in the
/// embedded table, so the arbitrary streams must draw from real regions.
fn region_table() -> compmem_trace::RegionTable {
    let mut table = compmem_trace::RegionTable::new();
    for r in 0..9u32 {
        table
            .insert(
                format!("r{r}"),
                compmem_trace::RegionKind::TaskData {
                    task: TaskId::new(r),
                },
                1 << 20,
            )
            .unwrap();
    }
    table
}

fn materialise(raw: &[RawAccess], processors: u32) -> Vec<(u32, u64, Access)> {
    let mut cycle = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(addr, kind, size, task, region, gap))| {
            let kind = match kind {
                0 => AccessKind::InstrFetch,
                1 => AccessKind::Load,
                _ => AccessKind::Store,
            };
            let size = [1u16, 2, 4, 64][size as usize];
            let access = Access {
                addr: Addr::new(addr),
                kind,
                size,
                task: TaskId::new(task),
                region: RegionId::new(region),
            };
            let processor = (i as u32) % processors;
            cycle += gap;
            (processor, cycle, access)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoding and decoding an arbitrary access stream preserves every
    /// field: addresses, kinds, sizes, tasks, regions, processors and
    /// cycles (i.e. all cycle gaps).
    #[test]
    fn roundtrip_is_lossless(
        raw in access_strategy(),
        processors in 1u32..5,
    ) {
        let records = materialise(&raw, processors);
        let table = region_table();
        let mut writer = TraceWriter::new(Vec::new(), &table, processors).unwrap();
        for (processor, cycle, access) in &records {
            writer.record(*processor, *cycle, access);
        }
        let (bytes, summary) = writer.finish().unwrap();
        prop_assert_eq!(summary.accesses, records.len() as u64);

        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        prop_assert_eq!(reader.processors(), processors);
        let mut decoded = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            decoded.push(record);
        }
        prop_assert_eq!(decoded.len(), records.len());
        for (record, (processor, cycle, access)) in decoded.iter().zip(&records) {
            prop_assert_eq!(record.processor, *processor);
            prop_assert_eq!(record.cycle, *cycle);
            prop_assert_eq!(record.access, *access);
        }

        // The validated in-memory form agrees: its reader yields every
        // access exactly once, in order, and its run count follows the
        // processor changes.
        let trace = EncodedTrace::from_bytes(bytes).unwrap();
        prop_assert_eq!(trace.accesses(), records.len() as u64);
        let replayed: Vec<Access> = trace.reader().map(|r| r.unwrap().access).collect();
        let originals: Vec<Access> = records.iter().map(|(_, _, a)| *a).collect();
        prop_assert_eq!(replayed, originals);
        let handovers = records.windows(2).filter(|w| w[0].0 != w[1].0).count();
        prop_assert_eq!(trace.summary().runs, (handovers + usize::from(!records.is_empty())) as u64);
    }

    /// Flipping any single byte of a valid stream (or truncating it) must
    /// produce `Err` or a different-but-valid decode — never a panic.
    #[test]
    fn corrupt_input_errors_instead_of_panicking(
        raw in access_strategy(),
        flip_pos_seed in 0usize..10_000,
        flip_bits in 1u8..=255,
    ) {
        let records = materialise(&raw, 2);
        let table = region_table();
        let mut writer = TraceWriter::new(Vec::new(), &table, 2).unwrap();
        for (processor, cycle, access) in &records {
            writer.record(*processor, *cycle, access);
        }
        let (bytes, _) = writer.finish().unwrap();

        // Single-byte corruption anywhere in the stream.
        let mut corrupt = bytes.clone();
        let pos = flip_pos_seed % corrupt.len();
        corrupt[pos] ^= flip_bits;
        match EncodedTrace::from_bytes(corrupt) {
            // Errors are expected; a successful parse (the flip happened to
            // produce another valid stream, e.g. inside an address delta)
            // must still be internally consistent.
            Err(CodecError::Io(_)) => prop_assert!(false, "no I/O happens in memory"),
            Err(_) => {}
            Ok(trace) => {
                let decoded: Result<Vec<_>, _> = trace.reader().collect();
                prop_assert_eq!(decoded.unwrap().len() as u64, trace.accesses());
            }
        }

        // Truncation at the corruption point must error (END is mandatory).
        let truncated = bytes[..pos].to_vec();
        prop_assert!(EncodedTrace::from_bytes(truncated).is_err());
    }
}
