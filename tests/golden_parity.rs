//! Golden-parity tests of the unified `Box<dyn CacheModel>` path.
//!
//! The refactor that collapsed the three L2 organisations behind one
//! object-safe trait must be behaviour-preserving: driving a model built
//! from an [`OrganizationSpec`] has to reproduce **byte-identical** miss
//! counts and per-key statistics to constructing the concrete organisation
//! directly — both at the raw access-stream level and through the full
//! discrete-event platform.

use compmem_cache::{
    CacheConfig, CacheModel, OrganizationSpec, PartitionKey, PartitionMap, SetPartitionedCache,
    SharedCache, WayAllocation, WayPartitionedCache,
};
use compmem_platform::{
    Burst, BurstOutcome, Op, PlatformConfig, System, TaskMapping, WorkloadDriver,
};
use compmem_trace::gen::{interleave, looping, strided, StreamParams};
use compmem_trace::{Access, RegionKind, RegionTable, TaskId};

/// Two tasks plus a FIFO buffer: enough region diversity to exercise task,
/// buffer and shared-section partition keys.
fn fixture() -> (RegionTable, Vec<Access>) {
    let mut table = RegionTable::new();
    let r0 = table
        .insert(
            "t0.data",
            RegionKind::TaskData {
                task: TaskId::new(0),
            },
            32 * 1024,
        )
        .unwrap();
    let r1 = table
        .insert(
            "t1.data",
            RegionKind::TaskData {
                task: TaskId::new(1),
            },
            32 * 1024,
        )
        .unwrap();
    let rf = table
        .insert(
            "fifo.stream",
            RegionKind::Fifo {
                buffer: compmem_trace::BufferId::new(0),
            },
            4 * 1024,
        )
        .unwrap();
    let s0 = looping(
        StreamParams::for_region(table.region(r0), TaskId::new(0)),
        24 * 1024,
        64,
        3,
    );
    let s1 = looping(
        StreamParams::for_region(table.region(r1), TaskId::new(1)),
        16 * 1024,
        64,
        4,
    );
    let sf = strided(
        StreamParams::for_region(table.region(rf), TaskId::new(0)),
        64,
        256,
    );
    let trace = interleave(vec![s0, s1, sf]);
    (table, trace)
}

fn partition_map(config: CacheConfig) -> PartitionMap {
    PartitionMap::pack(
        config.geometry(),
        &[
            (PartitionKey::Task(TaskId::new(0)), 32),
            (PartitionKey::Task(TaskId::new(1)), 16),
            (PartitionKey::Buffer(compmem_trace::BufferId::new(0)), 16),
        ],
    )
    .unwrap()
}

fn way_allocation(config: CacheConfig) -> WayAllocation {
    WayAllocation::equal_split(
        config.geometry(),
        &[
            PartitionKey::Task(TaskId::new(0)),
            PartitionKey::Task(TaskId::new(1)),
            PartitionKey::Buffer(compmem_trace::BufferId::new(0)),
        ],
    )
}

/// Feeds the same trace to a directly constructed organisation and to the
/// spec-built trait object, then asserts identical snapshots.
fn assert_trace_parity(direct: &mut dyn CacheModel, spec: OrganizationSpec, table: &RegionTable) {
    let config = CacheConfig::new(128, 4).unwrap();
    let mut boxed = spec.build(config, table).unwrap();
    let (_, trace) = fixture();
    for a in &trace {
        let d = direct.access(a);
        let b = boxed.access(a);
        assert_eq!(d, b, "outcome diverged at access {a:?}");
    }
    assert_eq!(
        direct.snapshot(),
        boxed.snapshot(),
        "per-key statistics diverged for `{}`",
        spec.label()
    );
    assert_eq!(direct.stats().misses, boxed.stats().misses);
}

#[test]
fn shared_spec_matches_direct_construction() {
    let (table, _) = fixture();
    let config = CacheConfig::new(128, 4).unwrap();
    let mut direct = SharedCache::new(config);
    assert_trace_parity(&mut direct, OrganizationSpec::Shared, &table);
}

#[test]
fn set_partitioned_spec_matches_direct_construction() {
    let (table, _) = fixture();
    let config = CacheConfig::new(128, 4).unwrap();
    let map = partition_map(config);
    let mut direct = SetPartitionedCache::new(config, &table, &map).unwrap();
    assert_trace_parity(&mut direct, OrganizationSpec::SetPartitioned(map), &table);
}

#[test]
fn way_partitioned_spec_matches_direct_construction() {
    let (table, _) = fixture();
    let config = CacheConfig::new(128, 4).unwrap();
    let alloc = way_allocation(config);
    let mut direct = WayPartitionedCache::new(config, &table, &alloc).unwrap();
    assert_trace_parity(&mut direct, OrganizationSpec::WayPartitioned(alloc), &table);
}

/// A deterministic two-task driver: each task streams loads over its own
/// region with a little compute between them.
struct TwoTaskDriver {
    table: RegionTable,
    remaining: Vec<u32>,
    cursor: Vec<u64>,
}

impl TwoTaskDriver {
    fn new(table: RegionTable) -> Self {
        TwoTaskDriver {
            table,
            remaining: vec![40, 40],
            cursor: vec![0, 0],
        }
    }
}

impl WorkloadDriver for TwoTaskDriver {
    fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
        let t = task.index();
        if self.remaining[t] == 0 {
            return BurstOutcome::Finished;
        }
        self.remaining[t] -= 1;
        let region = compmem_trace::RegionId::new(t as u32);
        let base = self.table.region(region).base;
        let mut ops = Vec::new();
        for _ in 0..16 {
            let addr = base.offset((self.cursor[t] % 256) * 64);
            self.cursor[t] += 1;
            ops.push(Op::Compute(3));
            ops.push(Op::Mem(Access::load(addr, 4, task, region)));
        }
        BurstOutcome::Ready(Burst::new(ops))
    }
}

/// Through the full platform (L1s, bus, discrete-event loop), a run against
/// the spec-built L2 is byte-identical to a run against the directly
/// constructed organisation.
#[test]
fn full_system_runs_are_identical_for_spec_and_direct_l2() {
    let (table, _) = fixture();
    let l2 = CacheConfig::new(128, 4).unwrap();
    let map = partition_map(l2);
    let platform = PlatformConfig::default().processors(2);
    let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);

    let direct: Box<dyn CacheModel> = Box::new(SetPartitionedCache::new(l2, &table, &map).unwrap());
    let boxed = OrganizationSpec::SetPartitioned(map)
        .build(l2, &table)
        .unwrap();

    let mut reports = Vec::new();
    for l2_model in [direct, boxed] {
        let mut system = System::new(platform, l2_model, mapping.clone()).unwrap();
        let mut driver = TwoTaskDriver::new(table.clone());
        reports.push(system.run(&mut driver).unwrap());
    }
    assert_eq!(reports[0], reports[1]);
    assert!(reports[0].l2.accesses > 0);
}
