//! The simulation engine: processors, scheduler and memory hierarchy tied
//! together by the discrete-event core.

use std::collections::VecDeque;

use compmem_cache::CacheModel;
use compmem_trace::{Access, TaskId, LINE_SIZE_BYTES};

use crate::config::PlatformConfig;
use crate::engine::EventQueue;
use crate::error::PlatformError;
use crate::memory::MemorySystem;
use crate::metrics::{ProcessorReport, SystemReport};
use crate::op::{BurstOutcome, Op, WorkloadDriver};
use crate::processor::ProcessorCounters;
use crate::replay::AccessTap;
use crate::scheduler::TaskMapping;

/// Number of operations executed per scheduling turn, so that the L2 access
/// streams of different processors interleave at a fine grain.
const CHUNK_OPS: usize = 64;

#[derive(Debug)]
struct Running {
    ops: Vec<Op>,
    next: usize,
}

#[derive(Debug)]
struct ProcState {
    counters: ProcessorCounters,
    /// Unfinished tasks of this processor, front = next to try.
    queue: VecDeque<TaskId>,
    /// Task currently loaded on the processor (register state resident).
    current_task: Option<TaskId>,
    running: Option<Running>,
    quantum_left: u64,
    /// `true` while the processor has no event scheduled because every one
    /// of its unfinished tasks was blocked; cleared when another
    /// processor's event wakes it.
    parked: bool,
    /// `true` from the moment the processor parks until it next obtains a
    /// burst: only a processor that actually slept through other
    /// processors' events fast-forwards (accounting idle cycles) to the
    /// latest wake-up time when it resumes.
    was_parked: bool,
}

/// What a dispatch attempt did, so the event loop knows how to reschedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DispatchOutcome {
    /// The processor obtained a burst and should be rescheduled.
    scheduled: bool,
    /// At least one task retired, which is a wake-up event for parked
    /// processors (a producer waiting for a final consumption attempt must
    /// be re-polled).
    retired_task: bool,
}

/// The multiprocessor system: configuration, memory hierarchy and task
/// mapping.
///
/// The shared L2 is a `Box<dyn CacheModel>`, so one engine — one timing
/// path, one event loop — runs the paper's baseline (shared cache), its
/// proposal (set-partitioned cache) and the column-caching ablation.
/// Execution is discrete-event: a min-heap of
/// `(ready_cycle, processor)` events (see [`EventQueue`]) drives per-
/// processor task firing; processors whose tasks are all blocked park
/// (leave the heap) and are woken by the events that can unblock them.
#[derive(Debug)]
pub struct System {
    config: PlatformConfig,
    memory: MemorySystem,
    mapping: TaskMapping,
    /// Scratch buffer collecting runs of consecutive memory operations, so
    /// each run traverses the hierarchy through one
    /// [`MemorySystem::access_burst`] call.
    burst_scratch: Vec<Access>,
}

impl System {
    /// Builds a system.
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] if the configuration or the mapping is
    /// invalid.
    pub fn new(
        config: PlatformConfig,
        l2: Box<dyn CacheModel>,
        mapping: TaskMapping,
    ) -> Result<Self, PlatformError> {
        config.validate()?;
        mapping.validate(config.num_processors)?;
        let memory = MemorySystem::new(&config, l2);
        Ok(System {
            config,
            memory,
            mapping,
            burst_scratch: Vec::new(),
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The memory hierarchy (e.g. to inspect L2 statistics after a run).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// The task mapping.
    pub fn mapping(&self) -> &TaskMapping {
        &self.mapping
    }

    /// Consumes the system and returns the shared L2 organisation, with
    /// every counter the run accumulated in it.
    pub fn into_l2(self) -> Box<dyn CacheModel> {
        self.memory.into_l2()
    }

    /// Runs the workload to completion and returns the report.
    ///
    /// The run is one discrete-event loop: the earliest-ready processor is
    /// popped from the event heap, executes a chunk of its current burst
    /// (or dispatches a new one), and is pushed back at its advanced local
    /// clock. Burst completions and task retirements are the events that
    /// wake parked processors, so producer/consumer stalls resolve in
    /// global-clock order.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::Deadlock`] if unfinished tasks remain but none can
    ///   make progress,
    /// * [`PlatformError::CycleLimitExceeded`] if a processor's local clock
    ///   exceeds the configured limit.
    pub fn run<D: WorkloadDriver>(
        &mut self,
        driver: &mut D,
    ) -> Result<SystemReport, PlatformError> {
        self.run_traced(driver, &mut crate::replay::NullTap)
    }

    /// Runs the workload exactly like [`run`](System::run) while `tap`
    /// observes every run of accesses entering the memory hierarchy
    /// (processor, issue cycle, accesses and their L1 refills — in issue
    /// order), the run-time system's task-switch traffic included.
    ///
    /// This is the recording half of the trace record/replay pipeline:
    /// passing a [`TraceWriter`](compmem_trace::TraceWriter) as the tap
    /// streams the run into the binary trace IR, and passing a
    /// [`WindowedProfiler`](compmem_cache::WindowedProfiler) measures its
    /// miss-rate curves. The tap does not perturb the simulation — a run
    /// under [`NullTap`](crate::replay::NullTap) is byte-identical to a
    /// plain [`run`](System::run).
    ///
    /// # Errors
    ///
    /// As for [`run`](System::run).
    pub fn run_traced<D: WorkloadDriver, T: AccessTap>(
        &mut self,
        driver: &mut D,
        tap: &mut T,
    ) -> Result<SystemReport, PlatformError> {
        let mut procs: Vec<ProcState> = (0..self.config.num_processors)
            .map(|p| ProcState {
                counters: ProcessorCounters::default(),
                queue: self.mapping.tasks_of(p).iter().copied().collect(),
                current_task: None,
                running: None,
                quantum_left: self.config.quantum_instructions.unwrap_or(u64::MAX),
                parked: false,
                was_parked: false,
            })
            .collect();

        let mut ready: EventQueue<usize> = EventQueue::new();
        for (pi, p) in procs.iter().enumerate() {
            if !p.queue.is_empty() {
                ready.push(0, pi);
            }
        }
        // Latest cycle at which a wake-up event happened; parked processors
        // fast-forward (accounting idle cycles) to it when they resume.
        let mut last_event_time: u64 = 0;

        while let Some((_, pi)) = ready.pop() {
            if procs[pi].running.is_none() && procs[pi].queue.is_empty() {
                continue; // processor finished all of its tasks
            }

            if procs[pi].running.is_none() {
                let outcome = self.dispatch(pi, &mut procs, driver, tap, last_event_time);
                if outcome.retired_task {
                    last_event_time = last_event_time.max(procs[pi].counters.time);
                    Self::wake_parked(&mut procs, &mut ready);
                }
                if outcome.scheduled {
                    ready.push(procs[pi].counters.time, pi);
                } else if !procs[pi].queue.is_empty() {
                    procs[pi].parked = true;
                    procs[pi].was_parked = true;
                }
                continue;
            }

            let finished_burst = self.execute_chunk(pi, &mut procs, tap);
            if procs[pi].counters.time > self.config.cycle_limit {
                return Err(PlatformError::CycleLimitExceeded {
                    limit: self.config.cycle_limit,
                });
            }
            if finished_burst {
                last_event_time = last_event_time.max(procs[pi].counters.time);
                Self::wake_parked(&mut procs, &mut ready);
            }
            ready.push(procs[pi].counters.time, pi);
        }

        // The heap drained: every processor either finished or parked with
        // all of its tasks blocked. Anything still queued is deadlocked.
        let blocked: Vec<TaskId> = procs.iter().flat_map(|p| p.queue.iter().copied()).collect();
        if !blocked.is_empty() {
            return Err(PlatformError::Deadlock { blocked });
        }

        Ok(self.report(&procs))
    }

    /// Re-inserts every parked processor into the event heap at its current
    /// local clock (idle-time accounting happens when it next dispatches).
    fn wake_parked(procs: &mut [ProcState], ready: &mut EventQueue<usize>) {
        for (pi, p) in procs.iter_mut().enumerate() {
            if p.parked {
                p.parked = false;
                ready.push(p.counters.time, pi);
            }
        }
    }

    /// Tries to give processor `pi` a new burst; reports whether it was
    /// scheduled and whether any task retired while trying.
    fn dispatch<D: WorkloadDriver, T: AccessTap>(
        &mut self,
        pi: usize,
        procs: &mut [ProcState],
        driver: &mut D,
        tap: &mut T,
        last_event_time: u64,
    ) -> DispatchOutcome {
        let mut retired_task = false;

        // Quantum expiry: demote the current task to the back of the queue.
        if self.config.quantum_instructions.is_some() && procs[pi].quantum_left == 0 {
            if let Some(current) = procs[pi].current_task {
                if procs[pi].queue.front() == Some(&current) && procs[pi].queue.len() > 1 {
                    procs[pi].queue.rotate_left(1);
                }
            }
            procs[pi].quantum_left = self.config.quantum_instructions.unwrap_or(u64::MAX);
        }

        let attempts = procs[pi].queue.len();
        for _ in 0..attempts {
            let task = *procs[pi].queue.front().expect("queue checked non-empty");
            match driver.next_burst(task) {
                BurstOutcome::Ready(burst) => {
                    // Only a processor that actually parked and slept
                    // through other processors' events was idle until the
                    // latest of them; a processor that kept running must
                    // not be dragged forward.
                    if procs[pi].was_parked {
                        procs[pi].was_parked = false;
                        if last_event_time > procs[pi].counters.time {
                            let gap = last_event_time - procs[pi].counters.time;
                            procs[pi].counters.idle_cycles += gap;
                            procs[pi].counters.time = last_event_time;
                        }
                    }
                    if procs[pi].current_task != Some(task) {
                        self.perform_task_switch(pi, procs, tap, task);
                    }
                    procs[pi].running = Some(Running {
                        ops: burst.into_ops(),
                        next: 0,
                    });
                    return DispatchOutcome {
                        scheduled: true,
                        retired_task,
                    };
                }
                BurstOutcome::Finished => {
                    procs[pi].queue.pop_front();
                    // Retiring a task is an event: a producer waiting for a
                    // final consumption attempt must be re-polled.
                    retired_task = true;
                    if procs[pi].queue.is_empty() {
                        return DispatchOutcome {
                            scheduled: false,
                            retired_task,
                        };
                    }
                }
                BurstOutcome::Blocked => {
                    procs[pi].queue.rotate_left(1);
                }
            }
        }
        DispatchOutcome {
            scheduled: false,
            retired_task,
        }
    }

    /// Accounts a task switch on processor `pi`, including the run-time
    /// system's memory traffic if configured.
    fn perform_task_switch<T: AccessTap>(
        &mut self,
        pi: usize,
        procs: &mut [ProcState],
        tap: &mut T,
        task: TaskId,
    ) {
        let p = &mut procs[pi];
        let first_dispatch = p.current_task.is_none();
        p.current_task = Some(task);
        p.quantum_left = self.config.quantum_instructions.unwrap_or(u64::MAX);
        if first_dispatch {
            return;
        }
        p.counters.task_switches += 1;
        p.counters.switch_cycles += u64::from(self.config.task_switch_cycles);
        p.counters.time += u64::from(self.config.task_switch_cycles);
        if let Some(os) = self.config.os_regions {
            for i in 0..os.lines_per_switch {
                for (region, base) in [(os.rt_data, os.rt_data_base), (os.rt_bss, os.rt_bss_base)] {
                    let addr = base.offset(u64::from(i) * LINE_SIZE_BYTES);
                    let access = [Access::load(addr, 4, os.os_task, region)];
                    let now = procs[pi].counters.time;
                    // One cycle plus the refill's stall.
                    let (stats, refills) = self.memory.access_burst(pi, now, &access);
                    tap.record_run(pi, now, &access, refills);
                    let p = &mut procs[pi];
                    p.counters.switch_cycles += stats.elapsed;
                    p.counters.time += stats.elapsed;
                }
            }
        }
    }

    /// Executes up to [`CHUNK_OPS`] operations of the running burst of
    /// processor `pi`; returns `true` when the burst completed.
    ///
    /// Runs of consecutive memory operations are gathered and issued
    /// through [`MemorySystem::access_burst`] — one virtual L2 dispatch per
    /// run — with timing identical to per-operation execution.
    fn execute_chunk<T: AccessTap>(
        &mut self,
        pi: usize,
        procs: &mut [ProcState],
        tap: &mut T,
    ) -> bool {
        let mut executed = 0;
        while executed < CHUNK_OPS {
            let p = &mut procs[pi];
            let running = p.running.as_mut().expect("execute_chunk requires a burst");
            if running.next >= running.ops.len() {
                p.running = None;
                return true;
            }
            match running.ops[running.next] {
                Op::Compute(n) => {
                    running.next += 1;
                    p.counters.time += u64::from(n);
                    p.counters.busy_cycles += u64::from(n);
                    p.counters.instructions += u64::from(n);
                    p.quantum_left = p.quantum_left.saturating_sub(u64::from(n));
                    executed += 1;
                }
                Op::Mem(_) => {
                    // Gather the maximal run of consecutive memory
                    // operations that fits the remaining chunk budget.
                    let start = running.next;
                    let limit = (start + (CHUNK_OPS - executed)).min(running.ops.len());
                    let mut end = start;
                    self.burst_scratch.clear();
                    while end < limit {
                        let Op::Mem(access) = running.ops[end] else {
                            break;
                        };
                        self.burst_scratch.push(access);
                        end += 1;
                    }
                    running.next = end;
                    let now = p.counters.time;
                    let (stats, refills) = self.memory.access_burst(pi, now, &self.burst_scratch);
                    tap.record_run(pi, now, &self.burst_scratch, refills);
                    let p = &mut procs[pi];
                    p.counters.time += stats.elapsed;
                    p.counters.stall_cycles += stats.stall_cycles;
                    p.counters.busy_cycles += stats.data_accesses;
                    p.counters.instructions += stats.data_accesses;
                    p.quantum_left = p.quantum_left.saturating_sub(stats.data_accesses);
                    executed += end - start;
                }
            }
        }
        // Chunk budget exhausted; if the burst also happens to be done,
        // report it now so waiters are unparked promptly.
        let p = &mut procs[pi];
        let done = p.running.as_ref().is_some_and(|r| r.next >= r.ops.len());
        if done {
            p.running = None;
        }
        done
    }

    fn report(&self, procs: &[ProcState]) -> SystemReport {
        let processors: Vec<ProcessorReport> = procs
            .iter()
            .map(|p| ProcessorReport {
                cycles: p.counters.time,
                busy_cycles: p.counters.busy_cycles,
                stall_cycles: p.counters.stall_cycles,
                switch_cycles: p.counters.switch_cycles,
                idle_cycles: p.counters.idle_cycles,
                instructions: p.counters.instructions,
                task_switches: p.counters.task_switches,
            })
            .collect();
        let makespan_cycles = processors.iter().map(|p| p.cycles).max().unwrap_or(0);
        let l2 = self.memory.l2();
        SystemReport {
            l1: self.memory.l1_aggregate_stats(),
            l2: *l2.stats(),
            l2_by_task: l2.stats_by_task().iter().map(|(k, v)| (*k, *v)).collect(),
            l2_by_region: l2.stats_by_region().iter().map(|(k, v)| (*k, *v)).collect(),
            dram_accesses: self.memory.dram_accesses(),
            dram_writebacks: self.memory.dram_writebacks(),
            bus_wait_cycles: self.memory.bus().total_wait_cycles(),
            bus_bytes: self.memory.bus().bytes_transferred(),
            makespan_cycles,
            processors,
            repartitions: self.memory.repartition_log().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Burst;
    use compmem_cache::{CacheConfig, CacheModel, SharedCache};
    use compmem_trace::{Addr, RegionId};

    /// A driver where each task performs `bursts` bursts of `ops_per_burst`
    /// strided loads over its own address range, never blocking.
    struct StridedDriver {
        remaining: Vec<u32>,
        ops_per_burst: u32,
        issued: Vec<u64>,
    }

    impl StridedDriver {
        fn new(tasks: usize, bursts: u32, ops_per_burst: u32) -> Self {
            StridedDriver {
                remaining: vec![bursts; tasks],
                ops_per_burst,
                issued: vec![0; tasks],
            }
        }
    }

    impl WorkloadDriver for StridedDriver {
        fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
            let t = task.index();
            if self.remaining[t] == 0 {
                return BurstOutcome::Finished;
            }
            self.remaining[t] -= 1;
            let base = 0x10_0000 * (t as u64 + 1);
            let mut ops = Vec::new();
            for _ in 0..self.ops_per_burst {
                let addr = base + self.issued[t] * 64;
                self.issued[t] += 1;
                ops.push(Op::Compute(2));
                ops.push(Op::Mem(Access::load(
                    Addr::new(addr),
                    4,
                    task,
                    RegionId::new(t as u32),
                )));
            }
            BurstOutcome::Ready(Burst::new(ops))
        }
    }

    /// Producer/consumer pair communicating through a one-token mailbox, to
    /// exercise blocking, parking and un-parking.
    struct PingPong {
        tokens: u32,
        mailbox: bool,
        produced: u32,
        consumed: u32,
    }

    impl WorkloadDriver for PingPong {
        fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
            match task.index() {
                0 => {
                    if self.produced == self.tokens {
                        return BurstOutcome::Finished;
                    }
                    if self.mailbox {
                        return BurstOutcome::Blocked;
                    }
                    self.mailbox = true;
                    self.produced += 1;
                    BurstOutcome::Ready(Burst::new(vec![
                        Op::Compute(5),
                        Op::Mem(Access::store(Addr::new(0x9000), 4, task, RegionId::new(9))),
                    ]))
                }
                _ => {
                    if self.consumed == self.tokens {
                        return BurstOutcome::Finished;
                    }
                    if !self.mailbox {
                        return BurstOutcome::Blocked;
                    }
                    self.mailbox = false;
                    self.consumed += 1;
                    BurstOutcome::Ready(Burst::new(vec![
                        Op::Mem(Access::load(Addr::new(0x9000), 4, task, RegionId::new(9))),
                        Op::Compute(3),
                    ]))
                }
            }
        }
    }

    fn shared_l2() -> Box<dyn CacheModel> {
        Box::new(SharedCache::new(CacheConfig::new(256, 4).unwrap()))
    }

    #[test]
    fn single_task_counts_instructions_and_cycles() {
        let config = PlatformConfig::default().processors(1);
        let mapping = TaskMapping::single_processor(&[TaskId::new(0)]);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = StridedDriver::new(1, 4, 10);
        let report = system.run(&mut driver).unwrap();
        // 4 bursts * 10 * (2 compute + 1 load) = 120 instructions.
        assert_eq!(report.total_instructions(), 120);
        assert!(report.processors[0].cycles >= 120);
        assert!(report.processors[0].stall_cycles > 0, "cold misses stall");
        assert!(report.l2.misses > 0);
        assert!(report.average_cpi() > 1.0);
        assert_eq!(report.processors[0].task_switches, 0);
    }

    #[test]
    fn tasks_on_different_processors_run_concurrently() {
        let config = PlatformConfig::default().processors(2);
        let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = StridedDriver::new(2, 8, 16);
        let report = system.run(&mut driver).unwrap();
        let p0 = report.processors[0].cycles;
        let p1 = report.processors[1].cycles;
        // Both processors did comparable work; the makespan is far less than
        // the serial sum.
        assert!(p0 > 0 && p1 > 0);
        assert!(report.makespan_cycles < p0 + p1);
        assert_eq!(report.total_instructions(), 2 * 8 * 16 * 3);
    }

    #[test]
    fn two_tasks_on_one_processor_incur_task_switches() {
        let config = PlatformConfig::default().processors(1).quantum(30);
        let mapping = TaskMapping::single_processor(&[TaskId::new(0), TaskId::new(1)]);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = StridedDriver::new(2, 6, 10);
        let report = system.run(&mut driver).unwrap();
        assert!(report.processors[0].task_switches > 0);
        assert!(report.processors[0].switch_cycles > 0);
        assert_eq!(report.total_instructions(), 2 * 6 * 10 * 3);
    }

    #[test]
    fn blocking_producer_consumer_completes() {
        let config = PlatformConfig::default().processors(2);
        let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = PingPong {
            tokens: 25,
            mailbox: false,
            produced: 0,
            consumed: 0,
        };
        let report = system.run(&mut driver).unwrap();
        assert_eq!(driver.produced, 25);
        assert_eq!(driver.consumed, 25);
        // Consumer instructions: 25 * (1 load + 3 compute); producer: 25 * 6.
        assert_eq!(report.total_instructions(), 25 * 6 + 25 * 4);
        assert!(report.processors.iter().any(|p| p.idle_cycles > 0));
    }

    #[test]
    fn deadlocked_workload_is_detected() {
        struct AlwaysBlocked;
        impl WorkloadDriver for AlwaysBlocked {
            fn next_burst(&mut self, _task: TaskId) -> BurstOutcome {
                BurstOutcome::Blocked
            }
        }
        let config = PlatformConfig::default().processors(1);
        let mapping = TaskMapping::single_processor(&[TaskId::new(0), TaskId::new(1)]);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let err = system.run(&mut AlwaysBlocked).unwrap_err();
        match err {
            PlatformError::Deadlock { blocked } => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let config = PlatformConfig::default()
            .processors(1)
            .with_cycle_limit(100);
        let mapping = TaskMapping::single_processor(&[TaskId::new(0)]);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = StridedDriver::new(1, 1000, 64);
        let err = system.run(&mut driver).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::CycleLimitExceeded { limit: 100 }
        ));
    }

    #[test]
    fn invalid_mapping_is_rejected_at_construction() {
        let config = PlatformConfig::default().processors(1);
        let mapping = TaskMapping::new(vec![vec![TaskId::new(0)], vec![TaskId::new(1)]]);
        assert!(System::new(config, shared_l2(), mapping).is_err());
    }

    #[test]
    fn os_traffic_is_attributed_to_the_os_task() {
        let os_task = TaskId::new(99);
        let config = PlatformConfig::default()
            .processors(1)
            .quantum(20)
            .with_os_regions(crate::OsRegions {
                os_task,
                rt_data: RegionId::new(50),
                rt_data_base: Addr::new(0x50_0000),
                rt_bss: RegionId::new(51),
                rt_bss_base: Addr::new(0x60_0000),
                lines_per_switch: 4,
            });
        let mapping = TaskMapping::single_processor(&[TaskId::new(0), TaskId::new(1)]);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let mut driver = StridedDriver::new(2, 10, 10);
        let report = system.run(&mut driver).unwrap();
        assert!(report.processors[0].task_switches > 0);
        let os_accesses = report.l2_by_task.get(&os_task).map_or(0, |s| s.accesses);
        assert!(
            os_accesses > 0,
            "OS traffic must reach the L2 at least once"
        );
        assert!(report.l2_by_region.contains_key(&RegionId::new(50)));
    }

    #[test]
    fn never_blocked_processors_accrue_no_idle_time() {
        // Regression: the idle fast-forward must only apply to processors
        // that actually parked. Proc 0 runs memory-heavy bursts (frequent
        // burst-completion events); proc 1 runs pure-compute bursts and is
        // never blocked — it must end with zero idle cycles, not be dragged
        // to every event time of proc 0.
        struct ComputeOnly {
            remaining: u32,
        }
        impl WorkloadDriver for ComputeOnly {
            fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
                match task.index() {
                    0 => {
                        if self.remaining == 0 {
                            return BurstOutcome::Finished;
                        }
                        self.remaining -= 1;
                        BurstOutcome::Ready(Burst::new(vec![
                            Op::Mem(Access::load(
                                Addr::new(0x10_0000 + u64::from(self.remaining) * 64),
                                4,
                                task,
                                RegionId::new(0),
                            )),
                            Op::Compute(2),
                        ]))
                    }
                    _ => {
                        if self.remaining == 0 {
                            return BurstOutcome::Finished;
                        }
                        BurstOutcome::Ready(Burst::new(vec![Op::Compute(7)]))
                    }
                }
            }
        }
        let config = PlatformConfig::default().processors(2);
        let mapping = TaskMapping::round_robin(&[TaskId::new(0), TaskId::new(1)], 2);
        let mut system = System::new(config, shared_l2(), mapping).unwrap();
        let report = system.run(&mut ComputeOnly { remaining: 500 }).unwrap();
        assert_eq!(
            report.processors[1].idle_cycles, 0,
            "a never-blocked processor must not be charged idle time"
        );
        assert_eq!(
            report.processors[1].cycles, report.processors[1].busy_cycles,
            "pure compute: local clock equals busy cycles"
        );
    }

    #[test]
    fn event_loop_is_deterministic() {
        let run = || {
            let config = PlatformConfig::default().processors(3);
            let tasks: Vec<TaskId> = (0..6).map(TaskId::new).collect();
            let mapping = TaskMapping::round_robin(&tasks, 3);
            let mut system = System::new(config, shared_l2(), mapping).unwrap();
            let mut driver = StridedDriver::new(6, 5, 12);
            system.run(&mut driver).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "two identical runs must produce identical reports");
    }
}
