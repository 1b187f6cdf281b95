//! The process network: graph construction and execution.
//!
//! Execution is discrete-event (see [`Network::run_functional`]): every
//! process is an actor whose firings are `(ready_cycle, task)` events in a
//! min-heap, blocked processes park until a neighbouring firing frees FIFO
//! space or produces tokens, and the whole network advances on one global
//! virtual clock — the same engine shape the timed platform simulator uses.

use std::fmt;

use compmem_platform::{Burst, BurstOutcome, EventQueue, Op, WorkloadDriver};
use compmem_trace::{
    Access, AddressSpace, BufferId, RegionId, RegionKind, TaskId, LINE_SIZE_BYTES,
};

use crate::context::FireContext;
use crate::error::KpnError;
use crate::fifo::Fifo;
use crate::frame::FrameStore;
use crate::process::{FireResult, Process, TaskLayout};

/// Number of instructions fetched per code line (64-byte lines of 4-byte
/// instructions).
const INSTRS_PER_FETCH: u64 = 16;

/// Identifier of a FIFO channel inside a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(usize);

impl ChannelId {
    /// Creates a channel identifier from a dense index.
    pub const fn new(index: usize) -> Self {
        ChannelId(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a frame buffer inside a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(usize);

impl FrameId {
    /// Creates a frame identifier from a dense index.
    pub const fn new(index: usize) -> Self {
        FrameId(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

struct ProcessEntry {
    process: Box<dyn Process>,
    layout: TaskLayout,
    inputs: Vec<ChannelId>,
    outputs: Vec<ChannelId>,
    finished: bool,
    firings: u64,
    /// Instruction-fetch cursor: instructions executed so far, used to keep
    /// the program counter walking around the code footprint across firings.
    fetched_instructions: u64,
}

impl fmt::Debug for ProcessEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessEntry")
            .field("name", &self.process.name())
            .field("task", &self.layout.task)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("finished", &self.finished)
            .field("firings", &self.firings)
            .finish()
    }
}

/// Builder of a process network.
///
/// Tasks are numbered densely in the order they are added
/// ([`next_task_id`](NetworkBuilder::next_task_id) previews the next one, so
/// that a process can allocate its private regions with the right owner
/// before being added); FIFOs and frame buffers are numbered densely as
/// communication buffers.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    processes: Vec<ProcessEntry>,
    fifos: Vec<Fifo>,
    frames: Vec<FrameStore>,
    fifo_producer: Vec<Option<TaskId>>,
    fifo_consumer: Vec<Option<TaskId>>,
    next_buffer: u32,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// The task identifier the next [`add_process`](Self::add_process) call
    /// will return.
    pub fn next_task_id(&self) -> TaskId {
        TaskId::new(self.processes.len() as u32)
    }

    /// Adds a process with its memory layout and returns its task id.
    ///
    /// # Panics
    ///
    /// Panics if the layout's task does not match the id being assigned
    /// (allocate the layout with [`next_task_id`](Self::next_task_id)).
    pub fn add_process(&mut self, process: Box<dyn Process>, layout: TaskLayout) -> TaskId {
        let task = self.next_task_id();
        assert_eq!(
            layout.task,
            task,
            "layout of `{}` was allocated for {} but the process receives {}",
            process.name(),
            layout.task,
            task
        );
        self.processes.push(ProcessEntry {
            process,
            layout,
            inputs: Vec::new(),
            outputs: Vec::new(),
            finished: false,
            firings: 0,
            fetched_instructions: 0,
        });
        task
    }

    /// Allocates a FIFO of `capacity_tokens` 4-byte tokens in its own region
    /// of `space` and returns its channel id.
    ///
    /// # Errors
    ///
    /// Returns [`KpnError::ZeroCapacityFifo`] for a zero capacity, or an
    /// allocation error from the address space.
    pub fn add_fifo(
        &mut self,
        space: &mut AddressSpace,
        name: &str,
        capacity_tokens: usize,
    ) -> Result<ChannelId, KpnError> {
        if capacity_tokens == 0 {
            return Err(KpnError::ZeroCapacityFifo {
                name: name.to_string(),
            });
        }
        let buffer = BufferId::new(self.next_buffer);
        self.next_buffer += 1;
        let region = space.allocate_region(
            format!("fifo.{name}"),
            RegionKind::Fifo { buffer },
            capacity_tokens as u64 * 4,
        )?;
        let base = space.region(region).base;
        let id = ChannelId::new(self.fifos.len());
        self.fifos
            .push(Fifo::new(name, region, base, capacity_tokens));
        self.fifo_producer.push(None);
        self.fifo_consumer.push(None);
        Ok(id)
    }

    /// Allocates a frame buffer of `len` elements of `elem_size` bytes in its
    /// own region of `space` and returns its frame id.
    ///
    /// # Errors
    ///
    /// Returns an allocation error from the address space.
    pub fn add_frame(
        &mut self,
        space: &mut AddressSpace,
        name: &str,
        len: usize,
        elem_size: u16,
    ) -> Result<FrameId, KpnError> {
        let buffer = BufferId::new(self.next_buffer);
        self.next_buffer += 1;
        let region = space.allocate_region(
            format!("frame.{name}"),
            RegionKind::FrameBuffer { buffer },
            len as u64 * u64::from(elem_size),
        )?;
        let base = space.region(region).base;
        let id = FrameId::new(self.frames.len());
        self.frames
            .push(FrameStore::new(name, region, base, len, elem_size));
        Ok(id)
    }

    /// Connects output port `port` of `task` to `channel`.
    ///
    /// Ports must be connected in ascending order (0, 1, 2, …).
    ///
    /// # Errors
    ///
    /// Returns an error if the task or channel does not exist, the channel
    /// already has a producer, or the port is out of order.
    pub fn connect_output(
        &mut self,
        task: TaskId,
        port: usize,
        channel: ChannelId,
    ) -> Result<(), KpnError> {
        self.check_channel(channel)?;
        let entry = self
            .processes
            .get_mut(task.index())
            .ok_or(KpnError::UnknownProcess {
                process: task.index(),
            })?;
        if port != entry.outputs.len() {
            return Err(KpnError::UnknownChannel {
                channel: channel.index(),
            });
        }
        if self.fifo_producer[channel.index()].is_some() {
            return Err(KpnError::ChannelAlreadyConnected {
                name: self.fifos[channel.index()].name().to_string(),
                end: "producer",
            });
        }
        self.fifo_producer[channel.index()] = Some(task);
        entry.outputs.push(channel);
        Ok(())
    }

    /// Connects input port `port` of `task` to `channel`.
    ///
    /// Ports must be connected in ascending order (0, 1, 2, …).
    ///
    /// # Errors
    ///
    /// Returns an error if the task or channel does not exist, the channel
    /// already has a consumer, or the port is out of order.
    pub fn connect_input(
        &mut self,
        task: TaskId,
        port: usize,
        channel: ChannelId,
    ) -> Result<(), KpnError> {
        self.check_channel(channel)?;
        let entry = self
            .processes
            .get_mut(task.index())
            .ok_or(KpnError::UnknownProcess {
                process: task.index(),
            })?;
        if port != entry.inputs.len() {
            return Err(KpnError::UnknownChannel {
                channel: channel.index(),
            });
        }
        if self.fifo_consumer[channel.index()].is_some() {
            return Err(KpnError::ChannelAlreadyConnected {
                name: self.fifos[channel.index()].name().to_string(),
                end: "consumer",
            });
        }
        self.fifo_consumer[channel.index()] = Some(task);
        entry.inputs.push(channel);
        Ok(())
    }

    fn check_channel(&self, channel: ChannelId) -> Result<(), KpnError> {
        if channel.index() >= self.fifos.len() {
            return Err(KpnError::UnknownChannel {
                channel: channel.index(),
            });
        }
        Ok(())
    }

    /// Finalises the network.
    ///
    /// # Errors
    ///
    /// Returns [`KpnError::DanglingChannel`] if a FIFO is missing a producer
    /// or consumer.
    pub fn build(self) -> Result<Network, KpnError> {
        for (i, fifo) in self.fifos.iter().enumerate() {
            if self.fifo_producer[i].is_none() || self.fifo_consumer[i].is_none() {
                return Err(KpnError::DanglingChannel {
                    name: fifo.name().to_string(),
                });
            }
        }
        let endpoints = self
            .fifo_producer
            .iter()
            .zip(&self.fifo_consumer)
            .map(|(p, c)| {
                (
                    p.expect("validated above: producer connected"),
                    c.expect("validated above: consumer connected"),
                )
            })
            .collect();
        Ok(Network {
            processes: self.processes,
            fifos: self.fifos,
            frames: self.frames,
            endpoints,
        })
    }
}

/// An executable process network.
///
/// `Network` implements [`WorkloadDriver`], so it can be handed directly to
/// [`System::run`](compmem_platform::System::run); it can also be executed
/// purely functionally with [`run_functional`](Network::run_functional) for
/// workload verification.
#[derive(Debug)]
pub struct Network {
    processes: Vec<ProcessEntry>,
    fifos: Vec<Fifo>,
    frames: Vec<FrameStore>,
    /// `(producer, consumer)` of every FIFO, indexed like `fifos`; used by
    /// the event scheduler to wake exactly the tasks a firing can unblock.
    endpoints: Vec<(TaskId, TaskId)>,
}

impl Network {
    /// Number of tasks in the network.
    pub fn task_count(&self) -> usize {
        self.processes.len()
    }

    /// All task identifiers, in creation order.
    pub fn tasks(&self) -> Vec<TaskId> {
        (0..self.processes.len() as u32).map(TaskId::new).collect()
    }

    /// Name of a task's process.
    ///
    /// # Panics
    ///
    /// Panics if the task does not belong to this network.
    pub fn task_name(&self, task: TaskId) -> &str {
        self.processes[task.index()].process.name()
    }

    /// The memory layout of a task.
    ///
    /// # Panics
    ///
    /// Panics if the task does not belong to this network.
    pub fn task_layout(&self, task: TaskId) -> TaskLayout {
        self.processes[task.index()].layout
    }

    /// Number of firings a task has performed so far.
    ///
    /// # Panics
    ///
    /// Panics if the task does not belong to this network.
    pub fn firings(&self, task: TaskId) -> u64 {
        self.processes[task.index()].firings
    }

    /// Returns `true` if every process has finished.
    pub fn all_finished(&self) -> bool {
        self.processes.iter().all(|p| p.finished)
    }

    /// The FIFO behind a channel id.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not belong to this network.
    pub fn fifo(&self, channel: ChannelId) -> &Fifo {
        &self.fifos[channel.index()]
    }

    /// All FIFOs of the network.
    pub fn fifos(&self) -> &[Fifo] {
        &self.fifos
    }

    /// The frame buffer behind a frame id.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not belong to this network.
    pub fn frame(&self, frame: FrameId) -> &FrameStore {
        &self.frames[frame.index()]
    }

    /// All frame buffers of the network.
    pub fn frames(&self) -> &[FrameStore] {
        &self.frames
    }

    /// Fires one process once (used by the functional scheduler and by the
    /// [`WorkloadDriver`] impl).
    fn fire_once(&mut self, task: TaskId) -> (FireResult, Vec<Op>) {
        let entry = &mut self.processes[task.index()];
        if entry.finished {
            return (FireResult::Finished, Vec::new());
        }
        let mut ctx = FireContext::new(
            entry.layout.task,
            &entry.inputs,
            &entry.outputs,
            &mut self.fifos,
            &mut self.frames,
        );
        let result = entry.process.fire(&mut ctx);
        let ops = ctx.into_ops();
        match result {
            FireResult::Fired => {
                entry.firings += 1;
            }
            FireResult::Finished => {
                entry.finished = true;
                for &out in &entry.outputs {
                    self.fifos[out.index()].set_producer_finished();
                }
            }
            FireResult::Blocked => {}
        }
        (result, ops)
    }

    /// Interleaves instruction fetches into a firing's operations, modelling
    /// a program counter that walks around the task's code footprint.
    fn weave_ifetches(&mut self, task: TaskId, ops: Vec<Op>) -> Vec<Op> {
        let entry = &mut self.processes[task.index()];
        let layout = entry.layout;
        let code_lines = (layout.code_bytes / LINE_SIZE_BYTES).max(1);
        let mut out = Vec::with_capacity(ops.len() + ops.len() / 4 + 1);
        let mut pending = 0u64;
        let emit_fetch = |out: &mut Vec<Op>, fetched: &mut u64| {
            let line = (*fetched / INSTRS_PER_FETCH) % code_lines;
            out.push(Op::Mem(Access::ifetch(
                layout.code_base.offset(line * LINE_SIZE_BYTES),
                LINE_SIZE_BYTES as u16,
                task,
                layout.code_region,
            )));
        };
        // Every firing begins by (re-)fetching the current code line.
        emit_fetch(&mut out, &mut entry.fetched_instructions);
        for op in ops {
            let instrs = op.instructions();
            out.push(op);
            pending += instrs;
            while pending >= INSTRS_PER_FETCH {
                pending -= INSTRS_PER_FETCH;
                entry.fetched_instructions += INSTRS_PER_FETCH;
                emit_fetch(&mut out, &mut entry.fetched_instructions);
            }
        }
        entry.fetched_instructions += pending;
        out
    }

    /// Tasks whose blockage a firing (or retirement) of `task` may have
    /// resolved: the producers of its input FIFOs (space was freed) and the
    /// consumers of its output FIFOs (tokens arrived, or the channel
    /// closed).
    fn neighbours_of(&self, task: TaskId) -> Vec<TaskId> {
        let entry = &self.processes[task.index()];
        let mut out = Vec::with_capacity(entry.inputs.len() + entry.outputs.len());
        for &input in &entry.inputs {
            out.push(self.endpoints[input.index()].0);
        }
        for &output in &entry.outputs {
            out.push(self.endpoints[output.index()].1);
        }
        out
    }

    /// Runs the network functionally (no caches, virtual time) until every
    /// process finishes or `max_firings` firings have been performed.
    ///
    /// This is a discrete-event schedule: each task is an event in a
    /// min-heap keyed by its `ready_cycle`; firing a task advances its
    /// ready time by the instruction cost of the firing, so the interleaving
    /// follows one global virtual clock rather than round-robin polling.
    /// A task that cannot fire *parks* (leaves the heap) and is re-inserted
    /// only when a neighbouring firing frees FIFO space, produces tokens or
    /// closes a channel — so the scheduler never busy-polls blocked tasks.
    ///
    /// Returns `Ok(true)` when every process finished, `Ok(false)` when the
    /// firing budget ran out while progress was still being made.
    ///
    /// # Errors
    ///
    /// Returns [`KpnError::FunctionalRunStalled`] if no process can fire but
    /// some have not finished (a real deadlock, e.g. undersized FIFOs).
    pub fn run_functional(&mut self, max_firings: u64) -> Result<bool, KpnError> {
        let n = self.processes.len();
        let mut events: EventQueue<TaskId> = EventQueue::new();
        // `scheduled[i]` guards against duplicate heap entries per task.
        let mut scheduled = vec![false; n];
        let mut parked = vec![false; n];
        for (i, entry) in self.processes.iter().enumerate() {
            if !entry.finished {
                events.push(0, TaskId::new(i as u32));
                scheduled[i] = true;
            }
        }

        let mut firings = 0u64;
        while let Some((now, task)) = events.pop() {
            scheduled[task.index()] = false;
            if self.processes[task.index()].finished {
                continue;
            }
            if firings >= max_firings {
                return Ok(false);
            }
            let (result, ops) = self.fire_once(task);
            let wake = |net: &Network,
                        events: &mut EventQueue<TaskId>,
                        scheduled: &mut [bool],
                        parked: &mut [bool]| {
                for neighbour in net.neighbours_of(task) {
                    let i = neighbour.index();
                    if parked[i] && !scheduled[i] && !net.processes[i].finished {
                        parked[i] = false;
                        scheduled[i] = true;
                        events.push(now, neighbour);
                    }
                }
            };
            match result {
                FireResult::Fired => {
                    firings += 1;
                    // The firing occupies the virtual processor for its
                    // instruction count; re-fire no earlier than that.
                    let cost: u64 = ops.iter().map(Op::instructions).sum::<u64>().max(1);
                    events.push(now + cost, task);
                    scheduled[task.index()] = true;
                    wake(self, &mut events, &mut scheduled, &mut parked);
                }
                FireResult::Blocked => {
                    parked[task.index()] = true;
                }
                FireResult::Finished => {
                    // Closing output channels is an event consumers must see;
                    // producers into this task may also need a final poll.
                    wake(self, &mut events, &mut scheduled, &mut parked);
                }
            }
        }

        if self.all_finished() {
            Ok(true)
        } else {
            Err(KpnError::FunctionalRunStalled { firings })
        }
    }
}

impl WorkloadDriver for Network {
    fn next_burst(&mut self, task: TaskId) -> BurstOutcome {
        let (result, ops) = self.fire_once(task);
        match result {
            FireResult::Fired => {
                let ops = self.weave_ifetches(task, ops);
                BurstOutcome::Ready(Burst::new(ops))
            }
            FireResult::Blocked => BurstOutcome::Blocked,
            FireResult::Finished => BurstOutcome::Finished,
        }
    }
}

/// Convenience: regions of every FIFO and frame buffer of a network,
/// together with their sizes in bytes (used by the partition sizing rule
/// "FIFO partition = FIFO size").
pub fn communication_regions(network: &Network) -> Vec<(RegionId, u64)> {
    let mut out = Vec::new();
    for fifo in network.fifos() {
        out.push((fifo.region(), fifo.capacity() as u64 * 4));
    }
    for frame in network.frames() {
        out.push((frame.region(), frame.size_bytes()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::FireResult;

    /// Produces `count` increasing integers.
    struct Source {
        next: i32,
        count: i32,
    }

    impl Process for Source {
        fn name(&self) -> &str {
            "source"
        }
        fn fire(&mut self, ctx: &mut FireContext<'_>) -> FireResult {
            if self.next == self.count {
                return FireResult::Finished;
            }
            if ctx.space(0) < 1 {
                return FireResult::Blocked;
            }
            ctx.compute(4);
            ctx.push(0, self.next);
            self.next += 1;
            FireResult::Fired
        }
    }

    /// Doubles every token.
    struct Doubler;

    impl Process for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn fire(&mut self, ctx: &mut FireContext<'_>) -> FireResult {
            if ctx.available(0) < 1 {
                if ctx.input_closed(0) {
                    return FireResult::Finished;
                }
                return FireResult::Blocked;
            }
            if ctx.space(0) < 1 {
                return FireResult::Blocked;
            }
            let v = ctx.pop(0);
            ctx.compute(2);
            ctx.push(0, v * 2);
            FireResult::Fired
        }
    }

    /// Collects tokens.
    struct Sink {
        values: Vec<i32>,
    }

    impl Process for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn fire(&mut self, ctx: &mut FireContext<'_>) -> FireResult {
            if ctx.available(0) < 1 {
                if ctx.input_closed(0) {
                    return FireResult::Finished;
                }
                return FireResult::Blocked;
            }
            let v = ctx.pop(0);
            ctx.compute(1);
            self.values.push(v);
            FireResult::Fired
        }
    }

    fn pipeline(count: i32, fifo_capacity: usize) -> (AddressSpace, Network) {
        let mut space = AddressSpace::new();
        let mut b = NetworkBuilder::new();
        let t0 = b.next_task_id();
        let src = b.add_process(
            Box::new(Source { next: 0, count }),
            TaskLayout::with_code_size(&mut space, "source", t0, 1024).unwrap(),
        );
        let t1 = b.next_task_id();
        let dbl = b.add_process(
            Box::new(Doubler),
            TaskLayout::with_code_size(&mut space, "doubler", t1, 1024).unwrap(),
        );
        let t2 = b.next_task_id();
        let snk = b.add_process(
            Box::new(Sink { values: Vec::new() }),
            TaskLayout::with_code_size(&mut space, "sink", t2, 1024).unwrap(),
        );
        let f0 = b.add_fifo(&mut space, "src_to_dbl", fifo_capacity).unwrap();
        let f1 = b.add_fifo(&mut space, "dbl_to_snk", fifo_capacity).unwrap();
        b.connect_output(src, 0, f0).unwrap();
        b.connect_input(dbl, 0, f0).unwrap();
        b.connect_output(dbl, 0, f1).unwrap();
        b.connect_input(snk, 0, f1).unwrap();
        (space, b.build().unwrap())
    }

    #[test]
    fn functional_run_completes_and_produces_correct_values() {
        let (_, mut network) = pipeline(20, 4);
        let finished = network.run_functional(10_000).unwrap();
        assert!(finished);
        assert!(network.all_finished());
        assert_eq!(network.firings(TaskId::new(0)), 20);
        assert_eq!(network.firings(TaskId::new(1)), 20);
        assert_eq!(network.firings(TaskId::new(2)), 20);
        assert_eq!(network.fifo(ChannelId::new(0)).total_pushed(), 20);
        assert_eq!(network.fifo(ChannelId::new(1)).total_popped(), 20);
    }

    #[test]
    fn driver_interface_produces_bursts_with_ifetches() {
        let (_, mut network) = pipeline(5, 2);
        let outcome = network.next_burst(TaskId::new(0));
        let BurstOutcome::Ready(burst) = outcome else {
            panic!("source should be able to fire");
        };
        assert!(
            burst.memory_ops() >= 2,
            "one store plus at least one ifetch"
        );
        assert!(burst
            .ops()
            .iter()
            .any(|o| matches!(o, Op::Mem(a) if a.kind.is_instruction())));
        // The consumer is blocked before the producer has pushed anything
        // visible to it? It has one token now, so it can fire; the sink's
        // upstream is still empty.
        assert!(network.next_burst(TaskId::new(2)).is_blocked());
    }

    #[test]
    fn finished_producer_closes_downstream_fifos() {
        let (_, mut network) = pipeline(1, 2);
        // Run everything through the driver interface.
        let mut guard = 0;
        while !network.all_finished() {
            for t in network.tasks() {
                let _ = network.next_burst(t);
            }
            guard += 1;
            assert!(guard < 100, "pipeline did not converge");
        }
        assert!(network.fifo(ChannelId::new(0)).is_closed_and_drained());
        assert!(network.fifo(ChannelId::new(1)).is_closed_and_drained());
    }

    #[test]
    fn undersized_network_stalls_detectably() {
        // A single process that always blocks: the functional run must report
        // a stall rather than loop forever.
        struct AlwaysBlocked;
        impl Process for AlwaysBlocked {
            fn name(&self) -> &str {
                "stuck"
            }
            fn fire(&mut self, _ctx: &mut FireContext<'_>) -> FireResult {
                FireResult::Blocked
            }
        }
        let mut space = AddressSpace::new();
        let mut b = NetworkBuilder::new();
        let t = b.next_task_id();
        b.add_process(
            Box::new(AlwaysBlocked),
            TaskLayout::with_code_size(&mut space, "stuck", t, 64).unwrap(),
        );
        let mut network = b.build().unwrap();
        assert!(matches!(
            network.run_functional(100),
            Err(KpnError::FunctionalRunStalled { .. })
        ));
    }

    #[test]
    fn builder_validation() {
        let mut space = AddressSpace::new();
        let mut b = NetworkBuilder::new();
        assert!(matches!(
            b.add_fifo(&mut space, "zero", 0),
            Err(KpnError::ZeroCapacityFifo { .. })
        ));
        let t = b.next_task_id();
        let src = b.add_process(
            Box::new(Source { next: 0, count: 1 }),
            TaskLayout::with_code_size(&mut space, "s", t, 64).unwrap(),
        );
        let f = b.add_fifo(&mut space, "f", 2).unwrap();
        assert!(matches!(
            b.connect_output(src, 1, f),
            Err(KpnError::UnknownChannel { .. })
        ));
        b.connect_output(src, 0, f).unwrap();
        assert!(matches!(
            b.connect_output(src, 1, f),
            Err(KpnError::ChannelAlreadyConnected { .. })
        ));
        assert!(matches!(
            b.connect_input(TaskId::new(9), 0, f),
            Err(KpnError::UnknownProcess { .. })
        ));
        // Missing consumer -> dangling channel at build time.
        assert!(matches!(b.build(), Err(KpnError::DanglingChannel { .. })));
    }

    #[test]
    fn communication_regions_lists_fifos_and_frames() {
        let mut space = AddressSpace::new();
        let mut b = NetworkBuilder::new();
        let t0 = b.next_task_id();
        let src = b.add_process(
            Box::new(Source { next: 0, count: 1 }),
            TaskLayout::with_code_size(&mut space, "s", t0, 64).unwrap(),
        );
        let t1 = b.next_task_id();
        let snk = b.add_process(
            Box::new(Sink { values: Vec::new() }),
            TaskLayout::with_code_size(&mut space, "k", t1, 64).unwrap(),
        );
        let f = b.add_fifo(&mut space, "f", 8).unwrap();
        let _frame = b.add_frame(&mut space, "pic", 100, 1).unwrap();
        b.connect_output(src, 0, f).unwrap();
        b.connect_input(snk, 0, f).unwrap();
        let network = b.build().unwrap();
        let regions = communication_regions(&network);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].1, 32);
        assert_eq!(regions[1].1, 100);
        assert_eq!(network.frames().len(), 1);
        assert_eq!(network.frame(FrameId::new(0)).len(), 100);
        assert_eq!(network.task_name(src), "source");
        assert_eq!(network.task_layout(snk).task, snk);
    }

    #[test]
    fn run_functional_budget_is_respected() {
        let (_, mut network) = pipeline(1000, 4);
        let finished = network.run_functional(10).unwrap();
        assert!(!finished);
    }

    #[test]
    #[should_panic(expected = "layout")]
    fn mismatched_layout_task_panics() {
        let mut space = AddressSpace::new();
        let mut b = NetworkBuilder::new();
        let wrong = TaskLayout::with_code_size(&mut space, "w", TaskId::new(5), 64).unwrap();
        let _ = b.add_process(Box::new(Source { next: 0, count: 0 }), wrong);
    }
}
