//! The discrete-event core.
//!
//! Fluid-flow simulation: compute completions are exact events; transfer
//! completions are predicted from the current max-min rate allocation and
//! re-predicted (with a generation counter invalidating stale events)
//! whenever the active-flow set changes.
//!
//! The flow table is bounded by the transfers in flight: a finished
//! flow's id goes on a free list and the next transfer reuses it, and
//! the per-event buffers (streaming set, max-min workspace, drained
//! list, dirty sets) belong to the run, so a steady-state event
//! allocates nothing.
//!
//! The pump that admits transfers and starts computations visits only
//! the edges, memory reads and PEs that an event since the last pump
//! could have unblocked (see `Dirty`), in the ascending order a full
//! scan would visit them, so admissions, interrupts and event sequence
//! numbers are those of the full scan. In debug builds every pump is
//! followed by that full scan, which must find nothing left to admit.

use crate::fair::{FlowPorts, MaxMin};
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId, PeKind};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tunables of the simulated scheduling framework.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Fixed cost added to every task-instance activation (task selection,
    /// resource checks, data signalling — the Figure 4 loop).
    pub task_overhead: f64,
    /// Delay between admitting a DMA transfer and its first byte moving
    /// (DMA issue + synchronisation).
    pub dma_latency: f64,
    /// CPU time a PE loses per DMA transfer it has to issue or watch.
    /// §4.1: SPEs "are not multi-threaded and the computation must be
    /// interrupted to initiate a communication" — the consumer pays one
    /// interrupt per incoming transfer (issue the Get + watch it), the
    /// producer half of one (signal + unlock). This cost is what makes
    /// scattered mappings collapse on the real machine while the
    /// analytic model (which ignores it, like the paper's) barely
    /// notices; see DESIGN.md §6.4.
    pub comm_interrupt: f64,
    /// Memory-read prefetch window in instances.
    pub read_ahead: u64,
    /// Cap on outstanding memory writes per task before production blocks.
    pub write_window: u64,
    /// Safety valve on total simulation events.
    pub max_events: u64,
}

impl SimConfig {
    /// No overheads: the simulator converges to the model throughput.
    pub fn ideal() -> Self {
        SimConfig {
            task_overhead: 0.0,
            dma_latency: 0.0,
            comm_interrupt: 0.0,
            read_ahead: 2,
            write_window: 4,
            max_events: 200_000_000,
        }
    }

    /// Calibrated to the paper's observation that the real framework
    /// achieves ≈ 95 % of the predicted throughput on the MILP mappings
    /// (§6.4.1). Not every mapping lands there: DESIGN.md §6.4 records
    /// how far the benchmark's mappings fall short (79 % at worst).
    pub fn calibrated() -> Self {
        SimConfig {
            task_overhead: 0.01e-6,
            dma_latency: 0.3e-6,
            comm_interrupt: 0.02e-6,
            ..Self::ideal()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No event left but the target instance count was not reached —
    /// a deadlock, which a correctly sized buffer plan should preclude.
    Stalled {
        /// Simulated time of the stall.
        at: f64,
        /// Instances fully completed when the stall happened.
        completed: u64,
    },
    /// `max_events` exceeded.
    EventBudget,
    /// The mapping failed structural validation.
    BadMapping(String),
    /// Zero instances were asked for: there is no trace to return.
    NoInstances,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { at, completed } => {
                write!(f, "simulation stalled at t={at:.6}s with {completed} instances done")
            }
            SimError::EventBudget => write!(f, "event budget exhausted"),
            SimError::BadMapping(m) => write!(f, "bad mapping: {m}"),
            SimError::NoInstances => write!(f, "zero instances requested"),
        }
    }
}

impl std::error::Error for SimError {}

// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    ComputeDone { pe: usize, task: usize },
    TransferStart { id: usize },
    TransferDone { gen: u64 },
}

struct Event {
    at: f64,
    seq: u64,
    kind: Ev,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    // check:allow(float-ord): canonical PartialOrd-from-Ord forwarding; the
    // total order itself lives in `Ord::cmp` via `total_cmp`
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap: earlier time first (total order, NaN-safe), then
        // insertion order
        other.at.total_cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowKind {
    Edge { edge: usize },
    Read { task: usize },
    Write { task: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowState {
    Latency,
    Streaming,
    Done,
}

struct Flow {
    kind: FlowKind,
    state: FlowState,
    bytes_left: f64,
    /// original payload, for the relative drain threshold
    total_bytes: f64,
    rate: f64,
    ports: FlowPorts,
    /// DMA slot bookkeeping: which SPE queue / proxy queue this occupies.
    spe_queue: Option<usize>,
    proxy_queue: Option<usize>,
}

struct EdgeState {
    dst: usize,
    /// PEs of the two endpoints.
    src_pe: usize,
    dst_pe: usize,
    bytes: f64,
    capacity: u64,
    co_mapped: bool,
    /// A transfer takes a slot of the consumer's incoming DMA queue (the
    /// consumer is an SPE) ...
    needs_spe_queue: bool,
    /// ... and of the producer's proxy queue (an SPE sending to the PPE).
    needs_proxy: bool,
    /// instances fully produced by the source task
    produced: u64,
    /// next instance to admit to DMA (cut edges only)
    next_send: u64,
    /// instances fully arrived at the consumer side
    arrived: u64,
    /// transfers completed (frees producer-side slots, cut edges only)
    transfers_done: u64,
    /// transfers currently admitted but not finished
    inflight: u64,
}

struct TaskState {
    pe: usize,
    /// next instance this task will process
    next: u64,
    reads_done: u64,
    reads_inflight: u64,
    writes_inflight: u64,
    priority: u64, // firstPeriod
    topo_rank: usize,
    is_sink: bool,
    /// The graph's lookahead depth and memory bytes per instance, and the
    /// task's compute time on its PE.
    peek: u64,
    read_bytes: f64,
    write_bytes: f64,
    cost: f64,
}

/// Indices marked for the next pump, a bit each; the pump takes them in
/// increasing order.
struct Marks {
    words: Vec<u64>,
}

impl Marks {
    fn new(n: usize) -> Marks {
        Marks { words: vec![0; n.div_ceil(64)] }
    }

    fn mark(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn mark_all(&mut self, is: &[usize]) {
        for &i in is {
            self.mark(i);
        }
    }

    /// Unmark and return the lowest marked index.
    fn pop(&mut self) -> Option<usize> {
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(64 * w + bit);
            }
        }
        None
    }
}

/// The work an event may have unblocked. A pump visits only marked
/// edges, memory reads and PEs; whatever it visits it leaves blocked,
/// and nothing it does unblocks anything (an admission only fills
/// queues and buffers, a start only makes a PE busy), so everything
/// stays unmarked until an event changes one of the quantities its
/// admission test reads:
/// * `ComputeDone(k on p)` marks `p`, `k`'s reads and `k`'s in- and
///   out-edges (production, the consumer's buffer, the read window);
/// * a freed SPE DMA slot marks every cut edge into that PE and every
///   reading task on it; a freed proxy slot every cut edge out of it;
/// * a finished edge transfer marks the edge and both endpoints' PEs;
///   a finished read its task's PE; a finished write its owner's PE.
struct Dirty {
    edges: Marks,
    reads: Marks,
    pes: Marks,
    /// Per PE: cut edges into it, cut edges out of it, tasks on it that
    /// read memory.
    cut_in: Vec<Vec<usize>>,
    cut_out: Vec<Vec<usize>>,
    readers: Vec<Vec<usize>>,
}

/// Run the mapped application for `n_instances` stream instances and
/// return the trace of sink completions. Zero instances is
/// [`SimError::NoInstances`].
pub fn simulate(
    g: &StreamGraph,
    spec: &CellSpec,
    mapping: &Mapping,
    config: &SimConfig,
    n_instances: u64,
) -> Result<crate::trace::RunTrace, SimError> {
    Sim::new(g, spec, mapping, config, n_instances)?.run()
}

struct Sim<'a> {
    g: &'a StreamGraph,
    spec: &'a CellSpec,
    config: SimConfig,
    n_instances: u64,

    now: f64,
    seq: u64,
    events: BinaryHeap<Event>,
    gen: u64,

    tasks: Vec<TaskState>,
    edges: Vec<EdgeState>,
    /// Flow table, indexed by flow id; the ids of finished flows wait
    /// in `free_flows` for the next transfer.
    flows: Vec<Flow>,
    free_flows: Vec<usize>,
    /// Flows in flight, in the order they were opened.
    active_flow_ids: Vec<usize>,
    pe_busy: Vec<bool>,
    /// CPU time owed by each PE for DMA issue/watch interruptions,
    /// drained into its next compute slot.
    pending_interrupt: Vec<f64>,
    /// SPE-issued DMA queue occupancy (paper: ≤ 16)
    spe_queue_used: Vec<u32>,
    /// SPE→PPE proxy queue occupancy (paper: ≤ 8)
    proxy_used: Vec<u32>,
    /// per-PE task list in topo order
    pe_tasks: Vec<Vec<usize>>,
    dirty: Dirty,

    /// completion time of each instance per sink task
    sink_times: Vec<Vec<f64>>,
    sink_ids: Vec<usize>,
    /// bytes that fully left each PE's outgoing interface
    bytes_out: Vec<f64>,
    /// bytes that fully entered each PE's incoming interface
    bytes_in: Vec<f64>,
    events_processed: u64,

    /// Buffers `reallocate` refills on every call: the streaming flows,
    /// their ports, the max-min workspace and, for the debug
    /// conservation check, the load on each link.
    streaming: Vec<usize>,
    streaming_ports: Vec<FlowPorts>,
    fair: MaxMin,
    link_load: Vec<f64>,
    /// Flows a `TransferDone` event completes.
    drained: Vec<usize>,
}

impl<'a> Sim<'a> {
    fn new(
        g: &'a StreamGraph,
        spec: &'a CellSpec,
        mapping: &'a Mapping,
        config: &SimConfig,
        n_instances: u64,
    ) -> Result<Self, SimError> {
        if n_instances == 0 {
            return Err(SimError::NoInstances);
        }
        Mapping::new(g, spec, mapping.assignment().to_vec())
            .map_err(|e| SimError::BadMapping(e.to_string()))?;
        let plan = BufferPlan::new(g);
        let topo_rank = {
            let mut r = vec![0usize; g.n_tasks()];
            for (rank, t) in g.topo_order().iter().enumerate() {
                r[t.index()] = rank;
            }
            r
        };
        let tasks: Vec<TaskState> = g
            .task_ids()
            .map(|t| {
                let task = g.task(t);
                let pe = mapping.pe_of(t);
                TaskState {
                    pe: pe.index(),
                    next: 0,
                    reads_done: 0,
                    reads_inflight: 0,
                    writes_inflight: 0,
                    priority: plan.first_period[t.index()],
                    topo_rank: topo_rank[t.index()],
                    is_sink: g.out_edges(t).is_empty(),
                    peek: u64::from(task.peek),
                    read_bytes: task.read_bytes,
                    write_bytes: task.write_bytes,
                    cost: task.cost_on(spec.kind_of(pe)),
                }
            })
            .collect();
        let edges: Vec<EdgeState> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(ei, e)| {
                let (src_pe, dst_pe) = (mapping.pe_of(e.src), mapping.pe_of(e.dst));
                EdgeState {
                    dst: e.dst.index(),
                    src_pe: src_pe.index(),
                    dst_pe: dst_pe.index(),
                    bytes: e.data_bytes,
                    capacity: plan.edge_slots[ei].max(1),
                    co_mapped: src_pe == dst_pe,
                    needs_spe_queue: spec.is_spe(dst_pe),
                    needs_proxy: spec.is_spe(src_pe) && spec.kind_of(dst_pe) == PeKind::Ppe,
                    produced: 0,
                    next_send: 0,
                    arrived: 0,
                    transfers_done: 0,
                    inflight: 0,
                }
            })
            .collect();
        let mut pe_tasks: Vec<Vec<usize>> = vec![Vec::new(); spec.n_pes()];
        for &t in g.topo_order() {
            pe_tasks[mapping.pe_of(t).index()].push(t.index());
        }
        // everything starts dirty
        let mut dirty = Dirty {
            edges: Marks::new(edges.len()),
            reads: Marks::new(tasks.len()),
            pes: Marks::new(spec.n_pes()),
            cut_in: vec![Vec::new(); spec.n_pes()],
            cut_out: vec![Vec::new(); spec.n_pes()],
            readers: vec![Vec::new(); spec.n_pes()],
        };
        for (ei, e) in edges.iter().enumerate() {
            if !e.co_mapped {
                dirty.cut_in[e.dst_pe].push(ei);
                dirty.cut_out[e.src_pe].push(ei);
                dirty.edges.mark(ei);
            }
        }
        for (k, t) in tasks.iter().enumerate() {
            if t.read_bytes > 0.0 {
                dirty.readers[t.pe].push(k);
                dirty.reads.mark(k);
            }
        }
        for pe in 0..spec.n_pes() {
            dirty.pes.mark(pe);
        }
        let sink_ids: Vec<usize> = g.sinks().map(|t| t.index()).collect();
        // every sink records one time per instance, each behind at least
        // one event: reserve what the run can record, never more
        let mut sink_times = vec![Vec::new(); g.n_tasks()];
        for &s in &sink_ids {
            sink_times[s] = Vec::with_capacity(n_instances.min(config.max_events) as usize);
        }
        Ok(Sim {
            g,
            spec,
            config: *config,
            n_instances,
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            gen: 0,
            tasks,
            edges,
            flows: Vec::new(),
            free_flows: Vec::new(),
            active_flow_ids: Vec::new(),
            pe_busy: vec![false; spec.n_pes()],
            pending_interrupt: vec![0.0; spec.n_pes()],
            spe_queue_used: vec![0; spec.n_pes()],
            proxy_used: vec![0; spec.n_pes()],
            pe_tasks,
            dirty,
            sink_times,
            sink_ids,
            bytes_out: vec![0.0; spec.n_pes()],
            bytes_in: vec![0.0; spec.n_pes()],
            events_processed: 0,
            streaming: Vec::new(),
            streaming_ports: Vec::new(),
            fair: MaxMin::default(),
            link_load: Vec::new(),
            drained: Vec::new(),
        })
    }

    fn push(&mut self, at: f64, kind: Ev) {
        self.seq += 1;
        self.events.push(Event { at, seq: self.seq, kind });
    }

    fn is_spe(&self, pe: usize) -> bool {
        self.spec.is_spe(PeId(pe))
    }

    /// A streaming flow counts as drained when its residue is negligible
    /// relative to its payload, or when its remaining transfer time
    /// vanishes under the floating-point resolution of `now` (otherwise
    /// the completion event would re-fire forever at the same instant).
    fn is_drained(&self, f: &Flow) -> bool {
        if f.state != FlowState::Streaming {
            return false;
        }
        if f.rate.is_infinite() {
            return true;
        }
        let rel = f.bytes_left <= 1e-9 * f.total_bytes.max(1.0);
        let eta = f.bytes_left / f.rate;
        let below_resolution = self.now + eta <= self.now;
        rel || below_resolution
    }

    // ---- flow management --------------------------------------------------

    /// Advance fluid progress of streaming flows from the last update to
    /// `self.now` (caller must have set `now`), given the stored rates.
    fn advance(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        for &fid in &self.streaming {
            let f = &mut self.flows[fid];
            if f.rate.is_finite() {
                f.bytes_left = (f.bytes_left - f.rate * dt).max(0.0);
            }
        }
    }

    /// Whether `streaming` lists the flows in flight that stream, in
    /// the order they were opened. Every event that starts or finishes a
    /// stream reallocates, which rebuilds the list, so this holds between
    /// events: `advance` and `TransferDone` read the list instead of
    /// filtering the flow table.
    fn streaming_is_current(&self) -> bool {
        let flows = &self.flows;
        self.active_flow_ids
            .iter()
            .filter(|&&fid| flows[fid].state == FlowState::Streaming)
            .eq(self.streaming.iter())
    }

    /// Recompute max-min rates and schedule the next completion event.
    fn reallocate(&mut self) {
        self.gen += 1;
        let flows = &self.flows;
        self.streaming.clear();
        self.streaming.extend(
            self.active_flow_ids
                .iter()
                .copied()
                .filter(|&fid| flows[fid].state == FlowState::Streaming),
        );
        self.streaming_ports.clear();
        self.streaming_ports.extend(self.streaming.iter().map(|&fid| flows[fid].ports));
        let n_links = 2 * self.spec.n_pes();
        let bw = self.spec.interface_bw().as_bytes_per_s();
        let rates = self.fair.rates(&self.streaming_ports, n_links, bw);
        if cfg!(debug_assertions) {
            // conservation check: no link may be over-allocated
            let load = &mut self.link_load;
            load.clear();
            load.resize(n_links, 0.0);
            for (ports, &rate) in self.streaming_ports.iter().zip(rates) {
                for l in [ports.src_link, ports.dst_link].into_iter().flatten() {
                    load[l] += rate;
                }
            }
            for (l, &ld) in load.iter().enumerate() {
                debug_assert!(
                    ld <= bw * 1.0001,
                    "link {l} over-allocated: {ld:.3e} of {bw:.3e} at t={}",
                    self.now
                );
            }
        }
        let mut next_done: Option<f64> = None;
        for (&fid, &rate) in self.streaming.iter().zip(rates) {
            let f = &mut self.flows[fid];
            f.rate = rate;
            let eta = if rate.is_infinite() { 0.0 } else { f.bytes_left / rate };
            // never predict beyond-horizon completions for already-drained
            // residue: fire immediately instead
            let done_at = self.now + eta;
            next_done = Some(next_done.map_or(done_at, |d: f64| d.min(done_at)));
        }
        if let Some(at) = next_done {
            self.push(at, Ev::TransferDone { gen: self.gen });
        }
    }

    /// Put `flow` in flight under a recycled id when one is free.
    fn open_flow(&mut self, flow: Flow) -> usize {
        let fid = match self.free_flows.pop() {
            Some(fid) => {
                self.flows[fid] = flow;
                fid
            }
            None => {
                self.flows.push(flow);
                self.flows.len() - 1
            }
        };
        self.active_flow_ids.push(fid);
        fid
    }

    /// Admit the pending work the dirty sets mark: edge transfers, then
    /// memory reads, then idle-PE activations, each in increasing index
    /// order. Returns whether anything changed the flow set (then the
    /// caller reallocates).
    fn pump(&mut self) -> bool {
        let mut flows_changed = false;
        while let Some(ei) = self.dirty.edges.pop() {
            while self.edge_admissible(ei) {
                flows_changed |= self.admit_edge(ei);
            }
        }
        while let Some(k) = self.dirty.reads.pop() {
            while self.read_admissible(k) {
                flows_changed |= self.issue_read(k);
            }
        }
        while let Some(pe) = self.dirty.pes.pop() {
            if !self.pe_busy[pe] {
                if let Some(k) = self.pick_task(pe) {
                    self.start_compute(pe, k);
                }
            }
        }
        debug_assert_eq!(self.missed_work(), None, "the pump left work behind at t={}", self.now);
        flows_changed
    }

    /// The dirty rule's oracle: what a scan over every edge, read and PE
    /// would still admit or start — nothing, right after a pump.
    fn missed_work(&self) -> Option<(&'static str, usize)> {
        if let Some(ei) = (0..self.edges.len()).find(|&ei| self.edge_admissible(ei)) {
            return Some(("edge", ei));
        }
        if let Some(k) = (0..self.tasks.len()).find(|&k| self.read_admissible(k)) {
            return Some(("read", k));
        }
        (0..self.pe_busy.len())
            .find(|&pe| !self.pe_busy[pe] && self.pick_task(pe).is_some())
            .map(|pe| ("pe", pe))
    }

    /// Whether cut edge `ei` can admit its next transfer: one is
    /// produced, the consumer's in-buffer has a free slot, and the DMA
    /// queues it needs have one too.
    fn edge_admissible(&self, ei: usize) -> bool {
        let e = &self.edges[ei];
        if e.co_mapped || e.next_send >= e.produced {
            return false;
        }
        // consumer-side in-buffer reservation
        let consumer_done = self.tasks[e.dst].next;
        let reserved = (e.arrived - consumer_done.min(e.arrived)) + e.inflight;
        if reserved >= e.capacity {
            return false;
        }
        // DMA queue limits
        !(e.needs_spe_queue && self.spe_queue_used[e.dst_pe] >= self.spec.dma_in_limit()
            || e.needs_proxy && self.proxy_used[e.src_pe] >= self.spec.dma_ppe_limit())
    }

    fn admit_edge(&mut self, ei: usize) -> bool {
        let e = &mut self.edges[ei];
        let (src_pe, dst_pe) = (e.src_pe, e.dst_pe);
        let (needs_spe_queue, needs_proxy) = (e.needs_spe_queue, e.needs_proxy);
        e.next_send += 1;
        e.inflight += 1;
        let bytes = e.bytes;
        // the endpoints pay the scheduler interruption
        self.pending_interrupt[dst_pe] += self.config.comm_interrupt;
        self.pending_interrupt[src_pe] += 0.5 * self.config.comm_interrupt;
        if needs_spe_queue {
            self.spe_queue_used[dst_pe] += 1;
        }
        if needs_proxy {
            self.proxy_used[src_pe] += 1;
        }
        let n = self.spec.n_pes();
        self.open_transfer(Flow {
            kind: FlowKind::Edge { edge: ei },
            state: FlowState::Latency,
            bytes_left: bytes,
            total_bytes: bytes,
            rate: 0.0,
            ports: FlowPorts { src_link: Some(src_pe), dst_link: Some(n + dst_pe) },
            spe_queue: needs_spe_queue.then_some(dst_pe),
            proxy_queue: needs_proxy.then_some(src_pe),
        })
    }

    /// Whether task `k` can issue its next memory read: it reads memory,
    /// the stream (plus its peek) is not read to the end, the prefetch
    /// window is open and an SPE has a DMA slot.
    fn read_admissible(&self, k: usize) -> bool {
        let t = &self.tasks[k];
        let issued = t.reads_done + t.reads_inflight;
        t.read_bytes > 0.0
            // no need to read past the stream end
            && issued < self.n_instances + t.peek
            && issued < t.next + self.config.read_ahead
            && !(self.is_spe(t.pe) && self.spe_queue_used[t.pe] >= self.spec.dma_in_limit())
    }

    fn issue_read(&mut self, k: usize) -> bool {
        let t = &mut self.tasks[k];
        t.reads_inflight += 1;
        let (pe, bytes) = (t.pe, t.read_bytes);
        self.pending_interrupt[pe] += self.config.comm_interrupt;
        let spe = self.is_spe(pe);
        if spe {
            self.spe_queue_used[pe] += 1;
        }
        let n = self.spec.n_pes();
        self.open_transfer(Flow {
            kind: FlowKind::Read { task: k },
            state: FlowState::Latency,
            bytes_left: bytes,
            total_bytes: bytes,
            rate: 0.0,
            ports: FlowPorts { src_link: None, dst_link: Some(n + pe) },
            spe_queue: spe.then_some(pe),
            proxy_queue: None,
        })
    }

    /// Open a DMA transfer: it streams after `dma_latency`, or at once
    /// (returns `true`: the flow set changed) when there is none.
    fn open_transfer(&mut self, mut flow: Flow) -> bool {
        let latency = self.config.dma_latency;
        let delayed = latency > 0.0;
        if !delayed {
            flow.state = FlowState::Streaming;
        }
        let fid = self.open_flow(flow);
        if delayed {
            self.push(self.now + latency, Ev::TransferStart { id: fid });
        }
        !delayed
    }

    /// The Figure 4 "select a runnable task" step: among this PE's tasks
    /// whose next instance has all inputs, reads and output space, pick
    /// the one whose periodic-schedule slot (firstPeriod + instance) is
    /// oldest, breaking ties by topological rank. Readiness, the costly
    /// test, is checked only for a task that would beat the best so far.
    fn pick_task(&self, pe: usize) -> Option<usize> {
        let mut best: Option<(u64, usize, usize)> = None;
        for &k in &self.pe_tasks[pe] {
            let t = &self.tasks[k];
            if t.next >= self.n_instances {
                continue;
            }
            let key = (t.priority + t.next, t.topo_rank, k);
            if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) && self.ready(k) {
                best = Some(key);
            }
        }
        best.map(|(_, _, k)| k)
    }

    fn ready(&self, k: usize) -> bool {
        let t = &self.tasks[k];
        let i = t.next;
        // inputs: instances i..=i+peek arrived on every in-edge; near the
        // end of the stream the peek window shrinks
        let need = (i + t.peek + 1).min(self.n_instances);
        for e in self.g.in_edges(TaskId(k)) {
            let es = &self.edges[e.index()];
            let avail = if es.co_mapped { es.produced } else { es.arrived };
            if avail < need {
                return false;
            }
        }
        // memory reads done
        if t.read_bytes > 0.0 && t.reads_done < i + 1 {
            return false;
        }
        // output space on every out-edge
        for e in self.g.out_edges(TaskId(k)) {
            let es = &self.edges[e.index()];
            let freed = if es.co_mapped {
                self.tasks[es.dst].next // consumer frees on processing
            } else {
                es.transfers_done
            };
            if es.produced - freed.min(es.produced) >= es.capacity {
                return false;
            }
        }
        // write window
        !(t.write_bytes > 0.0 && t.writes_inflight >= self.config.write_window)
    }

    fn start_compute(&mut self, pe: usize, k: usize) {
        debug_assert!(!self.pe_busy[pe]);
        let owed = std::mem::take(&mut self.pending_interrupt[pe]);
        let dur = self.tasks[k].cost + self.config.task_overhead + owed;
        self.pe_busy[pe] = true;
        self.push(self.now + dur, Ev::ComputeDone { pe, task: k });
    }

    // ---- main loop ---------------------------------------------------------

    fn run(mut self) -> Result<crate::trace::RunTrace, SimError> {
        // initial pump: sources with no reads start immediately
        let changed = self.pump();
        if changed {
            self.reallocate();
        }
        let mut last_t = 0.0f64;
        while let Some(ev) = self.events.pop() {
            self.events_processed += 1;
            if self.events_processed > self.config.max_events {
                return Err(SimError::EventBudget);
            }
            self.now = ev.at.max(last_t);
            debug_assert!(self.streaming_is_current());
            self.advance(self.now - last_t);
            last_t = self.now;

            let mut flows_changed = false;
            match ev.kind {
                Ev::ComputeDone { pe, task } => {
                    let t = &mut self.tasks[task];
                    t.next += 1;
                    let (wb, reads) = (t.write_bytes, t.read_bytes > 0.0);
                    self.pe_busy[pe] = false;
                    self.dirty.pes.mark(pe);
                    if reads {
                        self.dirty.reads.mark(task);
                    }
                    // production on out-edges; the consumer freed a slot
                    // on every in-edge
                    for e in self.g.out_edges(TaskId(task)) {
                        let es = &mut self.edges[e.index()];
                        es.produced += 1;
                        if es.co_mapped {
                            es.arrived += 1;
                        }
                        self.dirty.edges.mark(e.index());
                    }
                    for e in self.g.in_edges(TaskId(task)) {
                        self.dirty.edges.mark(e.index());
                    }
                    // memory write
                    if wb > 0.0 {
                        self.tasks[task].writes_inflight += 1;
                        self.pending_interrupt[pe] += self.config.comm_interrupt;
                        // writes are fire-and-forget puts; they take a DMA
                        // slot when one is free but are never delayed by a
                        // full stack (the put is buffered by the MFC)
                        let holds_slot =
                            self.is_spe(pe) && self.spe_queue_used[pe] < self.spec.dma_in_limit();
                        if holds_slot {
                            self.spe_queue_used[pe] += 1;
                        }
                        self.open_flow(Flow {
                            kind: FlowKind::Write { task },
                            state: FlowState::Streaming,
                            bytes_left: wb,
                            total_bytes: wb,
                            rate: 0.0,
                            ports: FlowPorts { src_link: Some(pe), dst_link: None },
                            spe_queue: holds_slot.then_some(pe),
                            proxy_queue: None,
                        });
                        flows_changed = true;
                    }
                    // sink bookkeeping
                    if self.tasks[task].is_sink {
                        self.sink_times[task].push(self.now);
                    }
                    flows_changed |= self.pump();
                    if self.done() {
                        return Ok(self.finish());
                    }
                }
                Ev::TransferStart { id } => {
                    if self.flows[id].state == FlowState::Latency {
                        self.flows[id].state = FlowState::Streaming;
                        flows_changed = true;
                    }
                }
                Ev::TransferDone { gen } => {
                    if gen != self.gen {
                        continue; // stale prediction
                    }
                    // complete every streaming flow that has (numerically)
                    // drained; at least one must have
                    let mut drained = std::mem::take(&mut self.drained);
                    drained.clear();
                    drained.extend(
                        self.streaming
                            .iter()
                            .copied()
                            .filter(|&fid| self.is_drained(&self.flows[fid])),
                    );
                    for &fid in &drained {
                        self.complete_flow(fid);
                    }
                    self.drained = drained;
                    flows_changed = true;
                }
            }
            if flows_changed {
                self.reallocate();
            }
        }
        if self.done() {
            Ok(self.finish())
        } else {
            let completed =
                self.sink_ids.iter().map(|&s| self.sink_times[s].len() as u64).min().unwrap_or(0);
            Err(SimError::Stalled { at: self.now, completed })
        }
    }

    fn complete_flow(&mut self, fid: usize) {
        let f = &mut self.flows[fid];
        f.state = FlowState::Done;
        f.bytes_left = 0.0;
        let n = self.spec.n_pes();
        if let Some(src) = f.ports.src_link {
            self.bytes_out[src] += f.total_bytes;
        }
        if let Some(dst) = f.ports.dst_link {
            self.bytes_in[dst - n] += f.total_bytes;
        }
        let dirty = &mut self.dirty;
        if let Some(pe) = f.spe_queue.take() {
            self.spe_queue_used[pe] -= 1;
            dirty.edges.mark_all(&dirty.cut_in[pe]);
            dirty.reads.mark_all(&dirty.readers[pe]);
        }
        if let Some(pe) = f.proxy_queue.take() {
            self.proxy_used[pe] -= 1;
            dirty.edges.mark_all(&dirty.cut_out[pe]);
        }
        match f.kind {
            FlowKind::Edge { edge } => {
                let es = &mut self.edges[edge];
                es.inflight -= 1;
                es.arrived += 1;
                es.transfers_done += 1;
                dirty.edges.mark(edge);
                dirty.pes.mark(es.src_pe);
                dirty.pes.mark(es.dst_pe);
            }
            FlowKind::Read { task } => {
                let t = &mut self.tasks[task];
                t.reads_inflight -= 1;
                t.reads_done += 1;
                dirty.pes.mark(t.pe);
            }
            FlowKind::Write { task } => {
                let t = &mut self.tasks[task];
                t.writes_inflight -= 1;
                dirty.pes.mark(t.pe);
            }
        }
        self.active_flow_ids.retain(|&id| id != fid);
        self.free_flows.push(fid);
        let _ = self.pump();
    }

    fn done(&self) -> bool {
        self.sink_ids.iter().all(|&s| self.sink_times[s].len() as u64 >= self.n_instances)
    }

    fn finish(self) -> crate::trace::RunTrace {
        // instance i leaves the pipeline when ALL sinks have finished it
        let n = self.n_instances as usize;
        let mut completions = vec![0.0f64; n];
        for &s in &self.sink_ids {
            for (i, &t) in self.sink_times[s].iter().take(n).enumerate() {
                completions[i] = completions[i].max(t);
            }
        }
        // per-sink times let multi-application traces attribute
        // throughput to each application's own sinks
        let sink_completions = self
            .sink_ids
            .iter()
            .map(|&s| {
                let mut times = self.sink_times[s].clone();
                times.truncate(n);
                (TaskId(s), times)
            })
            .collect();
        crate::trace::RunTrace {
            completions,
            sink_completions,
            events: self.events_processed,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
        }
    }
}
