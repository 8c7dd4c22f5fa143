//! The discrete-event core.
//!
//! Fluid-flow simulation: compute completions are exact events; transfer
//! completions are predicted from the current max-min rate allocation and
//! re-predicted whenever the active-flow set changes. Only the next one
//! is ever pending: it waits in a slot beside the event heap, and a
//! re-share overwrites it, so no superseded prediction is queued, popped
//! or counted. Its sequence number is drawn when it is predicted, like
//! any other event's, and the run takes the next event in `(at, seq)`
//! order from the heap and the slot together.
//!
//! The flow table is bounded by the transfers in flight: a finished
//! flow's id goes on a free list and the next transfer reuses it, and
//! the per-event buffers (streaming set, max-min workspace, drained
//! list, dirty sets) belong to the run, so a steady-state event
//! allocates nothing.
//!
//! A flow that starts or finishes streaming marks its links, and a
//! re-share fills again only the components of the flow–link graph that
//! a mark reaches (see `fair`), about half of the streaming flows on the
//! paper graphs' mappings. The others keep their rates, which a full
//! re-share would reproduce bit for bit; in debug builds every re-share
//! is followed by that full one.
//!
//! The pump that admits transfers and starts computations visits only
//! the edges, memory reads, tasks and PEs that an event since the last
//! pump could have unblocked (see `Dirty`), in the ascending order a
//! full scan would visit them, so admissions, interrupts and event
//! sequence numbers are those of the full scan. In debug builds every
//! pump is followed by that full scan, which must find nothing left to
//! admit.
//!
//! Each PE keeps its ready tasks in a queue ordered by the Figure 4
//! priority `(firstPeriod + next, topo rank)`, so picking a task is a
//! pop. A task is tested with `ready` once, when an event marks it, and
//! only the events that can turn its test from false to true mark it:
//!
//! | event                                   | marks                          |
//! |-----------------------------------------|--------------------------------|
//! | `ComputeDone(k)`                        | `k` (its next instance)        |
//! | `ComputeDone(k)`, co-mapped edge `k→c`  | `c` (an input arrived)         |
//! | `ComputeDone(k)`, co-mapped edge `p→k`  | `p` (an output slot freed)     |
//! | edge transfer `p→c` finishes            | `c` (arrived), `p` (slot freed)|
//! | read or write of `k` finishes           | `k` (read done, window opened) |
//!
//! A queued task stays ready until its PE starts it: what `ready` reads
//! of other tasks and edges only grows (arrivals, consumed instances,
//! finished transfers and reads), and what can shrink it — its own
//! `next`, its production and its writes in flight — moves only at its
//! own `ComputeDone`. So only a task's own start takes it out of its
//! queue, a running task is never queued, and its `ComputeDone` marks it
//! for the next test. In debug builds every pick is held to the full
//! scan over the PE's tasks (`pick_task`).
//!
//! A mapped stream settles into a periodic schedule (§4.2: instance `i`
//! of a task runs in period `firstPeriod + i`), and `simulate` jumps over
//! it instead of computing every period again. At each full completion
//! (the fewest instances any sink finished rose to `C`), after the pump
//! and the re-share, the run takes a *signature* of its state:
//! * each task's `next` and, if it reads memory, its reads done, less
//!   `C`; its reads and writes in flight and whether it is queued;
//! * each edge's production and arrivals, less `C`, and its transfers in
//!   flight; a cut edge's sends and finished transfers, less `C`;
//! * per PE its running task, its interrupt debt and its DMA and proxy
//!   queue counts;
//! * the flows in flight in the order they were opened: kind, state,
//!   bytes left of the payload and rate of the link bandwidth;
//! * the queued events and the pending transfer completion in pop order
//!   with their offsets from `now`; a `TransferStart` names its flow by
//!   its place among the flows in flight.
//!
//! A counter that never moves (the reads of a task that reads no memory,
//! the sends of a co-mapped edge) is left out, or it would differ from
//! every earlier signature by the completions between them. Each
//! signature is compared with the previous completion's, which closes a
//! one-completion cycle at its first repeat, and then with one kept
//! Brent-style, replaced at completions 1, 2, 4, 8, …, which closes a
//! longer one; counters compare exactly and times within `1e-9` of the
//! cycle's period per completion. Three buffers are reused (the saved,
//! the previous and the current signature; at a power-of-two completion
//! the saved one is also the previous), so memory does not grow with the
//! instance count.
//!
//! When the signature taken `c` completions and `Δt` seconds after the
//! kept one equals it, the state is periodic with cycle `(c, Δt)`, which
//! the trace records, and the run jumps `k` whole cycles: `now` and every
//! queued event move by `k·Δt`, every counter above and every ready-queue
//! key by `k·c`, each sink appends the cycle's last `c` completions `k`
//! times `Δt` apart, and each interface adds `k` times the cycle's bytes.
//! The stream's end is the only thing the cycle did not see: a task stops
//! at instance `n`, and its peek window and memory reads shrink near it.
//! So `k` is the largest with `lead + k·c + peek + read_ahead + c < n`,
//! where `lead` is the largest `next` or memory reads issued of any task
//! and `peek` the largest peek. After the landing the drain is simulated
//! event by event; when no cycle appears, nothing changes. The debug
//! oracles above run on across the jump, and `simulate_full` runs the
//! same simulation without it as the jump's referee.

use crate::bits;
use crate::fair::{FlowPorts, MaxMin};
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{framework, CellSpec, PeId, PeKind};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Which of the scheduling framework's overheads a run charges: none
/// ([`ideal`](Self::ideal)) or every one of
/// [`cellstream_platform::framework`] ([`calibrated`](Self::calibrated),
/// the default). There is nothing else to set.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Added to every task-instance activation.
    task_overhead: f64,
    /// Between admitting a DMA transfer and its first byte moving.
    dma_latency: f64,
    /// Owed by a PE per DMA transfer it issues or watches, drained into
    /// its next compute slot: the consumer of an edge pays one per
    /// transfer, the producer half of one, a memory read or write one.
    /// This cost is what makes scattered mappings collapse on the real
    /// machine while the analytic period barely notices (DESIGN.md §6.4).
    comm_interrupt: f64,
}

impl SimConfig {
    /// No overheads: the simulator converges to the model throughput
    /// `1/T`.
    pub fn ideal() -> Self {
        SimConfig { task_overhead: 0.0, dma_latency: 0.0, comm_interrupt: 0.0 }
    }

    /// Every overhead of the paper's framework, which achieves ≈ 95 % of
    /// the predicted throughput on the MILP mappings (§6.4.1). The steady
    /// state is `1/T_cal` ([`MappingReport::calibrated_period`]). On graph
    /// 3 @ CCR 0.775, the worst of the benchmark's twelve mappings, a
    /// 200-instance run reaches 0.790 of `1/T`: 0.883 (`T/T_cal`, the
    /// overheads) × 0.894 (the fill and drain of 200 instances).
    ///
    /// [`MappingReport::calibrated_period`]: cellstream_core::MappingReport::calibrated_period
    pub fn calibrated() -> Self {
        SimConfig {
            task_overhead: framework::TASK_OVERHEAD,
            dma_latency: framework::DMA_LATENCY,
            comm_interrupt: framework::COMM_INTERRUPT,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// The engine's own bounds on a run. Constants: a crate-private test
/// hook (`simulate_within`) narrows them to reach the error paths.
pub(crate) struct Limits {
    /// Memory-read prefetch window in instances.
    pub(crate) read_ahead: u64,
    /// Cap on outstanding memory writes per task before production blocks.
    pub(crate) write_window: u64,
    /// Safety valve on total simulation events: the events the run
    /// takes, each a compute completion, a transfer start or a live
    /// transfer completion (a re-share replaces a pending prediction
    /// instead of queueing another), as [`RunTrace::events`] counts them.
    ///
    /// [`RunTrace::events`]: crate::trace::RunTrace::events
    pub(crate) max_events: u64,
}

pub(crate) const LIMITS: Limits =
    Limits { read_ahead: 2, write_window: 4, max_events: 200_000_000 };

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
    /// The run took more events than the engine's safety valve allows.
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
    TransferDone,
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
    src: usize,
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
    /// In its PE's ready queue.
    queued: bool,
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
        bits::set(&mut self.words, i);
    }

    fn mark_all(&mut self, is: &[usize]) {
        for &i in is {
            self.mark(i);
        }
    }

    /// Unmark and return the lowest marked index.
    fn pop(&mut self) -> Option<usize> {
        let i = bits::ones(&self.words).next()?;
        bits::clear(&mut self.words, i);
        Some(i)
    }
}

/// The work an event may have unblocked. A pump visits only marked
/// edges, memory reads, tasks and PEs; whatever it visits it leaves
/// blocked, and nothing it does unblocks anything (an admission only
/// fills queues and buffers, a start only makes a PE busy), so
/// everything stays unmarked until an event changes one of the
/// quantities its admission test reads:
/// * `ComputeDone(k on p)` marks `p`, `k`'s reads and `k`'s in- and
///   out-edges (production, the consumer's buffer, the read window),
///   and the tasks of the module docs' table;
/// * a freed SPE DMA slot marks every cut edge into that PE and every
///   reading task on it; a freed proxy slot every cut edge out of it;
/// * a finished edge transfer marks the edge and both endpoint tasks;
///   a finished read or write its task;
/// * a task that enters its ready queue marks its PE.
struct Dirty {
    edges: Marks,
    reads: Marks,
    tasks: Marks,
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

/// [`simulate`] without the jump: every event of the run is simulated
/// and no cycle is recorded. The referee of the jump, not an option.
#[doc(hidden)]
pub fn simulate_full(
    g: &StreamGraph,
    spec: &CellSpec,
    mapping: &Mapping,
    config: &SimConfig,
    n_instances: u64,
) -> Result<crate::trace::RunTrace, SimError> {
    let mut sim = Sim::new(g, spec, mapping, config, n_instances)?;
    sim.seeking = false;
    sim.run()
}

struct Sim<'a> {
    g: &'a StreamGraph,
    spec: &'a CellSpec,
    config: SimConfig,
    limits: Limits,
    n_instances: u64,

    now: f64,
    seq: u64,
    events: BinaryHeap<Event>,
    /// The next transfer completion, as the last re-share predicted it:
    /// held beside the heap, so a re-share replaces it (module docs).
    transfer_done: Option<Event>,

    tasks: Vec<TaskState>,
    edges: Vec<EdgeState>,
    /// Flow table, indexed by flow id; the ids of finished flows wait
    /// in `free_flows` for the next transfer.
    flows: Vec<Flow>,
    free_flows: Vec<usize>,
    /// Flows in flight, in the order they were opened.
    active_flow_ids: Vec<usize>,
    /// The task each PE is computing.
    running: Vec<Option<usize>>,
    /// CPU time owed by each PE for DMA issue/watch interruptions,
    /// drained into its next compute slot.
    pending_interrupt: Vec<f64>,
    /// SPE-issued DMA queue occupancy (paper: ≤ 16)
    spe_queue_used: Vec<u32>,
    /// SPE→PPE proxy queue occupancy (paper: ≤ 8)
    proxy_used: Vec<u32>,
    /// per-PE task list in topo order
    pe_tasks: Vec<Vec<usize>>,
    /// Per PE, its ready tasks that are not running, as `(firstPeriod +
    /// next, topo rank, task)`, smallest first; room for every task of
    /// the PE is reserved at set-up.
    ready_queue: Vec<BinaryHeap<Reverse<(u64, usize, usize)>>>,
    dirty: Dirty,

    /// completion time of each instance per sink task
    sink_times: Vec<Vec<f64>>,
    sink_ids: Vec<usize>,
    /// bytes that fully left each PE's outgoing interface
    bytes_out: Vec<f64>,
    /// bytes that fully entered each PE's incoming interface
    bytes_in: Vec<f64>,
    events_processed: u64,

    /// The streaming flows in the order they were opened, which
    /// `reallocate` rebuilds on every call; the same flows by id with the
    /// links whose flows changed since the last re-share; and, for the
    /// debug conservation check, the load on each link.
    streaming: Vec<usize>,
    fair: MaxMin,
    link_load: Vec<f64>,
    /// Flows a `TransferDone` event completes.
    drained: Vec<usize>,

    /// Whether the run still looks for a cycle to jump (module docs).
    seeking: bool,
    /// Full completions so far: the fewest instances any sink finished.
    completed: u64,
    /// The signature kept from the last power-of-two completion, the one
    /// from the completion before the current one (unless that is the
    /// saved one), the one being taken, and the queued events sorted for
    /// it.
    saved: Signature,
    previous: Signature,
    current: Signature,
    pending: Vec<(f64, u64, u64)>,
    /// The cycle found: completions and seconds per cycle.
    cycle: Option<(u64, f64)>,
    /// When set, every full completion's signature and room, taken where
    /// `seek_cycle` takes them: the first-repeat referee's record.
    #[cfg(test)]
    history: Option<Vec<(Signature, u64)>>,
}

/// The run's state at a full completion, every counter relative to the
/// completed count and every time relative to `now` (module docs).
#[derive(Default, Clone)]
struct Signature {
    /// Full completions and the time when it was taken.
    completed: u64,
    at: f64,
    /// Counters, running tasks, queue counts, flow and event kinds:
    /// compared exactly.
    ints: Vec<u64>,
    /// Interrupt debts and queued events' offsets from `at`: compared
    /// within 1e-9 of the cycle's period per completion.
    times: Vec<f64>,
    /// Each flow's bytes left of its payload and rate of the link
    /// bandwidth: compared within 1e-9.
    shares: Vec<f64>,
    /// The interface byte totals, for the jump's extrapolation.
    bytes_in: Vec<f64>,
    bytes_out: Vec<f64>,
}

impl Signature {
    fn clear(&mut self) {
        self.ints.clear();
        self.times.clear();
        self.shares.clear();
        self.bytes_in.clear();
        self.bytes_out.clear();
    }

    /// Whether this signature equals `saved`, its times within `tol`.
    fn matches(&self, saved: &Signature, tol: f64) -> bool {
        let close = |a: &[f64], b: &[f64], tol: f64| {
            a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x == y || (x - y).abs() <= tol)
        };
        self.ints == saved.ints
            && close(&self.times, &saved.times, tol)
            && close(&self.shares, &saved.shares, 1e-9)
    }
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
                    queued: false,
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
                    src: e.src.index(),
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
        let ready_queue = pe_tasks.iter().map(|ts| BinaryHeap::with_capacity(ts.len())).collect();
        // everything starts dirty
        let mut dirty = Dirty {
            edges: Marks::new(edges.len()),
            reads: Marks::new(tasks.len()),
            tasks: Marks::new(tasks.len()),
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
            dirty.tasks.mark(k);
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
            sink_times[s] = Vec::with_capacity(n_instances.min(LIMITS.max_events) as usize);
        }
        Ok(Sim {
            g,
            spec,
            config: *config,
            limits: LIMITS,
            n_instances,
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            transfer_done: None,
            tasks,
            edges,
            flows: Vec::new(),
            free_flows: Vec::new(),
            active_flow_ids: Vec::new(),
            running: vec![None; spec.n_pes()],
            pending_interrupt: vec![0.0; spec.n_pes()],
            spe_queue_used: vec![0; spec.n_pes()],
            proxy_used: vec![0; spec.n_pes()],
            pe_tasks,
            ready_queue,
            dirty,
            sink_times,
            sink_ids,
            bytes_out: vec![0.0; spec.n_pes()],
            bytes_in: vec![0.0; spec.n_pes()],
            events_processed: 0,
            streaming: Vec::new(),
            fair: MaxMin::new(2 * spec.n_pes()),
            link_load: Vec::new(),
            drained: Vec::new(),
            seeking: true,
            completed: 0,
            saved: Signature::default(),
            previous: Signature::default(),
            current: Signature::default(),
            pending: Vec::new(),
            cycle: None,
            #[cfg(test)]
            history: None,
        })
    }

    /// An event at `at`, numbered after every event made before it.
    fn event(&mut self, at: f64, kind: Ev) -> Event {
        self.seq += 1;
        Event { at, seq: self.seq, kind }
    }

    fn push(&mut self, at: f64, kind: Ev) {
        let e = self.event(at, kind);
        self.events.push(e);
    }

    /// Take the next event in `(at, seq)` order: the heap's first or the
    /// pending transfer completion, whichever comes first (`Event`'s
    /// order is reversed for the min-heap, so the first is the greater).
    fn next_event(&mut self) -> Option<Event> {
        match (self.events.peek(), &self.transfer_done) {
            (Some(e), Some(done)) if e > done => self.events.pop(),
            (_, Some(_)) => self.transfer_done.take(),
            (_, None) => self.events.pop(),
        }
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

    /// Re-share the links among the streaming flows and predict the next
    /// transfer completion, which replaces the pending one. Only the
    /// components of the flow–link graph that hold a link whose flows
    /// changed since the last call are filled again (see `fair`); every
    /// other flow keeps its rate. In debug builds a full re-share
    /// follows, which must give every streaming flow the rate it holds,
    /// bit for bit.
    fn reallocate(&mut self) {
        let bw = self.spec.interface_bw().as_bytes_per_s();
        let Sim { flows, fair, .. } = self;
        for (fid, rate) in fair.reshare(bw) {
            flows[fid].rate = rate;
        }
        // the streaming list and the next completion, in one pass
        let Sim { flows, active_flow_ids, streaming, now, .. } = self;
        streaming.clear();
        let mut next_done: Option<f64> = None;
        for &fid in active_flow_ids.iter() {
            let f = &flows[fid];
            if f.state != FlowState::Streaming {
                continue;
            }
            streaming.push(fid);
            let eta = if f.rate.is_infinite() { 0.0 } else { f.bytes_left / f.rate };
            // never predict beyond-horizon completions for already-drained
            // residue: fire immediately instead
            let done_at = *now + eta;
            next_done = Some(next_done.map_or(done_at, |d: f64| d.min(done_at)));
        }
        debug_assert_eq!(self.missed_rate(bw), None, "a re-share missed a rate at t={}", self.now);
        if cfg!(debug_assertions) {
            // conservation check: no link may be over-allocated
            let load = &mut self.link_load;
            load.clear();
            load.resize(2 * self.spec.n_pes(), 0.0);
            for &fid in &self.streaming {
                let f = &self.flows[fid];
                for l in [f.ports.src_link, f.ports.dst_link].into_iter().flatten() {
                    load[l] += f.rate;
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
        self.transfer_done = next_done.map(|at| self.event(at, Ev::TransferDone));
    }

    /// The component rule's oracle: the first flow whose rate a full
    /// re-share changes, with the rate it holds and the full one's — none,
    /// right after a re-share. The full re-share must reach exactly the
    /// streaming flows.
    fn missed_rate(&mut self, bw: f64) -> Option<(usize, f64, f64)> {
        let Sim { flows, streaming, fair, .. } = self;
        fair.mark_all();
        let mut reached = 0;
        for (fid, rate) in fair.reshare(bw) {
            let f = &flows[fid];
            assert_eq!(f.state, FlowState::Streaming, "flow {fid} is shared but not streaming");
            reached += 1;
            if f.rate.to_bits() != rate.to_bits() {
                return Some((fid, f.rate, rate));
            }
        }
        assert_eq!(reached, streaming.len(), "a full re-share missed a streaming flow");
        None
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
    /// memory reads, then the marked tasks that became ready into their
    /// PEs' queues, then idle-PE activations, each in increasing index
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
        while let Some(k) = self.dirty.tasks.pop() {
            let t = &self.tasks[k];
            if t.queued || self.running[t.pe] == Some(k) || t.next >= self.n_instances {
                continue;
            }
            if self.ready(k) {
                let t = &mut self.tasks[k];
                t.queued = true;
                self.ready_queue[t.pe].push(Reverse((t.priority + t.next, t.topo_rank, k)));
                self.dirty.pes.mark(t.pe);
            }
        }
        while let Some(pe) = self.dirty.pes.pop() {
            if self.running[pe].is_some() {
                continue;
            }
            let picked = self.ready_queue[pe].pop().map(|Reverse((_, _, k))| k);
            debug_assert_eq!(picked, self.pick_task(pe), "PE {pe}'s queue at t={}", self.now);
            if let Some(k) = picked {
                self.tasks[k].queued = false;
                self.start_compute(pe, k);
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
        (0..self.running.len())
            .find(|&pe| self.running[pe].is_none() && self.pick_task(pe).is_some())
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
            && issued < t.next + self.limits.read_ahead
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
        let ports = flow.ports;
        let fid = self.open_flow(flow);
        if delayed {
            self.push(self.now + latency, Ev::TransferStart { id: fid });
        } else {
            self.fair.start(fid, ports);
        }
        !delayed
    }

    /// The Figure 4 "select a runnable task" step by a full scan, the
    /// oracle of the ready queues: among this PE's tasks whose next
    /// instance has all inputs, reads and output space, the one whose
    /// periodic-schedule slot (firstPeriod + instance) is oldest, ties
    /// broken by topological rank. Readiness, the costly test, is
    /// checked only for a task that would beat the best so far.
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
        !(t.write_bytes > 0.0 && t.writes_inflight >= self.limits.write_window)
    }

    fn start_compute(&mut self, pe: usize, k: usize) {
        debug_assert!(self.running[pe].is_none());
        let owed = std::mem::take(&mut self.pending_interrupt[pe]);
        let dur = self.tasks[k].cost + self.config.task_overhead + owed;
        self.running[pe] = Some(k);
        self.push(self.now + dur, Ev::ComputeDone { pe, task: k });
    }

    // ---- main loop ---------------------------------------------------------

    fn run(mut self) -> Result<crate::trace::RunTrace, SimError> {
        self.drive()?;
        Ok(self.finish())
    }

    /// Simulate until every sink finished the stream.
    fn drive(&mut self) -> Result<(), SimError> {
        // initial pump: sources with no reads start immediately
        let changed = self.pump();
        if changed {
            self.reallocate();
        }
        let mut last_t = 0.0f64;
        while let Some(ev) = self.next_event() {
            self.events_processed += 1;
            if self.events_processed > self.limits.max_events {
                return Err(SimError::EventBudget);
            }
            self.now = ev.at.max(last_t);
            debug_assert!(self.streaming_is_current());
            self.advance(self.now - last_t);
            last_t = self.now;

            let mut flows_changed = false;
            let mut completion = false;
            match ev.kind {
                Ev::ComputeDone { pe, task } => {
                    let t = &mut self.tasks[task];
                    t.next += 1;
                    let (wb, reads) = (t.write_bytes, t.read_bytes > 0.0);
                    self.running[pe] = None;
                    self.dirty.pes.mark(pe);
                    self.dirty.tasks.mark(task);
                    if reads {
                        self.dirty.reads.mark(task);
                    }
                    // production on out-edges, an input for a co-mapped
                    // consumer; the consumer freed a slot on every
                    // in-edge, an output slot for a co-mapped producer
                    for e in self.g.out_edges(TaskId(task)) {
                        let es = &mut self.edges[e.index()];
                        es.produced += 1;
                        if es.co_mapped {
                            es.arrived += 1;
                            self.dirty.tasks.mark(es.dst);
                        }
                        self.dirty.edges.mark(e.index());
                    }
                    for e in self.g.in_edges(TaskId(task)) {
                        let es = &self.edges[e.index()];
                        if es.co_mapped {
                            self.dirty.tasks.mark(es.src);
                        }
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
                        let ports = FlowPorts { src_link: Some(pe), dst_link: None };
                        let fid = self.open_flow(Flow {
                            kind: FlowKind::Write { task },
                            state: FlowState::Streaming,
                            bytes_left: wb,
                            total_bytes: wb,
                            rate: 0.0,
                            ports,
                            spe_queue: holds_slot.then_some(pe),
                            proxy_queue: None,
                        });
                        self.fair.start(fid, ports);
                        flows_changed = true;
                    }
                    // sink bookkeeping
                    if self.tasks[task].is_sink {
                        self.sink_times[task].push(self.now);
                        completion = self.completion_rose();
                    }
                    flows_changed |= self.pump();
                    if self.done() {
                        return Ok(());
                    }
                }
                Ev::TransferStart { id } => {
                    let f = &mut self.flows[id];
                    if f.state == FlowState::Latency {
                        f.state = FlowState::Streaming;
                        self.fair.start(id, f.ports);
                        flows_changed = true;
                    }
                }
                Ev::TransferDone => {
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
            if completion {
                #[cfg(test)]
                self.record();
                if self.seeking {
                    self.seek_cycle(&mut last_t);
                }
            }
        }
        if self.done() {
            Ok(())
        } else {
            let completed =
                self.sink_ids.iter().map(|&s| self.sink_times[s].len() as u64).min().unwrap_or(0);
            Err(SimError::Stalled { at: self.now, completed })
        }
    }

    // ---- the periodic steady state ---------------------------------------

    /// Whether a sink's completion raised the full completion count.
    fn completion_rose(&mut self) -> bool {
        let sink_times = &self.sink_times;
        let least = self.sink_ids.iter().map(|&s| sink_times[s].len() as u64).min().unwrap_or(0);
        let rose = least > self.completed;
        self.completed = least;
        rose
    }

    /// The completions a jump may still cover: a jump of `k` cycles of
    /// `c` must land with `margin + (k + 1)·c < n` (module docs).
    fn room(&self) -> u64 {
        let lead = self.tasks.iter().map(|t| t.next.max(t.reads_done + t.reads_inflight)).max();
        let peek = self.tasks.iter().map(|t| t.peek).max();
        let margin = lead.unwrap_or(0) + peek.unwrap_or(0) + self.limits.read_ahead;
        self.n_instances.saturating_sub(margin)
    }

    /// At a full completion, after the pump and the re-share: compare the
    /// state's signature with the previous completion's and with the
    /// power-of-two one, and jump the cycle the first match closes;
    /// otherwise keep it as the previous one, or at a power-of-two
    /// completion as the saved one (which is then the previous one too).
    /// Stops looking once the stream's end is too near for any jump.
    fn seek_cycle(&mut self, last_t: &mut f64) {
        let room = self.room();
        if room <= 1 {
            self.seeking = false;
            return;
        }
        self.sign();
        let by_previous = self.previous.completed + 1 == self.completed;
        if let Some((c, dt)) = by_previous.then(|| self.closes(&self.previous, room)).flatten() {
            // the jump extrapolates the bytes from the saved signature
            std::mem::swap(&mut self.saved, &mut self.previous);
            self.land(c, dt, room, last_t);
        } else if let Some((c, dt)) = self.closes(&self.saved, room) {
            self.land(c, dt, room, last_t);
        } else if self.completed.is_power_of_two() {
            std::mem::swap(&mut self.saved, &mut self.current);
        } else {
            std::mem::swap(&mut self.previous, &mut self.current);
        }
    }

    /// Add the signature and the room of this full completion to the
    /// history, if one is kept.
    #[cfg(test)]
    fn record(&mut self) {
        if self.history.is_some() {
            let room = self.room();
            self.sign();
            let entry = (self.current.clone(), room);
            self.history.as_mut().expect("checked above").push(entry);
        }
    }

    /// The cycle `(c, Δt)` from `kept` to the signature just taken, if
    /// they match and a jump over it fits in `room`.
    fn closes(&self, kept: &Signature, room: u64) -> Option<(u64, f64)> {
        let (c, dt) = (self.completed - kept.completed, self.now - kept.at);
        let closed = kept.completed > 0
            && dt > 0.0
            && c < room
            && self.current.matches(kept, 1e-9 * dt / c as f64);
        closed.then_some((c, dt))
    }

    /// Record the cycle `(c, dt)` found against `saved` and jump as many
    /// whole cycles as `room` leaves.
    fn land(&mut self, c: u64, dt: f64, room: u64, last_t: &mut f64) {
        self.seeking = false;
        self.cycle = Some((c, dt));
        let k = (room - 1) / c - 1;
        if k > 0 {
            self.jump(k, c, dt, last_t);
        }
    }

    /// Take the state's signature into `current`.
    fn sign(&mut self) {
        let c = self.completed;
        let sig = &mut self.current;
        sig.clear();
        sig.completed = c;
        sig.at = self.now;
        for t in &self.tasks {
            sig.ints.extend([t.next.wrapping_sub(c), t.writes_inflight, u64::from(t.queued)]);
            // a task that reads no memory never moves its read counter
            if t.read_bytes > 0.0 {
                sig.ints.extend([t.reads_done.wrapping_sub(c), t.reads_inflight]);
            }
        }
        for e in &self.edges {
            sig.ints.extend([e.produced.wrapping_sub(c), e.arrived.wrapping_sub(c), e.inflight]);
            // a co-mapped edge never sends or transfers
            if !e.co_mapped {
                sig.ints.extend([e.next_send.wrapping_sub(c), e.transfers_done.wrapping_sub(c)]);
            }
        }
        for pe in 0..self.running.len() {
            let running = self.running[pe].map_or(u64::MAX, |k| k as u64);
            let queues = [self.spe_queue_used[pe], self.proxy_used[pe]].map(u64::from);
            sig.ints.push(running);
            sig.ints.extend(queues);
            sig.times.push(self.pending_interrupt[pe]);
        }
        let bw = self.spec.interface_bw().as_bytes_per_s();
        sig.ints.push(self.active_flow_ids.len() as u64);
        for &fid in &self.active_flow_ids {
            let f = &self.flows[fid];
            let kind = match f.kind {
                FlowKind::Edge { edge } => 3 * edge,
                FlowKind::Read { task } => 3 * task + 1,
                FlowKind::Write { task } => 3 * task + 2,
            };
            sig.ints.extend([kind as u64, f.state as u64, u64::from(f.spe_queue.is_some())]);
            sig.shares.extend([f.bytes_left / f.total_bytes.max(1.0), f.rate / bw]);
        }
        // the queued events in the order they will pop; a start is named
        // by its flow's place among the flows in flight, not by its id
        self.pending.clear();
        for e in self.events.iter().chain(&self.transfer_done) {
            let code = match e.kind {
                Ev::ComputeDone { task, .. } => 3 * task as u64,
                Ev::TransferStart { id } => {
                    let place = self.active_flow_ids.iter().position(|&f| f == id);
                    3 * place.map_or(u64::MAX / 4, |p| p as u64) + 1
                }
                Ev::TransferDone => 2,
            };
            self.pending.push((e.at, e.seq, code));
        }
        self.pending.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sig.ints.push(self.pending.len() as u64);
        for &(at, _, code) in &self.pending {
            sig.ints.push(code);
            sig.times.push(at - self.now);
        }
        sig.bytes_in.extend_from_slice(&self.bytes_in);
        sig.bytes_out.extend_from_slice(&self.bytes_out);
    }

    /// Skip `k` cycles of `c` completions and `dt` seconds: every time
    /// moves by `k·dt`, every counter by `k·c`, each sink records the
    /// cycle's completions `k` more times and the interfaces its bytes.
    fn jump(&mut self, k: u64, c: u64, dt: f64, last_t: &mut f64) {
        let (kc, shift) = (k * c, k as f64 * dt);
        self.now += shift;
        *last_t = self.now;
        // a constant added to every key keeps both heaps' order
        let mut events = std::mem::take(&mut self.events).into_vec();
        for e in &mut events {
            e.at += shift;
        }
        self.events = BinaryHeap::from(events);
        if let Some(done) = &mut self.transfer_done {
            done.at += shift;
        }
        for queue in &mut self.ready_queue {
            let mut keys = std::mem::take(queue).into_vec();
            for Reverse((slot, _, _)) in &mut keys {
                *slot += kc;
            }
            *queue = BinaryHeap::from(keys);
        }
        for t in &mut self.tasks {
            t.next += kc;
            if t.read_bytes > 0.0 {
                t.reads_done += kc;
            }
        }
        for e in &mut self.edges {
            e.produced += kc;
            e.arrived += kc;
            if !e.co_mapped {
                e.next_send += kc;
                e.transfers_done += kc;
            }
        }
        let c = c as usize;
        for &s in &self.sink_ids {
            let times = &mut self.sink_times[s];
            let first = times.len() - c;
            for j in 1..=k {
                let lag = j as f64 * dt;
                for i in first..first + c {
                    let at = times[i] + lag;
                    times.push(at);
                }
            }
        }
        let k = k as f64;
        for (now, then) in self.bytes_in.iter_mut().zip(&self.saved.bytes_in) {
            *now += k * (*now - then);
        }
        for (now, then) in self.bytes_out.iter_mut().zip(&self.saved.bytes_out) {
            *now += k * (*now - then);
        }
        self.completed += kc;
        debug_assert!(
            self.ready_queue.iter().flatten().all(|&Reverse((slot, _, t))| {
                slot == self.tasks[t].priority + self.tasks[t].next
            }),
            "a jump left a ready queue's key behind"
        );
        debug_assert_eq!(self.missed_work(), None, "the jump left work behind at t={}", self.now);
    }

    fn complete_flow(&mut self, fid: usize) {
        let f = &mut self.flows[fid];
        f.state = FlowState::Done;
        f.bytes_left = 0.0;
        self.fair.finish(fid);
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
                dirty.tasks.mark(es.src);
                dirty.tasks.mark(es.dst);
            }
            FlowKind::Read { task } => {
                let t = &mut self.tasks[task];
                t.reads_inflight -= 1;
                t.reads_done += 1;
                dirty.tasks.mark(task);
            }
            FlowKind::Write { task } => {
                self.tasks[task].writes_inflight -= 1;
                dirty.tasks.mark(task);
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
            cycle: self.cycle,
        }
    }
}

/// [`simulate`] within narrower [`Limits`]: the test hook that reaches
/// [`SimError::Stalled`] and [`SimError::EventBudget`].
#[cfg(test)]
pub(crate) fn simulate_within(
    g: &StreamGraph,
    spec: &CellSpec,
    mapping: &Mapping,
    config: &SimConfig,
    n_instances: u64,
    limits: Limits,
) -> Result<crate::trace::RunTrace, SimError> {
    let mut sim = Sim::new(g, spec, mapping, config, n_instances)?;
    sim.limits = limits;
    sim.run()
}

#[cfg(test)]
mod tests {
    //! The first-repeat referee: a one-completion cycle is recorded at
    //! the first completion whose signature equals the previous one's,
    //! read off every completion's signature of the event-by-event run.

    use super::*;
    use cellstream_core::scheduler::{PlanContext, Scheduler};
    use cellstream_daggen::{generate, paper, CostParams, DagGenParams};
    use cellstream_heuristics::{greedy_cpu, MultiStartScheduler};
    use proptest::prelude::*;

    /// The multi-start local search's mapping, which the benchmark's
    /// `plan_paper` seeds its annealer and MILP with.
    fn multi_start_mapping(g: &StreamGraph, spec: &CellSpec) -> Mapping {
        let plan = MultiStartScheduler::default().plan(g, spec, &PlanContext::default());
        plan.expect("multi-start always finds a mapping").mapping
    }

    /// Instances per run, as in the benchmark's `plan_paper`.
    const INSTANCES: u64 = 200;

    /// The first completion of the event-by-event run whose signature
    /// equals the previous completion's under `seek_cycle`'s rule, while
    /// the room left allows a jump.
    fn first_repeat(
        g: &StreamGraph,
        spec: &CellSpec,
        m: &Mapping,
        config: &SimConfig,
    ) -> Option<u64> {
        let mut sim = Sim::new(g, spec, m, config, INSTANCES).unwrap();
        sim.seeking = false;
        sim.history = Some(Vec::new());
        sim.drive().unwrap();
        let history = sim.history.take().unwrap();
        history.windows(2).find_map(|pair| {
            let [(previous, _), (sig, room)] = pair else { unreachable!() };
            assert_eq!(previous.completed + 1, sig.completed, "a completion was not recorded");
            let dt = sig.at - previous.at;
            let repeats = *room > 1 && dt > 0.0 && sig.matches(previous, 1e-9 * dt);
            repeats.then_some(sig.completed)
        })
    }

    /// Where `simulate` records its cycle: the completion whose signature
    /// closed it (the last one taken) and the cycle's completions.
    fn found(
        g: &StreamGraph,
        spec: &CellSpec,
        m: &Mapping,
        config: &SimConfig,
    ) -> Option<(u64, u64)> {
        let mut sim = Sim::new(g, spec, m, config, INSTANCES).unwrap();
        sim.drive().unwrap();
        sim.cycle.map(|(c, _)| (sim.current.completed, c))
    }

    /// The first repeat, when `simulate` records its one-completion cycle
    /// there; `None` when neither has one, or `simulate` closed a longer
    /// cycle before any repeat; why not, otherwise.
    fn referee(
        g: &StreamGraph,
        spec: &CellSpec,
        m: &Mapping,
        config: &SimConfig,
    ) -> Result<Option<u64>, String> {
        match (found(g, spec, m, config), first_repeat(g, spec, m, config)) {
            (Some((at, 1)), Some(first)) if at == first => Ok(Some(first)),
            (Some((at, c)), first) if c > 1 && first.is_none_or(|first| at < first) => Ok(None),
            (None, None) => Ok(None),
            (found, first) => Err(format!(
                "simulate recorded (completion, cycle) {found:?}, the first repeat is at {first:?}"
            )),
        }
    }

    #[test]
    fn paper_graph_1s_cycle_is_recorded_at_its_first_repeat() {
        let spec = CellSpec::qs22();
        let mut variants = paper::ccr_variants(&paper::graph1());
        for point in [3, 0] {
            let (ccr, g) = variants.swap_remove(point);
            let (greedy, multi) = (greedy_cpu(&g, &spec), multi_start_mapping(&g, &spec));
            let mut repeats = 0;
            for (name, m) in [("greedy_cpu", &greedy), ("multi_start", &multi)] {
                for (config_name, config) in
                    [("ideal", SimConfig::ideal()), ("default", SimConfig::default())]
                {
                    let first = referee(&g, &spec, m, &config).unwrap_or_else(|why| {
                        panic!("graph 1 @ {ccr:.3}, {name}, {config_name}: {why}")
                    });
                    println!("graph 1 @ {ccr:.3}, {name}, {config_name}: first repeat {first:?}");
                    repeats += usize::from(first.is_some());
                }
            }
            // not vacuous: at both CCRs some run settles into a
            // one-completion cycle
            assert!(repeats > 0, "graph 1 @ {ccr:.3}: no run repeats its state");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn a_one_completion_cycle_is_recorded_at_its_first_repeat(
            seed in 0u64..10_000,
            n in 4usize..24,
            picks in proptest::collection::vec(0usize..1024, 24..25),
            calibrated in any::<bool>(),
        ) {
            let g = generate("referee", &DagGenParams {
                n, fat: 0.6, regular: 0.5, density: 0.4, jump: 2,
                costs: CostParams::default(),
            }, seed).unwrap();
            let spec = CellSpec::qs22();
            let assignment = g.task_ids().zip(&picks).map(|(_, &pe)| spec.pe(pe % spec.n_pes())).collect();
            let m = Mapping::new(&g, &spec, assignment).unwrap();
            let config = if calibrated { SimConfig::calibrated() } else { SimConfig::ideal() };
            prop_assert_eq!(referee(&g, &spec, &m, &config).map(|_| ()), Ok(()));
        }
    }
}
