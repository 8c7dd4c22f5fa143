//! The multithreaded execution engine: one OS thread per processing
//! element, each running the paper's Figure 4 scheduler loop.
//!
//! # The hand-off
//!
//! A PE thread loops *select a runnable task → process → signal*.
//! Processing is in place: the kernel reads its peek windows straight
//! from the input rings' slots and writes its outputs straight into the
//! output rings' next free slots (zero-filled first), all of them locked
//! for the length of the call; then the outputs are published and the
//! oldest input instance is released. Nothing is copied and nothing is
//! allocated per instance beyond the kernel's argument lists.
//!
//! Signalling is per PE and exact. After an execution the thread unparks
//! only the PE threads at the far end of the task's cross-PE edges — the
//! consumers it produced for and the producers it freed a slot for —
//! because no other task can have become runnable; on its own PE the
//! next scan sees the change. A thread that finds nothing runnable
//! yields its CPU once and re-scans before it parks: when PE threads
//! share a CPU, the peer then fills or drains the rings in one go, so the
//! threads trade the CPU once per ring fill instead of once per
//! instance. `park` has no timeout and needs none: an unpark that lands
//! between a scan and the park leaves a token that makes the park
//! return at once, so a wake-up is never lost.

use crate::kernels::{Kernel, KernelCtx, Window};
use crate::local_store::{LocalStore, StoreError};
use crate::ring::{EdgeRing, Slot};
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Engine options.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Stream length to execute.
    pub n_instances: u64,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig { n_instances: 1000 }
    }
}

/// Errors at engine initialisation.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// A mapping whose buffers do not fit the local store of an SPE —
    /// the static allocation pass of the real framework fails the same way.
    Allocation(PeId, StoreError),
    /// Structural mapping problem.
    Mapping(String),
    /// Kernel table does not cover every task.
    MissingKernel(TaskId),
    /// `RtConfig::n_instances` is zero: there is no stream to run.
    NoInstances,
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Allocation(pe, e) => write!(f, "{pe}: {e}"),
            RtError::Mapping(m) => write!(f, "{m}"),
            RtError::MissingKernel(t) => write!(f, "no kernel for {t}"),
            RtError::NoInstances => write!(f, "run at least one instance"),
        }
    }
}

impl std::error::Error for RtError {}

/// Wall-clock statistics of a run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Total wall time.
    pub wall: Duration,
    /// Instances per wall-second at the sinks.
    pub throughput: f64,
    /// Instances processed per task (always `n_instances` on success).
    pub processed: Vec<u64>,
    /// Local-store bytes reserved per PE (0 for PPEs).
    pub store_used: Vec<u64>,
}

/// Execute `g` under `mapping` with one thread per PE.
///
/// `kernels[k]` is the body of task `k`. Blocks until all tasks have
/// processed `config.n_instances` instances.
pub fn run(
    g: &StreamGraph,
    spec: &CellSpec,
    mapping: &Mapping,
    kernels: &[Arc<dyn Kernel>],
    config: &RtConfig,
) -> Result<RunStats, RtError> {
    Mapping::new(g, spec, mapping.assignment().to_vec())
        .map_err(|e| RtError::Mapping(e.to_string()))?;
    if kernels.len() != g.n_tasks() {
        return Err(RtError::MissingKernel(TaskId(kernels.len().min(g.n_tasks()))));
    }
    let n = config.n_instances;
    if n == 0 {
        return Err(RtError::NoInstances);
    }

    // ---- static allocation pass (the paper's initialisation phase) -------
    let plan = BufferPlan::new(g);
    let mut store_used = vec![0u64; spec.n_pes()];
    for pe in spec.spes() {
        let mut store = LocalStore::new(spec.local_store_budget());
        for t in g.task_ids() {
            if mapping.pe_of(t) != pe {
                continue;
            }
            // both in and out buffers are charged to the host (§4.2)
            for &e in g.in_edges(t).iter().chain(g.out_edges(t)) {
                let bytes = plan.for_edge(e).ceil() as u64;
                store
                    .reserve(format!("{}/{}", g.task(t).name, e), bytes)
                    .map_err(|err| RtError::Allocation(pe, err))?;
            }
        }
        store_used[pe.index()] = store.used();
    }

    // ---- shared state ------------------------------------------------------
    // one thread per PE that hosts a task, each with its tasks in
    // topological order
    let mut pe_tasks: Vec<Vec<usize>> = vec![Vec::new(); spec.n_pes()];
    for &t in g.topo_order() {
        pe_tasks[mapping.pe_of(t).index()].push(t.index());
    }
    pe_tasks.retain(|tasks| !tasks.is_empty());
    let mut thread_of = vec![0; g.n_tasks()];
    for (w, tasks) in pe_tasks.iter().enumerate() {
        for &k in tasks {
            thread_of[k] = w;
        }
    }
    let wake = g
        .task_ids()
        .map(|t| {
            let far_ends = g.out_edges(t).iter().map(|&e| g.edge(e).dst);
            let far_ends = far_ends.chain(g.in_edges(t).iter().map(|&e| g.edge(e).src));
            let mut threads: Vec<usize> = far_ends
                .map(|u| thread_of[u.index()])
                .filter(|&w| w != thread_of[t.index()])
                .collect();
            threads.sort_unstable();
            threads.dedup();
            threads
        })
        .collect();
    let shared = Shared {
        g,
        kernels,
        rings: g
            .edges()
            .iter()
            .enumerate()
            .map(|(ei, e)| EdgeRing::new(plan.edge_slots[ei].max(1), e.data_bytes.ceil() as usize))
            .collect(),
        first_period: plan.first_period,
        n,
        wake,
        threads: OnceLock::new(),
    };

    let started = Instant::now();
    let counts: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> =
            pe_tasks.iter().map(|tasks| scope.spawn(move || shared.pe_loop(tasks))).collect();
        let _ = shared.threads.set(handles.iter().map(|h| h.thread().clone()).collect());
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let wall = started.elapsed();

    let mut processed = vec![0u64; g.n_tasks()];
    for next in counts {
        for (done, k) in processed.iter_mut().zip(next) {
            *done += k;
        }
    }
    Ok(RunStats { wall, throughput: n as f64 / wall.as_secs_f64(), processed, store_used })
}

/// What the PE threads of one run share.
struct Shared<'a> {
    g: &'a StreamGraph,
    kernels: &'a [Arc<dyn Kernel>],
    /// One ring per edge.
    rings: Vec<EdgeRing>,
    /// `firstPeriod` per task: the static schedule's priority.
    first_period: Vec<u64>,
    /// Stream length.
    n: u64,
    /// Per task: the threads at the far end of its cross-PE edges, the
    /// only ones its execution can make runnable.
    wake: Vec<Vec<usize>>,
    /// The PE threads, set once all are spawned.
    threads: OnceLock<Vec<Thread>>,
}

impl Shared<'_> {
    /// The Figure 4 state machine, one instance per iteration: *select a
    /// runnable task → process → signal*; when nothing is runnable, yield
    /// once, then park until a peer signals. Returns the instances each
    /// task processed (0 for the other threads' tasks).
    fn pe_loop(&self, my_tasks: &[usize]) -> Vec<u64> {
        let threads = self.threads.wait();
        let mut next = vec![0u64; self.g.n_tasks()];
        let mut yielded = false;
        loop {
            // -------- computation phase: select a runnable task ---------------
            let mut candidate: Option<(u64, usize)> = None; // (period, task)
            let mut all_done = true;
            for &k in my_tasks {
                let i = next[k];
                if i >= self.n {
                    continue;
                }
                all_done = false;
                // the earliest period of the static schedule, ties to the
                // topologically first task
                let period = self.first_period[k] + i;
                if candidate.is_none_or(|(p, _)| period < p) && self.ready(k, i) {
                    candidate = Some((period, k));
                }
            }
            if all_done {
                return next;
            }

            match candidate {
                Some((_, k)) => {
                    self.execute(k, next[k]);
                    next[k] += 1;
                    // signal new data and freed slots across PEs
                    for &w in &self.wake[k] {
                        threads[w].unpark();
                    }
                    yielded = false;
                }
                // -------- wait for resources: yield once, then park --------
                None if !yielded => {
                    std::thread::yield_now();
                    yielded = true;
                }
                None => std::thread::park(),
            }
        }
    }

    /// `true` when task `k` may process instance `i`: every peek window
    /// is published and every output ring has a free slot.
    fn ready(&self, k: usize, i: u64) -> bool {
        let t = TaskId(k);
        let last = (i + self.g.task(t).peek as u64).min(self.n - 1);
        self.g.in_edges(t).iter().all(|&e| self.rings[e.index()].window_ready(last))
            && self.g.out_edges(t).iter().all(|&e| self.rings[e.index()].can_produce())
    }

    /// Run task `k` on instance `i` in place: lock its peek windows and
    /// its output slots, call the kernel, then publish the outputs and
    /// release the oldest input instance.
    fn execute(&self, k: usize, i: u64) {
        let task = self.g.task(TaskId(k));
        let last = (i + task.peek as u64).min(self.n - 1);
        let in_edges = self.g.in_edges(TaskId(k));
        let out_edges = self.g.out_edges(TaskId(k));
        {
            let held: Vec<Slot<'_>> = in_edges
                .iter()
                .flat_map(|&e| (i..=last).map(move |j| self.rings[e.index()].read(j)))
                .collect();
            let windows: Vec<Window<'_>> = held
                .chunks((last - i + 1) as usize)
                .map(|window| Window { instances: window.iter().map(|s| &**s).collect() })
                .collect();
            let mut slots: Vec<Slot<'_>> =
                out_edges.iter().map(|&e| self.rings[e.index()].write_next()).collect();
            let mut outputs: Vec<&mut [u8]> = slots.iter_mut().map(|s| &mut **s).collect();
            let ctx = KernelCtx { instance: i, task_name: &task.name, peek: task.peek };
            self.kernels[k].process(&ctx, &windows, &mut outputs);
        } // every slot unlocks here, before its counter moves
        for &e in out_edges {
            self.rings[e.index()].publish();
        }
        for &e in in_edges {
            self.rings[e.index()].release(i);
        }
    }
}
