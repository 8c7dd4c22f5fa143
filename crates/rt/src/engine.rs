//! The multithreaded execution engine: one OS thread per processing
//! element, each running the paper's Figure 4 scheduler loop.

use crate::kernels::{Kernel, KernelCtx, Window};
use crate::local_store::{LocalStore, StoreError};
use crate::ring::EdgeRing;
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine options.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Stream length to execute.
    pub n_instances: u64,
    /// How long an idle PE thread parks before re-polling (it is also
    /// woken eagerly whenever any data is produced or released).
    pub park_timeout: Duration,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig { n_instances: 1000, park_timeout: Duration::from_micros(200) }
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
    let rings: Vec<EdgeRing> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(ei, e)| EdgeRing::new(plan.edge_slots[ei].max(1), e.data_bytes.ceil() as usize))
        .collect();
    let processed: Vec<AtomicU64> = (0..g.n_tasks()).map(|_| AtomicU64::new(0)).collect();
    let progress = (Mutex::new(0u64), Condvar::new());

    let pe_tasks: Vec<Vec<usize>> = {
        let mut v = vec![Vec::new(); spec.n_pes()];
        for &t in g.topo_order() {
            v[mapping.pe_of(t).index()].push(t.index());
        }
        v
    };
    let fp = &plan.first_period;

    let started = Instant::now();
    std::thread::scope(|scope| {
        for pe in spec.pes() {
            let my_tasks = pe_tasks[pe.index()].clone();
            if my_tasks.is_empty() {
                continue;
            }
            let rings = &rings;
            let processed = &processed;
            let progress = &progress;
            let kernels = &kernels;
            let g2 = g;
            scope.spawn(move || {
                pe_loop(g2, &my_tasks, rings, processed, progress, kernels, fp, n, config);
            });
        }
    });
    let wall = started.elapsed();

    let done: Vec<u64> = processed.iter().map(|c| c.load(Ordering::Acquire)).collect();
    Ok(RunStats { wall, throughput: n as f64 / wall.as_secs_f64(), processed: done, store_used })
}

/// The Figure 4 state machine, one instance per iteration:
/// *select a runnable task → process → signal*. The communication phase
/// of the emulator is the ring bookkeeping itself; when nothing is
/// runnable the thread parks on the progress condvar.
#[allow(clippy::too_many_arguments)]
fn pe_loop(
    g: &StreamGraph,
    my_tasks: &[usize],
    rings: &[EdgeRing],
    processed: &[AtomicU64],
    progress: &(Mutex<u64>, Condvar),
    kernels: &[Arc<dyn Kernel>],
    fp: &[u64],
    n: u64,
    config: &RtConfig,
) {
    let mut next: Vec<u64> = vec![0; g.n_tasks()];
    loop {
        // -------- computation phase: select a runnable task ---------------
        let mut candidate: Option<(u64, usize, usize)> = None; // (slot, rank, task)
        let mut all_done = true;
        for (rank, &k) in my_tasks.iter().enumerate() {
            let i = next[k];
            if i >= n {
                continue;
            }
            all_done = false;
            if task_ready(g, k, i, n, rings) {
                let key = (fp[k] + i, rank, k);
                if candidate.is_none_or(|c| (key.0, key.1) < (c.0, c.1)) {
                    candidate = Some(key);
                }
            }
        }
        if all_done {
            return;
        }

        match candidate {
            Some((_, _, k)) => {
                let i = next[k];
                process_instance(g, k, i, n, rings, kernels);
                next[k] = i + 1;
                processed[k].fetch_add(1, Ordering::AcqRel);
                // signal new data
                let (lock, cv) = progress;
                let mut epoch = lock.lock();
                *epoch += 1;
                cv.notify_all();
            }
            None => {
                // -------- communication phase / wait for resources --------
                let (lock, cv) = progress;
                let mut epoch = lock.lock();
                // re-check under the lock to avoid missed wakeups
                let ready_now =
                    my_tasks.iter().any(|&k| next[k] < n && task_ready(g, k, next[k], n, rings));
                if !ready_now {
                    let _ = cv.wait_for(&mut epoch, config.park_timeout);
                }
            }
        }
    }
}

fn task_ready(g: &StreamGraph, k: usize, i: u64, n: u64, rings: &[EdgeRing]) -> bool {
    let peek = g.task(TaskId(k)).peek as u64;
    let last_needed = (i + peek).min(n - 1);
    for &e in g.in_edges(TaskId(k)) {
        if !rings[e.index()].window_ready(last_needed) {
            return false;
        }
    }
    for &e in g.out_edges(TaskId(k)) {
        if !rings[e.index()].can_produce() {
            return false;
        }
    }
    true
}

fn process_instance(
    g: &StreamGraph,
    k: usize,
    i: u64,
    n: u64,
    rings: &[EdgeRing],
    kernels: &[Arc<dyn Kernel>],
) {
    let task = g.task(TaskId(k));
    let peek = task.peek as u64;
    let last_needed = (i + peek).min(n - 1);
    let in_edges = g.in_edges(TaskId(k));
    let out_edges = g.out_edges(TaskId(k));

    // Collect input windows; the nested closure dance keeps all ring
    // guards alive across the kernel call without unsafe.
    let mut input_data: Vec<Vec<Vec<u8>>> = Vec::with_capacity(in_edges.len());
    for &e in in_edges {
        let ring = &rings[e.index()];
        let window = ring.with_window(i, last_needed, |slices| {
            slices.iter().map(|s| s.to_vec()).collect::<Vec<_>>()
        });
        input_data.push(window);
    }
    let windows: Vec<Window<'_>> = input_data
        .iter()
        .map(|w| Window { instances: w.iter().map(|v| v.as_slice()).collect() })
        .collect();

    // Produce outputs in place.
    let mut out_bufs: Vec<Vec<u8>> =
        out_edges.iter().map(|&e| vec![0u8; g.edge(e).data_bytes.ceil() as usize]).collect();
    {
        let mut out_slices: Vec<&mut [u8]> =
            out_bufs.iter_mut().map(|v| v.as_mut_slice()).collect();
        let ctx = KernelCtx { instance: i, task_name: &task.name, peek: task.peek };
        kernels[k].process(&ctx, &windows, &mut out_slices);
    }
    for (&e, buf) in out_edges.iter().zip(&out_bufs) {
        rings[e.index()].produce(|slot| slot.copy_from_slice(buf));
    }
    // release the oldest input instance on every in-edge
    for &e in in_edges {
        rings[e.index()].release(i);
    }
}
