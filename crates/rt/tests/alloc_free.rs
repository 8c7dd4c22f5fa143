//! Counting-allocator suite: **a task execution allocates next to
//! nothing**. Kernels read their peek windows and write their outputs in
//! place in the ring slots, which `run` allocates once, in its static
//! allocation pass; what is left per execution is the kernel's argument
//! lists (a few pointers each). So on `rt_stream`'s chain — eight tasks,
//! 2 KiB edges — the bytes `run` allocates at 1 000 instances, less
//! those at 100, spread over the 7 200 extra task executions, must stay
//! under 256 B an execution; copying an instance's input and output
//! through the heap costs 4 KiB.
//!
//! The PE threads `run` spawns allocate too, so arming is global rather
//! than per thread, and this file holds a single test so that no other
//! test runs while it is armed.
//!
//! Lives in `tests/` (a separate crate) because the library forbids
//! `unsafe`, and wrapping the global allocator needs it.

use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, TaskSpec};
use cellstream_platform::{CellSpec, PeId};
use cellstream_rt::{run, ChecksumKernel, Kernel, RtConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Passes through to [`System`], adding up the bytes every thread asks
/// for while armed. Deallocations are free; `alloc`, `alloc_zeroed` and
/// `realloc` count their full new size.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated, on any thread, while the closure ran.
fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst)
}

const TASKS: usize = 8;

/// `rt_stream`'s chain: PPE-friendly source and sink around SPE-friendly
/// filters, 2 KiB on every edge.
fn chain() -> StreamGraph {
    let mut b = StreamGraph::builder("rt-chain");
    let mut prev = None;
    for i in 0..TASKS {
        let (ppe, spe) = match i {
            0 | 7 => (0.6e-6, 1.2e-6),
            _ => (1.5e-6 + 0.1e-6 * i as f64, 0.5e-6 + 0.05e-6 * i as f64),
        };
        let t = b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(ppe).spe_cost(spe));
        if let Some(p) = prev {
            b.add_edge(p, t, 2048.0).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

#[test]
fn task_executions_do_not_copy_through_the_heap() {
    let g = chain();
    let spec = CellSpec::with_spes(1);
    // source and sink on the PPE, the filters on the SPE: two threads,
    // two cross-PE edges
    let assignment = (0..TASKS).map(|k| PeId(usize::from(k > 0 && k < TASKS - 1))).collect();
    let m = Mapping::new(&g, &spec, assignment).unwrap();
    let kernels: Vec<Arc<dyn Kernel>> =
        (0..TASKS).map(|_| Arc::new(ChecksumKernel) as Arc<dyn Kernel>).collect();

    let bytes_at = |n: u64| {
        bytes_allocated_by(|| {
            let stats = run(&g, &spec, &m, &kernels, &RtConfig { n_instances: n }).unwrap();
            assert_eq!(stats.processed, vec![n; TASKS]);
        })
    };
    let (short, long) = (bytes_at(100), bytes_at(1000));
    let per_execution = long.saturating_sub(short) as f64 / (900 * TASKS) as f64;
    assert!(
        per_execution <= 256.0,
        "{per_execution:.0} B allocated per task execution ({short} B at 100 instances, {long} B \
         at 1 000)"
    );
}
