//! Counting-allocator suite: **a steady-state simulation event
//! allocates nothing**. A run pays for its set-up (flow table, buffer
//! plan, sink-time vectors reserved for every instance) and its answer;
//! an event pays nothing — finished flows hand their ids to the next
//! transfer, and the streaming set, the max-min workspace and the
//! drained list are buffers of the run. So simulating paper graph 1 for
//! 400 instances event by event (`engine::simulate_full`) must hit the
//! global allocator the **same number of times** as simulating it for
//! 200: twice the events, no more allocations.
//!
//! `simulate` jumps over the periodic steady state once its signature
//! repeats, so 400 instances cost it few more events than 200. Its
//! signatures reuse two buffers, so a run that jumps also allocates the
//! same at 200 and at 400 instances.
//!
//! Lives in `tests/` (a separate crate) because the library forbids
//! `unsafe`, and wrapping the global allocator needs it.

use cellstream_core::Mapping;
use cellstream_daggen::paper;
use cellstream_graph::StreamGraph;
use cellstream_platform::CellSpec;
use cellstream_sim::engine::simulate_full;
use cellstream_sim::{simulate, RunTrace, SimConfig, SimError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes through to [`System`], counting every allocation the **armed
/// thread** makes (the libtest harness keeps threads of its own alive
/// during the measurement). Deallocations are free to happen; `alloc`,
/// `alloc_zeroed` and `realloc` count.
struct CountingAlloc;

thread_local! {
    // const-init Cells: no lazy initialisation and no destructor, so
    // touching them inside the allocator never allocates or re-enters
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the closure performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

/// `simulate`, or the event-by-event run behind it.
type Simulate =
    fn(&StreamGraph, &CellSpec, &Mapping, &SimConfig, u64) -> Result<RunTrace, SimError>;

#[test]
fn steady_state_events_never_allocate() {
    let g = paper::graph1();
    let spec = CellSpec::qs22();
    // the topological order cut into one block per PE: every PE busy,
    // every block boundary a DMA transfer
    let mut assignment = vec![spec.pe(0); g.n_tasks()];
    for (rank, t) in g.topo_order().iter().enumerate() {
        assignment[t.index()] = spec.pe(rank * spec.n_pes() / g.n_tasks());
    }
    let mapping = Mapping::new(&g, &spec, assignment).expect("a structurally valid mapping");
    let config = SimConfig::calibrated();
    let run = |sim: Simulate, instances: u64| {
        let mut trace: Option<RunTrace> = None;
        let allocs = count_allocs(|| {
            trace = Some(
                sim(&g, &spec, &mapping, &config, instances).expect("a block mapping simulates"),
            );
        });
        (allocs, trace.expect("the run returned"))
    };
    // every event simulated: twice the events, the same allocations
    let (at_200, full_200) = run(simulate_full, 200);
    let (at_400, full_400) = run(simulate_full, 400);
    let (events_200, events_400) = (full_200.events, full_400.events);
    assert!(events_400 > events_200 * 3 / 2, "{events_200} -> {events_400} events");
    assert_eq!(
        at_200,
        at_400,
        "{} more events cost {} more allocations",
        events_400 - events_200,
        at_400 as i64 - at_200 as i64
    );
    // the jump: its signatures allocate nothing that grows with the run
    let (jumped_200, short) = run(simulate, 200);
    let (jumped_400, long) = run(simulate, 400);
    assert!(short.cycle.is_some() && long.cycle.is_some(), "no cycle found");
    assert!(long.events < events_400, "400 instances did not jump");
    assert_eq!(
        jumped_200,
        jumped_400,
        "a longer jump cost {} more allocations",
        jumped_400 as i64 - jumped_200 as i64
    );
}
