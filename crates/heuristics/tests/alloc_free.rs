//! Counting-allocator suite: **`repair_in_place` is allocation-free**
//! (the hot-path guarantee the serving layer builds on). A churn round —
//! carry the incumbent's seats over, drop one application's seats,
//! `repair_in_place` — touches only what already exists: the
//! `EvalState`'s per-PE tables, base copy and touched set, all sized at
//! construction, and the caller's partial-assignment scratch. So there
//! is no warm-up: from the very first call on a fresh state, churn
//! rounds must hit the global allocator **zero** times — under the
//! options every `Service` and planner runs, under a round cap, and
//! under a `Stop` that carries a flag and a deadline.
//!
//! Lives in `tests/` (a separate crate) because the library forbids
//! `unsafe`, and wrapping the global allocator needs it.
//!
//! Built only without the `debug_invariants` feature: its audits check
//! the descent against fresh evaluations, which allocate by design, so
//! under the feature there is no allocation-free path to count. CI's
//! counting-allocator step runs this file in a release build without
//! the feature.

#![cfg(not(feature = "debug_invariants"))]

use cellstream_core::{Availability, EvalState, Stop};
use cellstream_graph::{AppInfo, StreamGraph, TaskSpec, Workload};
use cellstream_heuristics::{repair, repair_in_place, LocalSearchOptions};
use cellstream_platform::{CellSpec, PeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// Passes through to [`System`], counting every allocation the **armed
/// thread** makes. Arming and the count are thread-local: the libtest
/// harness keeps service threads of its own alive during the
/// measurement, and they may not pollute the count. Deallocations are free to happen
/// (dropping a buffer is not a hot-path cost); `alloc`, `alloc_zeroed`
/// and growth `realloc`s count.
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

fn pipeline(name: &str, n: usize) -> StreamGraph {
    let mut b = StreamGraph::builder(name);
    let mut prev = None;
    for i in 0..n {
        let t = b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(3e-6).spe_cost(1e-6));
        if let Some(p) = prev {
            b.add_edge(p, t, 2048.0).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

/// One churn round's partial: every task keeps its incumbent seat
/// except application `k`, whose tasks must be re-placed — the shape
/// every admit/retire/reweight replan hands the repair planner.
fn churn(state: &EvalState<'_>, apps: &[AppInfo], partial: &mut [Option<PeId>], k: usize) {
    for (slot, &pe) in partial.iter_mut().zip(state.assignment()) {
        *slot = Some(pe);
    }
    for i in apps[k].tasks.clone() {
        partial[i] = None;
    }
}

/// Churn rounds under `opts` and `stop` on a state nothing has run on
/// yet: the measurement starts at the first `repair_in_place`.
fn assert_repair_never_allocates(opts: &LocalSearchOptions, stop: &Stop) {
    let spec = CellSpec::qs22();
    let mut b = Workload::builder("mix");
    b.push(&pipeline("a", 4), 1.0).unwrap();
    b.push(&pipeline("b", 5), 2.0).unwrap();
    b.push(&pipeline("c", 3), 1.0).unwrap();
    let w = b.build().unwrap();
    let g = w.graph();
    let n_apps = w.apps().len();

    // from-scratch seed, then a long-lived state: the serving loop's
    // steady-state posture
    let mut partial: Vec<Option<PeId>> = vec![None; g.n_tasks()];
    let (seed, _) = repair(g, &spec, &Availability::full(&spec), &partial, opts, stop);
    let mut state = EvalState::new(g, &spec, &seed).expect("seed is structurally valid");

    let allocs = count_allocs(|| {
        for round in 0..3 * n_apps {
            churn(&state, w.apps(), &mut partial, round % n_apps);
            let period = repair_in_place(&mut state, &partial, opts, stop);
            assert!(period.is_finite());
        }
    });
    assert_eq!(allocs, 0, "repair hit the allocator {allocs} times");
    assert!(state.is_feasible(), "churn rounds end feasible");
}

/// What `ServiceOptions::default()` repairs with (64 rounds), then the
/// same descent cut short by a round cap.
#[test]
fn repair_replans_without_allocating() {
    assert_repair_never_allocates(&LocalSearchOptions::default(), &Stop::default());
    assert_repair_never_allocates(
        &LocalSearchOptions { max_rounds: 4, ..LocalSearchOptions::default() },
        &Stop::default(),
    );
}

/// A stop that can fire: the descent polls its flag before every
/// single-task scan and its deadline once a round, neither of which may
/// allocate (the stop itself is built before the measurement).
#[test]
fn repair_under_a_flag_and_a_deadline_allocates_nothing() {
    let stop = Stop::new().within(Duration::from_secs(3600));
    assert_repair_never_allocates(&LocalSearchOptions::default(), &stop);
}
