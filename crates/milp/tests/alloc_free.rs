//! Counting-allocator suite: **the simplex pivot loop is
//! allocation-free** between two refactorizations. A solve pays for its
//! workspace and its answer; a pivot pays nothing — the entering
//! column, the pivot row and the ratio tests work in buffers sized at
//! set-up, and the eta append writes into the file's current segment
//! (8 192 entries; a file takes a new one from the allocator only when
//! that is full, and the windows of the two LPs below — 64 columns of
//! under a hundred entries — never fill the first). So a root solve cut
//! off after 40 pivots and the same solve cut off after 60 — both
//! inside the first 64-eta window, no refactorization between them —
//! must hit the global allocator the **same number of times**.
//!
//! Lives in `tests/` (a separate crate) because the library forbids
//! `unsafe`, and wrapping the global allocator needs it.

use cellstream_milp::{Cmp, LpOptions, LpStatus, Model, SparseLp, VarKind};
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

/// Uniform draws in `[0, 1)` from a fixed linear congruential stream:
/// the two LPs below are the same on every run.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Min-makespan assignment, relaxed: 90 tasks on 4 machines, one
/// equality per task and one load row per machine — 94 rows, so the
/// eta window is the full 64, and phase 1 alone needs more pivots than
/// that to seat every task.
fn assignment_lp() -> Model {
    let mut stream = 0x5EED_2010u64;
    let mut m = Model::new("assignment");
    let t = m.add_var("T", 0.0, f64::INFINITY, 1.0, VarKind::Continuous);
    let mut loads: Vec<Vec<_>> = vec![vec![(t, -1.0)]; 4];
    for k in 0..90 {
        let mut row = Vec::new();
        for (i, load) in loads.iter_mut().enumerate() {
            let a = m.add_var(format!("a{k}_{i}"), 0.0, 1.0, 0.0, VarKind::Continuous);
            row.push((a, 1.0));
            load.push((a, 1.0 + 9.0 * uniform(&mut stream)));
        }
        m.add_con(row, Cmp::Eq, 1.0);
    }
    for load in loads {
        m.add_con(load, Cmp::Le, 0.0);
    }
    m
}

/// A packing LP whose slack basis is feasible: 80 knapsack rows over
/// 160 boxed columns, every column worth taking — all of its pivots are
/// phase-2 pivots (pivot row, Devex update, Harris ratio test).
fn packing_lp() -> Model {
    let mut stream = 0xCE11u64;
    let mut m = Model::new("packing");
    let vars: Vec<_> = (0..160)
        .map(|j| {
            let worth = 1.0 + uniform(&mut stream);
            m.add_var(format!("x{j}"), 0.0, 1.0, -worth, VarKind::Continuous)
        })
        .collect();
    for _ in 0..80 {
        let mut row = Vec::new();
        for &v in &vars {
            if uniform(&mut stream) < 0.12 {
                row.push((v, 1.0 + 4.0 * uniform(&mut stream)));
            }
        }
        m.add_con(row, Cmp::Le, 6.0);
    }
    m
}

/// Allocations of one root solve stopped after `pivots` iterations.
fn allocs_of_a_capped_solve(lp: &SparseLp, pivots: u64) -> u64 {
    let opts = LpOptions { max_iterations: pivots, ..LpOptions::default() };
    let mut outcome = None;
    let allocs = count_allocs(|| outcome = Some(lp.solve_primal(&opts)));
    let sol = outcome.expect("the closure ran").expect("valid model");
    assert_eq!(
        (sol.status, sol.iterations),
        (LpStatus::IterLimit, pivots),
        "the cap must be what stops the solve"
    );
    allocs
}

#[test]
fn pivots_inside_one_eta_window_never_allocate() {
    for model in [assignment_lp(), packing_lp()] {
        let lp = SparseLp::from_model(&model).expect("valid model");
        assert!(lp.n_rows() >= 64, "{}: the eta window must be the full 64", model.name());
        let at_40 = allocs_of_a_capped_solve(&lp, 40);
        let at_60 = allocs_of_a_capped_solve(&lp, 60);
        assert_eq!(
            at_40,
            at_60,
            "{}: twenty more pivots cost {} more allocations",
            model.name(),
            at_60 as i64 - at_40 as i64
        );
    }
}
