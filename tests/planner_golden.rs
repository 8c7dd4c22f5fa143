//! Golden planner periods: what `golden_digest.rs` is to serving, for
//! the offline planners. `MultiStartScheduler::default()` and the
//! registry's `local_search` on the paper's three graphs at the six §6.2
//! CCRs on a QS22, each period pinned by `f64::to_bits`. Both are
//! deterministic, so a changed bit is a changed *descent* — a behaviour
//! change in `heuristics::search` or the greedies that seed it, never
//! noise. Re-record the table (the test prints it with `-- --nocapture`)
//! only when a change is meant to move the planners, and put the old and
//! new columns side by side in CHANGES.md.

use cellstream::core::scheduler::{PlanContext, Scheduler};
use cellstream::daggen::paper;
use cellstream::heuristics::{scheduler_by_name, MultiStartScheduler};
use cellstream::platform::CellSpec;

/// `(multi_start, local_search)` period bits, graph-major: graph 1 at
/// CCR 0.775 … 4.6, then graph 2, then graph 3.
const GOLDEN: [(u64, u64); 18] = [
    (0x3ece6af439f1f5e3, 0x3ecfda3d3e56366e), // graph 1 @ 0.775: 3.6261 / 3.7971 us
    (0x3ee1e7fa7c3239f3, 0x3ee2a9b37b2ca2d2), // graph 1 @ 1.540: 8.5383 / 8.8992 us
    (0x3ee85de0ef9e1708, 0x3ee85de0ef9e1708), // graph 1 @ 2.305: 11.6190 / 11.6190 us
    (0x3ef2180c4264da39, 0x3ef25fa314f02ace), // graph 1 @ 3.070: 17.2557 / 17.5224 us
    (0x3ef639e2ccf28f41, 0x3ef639e2ccf28f41), // graph 1 @ 3.835: 21.1965 / 21.1965 us
    (0x3efaa8e551f3375a, 0x3efaa8e551f3375a), // graph 1 @ 4.600: 25.4247 / 25.4247 us
    (0x3ef3dd372a2cab3b, 0x3ef4133d6cd8a360), // graph 2 @ 0.775: 18.9439 / 19.1452 us
    (0x3efb9d61a034b437, 0x3efc2cf778e7770b), // graph 2 @ 1.540: 26.3355 / 26.8704 us
    (0x3efff3d0863cd1d2, 0x3f00210ee9d584e0), // graph 2 @ 2.305: 30.4722 / 30.7639 us
    (0x3f00fffefe7bbcb9, 0x3f00fffefe7bbcb9), // graph 2 @ 3.070: 32.4249 / 32.4249 us
    (0x3f0255d4e37be1a7, 0x3f0255d4e37be1a7), // graph 2 @ 3.835: 34.9718 / 34.9718 us
    (0x3f033418c98712f1, 0x3f033418c98712f1), // graph 2 @ 4.600: 36.6278 / 36.6278 us
    (0x3ec43fe2f9d252e0, 0x3ec5ea5cc7f1166d), // graph 3 @ 0.775: 2.4139 / 2.6125 us
    (0x3edbd260a5147605, 0x3edbd260a5147605), // graph 3 @ 1.540: 6.6332 / 6.6332 us
    (0x3ee3fc7a00b04a3d, 0x3ee4325fbbc29dfe), // graph 3 @ 2.305: 9.5302 / 9.6306 us
    (0x3ee70da3d0da4bc1, 0x3ee7367a59ac0ee1), // graph 3 @ 3.070: 10.9927 / 11.0687 us
    (0x3ee92459fbbbebd6, 0x3ee92459fbbbebd6), // graph 3 @ 3.835: 11.9886 / 11.9886 us
    (0x3eec30a4e8c1ea3f, 0x3eec8af71cd965da), // graph 3 @ 4.600: 13.4420 / 13.6103 us
];

#[test]
fn the_planners_reach_the_recorded_periods() {
    let spec = CellSpec::qs22();
    let ctx = PlanContext::default();
    let local_search = scheduler_by_name("local_search").expect("registered scheduler");
    let mut rows = Vec::new();
    for (i, base) in paper::all_graphs().iter().enumerate() {
        for (ccr, g) in paper::ccr_variants(base) {
            let multi = MultiStartScheduler::default().plan(&g, &spec, &ctx).unwrap().period();
            let single = local_search.plan(&g, &spec, &ctx).unwrap().period();
            println!(
                "    ({:#018x}, {:#018x}), // graph {} @ {ccr:.3}: {:.4} / {:.4} us",
                multi.to_bits(),
                single.to_bits(),
                i + 1,
                multi * 1e6,
                single * 1e6
            );
            rows.push((format!("graph {} @ CCR {ccr:.3}", i + 1), multi, single));
        }
    }
    assert_eq!(rows.len(), GOLDEN.len());
    for ((name, multi, single), (golden_multi, golden_single)) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            multi.to_bits(),
            golden_multi,
            "{name}: multi_start reached {multi:e}, recorded {:e}",
            f64::from_bits(golden_multi)
        );
        assert_eq!(
            single.to_bits(),
            golden_single,
            "{name}: local_search reached {single:e}, recorded {:e}",
            f64::from_bits(golden_single)
        );
    }
}
