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
    (0x3ed01e4370039072, 0x3ed01e7df7be9a76), // graph 1 @ 0.775: 3.8429 / 3.8431 us
    (0x3ee25c752c769cc4, 0x3ee260caa259cc6c), // graph 1 @ 1.540: 8.7553 / 8.7634 us
    (0x3ee8aa1b03515bb3, 0x3ee8aa1b03515bb3), // graph 1 @ 2.305: 11.7609 / 11.7609 us
    (0x3ef1cae047f1e72a, 0x3ef1cae047f1e72a), // graph 1 @ 3.070: 16.9682 / 16.9682 us
    (0x3ef639e2ccf28f41, 0x3ef639e2ccf28f42), // graph 1 @ 3.835: 21.1965 / 21.1965 us
    (0x3efaa8e551f3375a, 0x3efaa8e551f3375a), // graph 1 @ 4.600: 25.4247 / 25.4247 us
    (0x3ef3d65c11e0449e, 0x3ef3d65c11e0449e), // graph 2 @ 0.775: 18.9184 / 18.9184 us
    (0x3efb927a5741d243, 0x3efbf816736f4be9), // graph 2 @ 1.540: 26.2949 / 26.6734 us
    (0x3eff8cda011cf6c9, 0x3eff8cda011cf6c9), // graph 2 @ 2.305: 30.0886 / 30.0886 us
    (0x3f00fffefe7bbcb9, 0x3f00fffefe7bbcb9), // graph 2 @ 3.070: 32.4249 / 32.4249 us
    (0x3f0255d4e37be1a7, 0x3f0255d4e37be1a7), // graph 2 @ 3.835: 34.9718 / 34.9718 us
    (0x3f033418c98712f1, 0x3f033418c98712f1), // graph 2 @ 4.600: 36.6278 / 36.6278 us
    (0x3ec43fe2f9d252e0, 0x3ec43fe2f9d252e0), // graph 3 @ 0.775: 2.4139 / 2.4139 us
    (0x3edb9ed3906b78a8, 0x3edbd260a5147605), // graph 3 @ 1.540: 6.5852 / 6.6332 us
    (0x3ee3a227cc98cea2, 0x3ee3f24e7cd8debc), // graph 3 @ 2.305: 9.3619 / 9.5112 us
    (0x3ee734764210770a, 0x3ee734764210770a), // graph 3 @ 3.070: 11.0650 / 11.0650 us
    (0x3ee92459fbbbebd6, 0x3ee92459fbbbebd6), // graph 3 @ 3.835: 11.9886 / 11.9886 us
    (0x3eec30a4e8c1ea3f, 0x3eec30a4e8c1ea3f), // graph 3 @ 4.600: 13.4420 / 13.4420 us
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
