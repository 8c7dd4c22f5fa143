//! Cross-heuristic properties.

use crate::{comm_aware_greedy, greedy_cpu, greedy_mem, local_search, LocalSearchOptions};
use cellstream_core::{evaluate, Mapping, Stop};
use cellstream_daggen::{generate, CostParams, DagGenParams};
use cellstream_platform::{CellSpec, PeId};
use proptest::prelude::*;

fn any_graph(seed: u64, n: usize) -> cellstream_graph::StreamGraph {
    generate(
        "h",
        &DagGenParams {
            n,
            fat: 0.6,
            regular: 0.5,
            density: 0.4,
            jump: 2,
            costs: CostParams::default(),
        },
        seed,
    )
    .unwrap()
}

#[test]
fn paper_scale_graph2_refines_with_swaps_in_tier1() {
    // The incremental engine's headline unlock: a descent over the full
    // O(K²) swap neighbourhood on the paper's 94-task graph 2 and a
    // QS22, fast enough for the tier-1 suite.
    let g = cellstream_daggen::paper::graph2();
    let spec = CellSpec::qs22();
    let start = greedy_cpu(&g, &spec);
    let start_p = evaluate(&g, &spec, &start).unwrap().period;
    let (m, p) = local_search(&g, &spec, &start, &LocalSearchOptions::default(), &Stop::default());
    assert!(p <= start_p + 1e-15, "search never worsens: {p} vs {start_p}");
    let r = evaluate(&g, &spec, &m).unwrap();
    assert!(r.is_feasible());
    assert_eq!(r.period, p, "published period is the verifier's");
}

#[test]
fn all_heuristics_produce_valid_mappings() {
    let g = any_graph(1, 25);
    let spec = CellSpec::qs22();
    for m in [greedy_mem(&g, &spec), greedy_cpu(&g, &spec), comm_aware_greedy(&g, &spec)] {
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.period > 0.0);
        // memory constraint respected by construction in all three
        assert!(
            !r.violations
                .iter()
                .any(|v| matches!(v, cellstream_core::Violation::LocalStore { .. })),
            "{:?}",
            r.violations
        );
    }
}

#[test]
fn milp_dominates_heuristics_on_small_instances() {
    // The central claim of Figure 7, in miniature: the MILP mapping is at
    // least as good as every heuristic.
    let g = any_graph(3, 8);
    let spec = CellSpec::with_spes(3);
    let opts = cellstream_core::SolveOptions {
        mip: cellstream_milp::bb::MipOptions { rel_gap: 0.0, abs_gap: 1e-9, ..Default::default() },
        ..Default::default()
    };
    let milp = cellstream_core::solve(&g, &spec, &opts).unwrap();
    for (name, m) in [
        ("greedy_mem", greedy_mem(&g, &spec)),
        ("greedy_cpu", greedy_cpu(&g, &spec)),
        ("comm_aware", comm_aware_greedy(&g, &spec)),
    ] {
        let r = evaluate(&g, &spec, &m).unwrap();
        if r.is_feasible() {
            assert!(
                milp.period <= r.period + 1e-12,
                "{name}: milp {} vs heuristic {}",
                milp.period,
                r.period
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_heuristics_valid_on_random_graphs(seed in 0u64..500, n in 5usize..40) {
        let g = any_graph(seed, n);
        for spes in [0usize, 2, 6, 8] {
            let spec = CellSpec::with_spes(spes);
            for m in [greedy_mem(&g, &spec), greedy_cpu(&g, &spec), comm_aware_greedy(&g, &spec)] {
                let r = evaluate(&g, &spec, &m).unwrap();
                prop_assert!(r.period.is_finite() && r.period > 0.0);
                let mem_violated = r.violations.iter().any(
                    |v| matches!(v, cellstream_core::Violation::LocalStore { .. }));
                prop_assert!(!mem_violated);
            }
        }
    }

    #[test]
    fn prop_local_search_monotone(seed in 0u64..200) {
        let g = any_graph(seed, 12);
        let spec = CellSpec::ps3();
        for start in [greedy_mem(&g, &spec), greedy_cpu(&g, &spec), Mapping::all_on(&g, PeId(0))] {
            let before = evaluate(&g, &spec, &start).unwrap();
            let (after_m, after_p) = local_search(&g, &spec, &start, &LocalSearchOptions::default(), &Stop::default());
            let after = evaluate(&g, &spec, &after_m).unwrap();
            prop_assert!((after.period - after_p).abs() < 1e-12);
            if before.is_feasible() {
                prop_assert!(after_p <= before.period + 1e-15);
                prop_assert!(after.is_feasible());
            }
        }
    }
}
