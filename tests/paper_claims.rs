//! Tests pinning the paper's *qualitative* claims on reduced instances,
//! so the full-size figure examples (`fig6`, `fig7`, `fig8`) are backed
//! by tier-1.

use cellstream::core::{evaluate, Mapping, Stop};
use cellstream::daggen::paper;
use cellstream::graph::ccr::{ccr, rescale_to_ccr, DEFAULT_BW};
use cellstream::heuristics::{greedy_cpu, greedy_mem, search};
use cellstream::platform::{CellSpec, PeId};
use cellstream::sim::{simulate, SimConfig};

/// §6.4.1: the framework reaches steady state and lands near the
/// model-predicted throughput (the paper reports 95%).
#[test]
fn steady_state_near_prediction() {
    let g = paper::at_base_ccr(&paper::graph1());
    let spec = CellSpec::qs22();
    // a good mapping from the extension heuristic stack (fast, no MILP)
    let (m, _) = search::multi_start(
        &g,
        &spec,
        &[greedy_mem(&g, &spec), greedy_cpu(&g, &spec), Mapping::all_on(&g, PeId(0))],
        &search::LocalSearchOptions::default(),
        &Stop::default(),
    );
    let model = evaluate(&g, &spec, &m).unwrap();
    assert!(model.is_feasible());
    let trace = simulate(&g, &spec, &m, &SimConfig::calibrated(), 4000).unwrap();
    let achieved = trace.steady_state_throughput() / model.throughput;
    assert!(
        (0.80..=1.001).contains(&achieved),
        "calibrated sim should land near (below) the prediction, got {achieved:.3}"
    );
}

/// §6.4.2 (Figure 7): a well-optimised mapping beats the paper's greedy
/// heuristics on the measured (simulated) throughput.
#[test]
fn optimised_mapping_beats_paper_greedies() {
    let g = paper::at_base_ccr(&paper::graph1());
    let spec = CellSpec::qs22();
    let cfg = SimConfig::calibrated();
    let measure = |m: &Mapping| -> f64 {
        simulate(&g, &spec, m, &cfg, 3000).unwrap().steady_state_throughput()
    };
    let ppe = measure(&Mapping::all_on(&g, PeId(0)));
    let gm = measure(&greedy_mem(&g, &spec)) / ppe;
    let gc = measure(&greedy_cpu(&g, &spec)) / ppe;
    let (best, _) = search::multi_start(
        &g,
        &spec,
        &[greedy_mem(&g, &spec), greedy_cpu(&g, &spec), Mapping::all_on(&g, PeId(0))],
        &search::LocalSearchOptions::default(),
        &Stop::default(),
    );
    let lp_like = measure(&best) / ppe;
    assert!(
        lp_like > gm.max(gc) + 0.2,
        "optimised {lp_like:.2} must clearly beat greedy ({gm:.2}, {gc:.2})"
    );
    assert!(lp_like >= 1.5, "optimised speed-up should be well above 1, got {lp_like:.2}");
}

/// §6.4.3 (Figure 8): raising the CCR lowers the achievable speed-up.
#[test]
fn speedup_declines_with_ccr() {
    let base = paper::graph3(); // the 50-task chain
    let spec = CellSpec::qs22();
    let mut speedups = Vec::new();
    for target in [0.775, 2.0, 4.6] {
        let g = rescale_to_ccr(&base, target, DEFAULT_BW);
        assert!((ccr(&g).ccr - target).abs() < 1e-6);
        let (m, period) = search::multi_start(
            &g,
            &spec,
            &[greedy_mem(&g, &spec), greedy_cpu(&g, &spec), Mapping::all_on(&g, PeId(0))],
            &search::LocalSearchOptions::default(),
            &Stop::default(),
        );
        let ppe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        let _ = m;
        speedups.push(ppe.period / period);
    }
    assert!(
        speedups[0] > speedups[2] + 0.3,
        "speed-up must decline from CCR 0.775 to 4.6: {speedups:?}"
    );
    assert!(speedups[2] >= 0.999, "PPE-only is always available: {speedups:?}");
}

/// The three frozen paper graphs stay frozen (any change would silently
/// move every figure the paper examples regenerate, the golden tables
/// and the benchmark's `plan_paper` instances).
#[test]
fn paper_workloads_are_pinned() {
    let g1 = paper::graph1();
    let g2 = paper::graph2();
    let g3 = paper::graph3();
    assert_eq!((g1.n_tasks(), g2.n_tasks(), g3.n_tasks()), (50, 94, 50));
    // fingerprint: total PPE work is a stable digest of the cost draws
    let fp = |g: &cellstream::graph::StreamGraph| (g.total_ppe_work() * 1e12).round() as i64;
    let fingerprints = (fp(&g1), fp(&g2), fp(&g3));
    let again = (fp(&paper::graph1()), fp(&paper::graph2()), fp(&paper::graph3()));
    assert_eq!(fingerprints, again);
}
