//! The metric registry: every name the benchmark may print, with its
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` is generated from it (`-- manifest`), and a unit
//! test in `main.rs` keeps the committed file equal to the generator.

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The nine end-to-end metrics, reported by every workload from the
/// untraced run. See `README.md` for the definitions and for how each
/// bound was sized.
pub const END_TO_END: [EndToEnd; 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("wall_over_cpu", "ratio", "lower", 0.10),
    ("period_ratio", "ratio", "lower", 0.05),
    ("accepted_share", "share", "higher", 0.01),
    ("migration_kb_per_op", "KiB", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
];

/// A per-layer metric: `(name, unit, better)`. Layers are crate names
/// plus `harness`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Every per-layer metric of every workload, reported from the traced
/// run. A workload that does not exercise a layer reports its metrics
/// as 0.
pub const PER_LAYER: [PerLayer; 77] = [
    // all workloads
    ("harness.gen_s", "s", "lower"),
    ("harness.fill_s", "s", "lower"),
    ("harness.warmup_s", "s", "lower"),
    ("harness.pass_cv", "ratio", "lower"),
    ("harness.ref_kernel_ms", "ms", "lower"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.raw_wall_over_cpu", "ratio", "lower"),
    // plan_paper
    ("daggen.build_s", "s", "lower"),
    ("heuristics.seed_s", "s", "lower"),
    ("heuristics.search_iters", "count", "lower"),
    ("heuristics.best_ratio", "ratio", "lower"),
    ("core.formulation_s", "s", "lower"),
    ("core.lp_rows", "count", "lower"),
    ("core.lp_nnz", "count", "lower"),
    ("core.evaluate_us", "us", "lower"),
    ("milp.busy_s", "s", "lower"),
    ("milp.nodes", "count", "lower"),
    ("milp.lp_iters", "count", "lower"),
    ("milp.nodes_per_s", "1/s", "higher"),
    ("milp.warm_start_rate", "share", "higher"),
    ("milp.bound_ratio", "ratio", "higher"),
    ("milp.large_solve_s", "s", "lower"),
    ("sim.simulate_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.model_error", "ratio", "lower"),
    // serve_single, serve_burst
    ("serve.call_s", "s", "lower"),
    ("serve.replan_s", "s", "lower"),
    ("serve.overhead_share", "share", "lower"),
    ("serve.admit_p50_us", "us", "lower"),
    ("serve.retire_p50_us", "us", "lower"),
    ("serve.reweight_p50_us", "us", "lower"),
    ("serve.fault_p50_us", "us", "lower"),
    ("serve.batch_p50_ms", "ms", "lower"),
    ("serve.latency_p99_ms", "ms", "lower"),
    ("serve.moves", "count", "lower"),
    ("serve.migration_bytes", "B", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.wasted_replan_share", "share", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.queue_peak", "count", "lower"),
    ("serve.probe_coverage", "ratio", "higher"),
    ("graph.recompose_us", "us", "lower"),
    ("heuristics.carry_over_us", "us", "lower"),
    ("heuristics.repair_us", "us", "lower"),
    ("core.verify_us", "us", "lower"),
    ("telemetry.snapshot_us", "us", "lower"),
    ("telemetry.record_overhead_share", "share", "lower"),
    ("pipeline.events_per_s", "1/s", "higher"),
    ("pipeline.mean_batch", "count", "higher"),
    ("pipeline.submit_blocked_s", "s", "lower"),
    // fleet_churn
    ("cluster.call_s", "s", "lower"),
    ("cluster.admit_p50_us", "us", "lower"),
    ("cluster.retire_p50_us", "us", "lower"),
    ("cluster.reweight_p50_us", "us", "lower"),
    ("cluster.burst_p50_ms", "ms", "lower"),
    ("cluster.fault_p50_ms", "ms", "lower"),
    ("cluster.latency_p99_ms", "ms", "lower"),
    ("cluster.place_us", "us", "lower"),
    ("cluster.agent_share", "share", "higher"),
    ("cluster.node_batches", "count", "lower"),
    ("cluster.migrations", "count", "lower"),
    ("cluster.network_bytes", "B", "lower"),
    ("cluster.rejected", "count", "lower"),
    ("cluster.stranded_peak", "count", "lower"),
    ("cluster.load_imbalance", "ratio", "lower"),
    ("cluster.snapshot_ms", "ms", "lower"),
    // rt_stream
    ("rt.init_s", "s", "lower"),
    ("rt.run_s", "s", "lower"),
    ("rt.instances_per_s", "1/s", "higher"),
    ("rt.single_pe_per_s", "1/s", "higher"),
    ("rt.parallel_efficiency", "ratio", "higher"),
    ("rt.kernel_share", "share", "higher"),
    ("rt.ring_ns_per_op", "ns", "lower"),
    ("rt.bytes_moved", "B", "lower"),
    ("rt.src_sink_p99_us", "us", "lower"),
    ("rt.store_used_kb", "KiB", "lower"),
    ("rt.spin_model_ratio", "ratio", "lower"),
];

/// The five workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "plan_paper",
        "the paper's use case: seed heuristics, node-capped MILP, evaluate and simulate its 50-task graphs at six CCRs; milp and core::formulation do 84% of the work, serving layers none",
    ),
    (
        "serve_single",
        "one event per Service::process call with admission control on: compose, carry-over, repair, verify and report are paid in full on every op; the latency workload",
    ),
    (
        "serve_burst",
        "the same layer in 20-event process_batch bursts: one replan per burst instead of twenty, and that replan's repair is still 96-98% of a call; the batch path of the serving hot path",
    ),
    (
        "fleet_churn",
        "an 8-node Cluster under churn, bursts and a node fail/drain/rebalance cycle: agent-side node replans are 94-99% of the time, place and transport the rest; no MILP",
    ),
    (
        "rt_stream",
        "the only workload where a plan runs: an 8-task chain on rt::run with 2 PE threads on one CPU; ring hand-off, allocation and the progress mutex are the cost, no planner code",
    ),
];

/// Unit of a registered per-layer metric.
pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map(|(_, u, _)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn registry_obeys_the_naming_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for (_, unit, better, bound) in END_TO_END {
            assert!(valid_unit(unit) && matches!(better, "lower" | "higher"));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (_, unit, better) in PER_LAYER {
            assert!(valid_unit(unit) && matches!(better, "lower" | "higher"));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END.iter().any(|m| m == &("setup_s", "s", "lower", 0.25)));
    }
}
