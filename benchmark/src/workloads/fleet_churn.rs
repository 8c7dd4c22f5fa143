//! `fleet_churn` — op = one event against an 8-node `Cluster` of
//! `qs22`s with the `load_affinity` placer.
//!
//! 64 residents; the seeded churn trace (see [`crate::gen`]) is cut
//! into blocks of 48 events: 32 go one at a time through
//! `admit`/`retire`/`reweight` (and the PE-fault calls), 16 go as one
//! `process_burst`. Around fixed blocks a seeded node fails and
//! returns, another is drained and undrained, and the fleet is
//! rebalanced — each of those is an op too.
//!
//! Place → transport → agent is most of the time here. Every node
//! replan is small (8 residents), so the workload bypasses the
//! single-node hot-path gains, and the MILP entirely.

use crate::bound::{t_lb, Books};
use crate::clock::CpuInstant;
use crate::gen::{self, ChurnShape, Rng};
use crate::harness::{Layers, Pass, Workload};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::serve::service_options;
use cellstream::cluster::{
    AppDemand, Cluster, ClusterOptions, ClusterReport, ClusterVerdict, LoadAffinity, NodeId,
    PlacePolicy,
};
use cellstream::core::evaluate_with;
use cellstream::platform::CellSpec;
use cellstream::serve::Service;
use cellstream::sim::online::{EventTrace, TraceEvent};
use cellstream::telemetry::SnapValue;
use std::collections::BTreeSet;
use std::time::Duration;

const NODES: usize = 8;
const RESIDENT: usize = 64;
/// Events per block: the first `SEQUENTIAL` one at a time, the rest as
/// one burst.
const BLOCK: usize = 48;
const SEQUENTIAL: usize = 32;
/// Blocks per pass (~2 s of wall time at this commit's 0.75 ms of CPU
/// time per op).
const BLOCKS: usize = 40;
/// `period / T_lb` is sampled after every this many sequential ops.
const SAMPLE_EVERY: usize = 16;

/// A fleet-only operation of the per-pass cycle.
#[derive(Debug, Clone, Copy)]
enum NodeOp {
    Fail(NodeId),
    Restore(NodeId),
    Drain(NodeId),
    Undrain(NodeId),
    Rebalance,
}

pub struct Input {
    spec: CellSpec,
    fill: Vec<TraceEvent>,
    trace: EventTrace,
    /// `(block index, operation)`: run before the block's events.
    cycle: Vec<(usize, NodeOp)>,
}

pub struct State {
    fleet: Cluster,
    books: Books,
    /// Applications the fleet accepted and has not retired: each must
    /// be placed or stranded, never lost.
    expected: BTreeSet<String>,
}

pub struct FleetChurn;

/// `true` when a verdict means the operation took effect.
fn took_effect(v: &ClusterVerdict) -> bool {
    !matches!(v, ClusterVerdict::Rejected(_))
}

/// Replan nanoseconds one serving loop has recorded so far, from its
/// telemetry snapshot.
fn replan_ns(svc: &Service) -> u64 {
    svc.telemetry_snapshot()
        .samples
        .iter()
        .filter(|s| s.name == "cellstream_serve_replan_ns")
        .map(|s| match &s.value {
            SnapValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum()
}

/// Agent-side replan nanoseconds so far, summed over the fleet.
fn agent_replan_ns(fleet: &Cluster) -> u64 {
    fleet.agents().iter().map(|a| replan_ns(a.service())).sum()
}

/// Fold a coordinator report into the pass.
fn absorb(report: &ClusterReport, pass: &mut Pass) {
    let network = report.network_bytes();
    pass.moved_bytes += report.local_migration_bytes + network;
    pass.count("cluster.network_bytes", network);
    pass.count("cluster.migrations", report.migrations.len() as f64);
    if matches!(report.verdict, ClusterVerdict::Rejected(_)) {
        pass.count("cluster.rejected", 1.0);
    }
}

impl State {
    /// Keep the books after one event's verdict.
    fn account(&mut self, ev: &TraceEvent, applied: bool) {
        self.books.record(ev, applied);
        match ev {
            TraceEvent::Admit { graph, .. } if applied => {
                self.expected.insert(graph.name().to_owned());
            }
            TraceEvent::Retire { app } if applied => {
                self.expected.remove(app);
            }
            _ => {}
        }
    }

    /// Sample `period / T_lb` — the geometric mean over the busy live
    /// nodes of each node's period over the bound of *its* residents on
    /// *its* live PEs — the stranded ledger and the load imbalance.
    /// Membership and the availability mask are read from the fleet;
    /// every cost comes from the benchmark's own books. (The fleet-wide
    /// maximum period over a fleet-wide bound is one unlucky node away
    /// from any value: between seeds it spread by 18 %.)
    fn sample(&self, input: &Input, pass: &mut Pass) {
        let status = self.fleet.status();
        pass.peak("cluster.stranded_peak", status.stranded.len() as f64);
        let mut ratios = Vec::new();
        for (node, agent) in status.nodes.iter().zip(self.fleet.agents()) {
            if status.dead.contains(&node.node) || !node.period.is_finite() {
                continue;
            }
            let live = input.spec.n_pes() - agent.service().availability().n_dead();
            let apps = node.apps.iter().map(|(name, _)| self.books.work(name));
            ratios.push(node.period / t_lb(apps, live));
        }
        if ratios.is_empty() {
            return;
        }
        pass.ratios.push(stats::geomean(&ratios));
        let busy: Vec<f64> =
            status.nodes.iter().map(|n| n.period).filter(|p| p.is_finite()).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        pass.count("cluster.load_imbalance_sum", self.fleet.max_period() / mean);
    }
}

impl Workload for FleetChurn {
    type Input = Input;
    type State = State;
    const NAME: &'static str = "fleet_churn";
    const MIN_PASSES: usize = 6;

    fn generate(seed: u64) -> Input {
        let shape = ChurnShape {
            resident: RESIDENT,
            ops: BLOCK * BLOCKS,
            fault_every: 50,
            nodes: NODES,
            n_spe: 8,
        };
        let (fill, trace) = gen::churn_trace(seed, &shape);
        let trace = gen::round_trip(&trace);
        let mut rng = Rng::new(seed, 4);
        let failed = NodeId(rng.index(NODES));
        let drained = NodeId((failed.index() + 1 + rng.index(NODES - 1)) % NODES);
        let at = |tenths: usize| BLOCKS * tenths / 10;
        let cycle = vec![
            (at(2), NodeOp::Fail(failed)),
            (at(4), NodeOp::Restore(failed)),
            (at(6), NodeOp::Drain(drained)),
            (at(7), NodeOp::Undrain(drained)),
            (at(8), NodeOp::Rebalance),
        ];
        Input { spec: CellSpec::qs22(), fill, trace, cycle }
    }

    fn fill(input: &Input) -> State {
        let options = ClusterOptions { service: service_options(false), ..Default::default() };
        let fleet = Cluster::homogeneous(NODES, &input.spec, options);
        let mut state = State { fleet, books: Books::default(), expected: BTreeSet::new() };
        for ev in &input.fill {
            let TraceEvent::Admit { graph, weight } = ev else { unreachable!("fills only admit") };
            let report = state.fleet.admit(graph, *weight);
            assert!(report.applied(), "an empty 8-node fleet admits 64 apps: {:?}", report.verdict);
            state.account(ev, true);
        }
        state
    }

    fn run(input: &Input, state: &mut State, pass: &mut Pass, tr: &mut Tracer) {
        let agent_ns_before = if tr.enabled() { agent_replan_ns(&state.fleet) } else { 0 };
        // what a failing node had recorded: the crash wipes its serving
        // loop, histogram included
        let mut agent_ns_wiped = 0;
        let mut op = 0u32;
        for (b, block) in input.trace.events().chunks(BLOCK).enumerate() {
            // ---- the fleet-only cycle ---------------------------------------
            for (_, node_op) in input.cycle.iter().filter(|(at, _)| *at == b) {
                if let (true, NodeOp::Fail(n)) = (tr.enabled(), *node_op) {
                    agent_ns_wiped += replan_ns(state.fleet.agents()[n.index()].service());
                }
                let started = CpuInstant::now();
                let span = tr.begin("cluster.node_op", op);
                let fleet = &mut state.fleet;
                let outcome = match *node_op {
                    NodeOp::Fail(n) => fleet.node_failed(n).map(Some),
                    NodeOp::Restore(n) => fleet.node_restored(n).map(Some),
                    NodeOp::Drain(n) => fleet.drain(n).map(Some),
                    NodeOp::Undrain(n) => fleet.undrain(n).map(|()| None),
                    NodeOp::Rebalance => Ok(Some(fleet.rebalance())),
                };
                tr.end(span);
                // a drain or rebalance that found nothing worth moving
                // still did its job
                pass.op("fault", started.lap(), outcome.is_ok());
                if let Ok(Some(r)) = &outcome {
                    absorb(r, pass);
                }
                op += 1;
            }

            // ---- 32 events, one coordinator call each -----------------------
            let (sequential, burst) = block.split_at(SEQUENTIAL.min(block.len()));
            for (k, timed) in sequential.iter().enumerate() {
                let ev = &timed.event;
                if tr.enabled() && k == 0 {
                    if let TraceEvent::Admit { graph, weight } = ev {
                        let nodes = state.fleet.status().nodes;
                        let demand = AppDemand::of(graph, *weight);
                        let t = CpuInstant::now();
                        let ranked = tr.span("cluster.place", op, || {
                            LoadAffinity::default().rank(&nodes, &demand)
                        });
                        pass.time("cluster.place_s", t.elapsed());
                        pass.tally("cluster.place_n", 1.0);
                        std::hint::black_box(ranked);
                    }
                }
                let started = CpuInstant::now();
                let span = tr.begin("cluster.process", op);
                let fleet = &mut state.fleet;
                let report = match ev {
                    TraceEvent::Admit { graph, weight } => Some(fleet.admit(graph, *weight)),
                    TraceEvent::Retire { app } => fleet.retire(app).ok(),
                    TraceEvent::Reweight { app, weight } => fleet.reweight(app, *weight).ok(),
                    TraceEvent::PeFailed { node, pe } => fleet.pe_failed(NodeId(*node), *pe).ok(),
                    TraceEvent::PeRestored { node, pe } => {
                        fleet.pe_restored(NodeId(*node), *pe).ok()
                    }
                    TraceEvent::CostDrift { app, factor } => fleet.cost_drift(app, *factor).ok(),
                    TraceEvent::NodeFailed { .. } | TraceEvent::NodeRestored { .. } => None,
                };
                tr.end(span);
                let lap = started.lap();
                let applied = report.as_ref().is_some_and(|r| took_effect(&r.verdict));
                let kind = match ev {
                    TraceEvent::Admit { .. } => "admit",
                    TraceEvent::Retire { .. } => "retire",
                    TraceEvent::Reweight { .. } => "reweight",
                    _ => "fault",
                };
                pass.op(kind, lap, applied);
                match &report {
                    Some(r) => absorb(r, pass),
                    None => pass.count("cluster.unknown", 1.0),
                }
                state.account(ev, applied);
                op += 1;
                if (k + 1) % SAMPLE_EVERY == 0 {
                    state.sample(input, pass);
                }
            }

            // ---- 16 events as one burst --------------------------------------
            if burst.is_empty() {
                continue;
            }
            let events: Vec<TraceEvent> = burst.iter().map(|t| t.event.clone()).collect();
            let started = CpuInstant::now();
            let report =
                tr.span("cluster.process_burst", op, || state.fleet.process_burst(&events));
            let lap = started.lap();
            pass.moved_bytes += report.local_migration_bytes;
            pass.count("cluster.node_batches", report.batches as f64);
            let mut accepted = 0;
            for (ev, (_, verdict)) in events.iter().zip(&report.events) {
                let applied = took_effect(verdict);
                accepted += u64::from(applied);
                if !applied {
                    pass.count("cluster.rejected", 1.0);
                }
                state.account(ev, applied);
                op += 1;
            }
            pass.call("burst", lap, events.len() as u64, accepted);
            state.sample(input, pass);
        }
        if tr.enabled() {
            let ns = agent_replan_ns(&state.fleet) + agent_ns_wiped - agent_ns_before;
            pass.time("cluster.agent_s", Duration::from_nanos(ns));
            let t = CpuInstant::now();
            std::hint::black_box(tr.span("cluster.snapshot", op, || state.fleet.snapshot()));
            pass.time("cluster.snapshot_s", t.elapsed());
        }
    }

    fn verify(input: &Input, state: &State, pass: &mut Pass) -> Result<(), String> {
        let fleet = &state.fleet;
        for agent in fleet.agents() {
            let svc = agent.service();
            if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
                let report = evaluate_with(w.graph(), svc.spec(), svc.availability(), m)
                    .map_err(|e| format!("{}: invalid incumbent: {e}", agent.node()))?;
                if !report.is_feasible() {
                    return Err(format!("{} violates §3.2: {:?}", agent.node(), report.violations));
                }
                for app in w.apps() {
                    let weight = state.books.weight(&app.name);
                    if weight.to_bits() != app.weight.to_bits() {
                        return Err(format!(
                            "{}: weight {} vs books {weight}",
                            app.name, app.weight
                        ));
                    }
                }
            }
        }
        let snap = fleet.snapshot();
        let gauge = |name: &str| snap.gauge(name).ok_or(format!("snapshot lacks {name}"));
        let placed = gauge("cellstream_cluster_placed")?;
        let stranded = gauge("cellstream_cluster_stranded")?;
        let tracked = gauge("cellstream_cluster_tracked")?;
        let node_apps = snap.sum_gauge("cellstream_cluster_node_apps");
        let serving = snap.sum_gauge("cellstream_serve_serving");
        if placed != node_apps || placed != serving || tracked != placed + stranded {
            return Err(format!(
                "conservation broken: placed {placed} node_apps {node_apps} serving {serving} \
                 stranded {stranded} tracked {tracked}"
            ));
        }
        if tracked != state.expected.len() as f64 {
            return Err(format!(
                "{} applications accepted and not retired, fleet tracks {tracked}",
                state.expected.len()
            ));
        }
        let _ = input;
        pass.count("cluster.final_placed", placed);
        pass.count("cluster.final_stranded", stranded);
        Ok(())
    }

    fn layers(_: &Input, traced: &[&Pass], _: &mut Tracer, out: &mut Layers) {
        let first = traced[0];
        let med = |f: &dyn Fn(&Pass) -> f64| {
            stats::median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        let secs = |key: &'static str| med(&|p| p.nominal_s(key));
        let count = |key: &str| first.counts.get(key).copied().unwrap_or(0.0);
        let call_s = med(&|p| p.total_s());
        out.set("cluster.call_s", call_s);
        out.set("cluster.admit_p50_us", med(&|p| p.kind_p50_ns("admit")) / 1e3);
        out.set("cluster.retire_p50_us", med(&|p| p.kind_p50_ns("retire")) / 1e3);
        out.set("cluster.reweight_p50_us", med(&|p| p.kind_p50_ns("reweight")) / 1e3);
        out.set("cluster.burst_p50_ms", med(&|p| p.kind_p50_ns("burst")) / 1e6);
        out.set("cluster.fault_p50_ms", med(&|p| p.kind_p50_ns("fault")) / 1e6);
        out.set("cluster.latency_p99_ms", med(&|p| p.latency_ms(99.0)));
        let place_us = |p: &Pass| p.nominal_s("cluster.place_s") / p.secs["cluster.place_n"] * 1e6;
        out.set("cluster.place_us", med(&place_us));
        // the agents time their replans on the wall clock: compare them
        // with the calls' wall time, which saw the same host
        out.set("cluster.agent_share", med(&|p| p.secs["cluster.agent_s"] / p.calls_wall_s()));
        out.set("cluster.node_batches", count("cluster.node_batches"));
        out.set("cluster.migrations", count("cluster.migrations"));
        out.set("cluster.network_bytes", count("cluster.network_bytes"));
        out.set("cluster.rejected", count("cluster.rejected"));
        out.set("cluster.stranded_peak", count("cluster.stranded_peak"));
        out.set(
            "cluster.load_imbalance",
            count("cluster.load_imbalance_sum") / first.ratios.len() as f64,
        );
        out.set("cluster.snapshot_ms", secs("cluster.snapshot_s") * 1e3);
    }
}
