//! `Cluster::process` is a burst of one — exactly. Twin fleets take
//! the same operations, one through `process`, the other through
//! `process_burst(&[op])`, and must agree on everything a caller can
//! observe: verdicts, the routing table, the node summaries, the
//! stranded ledger, the byte and period bits, the metric cells and the
//! flight log. The two bugs the single path used to be free of and the
//! burst path was not — bursts invisible to the metrics, a malformed
//! reweight poisoning the stranded ledger — are pinned here too.

use cellstream_cluster::{
    AppDemand, Cluster, ClusterError, ClusterOptions, ClusterVerdict, NodeId, NodeSummary,
    PlacePolicy,
};
use cellstream_daggen::{chain, CostParams};
use cellstream_graph::{StreamGraph, TaskSpec};
use cellstream_platform::{ByteSize, CellSpec, CellSpecBuilder, PeId};
use cellstream_serve::ServiceOptions;
use cellstream_sim::online::TraceEvent;

fn app(name: &str, n: usize, seed: u64) -> StreamGraph {
    chain(name, n, &CostParams::default(), seed)
}

/// Cheap on the SPE, expensive on the PPE: under a period guarantee the
/// lone SPE is load-bearing, so its failure must shed.
fn lean_app(name: &str) -> StreamGraph {
    let mut b = StreamGraph::builder(name);
    let s = b.add_task(TaskSpec::new("s").ppe_cost(10e-6).spe_cost(2e-6));
    let t = b.add_task(TaskSpec::new("t").ppe_cost(10e-6).spe_cost(2e-6));
    b.add_edge(s, t, 1024.0).unwrap();
    b.build().unwrap()
}

/// Lowest node id first, whatever the load: packs node 0 while it
/// accepts.
struct IdOrder;

impl PlacePolicy for IdOrder {
    fn name(&self) -> &'static str {
        "id_order"
    }

    fn rank(&mut self, nodes: &[NodeSummary], _demand: &AppDemand) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = nodes.iter().map(|n| n.node).collect();
        ids.sort();
        ids
    }
}

/// One-SPE nodes under a 30 us per-instance guarantee. PPE-only,
/// heavy (w=2) and light (w=1) make a 60 us round — light's 60 us per
/// instance breaches the cap — so failing the SPE sheds light, and a
/// fleet this small has nowhere to re-home it: it strands.
fn lean_fleet(nodes: usize) -> (Cluster, PeId) {
    let spec = CellSpecBuilder::default()
        .spes(1)
        .local_store(ByteSize::kib(256))
        .code_size(ByteSize::kib(64))
        .build()
        .unwrap();
    let service = ServiceOptions { max_period: Some(30e-6), ..Default::default() };
    // id order packs node 0, so both applications share the SPE that fails
    let policy: Box<dyn PlacePolicy> = Box::new(IdOrder);
    let opts = ClusterOptions { service, policy };
    (Cluster::homogeneous(nodes, &spec, opts), PeId(1))
}

fn admit(graph: StreamGraph, weight: f64) -> TraceEvent {
    TraceEvent::Admit { graph, weight }
}

fn retire(app: &str) -> TraceEvent {
    TraceEvent::Retire { app: app.to_owned() }
}

fn reweight(app: &str, weight: f64) -> TraceEvent {
    TraceEvent::Reweight { app: app.to_owned(), weight }
}

fn drift(app: &str, factor: f64) -> TraceEvent {
    TraceEvent::CostDrift { app: app.to_owned(), factor }
}

/// Every counter cell of a fleet, in a fixed order.
fn counters(fleet: &Cluster) -> Vec<u64> {
    let m = fleet.metrics();
    let mut cells = vec![
        m.events_total.get(),
        m.applied_total.get(),
        m.rejected_total.get(),
        m.local_migration_bytes_total.get(),
        m.network_migrations_total.get(),
        m.network_bytes_total.get(),
        m.latency_ns.count(),
        m.recorder.recorded(),
    ];
    cells.extend(m.placed_total.iter().map(|c| c.get()));
    cells
}

/// Drive `script` through twin fleets — `process` against a burst of
/// one — and compare everything observable after every operation.
/// Returns the verdicts (`None`: the operation was an error).
fn assert_twins(
    mut single: Cluster,
    mut burst: Cluster,
    script: &[TraceEvent],
) -> Vec<Option<ClusterVerdict>> {
    let mut names: Vec<String> = Vec::new();
    let mut verdicts = Vec::new();
    let mut errors = 0;
    for ev in script {
        let label = ev.label();
        let before = counters(&single);
        let one = single.process(ev);
        let many = burst.process_burst(std::slice::from_ref(ev));
        assert_eq!(many.events.len(), 1, "{label}");
        let (burst_label, burst_verdict) = &many.events[0];
        match &one {
            Ok(r) => {
                assert_eq!((&r.event, &r.verdict), (burst_label, burst_verdict), "{label}");
                let bits = r.local_migration_bytes.to_bits();
                assert_eq!(bits, many.local_migration_bytes.to_bits(), "{label}: bytes");
                assert_eq!(r.max_period.to_bits(), many.max_period.to_bits(), "{label}: period");
                names.extend(r.app.clone());
            }
            // an unknown application or node is an error for one
            // operation — recorded nowhere — and a refused event inside
            // a burst
            Err(e) => {
                assert_eq!(burst_verdict, &ClusterVerdict::Rejected(e.to_string()), "{label}");
                assert_eq!(burst_label, &label);
                assert_eq!(many.local_migration_bytes, 0.0, "{label}: an error moves nothing");
                assert_eq!(counters(&single), before, "{label}: an error is not recorded");
                errors += 1;
            }
        }
        let mut cells = counters(&single);
        // events, rejected, latency samples, flight entries
        for cell in [0, 2, 6, 7] {
            cells[cell] += errors;
        }
        assert_eq!(cells, counters(&burst), "{label}: metric cells");
        for name in &names {
            assert_eq!(single.node_of(name), burst.node_of(name), "{label}: where {name} lives");
        }
        let (a, b) = (single.status(), burst.status());
        assert_eq!(a.nodes, b.nodes, "{label}: summaries");
        assert_eq!((a.draining, a.dead), (b.draining, b.dead), "{label}: node sets");
        assert_eq!(a.stranded, b.stranded, "{label}: ledger");
        assert_eq!(a.n_apps, b.n_apps, "{label}");
        verdicts.push(one.ok().map(|r| r.verdict));
    }
    // the flight logs agree entry by entry, wall time and the entry's
    // kind (the operation's against "burst") aside
    let log = |fleet: &Cluster| {
        let entries = fleet.metrics().recorder.drain().into_iter();
        entries.map(|f| (f.verdict, f.migration_bytes.to_bits(), f.shed, f.stranded, f.mask_delta))
    };
    let mut singles = log(&single);
    for (verdict, entry) in verdicts.iter().zip(log(&burst)) {
        match verdict {
            Some(_) => assert_eq!(singles.next(), Some(entry)),
            None => assert_eq!(entry.0, "rejected"),
        }
    }
    assert_eq!(singles.next(), None);
    verdicts
}

#[test]
fn a_burst_of_one_is_process_exactly() {
    // ---- routing, uniquified names, node faults, unknown names and nodes ----
    let spec = CellSpec::ps3();
    let spe = spec.pe(spec.n_ppe());
    let fleet = || Cluster::homogeneous(3, &spec, ClusterOptions::default());
    let mut script: Vec<TraceEvent> =
        (0..6).map(|i| admit(app(&format!("a{i}"), 3, i), 1.0 + i as f64)).collect();
    script.extend([
        admit(app("a0", 4, 40), 2.0), // a duplicate name: placed as a0#1
        reweight("a1", 3.5),
        reweight("a1", f64::NAN), // the node refuses
        retire("a2"),
        retire("a2"), // unknown by now
        drift("a3", 1.5),
        drift("a3", 0.0), // the node refuses
        drift("ghost", 2.0),
        TraceEvent::PeFailed { node: 7, pe: spe }, // no such node
        TraceEvent::NodeFailed { node: 1 },
        TraceEvent::PeFailed { node: 1, pe: spe }, // a fault on a dead node
        TraceEvent::PeRestored { node: 1, pe: spe },
        TraceEvent::NodeFailed { node: 1 }, // idempotent
        admit(app("late", 3, 77), 1.0),     // avoids the dead node
        TraceEvent::NodeRestored { node: 1 },
        TraceEvent::NodeRestored { node: 1 }, // idempotent
        TraceEvent::NodeRestored { node: 9 },
        TraceEvent::PeFailed { node: 0, pe: spe },
        TraceEvent::PeRestored { node: 0, pe: spe },
        retire("a0#1"),
    ]);
    let verdicts = assert_twins(fleet(), fleet(), &script);
    let errors = verdicts.iter().filter(|v| v.is_none()).count();
    assert_eq!(errors, 4, "a2 again, ghost, node 7, node 9");
    assert!(matches!(verdicts[6], Some(ClusterVerdict::Admitted(_))), "{:?}", verdicts[6]);
    assert!(matches!(verdicts[15], Some(ClusterVerdict::NodeLost { .. })), "{:?}", verdicts[15]);

    // ---- the stranded ledger: retire, reweight and drift reach it ------------
    let script = [
        admit(lean_app("heavy"), 2.0),
        admit(lean_app("light"), 1.0),
        TraceEvent::PeFailed { node: 0, pe: PeId(1) }, // strands light
        reweight("light", -3.0),                       // refused, the ledger keeps 1.0
        reweight("light", 1.5),
        drift("light", f64::INFINITY), // refused
        drift("light", 1.25),
        retire("ghost"),
        TraceEvent::PeRestored { node: 0, pe: PeId(1) }, // light returns at 1.5
        TraceEvent::PeFailed { node: 0, pe: PeId(1) },   // and strands again
        retire("light"),                                 // straight out of the ledger
        TraceEvent::PeRestored { node: 0, pe: PeId(1) },
    ];
    let verdicts = assert_twins(lean_fleet(1).0, lean_fleet(1).0, &script);
    assert_eq!(verdicts[2], Some(ClusterVerdict::Recovered { rehomed: 0, stranded: 1 }));
    assert!(matches!(verdicts[3], Some(ClusterVerdict::Rejected(_))), "{:?}", verdicts[3]);
    assert_eq!(verdicts[4], Some(ClusterVerdict::Applied));
    assert!(matches!(verdicts[5], Some(ClusterVerdict::Rejected(_))), "{:?}", verdicts[5]);
    assert_eq!(verdicts[6], Some(ClusterVerdict::Applied));
    assert_eq!(verdicts[8], Some(ClusterVerdict::NodeReturned { readmitted: 1 }));
    assert_eq!(verdicts[10], Some(ClusterVerdict::Applied));
    assert_eq!(verdicts[11], Some(ClusterVerdict::NodeReturned { readmitted: 0 }));
}

#[test]
fn a_burst_is_counted_like_its_events() {
    let mut fleet = Cluster::homogeneous(3, &CellSpec::ps3(), ClusterOptions::default());
    let burst: Vec<TraceEvent> = (0..6).map(|i| admit(app(&format!("a{i}"), 3, i), 1.0)).collect();
    let report = fleet.process_burst(&burst);
    assert_eq!(report.applied(), 6, "{:?}", report.events);

    let m = fleet.metrics();
    assert_eq!(m.events_total.get(), 6, "every bursted op is an event");
    assert_eq!(m.applied_total.get(), 6);
    assert_eq!(m.rejected_total.get(), 0);
    assert_eq!(m.placed_total.iter().map(|c| c.get()).sum::<u64>(), 6, "each landed on a node");
    assert_eq!(m.latency_ns.count(), 1, "the burst's latency, once");
    assert_eq!(m.local_migration_bytes_total.get(), report.local_migration_bytes as u64);
    let flights = m.recorder.drain();
    assert_eq!(flights.len(), 1, "one flight entry per burst");
    assert_eq!(flights[0].kind, "burst");
    assert_eq!(flights[0].migration_bytes.to_bits(), report.local_migration_bytes.to_bits());

    // a refusal and an unknown name are events too
    let report = fleet.process_burst(&[reweight("a0", -1.0), retire("ghost"), retire("a1")]);
    assert_eq!(report.applied(), 1, "{:?}", report.events);
    let m = fleet.metrics();
    assert_eq!((m.events_total.get(), m.applied_total.get(), m.rejected_total.get()), (9, 7, 2));
}

#[test]
fn a_malformed_reweight_cannot_poison_the_stranded_ledger() {
    let (mut fleet, spe) = lean_fleet(1);
    assert!(fleet.admit(&lean_app("heavy"), 2.0).applied());
    assert!(fleet.admit(&lean_app("light"), 1.0).applied());
    let r = fleet.pe_failed(NodeId(0), spe).unwrap();
    assert_eq!(r.verdict, ClusterVerdict::Recovered { rehomed: 0, stranded: 1 });
    assert_eq!(fleet.status().stranded, ["light"]);

    // exactly what a live application's node would refuse
    for weight in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
        let r = fleet.reweight("light", weight).expect("light is tracked");
        assert!(matches!(r.verdict, ClusterVerdict::Rejected(_)), "w={weight}: {:?}", r.verdict);
        let report = fleet.process_burst(&[reweight("light", weight)]);
        let verdict = &report.events[0].1;
        assert!(matches!(verdict, ClusterVerdict::Rejected(_)), "burst w={weight}: {verdict:?}");
        assert_eq!(fleet.status().stranded, ["light"], "the ledger still holds it");
    }
    assert!(matches!(fleet.reweight("ghost", f64::NAN), Err(ClusterError::UnknownApp(_))));

    // the ledger copy kept its old weight, so the restore re-admits it
    let r = fleet.pe_restored(NodeId(0), spe).unwrap();
    assert_eq!(r.verdict, ClusterVerdict::NodeReturned { readmitted: 1 });
    assert!(fleet.status().stranded.is_empty());
    let weights = &fleet.status().nodes[0].apps;
    assert!(weights.contains(&("light".to_owned(), 1.0)), "{weights:?}");
}
