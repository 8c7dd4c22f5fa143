//! Golden digests: one seeded `sim::scenario` storm (bursty churn, an
//! SPE outage, cost drift) replayed through every serving entry point,
//! each run folded into one FNV-1a digest of what the system *decided*
//! — verdicts, handles, names, weights, the incumbent's seat
//! assignment, `period().to_bits()` and `migration_bytes().to_bits()`.
//! Placement is deterministic per trace, so a changed digit is a
//! changed placement. The constants were recorded at the commit before
//! the serving loop was rewritten around one group step (ISSUE 14) and
//! must survive any behaviour-preserving refactor of it.
//!
//! * `process`, one event per call, guarantee + retry queue on;
//! * `process_batch` in ≤ 16-event chunks, guarantee + retry queue on
//!   (every op replans alone there, in canonical order);
//! * `process_batch` in ≤ 16-event chunks with admission control off:
//!   one fused replan per chunk;
//! * a 4-node `Cluster` through `process_burst`, 16 events a burst;
//! * a 4-node `Cluster` with the period guarantee on, one event per
//!   coordinator call, with a node-fail / node-restore / drain /
//!   undrain / rebalance cycle spliced in at fixed indices. Recorded at
//!   the commit before the coordinator was rewritten around one group
//!   step (ISSUE 15). Refusal prose and event labels are not hashed
//!   here — the burst run above pins the prose.
//!
//! The chunked runs cut where a client holding names must: a fault
//! travels alone, and a name an earlier event of the chunk touched
//! ends it (its handle exists only once the chunk commits). A batch's
//! verdicts are digested as a sorted set, so the digest does not depend
//! on the order `BatchReport::events` lists them in.

use cellstream::cluster::{
    Cluster, ClusterError, ClusterOptions, ClusterReport, ClusterVerdict, NodeId,
};
use cellstream::daggen::{chain, fork_join, CostParams};
use cellstream::platform::{CellSpec, PeId};
use cellstream::serve::{Event, Service, ServiceOptions};
use cellstream::sim::online::{EventTrace, TraceEvent};
use cellstream::sim::scenario::{Arrivals, Impairment, Scenario};

const CHUNK: usize = 16;
/// Tight enough on a PS3 that the storm queues and sheds, loose enough
/// that most of it is served.
const MAX_PERIOD: f64 = 90e-6;

/// Tight enough on four PS3s that the sequential fleet run refuses
/// admissions, walks the fallback order and fills the stranded ledger.
const FLEET_MAX_PERIOD: f64 = 35e-6;

const GOLDEN_PROCESS: u64 = 0x5840_ffb5_a55e_92b8;
const GOLDEN_CHUNKED_GUARANTEE: u64 = 0xa812_266f_b90f_df3a;
const GOLDEN_CHUNKED_FUSED: u64 = 0x1486_f873_3338_f3a0;
const GOLDEN_CLUSTER: u64 = 0xa2d7_cefd_d1ca_77a5;
const GOLDEN_CLUSTER_SEQUENTIAL: u64 = 0x985b_9304_a808_e13c;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
    fn bits(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

fn storm() -> EventTrace {
    let costs = CostParams::default();
    Scenario::new(10.0)
        .seed(14)
        .arrivals(Arrivals::Bursty { rate: 5.0, burst: 3 })
        .template(chain("pipe", 5, &costs, 3), 1.0)
        .template(fork_join("fan", 3, &costs, 5), 2.0)
        .template(chain("long", 8, &costs, 7), 1.0)
        .retire_fraction(0.55)
        .reweight_fraction(0.5)
        .impair(Impairment::PeOutage { node: 0, pe: PeId(2), at: 3.0, outage: 3.5 })
        .impair(Impairment::PeOutage { node: 1, pe: PeId(4), at: 4.0, outage: 2.0 })
        .impair(Impairment::NodeOutage { node: 2, at: 5.0, outage: 2.5 })
        .impair(Impairment::Drift { at: 4.5, factor: 2.5 })
        .impair(Impairment::Drift { at: 7.0, factor: 0.5 })
        .build()
}

fn guarded() -> ServiceOptions {
    ServiceOptions { max_period: Some(MAX_PERIOD), queue_rejected: true, ..Default::default() }
}

/// Resolve a name-addressed event against the live service; `None` when
/// the name is not resident or the event is not a single node's.
fn resolve(svc: &Service, ev: &TraceEvent) -> Option<Event> {
    Some(match ev {
        TraceEvent::Admit { graph, weight } => Event::Admit(graph.clone(), *weight),
        TraceEvent::Retire { app } => Event::Retire(svc.handle_of(app)?),
        TraceEvent::Reweight { app, weight } => Event::Reweight(svc.handle_of(app)?, *weight),
        TraceEvent::CostDrift { app, factor } => Event::CostDrift(svc.handle_of(app)?, *factor),
        TraceEvent::PeFailed { node: 0, pe } => Event::PeFailed(*pe),
        TraceEvent::PeRestored { node: 0, pe } => Event::PeRestored(*pe),
        _ => return None,
    })
}

fn name_of(ev: &TraceEvent) -> Option<&str> {
    match ev {
        TraceEvent::Admit { graph, .. } => Some(graph.name()),
        TraceEvent::Retire { app } | TraceEvent::Reweight { app, .. } => Some(app),
        _ => None,
    }
}

/// Handles, names, weights and seats of everything the service serves.
fn digest_state(h: &mut Fnv, svc: &Service) {
    h.bits(svc.period());
    let Some((w, m)) = svc.workload().zip(svc.mapping()) else {
        h.text("idle");
        return;
    };
    for ((handle, name), info) in svc.apps().zip(w.apps()) {
        h.text(&format!("{handle} {name}"));
        h.bits(info.weight);
    }
    for pe in m.assignment() {
        h.bytes(&[pe.index() as u8]);
    }
    h.text(&format!("queued {}", svc.queued()));
}

fn run_process(trace: &EventTrace) -> (u64, String) {
    let mut svc = Service::with_options(CellSpec::ps3(), guarded());
    let mut h = Fnv::new();
    let (mut applied, mut queued, mut shed, mut drained) = (0, 0, 0, 0);
    for te in trace.events() {
        let Some(ev) = resolve(&svc, &te.event) else {
            h.text("skip");
            continue;
        };
        let r = svc.process(ev).expect("resolved events are well-formed");
        h.text(&format!("{} {:?} q{}", r.event, r.verdict, r.queue_depth));
        h.bits(r.period);
        h.bits(r.migration_bytes());
        for d in &r.drained {
            h.text(&format!("drained {} {:?}", d.event, d.verdict));
        }
        if let Some(rec) = &r.recovery {
            h.text(&format!("evacuated {} shed {:?}", rec.evacuated_seats, rec.shed));
            shed += rec.shed.len();
        }
        applied += usize::from(r.applied());
        queued += usize::from(format!("{:?}", r.verdict) == "Queued");
        drained += r.drained.len();
        digest_state(&mut h, &svc);
    }
    let shape = format!(
        "{} events, {applied} applied, {queued} queued, {drained} drained, {shed} shed, {} live",
        trace.len(),
        svc.n_apps()
    );
    (h.0, shape)
}

fn run_chunked(trace: &EventTrace, opts: ServiceOptions) -> (u64, String) {
    let fused = opts.max_period.is_none();
    let mut svc = Service::with_options(CellSpec::ps3(), opts);
    let mut h = Fnv::new();
    let events = trace.events();
    let (mut i, mut chunks, mut largest) = (0, 0, 0);
    while i < events.len() {
        let mut batch: Vec<Event> = Vec::new();
        let mut touched: Vec<&str> = Vec::new();
        while i < events.len() && batch.len() < CHUNK {
            let ev = &events[i].event;
            if ev.is_fault() && !batch.is_empty() {
                break;
            }
            if name_of(ev).is_some_and(|n| touched.contains(&n)) {
                break;
            }
            touched.extend(name_of(ev));
            i += 1;
            match resolve(&svc, ev) {
                Some(resolved) => batch.push(resolved),
                None => h.text("skip"),
            }
            if ev.is_fault() {
                break;
            }
        }
        if batch.is_empty() {
            continue;
        }
        let r = svc.process_batch(&batch).expect("resolved bursts are well-formed");
        let mut verdicts: Vec<String> =
            r.events.iter().map(|(label, v)| format!("{label} {v:?}")).collect();
        verdicts.sort();
        h.text(&verdicts.join(";"));
        for d in &r.drained {
            h.text(&format!("drained {} {:?}", d.event, d.verdict));
        }
        if fused {
            // a guarantee-gated burst used to report the net pre→post
            // diff plus its drained admissions a second time; only the
            // fused figure carries over, so only it is pinned
            h.bits(r.migration_bytes());
        }
        chunks += 1;
        largest = largest.max(batch.len());
        digest_state(&mut h, &svc);
    }
    (h.0, format!("{chunks} chunks, largest {largest}, {} live", svc.n_apps()))
}

fn run_cluster(trace: &EventTrace) -> (u64, String) {
    let mut fleet = Cluster::homogeneous(4, &CellSpec::ps3(), ClusterOptions::default());
    let mut h = Fnv::new();
    let events: Vec<TraceEvent> = trace.events().iter().map(|t| t.event.clone()).collect();
    let (mut applied, mut batches) = (0, 0);
    for burst in events.chunks(CHUNK) {
        let r = fleet.process_burst(burst);
        for (label, verdict) in &r.events {
            h.text(&format!("{label} {verdict:?}"));
        }
        h.bits(r.local_migration_bytes);
        h.bits(r.max_period);
        applied += r.applied();
        batches += r.batches;
        for agent in fleet.agents() {
            digest_state(&mut h, agent.service());
        }
        let mut stranded = fleet.status().stranded;
        stranded.sort();
        h.text(&format!("stranded {stranded:?}"));
    }
    (h.0, format!("{applied} applied over {batches} node batches, {} placed", fleet.n_apps()))
}

/// A fleet-only operation spliced between two storm events.
enum NodeOp {
    Fail(NodeId),
    Restore(NodeId),
    Drain(NodeId),
    Undrain(NodeId),
    Rebalance,
}

/// `(storm index, operation)`: run before that event.
const CYCLE: [(usize, NodeOp); 5] = [
    (20, NodeOp::Fail(NodeId(3))),
    (34, NodeOp::Restore(NodeId(3))),
    (48, NodeOp::Drain(NodeId(1))),
    (60, NodeOp::Undrain(NodeId(1))),
    (72, NodeOp::Rebalance),
];

/// One storm event through the coordinator's own entry point for it.
fn apply(fleet: &mut Cluster, ev: &TraceEvent) -> Result<ClusterReport, ClusterError> {
    match ev {
        TraceEvent::Admit { graph, weight } => Ok(fleet.admit(graph, *weight)),
        TraceEvent::Retire { app } => fleet.retire(app),
        TraceEvent::Reweight { app, weight } => fleet.reweight(app, *weight),
        TraceEvent::PeFailed { node, pe } => fleet.pe_failed(NodeId(*node), *pe),
        TraceEvent::PeRestored { node, pe } => fleet.pe_restored(NodeId(*node), *pe),
        TraceEvent::CostDrift { app, factor } => fleet.cost_drift(app, *factor),
        TraceEvent::NodeFailed { node } => fleet.node_failed(NodeId(*node)),
        TraceEvent::NodeRestored { node } => fleet.node_restored(NodeId(*node)),
    }
}

/// A verdict's variant and numeric fields — never its prose.
fn digest_verdict(h: &mut Fnv, v: &ClusterVerdict) {
    let (name, fields): (&str, [usize; 2]) = match v {
        ClusterVerdict::Admitted(node) => ("admitted", [node.index(), 0]),
        ClusterVerdict::Rejected(_) => ("rejected", [0, 0]),
        ClusterVerdict::Applied => ("applied", [0, 0]),
        ClusterVerdict::Drained { moved, stranded } => ("drained", [*moved, *stranded]),
        ClusterVerdict::Rebalanced { moved } => ("rebalanced", [*moved, 0]),
        ClusterVerdict::Recovered { rehomed, stranded } => ("recovered", [*rehomed, *stranded]),
        ClusterVerdict::NodeLost { rehomed, stranded } => ("node-lost", [*rehomed, *stranded]),
        ClusterVerdict::NodeReturned { readmitted } => ("node-returned", [*readmitted, 0]),
    };
    h.text(&format!("{name} {fields:?}"));
}

fn run_cluster_sequential(trace: &EventTrace) -> (u64, String) {
    let service = ServiceOptions { max_period: Some(FLEET_MAX_PERIOD), ..Default::default() };
    let opts = ClusterOptions { service, ..ClusterOptions::default() };
    let mut fleet = Cluster::homogeneous(4, &CellSpec::ps3(), opts);
    let mut h = Fnv::new();
    let mut tracked: Vec<String> = Vec::new();
    let (mut rejected, mut unknown, mut moves, mut stranded_peak) = (0, 0, 0, 0);
    let mut cycle = CYCLE.iter().peekable();
    for (i, te) in trace.events().iter().enumerate() {
        let mut results = Vec::new();
        while let Some((_, op)) = cycle.next_if(|(at, _)| *at == i) {
            results.push(match op {
                NodeOp::Fail(n) => fleet.node_failed(*n),
                NodeOp::Restore(n) => fleet.node_restored(*n),
                NodeOp::Drain(n) => fleet.drain(*n),
                NodeOp::Rebalance => Ok(fleet.rebalance()),
                NodeOp::Undrain(n) => {
                    fleet.undrain(*n).expect("the cycle names real nodes");
                    h.text("undrained");
                    continue;
                }
            });
        }
        results.push(apply(&mut fleet, &te.event));
        for result in results {
            match result {
                Ok(r) => {
                    digest_verdict(&mut h, &r.verdict);
                    h.bits(r.local_migration_bytes);
                    h.bits(r.max_period);
                    for m in &r.migrations {
                        h.text(&format!("{} {}>{}", m.app, m.from, m.to));
                        h.bits(m.bytes);
                        h.bits(m.seconds);
                    }
                    tracked.extend(r.app.filter(|_| r.verdict.admitted().is_some()));
                    rejected += usize::from(matches!(r.verdict, ClusterVerdict::Rejected(_)));
                    moves += r.migrations.len();
                }
                Err(ClusterError::UnknownApp(_)) => {
                    h.text("unknown app");
                    unknown += 1;
                }
                Err(ClusterError::UnknownNode(n)) => h.text(&format!("unknown node {n}")),
            }
            for name in &tracked {
                h.text(&format!("{name}@{:?}", fleet.node_of(name)));
            }
            let mut stranded = fleet.status().stranded;
            stranded.sort();
            h.text(&format!("stranded {stranded:?}"));
            stranded_peak = stranded_peak.max(stranded.len());
            for agent in fleet.agents() {
                digest_state(&mut h, agent.service());
            }
        }
    }
    assert!(cycle.next().is_none(), "the storm is long enough to hold the whole cycle");
    let shape = format!(
        "{rejected} rejected, {unknown} unknown, {moves} migrations, {stranded_peak} stranded at \
         peak, {} placed",
        fleet.n_apps()
    );
    (h.0, shape)
}

#[test]
fn the_storm_replays_to_the_recorded_digests() {
    let trace = storm();
    let runs = [
        ("process", run_process(&trace), GOLDEN_PROCESS),
        ("chunked, guarantee", run_chunked(&trace, guarded()), GOLDEN_CHUNKED_GUARANTEE),
        ("chunked, fused", run_chunked(&trace, ServiceOptions::default()), GOLDEN_CHUNKED_FUSED),
        ("cluster", run_cluster(&trace), GOLDEN_CLUSTER),
        ("cluster, sequential", run_cluster_sequential(&trace), GOLDEN_CLUSTER_SEQUENTIAL),
    ];
    for (name, (digest, shape), _) in &runs {
        println!("{name}: {digest:#018x} ({shape})");
    }
    for (name, (digest, _), golden) in &runs {
        assert_eq!(digest, golden, "{name}: the replay no longer decides what it used to");
    }
}
