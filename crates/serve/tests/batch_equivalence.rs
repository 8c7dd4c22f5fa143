//! Property tests: `Service::process_batch` against one-at-a-time
//! `Service::process`.
//!
//! * A burst of **one** is `process`: for every event kind — faults,
//!   malformed operands, and guarantee + retry-queue mode included —
//!   the two agree *exactly*: verdict, drained admissions, handles,
//!   mapping, period bits, migration-bytes bits.
//! * For **n ≥ 2** they agree (in the canonical retire → reweight →
//!   admit order) on the final service state — same surviving
//!   applications under the same handles, names and weights,
//!   identically composed workload, both incumbents feasible. The
//!   *mappings* may differ (one fused repair and per-event repairs
//!   descend from different warm starts), so the period is held to a 2×
//!   quality band rather than equality.

use cellstream_graph::{AppId, StreamGraph, TaskSpec};
use cellstream_platform::CellSpec;
use cellstream_serve::{Event, Service, ServiceOptions, Verdict};
use proptest::prelude::*;

fn pipeline(name: &str, n: usize, cost_scale: u8) -> StreamGraph {
    let c = 1e-6 * (1.0 + f64::from(cost_scale));
    let mut b = StreamGraph::builder(name);
    let mut prev = None;
    for i in 0..n {
        let t = b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(c).spe_cost(c / 3.0));
        if let Some(p) = prev {
            b.add_edge(p, t, 1024.0).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

/// One seed application: task count, cost scale, weight.
type SeedApp = (usize, u8, f64);

/// One admission in the burst: task count, cost scale, weight, and
/// whether it reuses the first seed's name (exercising the uniquify
/// path) instead of a fresh one.
type BurstAdmit = (usize, u8, f64, bool);

#[derive(Debug, Clone)]
struct Burst {
    seeds: Vec<SeedApp>,
    /// Per-seed retire mask.
    retire: Vec<bool>,
    /// Seed index → new weight; retired or repeated targets are skipped
    /// when the events are materialised.
    reweights: Vec<(usize, f64)>,
    admits: Vec<BurstAdmit>,
}

/// Mostly sane weights, occasionally an invalid zero: rejection
/// verdicts must agree between the two paths too.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0u8..9, 0.25f64..4.0).prop_map(|(z, w)| if z == 0 { 0.0 } else { w })
}

fn arb_burst() -> impl Strategy<Value = Burst> {
    collection::vec((2usize..=5, 0u8..4, 0.5f64..3.0), 1..=3).prop_flat_map(|seeds| {
        let n = seeds.len();
        (
            Just(seeds),
            collection::vec(any::<bool>(), n..=n),
            collection::vec((0..n, arb_weight()), 0..=2),
            collection::vec((2usize..=4, 0u8..4, arb_weight(), any::<bool>()), 0..=2),
        )
            .prop_map(|(seeds, retire, reweights, admits)| Burst {
                seeds,
                retire,
                reweights,
                admits,
            })
    })
}

fn events_of(burst: &Burst, handles: &[AppId]) -> Vec<Event> {
    let mut seen_reweight: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    for (k, &(t, c, w, dup)) in burst.admits.iter().enumerate() {
        let name = if dup { "seed0".to_owned() } else { format!("new{k}") };
        events.push(Event::Admit(pipeline(&name, t, c), w));
    }
    for &(i, w) in &burst.reweights {
        // a handle may be targeted by at most one reweight and must not
        // race its own retire — batch validation refuses such bursts up
        // front, which is its own (separately tested) contract
        if burst.retire[i] || seen_reweight.contains(&i) {
            continue;
        }
        seen_reweight.push(i);
        events.push(Event::Reweight(handles[i], w));
    }
    for (i, &gone) in burst.retire.iter().enumerate() {
        if gone {
            events.push(Event::Retire(handles[i]));
        }
    }
    events
}

fn assert_feasible(svc: &Service) {
    if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
        let report =
            cellstream_core::evaluate(w.graph(), svc.spec(), m).expect("structurally valid");
        assert!(report.is_feasible(), "infeasible incumbent: {:?}", report.violations);
    }
}

/// One scripted single event, operands resolved against the live
/// listing at replay time (see `serve/tests/invariants.rs`).
#[derive(Debug, Clone)]
enum Step {
    /// Admit a pipeline: (tasks, cost scale, weight, reuse the first
    /// name ever admitted — the uniquify path).
    Admit(usize, u8, f64, bool),
    Retire(usize),
    Reweight(usize, f64),
    PeFail(usize),
    PeRestore(usize),
    /// A zero weight stands in for an invalid factor.
    Drift(usize, f64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..9, (2usize..=6, 0u8..4, arb_weight(), any::<bool>()), 0usize..8).prop_map(
        |(sel, (t, c, w, dup), k)| match sel {
            0..=2 => Step::Admit(t, c, w, dup),
            3 => Step::Retire(k),
            4 | 5 => Step::Reweight(k, w),
            6 => Step::PeFail(k),
            7 => Step::PeRestore(k),
            _ => Step::Drift(k, if w == 0.0 { 0.0 } else { 0.25 + w }),
        },
    )
}

/// Everything two services can disagree on after an event.
fn fingerprint(svc: &Service) -> (Vec<(AppId, String)>, Vec<usize>, u64, usize) {
    (
        svc.apps().map(|(h, n)| (h, n.to_owned())).collect(),
        svc.mapping().map_or(Vec::new(), |m| m.assignment().iter().map(|pe| pe.index()).collect()),
        svc.period().to_bits(),
        svc.queued(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_burst_of_one_is_process_exactly(
        steps in collection::vec(arb_step(), 1..=14),
        guarded in any::<bool>(),
    ) {
        let spec = CellSpec::ps3();
        // tight enough that a few pipelines in, admissions queue, faults
        // shed and retires drain
        let opts = match guarded {
            true => ServiceOptions {
                max_period: Some(5e-6),
                queue_rejected: true,
                queue_max_attempts: 3,
                ..Default::default()
            },
            false => ServiceOptions::default(),
        };
        let mut single = Service::with_options(spec.clone(), opts.clone());
        let mut batched = Service::with_options(spec.clone(), opts);
        for (n, step) in steps.into_iter().enumerate() {
            let live: Vec<AppId> = single.apps().map(|(h, _)| h).collect();
            let pick = |k: usize| live.get(k % live.len().max(1)).copied();
            let spe = |k: usize| spec.pe(spec.n_ppe() + k % spec.n_spe());
            let ev = match step {
                Step::Admit(t, c, w, dup) => {
                    let name = if dup { "app0".to_owned() } else { format!("app{n}") };
                    Some(Event::Admit(pipeline(&name, t, c), w))
                }
                Step::Retire(k) => pick(k).map(Event::Retire),
                Step::Reweight(k, w) => pick(k).map(|h| Event::Reweight(h, w)),
                Step::PeFail(k) => Some(Event::PeFailed(spe(k))),
                Step::PeRestore(k) => Some(Event::PeRestored(spe(k))),
                Step::Drift(k, f) => pick(k).map(|h| Event::CostDrift(h, f)),
            };
            let Some(ev) = ev else { continue };

            let one = single.process(ev.clone()).expect("live operands");
            let burst = batched.process_batch(&[ev]).expect("live operands");

            prop_assert_eq!(&burst.events, &vec![(one.event, one.verdict.clone())]);
            let drained = |rs: &[cellstream_serve::ServeReport]| -> Vec<Verdict> {
                rs.iter().map(|r| r.verdict.clone()).collect()
            };
            prop_assert_eq!(drained(&burst.drained), drained(&one.drained));
            prop_assert_eq!(&burst.delta, &one.delta);
            prop_assert_eq!(burst.migration_bytes().to_bits(), one.migration_bytes().to_bits());
            prop_assert_eq!(burst.period.to_bits(), one.period.to_bits());
            prop_assert_eq!(&burst.per_app, &one.per_app);
            prop_assert_eq!(fingerprint(&batched), fingerprint(&single));
            prop_assert_eq!(batched.workload(), single.workload());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bursts_batch_like_sequential(burst in arb_burst()) {
        let mut batched = Service::new(CellSpec::ps3());
        let mut seq = Service::new(CellSpec::ps3());
        let mut handles = Vec::new();
        for (k, &(t, c, w)) in burst.seeds.iter().enumerate() {
            let g = pipeline(&format!("seed{k}"), t, c);
            let hb = batched.admit(&g, w).admitted().expect("seed fits a PS3");
            let hs = seq.admit(&g, w).admitted().expect("seed fits a PS3");
            prop_assert_eq!(hb, hs, "seeding runs in lockstep");
            handles.push(hb);
        }
        let events = events_of(&burst, &handles);
        prop_assume!(!events.is_empty());

        let report = batched.process_batch(&events).expect("valid burst");

        // sequential reference: canonical faults → retire → reweight →
        // admit order (this harness generates no fault events; the
        // fault-path equivalence is pinned by the invariants suite)
        let rank = |ev: &Event| match ev {
            Event::PeFailed(_) | Event::PeRestored(_) | Event::CostDrift(..) => 0u8,
            Event::Retire(_) => 1,
            Event::Reweight(..) => 2,
            Event::Admit(..) => 3,
        };
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| rank(&events[i]));
        for &i in &order {
            seq.process(events[i].clone()).expect("valid event");
        }

        let bn: Vec<(AppId, String)> = batched.apps().map(|(h, n)| (h, n.to_owned())).collect();
        let sn: Vec<(AppId, String)> = seq.apps().map(|(h, n)| (h, n.to_owned())).collect();
        prop_assert_eq!(bn, sn, "handles and names agree");
        prop_assert_eq!(batched.workload(), seq.workload(), "composed workloads agree");
        prop_assert_eq!(report.events.len(), events.len(), "every event gets a verdict");

        let (bp, sp) = (batched.period(), seq.period());
        prop_assert_eq!(bp.is_finite(), sp.is_finite(), "batched {} vs sequential {}", bp, sp);
        if bp.is_finite() {
            prop_assert!(bp <= 2.0 * sp && sp <= 2.0 * bp, "batched {} vs sequential {}", bp, sp);
        }
        assert_feasible(&batched);
        assert_feasible(&seq);
    }
}
