//! Seeded input generation: the benchmark's own RNG, the application
//! catalogue the serving workloads draw from, and the churn traces.
//!
//! The same `--seed` always yields the same inputs. Traces are built in
//! the `sim::online` vocabulary ([`EventTrace`]/[`TraceEvent`]) and go
//! through a JSON round trip before they are replayed, so the program
//! under test sees only deserialized data.
//!
//! `sim::scenario` is not used for the churn: its arrival processes let
//! the resident population grow through the horizon, and per-event cost
//! grows with the composed graph, so a pass would not be a steady
//! state. The generators here pin the population instead (see
//! [`churn_trace`]).

use cellstream::daggen::{chain, fork_join, CostParams};
use cellstream::graph::StreamGraph;
use cellstream::platform::PeId;
use cellstream::sim::online::{EventTrace, TimedEvent, TraceEvent};
use std::collections::VecDeque;

/// SplitMix64: small, fast, and good enough for workload shaping. The
/// benchmark owns its generator so that its inputs cannot change under
/// it: the vendored `rand` stand-in documents that its streams are not
/// the real crate's, and a later swap would silently redraw every trace.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-purpose `stream` label, so two
    /// generators of one run never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index into an empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// A shuffled deck of `0..n`, dealt one card at a time and reshuffled
/// when it runs out. The traces draw every *target* from a deck — which
/// resident, which weight, which SPE — so two seeds touch every
/// resident the same number of times (give or take one) and differ in
/// order only. Independent draws would make each seed a different
/// *sample* of targets, and per-event cost depends on the target:
/// between ten seeds that alone spread events/s by 7 % and the p90
/// latency by 12 %, on a machine that repeats a seed within 3 %.
#[derive(Debug, Clone)]
struct Deck {
    cards: Vec<usize>,
    dealt: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        assert!(n > 0, "a deck holds at least one card");
        Deck { cards: (0..n).collect(), dealt: n }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.dealt == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.index(i + 1));
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }

    /// The next card that satisfies `ok`. Cards passed over are spent:
    /// they come round again with the next shuffle.
    fn draw_where(&mut self, rng: &mut Rng, ok: impl Fn(usize) -> bool) -> usize {
        loop {
            let card = self.draw(rng);
            if ok(card) {
                return card;
            }
        }
    }
}

/// Throughput weights come from a few round values, so a trace is
/// readable and JSON round trips are exact.
const WEIGHTS: usize = 9;

fn weight(card: usize) -> f64 {
    0.5 + 0.25 * card as f64
}

/// Edge payloads of the generated chains and fork-joins: small enough
/// that an SPE local store holds a few dozen tasks, as in the repo's
/// own serving benches — with `CostParams::default()` payloads (up to
/// 32 KiB) two dozen residents would all spill to the PPE and every
/// workload would measure the eviction path only.
fn serving_costs() -> CostParams {
    CostParams { data_min: 512.0, data_max: 4096.0, ..CostParams::default() }
}

/// Seed of the generated catalogue templates. Fixed, not taken from
/// `--seed`: per-event replan cost depends strongly on which graphs are
/// composed (40 % between two random catalogues at this commit), so a
/// seeded catalogue would make two seeds two different benchmarks.
/// `--seed` decides everything that happens *to* the catalogue: which
/// application is touched when, by what, at which weight.
const CATALOGUE_SEED: u64 = 0xCA7A_2010;

/// The application templates the serving workloads admit: the four
/// `apps` graphs plus `daggen` chains (2–6 tasks) and fork-joins
/// (2–4 workers) — 24 templates, ~100 tasks when all are resident.
pub fn catalogue() -> Vec<StreamGraph> {
    use cellstream::apps::{audio, cipher, dsp, video};
    let apps = [
        audio::graph().expect("the audio graph is valid"),
        video::graph().expect("the video graph is valid"),
        cipher::graph().expect("the cipher graph is valid"),
        dsp::graph().expect("the dsp graph is valid"),
    ];
    let mut rng = Rng::new(CATALOGUE_SEED, 1);
    let costs = serving_costs();
    let mut chains = (0..12)
        .map(|i| chain(&format!("chain{i}"), 2 + rng.index(5), &costs, rng.next_u64()))
        .collect::<Vec<_>>()
        .into_iter();
    let mut forks = (0..8)
        .map(|i| fork_join(&format!("fork{i}"), 2 + rng.index(3), &costs, rng.next_u64()))
        .collect::<Vec<_>>()
        .into_iter();
    // interleaved, so any prefix of the catalogue mixes all three kinds
    let mut out = Vec::with_capacity(24);
    for app in apps {
        out.push(app);
        for _ in 0..2 {
            out.extend(chains.next());
            out.extend(forks.next());
        }
        out.extend(chains.next());
    }
    out
}

/// Shape of one churn trace.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Resident applications of the start state; template `i % 24`
    /// backs resident `i`.
    pub resident: usize,
    /// Events in the trace (after the fill).
    pub ops: usize,
    /// Every `fault_every`-th event is a fault (`PeFailed`,
    /// `PeRestored`, `CostDrift`): 50 makes 2 % of the trace faults.
    pub fault_every: usize,
    /// Nodes the faults are spread over (1 for a single `Service`).
    pub nodes: usize,
    /// SPEs per node (faults only ever hit SPEs).
    pub n_spe: usize,
}

/// The generator's view of which applications it has admitted and not
/// yet retired. The system may have refused some of them — a trace is
/// data, not a contract — so events may name applications that are not
/// resident; the replay counts those as not accepted.
///
/// The population is a fixed set of *slots*, slot `i` backed by template
/// `i % 24`. Churn is *replacement*: a retirement vacates a slot, and
/// admissions refill vacant slots, oldest first, with the slot's
/// template under a fresh name and weight. The composed graph therefore
/// keeps the same tasks (give or take the applications in flight)
/// whatever the seed, and the seed moves only order, weights and seats
/// — which keeps per-event cost, and with it every timing metric,
/// comparable across seeds.
struct Population {
    templates: Vec<StreamGraph>,
    /// The application living in each slot, if any.
    slots: Vec<Option<String>>,
    vacant: VecDeque<usize>,
    next: usize,
    retire: Deck,
    reweight: Deck,
    drift: Deck,
    weights: Deck,
}

impl Population {
    /// The start state: every slot admitted, in slot order, at seeded
    /// weights. (In seeded order the set-up was a different piece of work
    /// under every seed: over ten seeds `setup_s` spread by 13–25 % on
    /// the serving workloads, twice what one seed's reruns do.)
    fn fill(rng: &mut Rng, resident: usize) -> (Population, Vec<TraceEvent>) {
        let mut pop = Population {
            templates: catalogue(),
            slots: vec![None; resident],
            vacant: (0..resident).collect(),
            next: 0,
            retire: Deck::new(resident),
            reweight: Deck::new(resident),
            drift: Deck::new(resident),
            weights: Deck::new(WEIGHTS),
        };
        let fill = (0..resident).map(|_| pop.admit(rng)).collect();
        (pop, fill)
    }

    fn admit(&mut self, rng: &mut Rng) -> TraceEvent {
        let slot = self.vacant.pop_front().expect("an admission follows a retirement");
        let name = format!("a{:05}", self.next);
        self.next += 1;
        self.slots[slot] = Some(name.clone());
        let template = &self.templates[slot % self.templates.len()];
        TraceEvent::Admit { graph: template.renamed(name), weight: weight(self.weights.draw(rng)) }
    }

    fn retire(&mut self, rng: &mut Rng) -> TraceEvent {
        let slots = &self.slots;
        let slot = self.retire.draw_where(rng, |s| slots[s].is_some());
        self.vacant.push_back(slot);
        TraceEvent::Retire { app: self.slots[slot].take().expect("the deck skipped vacant slots") }
    }

    /// Reweight a resident whose slot is not in `taken`.
    fn reweight(&mut self, rng: &mut Rng, taken: &[usize]) -> (usize, TraceEvent) {
        let slots = &self.slots;
        let slot = self.reweight.draw_where(rng, |s| slots[s].is_some() && !taken.contains(&s));
        let app = self.slots[slot].clone().expect("the deck skipped vacant slots");
        (slot, TraceEvent::Reweight { app, weight: weight(self.weights.draw(rng)) })
    }

    fn drifting_resident(&mut self, rng: &mut Rng) -> String {
        let slots = &self.slots;
        let slot = self.drift.draw_where(rng, |s| slots[s].is_some());
        self.slots[slot].clone().expect("the deck skipped vacant slots")
    }
}

/// The kinds of churn event, in the order [`churn_trace`] cycles
/// through: 3 retirements, 3 re-admissions and 4 reweights per 10
/// events, at most one template out at a time.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Retire,
    Admit,
    Reweight,
}

const CHURN_CYCLE: [Churn; 10] = {
    use Churn::{Admit, Retire, Reweight};
    [Retire, Reweight, Admit, Retire, Admit, Reweight, Retire, Reweight, Admit, Reweight]
};

/// Cost-drift factors: ×0.8 to ×1.5 in steps of 0.1.
const DRIFT_FACTORS: usize = 8;

/// A fill (admissions that build the start state) and a steady-state
/// churn trace over it.
///
/// The *mix* is fixed — the [`CHURN_CYCLE`] of kinds, and on every
/// `shape.fault_every`-th event a fault from the cycle `PeFailed`,
/// `PeRestored`, `CostDrift`, `CostDrift` (so one SPE of a seeded node
/// is down for a quarter of the trace) — and the seed decides every
/// *target*: which resident, which template, which weight, which SPE,
/// which drift factor (×0.8–×1.5). A random mix would put a seed-sized
/// share of the trace under an outage, and outages are where events
/// cost most: between two seeds that alone moved events/s by 12 %.
pub fn churn_trace(seed: u64, shape: &ChurnShape) -> (Vec<TraceEvent>, EventTrace) {
    let mut rng = Rng::new(seed, 2);
    let (mut pop, fill) = Population::fill(&mut rng, shape.resident);
    let (mut nodes, mut spes) = (Deck::new(shape.nodes), Deck::new(shape.n_spe));
    let mut factors = Deck::new(DRIFT_FACTORS);

    let mut trace = EventTrace::new(shape.ops as f64);
    let (mut churned, mut faults) = (0usize, 0usize);
    let mut dead: Option<(usize, PeId)> = None;
    for i in 0..shape.ops {
        let ev = if (i + 1) % shape.fault_every == 0 {
            faults += 1;
            match (faults - 1) % 4 {
                0 => {
                    let (node, pe) = (nodes.draw(&mut rng), PeId(1 + spes.draw(&mut rng)));
                    dead = Some((node, pe));
                    TraceEvent::PeFailed { node, pe }
                }
                1 => {
                    let (node, pe) = dead.take().expect("a failure precedes every restore");
                    TraceEvent::PeRestored { node, pe }
                }
                _ => TraceEvent::CostDrift {
                    app: pop.drifting_resident(&mut rng),
                    factor: 0.8 + 0.1 * factors.draw(&mut rng) as f64,
                },
            }
        } else {
            churned += 1;
            match CHURN_CYCLE[(churned - 1) % CHURN_CYCLE.len()] {
                Churn::Retire => pop.retire(&mut rng),
                Churn::Admit => pop.admit(&mut rng),
                Churn::Reweight => pop.reweight(&mut rng, &[]).1,
            }
        };
        trace.push(i as f64, ev);
    }
    (fill, trace)
}

/// Retirements per burst of [`burst_trace`].
pub const BURST_RETIRES: usize = 8;
/// Admissions per burst.
pub const BURST_ADMITS: usize = 8;
/// Reweights per burst.
pub const BURST_REWEIGHTS: usize = 4;
/// Events per burst: every one touches a distinct application, so a
/// batched driver can fuse the whole burst into one replan.
pub const BURST_LEN: usize = BURST_RETIRES + BURST_ADMITS + BURST_REWEIGHTS;

/// A fill and `bursts` fixed-shape bursts over it: 8 retirements of
/// random residents, their 8 templates re-admitted under fresh names,
/// 4 reweights of survivors — all of distinct applications.
pub fn burst_trace(seed: u64, resident: usize, bursts: usize) -> (Vec<TraceEvent>, EventTrace) {
    assert!(resident >= BURST_RETIRES + BURST_REWEIGHTS, "bursts need enough residents");
    let mut rng = Rng::new(seed, 3);
    let (mut pop, fill) = Population::fill(&mut rng, resident);

    let mut trace = EventTrace::new(bursts as f64);
    for b in 0..bursts {
        for _ in 0..BURST_RETIRES {
            trace.push(b as f64, pop.retire(&mut rng));
        }
        // reweight survivors only — the retired slots are vacant now,
        // the admissions below refill them — each a different one
        let mut reweights = Vec::with_capacity(BURST_REWEIGHTS);
        let mut taken = Vec::with_capacity(BURST_REWEIGHTS);
        for _ in 0..BURST_REWEIGHTS {
            let (slot, ev) = pop.reweight(&mut rng, &taken);
            taken.push(slot);
            reweights.push(ev);
        }
        for _ in 0..BURST_ADMITS {
            trace.push(b as f64, pop.admit(&mut rng));
        }
        for ev in reweights {
            trace.push(b as f64, ev);
        }
    }
    (fill, trace)
}

/// Serialize a trace to JSON lines (one event per line) and parse it
/// back: the replayed trace is the deserialized one, so the interchange
/// format is part of set-up. One document per event, not one per trace,
/// because the vendored parser re-validates the rest of its input on
/// every string character — quadratic in document length (3.6 s for a
/// 2 000-event document, 0.1 s as lines).
pub fn round_trip(trace: &EventTrace) -> EventTrace {
    let lines: Vec<String> = trace
        .events()
        .iter()
        .map(|e| serde_json::to_string(e).expect("trace events serialize"))
        .collect();
    let mut back = EventTrace::new(trace.horizon);
    for line in &lines {
        let e: TimedEvent = serde_json::from_str(line).expect("trace events deserialize");
        back.push(e.at, e.event);
    }
    assert_eq!(back.len(), trace.len(), "the JSON round trip is lossless");
    back
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        let shape = ChurnShape { resident: 12, ops: 300, fault_every: 20, nodes: 1, n_spe: 8 };
        let labels = |seed| -> Vec<String> {
            churn_trace(seed, &shape).1.events().iter().map(|e| e.event.label()).collect()
        };
        assert_eq!(labels(7), labels(7));
        assert_ne!(labels(7), labels(8));
    }

    #[test]
    fn churn_holds_the_population_and_pairs_outages() {
        let shape = ChurnShape { resident: 12, ops: 2000, fault_every: 20, nodes: 2, n_spe: 8 };
        let (fill, trace) = churn_trace(3, &shape);
        assert_eq!(fill.len(), 12);
        let mut pop = 12i64;
        let mut dead = [false; 2];
        let mut faults = 0;
        let mut down = 0;
        for e in trace.events() {
            match &e.event {
                TraceEvent::Admit { .. } => pop += 1,
                TraceEvent::Retire { .. } => pop -= 1,
                TraceEvent::PeFailed { node, pe } => {
                    assert!(!dead[*node] && (1..=8).contains(&pe.index()));
                    dead[*node] = true;
                }
                TraceEvent::PeRestored { node, .. } => {
                    assert!(dead[*node]);
                    dead[*node] = false;
                }
                _ => {}
            }
            faults += usize::from(e.event.is_fault());
            down += usize::from(dead.iter().any(|d| *d));
            assert!((11..=12).contains(&pop), "population drifted to {pop}");
        }
        assert_eq!(faults, 100, "every 20th of 2000 events is a fault");
        assert_eq!(down, 500, "an SPE is down for a quarter of the trace");
    }

    #[test]
    fn bursts_touch_distinct_live_applications() {
        let (fill, trace) = burst_trace(5, 24, 40);
        let mut live: Vec<String> = fill
            .iter()
            .map(|e| match e {
                TraceEvent::Admit { graph, .. } => graph.name().to_owned(),
                other => panic!("fills only admit: {other:?}"),
            })
            .collect();
        assert_eq!(trace.len(), 40 * BURST_LEN);
        for burst in trace.events().chunks(BURST_LEN) {
            let mut touched: Vec<&str> = Vec::new();
            for e in burst {
                let name = match &e.event {
                    TraceEvent::Admit { graph, .. } => graph.name(),
                    TraceEvent::Retire { app } | TraceEvent::Reweight { app, .. } => {
                        assert!(live.iter().any(|l| l == app), "{app} is not resident");
                        app.as_str()
                    }
                    other => panic!("bursts carry churn only: {other:?}"),
                };
                assert!(!touched.contains(&name), "{name} touched twice in one burst");
                touched.push(name);
            }
            for e in burst {
                match &e.event {
                    TraceEvent::Admit { graph, .. } => live.push(graph.name().to_owned()),
                    TraceEvent::Retire { app } => live.retain(|l| l != app),
                    _ => {}
                }
            }
            assert_eq!(live.len(), 24);
        }
    }

    #[test]
    fn round_trip_preserves_the_trace() {
        let shape = ChurnShape { resident: 6, ops: 120, fault_every: 10, nodes: 1, n_spe: 8 };
        let (_, trace) = churn_trace(11, &shape);
        let back = round_trip(&trace);
        let labels = |t: &EventTrace| -> Vec<String> {
            t.events().iter().map(|e| e.event.label()).collect()
        };
        assert_eq!(labels(&trace), labels(&back));
    }
}
