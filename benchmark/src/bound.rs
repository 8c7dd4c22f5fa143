//! `T_lb`: a period lower bound computed from the benchmark's own
//! inputs, never from program output.
//!
//! Every task runs somewhere, so a round costs at least
//! `Σ_k w·min(w_ppe, w_spe)` of compute spread over the live PEs, and no
//! PE can finish a task faster than its cheaper cost:
//!
//! ```text
//! T_lb = max( Σ_k w·min(w_ppe, w_spe) / n_live_pes ,  max_k w·min(w_ppe, w_spe) )
//! ```
//!
//! Communication, local stores and DMA slots only raise the true
//! optimum, so `period / T_lb ≥ 1` for every feasible mapping — the
//! `period_ratio` metric. The unit tests check the bound against the
//! exhaustive optimum on small graphs.

use cellstream::graph::StreamGraph;
use cellstream::sim::online::TraceEvent;
use std::collections::BTreeMap;

/// The two ingredients of `T_lb` for one application at weight 1:
/// total and largest best-case task cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// `Σ_k min(w_ppe, w_spe)` in seconds.
    pub total: f64,
    /// `max_k min(w_ppe, w_spe)` in seconds.
    pub largest: f64,
}

impl Work {
    /// Best-case work of one graph.
    pub fn of(g: &StreamGraph) -> Work {
        let mut w = Work::default();
        for t in g.tasks() {
            let best = t.w_ppe.min(t.w_spe);
            w.total += best;
            w.largest = w.largest.max(best);
        }
        w
    }

    /// The same work scaled by a throughput weight and a cost-drift
    /// factor (both multiply every task cost of the application).
    pub fn scaled(self, factor: f64) -> Work {
        Work { total: self.total * factor, largest: self.largest * factor }
    }
}

/// `T_lb` of a set of applications sharing `n_live_pes` processing
/// elements. `+∞` for an empty set, so an idle system is never sampled
/// as a finite ratio.
pub fn t_lb(apps: impl IntoIterator<Item = Work>, n_live_pes: usize) -> f64 {
    assert!(n_live_pes > 0, "a platform keeps at least its PPE");
    let (mut total, mut largest, mut any) = (0.0, 0.0f64, false);
    for w in apps {
        total += w.total;
        largest = largest.max(w.largest);
        any = true;
    }
    match any {
        true => (total / n_live_pes as f64).max(largest),
        false => f64::INFINITY,
    }
}

/// The benchmark's own books on a serving system: for every
/// application a trace has offered, its best-case work (from the
/// trace's graph) and the weight and accumulated cost drift the system
/// has *applied* — kept from verdicts alone, so `T_lb` never rests on a
/// cost the program reports.
#[derive(Debug, Clone, Default)]
pub struct Books(BTreeMap<String, Entry>);

#[derive(Debug, Clone, Copy)]
struct Entry {
    work: Work,
    weight: f64,
    drift: f64,
}

impl Books {
    /// Keep the books after one event and whether the system applied
    /// it. An admission opens an entry whatever the verdict: a refused
    /// application may wait in a retry queue and enter service later,
    /// at the weight it was offered with.
    pub fn record(&mut self, ev: &TraceEvent, applied: bool) {
        match ev {
            TraceEvent::Admit { graph, weight } => {
                let entry = Entry { work: Work::of(graph), weight: *weight, drift: 1.0 };
                self.0.insert(graph.name().to_owned(), entry);
            }
            TraceEvent::Reweight { app, weight } if applied => self.entry(app).weight = *weight,
            TraceEvent::CostDrift { app, factor } if applied => self.entry(app).drift *= factor,
            _ => {}
        }
    }

    fn entry(&mut self, app: &str) -> &mut Entry {
        self.0.get_mut(app).expect("the system applies events to applications it was offered")
    }

    /// The weight the books hold for an offered application.
    pub fn weight(&self, app: &str) -> f64 {
        self.0[app].weight
    }

    /// An offered application's best-case work at its current weight
    /// and drift.
    pub fn work(&self, app: &str) -> Work {
        let e = &self.0[app];
        e.work.scaled(e.weight * e.drift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream::core::brute::optimal_mapping;
    use cellstream::daggen::{chain, fork_join, CostParams};
    use cellstream::graph::{StreamGraph, TaskSpec};
    use cellstream::platform::CellSpec;

    #[test]
    fn hand_computed_bound() {
        let mut b = StreamGraph::builder("two");
        let a = b.add_task(TaskSpec::new("a").ppe_cost(4e-6).spe_cost(1e-6));
        let z = b.add_task(TaskSpec::new("z").ppe_cost(2e-6).spe_cost(3e-6));
        b.add_edge(a, z, 64.0).unwrap();
        let w = Work::of(&b.build().unwrap());
        assert_eq!(w, Work { total: 3e-6, largest: 2e-6 });
        // one PE: the sum binds; three PEs: the largest task binds
        assert_eq!(t_lb([w], 1), 3e-6);
        assert_eq!(t_lb([w], 3), 2e-6);
        assert_eq!(t_lb([w.scaled(2.0), w], 3), 4e-6);
        assert_eq!(t_lb(std::iter::empty(), 3), f64::INFINITY);
    }

    #[test]
    fn never_above_the_exhaustive_optimum() {
        // <= 8 tasks on 1 PPE + 2 SPEs: 3^8 mappings, enumerated exactly
        let spec = CellSpec::with_spes(2);
        let costs = CostParams::default();
        let mut graphs = Vec::new();
        for seed in 0..12u64 {
            graphs.push(chain("c", 3 + (seed % 6) as usize, &costs, seed));
            graphs.push(fork_join("f", 1 + (seed % 6) as usize, &costs, 100 + seed));
        }
        for g in &graphs {
            assert!(g.n_tasks() <= 8);
            let (_, optimum) = optimal_mapping(g, &spec).expect("the PPE always fits");
            let bound = t_lb([Work::of(g)], spec.n_pes());
            assert!(bound > 0.0 && bound <= optimum * (1.0 + 1e-12), "{bound} > {optimum}");
        }
    }

    #[test]
    fn books_follow_applied_events_only() {
        let g = chain("a", 3, &CostParams::default(), 1);
        let base = Work::of(&g);
        let mut books = Books::default();
        books.record(&TraceEvent::Admit { graph: g, weight: 2.0 }, false);
        assert_eq!(books.work("a"), base.scaled(2.0));
        books.record(&TraceEvent::Reweight { app: "a".into(), weight: 0.5 }, false);
        books.record(&TraceEvent::CostDrift { app: "a".into(), factor: 1.5 }, true);
        assert_eq!((books.weight("a"), books.work("a")), (2.0, base.scaled(3.0)));
        books.record(&TraceEvent::Reweight { app: "a".into(), weight: 0.5 }, true);
        assert_eq!(books.work("a"), base.scaled(0.75));
    }

    #[test]
    fn losing_a_pe_never_lowers_the_bound() {
        let g = chain("c", 8, &CostParams::default(), 7);
        let w = Work::of(&g);
        assert!(t_lb([w], 8) >= t_lb([w], 9));
    }
}
