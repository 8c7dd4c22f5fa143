//! The adversarial scenario engine: compose an arrival process with an
//! impairment schedule into a replayable [`EventTrace`].
//!
//! Robustness claims need workloads harder than hand-written churn
//! scripts. A [`Scenario`] draws admissions from a stochastic arrival
//! process — steady [`Arrivals::Bursty`] bursts, a sinusoidal
//! [`Arrivals::Diurnal`] day-cycle, or a quiet baseline punctured by a
//! [`Arrivals::FlashCrowd`] — threads optional retire/reweight churn
//! through the admitted population, and overlays a deterministic
//! schedule of [`Impairment`]s: SPE outages, whole-node loss and
//! return, and cost drift. The output is an ordinary [`EventTrace`]:
//! [`replay`](crate::replay) runs it unchanged against a single service
//! or a fleet, so every serving-loop and cluster driver can face the
//! same adversary.
//!
//! Generation is deterministic: the same builder inputs and seed yield
//! the identical trace (an inline LCG — this crate takes no RNG
//! dependency), so benches can regenerate a scenario instead of
//! persisting it.

use crate::online::{EventTrace, TraceEvent};
use cellstream_graph::StreamGraph;
use cellstream_platform::PeId;

/// How admissions arrive over the scenario's lifetime.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Bursts at exponential gaps: `rate` bursts per second, each
    /// admitting 1..=`burst` applications back to back.
    Bursty {
        /// Mean bursts per second.
        rate: f64,
        /// Largest burst (sizes are drawn uniformly from 1..=burst).
        burst: usize,
    },
    /// A day-cycle: Poisson arrivals whose rate swings sinusoidally
    /// around `base_rate` with the given relative `amplitude` over
    /// `period` seconds.
    Diurnal {
        /// Mean arrivals per second at the cycle's midline.
        base_rate: f64,
        /// Relative swing in `[0, 1]`: 1.0 silences the trough and
        /// doubles the peak.
        amplitude: f64,
        /// Seconds per full cycle.
        period: f64,
    },
    /// A quiet Poisson baseline punctured by one flash crowd: `size`
    /// admissions landing back to back at time `at`.
    FlashCrowd {
        /// Mean arrivals per second outside the crowd.
        base_rate: f64,
        /// When the crowd hits (seconds).
        at: f64,
        /// Admissions in the crowd.
        size: usize,
    },
}

/// One scheduled fault (and, for outages, its recovery) to overlay on
/// the arrival churn.
#[derive(Debug, Clone)]
pub enum Impairment {
    /// `pe` on fleet node `node` dies at `at` and returns `outage`
    /// seconds later (no restore event if that lands past the horizon).
    PeOutage {
        /// Fleet index of the impaired node (0 for single-node runs).
        node: usize,
        /// The failing PE — must be an SPE; a dead PPE is a dead node.
        pe: PeId,
        /// Failure time (seconds).
        at: f64,
        /// Seconds until the restore event.
        outage: f64,
    },
    /// Fleet node `node` crashes at `at` and rejoins (cold) `outage`
    /// seconds later (no restore event past the horizon).
    NodeOutage {
        /// Fleet index of the lost node.
        node: usize,
        /// Crash time (seconds).
        at: f64,
        /// Seconds until the node returns.
        outage: f64,
    },
    /// At `at`, one application admitted before `at` (drawn
    /// deterministically from the population) sees its measured
    /// compute drift by `factor`.
    Drift {
        /// Drift time (seconds).
        at: f64,
        /// Multiplier on the victim's compute costs (> 0, finite).
        factor: f64,
    },
}

/// Builder for one adversarial scenario. See the module docs.
#[derive(Debug, Clone)]
pub struct Scenario {
    horizon: f64,
    seed: u64,
    arrivals: Option<Arrivals>,
    impairments: Vec<Impairment>,
    templates: Vec<(StreamGraph, f64)>,
    retire_fraction: f64,
    reweight_fraction: f64,
}

impl Scenario {
    /// An empty scenario over `horizon` seconds.
    pub fn new(horizon: f64) -> Scenario {
        assert!(horizon.is_finite() && horizon > 0.0, "horizon must be positive, got {horizon}");
        Scenario {
            horizon,
            seed: 1,
            arrivals: None,
            impairments: Vec::new(),
            templates: Vec::new(),
            retire_fraction: 0.0,
            reweight_fraction: 0.0,
        }
    }

    /// Fix the generator seed (default 1). Same inputs, same trace.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Set the arrival process (without one the trace holds only the
    /// impairment schedule).
    pub fn arrivals(mut self, arrivals: Arrivals) -> Scenario {
        self.arrivals = Some(arrivals);
        self
    }

    /// Add an application template: admissions clone it under a fresh
    /// unique name with this weight. Templates rotate round-robin.
    pub fn template(mut self, graph: StreamGraph, weight: f64) -> Scenario {
        assert!(weight > 0.0, "template weight must be positive, got {weight}");
        self.templates.push((graph, weight));
        self
    }

    /// Schedule one impairment.
    pub fn impair(mut self, impairment: Impairment) -> Scenario {
        self.impairments.push(impairment);
        self
    }

    /// Fraction of admitted applications that later retire (0..=1),
    /// at a time drawn between their admission and the horizon.
    pub fn retire_fraction(mut self, f: f64) -> Scenario {
        assert!((0.0..=1.0).contains(&f), "retire fraction must be in [0,1], got {f}");
        self.retire_fraction = f;
        self
    }

    /// Fraction of admitted applications that get one mid-life
    /// reweight (0..=1).
    pub fn reweight_fraction(mut self, f: f64) -> Scenario {
        assert!((0.0..=1.0).contains(&f), "reweight fraction must be in [0,1], got {f}");
        self.reweight_fraction = f;
        self
    }

    /// Generate the trace: arrivals, churn, and impairments merged in
    /// timestamp order.
    pub fn build(&self) -> EventTrace {
        assert!(
            self.arrivals.is_none() || !self.templates.is_empty(),
            "an arrival process needs at least one application template"
        );
        let mut rng = Lcg::new(self.seed);
        let mut trace = EventTrace::new(self.horizon);

        // 1. arrivals: (time, admitted name), names fresh per scenario
        let mut admitted: Vec<(f64, String)> = Vec::new();
        for (i, at) in self.arrival_times(&mut rng).into_iter().enumerate() {
            let (template, weight) = &self.templates[i % self.templates.len()];
            let name = format!("{}-{i}", template.name());
            trace.push(at, TraceEvent::Admit { graph: template.renamed(&name), weight: *weight });
            admitted.push((at, name));
        }

        // 2. churn: a slice of the population retires or reweights at
        // a time drawn from the rest of its life. Retired names are
        // excluded from the drift victim pool below.
        let mut retired: Vec<usize> = Vec::new();
        for (i, (at, name)) in admitted.iter().enumerate() {
            let rest = self.horizon - at;
            if rest <= 0.0 {
                continue;
            }
            if rng.f64() < self.retire_fraction {
                trace.push(
                    at + rest * (0.1 + 0.8 * rng.f64()),
                    TraceEvent::Retire { app: name.clone() },
                );
                retired.push(i);
            } else if rng.f64() < self.reweight_fraction {
                let weight = 0.5 + 3.5 * rng.f64();
                trace.push(
                    at + rest * (0.1 + 0.8 * rng.f64()),
                    TraceEvent::Reweight { app: name.clone(), weight },
                );
            }
        }

        // 3. impairments: deterministic overlay. Drift victims are
        // drawn from applications admitted (and not retired) before
        // the drift fires; a drift with no candidate is dropped.
        for imp in &self.impairments {
            match imp {
                Impairment::PeOutage { node, pe, at, outage } => {
                    trace.push(*at, TraceEvent::PeFailed { node: *node, pe: *pe });
                    if at + outage <= self.horizon {
                        trace.push(at + outage, TraceEvent::PeRestored { node: *node, pe: *pe });
                    }
                }
                Impairment::NodeOutage { node, at, outage } => {
                    trace.push(*at, TraceEvent::NodeFailed { node: *node });
                    if at + outage <= self.horizon {
                        trace.push(at + outage, TraceEvent::NodeRestored { node: *node });
                    }
                }
                Impairment::Drift { at, factor } => {
                    assert!(
                        factor.is_finite() && *factor > 0.0,
                        "drift factor must be positive, got {factor}"
                    );
                    let pool: Vec<&String> = admitted
                        .iter()
                        .enumerate()
                        .filter(|(i, (t, _))| t < at && !retired.contains(i))
                        .map(|(_, (_, name))| name)
                        .collect();
                    if pool.is_empty() {
                        continue;
                    }
                    let app = pool[rng.index(pool.len())].clone();
                    trace.push(*at, TraceEvent::CostDrift { app, factor: *factor });
                }
            }
        }
        trace
    }

    /// Admission timestamps in `[0, horizon)` for the configured
    /// arrival process.
    fn arrival_times(&self, rng: &mut Lcg) -> Vec<f64> {
        let mut times = Vec::new();
        match &self.arrivals {
            None => {}
            Some(Arrivals::Bursty { rate, burst }) => {
                assert!(*rate > 0.0 && *burst > 0, "bursty arrivals need rate > 0, burst > 0");
                let mut t = rng.exp(*rate);
                while t < self.horizon {
                    let size = 1 + rng.index(*burst);
                    for k in 0..size {
                        // back to back, strictly ordered within the burst
                        times.push(t + k as f64 * 1e-9);
                    }
                    t += rng.exp(*rate);
                }
            }
            Some(Arrivals::Diurnal { base_rate, amplitude, period }) => {
                assert!(
                    *base_rate > 0.0 && (0.0..=1.0).contains(amplitude) && *period > 0.0,
                    "diurnal arrivals need base_rate > 0, amplitude in [0,1], period > 0"
                );
                // inhomogeneous Poisson by thinning against the peak rate
                let peak = base_rate * (1.0 + amplitude);
                let mut t = rng.exp(peak);
                while t < self.horizon {
                    let phase = (t / period) * std::f64::consts::TAU;
                    let rate = base_rate * (1.0 + amplitude * phase.sin());
                    if rng.f64() * peak < rate {
                        times.push(t);
                    }
                    t += rng.exp(peak);
                }
            }
            Some(Arrivals::FlashCrowd { base_rate, at, size }) => {
                assert!(
                    *base_rate >= 0.0 && *size > 0 && (0.0..self.horizon).contains(at),
                    "flash crowd needs base_rate >= 0, size > 0, 0 <= at < horizon"
                );
                if *base_rate > 0.0 {
                    let mut t = rng.exp(*base_rate);
                    while t < self.horizon {
                        times.push(t);
                        t += rng.exp(*base_rate);
                    }
                }
                for k in 0..*size {
                    times.push(at + k as f64 * 1e-9);
                }
                times.sort_by(f64::total_cmp);
            }
        }
        times
    }
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants); high 53 bits feed
/// the float draws. Good enough for workload shaping — this is a trace
/// generator, not a statistics engine.
struct Lcg {
    state: u64,
}

impl Lcg {
    fn new(seed: u64) -> Lcg {
        // avoid the all-zero orbit and decorrelate small seeds
        Lcg { state: seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1) }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.state
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    fn index(&mut self, n: usize) -> usize {
        ((self.f64() * n as f64) as usize).min(n - 1)
    }

    /// Exponential inter-arrival gap at the given rate.
    fn exp(&mut self, rate: f64) -> f64 {
        // 1 - f64() is in (0, 1]: ln never sees zero
        -(1.0 - self.f64()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::TaskSpec;

    fn template(name: &str) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").ppe_cost(5e-6).spe_cost(1e-6));
        let t = b.add_task(TaskSpec::new("t").ppe_cost(5e-6).spe_cost(1e-6));
        b.add_edge(s, t, 1024.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn scenarios_are_deterministic_and_sorted() {
        let build = || {
            Scenario::new(10.0)
                .seed(7)
                .arrivals(Arrivals::Bursty { rate: 1.0, burst: 3 })
                .template(template("app"), 1.0)
                .retire_fraction(0.3)
                .reweight_fraction(0.3)
                .impair(Impairment::PeOutage { node: 0, pe: PeId(2), at: 4.0, outage: 3.0 })
                .impair(Impairment::Drift { at: 6.0, factor: 2.0 })
                .build()
        };
        let a = build();
        let b = build();
        assert_eq!(a.len(), b.len(), "same seed, same trace");
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.event.label(), y.event.label());
        }
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at, "sorted by timestamp");
        }
        assert!(a.events().iter().any(|e| e.event.is_fault()), "the outage made it in");

        // a different seed reshapes the churn
        let other = Scenario::new(10.0)
            .seed(8)
            .arrivals(Arrivals::Bursty { rate: 1.0, burst: 3 })
            .template(template("app"), 1.0)
            .build();
        let times = |t: &EventTrace| t.events().iter().map(|e| e.at).collect::<Vec<_>>();
        assert_ne!(times(&a), times(&other), "seeds steer the arrival process");
    }

    #[test]
    fn flash_crowd_lands_back_to_back_and_outages_pair_up() {
        let trace = Scenario::new(5.0)
            .arrivals(Arrivals::FlashCrowd { base_rate: 0.2, at: 2.0, size: 4 })
            .template(template("surge"), 2.0)
            .impair(Impairment::NodeOutage { node: 1, at: 2.5, outage: 1.0 })
            .impair(Impairment::PeOutage { node: 0, pe: PeId(3), at: 1.0, outage: 9.0 })
            .build();
        let crowd: Vec<f64> = trace
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Admit { .. }))
            .filter(|e| (e.at - 2.0).abs() < 1e-6)
            .map(|e| e.at)
            .collect();
        assert_eq!(crowd.len(), 4, "the whole crowd admits at ~t=2");
        let fails =
            trace.events().iter().filter(|e| matches!(e.event, TraceEvent::NodeFailed { .. }));
        assert_eq!(fails.count(), 1);
        let restores =
            trace.events().iter().filter(|e| matches!(e.event, TraceEvent::NodeRestored { .. }));
        assert_eq!(restores.count(), 1, "the node outage ends inside the horizon");
        assert!(
            !trace.events().iter().any(|e| matches!(e.event, TraceEvent::PeRestored { .. })),
            "a restore past the horizon is dropped"
        );
    }

    #[test]
    fn diurnal_arrivals_swing_with_the_cycle() {
        let trace = Scenario::new(100.0)
            .seed(3)
            .arrivals(Arrivals::Diurnal { base_rate: 2.0, amplitude: 1.0, period: 100.0 })
            .template(template("wave"), 1.0)
            .build();
        // first half-cycle carries the sine's positive lobe: strictly
        // more arrivals than the trough half
        let (peak, trough): (Vec<_>, Vec<_>) = trace
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Admit { .. }))
            .partition(|e| e.at < 50.0);
        assert!(
            peak.len() > trough.len(),
            "peak half {} should out-arrive trough half {}",
            peak.len(),
            trough.len()
        );
    }

    #[test]
    fn drift_targets_an_admitted_survivor() {
        let trace = Scenario::new(10.0)
            .seed(11)
            .arrivals(Arrivals::Bursty { rate: 2.0, burst: 2 })
            .template(template("app"), 1.0)
            .impair(Impairment::Drift { at: 8.0, factor: 1.5 })
            .build();
        let drift = trace
            .events()
            .iter()
            .find(|e| matches!(e.event, TraceEvent::CostDrift { .. }))
            .expect("a busy trace has drift candidates");
        let TraceEvent::CostDrift { app, factor } = &drift.event else { unreachable!() };
        assert_eq!(*factor, 1.5);
        let admitted_before = trace.events().iter().any(|e| {
            e.at < drift.at
                && matches!(&e.event, TraceEvent::Admit { graph, .. } if graph.name() == app)
        });
        assert!(admitted_before, "the victim was admitted before the drift");
    }
}
