//! Inter-node placement: which node should an arriving application try
//! first?
//!
//! The per-node `Service` is the authority on feasibility — a placer
//! only produces a *preference order*, and the coordinator walks it
//! until some node admits. The default is the [`LoadAffinity`] scorer;
//! [`RoundRobin`] and [`RandomPlace`] are the baselines every bench
//! compares it against. All three are deterministic (the random one in
//! its seed) and NaN-safe (`total_cmp` throughout).

use crate::agent::{NodeId, NodeSummary};
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_graph::{StreamGraph, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Resource demand estimate for one arriving application, computed from
/// its graph alone (no trial placement).
#[derive(Debug, Clone)]
pub struct AppDemand {
    /// Application (graph) name.
    pub name: String,
    /// Requested throughput weight.
    pub weight: f64,
    /// Weighted SPE work per composed round (seconds).
    pub spe_work: f64,
    /// Weighted PPE work per composed round (seconds).
    pub ppe_work: f64,
    /// Total buffer working set (bytes, shared buffers deduplicated).
    pub buffer_bytes: f64,
    /// Task count.
    pub n_tasks: usize,
}

impl AppDemand {
    /// Estimate the demand of `g` served at `weight`.
    pub fn of(g: &StreamGraph, weight: f64) -> AppDemand {
        let plan = BufferPlan::new(g);
        let tasks: Vec<TaskId> = g.task_ids().collect();
        let w = if weight.is_finite() && weight > 0.0 { weight } else { 0.0 };
        AppDemand {
            name: g.name().to_owned(),
            weight,
            spe_work: w * g.total_spe_work(),
            ppe_work: w * g.total_ppe_work(),
            buffer_bytes: plan.for_tasks_dedup(g, &tasks),
            n_tasks: g.n_tasks(),
        }
    }

    /// Crude post-admission period estimate: the node keeps its current
    /// bottleneck and absorbs this application's SPE work spread across
    /// its SPEs. An idle (`+∞` period) node starts from zero; a NaN
    /// period propagates, so corrupt summaries sink in every ranking
    /// instead of winning it.
    fn predicted_period(&self, node: &NodeSummary) -> f64 {
        let base = if node.period == f64::INFINITY { 0.0 } else { node.period };
        base + self.spe_work / node.n_spe.max(1) as f64
    }

    /// Cost density: SPE seconds consumed per weighted instance
    /// delivered (the graph's total SPE work, since both scale with the
    /// weight). Nodes have densities too — period × SPE count over
    /// resident weight — and a node's delivery rate is `n_spe` divided
    /// by its residents' mean density, which is what makes density the
    /// axis worth clustering on. `+∞` for nonsense weights (the
    /// admission control will refuse those anyway).
    pub fn density(&self) -> f64 {
        if self.weight.is_finite() && self.weight > 0.0 {
            self.spe_work / self.weight
        } else {
            f64::INFINITY
        }
    }

    /// Marginal aggregate-throughput gain (weighted instances per
    /// second, summed over residents) predicted from admitting here:
    /// `(Σw + w) / T̂_new − Σw / T̂_old`. This is the fleet's aggregate
    /// delivery objective, so the scoring placer greedily maximises it —
    /// an idle node scores `w / T̂_new` with nothing slowed down, while a
    /// busy node is charged for the delay it inflicts on every
    /// resident.
    ///
    /// Both periods come from the *same* additive occupancy model
    /// (`max(ppe_load, spe_load + work/n_spe)`) rather than mixing the
    /// node's realised period with a modelled increment: the realised
    /// period carries transient scheduling imbalance that the next
    /// repair sweep removes, and a consistent model cancels its own
    /// systematic error when two nodes are compared. NaN summaries
    /// return NaN (and sink in rankings).
    fn throughput_gain(&self, node: &NodeSummary) -> f64 {
        if node.period.is_nan() || !node.spe_load.is_finite() || !node.ppe_load.is_finite() {
            return f64::NAN;
        }
        let w = if self.weight.is_finite() && self.weight > 0.0 { self.weight } else { 0.0 };
        let resident: f64 = node.apps.iter().map(|(_, rw)| rw).sum();
        let t_old = node.ppe_load.max(node.spe_load);
        let t_new = node.ppe_load.max(node.spe_load + self.spe_work / node.n_spe.max(1) as f64);
        let before = if t_old > 0.0 && resident > 0.0 { resident / t_old } else { 0.0 };
        (resident + w) / t_new - before
    }

    /// Whether `node` is predicted to keep every resident application
    /// (and this one) under a per-instance period cap after admission.
    pub fn fits(&self, node: &NodeSummary, cap: Option<f64>) -> bool {
        let Some(cap) = cap else { return true };
        let t = self.predicted_period(node);
        let tightest = match self.weight.total_cmp(&node.min_weight) {
            std::cmp::Ordering::Less => self.weight,
            _ => node.min_weight,
        };
        if !(tightest.is_finite() && tightest > 0.0) {
            return true; // idle node, or nonsense weight the Service will refuse anyway
        }
        t / tightest <= cap
    }
}

/// An inter-node placement policy: rank candidate nodes, best first.
pub trait PlacePolicy {
    /// Registry name (what benches and `policy_by_name` key on).
    fn name(&self) -> &'static str;

    /// Preference order over `nodes` for placing `demand`. Must return
    /// a permutation of the candidates' ids; the coordinator tries them
    /// in order until one admits.
    fn rank(&mut self, nodes: &[NodeSummary], demand: &AppDemand) -> Vec<NodeId>;
}

/// Load-oblivious rotation: node `k`, then `k+1`, ... — the classic
/// count-balancing baseline.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Start the rotation at node 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl PlacePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn rank(&mut self, nodes: &[NodeSummary], _demand: &AppDemand) -> Vec<NodeId> {
        if nodes.is_empty() {
            return Vec::new();
        }
        let start = self.cursor % nodes.len();
        self.cursor = self.cursor.wrapping_add(1);
        (0..nodes.len()).map(|i| nodes[(start + i) % nodes.len()].node).collect()
    }
}

/// Uniform random order, deterministic in the seed — the luck baseline.
#[derive(Debug, Clone)]
pub struct RandomPlace {
    rng: StdRng,
}

impl RandomPlace {
    /// A placer with its own deterministic stream.
    fn seeded(seed: u64) -> RandomPlace {
        RandomPlace { rng: StdRng::seed_from_u64(seed) }
    }
}

impl PlacePolicy for RandomPlace {
    fn name(&self) -> &'static str {
        "random"
    }

    fn rank(&mut self, nodes: &[NodeSummary], _demand: &AppDemand) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = nodes.iter().map(|n| n.node).collect();
        // Fisher–Yates
        for i in (1..ids.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        ids
    }
}

/// The default scoring placer: spread by population, score by marginal
/// delivery. The primary key balances application count across nodes —
/// per-node replan cost and schedule quality both degrade with composed
/// graph size, so count balance is what keeps every node's realised
/// period close to its modelled one. Among equally-populated nodes the
/// scorer then prefers the highest predicted marginal
/// aggregate-throughput gain (`AppDemand::throughput_gain`): the
/// affinity half, steering each arrival to the node where its delivered
/// instances cost the residents least. Nodes whose local stores cannot
/// hold the application's working set are demoted a class, predicted
/// cap-breakers two; final ties break toward lower ids.
#[derive(Debug, Clone, Default)]
pub struct LoadAffinity {
    /// Per-instance period cap used for the guarantee penalty.
    pub cap: Option<f64>,
}

impl PlacePolicy for LoadAffinity {
    fn name(&self) -> &'static str {
        "load_affinity"
    }

    fn rank(&mut self, nodes: &[NodeSummary], demand: &AppDemand) -> Vec<NodeId> {
        // (penalty class, n_apps, -gain, id): classes keep the store
        // and cap penalties ordinal; corrupt summaries sink
        let mut scored: Vec<(u8, usize, f64, NodeId)> = nodes
            .iter()
            .map(|n| {
                let gain = demand.throughput_gain(n);
                let mut class = 0u8;
                if demand.buffer_bytes > n.store_free() {
                    class = 1;
                }
                if !demand.fits(n, self.cap) {
                    class = 2;
                }
                if gain.is_nan() {
                    class = 3; // corrupt summary: never preferred
                }
                (class, n.n_apps, gain, n.node)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(b.2.total_cmp(&a.2)).then(a.3.cmp(&b.3))
        });
        scored.into_iter().map(|(_, _, _, n)| n).collect()
    }
}

/// Look up a placement policy by registry name; `None` for unknown
/// names. `cap` feeds the scoring policy's guarantee penalty;
/// `seed` only matters for `"random"`.
pub fn policy_by_name(name: &str, cap: Option<f64>, seed: u64) -> Option<Box<dyn PlacePolicy>> {
    match name {
        "load_affinity" => Some(Box::new(LoadAffinity { cap })),
        "random" => Some(Box::new(RandomPlace::seeded(seed))),
        "round_robin" => Some(Box::new(RoundRobin::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::TaskSpec;
    use cellstream_platform::CellSpec;

    fn demand(spe_cost: f64, bytes: f64) -> AppDemand {
        let mut b = StreamGraph::builder("d");
        let s = b.add_task(TaskSpec::new("s").ppe_cost(2.0 * spe_cost).spe_cost(spe_cost));
        let t = b.add_task(TaskSpec::new("t").ppe_cost(2.0 * spe_cost).spe_cost(spe_cost));
        b.add_edge(s, t, bytes).unwrap();
        AppDemand::of(&b.build().unwrap(), 1.0)
    }

    fn summary(node: usize, period: f64, n_apps: usize) -> NodeSummary {
        let mut s = NodeSummary::idle(NodeId(node), &CellSpec::qs22());
        s.period = period;
        s.n_apps = n_apps;
        s.min_weight = if n_apps > 0 { 1.0 } else { f64::INFINITY };
        s
    }

    #[test]
    fn load_affinity_prefers_the_coolest_node() {
        let nodes = [summary(0, 9e-6, 3), summary(1, 2e-6, 1), summary(2, f64::INFINITY, 0)];
        let order = LoadAffinity::default().rank(&nodes, &demand(1e-6, 64.0));
        assert_eq!(order, vec![NodeId(2), NodeId(1), NodeId(0)], "idle, then cool, then hot");
    }

    #[test]
    fn load_affinity_ties_break_toward_fewer_apps_then_id() {
        let mut a = summary(0, 5e-6, 4);
        let mut b = summary(1, 5e-6, 2);
        a.min_weight = 1.0;
        b.min_weight = 1.0;
        let order = LoadAffinity::default().rank(&[a, b], &demand(1e-6, 64.0));
        assert_eq!(order[0], NodeId(1), "equal load: fewer apps wins");
        let order = LoadAffinity::default()
            .rank(&[summary(0, 5e-6, 2), summary(1, 5e-6, 2)], &demand(1e-6, 64.0));
        assert_eq!(order[0], NodeId(0), "full tie: lowest id wins");
    }

    #[test]
    fn round_robin_rotates_and_random_is_seed_deterministic() {
        let nodes = [summary(0, 1e-6, 1), summary(1, 1e-6, 1), summary(2, 1e-6, 1)];
        let d = demand(1e-6, 64.0);
        let mut rr = RoundRobin::new();
        assert_eq!(rr.rank(&nodes, &d)[0], NodeId(0));
        assert_eq!(rr.rank(&nodes, &d)[0], NodeId(1));
        assert_eq!(rr.rank(&nodes, &d)[0], NodeId(2));
        assert_eq!(rr.rank(&nodes, &d)[0], NodeId(0));

        let seq = |seed| {
            let mut r = RandomPlace::seeded(seed);
            (0..8).flat_map(|_| r.rank(&nodes, &d)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7), "same seed, same stream");
        let mut sorted = RandomPlace::seeded(7).rank(&nodes, &d);
        sorted.sort();
        assert_eq!(sorted, vec![NodeId(0), NodeId(1), NodeId(2)], "a permutation, not a sample");
    }

    #[test]
    fn nan_periods_sink_instead_of_poisoning_the_sort() {
        let mut poisoned = summary(0, f64::NAN, 1);
        poisoned.n_apps = 1;
        let nodes = [poisoned, summary(1, 3e-6, 1)];
        let order = LoadAffinity::default().rank(&nodes, &demand(1e-6, 64.0));
        assert_eq!(order, vec![NodeId(1), NodeId(0)]);
    }

    /// Registry names of every placement policy, sorted.
    const PLACER_NAMES: [&str; 3] = ["load_affinity", "random", "round_robin"];

    #[test]
    fn policy_registry_is_closed_and_sorted() {
        assert!(PLACER_NAMES.windows(2).all(|w| w[0] < w[1]));
        for name in PLACER_NAMES {
            assert_eq!(policy_by_name(name, None, 1).expect(name).name(), name);
        }
        assert!(policy_by_name("nope", None, 1).is_none());
    }

    use cellstream_graph::StreamGraph;
}
