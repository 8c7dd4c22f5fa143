//! Fleet serving: one coordinator sharding the serving loop across a
//! small cluster of Cell nodes — applications placed by the scoring
//! placer, a node drained for maintenance with every cross-node move
//! priced by the network model, then the fleet rebalanced.
//!
//! Run with `cargo run --release --example cluster_serving`.

use cellstream::cluster::ClusterVerdict;
use cellstream::daggen::{chain, CostParams};
use cellstream::prelude::*;

fn main() {
    // four QS22 blades behind one coordinator that owns their agents
    // and calls them directly; the scoring placer and a 10 GbE-class
    // network model are the defaults
    let mut fleet = Cluster::homogeneous(4, &CellSpec::qs22(), ClusterOptions::default());

    println!("{:<22} {:>12} {:>12} {:>10}", "event", "verdict", "period(us)", "ms");
    let describe = |report: &ClusterReport| {
        println!(
            "{:<22} {:>12} {:>12.3} {:>10.2}",
            report.event,
            match &report.verdict {
                ClusterVerdict::Admitted(node) => format!("{node}"),
                ClusterVerdict::Drained { moved, stranded } =>
                    format!("moved {moved}/{}", moved + stranded),
                ClusterVerdict::Rebalanced { moved } => format!("moved {moved}"),
                other => format!("{other:?}").chars().take(12).collect(),
            },
            report.max_period * 1e6,
            report.latency.as_secs_f64() * 1e3,
        );
        for m in &report.migrations {
            println!(
                "  └ {} {} -> {}: {:.1} KiB over the network in {:.3} ms",
                m.app,
                m.from,
                m.to,
                m.bytes / 1024.0,
                m.seconds * 1e3
            );
        }
    };

    // a dozen pipelines of mixed size and rate spread across the fleet
    for i in 0..12 {
        let g = chain(&format!("app{i:02}"), 2 + i % 4, &CostParams::default(), 7 + i as u64);
        describe(&fleet.admit(&g, 1.0 + (i % 3) as f64));
    }
    describe(&fleet.reweight("app03", 4.0).expect("app03 is placed"));
    describe(&fleet.retire("app07").expect("app07 is placed"));

    // take node 0 out for maintenance: every resident application is
    // admitted elsewhere *before* being retired here (make-before-break),
    // and each move pays the network, not the EIB
    describe(&fleet.drain(NodeId(0)).expect("node 0 exists"));

    // bring it back and let the coordinator even the fleet out again —
    // a move happens only when the predicted period gain amortises the
    // network transfer over the migration horizon
    fleet.undrain(NodeId(0)).expect("node 0 exists");
    describe(&fleet.rebalance());

    let status = fleet.status();
    println!("\nfleet of {} nodes, {} applications:", status.nodes.len(), status.n_apps);
    for n in &status.nodes {
        println!("  {n}");
    }
}
