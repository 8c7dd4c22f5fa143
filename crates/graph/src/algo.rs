//! Topological utilities on task graphs.

use crate::edge::Edge;
use crate::graph::{GraphError, StreamGraph};
use crate::task::TaskId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Kahn's algorithm with a min-id tie-break, so the order is deterministic
/// and independent of edge insertion order. Returns `GraphError::Cycle`
/// naming a task on a cycle if the edge set is not acyclic.
pub(crate) fn topological_order(n_tasks: usize, edges: &[Edge]) -> Result<Vec<TaskId>, GraphError> {
    let mut indeg = vec![0usize; n_tasks];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n_tasks];
    for e in edges {
        indeg[e.dst.0] += 1;
        succ[e.src.0].push(e.dst.0);
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n_tasks).filter(|&t| indeg[t] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n_tasks);
    while let Some(Reverse(t)) = ready.pop() {
        order.push(TaskId(t));
        for &s in &succ[t] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    if order.len() != n_tasks {
        let on_cycle =
            indeg.iter().position(|&d| d > 0).expect("some task kept positive in-degree");
        return Err(GraphError::Cycle(TaskId(on_cycle)));
    }
    Ok(order)
}

/// Depth of each task: longest path (in hops) from any source.
/// Sources have depth 0.
pub fn depths(g: &StreamGraph) -> Vec<usize> {
    let mut depth = vec![0usize; g.n_tasks()];
    for &t in g.topo_order() {
        for p in g.predecessors(t) {
            depth[t.0] = depth[t.0].max(depth[p.0] + 1);
        }
    }
    depth
}

/// Length of the longest source→sink path in hops (number of edges).
/// A single task gives 0.
pub fn critical_path_hops(g: &StreamGraph) -> usize {
    depths(g).into_iter().max().unwrap_or(0)
}

/// Number of weakly-connected components.
pub fn n_components(g: &StreamGraph) -> usize {
    let n = g.n_tasks();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for e in g.edges() {
        let (a, b) = (find(&mut parent, e.src.0), find(&mut parent, e.dst.0));
        if a != b {
            parent[a] = b;
        }
    }
    (0..n).map(|x| find(&mut parent, x)).collect::<std::collections::BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn chain(n: usize) -> StreamGraph {
        let mut b = StreamGraph::builder("chain");
        let ids: Vec<_> = (0..n).map(|i| b.add_task(TaskSpec::new(format!("t{i}")))).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 8.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_depths_increase() {
        let g = chain(5);
        assert_eq!(depths(&g), vec![0, 1, 2, 3, 4]);
        assert_eq!(critical_path_hops(&g), 4);
    }

    #[test]
    fn single_task_graph() {
        let g = chain(1);
        assert_eq!(critical_path_hops(&g), 0);
        assert_eq!(n_components(&g), 1);
    }

    #[test]
    fn diamond_depth_takes_longest_branch() {
        let mut b = StreamGraph::builder("diamond");
        let a = b.add_task(TaskSpec::new("a"));
        let l1 = b.add_task(TaskSpec::new("l1"));
        let l2 = b.add_task(TaskSpec::new("l2"));
        let r = b.add_task(TaskSpec::new("r"));
        let z = b.add_task(TaskSpec::new("z"));
        b.add_edge(a, l1, 1.0).unwrap();
        b.add_edge(l1, l2, 1.0).unwrap();
        b.add_edge(a, r, 1.0).unwrap();
        b.add_edge(l2, z, 1.0).unwrap();
        b.add_edge(r, z, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(depths(&g)[z.0], 3);
        assert_eq!(n_components(&g), 1);
    }

    #[test]
    fn disconnected_components_counted() {
        let mut b = StreamGraph::builder("two");
        let a = b.add_task(TaskSpec::new("a"));
        let bb = b.add_task(TaskSpec::new("b"));
        let c = b.add_task(TaskSpec::new("c"));
        let d = b.add_task(TaskSpec::new("d"));
        b.add_edge(a, bb, 1.0).unwrap();
        b.add_edge(c, d, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(n_components(&g), 2);
    }
}
