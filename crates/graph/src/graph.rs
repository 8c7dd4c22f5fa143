//! The streaming task graph container and its builder.

use crate::algo;
use crate::edge::{Edge, EdgeId};
use crate::task::{Task, TaskId, TaskSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

impl Serialize for StreamGraph {
    fn to_value(&self) -> serde::Value {
        // Only the three serialised fields are cloned; the cached
        // adjacency and topo-order vectors are rebuilt on load.
        SerialGraph {
            name: self.name.clone(),
            tasks: self.tasks.clone(),
            edges: self.edges.clone(),
        }
        .to_value()
    }
}

impl Deserialize for StreamGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = SerialGraph::from_value(v)?;
        StreamGraph::try_from(s).map_err(|e| serde::Error::new(e.to_string()))
    }
}

/// Errors raised while building or deserialising a [`StreamGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A task id referenced by an edge does not exist.
    UnknownTask(TaskId),
    /// Two tasks share the same name.
    DuplicateName(String),
    /// Two edges connect the same ordered pair of tasks.
    DuplicateEdge(TaskId, TaskId),
    /// A self-loop was requested.
    SelfLoop(TaskId),
    /// The edge set contains a directed cycle (listing one offending task).
    Cycle(TaskId),
    /// A task spec failed validation (message from [`TaskSpec`]).
    InvalidTask(String),
    /// An edge payload was negative or non-finite.
    InvalidEdgeData(TaskId, TaskId, f64),
    /// The graph has no tasks.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "unknown task {t}"),
            GraphError::DuplicateName(n) => write!(f, "duplicate task name '{n}'"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on {t}"),
            GraphError::Cycle(t) => write!(f, "the task graph has a cycle through {t}"),
            GraphError::InvalidTask(msg) => write!(f, "invalid task: {msg}"),
            GraphError::InvalidEdgeData(a, b, v) => {
                write!(f, "edge {a} -> {b} has invalid data size {v}")
            }
            GraphError::Empty => write!(f, "the task graph has no tasks"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated streaming application graph (immutable).
///
/// Guaranteed invariants:
/// * the graph is a non-empty DAG with no self-loops or duplicate edges;
/// * task names are unique;
/// * all costs and byte counts are non-negative finite (zero-work tasks
///   are legal; downstream float orderings are NaN-safe by construction);
/// * `topo_order` is a cached topological order (stable across runs:
///   Kahn's algorithm with a min-id tie-break).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per task.
    succ: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per task.
    pred: Vec<Vec<EdgeId>>,
    topo: Vec<TaskId>,
}

impl StreamGraph {
    /// Start building a graph.
    pub fn builder(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder { name: name.into(), tasks: Vec::new(), edges: Vec::new() }
    }

    /// Graph name (used in reports and DOT output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `K`.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges `|E_A|`.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Task lookup. Panics on out-of-range ids (ids are only minted by the
    /// owning builder, so this indicates a cross-graph mix-up).
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.0]
    }

    /// Edge lookup.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// Iterate over task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Iterate over edge ids in index order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Outgoing edges of `t`.
    pub fn out_edges(&self, t: TaskId) -> &[EdgeId] {
        &self.succ[t.0]
    }

    /// Incoming edges of `t`.
    pub fn in_edges(&self, t: TaskId) -> &[EdgeId] {
        &self.pred[t.0]
    }

    /// Successor tasks of `t` (in edge insertion order).
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succ[t.0].iter().map(move |&e| self.edges[e.0].dst)
    }

    /// Predecessor tasks of `t` (in edge insertion order).
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.pred[t.0].iter().map(move |&e| self.edges[e.0].src)
    }

    /// Tasks with no predecessors (stream sources).
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(move |&t| self.pred[t.0].is_empty())
    }

    /// Tasks with no successors (stream sinks).
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(move |&t| self.succ[t.0].is_empty())
    }

    /// A cached, deterministic topological order of the tasks.
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Sum of `wPPE` over all tasks: the period of the PPE-only mapping,
    /// ignoring memory traffic (speed-up denominators in §6.4.2 are
    /// normalised against the PPE-only throughput).
    pub fn total_ppe_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.w_ppe).sum()
    }

    /// Sum of `wSPE` over all tasks.
    pub fn total_spe_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.w_spe).sum()
    }

    /// Total bytes moved across edges per instance.
    pub fn total_edge_bytes(&self) -> f64 {
        self.edges.iter().map(|e| e.data_bytes).sum()
    }

    /// Total main-memory traffic per instance (`Σ read_k + write_k`).
    pub fn total_memory_bytes(&self) -> f64 {
        self.tasks.iter().map(|t| t.read_bytes + t.write_bytes).sum()
    }

    /// Find a task id by name.
    pub fn find(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// A copy of this graph under another name, tasks and edges
    /// untouched. Application names must be unique within a
    /// [`Workload`](crate::Workload), so admitting the same pipeline
    /// twice (two video streams, say) goes through a rename.
    pub fn renamed(&self, name: impl Into<String>) -> StreamGraph {
        let mut g = self.clone();
        g.name = name.into();
        g
    }

    /// A copy with every task's compute costs (`wPPE`, `wSPE`) scaled by
    /// `factor` — traffic and buffer bytes untouched, mirroring
    /// [`WorkloadBatch::rescale_costs`](crate::WorkloadBatch::rescale_costs):
    /// misestimated compute does not move bytes. Panics on a non-finite
    /// or non-positive factor (callers validate, as with weights).
    pub fn rescale_costs(&self, factor: f64) -> StreamGraph {
        assert!(factor.is_finite() && factor > 0.0, "drift factor must be positive, got {factor}");
        self.with_scaled(
            |t| {
                let mut t = t.clone();
                t.w_ppe *= factor;
                t.w_spe *= factor;
                t
            },
            Edge::clone,
        )
    }

    /// Rebuild with mutated tasks/edges (used by the CCR rescaler).
    /// Cheap revalidation: topology is untouched, so only numeric checks run.
    pub(crate) fn with_scaled(
        &self,
        mut scale_task: impl FnMut(&Task) -> Task,
        mut scale_edge: impl FnMut(&Edge) -> Edge,
    ) -> StreamGraph {
        let mut g = self.clone();
        g.tasks = self.tasks.iter().map(&mut scale_task).collect();
        g.edges = self.edges.iter().map(&mut scale_edge).collect();
        for (old, new) in self.edges.iter().zip(&g.edges) {
            assert_eq!((old.src, old.dst), (new.src, new.dst), "scaling must not rewire");
        }
        g
    }
}

/// Mutable builder for [`StreamGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    tasks: Vec<TaskSpec>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Add a task, returning its id.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(spec);
        id
    }

    /// Add a dependency `src -> dst` carrying `data_bytes` per instance.
    ///
    /// Errors immediately on self-loops, unknown endpoints, duplicate
    /// edges and invalid payloads; cycle detection is deferred to
    /// [`build`](Self::build).
    pub fn add_edge(
        &mut self,
        src: TaskId,
        dst: TaskId,
        data_bytes: f64,
    ) -> Result<EdgeId, GraphError> {
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        for &t in [src, dst].iter() {
            if t.0 >= self.tasks.len() {
                return Err(GraphError::UnknownTask(t));
            }
        }
        if !(data_bytes.is_finite() && data_bytes >= 0.0) {
            return Err(GraphError::InvalidEdgeData(src, dst, data_bytes));
        }
        if self.edges.iter().any(|e| e.src == src && e.dst == dst) {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, data_bytes });
        Ok(id)
    }

    /// Number of tasks added so far.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Validate everything and freeze the graph.
    pub fn build(self) -> Result<StreamGraph, GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut names = BTreeMap::new();
        for (i, spec) in self.tasks.iter().enumerate() {
            spec.validate().map_err(GraphError::InvalidTask)?;
            if let Some(_prev) = names.insert(spec.name.clone(), i) {
                return Err(GraphError::DuplicateName(spec.name.clone()));
            }
        }
        let n = self.tasks.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            succ[e.src.0].push(EdgeId(i));
            pred[e.dst.0].push(EdgeId(i));
        }
        let topo = algo::topological_order(n, &self.edges)?;
        Ok(StreamGraph {
            name: self.name,
            tasks: self.tasks.into_iter().map(TaskSpec::into_task).collect(),
            edges: self.edges,
            succ,
            pred,
            topo,
        })
    }
}

/// Flat serialisation mirror of [`StreamGraph`]; re-validated on load so a
/// hand-edited JSON file cannot smuggle in a cyclic or malformed graph.
struct SerialGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

serde::impl_json_struct!(SerialGraph { name, tasks, edges });

impl From<StreamGraph> for SerialGraph {
    fn from(g: StreamGraph) -> Self {
        SerialGraph { name: g.name, tasks: g.tasks, edges: g.edges }
    }
}

impl TryFrom<SerialGraph> for StreamGraph {
    type Error = GraphError;

    fn try_from(s: SerialGraph) -> Result<Self, GraphError> {
        let mut b = StreamGraph::builder(s.name);
        for t in s.tasks {
            b.add_task(t.to_spec());
        }
        for e in s.edges {
            b.add_edge(e.src, e.dst, e.data_bytes)?;
        }
        b.build()
    }
}
