//! Streaming application model (paper §2.2).
//!
//! A streaming application is a directed acyclic graph `G_A = (V_A, E_A)`:
//!
//! * nodes are **tasks** `T_1 .. T_K`, each carrying unrelated compute
//!   costs `wPPE(T_k)` / `wSPE(T_k)` (seconds per stream instance), a
//!   **peek** depth (how many *future* instances of every input the task
//!   must observe before processing instance `i`), per-instance main-memory
//!   traffic `read_k` / `write_k` (bytes), and a *stateful* flag (present
//!   on the paper's Figure 5 task labels; a stateful task carries state
//!   from instance `i` to `i+1` and can therefore never be replicated —
//!   irrelevant under single-assignment mappings but kept for fidelity);
//! * edges are **data dependencies** `D_{k,l}` of `data_{k,l}` bytes per
//!   instance: instance `i` of `T_l` consumes instance `i` (and, with
//!   peek, `i+1 .. i+peek_l`) of every incoming datum.
//!
//! The crate also provides the **communication-to-computation ratio**
//! (CCR) tooling used by the paper's §6.2 workload sweep, topological
//! utilities, and serde round-tripping.
//!
//! # Example
//!
//! ```
//! use cellstream_graph::{StreamGraph, TaskSpec};
//!
//! // The two-filter video pipeline of Figure 2(a).
//! let mut g = StreamGraph::builder("fig2a");
//! let t1 = g.add_task(TaskSpec::new("T1").ppe_cost(4e-3).spe_cost(1e-3));
//! let t2 = g.add_task(TaskSpec::new("T2").ppe_cost(2e-3).spe_cost(8e-4));
//! g.add_edge(t1, t2, 64.0 * 1024.0).unwrap();
//! let g = g.build().unwrap();
//! assert_eq!(g.n_tasks(), 2);
//! assert_eq!(g.topo_order()[0], t1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod ccr;
pub mod edge;
pub mod graph;
pub mod task;
pub mod workload;

pub use ccr::CcrReport;
pub use edge::{Edge, EdgeId};
pub use graph::{GraphBuilder, GraphError, StreamGraph};
pub use task::{Task, TaskId, TaskSpec};
pub use workload::{AppId, AppInfo, Workload, WorkloadBatch, WorkloadBuilder, WorkloadError};

#[cfg(test)]
mod tests;
