//! Multi-application workloads: N streaming applications composed into
//! one tagged graph, sharing a single Cell.
//!
//! The paper schedules one application at a time, but its target
//! scenario — a Cell blade serving media workloads — runs several
//! pipelines at once (cf. Benoit et al., *Resource Allocation for
//! Multiple Concurrent In-Network Stream-Processing Applications*).
//! A [`Workload`] composes the applications' graphs into one
//! [`StreamGraph`] so every existing scheduler, evaluator and simulator
//! plans them **jointly**, with tasks from different applications free
//! to share processing elements.
//!
//! # Composition semantics
//!
//! The composed steady state is a common **round** of period `T`. Each
//! application `A_i` carries a positive *weight* `w_i` (its relative
//! throughput target, instances per round): per round, `w_i` instances
//! of `A_i` are processed, so its per-instance period is `T_i = T / w_i`
//! and its throughput is `ρ_i = w_i / T`. Composition realises this by
//! scaling `A_i`'s compute costs, memory traffic and edge payloads by
//! `w_i` in the composed graph — one composed instance of an `A_i` task
//! does `w_i` instances' worth of work (the fluid interpretation; weights
//! are usually small integers or 1).
//!
//! Because `w_i · T_i = T` for every application simultaneously, the
//! composed period *is* the maximum weighted per-application period:
//! minimising `T` — which is exactly what every scheduler in this
//! workspace already does — minimises `max_i w_i · T_i`. No algorithm
//! changes are needed; the composed graph is a plain [`StreamGraph`].
//!
//! Namespaces are kept disjoint: task `t` of application `app` appears
//! as `"app/t"` in the composed graph, edges only ever connect tasks of
//! the same application, and [`Workload::app_of`] maps every composed
//! task back to its [`AppId`].
//!
//! # Mutation (online workloads)
//!
//! A workload is not frozen at build time: the serving layer
//! (`cellstream-serve`) admits and retires applications while the
//! platform runs. An edit changes the applications' *unscaled*
//! sources and composes the tagged graph once over the result, either
//! in place through the guard [`Workload::batch`], which recomposes when
//! it commits or drops, or into a new workload through a
//! [`WorkloadBuilder`] started from [`Workload::to_builder`], which
//! copies the sources and not the composed graph. Either way an edited
//! workload is indistinguishable from one built from scratch over the
//! surviving applications (the property suite pins this exactly). The
//! guard and the builder share one copy of the add, retire, reweight
//! and drift edits, of their name, weight and factor checks and of the
//! source capture.
//! [`AppId`]s are positional: retiring an application
//! shifts every later application down by one — callers that need stable
//! identities across churn (the serving layer does) keep their own
//! handle → name map and resolve through [`Workload::app_id`].
//!
//! # Example
//!
//! ```
//! use cellstream_graph::{StreamGraph, TaskSpec, Workload};
//!
//! let mut a = StreamGraph::builder("a");
//! let t = a.add_task(TaskSpec::new("t").uniform_cost(1e-6));
//! let u = a.add_task(TaskSpec::new("u").uniform_cost(1e-6));
//! a.add_edge(t, u, 64.0).unwrap();
//! let a = a.build().unwrap();
//!
//! let mut b = StreamGraph::builder("b");
//! b.add_task(TaskSpec::new("t").uniform_cost(2e-6));
//! let b = b.build().unwrap();
//!
//! let mut w = Workload::builder("pair");
//! w.push(&a, 1.0).unwrap();
//! w.push(&b, 2.0).unwrap(); // b wants twice a's rate
//! let w = w.build().unwrap();
//! assert_eq!(w.n_apps(), 2);
//! assert_eq!(w.graph().n_tasks(), 3);
//! // b's task cost is scaled by its weight in the composed round
//! let tb = w.graph().find("b/t").unwrap();
//! assert!((w.graph().task(tb).w_ppe - 4e-6).abs() < 1e-18);
//! ```

use crate::graph::{GraphError, StreamGraph};
use crate::task::{TaskId, TaskSpec};
use std::fmt;
use std::ops::Range;

/// Identifier of an application inside one [`Workload`]: a dense index
/// `0..N` in push order. Positional — see the module docs for what
/// happens under [`WorkloadBatch::retire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AppId(pub usize);

impl AppId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Errors raised while composing or editing a [`Workload`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Two applications share the same name (names key the reports).
    DuplicateApp(String),
    /// A weight was zero, negative or non-finite.
    InvalidWeight(String, f64),
    /// The workload has no applications (building an empty one, or
    /// committing a batch that retired every application — drop the
    /// workload instead).
    Empty,
    /// An [`AppId`] outside the workload was passed to a batch edit.
    UnknownApp(AppId),
    /// Composing the graphs failed (should not happen for valid inputs;
    /// surfaced rather than unwrapped).
    Graph(GraphError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::DuplicateApp(n) => write!(f, "duplicate application name '{n}'"),
            WorkloadError::InvalidWeight(n, w) => {
                write!(f, "application '{n}': weight must be positive finite, got {w}")
            }
            WorkloadError::Empty => write!(f, "the workload has no applications"),
            WorkloadError::UnknownApp(a) => write!(f, "no application {a} in this workload"),
            WorkloadError::Graph(e) => write!(f, "composing the workload graph failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<GraphError> for WorkloadError {
    fn from(e: GraphError) -> Self {
        WorkloadError::Graph(e)
    }
}

/// One application's slice of the composed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct AppInfo {
    /// Application name (the source graph's name).
    pub name: String,
    /// Relative throughput target `w_i` (instances per composed round).
    pub weight: f64,
    /// Composed task indices `task_range.start..task_range.end` belong to
    /// this application, in the source graph's task-id order.
    pub tasks: Range<usize>,
    /// Composed edge indices belonging to this application.
    pub edges: Range<usize>,
    /// This application's sink tasks, as composed task ids.
    pub sinks: Vec<TaskId>,
}

impl AppInfo {
    /// Number of tasks this application contributes.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }
}

/// One application's *unscaled* source material: what it looked like
/// before weight scaling and name prefixing. Kept by the workload so
/// a [`WorkloadBatch`] can recompose the tagged graph exactly as a
/// from-scratch build over the surviving applications would.
#[derive(Debug, Clone, PartialEq)]
struct AppSource {
    name: String,
    weight: f64,
    specs: Vec<TaskSpec>,
    /// Edges as application-local `(src, dst, bytes)` triples.
    edges: Vec<(usize, usize, f64)>,
}

/// The one weight and drift-factor check: positive and finite.
fn check_positive(app: &str, x: f64) -> Result<(), WorkloadError> {
    match x.is_finite() && x > 0.0 {
        true => Ok(()),
        false => Err(WorkloadError::InvalidWeight(app.to_owned(), x)),
    }
}

/// Position of the named application in a source list.
fn position(sources: &[AppSource], name: &str) -> Option<AppId> {
    sources.iter().position(|s| s.name == name).map(AppId)
}

/// Capture `g` at `weight` as the last application of `sources`: the
/// one duplicate-name check, weight check and capture behind both
/// [`WorkloadBuilder::push`] and [`WorkloadBatch::add`]. The list is
/// untouched on error.
fn push_source(
    sources: &mut Vec<AppSource>,
    g: &StreamGraph,
    weight: f64,
) -> Result<AppId, WorkloadError> {
    if position(sources, g.name()).is_some() {
        return Err(WorkloadError::DuplicateApp(g.name().to_owned()));
    }
    check_positive(g.name(), weight)?;
    sources.push(AppSource {
        name: g.name().to_owned(),
        weight,
        specs: g.tasks().iter().map(crate::task::Task::to_spec).collect(),
        edges: g.edges().iter().map(|e| (e.src.index(), e.dst.index(), e.data_bytes)).collect(),
    });
    Ok(AppId(sources.len() - 1))
}

/// Drop application `a` from a source list; later applications shift
/// down by one.
fn retire_source(sources: &mut Vec<AppSource>, a: AppId) -> Result<(), WorkloadError> {
    if a.index() >= sources.len() {
        return Err(WorkloadError::UnknownApp(a));
    }
    sources.remove(a.index());
    Ok(())
}

/// Apply `change` to application `a`'s source once `x` (a weight or
/// drift factor) passed the check. The list is untouched on error.
fn edit_source(
    sources: &mut [AppSource],
    a: AppId,
    x: f64,
    change: impl FnOnce(&mut AppSource),
) -> Result<(), WorkloadError> {
    let src = sources.get_mut(a.index()).ok_or(WorkloadError::UnknownApp(a))?;
    check_positive(&src.name, x)?;
    change(src);
    Ok(())
}

/// Multiply an application's declared compute costs by `factor`.
fn rescale(src: &mut AppSource, factor: f64) {
    for spec in &mut src.specs {
        spec.w_ppe *= factor;
        spec.w_spe *= factor;
    }
}

/// Compose a source list into the tagged graph + per-app metadata. The
/// single code path behind [`WorkloadBuilder::build`] and every
/// [`WorkloadBatch`] commit, which is what makes "edited == rebuilt
/// from scratch" hold bit-for-bit.
#[allow(clippy::type_complexity)]
fn compose_sources(
    name: &str,
    sources: &[AppSource],
) -> Result<(StreamGraph, Vec<AppInfo>, Vec<AppId>), WorkloadError> {
    if sources.is_empty() {
        return Err(WorkloadError::Empty);
    }
    let mut b = StreamGraph::builder(name.to_owned());
    let mut apps = Vec::with_capacity(sources.len());
    let mut app_of = Vec::new();
    let mut task_base = 0usize;
    let mut edge_base = 0usize;
    for (i, src) in sources.iter().enumerate() {
        for spec in &src.specs {
            let mut spec = spec.clone();
            // weight scaling: one composed instance of this task does
            // `weight` instances' worth of work (peek is an instance
            // count, not work — it stays)
            spec.name = format!("{}/{}", src.name, spec.name);
            spec.w_ppe *= src.weight;
            spec.w_spe *= src.weight;
            spec.read_bytes *= src.weight;
            spec.write_bytes *= src.weight;
            b.add_task(spec);
            app_of.push(AppId(i));
        }
        for &(s, d, bytes) in &src.edges {
            b.add_edge(TaskId(task_base + s), TaskId(task_base + d), bytes * src.weight)?;
        }
        apps.push(AppInfo {
            name: src.name.clone(),
            weight: src.weight,
            tasks: task_base..task_base + src.specs.len(),
            edges: edge_base..edge_base + src.edges.len(),
            sinks: Vec::new(),
        });
        task_base += src.specs.len();
        edge_base += src.edges.len();
    }
    let graph = b.build()?;
    for t in graph.task_ids() {
        if graph.out_edges(t).is_empty() {
            apps[app_of[t.index()].index()].sinks.push(t);
        }
    }
    Ok((graph, apps, app_of))
}

/// N streaming applications composed into one tagged [`StreamGraph`].
/// See the module docs for the composition and editing semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    sources: Vec<AppSource>,
    graph: StreamGraph,
    apps: Vec<AppInfo>,
    /// Composed task index → owning application.
    app_of: Vec<AppId>,
}

impl Workload {
    /// Start composing a workload.
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder { name: name.into(), sources: Vec::new() }
    }

    /// Compose applications with uniform weight 1 in one call.
    pub fn compose(
        name: impl Into<String>,
        graphs: &[&StreamGraph],
    ) -> Result<Workload, WorkloadError> {
        let mut b = Workload::builder(name);
        for g in graphs {
            b.push(g, 1.0)?;
        }
        b.build()
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The composed graph: a plain [`StreamGraph`] every scheduler,
    /// evaluator and simulator in the workspace accepts unchanged.
    pub fn graph(&self) -> &StreamGraph {
        &self.graph
    }

    /// Number of applications `N`.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// Application ids in index order.
    pub fn app_ids(&self) -> impl Iterator<Item = AppId> {
        (0..self.apps.len()).map(AppId)
    }

    /// Per-application metadata.
    pub fn app(&self, a: AppId) -> &AppInfo {
        &self.apps[a.index()]
    }

    /// All applications, indexed by [`AppId`].
    pub fn apps(&self) -> &[AppInfo] {
        &self.apps
    }

    /// The id of the application with this name, if present.
    pub fn app_id(&self, name: &str) -> Option<AppId> {
        self.apps.iter().position(|a| a.name == name).map(AppId)
    }

    /// The application owning a composed task.
    pub fn app_of(&self, t: TaskId) -> AppId {
        self.app_of[t.index()]
    }

    /// Composed task ids of one application, in local id order.
    pub fn tasks_of(&self, a: AppId) -> impl Iterator<Item = TaskId> + '_ {
        self.apps[a.index()].tasks.clone().map(TaskId)
    }

    /// Sink tasks of one application (composed ids).
    pub fn sinks_of(&self, a: AppId) -> &[TaskId] {
        &self.apps[a.index()].sinks
    }

    /// Rebuild one application as a standalone graph, **with** its weight
    /// scaling baked in — planning this subgraph alone optimises exactly
    /// this application's share of the composed round. Task ids of the
    /// result are the application-local ids (composed id − range start).
    pub fn subgraph(&self, a: AppId) -> StreamGraph {
        let info = &self.apps[a.index()];
        let mut b = StreamGraph::builder(info.name.clone());
        for t in info.tasks.clone() {
            b.add_task(self.graph.tasks()[t].to_spec());
        }
        for e in info.edges.clone() {
            let edge = &self.graph.edges()[e];
            let src = TaskId(edge.src.index() - info.tasks.start);
            let dst = TaskId(edge.dst.index() - info.tasks.start);
            b.add_edge(src, dst, edge.data_bytes).expect("composed edges are valid");
        }
        b.build().expect("an application slice of a valid composition is valid")
    }

    /// Rebuild one application's **unscaled** source graph: the graph as
    /// originally admitted (original name and task names, no weight
    /// scaling; accumulated cost drift *is* included — drift corrects the
    /// declared costs themselves). This is what re-admission wants: the
    /// serving layer sheds applications back into its retry queue in this
    /// form, so a later [`WorkloadBatch::add`] with the same weight reproduces
    /// the composed slice exactly — [`Workload::subgraph`] would bake the
    /// weight in and double-scale on re-admission.
    pub fn source_graph(&self, a: AppId) -> StreamGraph {
        let src = &self.sources[a.index()];
        let mut b = StreamGraph::builder(src.name.clone());
        for spec in &src.specs {
            b.add_task(spec.clone());
        }
        for &(s, d, bytes) in &src.edges {
            b.add_edge(TaskId(s), TaskId(d), bytes).expect("captured edges are valid");
        }
        b.build().expect("a captured source is a valid graph")
    }

    /// Start an edit — the only way to change a built workload: add,
    /// retire, reweight and cost-drift operations on the returned guard
    /// edit the source list immediately but recompose the tagged graph
    /// **once**, when the guard commits (or drops). A burst of k churn
    /// events costs one composition instead of k — the serving layer's
    /// batch path rides on this.
    ///
    /// Until commit, the composed graph is stale; sequence further
    /// operations through the guard's source-list views
    /// ([`WorkloadBatch::n_apps`], [`WorkloadBatch::contains`],
    /// [`WorkloadBatch::position`]), not the workload's. The guard may
    /// retire down to zero applications mid-batch (to admit
    /// replacements afterwards); committing an emptied batch is
    /// [`WorkloadError::Empty`], and an emptied guard that merely drops
    /// leaves the workload fit only for dropping too.
    pub fn batch(&mut self) -> WorkloadBatch<'_> {
        WorkloadBatch { w: self, dirty: false }
    }

    /// A builder over this workload's applications, as pushed at their
    /// current weights and drift corrections: what a candidate edit of
    /// the workload starts from, without copying the composed graph.
    pub fn to_builder(&self) -> WorkloadBuilder {
        WorkloadBuilder { name: self.name.clone(), sources: self.sources.clone() }
    }

    /// Rebuild graph/apps/app_of from the current sources — exactly the
    /// from-scratch build path.
    fn recompose(&mut self) -> Result<(), WorkloadError> {
        let (graph, apps, app_of) = compose_sources(&self.name, &self.sources)?;
        self.graph = graph;
        self.apps = apps;
        self.app_of = app_of;
        Ok(())
    }
}

/// Deferred-recomposition edit guard — see [`Workload::batch`].
#[derive(Debug)]
pub struct WorkloadBatch<'a> {
    w: &'a mut Workload,
    dirty: bool,
}

impl WorkloadBatch<'_> {
    /// Applications currently in the batch (sources, not the stale
    /// composed graph).
    pub fn n_apps(&self) -> usize {
        self.w.sources.len()
    }

    /// `true` when an application with this name is in the batch.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Positional id of the named application, as of the operations so
    /// far.
    pub fn position(&self, name: &str) -> Option<AppId> {
        position(&self.w.sources, name)
    }

    /// Record an admission; the new application's positional id (valid
    /// after commit) is returned. The batch is untouched on error.
    pub fn add(&mut self, g: &StreamGraph, weight: f64) -> Result<AppId, WorkloadError> {
        let id = push_source(&mut self.w.sources, g, weight)?;
        self.dirty = true;
        Ok(id)
    }

    /// Record a retirement; later applications shift down by one id
    /// immediately (for subsequent batch operations).
    pub fn retire(&mut self, a: AppId) -> Result<(), WorkloadError> {
        retire_source(&mut self.w.sources, a)?;
        self.dirty = true;
        Ok(())
    }

    /// Record a weight change: the application's costs, traffic and
    /// edge payloads scale by the new weight. The batch is untouched on
    /// error.
    pub fn reweight(&mut self, a: AppId, weight: f64) -> Result<(), WorkloadError> {
        edit_source(&mut self.w.sources, a, weight, |src| src.weight = weight)?;
        self.dirty = true;
        Ok(())
    }

    /// Re-scale one application's *declared* compute costs by `factor` —
    /// the cost-drift channel of the fault model, for when the costs an
    /// application declared at admission turn out wrong at runtime
    /// (`factor > 1` underestimated, `< 1` overestimated). Drift
    /// multiplies `w_PPE`/`w_SPE` in the stored **source** specs, so it
    /// survives every later recomposition; traffic and buffer
    /// footprints are not touched — misestimated compute does not move
    /// bytes. Drift composes multiplicatively with the throughput weight
    /// and with further drift. The batch is untouched on error.
    pub fn rescale_costs(&mut self, a: AppId, factor: f64) -> Result<(), WorkloadError> {
        edit_source(&mut self.w.sources, a, factor, |src| rescale(src, factor))?;
        self.dirty = true;
        Ok(())
    }

    /// Recompose the tagged graph over the batch's final source list —
    /// the one composition the whole burst pays. After an `Ok` the
    /// workload is indistinguishable from a from-scratch build over the
    /// batch's final application list.
    pub fn commit(mut self) -> Result<(), WorkloadError> {
        if !self.dirty {
            return Ok(());
        }
        self.dirty = false; // disarm the drop-path recompose
        self.w.recompose()
    }
}

impl Drop for WorkloadBatch<'_> {
    fn drop(&mut self) {
        // best effort: never leave a non-empty workload stale. An
        // emptied batch cannot recompose — its workload must be dropped
        // (the commit path reports that as `Empty`).
        if self.dirty && !self.w.sources.is_empty() {
            self.w.recompose().expect("retained sources recompose");
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload '{}' [", self.name)?;
        for (i, app) in self.apps.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}×{}", app.name, app.weight)?;
        }
        write!(f, "]")
    }
}

/// Mutable builder for [`Workload`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    sources: Vec<AppSource>,
}

impl WorkloadBuilder {
    /// `true` when an application with this name was already pushed.
    pub fn contains(&self, name: &str) -> bool {
        position(&self.sources, name).is_some()
    }

    /// Add one application with the given throughput weight. The graph's
    /// name becomes the application name and must be unique within the
    /// workload.
    pub fn push(&mut self, g: &StreamGraph, weight: f64) -> Result<AppId, WorkloadError> {
        push_source(&mut self.sources, g, weight)
    }

    /// [`WorkloadBatch::retire`] on the pushed applications.
    pub fn retire(&mut self, a: AppId) -> Result<(), WorkloadError> {
        retire_source(&mut self.sources, a)
    }

    /// [`WorkloadBatch::reweight`] on the pushed applications.
    pub fn reweight(&mut self, a: AppId, weight: f64) -> Result<(), WorkloadError> {
        edit_source(&mut self.sources, a, weight, |src| src.weight = weight)
    }

    /// [`WorkloadBatch::rescale_costs`] on the pushed applications.
    pub fn rescale_costs(&mut self, a: AppId, factor: f64) -> Result<(), WorkloadError> {
        edit_source(&mut self.sources, a, factor, |src| rescale(src, factor))
    }

    /// Validate everything and freeze the composed workload.
    pub fn build(self) -> Result<Workload, WorkloadError> {
        let (graph, apps, app_of) = compose_sources(&self.name, &self.sources)?;
        Ok(Workload { name: self.name, sources: self.sources, graph, apps, app_of })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(name: &str, n: usize) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                b.add_task(
                    TaskSpec::new(format!("t{i}")).ppe_cost(2e-6).spe_cost(1e-6).reads(if i == 0 {
                        128.0
                    } else {
                        0.0
                    }),
                )
            })
            .collect();
        for w in tasks.windows(2) {
            b.add_edge(w[0], w[1], 256.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn composition_tags_and_namespaces() {
        let a = chain("a", 3);
        let b = chain("b", 2);
        let w = Workload::compose("w", &[&a, &b]).unwrap();
        assert_eq!(w.n_apps(), 2);
        assert_eq!(w.graph().n_tasks(), 5);
        assert_eq!(w.graph().n_edges(), 3);
        assert_eq!(w.app_of(TaskId(0)), AppId(0));
        assert_eq!(w.app_of(TaskId(4)), AppId(1));
        assert!(w.graph().find("a/t0").is_some());
        assert!(w.graph().find("b/t1").is_some());
        // edges never cross applications
        for e in w.graph().edges() {
            assert_eq!(w.app_of(e.src), w.app_of(e.dst));
        }
        // per-app sinks are that app's own
        assert_eq!(w.sinks_of(AppId(0)), &[TaskId(2)]);
        assert_eq!(w.sinks_of(AppId(1)), &[TaskId(4)]);
    }

    #[test]
    fn weights_scale_costs_and_traffic() {
        let a = chain("a", 2);
        let mut b = Workload::builder("w");
        b.push(&a, 3.0).unwrap();
        let w = b.build().unwrap();
        let t0 = w.graph().find("a/t0").unwrap();
        assert!((w.graph().task(t0).w_ppe - 6e-6).abs() < 1e-18);
        assert!((w.graph().task(t0).w_spe - 3e-6).abs() < 1e-18);
        assert!((w.graph().task(t0).read_bytes - 384.0).abs() < 1e-9);
        assert!((w.graph().edge(cellstream_edge(0)).data_bytes - 768.0).abs() < 1e-9);
    }

    fn cellstream_edge(i: usize) -> crate::edge::EdgeId {
        crate::edge::EdgeId(i)
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let a = chain("a", 2);
        let mut b = Workload::builder("w");
        b.push(&a, 1.0).unwrap();
        assert!(matches!(b.push(&a, 1.0), Err(WorkloadError::DuplicateApp(_))));
        assert!(matches!(b.push(&chain("z", 1), 0.0), Err(WorkloadError::InvalidWeight(_, _))));
        assert!(matches!(
            b.push(&chain("y", 1), f64::NAN),
            Err(WorkloadError::InvalidWeight(_, _))
        ));
        assert!(matches!(Workload::builder("e").build(), Err(WorkloadError::Empty)));
    }

    #[test]
    fn subgraph_round_trips_with_weight_baked_in() {
        let a = chain("a", 3);
        let b = chain("b", 2);
        let mut wb = Workload::builder("w");
        wb.push(&a, 1.0).unwrap();
        wb.push(&b, 2.0).unwrap();
        let w = wb.build().unwrap();
        let sb = w.subgraph(AppId(1));
        assert_eq!(sb.n_tasks(), 2);
        assert_eq!(sb.n_edges(), 1);
        // weight-scaled, name-prefixed slice of the composition
        assert!(sb.find("b/t0").is_some());
        let t = sb.task(TaskId(0));
        assert!((t.w_ppe - 4e-6).abs() < 1e-18);
        // topology matches the source
        assert_eq!(sb.out_edges(TaskId(0)).len(), 1);
    }

    #[test]
    fn single_app_workload_is_the_scaled_graph() {
        let a = chain("a", 4);
        let w = Workload::compose("solo", &[&a]).unwrap();
        assert_eq!(w.graph().n_tasks(), a.n_tasks());
        assert_eq!(w.graph().total_spe_work(), a.total_spe_work());
        assert_eq!(w.app_of(TaskId(3)), AppId(0));
    }

    #[test]
    fn display_names_apps_and_weights() {
        let a = chain("audio", 2);
        let b = chain("cipher", 2);
        let mut wb = Workload::builder("pair");
        wb.push(&a, 1.0).unwrap();
        wb.push(&b, 2.0).unwrap();
        let w = wb.build().unwrap();
        let s = w.to_string();
        assert!(s.contains("audio") && s.contains("cipher") && s.contains("2"), "{s}");
    }

    // ---- editing through the guard ----------------------------------------

    /// One guard around one edit, committed.
    fn edit(
        w: &mut Workload,
        op: impl FnOnce(&mut WorkloadBatch<'_>) -> Result<(), WorkloadError>,
    ) -> Result<(), WorkloadError> {
        let mut b = w.batch();
        op(&mut b)?;
        b.commit()
    }

    #[test]
    fn add_matches_from_scratch_composition() {
        let a = chain("a", 3);
        let b = chain("b", 2);
        let mut w = Workload::compose("w", &[&a]).unwrap();
        let mut g = w.batch();
        assert_eq!(g.add(&b, 2.0).unwrap(), AppId(1));
        g.commit().unwrap();

        let mut wb = Workload::builder("w");
        wb.push(&a, 1.0).unwrap();
        wb.push(&b, 2.0).unwrap();
        assert_eq!(w, wb.build().unwrap());
    }

    #[test]
    fn retire_shifts_later_apps_down() {
        let (a, b, c) = (chain("a", 2), chain("b", 3), chain("c", 2));
        let mut w = Workload::compose("w", &[&a, &b, &c]).unwrap();
        edit(&mut w, |g| g.retire(AppId(1))).unwrap();
        assert_eq!(w.n_apps(), 2);
        assert_eq!(w.app(AppId(0)).name, "a");
        assert_eq!(w.app(AppId(1)).name, "c");
        assert_eq!(w.app_id("c"), Some(AppId(1)));
        assert_eq!(w.app_id("b"), None);
        assert_eq!(w, Workload::compose("w", &[&a, &c]).unwrap());
        assert_eq!(edit(&mut w, |g| g.retire(AppId(5))), Err(WorkloadError::UnknownApp(AppId(5))));
    }

    #[test]
    fn reweight_rescales_in_place() {
        let (a, b) = (chain("a", 2), chain("b", 2));
        let mut w = Workload::compose("w", &[&a, &b]).unwrap();
        edit(&mut w, |g| g.reweight(AppId(1), 3.0)).unwrap();
        let mut wb = Workload::builder("w");
        wb.push(&a, 1.0).unwrap();
        wb.push(&b, 3.0).unwrap();
        assert_eq!(w, wb.build().unwrap());
        // invalid weights leave the workload untouched
        let before = w.clone();
        let bad = edit(&mut w, |g| g.reweight(AppId(1), 0.0));
        assert!(matches!(bad, Err(WorkloadError::InvalidWeight(_, _))));
        let ghost = edit(&mut w, |g| g.reweight(AppId(9), 2.0));
        assert!(matches!(ghost, Err(WorkloadError::UnknownApp(_))));
        assert_eq!(w, before);
    }

    #[test]
    fn cost_drift_scales_compute_and_survives_recomposition() {
        let (a, b) = (chain("a", 2), chain("b", 2));
        let mut w = Workload::compose("w", &[&a, &b]).unwrap();
        let before: Vec<f64> = w.graph().tasks().iter().map(|t| t.w_spe).collect();
        let reads: Vec<f64> = w.graph().tasks().iter().map(|t| t.read_bytes).collect();
        edit(&mut w, |g| g.rescale_costs(AppId(0), 2.0)).unwrap();
        for t in w.tasks_of(AppId(0)) {
            assert_eq!(w.graph().tasks()[t.index()].w_spe, before[t.index()] * 2.0);
        }
        for t in w.tasks_of(AppId(1)) {
            assert_eq!(
                w.graph().tasks()[t.index()].w_spe,
                before[t.index()],
                "other apps untouched"
            );
        }
        // drift survives recompositions triggered by unrelated edits, and
        // traffic is not compute: read bytes stay put
        edit(&mut w, |g| g.reweight(AppId(1), 3.0)).unwrap();
        for t in w.tasks_of(AppId(0)) {
            assert_eq!(
                w.graph().tasks()[t.index()].w_spe,
                before[t.index()] * 2.0,
                "drift persisted"
            );
            assert_eq!(w.graph().tasks()[t.index()].read_bytes, reads[t.index()]);
        }
        // drift composes multiplicatively
        edit(&mut w, |g| g.rescale_costs(AppId(0), 0.5)).unwrap();
        for t in w.tasks_of(AppId(0)) {
            assert_eq!(w.graph().tasks()[t.index()].w_spe, before[t.index()]);
        }
        // invalid factors leave the workload untouched
        let snap = w.clone();
        for factor in [0.0, f64::NAN] {
            let bad = edit(&mut w, |g| g.rescale_costs(AppId(0), factor));
            assert!(matches!(bad, Err(WorkloadError::InvalidWeight(_, _))));
        }
        let ghost = edit(&mut w, |g| g.rescale_costs(AppId(7), 2.0));
        assert!(matches!(ghost, Err(WorkloadError::UnknownApp(_))));
        assert_eq!(w, snap);
    }

    #[test]
    fn source_graph_round_trips_through_readmission() {
        let (a, b) = (chain("a", 3), chain("b", 2));
        let mut w = Workload::compose("w", &[&a, &b]).unwrap();
        edit(&mut w, |g| g.reweight(AppId(1), 2.5)).unwrap();
        // shed app 1, re-admit its source graph at the same weight: the
        // composition must be bit-identical
        let snap = w.clone();
        let src = w.source_graph(AppId(1));
        assert_eq!(src.name(), "b", "unscaled original name");
        assert_eq!(src, b, "source graph is the graph as admitted");
        edit(&mut w, |g| g.retire(AppId(1))).unwrap();
        edit(&mut w, |g| g.add(&src, 2.5).map(|_| ())).unwrap();
        assert_eq!(w, snap);
        // after drift, the source graph carries the corrected costs
        edit(&mut w, |g| g.rescale_costs(AppId(1), 4.0)).unwrap();
        let drifted = w.source_graph(AppId(1));
        assert_eq!(drifted.tasks()[0].w_spe, b.tasks()[0].w_spe * 4.0);
    }

    #[test]
    fn add_rejects_duplicates_and_bad_weights_without_mutating() {
        let a = chain("a", 2);
        let mut w = Workload::compose("w", &[&a]).unwrap();
        let before = w.clone();
        let mut g = w.batch();
        assert!(matches!(g.add(&a, 1.0), Err(WorkloadError::DuplicateApp(_))));
        assert!(matches!(g.add(&chain("b", 1), -1.0), Err(WorkloadError::InvalidWeight(_, _))));
        assert_eq!(g.n_apps(), 1);
        g.commit().unwrap();
        assert_eq!(w, before);
    }

    #[test]
    fn one_guard_matches_one_guard_per_edit() {
        let (a, b, c, d) = (chain("a", 3), chain("b", 2), chain("c", 4), chain("d", 2));
        let mut seq = Workload::compose("w", &[&a, &b, &c]).unwrap();
        let mut bat = seq.clone();

        edit(&mut seq, |g| g.retire(AppId(1))).unwrap();
        edit(&mut seq, |g| g.reweight(AppId(0), 2.5)).unwrap();
        edit(&mut seq, |g| g.rescale_costs(AppId(1), 1.5)).unwrap();
        edit(&mut seq, |g| g.add(&d, 3.0).map(|_| ())).unwrap();

        let mut g = bat.batch();
        g.retire(AppId(1)).unwrap();
        assert_eq!(g.n_apps(), 2);
        assert_eq!(g.position("c"), Some(AppId(1)), "ids shift inside the batch");
        g.reweight(AppId(0), 2.5).unwrap();
        g.rescale_costs(AppId(1), 1.5).unwrap();
        assert!(!g.contains("d"));
        g.add(&d, 3.0).unwrap();
        g.commit().unwrap();
        assert_eq!(bat, seq, "one guard == one guard per edit");
    }

    #[test]
    fn batch_can_empty_and_refill_but_not_commit_empty() {
        let (a, b) = (chain("a", 2), chain("b", 2));
        let mut w = Workload::compose("w", &[&a]).unwrap();
        let mut g = w.batch();
        g.retire(AppId(0)).unwrap();
        assert_eq!(g.n_apps(), 0, "a batch may pass through empty");
        g.add(&b, 1.0).unwrap();
        g.commit().unwrap();
        assert_eq!(w, Workload::compose("w", &[&b]).unwrap());

        let mut g = w.batch();
        g.retire(AppId(0)).unwrap();
        assert_eq!(g.commit(), Err(WorkloadError::Empty));
    }

    #[test]
    fn dropped_batch_still_recomposes() {
        let (a, b) = (chain("a", 2), chain("b", 2));
        let mut w = Workload::compose("w", &[&a]).unwrap();
        {
            let mut g = w.batch();
            g.add(&b, 2.0).unwrap();
            // guard dropped without an explicit commit
        }
        let mut wb = Workload::builder("w");
        wb.push(&a, 1.0).unwrap();
        wb.push(&b, 2.0).unwrap();
        assert_eq!(w, wb.build().unwrap(), "the drop path never leaves the graph stale");
    }
}
