//! The mixed linear program of paper §5 (Linear Program (1)).
//!
//! Two interchangeable encodings are provided:
//!
//! * [`FormKind::Paper`] — the formulation **verbatim**: binaries
//!   `α[k][i]` (task→PE) and `β[k,l][i][j]` (edge→PE-pair) with
//!   constraints (1a)–(1k) exactly as printed. Faithful but large:
//!   `O(|E|·n²)` binaries.
//! * [`FormKind::Compact`] — an equivalent encoding that replaces β by
//!   continuous *cut indicators* per (edge, PE): `γ ≥ α_dst − α_src`
//!   (edge enters the PE) and `ε ≥ α_src + Σ_{PPE j} α_dst,j − 1` (edge
//!   leaves an SPE toward a PPE, for constraint (1k)). The *outgoing*
//!   indicator needs no variable of its own thanks to the exact identity
//!   `max(0, α_src − α_dst) = γ + α_src − α_dst`, which substitutes the
//!   outgoing-bandwidth rows (1h) directly in terms of γ and α. For any
//!   *integral* α the optimal cut indicators coincide with the β-sums of
//!   the paper's encoding, so both MILPs have the same integral optima
//!   (`tests::paper_and_compact_formulations_agree`); the compact one is
//!   `O(|E|·n)` and is the default for the ≥50-task evaluation graphs.
//!   Its γ rows (one per edge and PE) and its ε rows (the McCormick
//!   linearisation of (1k), one per edge and SPE) are *lazy*
//!   ([`Model::add_lazy_con`]): rows of the model like any other, which
//!   branch and bound keeps out of its LP until a node's optimum breaks
//!   one that raising its γ or ε cannot repair. An ε row binds only
//!   where the SPE→PPE DMA queue is tight, and on the paper's graphs it
//!   never is; a γ row is refused only when raising its γ would break a
//!   bandwidth row (1g)/(1h) or a DMA row (1j).
//!
//! Both encodings know the local-store wall before any row is emitted:
//! an `α[k][i]` whose task's §4.2 buffers alone exceed an SPE's store
//! (`BufferPlan::for_task(k) > local_store_budget() + 1e-9`, the
//! evaluator's own test) is fixed to `[0, 0]` and its coefficient left
//! out of every row — (1b)–(1i) and the lazy γ/ε rows alike. So are the
//! compact cut indicators the wall empties: a γ of an edge into such a
//! task on that SPE (its row reads `γ ≥ −α_src`) and an ε of an edge out
//! of it from that SPE (`ε ≥ Σ_PPE α_dst − 1`), whose lazy rows are not
//! emitted at all; both columns appear only with positive coefficients
//! in `≤` rows, so 0 is their least value in the relaxation too. Each
//! column keeps its index, so [`Formulation::encode`] and
//! [`Formulation::decode`] do not change. The reduction is exact: every
//! (1i) coefficient is ≥ 0, so `α[k][i] = 1` alone breaks SPE `i`'s
//! store row, and no integral point (no mapping `evaluate` accepts) is
//! cut off. The relaxation is what tightens: without it, the LP seats
//! such a task fractionally across SPEs and bounds the period from far
//! below.
//!
//! Two printing conventions of the paper are normalised here (flagged in
//! DESIGN.md): constraints (1g)/(1h) are read with the evident summation
//! `Σ_k` over the `read_k`/`write_k` terms, and every row is scaled to
//! unit magnitude (times by `1/T₀` with `T₀ = Σ wPPE`, bytes by
//! `1/(bw·T₀)`, local store by `1/(LS−code)`, DMA counts by the queue
//! depth) so the tableau is well conditioned.

use crate::mapping::Mapping;
use crate::steady::buffers::BufferPlan;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_milp::model::{Cmp, Model, VarId, VarKind};
use cellstream_platform::{CellSpec, PeId, PeKind};

/// Which encoding of Linear Program (1) to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormKind {
    /// The paper's β-formulation, verbatim.
    Paper,
    /// The equivalent compact cut-indicator formulation (default).
    #[default]
    Compact,
}

/// Toggles for ablation studies (DESIGN.md §5): both default to the
/// paper's behaviour.
#[derive(Debug, Clone, Copy)]
pub struct FormulationConfig {
    /// Which encoding to emit.
    pub kind: FormKind,
    /// Include the DMA-queue constraints (1j)/(1k). Disabling them is the
    /// `ablation_dma` experiment.
    pub dma_constraints: bool,
}

impl Default for FormulationConfig {
    fn default() -> Self {
        FormulationConfig { kind: FormKind::default(), dma_constraints: true }
    }
}

/// A built formulation: the model plus the variable layout needed to
/// encode/decode mappings.
pub struct Formulation {
    /// The MILP.
    pub model: Model,
    kind: FormKind,
    n_tasks: usize,
    n_pes: usize,
    /// `alpha[k*n + i]`
    alpha: Vec<VarId>,
    /// period variable (scaled by `1/t0`)
    t_var: VarId,
    /// time scale: seconds = scaled · t0
    t0: f64,
    /// edge list copied out of the graph (src, dst, data)
    edges: Vec<(usize, usize, f64)>,
    /// β (paper) or γ/δ/ε (compact) variable ids, in builder order
    aux: AuxVars,
}

enum AuxVars {
    /// `beta[e][i*n + j]`
    Paper(Vec<Vec<VarId>>),
    /// `(gamma[e][i], eps[e][spe_index])`
    Compact(Vec<Vec<VarId>>, Vec<Vec<VarId>>),
}

impl Formulation {
    /// Build Linear Program (1) for `(g, spec)`.
    pub fn build(g: &StreamGraph, spec: &CellSpec, config: &FormulationConfig) -> Formulation {
        let n = spec.n_pes();
        let k_tasks = g.n_tasks();
        // Normalisation scale for the period variable. A zero-work graph
        // (legal since the builder accepts zero costs) would make every
        // scaled coefficient 0/0 = NaN and poison the simplex; scale by
        // 1 second instead — the LP is already in seconds then.
        let t0 = {
            let w = g.total_ppe_work();
            if w > 0.0 {
                w
            } else {
                1.0
            }
        };
        let bw = spec.interface_bw().as_bytes_per_s();
        let plan = BufferPlan::new(g);
        let ls_budget = spec.local_store_budget() as f64;
        let mut model = Model::new(format!("{}-{:?}", g.name(), config.kind));

        // ---- variables ----------------------------------------------------
        // (1a): α, β binary; T rational
        let t_var = model.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let alpha: Vec<_> =
            (0..k_tasks * n).map(|_| model.add_var(0.0, 1.0, 0.0, VarKind::Binary)).collect();
        let a = |k: usize, i: usize| alpha[k * n + i];
        let edges: Vec<(usize, usize, f64)> =
            g.edges().iter().map(|e| (e.src.index(), e.dst.index(), e.data_bytes)).collect();

        let aux = match config.kind {
            FormKind::Paper => AuxVars::Paper(
                edges
                    .iter()
                    .map(|_| {
                        (0..n * n).map(|_| model.add_var(0.0, 1.0, 0.0, VarKind::Binary)).collect()
                    })
                    .collect(),
            ),
            FormKind::Compact => {
                let mut gamma = Vec::with_capacity(edges.len());
                let mut eps = Vec::with_capacity(edges.len());
                let mut continuous = |count: usize| -> Vec<_> {
                    // γ and ε cap at 1 even fractionally
                    (0..count).map(|_| model.add_var(0.0, 1.0, 0.0, VarKind::Continuous)).collect()
                };
                for _ in &edges {
                    gamma.push(continuous(n));
                    eps.push(continuous(spec.spes().count()));
                }
                AuxVars::Compact(gamma, eps)
            }
        };

        // ---- the local-store wall: α columns no SPE can hold -------------
        // A task whose buffers alone overfill a store (`evaluate`'s own
        // test) is fixed off every SPE, and so are the compact cut
        // indicators it empties: γ of an edge into it on that SPE and ε of
        // an edge out of it from that SPE. Every row below takes only the
        // `live` columns, and a lazy row of a fixed γ or ε is not emitted.
        let mut fixed = vec![false; model.n_vars()];
        let walled = |k: usize| plan.for_task(TaskId(k)) > ls_budget + 1e-9;
        for k in (0..k_tasks).filter(|&k| walled(k)) {
            for pe in spec.spes() {
                fixed[a(k, pe.index()).index()] = true;
            }
        }
        if let AuxVars::Compact(gamma, eps) = &aux {
            for (ei, &(k, l, _)) in edges.iter().enumerate() {
                for (si, pe) in spec.spes().enumerate() {
                    fixed[gamma[ei][pe.index()].index()] = walled(l);
                    fixed[eps[ei][si].index()] = walled(k);
                }
            }
        }
        for v in (0..model.n_vars()).filter(|&v| fixed[v]) {
            model.set_bounds(VarId(v), 0.0, 0.0);
        }
        let live = |&(v, _): &(VarId, f64)| !fixed[v.index()];

        // ---- (1b): each task on exactly one PE ----------------------------
        for k in 0..k_tasks {
            let terms: Vec<_> = (0..n).map(|i| (a(k, i), 1.0)).filter(live).collect();
            model.add_con(terms, Cmp::Eq, 1.0);
        }

        // ---- encoding-specific coupling ------------------------------------
        match &aux {
            AuxVars::Paper(beta) => {
                for (ei, &(k, l, _)) in edges.iter().enumerate() {
                    // (1c): ∀j  Σ_i β_{i,j} ≥ α^l_j
                    for j in 0..n {
                        let mut terms: Vec<_> =
                            (0..n).map(|i| (beta[ei][i * n + j], 1.0)).collect();
                        terms.extend(Some((a(l, j), -1.0)).filter(live));
                        model.add_con(terms, Cmp::Ge, 0.0);
                    }
                    // (1d): ∀i  Σ_j β_{i,j} ≤ α^k_i
                    for i in 0..n {
                        let mut terms: Vec<_> =
                            (0..n).map(|j| (beta[ei][i * n + j], 1.0)).collect();
                        terms.extend(Some((a(k, i), -1.0)).filter(live));
                        model.add_con(terms, Cmp::Le, 0.0);
                    }
                }
            }
            AuxVars::Compact(gamma, eps) => {
                for (ei, &(k, l, _)) in edges.iter().enumerate() {
                    #[allow(clippy::needless_range_loop)] // i indexes alphas and gammas alike
                    for i in 0..n {
                        // γ ≥ α^l_i − α^k_i : edge enters PE i. The
                        // outgoing indicator is γ + α^k_i − α^l_i (exact
                        // identity), so no δ variable or row is needed.
                        // Lazy: γ is its one zero-cost continuous column.
                        let terms = [(gamma[ei][i], 1.0), (a(l, i), -1.0), (a(k, i), 1.0)];
                        if live(&terms[0]) {
                            model.add_lazy_con(
                                terms.into_iter().filter(live).collect(),
                                Cmp::Ge,
                                0.0,
                            );
                        }
                    }
                    if config.dma_constraints {
                        // ε ≥ α^k_spe + Σ_{PPE j} α^l_j − 1, lazy: ε is
                        // its one zero-cost continuous column, so a broken
                        // row is usually repaired by raising ε alone
                        for (si, pe) in spec.spes().enumerate() {
                            let eps_term = (eps[ei][si], 1.0);
                            if !live(&eps_term) {
                                continue;
                            }
                            let terms = [eps_term, (a(k, pe.index()), -1.0)]
                                .into_iter()
                                .chain(spec.ppes().map(|j| (a(l, j.index()), -1.0)))
                                .filter(live)
                                .collect();
                            model.add_lazy_con(terms, Cmp::Ge, -1.0);
                        }
                    }
                }
            }
        }

        // ---- (1e)/(1f): compute loads --------------------------------------
        for pe in spec.pes() {
            let i = pe.index();
            let mut terms: Vec<_> = (0..k_tasks)
                .map(|k| (a(k, i), g.task(TaskId(k)).cost_on(spec.kind_of(pe)) / t0))
                .filter(live)
                .collect();
            terms.push((t_var, -1.0));
            model.add_con(terms, Cmp::Le, 0.0);
        }

        // ---- (1g)/(1h): interface bandwidth --------------------------------
        for pe in spec.pes() {
            let i = pe.index();
            // incoming: memory reads + crossing edges in
            let mut in_terms: Vec<(VarId, f64)> = (0..k_tasks)
                .filter(|&k| g.task(TaskId(k)).read_bytes > 0.0)
                .map(|k| (a(k, i), g.task(TaskId(k)).read_bytes / (bw * t0)))
                .filter(live)
                .collect();
            let mut out_terms: Vec<(VarId, f64)> = (0..k_tasks)
                .filter(|&k| g.task(TaskId(k)).write_bytes > 0.0)
                .map(|k| (a(k, i), g.task(TaskId(k)).write_bytes / (bw * t0)))
                .filter(live)
                .collect();
            for (ei, &(_, _, data)) in edges.iter().enumerate() {
                if data <= 0.0 {
                    continue;
                }
                let c = data / (bw * t0);
                match &aux {
                    AuxVars::Paper(beta) => {
                        for j in 0..n {
                            if j != i {
                                in_terms.push((beta[ei][j * n + i], c));
                                out_terms.push((beta[ei][i * n + j], c));
                            }
                        }
                    }
                    AuxVars::Compact(gamma, _) => {
                        in_terms.extend(Some((gamma[ei][i], c)).filter(live));
                        // outgoing = γ + α_src − α_dst (identity)
                        let (k, l, _) = edges[ei];
                        let out = [(gamma[ei][i], c), (a(k, i), c), (a(l, i), -c)];
                        out_terms.extend(out.into_iter().filter(live));
                    }
                }
            }
            in_terms.push((t_var, -1.0));
            out_terms.push((t_var, -1.0));
            model.add_con(in_terms, Cmp::Le, 0.0);
            model.add_con(out_terms, Cmp::Le, 0.0);
        }

        // ---- (1i): local stores --------------------------------------------
        for pe in spec.spes() {
            let i = pe.index();
            let terms: Vec<_> = (0..k_tasks)
                .filter(|&k| plan.for_task(TaskId(k)) > 0.0)
                .map(|k| (a(k, i), plan.for_task(TaskId(k)) / ls_budget))
                .filter(live)
                .collect();
            if !terms.is_empty() {
                model.add_con(terms, Cmp::Le, 1.0);
            }
        }

        // ---- (1j)/(1k): DMA queues -----------------------------------------
        if config.dma_constraints {
            let in_limit = spec.dma_in_limit() as f64;
            let ppe_limit = spec.dma_ppe_limit() as f64;
            match &aux {
                AuxVars::Paper(beta) => {
                    // (1j): ∀ SPE j, Σ_{i≠j} Σ_e β_{i,j} ≤ 16
                    for pe in spec.spes() {
                        let j = pe.index();
                        let mut terms = Vec::new();
                        for b_e in beta {
                            for i in 0..n {
                                if i != j {
                                    terms.push((b_e[i * n + j], 1.0 / in_limit));
                                }
                            }
                        }
                        model.add_con(terms, Cmp::Le, 1.0);
                    }
                    // (1k): ∀ SPE i, Σ_{PPE j} Σ_e β_{i,j} ≤ 8
                    for pe in spec.spes() {
                        let i = pe.index();
                        let mut terms = Vec::new();
                        for b_e in beta {
                            for j in spec.ppes() {
                                terms.push((b_e[i * n + j.index()], 1.0 / ppe_limit));
                            }
                        }
                        model.add_con(terms, Cmp::Le, 1.0);
                    }
                }
                AuxVars::Compact(gamma, eps) => {
                    for (si, pe) in spec.spes().enumerate() {
                        let j = pe.index();
                        let in_terms: Vec<_> =
                            gamma.iter().map(|g_e| (g_e[j], 1.0 / in_limit)).filter(live).collect();
                        model.add_con(in_terms, Cmp::Le, 1.0);
                        let ppe_terms: Vec<_> =
                            eps.iter().map(|e_e| (e_e[si], 1.0 / ppe_limit)).filter(live).collect();
                        model.add_con(ppe_terms, Cmp::Le, 1.0);
                    }
                }
            }
        }

        Formulation {
            model,
            kind: config.kind,
            n_tasks: k_tasks,
            n_pes: n,
            alpha,
            t_var,
            t0,
            edges,
            aux,
        }
    }

    /// The constraint matrix of the formulation as compressed sparse
    /// columns, built straight from the model's sparse row triplets —
    /// the exact storage the revised simplex pivots on, with no
    /// densification step in between. Available for both [`FormKind`]s;
    /// useful for inspecting formulation sparsity (see `tab_lp`).
    pub fn sparse_columns(&self) -> cellstream_milp::ColMatrix {
        self.model.columns()
    }

    /// `(rows, columns, nonzeros)` of the constraint matrix.
    pub fn sparsity(&self) -> (usize, usize, usize) {
        let cols = self.sparse_columns();
        (cols.nrows(), cols.ncols(), cols.nnz())
    }

    /// The time scale: a scaled period of `x` means `x · t0` seconds.
    pub fn time_scale(&self) -> f64 {
        self.t0
    }

    /// Variable id of the (scaled) period.
    pub fn t_var(&self) -> VarId {
        self.t_var
    }

    /// Variable id of `α[k][i]`.
    pub fn alpha(&self, k: TaskId, i: PeId) -> VarId {
        self.alpha[k.index() * self.n_pes + i.index()]
    }

    /// Decode a solution vector into a mapping: each task goes to its
    /// argmax `α` (for integral solutions this is exact; for fractional
    /// ones it is the natural rounding).
    pub fn decode(&self, x: &[f64]) -> Vec<PeId> {
        (0..self.n_tasks)
            .map(|k| {
                let mut best = 0usize;
                let mut best_v = f64::NEG_INFINITY;
                for i in 0..self.n_pes {
                    let v = x[self.alpha[k * self.n_pes + i].index()];
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                PeId(best)
            })
            .collect()
    }

    /// Encode a mapping (plus its exact period in seconds) as a full
    /// solution vector — β/γ/δ/ε consistent with α — for incumbent
    /// seeding. The caller provides the period so the vector is feasible
    /// w.r.t. the (1e)–(1h) rows.
    pub fn encode(&self, spec: &CellSpec, mapping: &Mapping, period_seconds: f64) -> Vec<f64> {
        let mut x = vec![0.0; self.model.n_vars()];
        x[self.t_var.index()] = period_seconds / self.t0;
        for k in 0..self.n_tasks {
            let pe = mapping.pe_of(TaskId(k));
            x[self.alpha[k * self.n_pes + pe.index()].index()] = 1.0;
        }
        match &self.aux {
            AuxVars::Paper(beta) => {
                for (ei, &(k, l, _)) in self.edges.iter().enumerate() {
                    let i = mapping.pe_of(TaskId(k)).index();
                    let j = mapping.pe_of(TaskId(l)).index();
                    x[beta[ei][i * self.n_pes + j].index()] = 1.0;
                }
            }
            AuxVars::Compact(gamma, eps) => {
                for (ei, &(k, l, _)) in self.edges.iter().enumerate() {
                    let src = mapping.pe_of(TaskId(k));
                    let dst = mapping.pe_of(TaskId(l));
                    if src != dst {
                        x[gamma[ei][dst.index()].index()] = 1.0;
                        if spec.is_spe(src) && spec.kind_of(dst) == PeKind::Ppe {
                            let si = src.index() - spec.n_ppe();
                            x[eps[ei][si].index()] = 1.0;
                        }
                    }
                }
            }
        }
        x
    }

    /// The encoding used.
    pub fn kind(&self) -> FormKind {
        self.kind
    }
}
