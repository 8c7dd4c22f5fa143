//! Incremental (delta) evaluation of mappings — the engine behind every
//! search heuristic in the workspace.
//!
//! [`evaluate`](crate::eval::evaluate) is the paper's §3.2 polynomial
//! verifier run from scratch: it revalidates the mapping, rebuilds the
//! [`BufferPlan`], and rescans every task and edge — O(V + E) per call,
//! plus six fresh allocations. That is fine for a one-off verdict at the
//! [`Plan`](crate::scheduler::Plan) boundary, but a local-search round
//! probes K·n single-task moves (and O(K²) swaps), and annealing probes
//! thousands of neighbours: rebuilding the world per probe caps the graph
//! sizes the heuristics can touch.
//!
//! [`EvalState`] keeps the verifier's per-PE occupation accumulators
//! *live* instead:
//!
//! * the immutable per-graph data (buffer plan, per-task costs and
//!   traffic, adjacency) is computed **once** at construction;
//! * [`apply`](EvalState::apply) updates only the rows of the per-PE
//!   table a move actually touches — O(degree(task)) work — remembers
//!   *which* PEs those were, and refreshes their cached occupancy
//!   `max(compute, in/bw, out/bw)`;
//! * [`undo`](EvalState::undo) copies the touched rows back from the
//!   committed **base copy** of the table (bitwise, not by
//!   re-subtracting), so a probe leaves the state untouched and costs
//!   what its move touched — there is no per-write log;
//! * [`score_move`](EvalState::score_move) = apply → verdict → undo.
//!
//! Every table is sized at construction: no call after
//! [`new_with`](EvalState::new_with) allocates or grows anything.
//!
//! The feasibility verdict comes from the same formulas as the full
//! evaluator. The state keeps one flag, refreshed whenever a frame is
//! committed or the table rebuilt: whether the committed table is
//! feasible. While it is, [`is_feasible`](EvalState::is_feasible) (and so
//! [`score`](EvalState::score)) reads only the pending frame's touched
//! rows — every other row *is* a committed one; otherwise it reads every
//! PE. [`overfills`](EvalState::overfills) answers the local-store and
//! dead-PE half of that verdict for a move *before* it is applied, with
//! the float operations `apply` would perform. The period is the
//! maximum over the cached occupancies, each of which is the evaluator's
//! own expression on the same operands (and `f64::max` selects one of its
//! arguments exactly), so it is bit-identical to rescanning and
//! re-dividing the raw tables. Committed moves accumulate the
//! usual floating-point drift of add/subtract sequences; callers that
//! publish a final period re-derive it with one full `evaluate` (see the
//! search heuristics), and the property suite pins the drift below 1e-9
//! relative.

use crate::avail::Availability;
use crate::eval::{calibrated_period, throughput_of, Bottleneck, MappingReport, Violation};
use crate::mapping::{Mapping, MappingError};
use crate::steady::buffers::BufferPlan;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId, PeKind};

/// A candidate change to the current mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Rebind one task to another PE (a no-op if it is already there).
    Relocate {
        /// The task to move.
        task: TaskId,
        /// Its new PE.
        to: PeId,
    },
    /// Exchange the PEs of two tasks (the swap neighbourhood).
    Swap {
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
    },
}

/// One PE's row of the §3.2 occupation table: the seven accumulators
/// the verifier keeps per PE, plus the occupancy derived from them.
/// `Copy`, so committing or restoring a PE is one row copy.
#[derive(Debug, Clone, Copy, Default)]
struct PeRow {
    compute: f64,
    in_bytes: f64,
    out_bytes: f64,
    memory_bytes: f64,
    /// Cached `max(compute, in_bytes / bw, out_bytes / bw)` — see
    /// [`PeRow::occupancy`]. Current whenever no `relocate` is in
    /// flight: `apply` refreshes it for the PEs it touched, `undo`
    /// restores it with the rest of the row.
    occ: f64,
    dma_in: u32,
    dma_ppe: u32,
    /// Seated-task count (feeds the dead-PE feasibility check in O(1)
    /// and the eviction loop's victim scan).
    seated: u32,
}

impl PeRow {
    /// The §3.2 per-PE term whose maximum over PEs is the period —
    /// the one place the expression is spelled (the cache is filled
    /// from it, the audits recompute it).
    fn occupancy(&self, bw: f64) -> f64 {
        self.compute.max(self.in_bytes / bw).max(self.out_bytes / bw)
    }
}

/// Live evaluation state of one mapping on one platform: the §3.2
/// verifier's per-PE occupation table, maintained under moves instead of
/// recomputed. See the module docs for the contract.
///
/// Undo depth is **one**: [`apply`](Self::apply) commits any previously
/// applied move (its rows are copied into the base table) and opens a
/// fresh frame, so [`undo`](Self::undo) reverts only the most recent
/// `apply`. That is exactly the propose/accept/reject shape every search
/// heuristic needs.
///
/// ```
/// use cellstream_core::eval::incremental::{EvalState, Move};
/// use cellstream_core::{evaluate, Mapping};
/// use cellstream_daggen::{chain, CostParams};
/// use cellstream_platform::{CellSpec, PeId};
/// use cellstream_graph::TaskId;
///
/// let g = chain("pipe", 6, &CostParams::default(), 1);
/// let spec = CellSpec::ps3();
/// let start = Mapping::all_on(&g, PeId(0));
/// let mut state = EvalState::new(&g, &spec, &start).unwrap();
///
/// // probe a move without disturbing the state
/// let probe = state.score_move(Move::Relocate { task: TaskId(0), to: spec.pe(1) });
/// assert_eq!(state.mapping(), start);
///
/// // commit it and cross-check against the full evaluator
/// state.apply(Move::Relocate { task: TaskId(0), to: spec.pe(1) });
/// let full = evaluate(&g, &spec, &state.mapping()).unwrap();
/// assert!((state.period() - full.period).abs() < 1e-12);
/// assert_eq!(probe.is_finite(), full.is_feasible());
/// ```
#[derive(Debug, Clone)]
pub struct EvalState<'a> {
    g: &'a StreamGraph,
    spec: &'a CellSpec,
    // ---- immutable per-graph data, computed once --------------------------
    bw: f64,
    ls_budget: f64,
    dma_in_limit: u32,
    dma_ppe_limit: u32,
    /// PEs with index < n_ppe are PPEs, the rest SPEs (the platform's
    /// indexing convention, see `CellSpec::kind_of`).
    n_ppe: usize,
    cost_ppe: Vec<f64>,
    cost_spe: Vec<f64>,
    read_bytes: Vec<f64>,
    write_bytes: Vec<f64>,
    /// Per-task local-store buffer bytes from the [`BufferPlan`].
    task_buf: Vec<f64>,
    /// The dead-PE mask this state plans against: a task seated on a
    /// dead PE is a capacity violation.
    avail: Availability,
    // ---- live accumulators ------------------------------------------------
    assignment: Vec<PeId>,
    /// The per-PE table under the current assignment, pending move
    /// included.
    live: Vec<PeRow>,
    // ---- undo -------------------------------------------------------------
    /// The committed copy of `live`: equal to it on every PE outside the
    /// pending frame's touched set (on all PEs when no frame is pending).
    base: Vec<PeRow>,
    /// PEs whose `live` row the pending frame wrote: the first
    /// `n_touched` entries, each PE at most once (`is_touched` is the
    /// membership flag), so `n_pes` slots always suffice.
    touched: Vec<u32>,
    n_touched: usize,
    is_touched: Vec<bool>,
    /// Previous seats of the tasks the pending frame moved (a swap moves
    /// two).
    moved: [(usize, PeId); 2],
    n_moved: usize,
    has_frame: bool,
    /// Every row of `base` passes the §3.2 per-PE checks. Refreshed by
    /// `commit` and `recompute`; while it holds, feasibility under a
    /// pending frame is decided by the touched rows alone.
    base_feasible: bool,
}

impl<'a> EvalState<'a> {
    /// Build the state for `mapping`. Validates the mapping once (the
    /// only validation the engine ever runs — moves cannot make a valid
    /// assignment invalid) and precomputes the buffer plan and per-task
    /// cost tables.
    pub fn new(
        g: &'a StreamGraph,
        spec: &'a CellSpec,
        mapping: &Mapping,
    ) -> Result<Self, MappingError> {
        Self::new_with(g, spec, &Availability::full(spec), mapping)
    }

    /// [`new`](Self::new) against the *live* platform: a task seated
    /// on a PE the mask marks dead makes the state infeasible (routing
    /// the eviction machinery toward evacuating it). Live PEs run at
    /// nominal speed, so with no PE dead this is exactly `new`.
    pub fn new_with(
        g: &'a StreamGraph,
        spec: &'a CellSpec,
        avail: &Availability,
        mapping: &Mapping,
    ) -> Result<Self, MappingError> {
        mapping.validate(g, spec)?;
        assert_eq!(avail.n_pes(), spec.n_pes(), "availability mask must cover every PE");
        let plan = BufferPlan::new(g);
        let n = spec.n_pes();
        let mut cost_ppe = Vec::with_capacity(g.n_tasks());
        let mut cost_spe = Vec::with_capacity(g.n_tasks());
        let mut read_bytes = Vec::with_capacity(g.n_tasks());
        let mut write_bytes = Vec::with_capacity(g.n_tasks());
        for t in g.tasks() {
            cost_ppe.push(t.cost_on(PeKind::Ppe));
            cost_spe.push(t.cost_on(PeKind::Spe));
            read_bytes.push(t.read_bytes);
            write_bytes.push(t.write_bytes);
        }
        let mut s = EvalState {
            g,
            spec,
            bw: spec.interface_bw().as_bytes_per_s(),
            ls_budget: spec.local_store_budget() as f64,
            dma_in_limit: spec.dma_in_limit(),
            dma_ppe_limit: spec.dma_ppe_limit(),
            n_ppe: spec.n_ppe(),
            cost_ppe,
            cost_spe,
            read_bytes,
            write_bytes,
            task_buf: plan.task_bytes,
            avail: avail.clone(),
            assignment: mapping.assignment().to_vec(),
            live: vec![PeRow::default(); n],
            base: vec![PeRow::default(); n],
            touched: vec![0; n],
            n_touched: 0,
            is_touched: vec![false; n],
            moved: [(0, PeId(0)); 2],
            n_moved: 0,
            has_frame: false,
            base_feasible: false,
        };
        s.recompute();
        Ok(s)
    }

    /// Re-seat the state on another mapping of the **same** graph and
    /// platform, reusing every precomputed table and buffer (for
    /// multi-start loops). O(V + E), allocation-free.
    pub fn reset(&mut self, mapping: &Mapping) -> Result<(), MappingError> {
        mapping.validate(self.g, self.spec)?;
        self.assignment.clear();
        self.assignment.extend_from_slice(mapping.assignment());
        self.recompute();
        Ok(())
    }

    /// Close any pending frame, rebuild the table from the current
    /// assignment (the same loops as the full evaluator, minus the plan
    /// construction), refill the occupancy cache and make it the base.
    // check: no-alloc
    fn recompute(&mut self) {
        self.commit();
        self.live.fill(PeRow::default());
        for k in 0..self.assignment.len() {
            let i = self.assignment[k].index();
            let spe = i >= self.n_ppe;
            let cost = if spe { self.cost_spe[k] } else { self.cost_ppe[k] };
            let row = &mut self.live[i];
            row.compute += cost;
            row.in_bytes += self.read_bytes[k];
            row.out_bytes += self.write_bytes[k];
            row.seated += 1;
            if spe {
                row.memory_bytes += self.task_buf[k];
            }
        }
        for e in self.g.edges() {
            let src = self.assignment[e.src.index()];
            let dst = self.assignment[e.dst.index()];
            if src != dst {
                self.live[src.index()].out_bytes += e.data_bytes;
                self.live[dst.index()].in_bytes += e.data_bytes;
                if dst.index() >= self.n_ppe {
                    self.live[dst.index()].dma_in += 1;
                }
                if src.index() >= self.n_ppe && dst.index() < self.n_ppe {
                    self.live[src.index()].dma_ppe += 1;
                }
            }
        }
        for row in &mut self.live {
            row.occ = row.occupancy(self.bw);
        }
        self.base.copy_from_slice(&self.live);
        self.base_feasible = (0..self.base.len()).all(|i| self.row_ok(i, &self.base[i]));
    }

    /// Re-seat the state from raw per-task seats (task id order) of the
    /// **same** graph and platform — [`reset`](Self::reset) without a
    /// [`Mapping`] in hand, for callers that keep no `Mapping` on the
    /// hot path. O(V + E), allocation-free. Panics when the iterator
    /// does not yield exactly one in-range PE per task: raw seats and
    /// states travel together, like mappings and graphs.
    // check: no-alloc
    pub fn reseat(&mut self, seats: impl IntoIterator<Item = PeId>) {
        let n_pes = self.live.len();
        let mut k = 0;
        for pe in seats {
            assert!(k < self.assignment.len(), "reseat: more seats than tasks");
            assert!(pe.index() < n_pes, "{pe} out of range");
            self.assignment[k] = pe;
            k += 1;
        }
        assert_eq!(k, self.assignment.len(), "reseat covers every task");
        self.recompute();
    }

    /// Recompute the accumulators from the current assignment, shedding
    /// the floating-point drift committed moves accumulate (each
    /// apply/undo pair restores exactly, but *committed* deltas are
    /// add/subtract sequences). Equivalent to rebuilding the state from
    /// [`mapping`](Self::mapping) — O(V + E), allocation-free, commits
    /// any pending move.
    // check: no-alloc
    pub fn rebase(&mut self) {
        self.recompute();
    }

    /// The graph this state evaluates against.
    pub fn graph(&self) -> &'a StreamGraph {
        self.g
    }

    /// The platform this state evaluates against.
    pub fn spec(&self) -> &'a CellSpec {
        self.spec
    }

    /// Current PE of a task.
    pub fn pe_of(&self, t: TaskId) -> PeId {
        self.assignment[t.index()]
    }

    /// The current assignment, task id order (the borrow-only view of
    /// [`mapping`](Self::mapping) for allocation-free readers).
    pub fn assignment(&self) -> &[PeId] {
        &self.assignment
    }

    /// One task's local-store buffer footprint (bytes) from the
    /// precomputed [`BufferPlan`] — what the task occupies when seated
    /// on an SPE. O(1), allocation-free.
    pub fn task_buffer_bytes(&self, t: TaskId) -> f64 {
        self.task_buf[t.index()]
    }

    /// The lowest-id SPE currently violating a §3.2 constraint
    /// ((1i)–(1k)), or `None` when feasible — the allocation-free
    /// counterpart of scanning [`report`](Self::report)'s violation
    /// list, for eviction loops. O(n_SPEs).
    pub fn first_violated_spe(&self) -> Option<PeId> {
        (self.n_ppe..self.live.len()).find(|&i| !self.row_ok(i, &self.live[i])).map(PeId)
    }

    /// One row of PE `i` passes the per-PE §3.2 checks: no seat on a
    /// dead PE and, on an SPE, (1i) local store and (1j)/(1k) DMA slots.
    /// Every yes/no verdict of the state reads this; `report` spells the
    /// same checks out once more to name each violation.
    #[inline]
    fn row_ok(&self, i: usize, row: &PeRow) -> bool {
        !(self.avail.is_dead(PeId(i)) && row.seated > 0)
            && (i < self.n_ppe
                || !(row.memory_bytes > self.ls_budget + 1e-9
                    || row.dma_in > self.dma_in_limit
                    || row.dma_ppe > self.dma_ppe_limit))
    }

    /// `true` when the availability mask marks this PE dead.
    pub fn is_dead(&self, pe: PeId) -> bool {
        self.avail.is_dead(pe)
    }

    /// The current assignment as a validated [`Mapping`] (clones the
    /// assignment vector — call at boundaries, not in inner loops).
    pub fn mapping(&self) -> Mapping {
        Mapping::new(self.g, self.spec, self.assignment.clone())
            .expect("EvalState assignments stay structurally valid")
    }

    /// Steady-state period of the current mapping: the §3.2 maximum over
    /// per-PE compute and interface occupations, read off the cached
    /// per-PE occupancies. O(n_PEs), no division.
    pub fn period(&self) -> f64 {
        self.live.iter().fold(0.0f64, |p, row| p.max(row.occ))
    }

    /// One PE's occupation: `max(compute, in/bw, out/bw)` — the §3.2
    /// per-PE term whose maximum over PEs is the period. An O(1) read of
    /// the cache. Search heuristics use it to break period plateaus
    /// toward better load balance (two co-bottlenecked PEs stall a
    /// descent on the period alone).
    pub fn occupancy(&self, pe: PeId) -> f64 {
        self.live[pe.index()].occ
    }

    /// The resource that sets the period (same scan order and tie-break
    /// as the full evaluator: first PE, compute before in before out).
    pub fn bottleneck(&self) -> Bottleneck {
        let mut period = 0.0f64;
        let mut bottleneck = Bottleneck::Compute(PeId(0));
        for (i, row) in self.live.iter().enumerate() {
            if row.compute > period {
                period = row.compute;
                bottleneck = Bottleneck::Compute(PeId(i));
            }
            if row.in_bytes / self.bw > period {
                period = row.in_bytes / self.bw;
                bottleneck = Bottleneck::IncomingBw(PeId(i));
            }
            if row.out_bytes / self.bw > period {
                period = row.out_bytes / self.bw;
                bottleneck = Bottleneck::OutgoingBw(PeId(i));
            }
        }
        bottleneck
    }

    /// `true` iff constraints (1i)–(1k) all hold right now *and* no
    /// task is seated on a dead PE. When the committed table is feasible
    /// only the pending frame's touched rows are read (every other row
    /// equals its committed, feasible copy): O(PEs the move touched).
    /// Otherwise O(n_PEs).
    pub fn is_feasible(&self) -> bool {
        if self.base_feasible {
            let touched = &self.touched[..self.n_touched];
            touched.iter().all(|&i| self.row_ok(i as usize, &self.live[i as usize]))
        } else {
            (0..self.live.len()).all(|i| self.row_ok(i, &self.live[i]))
        }
    }

    /// `true` when [`apply`](Self::apply)`(mv)` would leave a task seated
    /// on a dead PE, or an SPE the move adds buffers to over its
    /// local-store budget (1i) — a move whose [`score`](Self::score)
    /// would be `+∞`, told without applying it. O(1).
    ///
    /// It reads the live rows `apply` starts from (a pending frame is
    /// part of them: `apply` commits it without changing a row), so call
    /// it between probes, not inside one. A relocation's verdict is
    /// `mem[to] + buf[t]`; a swap of `a` on `x` with `b` on `y` computes
    /// `(mem[x] − buf[a]) + buf[b]` and `(mem[y] + buf[a]) − buf[b]`,
    /// each only on an SPE side — the operations `relocate` performs, in
    /// its order, so the verdict is the applied state's bit for bit. The
    /// PE a task leaves only sheds buffers, so from a feasible state
    /// `overfills` is true exactly when the applied move leaves a
    /// local-store or dead-PE violation; a same-PE move is never
    /// screened. DMA slots (1j)/(1k) are not checked.
    // check: no-alloc
    pub fn overfills(&self, mv: Move) -> bool {
        let over = |i: usize, mem: f64| i >= self.n_ppe && mem > self.ls_budget + 1e-9;
        match mv {
            Move::Relocate { task, to } => {
                let (k, ti) = (task.index(), to.index());
                ti != self.assignment[k].index()
                    && (self.avail.is_dead(to)
                        || over(ti, self.live[ti].memory_bytes + self.task_buf[k]))
            }
            Move::Swap { a, b } => {
                let (x, y) =
                    (self.assignment[a.index()].index(), self.assignment[b.index()].index());
                let (buf_a, buf_b) = (self.task_buf[a.index()], self.task_buf[b.index()]);
                x != y
                    && (self.avail.is_dead(PeId(x))
                        || self.avail.is_dead(PeId(y))
                        || over(x, (self.live[x].memory_bytes - buf_a) + buf_b)
                        || over(y, (self.live[y].memory_bytes + buf_a) - buf_b))
            }
        }
    }

    /// The search objective: the period when feasible, `+∞` otherwise.
    /// Feasibility is [`is_feasible`](Self::is_feasible)'s, so a probe
    /// from a feasible state reads only the rows its move touched.
    pub fn score(&self) -> f64 {
        if self.is_feasible() {
            self.period()
        } else {
            f64::INFINITY
        }
    }

    /// Score a move without disturbing the state: apply, read the
    /// verdict, undo (exact restore). O(degree + n_PEs), allocation-free.
    ///
    /// Commits any pending move — one applied before this call can no
    /// longer be undone.
    pub fn score_move(&mut self, mv: Move) -> f64 {
        self.apply(mv);
        let s = self.score();
        self.undo();
        s
    }

    /// Apply a move, committing any previously applied one (single-level
    /// undo — see the type docs). Panics on out-of-range task or PE ids:
    /// moves and states travel together, like mappings and graphs.
    // check: no-alloc
    pub fn apply(&mut self, mv: Move) {
        self.commit();
        self.has_frame = true;
        match mv {
            Move::Relocate { task, to } => self.relocate(task, to),
            Move::Swap { a, b } => {
                let (pa, pb) = (self.assignment[a.index()], self.assignment[b.index()]);
                self.relocate(a, pb);
                self.relocate(b, pa);
            }
        }
        for &i in &self.touched[..self.n_touched] {
            let row = &mut self.live[i as usize];
            row.occ = row.occupancy(self.bw);
        }
    }

    /// Revert the most recent [`apply`](Self::apply), restoring every
    /// touched row — accumulators and cached occupancy — to its exact
    /// previous value. Returns `false` (and does nothing) when there is
    /// nothing to undo.
    // check: no-alloc
    pub fn undo(&mut self) -> bool {
        if !self.has_frame {
            return false;
        }
        for &i in &self.touched[..self.n_touched] {
            self.live[i as usize] = self.base[i as usize];
            self.is_touched[i as usize] = false;
        }
        self.n_touched = 0;
        for &(k, pe) in self.moved[..self.n_moved].iter().rev() {
            self.assignment[k] = pe;
        }
        self.n_moved = 0;
        self.has_frame = false;
        true
    }

    /// Make the pending move (if any) permanent: refresh the committed
    /// feasibility flag, copy the rows it touched into the base table and
    /// close the frame.
    // check: no-alloc
    fn commit(&mut self) {
        if self.has_frame {
            self.base_feasible = self.is_feasible();
        }
        for &i in &self.touched[..self.n_touched] {
            self.base[i as usize] = self.live[i as usize];
            self.is_touched[i as usize] = false;
        }
        self.n_touched = 0;
        self.n_moved = 0;
        self.has_frame = false;
    }

    /// Extract a full [`MappingReport`] for the current mapping — the
    /// [`Plan`](crate::scheduler::Plan) boundary. Allocates (clones the
    /// per-PE tables); not for inner loops.
    pub fn report(&self) -> MappingReport {
        let period = self.period();
        let mut violations = Vec::new();
        // dead-PE seats first, id order — mirrors `evaluate_with` so
        // `assert_matches_full` can compare violation lists exactly
        for pe in self.spec.pes() {
            let i = pe.index();
            if self.avail.is_dead(pe) && self.live[i].seated > 0 {
                violations.push(Violation::DeadPe { pe, tasks: self.live[i].seated as usize });
            }
        }
        for pe in self.spec.spes() {
            let row = &self.live[pe.index()];
            if row.memory_bytes > self.ls_budget + 1e-9 {
                violations.push(Violation::LocalStore {
                    pe,
                    used: row.memory_bytes,
                    budget: self.ls_budget,
                });
            }
            if row.dma_in > self.dma_in_limit {
                violations.push(Violation::DmaIn {
                    pe,
                    used: row.dma_in,
                    limit: self.dma_in_limit,
                });
            }
            if row.dma_ppe > self.dma_ppe_limit {
                violations.push(Violation::DmaPpe {
                    pe,
                    used: row.dma_ppe,
                    limit: self.dma_ppe_limit,
                });
            }
        }
        let compute_load: Vec<f64> = self.live.iter().map(|r| r.compute).collect();
        MappingReport {
            period,
            throughput: throughput_of(period),
            calibrated_period: calibrated_period(self.g, &self.assignment, &compute_load, period),
            compute_load,
            in_bytes: self.live.iter().map(|r| r.in_bytes).collect(),
            out_bytes: self.live.iter().map(|r| r.out_bytes).collect(),
            memory_bytes: self.live.iter().map(|r| r.memory_bytes).collect(),
            dma_in: self.live.iter().map(|r| r.dma_in).collect(),
            dma_ppe: self.live.iter().map(|r| r.dma_ppe).collect(),
            bottleneck: self.bottleneck(),
            violations,
        }
    }

    // ---- delta plumbing ---------------------------------------------------

    /// The live row of `pe`, recorded in the pending frame's touched set
    /// on first use — every write of [`relocate`](Self::relocate) goes
    /// through here, which is all `undo`/`commit` need to know.
    #[inline]
    fn row_mut(&mut self, pe: usize) -> &mut PeRow {
        if !self.is_touched[pe] {
            self.is_touched[pe] = true;
            self.touched[self.n_touched] = pe as u32;
            self.n_touched += 1;
        }
        &mut self.live[pe]
    }

    /// Move `t` to `to`, marking every PE whose row it writes.
    /// O(degree(t)). The order of the float additions is part of the
    /// contract: `(x − d) + d` on an edge whose peer sits on a third PE
    /// is not `x` bitwise, and the golden digests pin the result.
    // check: no-alloc
    fn relocate(&mut self, t: TaskId, to: PeId) {
        let k = t.index();
        let from = self.assignment[k];
        if from == to {
            return;
        }
        let (fi, ti) = (from.index(), to.index());
        assert!(ti < self.live.len(), "{to} out of range");
        self.moved[self.n_moved] = (k, from);
        self.n_moved += 1;
        self.assignment[k] = to;

        let from_spe = fi >= self.n_ppe;
        let to_spe = ti >= self.n_ppe;

        // task-attached terms: compute, memory traffic, local-store buffers
        let cost_from = if from_spe { self.cost_spe[k] } else { self.cost_ppe[k] };
        let cost_to = if to_spe { self.cost_spe[k] } else { self.cost_ppe[k] };
        let (read, write, buf) = (self.read_bytes[k], self.write_bytes[k], self.task_buf[k]);
        let row = self.row_mut(fi);
        row.compute -= cost_from;
        row.seated -= 1;
        if read != 0.0 {
            row.in_bytes -= read;
        }
        if write != 0.0 {
            row.out_bytes -= write;
        }
        if from_spe {
            row.memory_bytes -= buf;
        }
        let row = self.row_mut(ti);
        row.compute += cost_to;
        row.seated += 1;
        if read != 0.0 {
            row.in_bytes += read;
        }
        if write != 0.0 {
            row.out_bytes += write;
        }
        if to_spe {
            row.memory_bytes += buf;
        }

        // incident edges: retract the old cut contributions, add the new
        let g = self.g;
        for &e in g.in_edges(t) {
            let edge = g.edge(e);
            let ps = self.assignment[edge.src.index()];
            let (si, d) = (ps.index(), edge.data_bytes);
            let src_spe = si >= self.n_ppe;
            if ps != from {
                let src = self.row_mut(si);
                src.out_bytes -= d;
                if src_spe && !from_spe {
                    src.dma_ppe -= 1;
                }
                let row = &mut self.live[fi];
                row.in_bytes -= d;
                if from_spe {
                    row.dma_in -= 1;
                }
            }
            if ps != to {
                let src = self.row_mut(si);
                src.out_bytes += d;
                if src_spe && !to_spe {
                    src.dma_ppe += 1;
                }
                let row = &mut self.live[ti];
                row.in_bytes += d;
                if to_spe {
                    row.dma_in += 1;
                }
            }
        }
        for &e in g.out_edges(t) {
            let edge = g.edge(e);
            let pd = self.assignment[edge.dst.index()];
            let (di, d) = (pd.index(), edge.data_bytes);
            let dst_spe = di >= self.n_ppe;
            if pd != from {
                let dst = self.row_mut(di);
                dst.in_bytes -= d;
                if dst_spe {
                    dst.dma_in -= 1;
                }
                let row = &mut self.live[fi];
                row.out_bytes -= d;
                if from_spe && !dst_spe {
                    row.dma_ppe -= 1;
                }
            }
            if pd != to {
                let dst = self.row_mut(di);
                dst.in_bytes += d;
                if dst_spe {
                    dst.dma_in += 1;
                }
                let row = &mut self.live[ti];
                row.out_bytes += d;
                if to_spe && !dst_spe {
                    row.dma_ppe += 1;
                }
            }
        }
    }
}

#[cfg(any(test, feature = "debug_invariants"))]
impl EvalState<'_> {
    /// Deep audit (`debug_invariants` feature): the accumulators must
    /// agree with a from-scratch [`evaluate`](crate::eval::evaluate) of
    /// the current mapping. Panics with `ctx` in the message on any
    /// divergence. O(V + E) and allocating — strictly a debug/test
    /// tool, called from hot-path boundaries only under the feature.
    pub fn check_invariants(&self, ctx: &str) {
        assert_matches_full(self, ctx);
    }
}

/// Contract check shared by the unit tests here, the property suite in
/// `crate::tests`, and [`EvalState::check_invariants`]: the live state
/// must agree with a from-scratch `evaluate()` of its current mapping —
/// period and loads within 1e-9 relative (committed deltas accumulate
/// IEEE drift), the verdicts, bottleneck, DMA counters and violation
/// list exactly. The engine's own bookkeeping is audited bitwise: every
/// cached occupancy equals the expression recomputed from its row, and
/// the base table equals the live one on every PE outside the pending
/// frame's touched set (on every PE when no frame is pending).
#[cfg(any(test, feature = "debug_invariants"))]
pub(crate) fn assert_matches_full(state: &EvalState<'_>, ctx: &str) {
    let touched = &state.touched[..state.n_touched];
    assert!(state.has_frame || touched.is_empty(), "{ctx}: touched PEs without a pending frame");
    for (i, (live, base)) in state.live.iter().zip(&state.base).enumerate() {
        assert_eq!(
            live.occ.to_bits(),
            live.occupancy(state.bw).to_bits(),
            "{ctx}: cached occupancy of PE{i} is stale"
        );
        let in_frame = touched.contains(&(i as u32));
        assert_eq!(state.is_touched[i], in_frame, "{ctx}: touched flag/list disagree on PE{i}");
        if !in_frame {
            assert!(rows_bitwise_equal(live, base), "{ctx}: base != live on untouched PE{i}");
        }
    }
    let base_ok = state.base.iter().enumerate().all(|(i, row)| state.row_ok(i, row));
    assert_eq!(state.base_feasible, base_ok, "{ctx}: stale committed-feasibility flag");
    let full =
        crate::eval::evaluate_with(state.graph(), state.spec(), &state.avail, &state.mapping())
            .unwrap();
    let rep = state.report();
    let tol = 1e-9 * full.period.abs().max(1e-12);
    assert!(
        (rep.period - full.period).abs() <= tol,
        "{ctx}: period {} vs {}",
        rep.period,
        full.period
    );
    let (cal, full_cal) = (rep.calibrated_period, full.calibrated_period);
    assert!((cal - full_cal).abs() <= 1e-9 * full_cal, "{ctx}: T_cal {cal} vs {full_cal}");
    assert_eq!(rep.is_feasible(), full.is_feasible(), "{ctx}: feasibility");
    assert_eq!(state.is_feasible(), full.is_feasible(), "{ctx}: touched-row feasibility");
    assert_eq!(rep.bottleneck, full.bottleneck, "{ctx}: bottleneck");
    assert_eq!(rep.dma_in, full.dma_in, "{ctx}: dma_in");
    assert_eq!(rep.dma_ppe, full.dma_ppe, "{ctx}: dma_ppe");
    for i in 0..full.compute_load.len() {
        assert!((rep.compute_load[i] - full.compute_load[i]).abs() <= tol, "{ctx}: compute[{i}]");
        assert!((rep.in_bytes[i] - full.in_bytes[i]).abs() <= 1e-6, "{ctx}: in[{i}]");
        assert!((rep.out_bytes[i] - full.out_bytes[i]).abs() <= 1e-6, "{ctx}: out[{i}]");
        assert!((rep.memory_bytes[i] - full.memory_bytes[i]).abs() <= 1e-6, "{ctx}: mem[{i}]");
    }
    assert_eq!(rep.violations, full.violations, "{ctx}: violations");
}

/// Every field of two rows agrees bit for bit (float `==` would call
/// `0.0` and `-0.0` equal).
#[cfg(any(test, feature = "debug_invariants"))]
fn rows_bitwise_equal(a: &PeRow, b: &PeRow) -> bool {
    let floats = |r: &PeRow| [r.compute, r.in_bytes, r.out_bytes, r.memory_bytes, r.occ];
    floats(a).map(f64::to_bits) == floats(b).map(f64::to_bits)
        && (a.dma_in, a.dma_ppe, a.seated) == (b.dma_in, b.dma_ppe, b.seated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use cellstream_daggen::{chain, fork_join, CostParams};
    use cellstream_platform::CellSpecBuilder;

    #[test]
    fn fresh_state_matches_full_evaluator() {
        let g = fork_join("fj", 4, &CostParams::default(), 7);
        let spec = CellSpec::ps3();
        for m in [Mapping::all_on(&g, PeId(0)), Mapping::all_on(&g, PeId(3))] {
            let state = EvalState::new(&g, &spec, &m).unwrap();
            assert_matches_full(&state, "fresh");
        }
    }

    #[test]
    fn relocations_track_the_full_evaluator() {
        let g = chain("c", 10, &CostParams::default(), 5);
        let spec = CellSpec::ps3();
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        // deterministic walk over every (task, pe) pair
        for k in 0..g.n_tasks() {
            let to = spec.pe((k * 3 + 1) % spec.n_pes());
            state.apply(Move::Relocate { task: TaskId(k), to });
            assert_matches_full(&state, &format!("after moving T{k}"));
        }
    }

    #[test]
    fn swaps_track_the_full_evaluator() {
        let g = fork_join("fj", 3, &CostParams::default(), 2);
        let spec = CellSpec::with_spes(3);
        let m = Mapping::new(&g, &spec, (0..g.n_tasks()).map(|k| PeId(k % spec.n_pes())).collect())
            .unwrap();
        let mut state = EvalState::new(&g, &spec, &m).unwrap();
        for a in 0..g.n_tasks() {
            let b = (a + 2) % g.n_tasks();
            if a == b {
                continue;
            }
            state.apply(Move::Swap { a: TaskId(a), b: TaskId(b) });
            assert_matches_full(&state, &format!("after swapping T{a}/T{b}"));
        }
    }

    /// The live table — all seven accumulators and the cached occupancy
    /// of every PE — and the assignment agree bit for bit.
    fn assert_same_bits(a: &EvalState<'_>, b: &EvalState<'_>, ctx: &str) {
        assert_eq!(a.assignment, b.assignment, "{ctx}: assignment");
        for (i, (x, y)) in a.live.iter().zip(&b.live).enumerate() {
            assert!(rows_bitwise_equal(x, y), "{ctx}: PE{i} {x:?} vs {y:?}");
        }
    }

    #[test]
    fn undo_restores_exactly() {
        let g = fork_join("fj", 5, &CostParams::default(), 9);
        let spec = CellSpec::with_spes(4);
        let n = spec.n_pes();
        let k_tasks = g.n_tasks();
        let m = Mapping::new(&g, &spec, (0..k_tasks).map(|k| PeId((k * 2) % n)).collect()).unwrap();
        let mut dead = Availability::full(&spec);
        dead.fail(PeId(2));
        for (overlay, avail) in [("healthy", Availability::full(&spec)), ("dead", dead)] {
            let mut state = EvalState::new_with(&g, &spec, &avail, &m).unwrap();
            for k in 0..k_tasks {
                let (t, u) = (TaskId(k), TaskId((k + 1) % k_tasks));
                let relocate = Move::Relocate { task: t, to: PeId((k + 1) % n) };
                let swap = Move::Swap { a: t, b: u };
                // consecutive moves share a task, so the second writes rows
                // the first one changed
                for (m1, m2) in [(relocate, swap), (swap, relocate)] {
                    let ctx = format!("{overlay}, T{k}, {m1:?} then {m2:?}");
                    // one level: bitwise identical, not merely close
                    let before = state.clone();
                    state.apply(m1);
                    assert!(state.undo());
                    assert_same_bits(&state, &before, &ctx);
                    assert!(!state.undo(), "{ctx}: nothing left to undo");
                    // a second apply commits its predecessor: undoing it
                    // must land on the post-`m1` state, not the pre-`m1`
                    // one a missed commit would restore
                    state.apply(m1);
                    let after_m1 = state.clone();
                    state.apply(m2);
                    assert!(state.undo());
                    assert_same_bits(&state, &after_m1, &ctx);
                    assert_matches_full(&state, &ctx);
                    assert!(!state.undo(), "{ctx}: single-level undo");
                }
            }
        }
    }

    #[test]
    fn score_move_is_a_pure_probe() {
        let g = fork_join("fj", 4, &CostParams::default(), 3);
        let spec = CellSpec::ps3();
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        let p0 = state.period();
        for k in 0..g.n_tasks() {
            for pe in 0..spec.n_pes() {
                let s = state.score_move(Move::Relocate { task: TaskId(k), to: PeId(pe) });
                // the probe agrees with a fresh full evaluation of the move
                let cand = state.mapping().with_move(TaskId(k), PeId(pe));
                let full = evaluate(&g, &spec, &cand).unwrap();
                if full.is_feasible() {
                    assert!((s - full.period).abs() <= 1e-9 * full.period, "T{k}->PE{pe}");
                } else {
                    assert!(s.is_infinite());
                }
            }
        }
        assert_eq!(state.period(), p0, "probing must not disturb the state");
    }

    #[test]
    fn feasibility_flips_with_local_store() {
        // same construction as eval::tests::local_store_violation_detected
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(cellstream_platform::ByteSize::kib(128))
            .code_size(cellstream_platform::ByteSize::kib(64))
            .build()
            .unwrap();
        let mut b = StreamGraph::builder("p");
        let a = b.add_task(cellstream_graph::TaskSpec::new("a").uniform_cost(1e-6));
        let z = b.add_task(cellstream_graph::TaskSpec::new("z").uniform_cost(1e-6));
        b.add_edge(a, z, 64.0 * 1024.0).unwrap();
        let g = b.build().unwrap();
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        assert!(state.is_feasible());
        state.apply(Move::Relocate { task: TaskId(0), to: PeId(1) });
        state.apply(Move::Relocate { task: TaskId(1), to: PeId(1) });
        assert!(!state.is_feasible(), "both tasks on the tiny SPE must overflow");
        assert_matches_full(&state, "overflowed");
        assert!(state.score().is_infinite());
    }

    #[test]
    fn reseat_matches_reset_and_panics_on_bad_seats() {
        let g = chain("c", 6, &CostParams::default(), 4);
        let spec = CellSpec::with_spes(2);
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        let seats = [PeId(1), PeId(2), PeId(0), PeId(1), PeId(2), PeId(0)];
        state.reseat(seats.iter().copied());
        assert_eq!(state.assignment(), &seats);
        assert_matches_full(&state, "after reseat");
        assert!(!state.undo(), "reseat leaves nothing to undo");
        let mut short = state.clone();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            short.reseat(seats.iter().copied().take(3));
        }))
        .is_err());
        let mut wrong = state.clone();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wrong.reseat(std::iter::repeat_n(PeId(99), 6));
        }))
        .is_err());
    }

    #[test]
    fn first_violated_spe_agrees_with_the_report() {
        // same overflow construction as feasibility_flips_with_local_store
        let spec = CellSpecBuilder::default()
            .spes(2)
            .local_store(cellstream_platform::ByteSize::kib(128))
            .code_size(cellstream_platform::ByteSize::kib(64))
            .build()
            .unwrap();
        let mut b = StreamGraph::builder("p");
        let a = b.add_task(cellstream_graph::TaskSpec::new("a").uniform_cost(1e-6));
        let z = b.add_task(cellstream_graph::TaskSpec::new("z").uniform_cost(1e-6));
        b.add_edge(a, z, 64.0 * 1024.0).unwrap();
        let g = b.build().unwrap();
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        assert_eq!(state.first_violated_spe(), None);
        state.apply(Move::Relocate { task: TaskId(0), to: PeId(2) });
        state.apply(Move::Relocate { task: TaskId(1), to: PeId(2) });
        assert!(!state.is_feasible());
        let pe = state.first_violated_spe().expect("overflowed SPE is reported");
        let report = state.report();
        let first = match report.violations.first().expect("report sees it too") {
            Violation::LocalStore { pe, .. }
            | Violation::DmaIn { pe, .. }
            | Violation::DmaPpe { pe, .. }
            | Violation::DeadPe { pe, .. } => *pe,
        };
        assert_eq!(pe, first, "same PE the report names first");
        // and the buffer accessor matches the plan the state was built from
        let plan = BufferPlan::new(&g);
        for t in g.task_ids() {
            assert_eq!(state.task_buffer_bytes(t), plan.task_bytes[t.index()]);
        }
    }

    /// Task `k` seated on PE `seats[k]` with local-store buffers of
    /// exactly `bufs[k]` bytes: a private 0-peek edge (span 2) of
    /// `bufs[k] / 2` bytes to a partner task on the PPE.
    fn buffered_state(spec: &CellSpec, bufs: &[f64], seats: &[usize]) -> (StreamGraph, Mapping) {
        let mut b = StreamGraph::builder("bufs");
        let tasks: Vec<_> = (0..bufs.len())
            .map(|k| {
                b.add_task(cellstream_graph::TaskSpec::new(format!("t{k}")).uniform_cost(1e-6))
            })
            .collect();
        for (k, &t) in tasks.iter().enumerate() {
            let partner =
                b.add_task(cellstream_graph::TaskSpec::new(format!("p{k}")).uniform_cost(1e-6));
            b.add_edge(t, partner, bufs[k] / 2.0).unwrap();
        }
        let g = b.build().unwrap();
        let mut seats_all = seats.iter().map(|&s| PeId(s)).collect::<Vec<_>>();
        seats_all.resize(g.n_tasks(), PeId(0));
        let m = Mapping::new(&g, spec, seats_all).unwrap();
        (g, m)
    }

    #[test]
    fn overfills_follows_relocates_float_order_on_a_swap() {
        // SPE 1 holds t0 and t1, SPE 2 holds t2; swapping t1 and t2 leaves
        // SPE 1 at (mem − buf₁) + buf₂, which rounds one ulp above the
        // (1i) threshold — and (mem + buf₂) − buf₁ would round onto it
        let spec = CellSpec::with_spes(2);
        let bufs = [78433.23665985755, 76525.36381530865, 118174.76334014347];
        let (g, m) = buffered_state(&spec, &bufs, &[1, 1, 2]);
        let mut state = EvalState::new(&g, &spec, &m).unwrap();
        assert!(state.is_feasible());
        let threshold = state.ls_budget + 1e-9;
        let mem = state.live[1].memory_bytes;
        let shipped_order = (mem - bufs[1]) + bufs[2];
        assert!(shipped_order > threshold && (mem + bufs[2]) - bufs[1] <= threshold);

        let swap = Move::Swap { a: TaskId(1), b: TaskId(2) };
        assert!(state.overfills(swap), "the screen computes relocate's order");
        state.apply(swap);
        assert_eq!(state.live[1].memory_bytes.to_bits(), shipped_order.to_bits());
        assert!(matches!(
            state.report().violations[..],
            [Violation::LocalStore { pe: PeId(1), .. }]
        ));
        assert!(state.score().is_infinite());
    }

    #[test]
    fn overfills_admits_a_load_exactly_at_the_threshold() {
        // a buffer of exactly budget + 1e-9 bytes fits an empty SPE: (1i)
        // is a strict `>`, so the screen must not fire either
        let spec = CellSpec::with_spes(1);
        let threshold = spec.local_store_budget() as f64 + 1e-9;
        let (g, m) = buffered_state(&spec, &[threshold], &[0]);
        let mut state = EvalState::new(&g, &spec, &m).unwrap();
        let mv = Move::Relocate { task: TaskId(0), to: PeId(1) };
        assert!(!state.overfills(mv));
        state.apply(mv);
        assert_eq!(state.live[1].memory_bytes, threshold);
        assert!(state.is_feasible());
        // one byte more overfills, and the screen says so
        let (g, m) = buffered_state(&spec, &[threshold + 1.0], &[0]);
        let state = EvalState::new(&g, &spec, &m).unwrap();
        assert!(state.overfills(mv));
    }

    #[test]
    fn dead_pe_seats_are_infeasible_and_undo_restores() {
        let g = chain("c", 5, &CostParams::default(), 3);
        let spec = CellSpec::ps3();
        let mut avail = Availability::full(&spec);
        avail.fail(PeId(3));
        let m = Mapping::all_on(&g, PeId(0));
        let mut state = EvalState::new_with(&g, &spec, &avail, &m).unwrap();
        assert!(state.is_feasible(), "nothing seated on the dead PE yet");
        assert!(state.is_dead(PeId(3)));
        assert_matches_full(&state, "healthy seats, dead PE idle");

        state.apply(Move::Relocate { task: TaskId(1), to: PeId(3) });
        assert!(!state.is_feasible(), "a seat on a dead PE violates capacity");
        assert_eq!(state.first_violated_spe(), Some(PeId(3)));
        assert!(state.score().is_infinite());
        assert_matches_full(&state, "seated on dead PE");
        let dead = state
            .report()
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DeadPe { pe: PeId(3), tasks: 1 }));
        assert!(dead, "report names the dead PE");

        assert!(state.undo());
        assert!(state.is_feasible());
        assert_matches_full(&state, "after undo");
    }

    #[test]
    fn reset_reseats_without_reallocating_tables() {
        let g = chain("c", 6, &CostParams::default(), 4);
        let spec = CellSpec::with_spes(2);
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        state.apply(Move::Relocate { task: TaskId(2), to: PeId(1) });
        let other = Mapping::new(&g, &spec, vec![PeId(1); 6]).unwrap();
        state.reset(&other).unwrap();
        assert_eq!(state.mapping(), other);
        assert_matches_full(&state, "after reset");
        assert!(!state.undo(), "reset leaves nothing to undo");
        // and reset validates
        let wrong = Mapping::all_on(&chain("c2", 3, &CostParams::default(), 1), PeId(0));
        assert!(state.reset(&wrong).is_err());
    }
}
