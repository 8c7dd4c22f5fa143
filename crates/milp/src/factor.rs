//! Basis factorization for the revised simplex: sparse LU with
//! Forrest–Tomlin updates and periodic refactorization.
//!
//! [`Factorization::refactor`] runs a left-looking Gaussian elimination
//! over the basis columns (processed in increasing-fill order, rows
//! chosen by partial pivoting), producing `B = L·U` with `L` unit-lower
//! in original row coordinates and `U` stored by column, each column
//! tied to a basis position and a pivot row, upper triangular in
//! elimination order.
//!
//! A simplex pivot that puts column `a_q` into basis position `r` then
//! updates that factorization in place (Forrest–Tomlin). The **spike**
//! `R·L⁻¹a_q` — the entering column halfway through its FTRAN, before
//! the U-solve — replaces `r`'s column of `U` and moves to the end of
//! the elimination order, taking `r`'s pivot row `ρ` with it. What is
//! left of row `ρ` to the right of the old diagonal is now below it; one
//! **row eta** `R_k = I − e_ρ ηᵀ` removes it, `η` being the solution of a
//! triangular system in the later columns, and sets the new diagonal
//! `s_ρ − η·s`. So `B = L·R⁻¹·U` with `R = R_k ⋯ R_1`: FTRAN is the
//! L-solve, the row etas oldest first, then the U-solve; BTRAN is the
//! reverse. An update costs the spike (a few dozen non-zeros in the
//! mapping LPs, where `B⁻¹a_q` has hundreds) and a triangular solve
//! over the part of the later columns of `U` that row `ρ` reaches. It is refused — the caller refactors — when the pivot
//! is too small; when the new diagonal is (nearly) zero, cancels terms a
//! thousand times its size, or disagrees with what the pivot predicts
//! (`diag_new = w_r · diag_old`); when the window is full
//! ([`Factorization::should_refactor`]); or when the update would not fit
//! the room reserved for it.
//!
//! Every kernel costs what it touches. Most basis columns of the
//! mapping LPs are slack singletons, whose `L` and `U` columns are
//! empty: the elimination's L-solve visits only the steps whose pivot
//! row is (or becomes) non-zero, FTRAN walks skip lists of the
//! non-empty columns, and BTRAN and the row etas' triangular solve walk
//! a row-wise index of the refactorization's `U` from the rows that are
//! non-zero. `L`, `U` and the row etas live in flat [`ColStack`]s that
//! are reserved up front, cleared, never freed, and never regrown
//! between two refactorizations. What stays dense are the length-`m`
//! work vectors and one pass over them per solve, which divides by the
//! diagonal and permutes between rows and positions. Right after a
//! refactorization the visiting order — and so every floating-point
//! sum — is that of the plain loops over all `m` steps, which the test
//! suite keeps as the oracle (`src/kernel_tests.rs`); behind updates the
//! suite holds the solves to a dense solve of the explicit basis.

use crate::sparse::ColStack;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Errors from [`Factorization::refactor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorError {
    /// The basis matrix is (numerically) singular.
    Singular,
}

/// An LU factorization of the current basis plus the Forrest–Tomlin
/// updates applied since the last refactorization.
#[derive(Debug)]
pub struct Factorization {
    m: usize,
    /// Per `U` column ("slot"): the refactorization's step `k` fills
    /// slot `k`, the `i`-th update slot `m + i`. The live slots in
    /// increasing order are the elimination order.
    ///
    /// `order[s]`: basis position of slot `s`.
    order: Vec<usize>,
    /// `pivrow[s]`: pivot row of slot `s` (an update's slot inherits the
    /// row of the slot it replaces).
    pivrow: Vec<usize>,
    /// `upiv[s]`: diagonal of `U` at slot `s`.
    upiv: Vec<f64>,
    /// `slot_of_pos[p]`: the live slot of basis position `p`; its pivot
    /// row, which no update changes, and its diagonal, which each does,
    /// beside it for the dense passes.
    slot_of_pos: Vec<usize>,
    row_of_pos: Vec<usize>,
    diag_of_pos: Vec<f64>,
    /// `L` column per refactorization step: `(row, multiplier)` below
    /// the pivot.
    l: ColStack,
    /// `U` column per slot: `(pivot row of an earlier slot, value)`
    /// above the diagonal.
    u: ColStack,
    /// Refactorization steps whose `L` column is non-empty, and live
    /// slots whose `U` column is, both increasing.
    l_steps: Vec<usize>,
    u_steps: Vec<usize>,
    /// The refactorization's `U` row by row: row `i`'s entries are
    /// `urow[urow_ptr[i]..urow_ptr[i + 1]]`, each `(pivot row of its
    /// column, where it sits in u)`, columns increasing. An update
    /// zeroes the entries it removes (the stray row, the replaced
    /// column) in place, so the index never changes within a window.
    urow_ptr: Vec<usize>,
    urow: Vec<(u32, u32)>,
    /// Row etas, oldest first: `eta_rows[e]` is the row eta `e` rewrites
    /// and `etas.col(e)` its `(row, η)` entries.
    eta_rows: Vec<usize>,
    etas: ColStack,
    /// The spike of the last [`Factorization::ftran_entering`],
    /// `(row, value)` for its non-zero rows; valid until the next update
    /// or refactorization.
    spike: Vec<(usize, f64)>,
    spike_ok: bool,
    /// Scratch: the rows the spike may occupy, each once.
    spike_rows: Vec<usize>,
    /// Scratch: dense accumulator over rows, zero outside `refactor` and
    /// `update`.
    work: Vec<f64>,
    /// Scratch reused by FTRAN/BTRAN (no cleanliness invariant).
    scratch: Vec<f64>,
    /// Refactorization scratch: elimination order of the positions and
    /// its counting-sort buckets, `step_of_row[r]` = step whose pivot
    /// row is `r`, the rows the current column touched, and the steps
    /// its L-solve still has to visit (`queued` marks the heap's
    /// members). `update` reuses the last three for `η` (`touched` lists
    /// its rows), an entering FTRAN `queued` to mark the spike's rows.
    positions: Vec<usize>,
    buckets: Vec<usize>,
    step_of_row: Vec<usize>,
    touched: Vec<usize>,
    pending: BinaryHeap<Reverse<usize>>,
    queued: Vec<bool>,
    /// Update scratch: where the entries of the stray row sit in `u`.
    stray: Vec<usize>,
    /// Entries a window may add to `U` (its spikes) and to the row
    /// etas, each: reserved at every refactorization, doubled when a
    /// window runs out.
    room: usize,
}

/// Absolute floor under which a pivot candidate is considered zero.
pub(crate) const PIVOT_ZERO: f64 = 1e-11;

/// Most updates between two refactorizations.
pub(crate) const MAX_UPDATES: usize = 64;

/// Most the terms of a new diagonal may outweigh it. A diagonal that
/// cancels more has lost the digits the solves behind it need: random
/// bases that cross it drift to `1e-9` against a dense solve within a
/// window, where the paper graphs' LPs never pass 60.
const MAX_CANCELLATION: f64 = 1e3;

/// Least room a window gets for its spikes and its row etas, each: 64
/// updates of 128 entries (96 KiB).
const MIN_ROOM: usize = 8192;

impl Factorization {
    /// Empty factorization for an `m`-row basis. Everything is reserved
    /// here — `L` and `U` at four entries a row, which most bases of the
    /// mapping LPs stay under (they hold one to three), plus the room of
    /// a window for spikes in `U` and for the row etas — because a vector
    /// that regrows in mid-solve leaves its old block behind as a hole in
    /// the heap. The room is `4 m` entries, and never less than
    /// [`MIN_ROOM`], which a full window of a basis up to 128 rows
    /// cannot outgrow; a window of the paper graphs' LPs adds under
    /// `2.5 m` row-eta entries. An update that would not fit is refused
    /// and doubles the room the next refactorization reserves.
    pub fn new(m: usize) -> Factorization {
        let slots = m + MAX_UPDATES;
        let room = (4 * m).max(MIN_ROOM);
        Factorization {
            m,
            order: Vec::with_capacity(slots),
            pivrow: Vec::with_capacity(slots),
            upiv: Vec::with_capacity(slots),
            slot_of_pos: vec![0; m],
            row_of_pos: vec![0; m],
            diag_of_pos: vec![0.0; m],
            l: ColStack::with_capacity(m, 4 * m),
            u: ColStack::with_capacity(slots, 4 * m + room),
            l_steps: Vec::with_capacity(m),
            u_steps: Vec::with_capacity(slots),
            urow_ptr: vec![0; m + 1],
            urow: Vec::with_capacity(4 * m),
            eta_rows: Vec::with_capacity(MAX_UPDATES),
            etas: ColStack::with_capacity(MAX_UPDATES, room),
            spike: Vec::with_capacity(m),
            spike_ok: false,
            spike_rows: Vec::with_capacity(m),
            work: vec![0.0; m],
            scratch: vec![0.0; m],
            positions: vec![0; m],
            buckets: Vec::with_capacity(m + 2),
            step_of_row: vec![usize::MAX; m],
            touched: Vec::with_capacity(m),
            pending: BinaryHeap::with_capacity(m),
            queued: vec![false; m],
            stray: Vec::with_capacity(slots),
            room,
        }
    }

    /// Number of updates applied since the last refactorization.
    pub fn n_updates(&self) -> usize {
        self.order.len().saturating_sub(self.m)
    }

    /// `true` once the update window is full and a refactorization is
    /// due.
    pub fn should_refactor(&self) -> bool {
        self.n_updates() >= MAX_UPDATES.min(self.m.max(8))
    }

    /// Factor the basis whose position `p` holds the column given by
    /// `col(p) -> (rows, values)`. Columns are eliminated sparsest
    /// first; rows by partial pivoting.
    pub fn refactor<'c>(
        &mut self,
        basis_cols: impl Fn(usize) -> (&'c [usize], &'c [f64]),
    ) -> Result<(), FactorError> {
        let m = self.m;
        self.order.clear();
        self.pivrow.clear();
        self.l.clear();
        self.u.clear();
        self.l_steps.clear();
        self.u_steps.clear();
        self.upiv.clear();
        self.eta_rows.clear();
        self.etas.clear();
        self.spike_ok = false;

        // cheap Markowitz stand-in: eliminate sparsest columns first
        // (a stable counting sort on the column lengths)
        let len = |p: usize| basis_cols(p).0.len();
        let longest = (0..m).map(len).max().unwrap_or(0);
        self.buckets.clear();
        self.buckets.resize(longest + 2, 0);
        for p in 0..m {
            self.buckets[len(p) + 1] += 1;
        }
        for b in 0..=longest {
            self.buckets[b + 1] += self.buckets[b];
        }
        for p in 0..m {
            let slot = &mut self.buckets[len(p)];
            self.positions[*slot] = p;
            *slot += 1;
        }

        self.step_of_row.fill(usize::MAX);
        let Factorization { step_of_row, work, touched, pending, queued, .. } = self;
        debug_assert!(work.iter().all(|&v| v == 0.0));
        debug_assert!(pending.is_empty() && queued.iter().all(|&q| !q));

        for k in 0..m {
            let p = self.positions[k];
            let (rows, vals) = basis_cols(p);
            touched.clear();
            for (&r, &v) in rows.iter().zip(vals) {
                work[r] = v;
                touched.push(r);
                let t = step_of_row[r];
                if t != usize::MAX {
                    queued[t] = true;
                    pending.push(Reverse(t));
                }
            }
            // L-solve against the earlier steps, in elimination order.
            // Step `t` matters only while its pivot row holds a
            // non-zero, and its `L` column feeds only rows that pivot
            // later: popping the smallest pending step visits exactly
            // the steps the loop over all `0..k` would act on, in the
            // same order.
            while let Some(Reverse(t)) = pending.pop() {
                queued[t] = false;
                let x = work[self.pivrow[t]];
                if x == 0.0 {
                    continue; // cancelled since it was queued
                }
                self.u.push(self.pivrow[t], x);
                let (lrows, lvals) = self.l.col(t);
                for (&r, &l) in lrows.iter().zip(lvals) {
                    let r = r as usize;
                    if work[r] == 0.0 {
                        touched.push(r);
                    }
                    work[r] -= l * x;
                    let s = step_of_row[r];
                    if s != usize::MAX && !queued[s] {
                        queued[s] = true;
                        pending.push(Reverse(s));
                    }
                }
            }
            // partial pivoting among rows not yet used as pivots
            let mut prow = usize::MAX;
            let mut pval = 0.0f64;
            for &r in touched.iter() {
                if step_of_row[r] == usize::MAX && work[r].abs() > pval.abs() {
                    prow = r;
                    pval = work[r];
                }
            }
            if prow == usize::MAX || pval.abs() <= PIVOT_ZERO {
                for &r in touched.iter() {
                    work[r] = 0.0;
                }
                return Err(FactorError::Singular);
            }
            for &r in touched.iter() {
                let v = work[r];
                work[r] = 0.0;
                if r != prow && step_of_row[r] == usize::MAX && v != 0.0 {
                    self.l.push(r, v / pval);
                }
            }
            step_of_row[prow] = k;
            self.order.push(p);
            self.slot_of_pos[p] = k;
            self.row_of_pos[p] = prow;
            self.diag_of_pos[p] = pval;
            self.pivrow.push(prow);
            self.upiv.push(pval);
            if self.l.close() > 0 {
                self.l_steps.push(k);
            }
            if self.u.close() > 0 {
                self.u_steps.push(k);
            }
        }
        self.index_u_by_row();
        self.u.reserve(MAX_UPDATES, self.room);
        self.etas.reserve(MAX_UPDATES, self.room);
        Ok(())
    }

    /// Build `urow` from the columns of `U` (a counting sort by row).
    fn index_u_by_row(&mut self) {
        let Factorization { u, u_steps, pivrow, urow_ptr, urow, positions: cursor, .. } = self;
        urow_ptr.fill(0);
        for &k in u_steps.iter() {
            for &i in u.col(k).0 {
                urow_ptr[i as usize + 1] += 1;
            }
        }
        for i in 0..self.m {
            urow_ptr[i + 1] += urow_ptr[i];
        }
        cursor.copy_from_slice(&urow_ptr[..self.m]);
        urow.clear();
        urow.resize(urow_ptr[self.m], (0, 0));
        for &k in u_steps.iter() {
            for at in u.range(k) {
                let i = u.entry(at).0;
                urow[cursor[i]] = (pivrow[k] as u32, at as u32);
                cursor[i] += 1;
            }
        }
    }

    /// Solve `B x = v`: on return `v[p]` is the value of the basis
    /// variable at position `p`. The answer is permuted out of place,
    /// into a buffer of the factorization's that is handed over in
    /// `v`'s stead (no copy back).
    pub fn ftran(&mut self, v: &mut Vec<f64>) {
        self.solve(v, None);
    }

    /// [`Factorization::ftran`] of the column about to enter the basis,
    /// non-zero on entry at most in `rows`. Also lists the answer's
    /// non-zero positions in `nz`, increasing, and keeps the spike for the
    /// [`Factorization::update`] that follows.
    pub fn ftran_entering(&mut self, v: &mut Vec<f64>, rows: &[usize], nz: &mut Vec<usize>) {
        self.solve(v, Some((rows, nz)));
    }

    fn solve(&mut self, v: &mut Vec<f64>, entering: Option<(&[usize], &mut Vec<usize>)>) {
        debug_assert_eq!(v.len(), self.m);
        // the spike can be non-zero only in the rows the column starts
        // in, the L columns write and the row etas rewrite: collect them
        // (once each, `queued` marking them) instead of scanning all `m`
        let collect = entering.is_some();
        let Factorization { spike_rows, queued: marked, .. } = self;
        spike_rows.clear();
        let mut mark = |r: usize| {
            if !marked[r] {
                marked[r] = true;
                spike_rows.push(r);
            }
        };
        if let Some((rows, _)) = &entering {
            rows.iter().for_each(|&r| mark(r));
        }
        // L y = v in elimination order; y stays in row coordinates
        // (step k's component sits in v[pivrow[k]])
        for &k in &self.l_steps {
            let x = v[self.pivrow[k]];
            if x != 0.0 {
                let (rows, ls) = self.l.col(k);
                for (&r, &l) in rows.iter().zip(ls) {
                    v[r as usize] -= l * x;
                    if collect {
                        mark(r as usize);
                    }
                }
            }
        }
        // row etas, oldest first: each rewrites its row
        for (e, &rho) in self.eta_rows.iter().enumerate() {
            let (rows, etas) = self.etas.col(e);
            let mut acc = v[rho];
            for (&r, &eta) in rows.iter().zip(etas) {
                acc -= eta * v[r as usize];
            }
            v[rho] = acc;
            if collect {
                mark(rho);
            }
        }
        if collect {
            self.spike.clear();
            for &r in self.spike_rows.iter() {
                self.queued[r] = false;
                if v[r] != 0.0 {
                    self.spike.push((r, v[r]));
                }
            }
            self.spike_ok = true;
        }
        // U z = y, column-oriented backward substitution. A slot's
        // quotient is final once the later columns are through; it is
        // stored by the pass below, which divides every slot alike.
        for &t in self.u_steps.iter().rev() {
            let z = v[self.pivrow[t]] / self.upiv[t];
            if z != 0.0 {
                let (rows, us) = self.u.col(t);
                for (&r, &u) in rows.iter().zip(us) {
                    v[r as usize] -= u * z;
                }
            }
        }
        // divide by the diagonal and permute to basis positions
        let z = &mut self.scratch;
        let quotients = self
            .row_of_pos
            .iter()
            .zip(&self.diag_of_pos)
            .enumerate()
            .map(|(p, (&i, &d))| (p, v[i] / d));
        match entering {
            Some((_, nz)) => {
                nz.clear();
                for (p, q) in quotients {
                    z[p] = q;
                    if q != 0.0 {
                        nz.push(p);
                    }
                }
            }
            None => quotients.for_each(|(p, q)| z[p] = q),
        }
        std::mem::swap(v, &mut self.scratch);
    }

    /// Solve `Bᵀ y = c`: on entry `c[p]` is indexed by basis position,
    /// on return `c[row]` is indexed by row — in a buffer of the
    /// factorization's handed over in `c`'s stead, as for
    /// [`Factorization::ftran`].
    pub fn btran(&mut self, c: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.m);
        // Uᵀ w = c' with c'_s = c[order[s]], forward in slots, w in row
        // coordinates. The refactorization's slots go row-wise: a slot's
        // quotient, once final, is taken out of the later columns its
        // row reaches — only the rows that come out non-zero cost
        // anything, and each later column still sees its terms in slot
        // order. The update slots after them take a column each.
        let w = &mut self.scratch;
        for (&i, &x) in self.row_of_pos.iter().zip(c.iter()) {
            w[i] = x;
        }
        for s in 0..self.m {
            let i = self.pivrow[s];
            if w[i] == 0.0 || self.slot_of_pos[self.order[s]] != s {
                continue; // nothing to divide, or replaced by an update
            }
            let x = w[i] / self.upiv[s];
            w[i] = x;
            for &(target, at) in &self.urow[self.urow_ptr[i]..self.urow_ptr[i + 1]] {
                w[target as usize] -= self.u.entry(at as usize).1 * x;
            }
        }
        for s in self.m..self.order.len() {
            if self.slot_of_pos[self.order[s]] != s {
                continue;
            }
            let i = self.pivrow[s];
            let (rows, us) = self.u.col(s);
            let mut acc = w[i];
            for (&r, &u) in rows.iter().zip(us) {
                acc -= u * w[r as usize];
            }
            w[i] = acc / self.upiv[s];
        }
        // row eta transposes, newest first: each spreads its row
        for (e, &rho) in self.eta_rows.iter().enumerate().rev() {
            let x = w[rho];
            if x != 0.0 {
                let (rows, etas) = self.etas.col(e);
                for (&r, &eta) in rows.iter().zip(etas) {
                    w[r as usize] -= eta * x;
                }
            }
        }
        // Lᵀ y = w, descending steps; a step with an empty L column
        // passes its component through
        for &k in self.l_steps.iter().rev() {
            let mut acc = w[self.pivrow[k]];
            let (rows, ls) = self.l.col(k);
            for (&r, &l) in rows.iter().zip(ls) {
                acc -= l * w[r as usize];
            }
            w[self.pivrow[k]] = acc;
        }
        std::mem::swap(c, &mut self.scratch);
    }

    /// Put the column last passed to [`Factorization::ftran_entering`]
    /// into basis position `r`; `w` is its FTRAN (dense, length `m`, its
    /// non-zero positions listed in `nz`). Returns `false` when the
    /// update is refused — the pivot or the new diagonal too small to be
    /// trusted, the diagonal the difference of far larger terms or not
    /// the one the pivot predicts, the window full or out of room — and
    /// the caller must refactor instead; the factorization is then
    /// unchanged.
    #[must_use]
    pub fn update(&mut self, w: &[f64], nz: &[usize], r: usize) -> bool {
        let spike_ok = std::mem::take(&mut self.spike_ok);
        let pivot = w[r];
        let wmax = nz.iter().fold(0.0f64, |a, &i| a.max(w[i].abs()));
        if !spike_ok
            || pivot.abs() <= PIVOT_ZERO
            || pivot.abs() < 1e-9 * wmax
            || self.should_refactor()
        {
            return false;
        }
        if !self.u.fits(1, self.spike.len()) {
            self.grow_room();
            return false;
        }
        let t = self.slot_of_pos[r];
        let rho = self.pivrow[t];
        // η: row ρ of U right of the diagonal, solved against the later
        // slots — η_j = (U[ρ, j] − Σ_i η_i U[i, j]) / U[j, j] in slot
        // order — into `work` at the rows of η, listed in `touched`; the
        // entries of row ρ are the strays the update zeroes. Among the
        // refactorization's slots that is the L-solve of `refactor` on
        // `urow`: row ρ's entries seed the later columns, and the
        // smallest pending slot is final when popped. The update slots
        // after them take a column each.
        self.touched.clear();
        self.stray.clear();
        if t < self.m {
            let Factorization {
                u, urow_ptr, urow, step_of_row, work, stray, pending, queued, ..
            } = self;
            for &(target, at) in &urow[urow_ptr[rho]..urow_ptr[rho + 1]] {
                let (target, at) = (target as usize, at as usize);
                stray.push(at);
                let v = u.entry(at).1;
                if v != 0.0 {
                    work[target] += v;
                    let j = step_of_row[target];
                    if !queued[j] {
                        queued[j] = true;
                        pending.push(Reverse(j));
                    }
                }
            }
            while let Some(Reverse(j)) = pending.pop() {
                queued[j] = false;
                let i = self.pivrow[j];
                let eta = work[i] / self.upiv[j];
                work[i] = eta;
                if eta == 0.0 {
                    continue;
                }
                self.touched.push(i);
                for &(target, at) in &urow[urow_ptr[i]..urow_ptr[i + 1]] {
                    let v = u.entry(at as usize).1;
                    if v != 0.0 {
                        let target = target as usize;
                        work[target] -= v * eta;
                        let next = step_of_row[target];
                        if !queued[next] {
                            queued[next] = true;
                            pending.push(Reverse(next));
                        }
                    }
                }
            }
        }
        let later = self.u_steps.partition_point(|&s| s < self.m || s <= t);
        for &j in &self.u_steps[later..] {
            let mut acc = 0.0;
            for at in self.u.range(j) {
                let (i, u) = self.u.entry(at);
                if i == rho {
                    acc += u;
                    self.stray.push(at);
                } else {
                    acc -= u * self.work[i];
                }
            }
            let eta = acc / self.upiv[j];
            if eta != 0.0 {
                self.work[self.pivrow[j]] = eta;
                self.touched.push(self.pivrow[j]);
            }
        }
        // the new diagonal s_ρ − η·s, the size of the terms it cancels,
        // and what the pivot says it must be
        let (mut diag, mut terms) = (0.0, 0.0);
        for &(i, s) in &self.spike {
            let term = if i == rho { s } else { -self.work[i] * s };
            diag += term;
            terms += f64::abs(term);
        }
        let expected = pivot * self.upiv[t];
        let starved = !self.etas.fits(1, self.touched.len());
        if starved {
            self.grow_room();
        }
        if starved
            || diag.abs() <= PIVOT_ZERO
            || terms > MAX_CANCELLATION * diag.abs()
            || (diag - expected).abs() > 1e-8 * diag.abs().max(expected.abs())
        {
            for &i in &self.touched {
                self.work[i] = 0.0;
            }
            return false;
        }
        // the row eta, the stray row removed from U, the spike as the
        // last column
        if !self.touched.is_empty() {
            for &i in &self.touched {
                self.etas.push(i, std::mem::take(&mut self.work[i]));
            }
            self.etas.close();
            self.eta_rows.push(rho);
        }
        for &at in &self.stray {
            self.u.zero(at);
        }
        if t < self.m {
            // the refactorization's index still reaches the old column
            for at in self.u.range(t) {
                self.u.zero(at);
            }
        }
        for &(i, s) in &self.spike {
            if i != rho {
                self.u.push(i, s);
            }
        }
        let slot = self.order.len();
        if self.u.close() > 0 {
            self.u_steps.push(slot);
        }
        if let Ok(at) = self.u_steps.binary_search(&t) {
            self.u_steps.remove(at);
        }
        self.order.push(r);
        self.pivrow.push(rho);
        self.upiv.push(diag);
        self.slot_of_pos[r] = slot;
        self.diag_of_pos[r] = diag;
        true
    }

    /// Double the room of the windows from the next refactorization on,
    /// up to what a full window can use.
    fn grow_room(&mut self) {
        self.room = (2 * self.room).min((MAX_UPDATES * self.m).max(MIN_ROOM));
    }
}

#[cfg(test)]
impl Factorization {
    /// Entries of row eta `e`.
    pub(crate) fn row_eta_len(&self, e: usize) -> usize {
        self.etas.col(e).0.len()
    }

    /// Entries a window may add to `U` and to the row etas.
    pub(crate) fn room(&self) -> usize {
        self.room
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::ColMatrix;

    fn mat() -> ColMatrix {
        // B = [ 2 0 1 ; 0 -3 1 ; 4 1 0 ]  (rows)
        let rows: Vec<Vec<(usize, f64)>> =
            vec![vec![(0, 2.0), (2, 1.0)], vec![(1, -3.0), (2, 1.0)], vec![(0, 4.0), (1, 1.0)]];
        ColMatrix::from_rows(3, 3, || rows.iter().map(|r| r.as_slice()))
    }

    #[test]
    fn ftran_solves() {
        let m = mat();
        let mut f = Factorization::new(3);
        f.refactor(|p| m.col(p)).unwrap();
        // choose x = [1, 2, 3]; b = Bx = [2*1+1*3, -3*2+3, 4+2] = [5, -3, 6]
        let mut v = vec![5.0, -3.0, 6.0];
        f.ftran(&mut v);
        for (got, want) in v.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn btran_solves_transpose() {
        let m = mat();
        let mut f = Factorization::new(3);
        f.refactor(|p| m.col(p)).unwrap();
        // y with Bᵀ y = c. pick y = [1, -1, 2]: c_p = col_p · y
        let c0 = 2.0 * 1.0 + 4.0 * 2.0; // col0 rows {0:2, 2:4}
        let c1 = -3.0 * -1.0 + 1.0 * 2.0;
        let c2 = 1.0 * 1.0 - 1.0 * 1.0;
        let mut v = vec![c0, c1, c2];
        f.btran(&mut v);
        for (got, want) in v.iter().zip([1.0, -1.0, 2.0]) {
            assert!((got - want).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn update_tracks_column_replacement() {
        let m = mat();
        let mut f = Factorization::new(3);
        f.refactor(|p| m.col(p)).unwrap();
        // replace basis position 1 with column a = [1, 1, 1]
        let mut w = vec![1.0, 1.0, 1.0];
        let mut nz = Vec::new();
        f.ftran_entering(&mut w, &[0, 1, 2], &mut nz);
        assert!(f.update(&w, &nz, 1));
        // B_new columns: col0, a, col2 (in position order)
        // B_new = [2 1 1; 0 1 1; 4 1 0] (rows) — solve against dense ref
        // pick x = [1, 1, 1] -> b = [4, 2, 5]
        let mut v = vec![4.0, 2.0, 5.0];
        f.ftran(&mut v);
        for (got, want) in v.iter().zip([1.0, 1.0, 1.0]) {
            assert!((got - want).abs() < 1e-12, "{v:?}");
        }
        // btran consistency: Bᵀ y = c with y = [2, 0, 1]
        // B_new rows as columns: c_p = colᵖ · y
        let c = [2.0 * 2.0 + 4.0, 2.0 + 1.0, 2.0 + 0.0];
        let mut vb = c.to_vec();
        f.btran(&mut vb);
        for (got, want) in vb.iter().zip([2.0, 0.0, 1.0]) {
            assert!((got - want).abs() < 1e-12, "{vb:?}");
        }
    }

    #[test]
    fn singular_basis_detected() {
        let rows: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 4.0)]];
        let m = ColMatrix::from_rows(2, 2, || rows.iter().map(|r| r.as_slice()));
        let mut f = Factorization::new(2);
        assert_eq!(f.refactor(|p| m.col(p)), Err(FactorError::Singular));
    }

    #[test]
    fn tiny_update_pivot_rejected() {
        let m = mat();
        let mut f = Factorization::new(3);
        f.refactor(|p| m.col(p)).unwrap();
        f.ftran_entering(&mut vec![1.0, 1.0, 1.0], &[0, 1, 2], &mut Vec::new());
        let w = vec![1.0, 1e-14, 1.0];
        assert!(!f.update(&w, &[0, 1, 2], 1));
    }

    #[test]
    fn an_update_needs_the_spike_of_its_column() {
        let m = mat();
        let mut f = Factorization::new(3);
        f.refactor(|p| m.col(p)).unwrap();
        let mut w = vec![1.0, 1.0, 1.0];
        f.ftran(&mut w);
        assert!(!f.update(&w, &[0, 1, 2], 1), "no spike was kept");
        f.ftran_entering(&mut w.clone(), &[0, 1, 2], &mut Vec::new());
        f.refactor(|p| m.col(p)).unwrap();
        assert!(!f.update(&w, &[0, 1, 2], 1), "a refactorization drops the spike");
    }
}
