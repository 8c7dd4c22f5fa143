//! Basis factorization for the revised simplex: sparse LU with
//! product-form (eta) updates and periodic refactorization.
//!
//! [`Factorization::refactor`] runs a left-looking Gaussian elimination
//! over the basis columns (processed in increasing-fill order, rows
//! chosen by partial pivoting), producing `B·Q = L·U` with `L`
//! unit-"diagonal" in original row coordinates and `U` stored by
//! column. Each simplex pivot then appends one **eta** column —
//! `B_new = B_old · E` with `E` equal to the identity except for column
//! `r` which holds `w = B_old⁻¹ a_q` — so FTRAN/BTRAN stay exact
//! between refactorizations. The eta file is bounded
//! ([`Factorization::should_refactor`]); the simplex refactors when it
//! fills up or when a pivot looks numerically unsafe.
//!
//! Every kernel costs what it touches. Most basis columns of the
//! mapping LPs are slack singletons, whose `L` and `U` columns are
//! empty: the elimination's L-solve visits only the steps whose pivot
//! row is (or becomes) non-zero, FTRAN/BTRAN walk skip lists of the
//! non-empty columns, `L` and `U` live in two flat [`ColStack`]s that
//! are cleared, never freed, and the eta file in a [`SegStack`] that
//! takes a segment when a window needs one and gives back the ones the
//! last window left empty. What stays dense are the length-`m` work
//! vectors themselves. The visiting order — and so every floating-point
//! sum — is that of the plain loops over all `m` steps, which the test
//! suite keeps as the oracle (`src/kernel_tests.rs`).

use crate::sparse::{ColStack, SegStack};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Errors from [`Factorization::refactor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorError {
    /// The basis matrix is (numerically) singular.
    Singular,
}

/// An LU factorization of the current basis plus the eta file of
/// updates applied since the last refactorization.
#[derive(Debug)]
pub struct Factorization {
    m: usize,
    /// Elimination order: step `k` eliminated basis position `order[k]`.
    order: Vec<usize>,
    /// `pivrow[k]` = row chosen as pivot at step `k`.
    pivrow: Vec<usize>,
    /// `L` column per step: `(row, multiplier)` below the pivot.
    l: ColStack,
    /// `U` column per step: `(pivot row of an earlier step, value)`
    /// above the diagonal, earliest step first.
    u: ColStack,
    /// Steps whose `L` / `U` column is non-empty, increasing.
    l_steps: Vec<usize>,
    u_steps: Vec<usize>,
    /// Diagonal of `U` per step.
    upiv: Vec<f64>,
    /// One product-form update per column: its head is `(r, w[r])`,
    /// the basis position that was replaced and the pivot, followed by
    /// `(row, w[row])` for rows ≠ `r` with `w[row] != 0` of the FTRAN'd
    /// entering column `w`.
    etas: SegStack,
    /// Scratch: dense accumulator reused across columns; zero between
    /// refactorizations.
    work: Vec<f64>,
    /// Scratch reused by FTRAN/BTRAN (no cleanliness invariant).
    scratch: Vec<f64>,
    /// Refactorization scratch: elimination order of the positions and
    /// its counting-sort buckets, `step_of_row[r]` = step whose pivot
    /// row is `r`, the rows the current column touched, and the steps
    /// its L-solve still has to visit (`queued` marks the heap's
    /// members).
    positions: Vec<usize>,
    buckets: Vec<usize>,
    step_of_row: Vec<usize>,
    touched: Vec<usize>,
    pending: BinaryHeap<Reverse<usize>>,
    queued: Vec<bool>,
}

/// Absolute floor under which a pivot candidate is considered zero.
pub(crate) const PIVOT_ZERO: f64 = 1e-11;

/// Longest eta file before a refactorization is due.
const MAX_ETAS: usize = 64;

impl Factorization {
    /// Empty factorization for an `m`-row basis. Everything but the eta
    /// file is reserved here — `L` and `U` at four entries a row, which
    /// most bases of the mapping LPs stay under (they hold one to three)
    /// — because a vector that regrows in mid-solve leaves its old block
    /// behind as a hole in the heap.
    pub fn new(m: usize) -> Factorization {
        Factorization {
            m,
            order: Vec::with_capacity(m),
            pivrow: Vec::with_capacity(m),
            l: ColStack::with_capacity(m, 4 * m),
            u: ColStack::with_capacity(m, 4 * m),
            l_steps: Vec::with_capacity(m),
            u_steps: Vec::with_capacity(m),
            upiv: Vec::with_capacity(m),
            etas: SegStack::new(MAX_ETAS, m + 1),
            work: vec![0.0; m],
            scratch: vec![0.0; m],
            positions: vec![0; m],
            buckets: Vec::with_capacity(m + 2),
            step_of_row: vec![usize::MAX; m],
            touched: Vec::with_capacity(m),
            pending: BinaryHeap::with_capacity(m),
            queued: vec![false; m],
        }
    }

    /// Number of etas accumulated since the last refactorization.
    pub fn n_etas(&self) -> usize {
        self.etas.len()
    }

    /// `true` once the eta file is long enough that a refactorization
    /// is cheaper than dragging it along.
    pub fn should_refactor(&self) -> bool {
        self.etas.len() >= MAX_ETAS.min(self.m.max(8))
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
        self.etas.clear();

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
            self.pivrow.push(prow);
            self.upiv.push(pval);
            if self.l.close() > 0 {
                self.l_steps.push(k);
            }
            if self.u.close() > 0 {
                self.u_steps.push(k);
            }
        }
        Ok(())
    }

    /// Solve `B x = v` in place: on return `v[p]` is the value of the
    /// basis variable at position `p`.
    pub fn ftran(&mut self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        // L y = v in elimination order; y stays in row coordinates
        // (step k's component sits in v[pivrow[k]])
        for &k in &self.l_steps {
            let x = v[self.pivrow[k]];
            if x != 0.0 {
                let (rows, ls) = self.l.col(k);
                for (&r, &l) in rows.iter().zip(ls) {
                    v[r as usize] -= l * x;
                }
            }
        }
        // U z = y, column-oriented backward substitution. A step's
        // quotient is final once the later columns are through; it is
        // stored by the pass below, which divides every step alike.
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
        for k in 0..self.m {
            z[self.order[k]] = v[self.pivrow[k]] / self.upiv[k];
        }
        v.copy_from_slice(z);
        // eta updates, oldest first
        for (rows, ws) in self.etas.cols() {
            let (r, pivot) = (rows[0] as usize, ws[0]);
            let t = v[r] / pivot;
            if t != 0.0 {
                for (&i, &w) in rows[1..].iter().zip(&ws[1..]) {
                    v[i as usize] -= w * t;
                }
            }
            v[r] = t;
        }
    }

    /// Solve `Bᵀ y = c` in place: on entry `c[p]` is indexed by basis
    /// position, on return `c[row]` is indexed by row.
    pub fn btran(&mut self, c: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        // eta transposes, newest first
        for (rows, ws) in self.etas.cols().rev() {
            let (r, pivot) = (rows[0] as usize, ws[0]);
            let mut acc = c[r];
            for (&i, &w) in rows[1..].iter().zip(&ws[1..]) {
                acc -= w * c[i as usize];
            }
            c[r] = acc / pivot;
        }
        // Uᵀ w = c' with c'_k = c[order[k]], forward in steps, w in
        // row coordinates: a step with an empty U column is its own
        // quotient, the others are redone once their predecessors are
        let w = &mut self.scratch;
        for k in 0..self.m {
            w[self.pivrow[k]] = c[self.order[k]] / self.upiv[k];
        }
        for &k in &self.u_steps {
            let mut acc = c[self.order[k]];
            let (rows, us) = self.u.col(k);
            for (&r, &u) in rows.iter().zip(us) {
                acc -= u * w[r as usize];
            }
            w[self.pivrow[k]] = acc / self.upiv[k];
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
        c.copy_from_slice(w);
    }

    /// Append the eta for a pivot that put the FTRAN'd column `w`
    /// (dense, length `m`, its non-zero positions listed in `nz` in
    /// increasing order) into basis position `r`. Returns `false` when
    /// the pivot element is too small to be trusted — the caller must
    /// refactor instead.
    #[must_use]
    pub fn update(&mut self, w: &[f64], nz: &[usize], r: usize) -> bool {
        let pivot = w[r];
        let wmax = nz.iter().fold(0.0f64, |a, &i| a.max(w[i].abs()));
        if pivot.abs() <= PIVOT_ZERO || pivot.abs() < 1e-9 * wmax {
            return false;
        }
        self.etas.push_col(nz.len() + 1, |col| {
            col.push(r, pivot);
            for &i in nz {
                if i != r {
                    col.push(i, w[i]);
                }
            }
        });
        true
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
    fn eta_update_tracks_column_replacement() {
        let m = mat();
        let mut f = Factorization::new(3);
        f.refactor(|p| m.col(p)).unwrap();
        // replace basis position 1 with column a = [1, 1, 1]
        let mut w = vec![1.0, 1.0, 1.0];
        f.ftran(&mut w);
        assert!(f.update(&w, &[0, 1, 2], 1));
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
        let w = vec![1.0, 1e-14, 1.0];
        assert!(!f.update(&w, &[0, 1, 2], 1));
    }
}
