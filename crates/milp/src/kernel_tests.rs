//! Kernel referee: the sparse kernels of [`crate::factor`], the
//! pivot-row product of [`crate::sparse`] and the dual simplex's
//! leaving-row choice ([`InfeasibleSet`]) against the plain loops they
//! replaced, and the Forrest–Tomlin update against a dense solve of the
//! basis it claims to factor.
//!
//! [`DenseFactorization`] is the factorization as it was before the
//! kernels learned to skip: an L-solve that probes every earlier step
//! for every basis column, FTRAN/BTRAN that walk all `m` steps three
//! times. It lives here and nowhere else. Fresh from a refactorization
//! the shipped kernels promise the **same floating-point operations in
//! the same order**, so those comparisons are by `f64::to_bits`, up to
//! the sign of a zero (a skipped `0 · x` term can leave `+0` where the
//! dense sum left `−0`; no pivoting decision reads that sign).
//!
//! An update has no such twin: it produces a different factorization of
//! the new basis, not the one a refactorization would. [`ExplicitBasis`]
//! keeps the basis itself, column by column as the updates replace
//! them, and solves it by dense Gaussian elimination; behind any run of
//! updates FTRAN and BTRAN must match it within `1e-9` relative.

use crate::factor::{FactorError, Factorization, MAX_UPDATES, PIVOT_ZERO};
use crate::revised::{InfeasibleSet, FEAS_TOL};
use crate::sparse::{ColMatrix, SparseAcc};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The oracle: dense loops over all `m` steps, one `Vec` per column.
struct DenseFactorization {
    m: usize,
    order: Vec<usize>,
    pivrow: Vec<usize>,
    lcols: Vec<Vec<(usize, f64)>>,
    ucols: Vec<Vec<(usize, f64)>>,
    upiv: Vec<f64>,
}

impl DenseFactorization {
    fn new(m: usize) -> DenseFactorization {
        DenseFactorization {
            m,
            order: Vec::new(),
            pivrow: Vec::new(),
            lcols: Vec::new(),
            ucols: Vec::new(),
            upiv: Vec::new(),
        }
    }

    fn refactor<'c>(
        &mut self,
        basis_cols: impl Fn(usize) -> (&'c [usize], &'c [f64]),
    ) -> Result<(), FactorError> {
        let m = self.m;
        *self = DenseFactorization::new(m);
        let mut positions: Vec<usize> = (0..m).collect();
        positions.sort_by_key(|&p| basis_cols(p).0.len());
        let mut step_of_row = vec![usize::MAX; m];
        let mut work = vec![0.0f64; m];
        for &p in &positions {
            let k = self.order.len();
            let (rows, vals) = basis_cols(p);
            let mut touched: Vec<usize> = Vec::new();
            for (&r, &v) in rows.iter().zip(vals) {
                work[r] = v;
                touched.push(r);
            }
            let mut ucol: Vec<(usize, f64)> = Vec::new();
            for t in 0..k {
                let x = work[self.pivrow[t]];
                if x != 0.0 {
                    ucol.push((t, x));
                    for &(r, l) in &self.lcols[t] {
                        if work[r] == 0.0 {
                            touched.push(r);
                        }
                        work[r] -= l * x;
                    }
                }
            }
            let mut prow = usize::MAX;
            let mut pval = 0.0f64;
            for &r in &touched {
                if step_of_row[r] == usize::MAX && work[r].abs() > pval.abs() {
                    prow = r;
                    pval = work[r];
                }
            }
            if prow == usize::MAX || pval.abs() <= PIVOT_ZERO {
                return Err(FactorError::Singular);
            }
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                let v = work[r];
                work[r] = 0.0;
                if r != prow && step_of_row[r] == usize::MAX && v != 0.0 {
                    lcol.push((r, v / pval));
                }
            }
            step_of_row[prow] = k;
            self.order.push(p);
            self.pivrow.push(prow);
            self.lcols.push(lcol);
            self.ucols.push(ucol);
            self.upiv.push(pval);
        }
        Ok(())
    }

    fn ftran(&self, v: &mut [f64]) {
        let m = self.m;
        let mut y = vec![0.0f64; m];
        for k in 0..m {
            let x = v[self.pivrow[k]];
            y[k] = x;
            if x != 0.0 {
                for &(r, l) in &self.lcols[k] {
                    v[r] -= l * x;
                }
            }
        }
        for t in (0..m).rev() {
            let z = y[t] / self.upiv[t];
            y[t] = z;
            if z != 0.0 {
                for &(s, u) in &self.ucols[t] {
                    y[s] -= u * z;
                }
            }
        }
        for k in 0..m {
            v[self.order[k]] = y[k];
        }
    }

    fn btran(&self, c: &mut [f64]) {
        let m = self.m;
        let mut wv = vec![0.0f64; m];
        for k in 0..m {
            let mut acc = c[self.order[k]];
            for &(s, u) in &self.ucols[k] {
                acc -= u * wv[s];
            }
            wv[k] = acc / self.upiv[k];
        }
        for v in c.iter_mut() {
            *v = 0.0;
        }
        for k in (0..m).rev() {
            let mut acc = wv[k];
            for &(r, l) in &self.lcols[k] {
                acc -= l * c[r];
            }
            c[self.pivrow[k]] = acc;
        }
    }
}

/// Bitwise equality up to the sign of zero.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

fn assert_same(got: &[f64], want: &[f64], what: &str) {
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g, w),
            "{what}: slot {i} is {g:e} ({:#x}), dense {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn nonzeros(w: &[f64]) -> Vec<usize> {
    (0..w.len()).filter(|&i| w[i] != 0.0).collect()
}

/// A sparse vector with about `fill · m` entries (at least one).
fn sparse_vec(rng: &mut StdRng, m: usize, fill: f64) -> Vec<f64> {
    let mut v = vec![0.0; m];
    v[rng.gen_range(0..m)] = rng.gen_range(-4.0..4.0f64);
    for slot in v.iter_mut() {
        if rng.gen_bool(fill) {
            *slot = rng.gen_range(-4.0..4.0f64);
        }
    }
    v
}

/// FTRAN and BTRAN of both factorizations on a unit vector, a sparse
/// vector and a full one.
fn solves_agree(f: &mut Factorization, d: &DenseFactorization, rng: &mut StdRng, when: &str) {
    let m = d.m;
    let mut unit = vec![0.0; m];
    unit[rng.gen_range(0..m)] = 1.0;
    for (kind, v) in
        [("unit", unit), ("sparse", sparse_vec(rng, m, 0.1)), ("full", sparse_vec(rng, m, 1.0))]
    {
        let (mut got, mut want) = (v.clone(), v.clone());
        f.ftran(&mut got);
        d.ftran(&mut want);
        assert_same(&got, &want, &format!("ftran of a {kind} vector {when}"));
        let (mut got, mut want) = (v.clone(), v);
        f.btran(&mut got);
        d.btran(&mut want);
        assert_same(&got, &want, &format!("btran of a {kind} vector {when}"));
    }
}

/// A random `m × m` basis as mapping LPs have them: three fifths of
/// the positions hold the slack singleton of a row of their own, the
/// rest sparse structural columns with small-integer coefficients
/// (sums cancel exactly now and then, as ±1 rows do).
fn slack_majority_basis(rng: &mut StdRng, m: usize) -> ColMatrix {
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for p in 0..m {
        if rng.gen_bool(0.6) {
            rows[p].push((p, 1.0));
            continue;
        }
        // a structural column: its own row (so the basis is usually
        // regular) plus about five more
        for (r, row) in rows.iter_mut().enumerate() {
            if r == p || rng.gen_bool((5.0 / m as f64).min(1.0)) {
                let v = rng.gen_range(1..=3i32) as f64 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                row.push((p, v));
            }
        }
    }
    ColMatrix::from_rows(m, m, || rows.iter().map(|r| r.as_slice()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `refactor`, `ftran` and `btran` against the dense loops, fresh
    /// from a refactorization.
    #[test]
    fn prop_factorization_matches_the_dense_loops(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(4..=60usize);
        let basis = slack_majority_basis(&mut rng, m);
        let mut f = Factorization::new(m);
        let mut d = DenseFactorization::new(m);
        let verdict = f.refactor(|p| basis.col(p));
        prop_assert_eq!(verdict.clone(), d.refactor(|p| basis.col(p)));
        // a singular draw ends here: both sides said so
        prop_assume!(verdict.is_ok());
        solves_agree(&mut f, &d, &mut rng, "after refactor");
    }

    /// The pivot row `ρᵀA` summed row-wise over the transposed copy
    /// against one column dot product per column.
    #[test]
    fn prop_pivot_row_matches_the_column_dots(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, n) = (rng.gen_range(1..=30usize), rng.gen_range(1..=70usize));
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for row in rows.iter_mut() {
            for c in 0..n {
                if rng.gen_bool(0.15) {
                    row.push((c, rng.gen_range(-3.0..3.0f64)));
                }
            }
        }
        let mat = ColMatrix::from_rows(m, n, || rows.iter().map(|r| r.as_slice()));
        let by_row = mat.transpose();
        let mut acc = SparseAcc::new(n);
        for fill in [0.05, 0.3, 1.0] {
            let rho = sparse_vec(&mut rng, m, fill);
            let mut got = vec![0.0; n];
            let mut consumed = rho.clone();
            by_row.combine(&mut consumed, &mut acc);
            assert!(consumed.iter().all(|&x| x == 0.0), "combine leaves its multipliers zero");
            let mut last = None;
            acc.drain(|j, a| {
                assert!(last < Some(j), "drained out of order");
                last = Some(j);
                got[j] = a;
            });
            let want: Vec<f64> = (0..n).map(|j| mat.col_dot(j, &rho)).collect();
            assert_same(&got, &want, "pivot row");
        }
    }

    /// The dual's leaving row read from the maintained infeasibility
    /// set against the scan over all positions it replaced, after every
    /// step of a random run of pivots (values move at a random set of
    /// positions, the pivot position also takes new bounds), bound
    /// flips (values move, bounds stay) and rebuilds. Values and bounds
    /// come from a coarse grid, so equal violations — the tie-break —
    /// are common.
    #[test]
    fn prop_infeasibility_set_picks_the_dense_scans_leaving_row(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..=40usize);
        let (mut beta, mut lo, mut hi) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
        for pos in 0..m {
            (lo[pos], hi[pos]) = random_bounds(&mut rng);
            beta[pos] = random_value(&mut rng);
        }
        let mut set = InfeasibleSet::new(m);
        set.rebuild(&beta, &lo, &hi);
        for step in 0..rng.gen_range(1..=60usize) {
            let moved: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.2)).collect();
            for &pos in &moved {
                beta[pos] = random_value(&mut rng);
            }
            match rng.gen_range(0..10) {
                0 => set.rebuild(&beta, &lo, &hi),
                1..=5 => {
                    let r = rng.gen_range(0..m);
                    (lo[r], hi[r]) = random_bounds(&mut rng);
                    beta[r] = random_value(&mut rng);
                    for &pos in moved.iter().chain([&r]) {
                        set.refresh(pos, &beta, &lo, &hi);
                    }
                }
                _ => {
                    for &pos in &moved {
                        set.refresh(pos, &beta, &lo, &hi);
                    }
                }
            }
            prop_assert_eq!(set.leaving(), dense_leaving(&beta, &lo, &hi), "step {}", step);
        }
    }
}

/// The scan over all `m` positions the dual simplex took its leaving row
/// from: the largest violation beyond `FEAS_TOL`, the first (lowest)
/// position on ties, and whether it lies below its bound.
fn dense_leaving(beta: &[f64], lo: &[f64], hi: &[f64]) -> Option<(usize, bool)> {
    let mut r = usize::MAX;
    let mut worst = FEAS_TOL;
    let mut below = false;
    for (pos, &b) in beta.iter().enumerate() {
        let d_lo = lo[pos] - b;
        let d_hi = b - hi[pos];
        if d_lo > worst {
            worst = d_lo;
            r = pos;
            below = true;
        }
        if d_hi > worst {
            worst = d_hi;
            r = pos;
            below = false;
        }
    }
    (r != usize::MAX).then_some((r, below))
}

/// A value on a grid of quarters, now and then just past the tolerance
/// of a grid bound.
fn random_value(rng: &mut StdRng) -> f64 {
    let v = rng.gen_range(-8..=8i32) as f64 / 4.0;
    match rng.gen_range(0..8) {
        0 => v + FEAS_TOL,
        1 => v - 2.0 * FEAS_TOL,
        _ => v,
    }
}

/// Bounds as the mapping LPs have them: boxes, one-sided rays, fixed
/// values and free columns.
fn random_bounds(rng: &mut StdRng) -> (f64, f64) {
    let a = rng.gen_range(-4..=4i32) as f64 / 4.0;
    let b = a + rng.gen_range(0..=4i32) as f64 / 4.0;
    match rng.gen_range(0..5) {
        0 => (f64::NEG_INFINITY, b),
        1 => (a, f64::INFINITY),
        2 => (f64::NEG_INFINITY, f64::INFINITY),
        _ => (a, b),
    }
}

/// Two columns on one row: both sides call the basis singular, and the
/// shipped scratch is clean enough afterwards to factor a regular one.
#[test]
fn singular_basis_is_refused_and_leaves_the_scratch_clean() {
    // position 0 and position 2 are both the slack of row 1; position 1
    // reaches rows 0 and 2
    let rows: Vec<Vec<(usize, f64)>> =
        vec![vec![(1, 2.0)], vec![(0, 1.0), (2, 1.0)], vec![(1, -1.0)]];
    let singular = ColMatrix::from_rows(3, 3, || rows.iter().map(|r| r.as_slice()));
    let mut f = Factorization::new(3);
    let mut d = DenseFactorization::new(3);
    assert_eq!(f.refactor(|p| singular.col(p)), Err(FactorError::Singular));
    assert_eq!(d.refactor(|p| singular.col(p)), Err(FactorError::Singular));

    let rows: Vec<Vec<(usize, f64)>> =
        vec![vec![(0, 2.0), (2, 1.0)], vec![(1, -3.0), (2, 1.0)], vec![(0, 4.0), (1, 1.0)]];
    let regular = ColMatrix::from_rows(3, 3, || rows.iter().map(|r| r.as_slice()));
    f.refactor(|p| regular.col(p)).unwrap();
    d.refactor(|p| regular.col(p)).unwrap();
    solves_agree(&mut f, &d, &mut StdRng::seed_from_u64(1), "after a singular attempt");
}

/// A cancellation inside the L-solve. Eliminating position 4, step 1
/// drives row 3 to exactly zero and the queued step 3 finds nothing
/// left to do; eliminating position 5, the same cancellation is undone
/// by step 2, which touches row 3 a second time before step 3 reads
/// it, and step 3 then fills row 4 — the pivot row of step 4, which
/// the column itself never mentioned. The dense loop sees all of it as
/// `x == 0` / `work[r] == 0.0` probes; the sparse one must pop, skip,
/// re-mark and queue to the same effect.
#[test]
fn cancelled_row_is_retouched_like_the_dense_loop_does() {
    //            pos: 0     1     2     3     4     5
    // row 0:         .     1     .     .     2     2
    // row 1:         .     .     1     .     .     5
    // row 2:         1     .     .     .     .     .
    // row 3:         .     1    -1     3     2     2
    // row 4:         .     .     .     1     1     .
    // row 5:         .     .     .     .     .     1
    let rows: Vec<Vec<(usize, f64)>> = vec![
        vec![(1, 1.0), (4, 2.0), (5, 2.0)],
        vec![(2, 1.0), (5, 5.0)],
        vec![(0, 1.0)],
        vec![(1, 1.0), (2, -1.0), (3, 3.0), (4, 2.0), (5, 2.0)],
        vec![(3, 1.0), (4, 1.0)],
        vec![(5, 1.0)],
    ];
    let basis = ColMatrix::from_rows(6, 6, || rows.iter().map(|r| r.as_slice()));
    let mut f = Factorization::new(6);
    let mut d = DenseFactorization::new(6);
    f.refactor(|p| basis.col(p)).unwrap();
    d.refactor(|p| basis.col(p)).unwrap();
    // the scenario the comment describes, as the oracle recorded it
    assert_eq!(d.order, [0, 1, 2, 3, 4, 5]);
    assert_eq!(d.pivrow, [2, 0, 1, 3, 4, 5]);
    assert_eq!(d.ucols[4], [(1, 2.0)], "step 3 must find row 3 cancelled");
    assert_eq!(d.ucols[5].iter().map(|&(t, _)| t).collect::<Vec<_>>(), [1, 2, 3, 4]);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..8 {
        solves_agree(&mut f, &d, &mut rng, "after the cancellation");
    }
}

// ---- Forrest–Tomlin updates against the basis they factor -------------

/// The basis a factorization claims to hold, one sparse column per
/// position, and a dense solve of it: the referee behind updates.
struct ExplicitBasis {
    m: usize,
    cols: Vec<(Vec<usize>, Vec<f64>)>,
}

impl ExplicitBasis {
    fn of(mat: &ColMatrix) -> ExplicitBasis {
        let cols = (0..mat.ncols())
            .map(|p| {
                let (rows, vals) = mat.col(p);
                (rows.to_vec(), vals.to_vec())
            })
            .collect();
        ExplicitBasis { m: mat.nrows(), cols }
    }

    fn refactor(&self, f: &mut Factorization) -> Result<(), FactorError> {
        f.refactor(|p| (&self.cols[p].0[..], &self.cols[p].1[..]))
    }

    /// `x` with `B x = v`, or `Bᵀ x = v` when `transpose`: Gaussian
    /// elimination with partial pivoting on a dense copy.
    fn solve(&self, v: &[f64], transpose: bool) -> Vec<f64> {
        let m = self.m;
        let mut a = vec![vec![0.0f64; m]; m];
        for (p, (rows, vals)) in self.cols.iter().enumerate() {
            for (&r, &x) in rows.iter().zip(vals) {
                if transpose {
                    a[p][r] = x;
                } else {
                    a[r][p] = x;
                }
            }
        }
        let mut b = v.to_vec();
        for k in 0..m {
            let piv = (k..m).max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs())).unwrap();
            a.swap(k, piv);
            b.swap(k, piv);
            let (done, rest) = a.split_at_mut(k + 1);
            let pivot_row = &done[k];
            for (i, row) in rest.iter_mut().enumerate() {
                let l = row[k] / pivot_row[k];
                if l != 0.0 {
                    for (x, &p) in row[k..].iter_mut().zip(&pivot_row[k..]) {
                        *x -= l * p;
                    }
                    b[k + 1 + i] -= l * b[k];
                }
            }
        }
        for k in (0..m).rev() {
            let acc = a[k][k + 1..].iter().zip(&b[k + 1..]).fold(b[k], |acc, (&x, &y)| acc - x * y);
            b[k] = acc / a[k][k];
        }
        b
    }
}

/// Every component within `1e-9` of the largest one of the dense answer.
fn assert_close(got: &[f64], want: &[f64], what: &str) {
    let scale = want.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() <= 1e-9 * scale, "{what}: slot {i} is {g:e}, dense solve {w:e}");
    }
}

/// FTRAN and BTRAN of `f` against dense solves of `basis`, on a unit
/// vector, a sparse one and a full one.
fn solves_match(f: &mut Factorization, basis: &ExplicitBasis, rng: &mut StdRng, when: &str) {
    let m = basis.m;
    let mut unit = vec![0.0; m];
    unit[rng.gen_range(0..m)] = 1.0;
    for (kind, v) in
        [("unit", unit), ("sparse", sparse_vec(rng, m, 0.1)), ("full", sparse_vec(rng, m, 1.0))]
    {
        let mut got = v.clone();
        f.ftran(&mut got);
        assert_close(&got, &basis.solve(&v, false), &format!("ftran of a {kind} vector {when}"));
        let mut got = v.clone();
        f.btran(&mut got);
        assert_close(&got, &basis.solve(&v, true), &format!("btran of a {kind} vector {when}"));
    }
}

/// A structural column as the mapping LPs have them: two to six
/// small-integer entries.
fn structural_col(rng: &mut StdRng, m: usize) -> (Vec<usize>, Vec<f64>) {
    let mut rows: Vec<usize> = (0..rng.gen_range(2..=6)).map(|_| rng.gen_range(0..m)).collect();
    rows.sort_unstable();
    rows.dedup();
    let vals = rows
        .iter()
        .map(|_| rng.gen_range(1..=3i32) as f64 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    (rows, vals)
}

/// FTRAN of column `a` as the simplex does it for an entering column.
fn entering(f: &mut Factorization, a: &(Vec<usize>, Vec<f64>), m: usize) -> Vec<f64> {
    let mut w = vec![0.0; m];
    for (&r, &x) in a.0.iter().zip(&a.1) {
        w[r] = x;
    }
    f.ftran_entering(&mut w, &a.0, &mut Vec::new());
    w
}

/// A position the simplex could pivot on: a non-zero of `w` at least a
/// hundredth of its largest.
fn healthy_pivot(rng: &mut StdRng, w: &[f64]) -> usize {
    let wmax = w.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    let fit: Vec<usize> = (0..w.len()).filter(|&i| w[i].abs() >= 1e-2 * wmax).collect();
    fit[rng.gen_range(0..fit.len())]
}

/// Put column `a`, FTRAN'd to `w`, into position `r` of `basis` and of
/// `f` — by an update when `f` takes it, else by the refactorization the
/// simplex falls back to. Returns whether the update held.
fn pivot(
    f: &mut Factorization,
    basis: &mut ExplicitBasis,
    a: (Vec<usize>, Vec<f64>),
    w: &[f64],
    r: usize,
) -> bool {
    let held = f.update(w, &nonzeros(w), r);
    basis.cols[r] = a;
    if !held {
        basis.refactor(f).expect("a healthy pivot keeps the basis regular");
    }
    held
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 1–64 updates on a random slack-majority basis, each followed by
    /// FTRAN and BTRAN against a dense solve of the basis as it now
    /// stands. A pivot the update refuses (a full window, or a new
    /// diagonal that cancels too much — about one in a hundred here) is
    /// taken by a refactorization, as the simplex does.
    #[test]
    fn prop_updates_match_a_dense_solve_of_the_basis(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(4..=80usize);
        let mut basis = ExplicitBasis::of(&slack_majority_basis(&mut rng, m));
        let mut f = Factorization::new(m);
        prop_assume!(basis.refactor(&mut f).is_ok());
        let steps = rng.gen_range(1..=64usize);
        let mut held = 0;
        for step in 0..steps {
            let a = structural_col(&mut rng, m);
            let w = entering(&mut f, &a, m);
            let r = healthy_pivot(&mut rng, &w);
            held += usize::from(pivot(&mut f, &mut basis, a, &w, r));
            solves_match(&mut f, &basis, &mut rng, &format!("after update {step}"));
        }
        prop_assert!(2 * held >= steps, "{} of {} updates held", held, steps);
    }
}

/// A new diagonal that vanishes is refused, and the refactorization the
/// refusal hands over to agrees: the new basis is singular. The pivot
/// itself passes (5e-11 is the largest entry of `w` and above the
/// absolute floor), but it multiplies the replaced diagonal 0.1 —
/// reached through a row eta, since row 1 has an entry right of that
/// diagonal — down to 5e-12.
#[test]
fn a_vanishing_diagonal_is_refused() {
    //            pos: 0     1     2
    // row 0:         1     .     2
    // row 1:         .    0.1    3
    // row 2:         .     .     1
    let rows: Vec<Vec<(usize, f64)>> =
        vec![vec![(0, 1.0), (2, 2.0)], vec![(1, 0.1), (2, 3.0)], vec![(2, 1.0)]];
    let mut basis =
        ExplicitBasis::of(&ColMatrix::from_rows(3, 3, || rows.iter().map(|r| r.as_slice())));
    let mut f = Factorization::new(3);
    basis.refactor(&mut f).unwrap();
    let a = (vec![1], vec![5e-12]);
    let w = entering(&mut f, &a, 3);
    assert!((w[1] - 5e-11).abs() < 1e-20);
    assert!(!f.update(&w, &nonzeros(&w), 1), "the new diagonal is 5e-12");
    assert_eq!(f.n_updates(), 0);
    solves_match(&mut f, &basis, &mut StdRng::seed_from_u64(3), "after the refusal");
    basis.cols[1] = a;
    assert_eq!(basis.refactor(&mut f), Err(FactorError::Singular));
}

/// Replacing the first column of a dense upper-triangular basis: row 0
/// of `U` is full, so the row eta spans every later slot.
#[test]
fn a_row_eta_spanning_the_whole_tail() {
    let m = 12;
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (i, row) in rows.iter_mut().enumerate() {
        row.push((i, rng.gen_range(1.0..2.0f64)));
        for j in i + 1..m {
            row.push((j, rng.gen_range(-1.5..1.5f64)));
        }
    }
    let mut basis =
        ExplicitBasis::of(&ColMatrix::from_rows(m, m, || rows.iter().map(|r| r.as_slice())));
    let mut f = Factorization::new(m);
    basis.refactor(&mut f).unwrap();
    let a = structural_col(&mut rng, m);
    let w = entering(&mut f, &a, m);
    assert!(w[0].abs() > 1e-2, "position 0 must be a healthy pivot");
    assert!(pivot(&mut f, &mut basis, a, &w, 0));
    assert_eq!(f.row_eta_len(0), m - 1);
    solves_match(&mut f, &basis, &mut rng, "behind the full row eta");
    for step in 0..8 {
        let a = structural_col(&mut rng, m);
        let w = entering(&mut f, &a, m);
        let r = healthy_pivot(&mut rng, &w);
        assert!(pivot(&mut f, &mut basis, a, &w, r));
        solves_match(&mut f, &basis, &mut rng, &format!("after update {step} behind it"));
    }
}

/// Twenty updates in a row at one position: each replaces the spike
/// the one before it appended.
#[test]
fn repeated_updates_at_one_position() {
    let m = 40;
    let mut rng = StdRng::seed_from_u64(0x5A3E);
    let mut basis = ExplicitBasis::of(&slack_majority_basis(&mut rng, m));
    let mut f = Factorization::new(m);
    basis.refactor(&mut f).unwrap();
    let r = 17;
    let first = basis.cols[r].clone();
    for step in 0..20 {
        // twice the first column there plus a small structural one
        let (mut rows, mut vals) = first.clone();
        vals.iter_mut().for_each(|v| *v *= 2.0);
        let (extra_rows, extra_vals) = structural_col(&mut rng, m);
        for (i, x) in extra_rows.into_iter().zip(extra_vals) {
            match rows.iter().position(|&q| q == i) {
                Some(at) => vals[at] += 0.25 * x,
                None => {
                    rows.push(i);
                    vals.push(0.25 * x);
                }
            }
        }
        let a = (rows, vals);
        let w = entering(&mut f, &a, m);
        assert!(pivot(&mut f, &mut basis, a, &w, r), "update {step} at {r}");
        solves_match(&mut f, &basis, &mut rng, &format!("after update {step} at {r}"));
    }
    assert_eq!(f.n_updates(), 20);
}

/// A full window on a basis of the size of a paper graph's LP: 64
/// updates (a refused one starts the window over), then the next
/// refused until a refactorization.
#[test]
fn a_full_window_at_m_600() {
    let m = 600;
    let mut rng = StdRng::seed_from_u64(0xF0115);
    let mut basis = ExplicitBasis::of(&slack_majority_basis(&mut rng, m));
    let mut f = Factorization::new(m);
    basis.refactor(&mut f).unwrap();
    let mut in_window = 0;
    while in_window < 64 {
        let a = structural_col(&mut rng, m);
        let w = entering(&mut f, &a, m);
        let r = healthy_pivot(&mut rng, &w);
        in_window = if pivot(&mut f, &mut basis, a, &w, r) { in_window + 1 } else { 0 };
        if [1, 32, 64].contains(&in_window) {
            solves_match(&mut f, &basis, &mut rng, &format!("after update {in_window}"));
        }
    }
    assert!(f.should_refactor());
    let a = structural_col(&mut rng, m);
    let w = entering(&mut f, &a, m);
    let r = healthy_pivot(&mut rng, &w);
    assert!(!pivot(&mut f, &mut basis, a, &w, r), "the window is full");
    assert_eq!(f.n_updates(), 0);
    solves_match(&mut f, &basis, &mut rng, "after the refactorization");
}

/// A window that runs out of room: on a dense upper-triangular basis
/// every update at an early position appends a row eta across all the
/// later slots, and 64 of them need more than the first room. The
/// update that does not fit is refused, the room doubles, and the
/// window after the refactorization holds all 64.
#[test]
fn a_window_out_of_room_doubles_the_next() {
    let m = 200;
    let mut rng = StdRng::seed_from_u64(0x800F);
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (i, row) in rows.iter_mut().enumerate() {
        row.push((i, rng.gen_range(4.0..5.0f64)));
        for j in i + 1..m {
            row.push((j, rng.gen_range(-0.5..0.5f64)));
        }
    }
    let mut basis =
        ExplicitBasis::of(&ColMatrix::from_rows(m, m, || rows.iter().map(|r| r.as_slice())));
    let mut f = Factorization::new(m);
    basis.refactor(&mut f).unwrap();
    let first_room = f.room();
    let mut refused = Vec::new();
    for step in 0..2 * MAX_UPDATES {
        // the column at the earliest position not replaced in this
        // window, stretched: w is about 1.5 there
        let p = f.n_updates();
        let (rows, mut vals) = basis.cols[p].clone();
        vals.iter_mut().for_each(|v| *v *= 1.5);
        let a = (rows, vals);
        let w = entering(&mut f, &a, m);
        if !pivot(&mut f, &mut basis, a, &w, p) {
            refused.push((step, f.room()));
        }
    }
    // doubled, up to what a full window of 200-entry row etas can use
    let grown = (2 * first_room).min(MAX_UPDATES * m);
    assert_eq!(refused.len(), 2, "{refused:?}");
    assert_eq!(refused[0].1, grown, "the room grew at the first refusal");
    assert_eq!(refused[1], (refused[0].0 + 1 + MAX_UPDATES, grown), "then a full window");
    solves_match(&mut f, &basis, &mut rng, "after two windows");
}
