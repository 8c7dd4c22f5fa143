//! Kernel referee: the sparse kernels of [`crate::factor`] and the
//! pivot-row product of [`crate::sparse`] against the plain loops they
//! replaced.
//!
//! [`DenseFactorization`] is the factorization as it was before the
//! kernels learned to skip: an L-solve that probes every earlier step
//! for every basis column, FTRAN/BTRAN that walk all `m` steps three
//! times, an eta append that scans the whole entering column. It lives
//! here and nowhere else. The shipped kernels promise the **same
//! floating-point operations in the same order**, so every comparison
//! is by `f64::to_bits`, up to the sign of a zero (a skipped `0 · x`
//! term can leave `+0` where the dense sum left `−0`; no pivoting
//! decision reads that sign).

use crate::factor::{FactorError, Factorization, PIVOT_ZERO};
use crate::sparse::{ColMatrix, SparseAcc};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Eta {
    r: usize,
    pivot: f64,
    entries: Vec<(usize, f64)>,
}

/// The oracle: dense loops over all `m` steps, one `Vec` per column.
struct DenseFactorization {
    m: usize,
    order: Vec<usize>,
    pivrow: Vec<usize>,
    lcols: Vec<Vec<(usize, f64)>>,
    ucols: Vec<Vec<(usize, f64)>>,
    upiv: Vec<f64>,
    etas: Vec<Eta>,
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
            etas: Vec::new(),
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
        for eta in &self.etas {
            let t = v[eta.r] / eta.pivot;
            if t != 0.0 {
                for &(i, w) in &eta.entries {
                    v[i] -= w * t;
                }
            }
            v[eta.r] = t;
        }
    }

    fn btran(&self, c: &mut [f64]) {
        let m = self.m;
        for eta in self.etas.iter().rev() {
            let mut acc = c[eta.r];
            for &(i, w) in &eta.entries {
                acc -= w * c[i];
            }
            c[eta.r] = acc / eta.pivot;
        }
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

    fn update(&mut self, w: &[f64], r: usize) -> bool {
        let pivot = w[r];
        let wmax = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if pivot.abs() <= PIVOT_ZERO || pivot.abs() < 1e-9 * wmax {
            return false;
        }
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { r, pivot, entries });
        true
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

    /// `refactor`, `ftran`, `btran` and `update` against the dense
    /// loops, fresh from a refactorization and again behind a run of
    /// eta updates.
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

        for step in 0..rng.gen_range(1..=12usize) {
            // entering column: FTRAN of a sparse right-hand side
            let a = sparse_vec(&mut rng, m, 0.15);
            let (mut w, mut w_dense) = (a.clone(), a);
            f.ftran(&mut w);
            d.ftran(&mut w_dense);
            assert_same(&w, &w_dense, "entering column");
            let nz = nonzeros(&w);
            // leave at a non-zero position, or now and then anywhere (at
            // a zero both sides must refuse the pivot)
            let r = if rng.gen_bool(0.9) { nz[rng.gen_range(0..nz.len())] } else { rng.gen_range(0..m) };
            let accepted = f.update(&w, &nz, r);
            prop_assert_eq!(accepted, d.update(&w_dense, r), "update {} at {}", step, r);
            prop_assert_eq!(f.n_etas(), d.etas.len());
        }
        solves_agree(&mut f, &d, &mut rng, "behind the eta file");
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
            by_row.combine(&rho, &mut acc);
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
}

/// An eta file of dense columns longer than one segment, then a short
/// one on the segments it leaves, then a long one again after the
/// spares were given back: FTRAN and BTRAN walk the segments in the
/// dense loops' order each time.
#[test]
fn eta_file_spanning_segments_matches_the_dense_loops() {
    let mut rng = StdRng::seed_from_u64(0xE7A5);
    let m = 600;
    let basis = slack_majority_basis(&mut rng, m);
    let mut f = Factorization::new(m);
    let mut d = DenseFactorization::new(m);
    // 8 192 entries a segment: 40 columns of ~600 entries fill three
    for (window, updates) in [40, 3, 2, 40].into_iter().enumerate() {
        assert_eq!(f.refactor(|p| basis.col(p)), Ok(()));
        assert_eq!(d.refactor(|p| basis.col(p)), Ok(()));
        let mut entries = 0;
        for _ in 0..updates {
            let a = sparse_vec(&mut rng, m, 1.0);
            let (mut w, mut w_dense) = (a.clone(), a);
            f.ftran(&mut w);
            d.ftran(&mut w_dense);
            assert_same(&w, &w_dense, "entering column");
            let nz = nonzeros(&w);
            entries += nz.len();
            let r = nz[rng.gen_range(0..nz.len())];
            assert_eq!(f.update(&w, &nz, r), d.update(&w_dense, r));
        }
        assert_eq!(f.n_etas(), d.etas.len());
        assert!(f.n_etas() < 4 || entries > 2 * 8192, "window {window}: {entries} entries");
        solves_agree(&mut f, &d, &mut rng, &format!("behind eta file {window}"));
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
