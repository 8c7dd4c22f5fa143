//! Sparse storage for the revised simplex: the constraint matrix as
//! compressed sparse columns (CSC), the growable column stack the
//! factorization keeps `L`, `U` and its eta file in, and the sparse
//! accumulator the pivot row is summed into.
//!
//! The mapping formulations are extremely sparse — a typical row of
//! Linear Program (1) touches 2–12 of several thousand columns — so the
//! revised simplex stores the constraint matrix as compressed sparse
//! columns and never densifies it. [`ColMatrix::from_rows`] builds the
//! CSC straight from the model's sparse row triplets in one
//! counting-sort pass; its transpose is the row-wise copy
//! the pivot-row kernel walks.

/// A compressed-sparse-column matrix: `nrows × ncols`, immutable once
/// built.
#[derive(Debug, Clone, Default)]
pub struct ColMatrix {
    nrows: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl ColMatrix {
    /// Build from sparse rows: `rows[i]` lists `(column, coefficient)`
    /// pairs of row `i`. `ncols` must bound every column index.
    pub fn from_rows<'a, I, R>(nrows: usize, ncols: usize, rows: I) -> ColMatrix
    where
        I: Fn() -> R,
        R: Iterator<Item = &'a [(usize, f64)]>,
    {
        let mut counts = vec![0usize; ncols + 1];
        let mut nnz = 0usize;
        for row in rows() {
            for &(c, _) in row {
                debug_assert!(c < ncols, "column {c} out of range {ncols}");
                counts[c + 1] += 1;
                nnz += 1;
            }
        }
        for j in 0..ncols {
            counts[j + 1] += counts[j];
        }
        let col_ptr = counts.clone();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = counts;
        for (i, row) in rows().enumerate() {
            for &(c, v) in row {
                let k = cursor[c];
                row_idx[k] = i;
                values[k] = v;
                cursor[c] += 1;
            }
        }
        ColMatrix { nrows, col_ptr, row_idx, values }
    }

    /// The transpose, again column-wise: column `i` of the result is
    /// row `i` of `self`, its entries in increasing column order. The
    /// revised simplex keeps it beside the CSC as the row-wise copy of
    /// the constraint matrix.
    pub(crate) fn transpose(&self) -> ColMatrix {
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            col_ptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for j in 0..self.ncols() {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let k = cursor[r];
                row_idx[k] = j;
                values[k] = v;
                cursor[r] += 1;
            }
        }
        ColMatrix { nrows: self.ncols(), col_ptr, row_idx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.col_ptr.len().saturating_sub(1)
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column `j` as parallel `(row indices, values)` slices.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (a, b) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[a..b], &self.values[a..b])
    }

    /// Entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Sparse dot product of column `j` with a dense vector.
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| v * dense[r]).sum()
    }

    /// The combination `Σ_j x_j · col_j` summed into `acc`, over the
    /// non-zero `x_j` in increasing `j`. On the transposed copy this is
    /// a row of multipliers times the matrix: slot `c` receives the
    /// additions of `col_dot(c, x)` on the original, in its order, minus
    /// the terms that are zero.
    pub(crate) fn combine(&self, x: &[f64], acc: &mut SparseAcc) {
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                let (rows, vals) = self.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    acc.add(r, v * xj);
                }
            }
        }
    }

    /// `dense[r] += scale * col_j[r]` for every entry of column `j`.
    pub fn col_axpy(&self, j: usize, scale: f64, dense: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            dense[r] += scale * v;
        }
    }
}

/// Sparse columns appended one at a time into flat arrays — the
/// storage of the factorization's `L`, `U` and eta file. Clearing keeps
/// the capacity, so a stack that has reached its working size is
/// rebuilt without touching the allocator.
#[derive(Debug)]
pub(crate) struct ColStack {
    /// `ptr[c]..ptr[c + 1]` indexes column `c`; entries past the last
    /// pointer belong to the column still being pushed.
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl ColStack {
    /// Empty stack with room for `cols` columns and `entries` entries.
    pub fn with_capacity(cols: usize, entries: usize) -> ColStack {
        let mut ptr = Vec::with_capacity(cols + 1);
        ptr.push(0);
        ColStack { ptr, idx: Vec::with_capacity(entries), val: Vec::with_capacity(entries) }
    }

    /// Drop every column, keep the capacity.
    pub fn clear(&mut self) {
        self.ptr.truncate(1);
        self.idx.clear();
        self.val.clear();
    }

    /// Closed columns.
    pub fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Append an entry to the open column.
    pub fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i);
        self.val.push(v);
    }

    /// Close the open column (possibly empty); returns its entry count.
    pub fn close(&mut self) -> usize {
        let start = self.ptr[self.ptr.len() - 1];
        self.ptr.push(self.idx.len());
        self.idx.len() - start
    }

    /// Closed column `c` as parallel `(indices, values)` slices.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let (a, b) = (self.ptr[c], self.ptr[c + 1]);
        (&self.idx[a..b], &self.val[a..b])
    }
}

/// A dense accumulator that remembers which slots were touched (one bit
/// each), so a sparse sum costs its terms to build and its touched
/// slots to read back — in increasing index order — and is clean again
/// afterwards.
#[derive(Debug)]
pub(crate) struct SparseAcc {
    val: Vec<f64>,
    touched: Vec<u64>,
}

impl SparseAcc {
    /// All-zero accumulator over `n` slots.
    pub fn new(n: usize) -> SparseAcc {
        SparseAcc { val: vec![0.0; n], touched: vec![0; n.div_ceil(64)] }
    }

    /// `slot[j] += x`.
    pub fn add(&mut self, j: usize, x: f64) {
        self.val[j] += x;
        self.touched[j / 64] |= 1 << (j % 64);
    }

    /// Hand every touched slot to `f` in increasing index order and
    /// zero it.
    pub fn drain(&mut self, mut f: impl FnMut(usize, f64)) {
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(j, std::mem::take(&mut self.val[j]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ColMatrix {
        // rows: [ (0,2.0) (2,1.0) ], [ (1,-1.0) ], [ (0,3.0) (1,4.0) ]
        let rows: Vec<Vec<(usize, f64)>> =
            vec![vec![(0, 2.0), (2, 1.0)], vec![(1, -1.0)], vec![(0, 3.0), (1, 4.0)]];
        ColMatrix::from_rows(3, 3, || rows.iter().map(|r| r.as_slice()))
    }

    #[test]
    fn csc_roundtrips_rows() {
        let m = sample();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 3, 5));
        let (r0, v0) = m.col(0);
        assert_eq!(r0, &[0, 2]);
        assert_eq!(v0, &[2.0, 3.0]);
        let (r1, v1) = m.col(1);
        assert_eq!(r1, &[1, 2]);
        assert_eq!(v1, &[-1.0, 4.0]);
        let (r2, v2) = m.col(2);
        assert_eq!(r2, &[0]);
        assert_eq!(v2, &[1.0]);
    }

    #[test]
    fn dot_and_axpy_agree_with_dense() {
        let m = sample();
        let y = [1.0, 2.0, 3.0];
        assert_eq!(m.col_dot(0, &y), 2.0 + 9.0);
        assert_eq!(m.col_dot(1, &y), -2.0 + 12.0);
        let mut acc = [0.0; 3];
        m.col_axpy(0, 2.0, &mut acc);
        assert_eq!(acc, [4.0, 0.0, 6.0]);
    }

    #[test]
    fn transpose_lists_rows_in_column_order() {
        let t = sample().transpose();
        assert_eq!((t.nrows(), t.ncols(), t.nnz()), (3, 3, 5));
        assert_eq!(t.col(0), (&[0usize, 2][..], &[2.0, 1.0][..]));
        assert_eq!(t.col(1), (&[1usize][..], &[-1.0][..]));
        assert_eq!(t.col(2), (&[0usize, 1][..], &[3.0, 4.0][..]));
    }

    #[test]
    fn col_stack_keeps_empty_columns_and_survives_clear() {
        let mut s = ColStack::with_capacity(2, 2);
        for _ in 0..2 {
            s.clear();
            s.push(4, 1.5);
            s.push(1, -2.0);
            assert_eq!(s.close(), 2);
            assert_eq!(s.close(), 0);
            assert_eq!(s.len(), 2);
            assert_eq!(s.col(0), (&[4usize, 1][..], &[1.5, -2.0][..]));
            assert_eq!(s.col(1).0.len(), 0);
        }
    }

    #[test]
    fn sparse_acc_drains_in_index_order_and_comes_back_clean() {
        let mut acc = SparseAcc::new(130);
        for (j, x) in [(129, 1.0), (3, 2.0), (64, -1.0), (3, 0.5), (64, 1.0)] {
            acc.add(j, x);
        }
        let mut seen = Vec::new();
        acc.drain(|j, x| seen.push((j, x)));
        // a slot that cancelled to zero is still reported: it was touched
        assert_eq!(seen, vec![(3, 2.5), (64, 0.0), (129, 1.0)]);
        acc.drain(|j, _| panic!("slot {j} left behind"));
        assert!(acc.val.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_columns_are_fine() {
        let rows: Vec<Vec<(usize, f64)>> = vec![vec![(3, 1.0)]];
        let m = ColMatrix::from_rows(1, 5, || rows.iter().map(|r| r.as_slice()));
        assert_eq!(m.col_nnz(0), 0);
        assert_eq!(m.col_nnz(3), 1);
    }
}
