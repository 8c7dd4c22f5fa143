//! Sparse storage for the revised simplex: the constraint matrix as
//! compressed sparse columns (CSC), the growable column stack the
//! factorization keeps `L`, `U` and its row etas in, and the sparse
//! accumulator the pivot row is summed into.
//!
//! The mapping formulations are extremely sparse — a typical row of
//! Linear Program (1) touches 2–12 of several thousand columns — so the
//! revised simplex stores the constraint matrix as compressed sparse
//! columns and never densifies it. [`ColMatrix::from_rows`] builds the
//! CSC straight from the model's sparse row triplets in one
//! counting-sort pass; its transpose is the row-wise copy
//! the pivot-row kernel walks.

/// A compressed-sparse-column matrix: `nrows × ncols`. Inside the
/// crate it grows at its end only: rows after the last, or columns
/// after the last.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Append `rows` as rows `nrows..` and widen to `ncols` columns, in
    /// place: each column's new entries follow its old ones in row
    /// order, where [`ColMatrix::from_rows`] over every row would put
    /// them.
    pub(crate) fn append_rows(&mut self, ncols: usize, rows: &[Vec<(usize, f64)>]) {
        debug_assert!(ncols >= self.ncols());
        // per column, its new entries; then where they are written
        let mut cursor = vec![0usize; ncols];
        for &(c, _) in rows.iter().flatten() {
            cursor[c] += 1;
        }
        let nnz = self.nnz();
        let added = rows.iter().map(Vec::len).sum::<usize>();
        self.col_ptr.resize(ncols + 1, nnz);
        self.row_idx.resize(nnz + added, 0);
        self.values.resize(nnz + added, 0.0);
        // move the old entries back, last column first, leaving room
        // after each column for its new entries
        let (mut old_end, mut new_end) = (nnz, nnz + added);
        for j in (0..ncols).rev() {
            let old_start = self.col_ptr[j];
            let len = old_end - old_start;
            let new_start = new_end - cursor[j] - len;
            self.row_idx.copy_within(old_start..old_end, new_start);
            self.values.copy_within(old_start..old_end, new_start);
            self.col_ptr[j + 1] = new_end;
            cursor[j] = new_start + len;
            (old_end, new_end) = (old_start, new_start);
        }
        for (i, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                self.row_idx[cursor[c]] = self.nrows + i;
                self.values[cursor[c]] = v;
                cursor[c] += 1;
            }
        }
        self.nrows += rows.len();
    }

    /// Append `cols` as columns `ncols()..`, each's entries in
    /// increasing row order, and grow to `nrows` rows.
    pub(crate) fn append_cols(&mut self, nrows: usize, cols: &[Vec<(usize, f64)>]) {
        debug_assert!(nrows >= self.nrows);
        for col in cols {
            self.row_idx.extend(col.iter().map(|&(r, _)| r));
            self.values.extend(col.iter().map(|&(_, v)| v));
            self.col_ptr.push(self.values.len());
        }
        self.nrows = nrows;
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

    /// Sparse dot product of column `j` with a dense vector.
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| v * dense[r]).sum()
    }

    /// The combination `Σ_j x_j · col_j` summed into `acc`, over the
    /// non-zero `x_j` in increasing `j`; `x` is left all zero. On the
    /// transposed copy this is a row of multipliers times the matrix:
    /// slot `c` receives the additions of `col_dot(c, x)` on the
    /// original, in its order, minus the terms that are zero.
    pub(crate) fn combine(&self, x: &mut [f64], acc: &mut SparseAcc) {
        for (j, slot) in x.iter_mut().enumerate() {
            let xj = std::mem::take(slot);
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
/// storage of the factorization's `L`, `U` and row etas. Clearing keeps
/// the capacity, so a stack that has reached its working size is
/// rebuilt without touching the allocator.
#[derive(Debug)]
pub(crate) struct ColStack {
    /// `ptr[c]..ptr[c + 1]` indexes column `c`; entries past the last
    /// pointer belong to the column still being pushed.
    ptr: Vec<usize>,
    /// Row indices, as `u32`: a quarter off what the stacks keep
    /// resident.
    idx: Vec<u32>,
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

    /// Append an entry to the open column.
    pub fn push(&mut self, i: usize, v: f64) {
        debug_assert!(u32::try_from(i).is_ok());
        self.idx.push(i as u32);
        self.val.push(v);
    }

    /// Close the open column (possibly empty); returns its entry count.
    pub fn close(&mut self) -> usize {
        let start = self.ptr[self.ptr.len() - 1];
        self.ptr.push(self.idx.len());
        self.idx.len() - start
    }

    /// Closed column `c` as parallel `(indices, values)` slices.
    pub fn col(&self, c: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.ptr[c], self.ptr[c + 1]);
        (&self.idx[a..b], &self.val[a..b])
    }

    /// Where closed column `c`'s entries sit, for [`ColStack::entry`]
    /// and [`ColStack::zero`].
    pub fn range(&self, c: usize) -> std::ops::Range<usize> {
        self.ptr[c]..self.ptr[c + 1]
    }

    /// The entry at `at`, as `(index, value)`.
    pub fn entry(&self, at: usize) -> (usize, f64) {
        (self.idx[at] as usize, self.val[at])
    }

    /// Set the value of the entry at `at` to zero, keeping its place.
    pub fn zero(&mut self, at: usize) {
        self.val[at] = 0.0;
    }

    /// Whether `cols` more columns of `entries` entries in all fit
    /// without reallocating.
    pub fn fits(&self, cols: usize, entries: usize) -> bool {
        let spare = |len: usize, cap: usize| cap - len;
        spare(self.ptr.len(), self.ptr.capacity()) >= cols
            && spare(self.idx.len(), self.idx.capacity()) >= entries
            && spare(self.val.len(), self.val.capacity()) >= entries
    }

    /// Make sure `cols` more columns of `entries` entries in all fit.
    pub fn reserve(&mut self, cols: usize, entries: usize) {
        self.ptr.reserve(cols);
        self.idx.reserve(entries);
        self.val.reserve(entries);
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
            assert_eq!(s.ptr.len(), 3, "two closed columns");
            assert_eq!(s.col(0), (&[4u32, 1][..], &[1.5, -2.0][..]));
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

    /// Rows appended in place, and their transpose's columns, give the
    /// matrices built from every row at once.
    #[test]
    fn appended_rows_and_columns_match_a_fresh_build() {
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 2.0), (2, 1.0)],
            vec![(1, -1.0), (3, 5.0)],
            vec![],
            vec![(0, 3.0), (1, 4.0), (4, -2.0)],
        ];
        let fresh = |k: usize, ncols: usize| {
            ColMatrix::from_rows(k, ncols, || rows[..k].iter().map(|r| r.as_slice()))
        };
        let mut grown = fresh(1, 3);
        let mut grown_t = grown.transpose();
        grown.append_rows(4, &rows[1..3]);
        grown_t.append_cols(4, &rows[1..3]);
        assert_eq!(grown, fresh(3, 4));
        assert_eq!(grown_t, fresh(3, 4).transpose());
        grown.append_rows(5, &rows[3..]);
        grown_t.append_cols(5, &rows[3..]);
        assert_eq!(grown, fresh(4, 5));
        assert_eq!(grown_t, fresh(4, 5).transpose());
    }
}
