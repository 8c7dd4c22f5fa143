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
/// storage of the factorization's `L` and `U` and of the eta file's
/// segments. Clearing keeps the capacity, so a stack that has reached
/// its working size is rebuilt without touching the allocator.
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

    /// Closed columns.
    pub fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Entries pushed so far, the open column's included.
    pub fn entries(&self) -> usize {
        self.idx.len()
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
}

/// Entries per segment of a [`SegStack`]: a 32 KiB and a 64 KiB array,
/// ordinary heap blocks to any allocator (glibc maps blocks of 128 KiB
/// and more on their own and moves its thresholds when they are freed).
const SEGMENT_ENTRIES: usize = 8192;

/// Sparse columns appended one at a time into fixed-size segments — the
/// storage of the eta file, whose size is known only once it has
/// filled: 64 columns of up to `m` entries, nearly all of them in some
/// windows of the mapping LPs and a tenth in others. A segment is
/// allocated when the one before it is full and written front to back,
/// so what is reserved and what is touched differ by less than a
/// segment; a column never straddles two. Clearing keeps the segments
/// the cleared file used and frees the spares of a longer one before
/// it: the stack holds what the last file needed, not the longest ever.
#[derive(Debug)]
pub(crate) struct SegStack {
    /// `segs[..used]` hold the columns, in order; the rest are spares
    /// of the file before this one.
    segs: Vec<ColStack>,
    used: usize,
    cols: usize,
    max_cols: usize,
    seg_entries: usize,
}

impl SegStack {
    /// Empty stack for at most `max_cols` columns of at most `longest`
    /// entries each. Allocates nothing.
    pub fn new(max_cols: usize, longest: usize) -> SegStack {
        let seg_entries = SEGMENT_ENTRIES.max(longest);
        SegStack { segs: Vec::new(), used: 0, cols: 0, max_cols, seg_entries }
    }

    /// Drop every column; keep the segments they filled (one at
    /// least), free the others.
    pub fn clear(&mut self) {
        for seg in &mut self.segs[..self.used] {
            seg.clear();
        }
        self.segs.truncate(self.used.max(1));
        self.used = 0;
        self.cols = 0;
    }

    /// Columns.
    pub fn len(&self) -> usize {
        self.cols
    }

    /// Append the column that `fill` pushes, of at most `room` entries.
    pub fn push_col(&mut self, room: usize, fill: impl FnOnce(&mut ColStack)) {
        debug_assert!(room <= self.seg_entries && self.cols < self.max_cols);
        if self.used == 0 || self.segs[self.used - 1].entries() + room > self.seg_entries {
            if self.used == self.segs.len() {
                self.segs.push(ColStack::with_capacity(self.max_cols, self.seg_entries));
            }
            self.used += 1;
        }
        let seg = &mut self.segs[self.used - 1];
        fill(seg);
        seg.close();
        debug_assert!(seg.entries() <= self.seg_entries);
        self.cols += 1;
    }

    /// The columns, oldest first, as parallel `(indices, values)`
    /// slices.
    pub fn cols(&self) -> impl DoubleEndedIterator<Item = (&[u32], &[f64])> {
        self.segs[..self.used].iter().flat_map(|s| (0..s.len()).map(move |c| s.col(c)))
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
            assert_eq!(s.col(0), (&[4u32, 1][..], &[1.5, -2.0][..]));
            assert_eq!(s.col(1).0.len(), 0);
        }
    }

    #[test]
    fn seg_stack_opens_a_segment_when_a_column_might_not_fit() {
        let longest = SEGMENT_ENTRIES / 2;
        let mut s = SegStack::new(8, longest);
        assert!(s.segs.is_empty(), "an empty file owns no segment");
        for round in 0..2 {
            s.clear();
            assert_eq!((s.len(), s.cols().count()), (0, 0));
            // two columns fit a segment, the third might not: it opens
            // the next one although it turns out short
            for c in 0..5usize {
                s.push_col(longest, |seg| {
                    for i in 0..if c == 2 { 1 } else { longest } {
                        seg.push(i + c, c as f64);
                    }
                });
            }
            assert_eq!((s.len(), s.used, s.segs.len()), (5, 3, 3), "round {round}");
            let heads: Vec<(u32, f64, usize)> =
                s.cols().map(|(i, v)| (i[0], v[0], i.len())).collect();
            let len = |c: usize| if c == 2 { 1 } else { longest };
            assert_eq!(heads, (0..5).map(|c| (c as u32, c as f64, len(c))).collect::<Vec<_>>());
            let back: Vec<u32> = s.cols().rev().map(|(i, _)| i[0]).collect();
            assert_eq!(back, vec![4, 3, 2, 1, 0]);
            // no segment ever grew past its reservation
            assert!(s.segs.iter().all(|g| g.idx.capacity() == SEGMENT_ENTRIES));
        }
        // a shorter file still finds the spare segments; the file after
        // it does not
        s.clear();
        s.push_col(1, |seg| seg.push(7, 1.0));
        assert_eq!((s.len(), s.used, s.segs.len()), (1, 1, 3));
        assert_eq!(s.cols().next(), Some((&[7u32][..], &[1.0][..])));
        s.clear();
        assert_eq!((s.len(), s.used, s.segs.len()), (0, 0, 1));
        s.clear();
        assert_eq!(s.segs.len(), 1, "an empty file keeps one segment");
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
