//! Compressed sparse row matrices with multithreaded kernels.
//!
//! Both the assembly constructor and the SpMV kernel partition work by
//! contiguous *row blocks*, so the floating-point accumulation order of
//! every row is fixed by the CSR layout alone — results are bitwise
//! identical at any thread count.

use std::sync::Arc;

use crate::LinearOperator;

/// A square sparse matrix in compressed sparse row format. Column
/// indices inside each row are sorted ascending and duplicate entries
/// are summed at construction.
///
/// The symbolic structure (`row_ptr` + `col_idx`) is held behind
/// [`Arc`]s so that [`CsrMatrix::pattern`] can hand it out for reuse:
/// re-assembling a matrix with the same sparsity through
/// [`CsrMatrix::from_pattern_row_fn`] rebuilds only the coefficient
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Arc<Vec<usize>>,
    col_idx: Arc<Vec<usize>>,
    vals: Vec<f64>,
}

/// The symbolic (structure-only) part of a [`CsrMatrix`]: row pointers
/// and sorted column indices, shared cheaply via [`Arc`]. Obtained from
/// [`CsrMatrix::pattern`] and consumed by
/// [`CsrMatrix::from_pattern_row_fn`], which skips the sort/merge
/// symbolic phase entirely — the caching layer behind fast scenario
/// sweeps whose matrices share one grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPattern {
    n: usize,
    row_ptr: Arc<Vec<usize>>,
    col_idx: Arc<Vec<usize>>,
}

impl CsrPattern {
    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Structural non-zero count.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row offsets (`n + 1` entries).
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, sorted ascending within each row.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// A key identifying this symbolic structure by the shared index
    /// arrays themselves: two patterns obtained from the same cached
    /// structure (via [`CsrMatrix::pattern`] /
    /// [`CsrMatrix::from_pattern_row_fn`]) compare equal in O(1). Used
    /// by the workspace caches (RCM permutation, IC(0) schedule) to
    /// recognise "same grid, new coefficients" without scanning.
    pub fn key(&self) -> (usize, usize) {
        (
            Arc::as_ptr(&self.row_ptr) as usize,
            Arc::as_ptr(&self.col_idx) as usize,
        )
    }
}

/// Debug-time guard behind the ordered-row contract: IC(0), RCM and
/// [`CsrMatrix::get`]'s binary search all rely on strictly ascending
/// column indices inside every row.
fn debug_assert_sorted_rows(n: usize, row_ptr: &[usize], col_idx: &[usize]) {
    if cfg!(debug_assertions) {
        for i in 0..n {
            let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            debug_assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "row {i} columns are not strictly ascending"
            );
        }
    }
}

impl CsrMatrix {
    /// Assembles an `n × n` matrix by calling `row_fn(i, &mut row)` for
    /// every row `i`; the callback pushes `(column, value)` entries
    /// (any order, duplicates allowed — they are summed). Rows are
    /// assembled in parallel blocks across `threads` workers using
    /// [`std::thread::scope`]; the assembled matrix is identical for
    /// every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the callback emits a column index `≥ n`.
    pub fn from_row_fn<F>(n: usize, threads: usize, row_fn: F) -> Self
    where
        F: Fn(usize, &mut Vec<(usize, f64)>) + Sync,
    {
        let nthreads = threads.max(1).min(n.max(1));
        let chunk = n.div_ceil(nthreads.max(1)).max(1);
        let mut blocks: Vec<(Vec<usize>, Vec<f64>, Vec<usize>)> = Vec::with_capacity(nthreads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nthreads);
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let row_fn = &row_fn;
                handles.push(scope.spawn(move || assemble_rows(start, end, n, row_fn)));
                start = end;
            }
            for h in handles {
                blocks.push(h.join().expect("assembly worker panicked"));
            }
        });
        let nnz: usize = blocks.iter().map(|b| b.0.len()).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for (cols, vs, counts) in blocks {
            for c in counts {
                row_ptr.push(row_ptr.last().copied().unwrap_or(0) + c);
            }
            col_idx.extend_from_slice(&cols);
            vals.extend_from_slice(&vs);
        }
        debug_assert_sorted_rows(n, &row_ptr, &col_idx);
        Self {
            n,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            vals,
        }
    }

    /// Builds a matrix directly from raw CSR arrays. Used by the
    /// reordering layer, which computes permuted index arrays itself.
    /// Column indices must be strictly ascending within each row
    /// (checked in debug builds).
    pub(crate) fn from_parts(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n + 1);
        debug_assert_eq!(col_idx.len(), vals.len());
        debug_assert_sorted_rows(n, &row_ptr, &col_idx);
        Self {
            n,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            vals,
        }
    }

    /// The symbolic structure of this matrix, shared by reference
    /// counting — no copy of the index arrays is made.
    pub fn pattern(&self) -> CsrPattern {
        CsrPattern {
            n: self.n,
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
        }
    }

    /// Re-assembles a matrix over a cached [`CsrPattern`]: only the
    /// coefficient values are computed — the per-row sort, duplicate
    /// merge and index-array construction of
    /// [`CsrMatrix::from_row_fn`] are skipped. The callback contract is
    /// identical, and for the same callback the numeric result is
    /// bitwise identical to a full assembly (duplicates are summed in
    /// the same stable order). Rows are filled in parallel blocks
    /// across `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if the callback emits a column absent from the pattern
    /// (the pattern may be a superset; missing entries stay 0).
    pub fn from_pattern_row_fn<F>(pattern: &CsrPattern, threads: usize, row_fn: F) -> Self
    where
        F: Fn(usize, &mut Vec<(usize, f64)>) + Sync,
    {
        let n = pattern.n;
        let row_ptr: &[usize] = &pattern.row_ptr;
        let col_idx: &[usize] = &pattern.col_idx;
        let mut vals = vec![0.0f64; col_idx.len()];
        let nthreads = threads.max(1).min(n.max(1));
        if nthreads <= 1 {
            fill_pattern_rows(0, n, 0, row_ptr, col_idx, &mut vals, &row_fn);
            return Self {
                n,
                row_ptr: Arc::clone(&pattern.row_ptr),
                col_idx: Arc::clone(&pattern.col_idx),
                vals,
            };
        }
        let chunk = n.div_ceil(nthreads).max(1);
        std::thread::scope(|scope| {
            let mut rest = vals.as_mut_slice();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let base = row_ptr[start];
                let (block, tail) = rest.split_at_mut(row_ptr[end] - base);
                rest = tail;
                let row_fn = &row_fn;
                scope.spawn(move || {
                    fill_pattern_rows(start, end, base, row_ptr, col_idx, block, row_fn)
                });
                start = end;
            }
        });
        Self {
            n,
            row_ptr: Arc::clone(&pattern.row_ptr),
            col_idx: Arc::clone(&pattern.col_idx),
            vals,
        }
    }

    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored (structural) non-zero count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row offsets (`n + 1` entries).
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, sorted ascending within each row.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, aligned with [`CsrMatrix::col_indices`].
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable access to the stored values (structure is immutable).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The stored value at `(i, j)`, zero if not present.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        match self.col_idx[range.clone()].binary_search(&j) {
            Ok(k) => self.vals[range.start + k],
            Err(_) => 0.0,
        }
    }

    /// The matrix diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Writes the matrix diagonal into `out`, reusing its capacity —
    /// the allocation-free counterpart of [`CsrMatrix::diag`] used by
    /// the workspace solve path.
    pub fn diag_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n).map(|i| self.get(i, i)));
    }

    /// Computes `y = A·x` over the row range `[start, end)`, writing
    /// into `y_block` (whose index 0 corresponds to row `start`).
    fn spmv_rows(&self, start: usize, end: usize, x: &[f64], y_block: &mut [f64]) {
        for (k, i) in (start..end).enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[idx] * x[self.col_idx[idx]];
            }
            y_block[k] = acc;
        }
    }

    /// Multithreaded SpMV `y = A·x` across `threads` workers. Rows are
    /// split into contiguous blocks, so the result is bitwise identical
    /// for every thread count.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.n, "x length must equal n");
        assert_eq!(y.len(), self.n, "y length must equal n");
        let nthreads = threads.max(1).min(self.n.max(1));
        if nthreads <= 1 {
            self.spmv_rows(0, self.n, x, y);
            return;
        }
        let chunk = self.n.div_ceil(nthreads).max(1);
        std::thread::scope(|scope| {
            let mut rest = y;
            let mut start = 0;
            while start < self.n {
                let end = (start + chunk).min(self.n);
                let (block, tail) = rest.split_at_mut(end - start);
                rest = tail;
                scope.spawn(move || self.spmv_rows(start, end, x, block));
                start = end;
            }
        });
    }

    /// Serial SpMV convenience wrapper.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.spmv_rows(0, self.n, x, &mut y);
        y
    }
}

/// Row-block width of the SELL-style layout: how many rows share one
/// slot-major block.
const SELL_LANES: usize = 8;

/// A cache-blocked, SELL-style re-layout of a [`CsrMatrix`] for faster
/// SpMV: rows are grouped into fixed-width blocks of [`SELL_LANES`]
/// lanes, sorted inside each block by descending row length, and the
/// entries are stored **slot-major** (entry `s` of every lane in a
/// block is contiguous). The inner kernel loop then runs across lanes
/// over contiguous value/column words instead of one short
/// strided-access row at a time, amortising loop overhead and keeping
/// the value stream dense — there is no zero padding because the
/// descending-length sort makes the active lanes of every slot a
/// prefix.
///
/// The per-row accumulation order is exactly the CSR order (slot `s`
/// of a lane is the `s`-th stored entry of that row), so
/// [`SellMatrix::spmv_into`] is **bitwise identical** to
/// [`CsrMatrix::spmv_into`] at any thread count — the layout is a pure
/// speed change, invisible to golden snapshots and the determinism
/// contract.
///
/// Built once per sparsity pattern (cached in the
/// [`PcgWorkspace`](crate::PcgWorkspace) by pattern key) and refreshed
/// allocation-free when only the coefficient values change.
#[derive(Debug, Clone)]
pub struct SellMatrix {
    n: usize,
    /// Per-block offset into `slot_active`; block `b` owns slots
    /// `slot_ptr[b]..slot_ptr[b + 1]` (its width in slots).
    slot_ptr: Vec<usize>,
    /// Active lane count of each slot (a non-increasing sequence
    /// within a block).
    slot_active: Vec<usize>,
    /// Entry offset where each block's slot-major data starts.
    block_entry: Vec<usize>,
    /// Row id of each lane, block-major (`n` entries; lanes of block
    /// `b` start at `b·SELL_LANES`).
    lane_rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Source index into the CSR value array per stored entry, for
    /// allocation-free numeric refresh.
    src: Vec<usize>,
}

impl SellMatrix {
    /// Re-lays `a` out into blocked slot-major form.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let n = a.n();
        let row_ptr = a.row_offsets();
        let nblocks = n.div_ceil(SELL_LANES);
        let mut slot_ptr = Vec::with_capacity(nblocks + 1);
        let mut block_entry = Vec::with_capacity(nblocks + 1);
        let mut slot_active = Vec::new();
        let mut lane_rows = Vec::with_capacity(n);
        let mut cols = Vec::with_capacity(a.nnz());
        let mut src = Vec::with_capacity(a.nnz());
        slot_ptr.push(0);
        block_entry.push(0);
        let row_len = |i: usize| row_ptr[i + 1] - row_ptr[i];
        for b in 0..nblocks {
            let start = b * SELL_LANES;
            let end = (start + SELL_LANES).min(n);
            let lane_base = lane_rows.len();
            lane_rows.extend(start..end);
            // Stable descending-length sort: equal-length rows keep
            // their natural order, so the layout is deterministic.
            lane_rows[lane_base..].sort_by_key(|&i| std::cmp::Reverse(row_len(i)));
            let lanes = &lane_rows[lane_base..];
            let width = row_len(lanes[0]);
            for s in 0..width {
                let active = lanes.iter().take_while(|&&i| row_len(i) > s).count();
                slot_active.push(active);
                for &i in &lanes[..active] {
                    let idx = row_ptr[i] + s;
                    cols.push(a.col_indices()[idx]);
                    src.push(idx);
                }
            }
            slot_ptr.push(slot_active.len());
            block_entry.push(cols.len());
        }
        let mut sell = Self {
            n,
            slot_ptr,
            slot_active,
            block_entry,
            lane_rows,
            cols,
            vals: vec![0.0; src.len()],
            src,
        };
        sell.refresh_values(a);
        sell
    }

    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Copies the current CSR values into the blocked layout without
    /// allocating — the "same grid, new coefficients" refresh path.
    ///
    /// # Panics
    ///
    /// Panics if `a` has a different non-zero count than the matrix
    /// this layout was built from.
    pub fn refresh_values(&mut self, a: &CsrMatrix) {
        let csr_vals = a.values();
        for (v, &idx) in self.vals.iter_mut().zip(&self.src) {
            *v = csr_vals[idx];
        }
    }

    /// Blocked SpMV `y = A·x` over the block range `[b0, b1)`, writing
    /// into `y_block` (whose index 0 corresponds to row
    /// `b0 · SELL_LANES`).
    fn spmv_blocks(&self, b0: usize, b1: usize, x: &[f64], y_block: &mut [f64]) {
        let row_base = b0 * SELL_LANES;
        for b in b0..b1 {
            let lane_base = b * SELL_LANES;
            let nlanes = (self.n - lane_base).min(SELL_LANES);
            let mut acc = [0.0f64; SELL_LANES];
            let mut off = self.block_entry[b];
            for s in self.slot_ptr[b]..self.slot_ptr[b + 1] {
                let active = self.slot_active[s];
                let vals = &self.vals[off..off + active];
                let cols = &self.cols[off..off + active];
                for l in 0..active {
                    acc[l] += vals[l] * x[cols[l]];
                }
                off += active;
            }
            for l in 0..nlanes {
                y_block[self.lane_rows[lane_base + l] - row_base] = acc[l];
            }
        }
    }

    /// Multithreaded blocked SpMV `y = A·x`, bitwise identical to
    /// [`CsrMatrix::spmv_into`] on the source matrix at any thread
    /// count (work is split at block boundaries, and the per-row
    /// accumulation order is the CSR order).
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.n, "x length must equal n");
        assert_eq!(y.len(), self.n, "y length must equal n");
        let nblocks = self.n.div_ceil(SELL_LANES);
        let nthreads = threads.max(1).min(nblocks.max(1));
        if nthreads <= 1 {
            self.spmv_blocks(0, nblocks, x, y);
            return;
        }
        let chunk = nblocks.div_ceil(nthreads).max(1);
        std::thread::scope(|scope| {
            let mut rest = y;
            let mut b0 = 0;
            while b0 < nblocks {
                let b1 = (b0 + chunk).min(nblocks);
                let rows = (b1 * SELL_LANES).min(self.n) - b0 * SELL_LANES;
                let (block, tail) = rest.split_at_mut(rows);
                rest = tail;
                scope.spawn(move || self.spmv_blocks(b0, b1, x, block));
                b0 = b1;
            }
        });
    }
}

/// Numeric-only row fill over a cached pattern: sorts the emitted
/// entries (stable, so duplicate summation order matches a full
/// assembly) and scatters them into the pattern's slots.
fn fill_pattern_rows<F>(
    start: usize,
    end: usize,
    base: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    vals_block: &mut [f64],
    row_fn: &F,
) where
    F: Fn(usize, &mut Vec<(usize, f64)>),
{
    let mut row: Vec<(usize, f64)> = Vec::new();
    for i in start..end {
        row.clear();
        row_fn(i, &mut row);
        row.sort_by_key(|e| e.0);
        let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
        let out = &mut vals_block[row_ptr[i] - base..row_ptr[i + 1] - base];
        let mut k = 0;
        for &(j, v) in row.iter() {
            while k < cols.len() && cols[k] < j {
                k += 1;
            }
            assert!(
                k < cols.len() && cols[k] == j,
                "column {j} of row {i} is not in the cached pattern"
            );
            out[k] += v;
        }
    }
}

fn assemble_rows<F>(
    start: usize,
    end: usize,
    n: usize,
    row_fn: &F,
) -> (Vec<usize>, Vec<f64>, Vec<usize>)
where
    F: Fn(usize, &mut Vec<(usize, f64)>),
{
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    let mut counts = Vec::with_capacity(end - start);
    let mut row: Vec<(usize, f64)> = Vec::new();
    for i in start..end {
        row.clear();
        row_fn(i, &mut row);
        row.sort_by_key(|e| e.0);
        let before = cols.len();
        for &(j, v) in row.iter() {
            assert!(j < n, "column {j} out of range for n={n}");
            if cols.len() > before && cols.last() == Some(&j) {
                let last = vals.last_mut().expect("cols and vals stay in sync");
                *last += v;
            } else {
                cols.push(j);
                vals.push(v);
            }
        }
        counts.push(cols.len() - before);
    }
    (cols, vals, counts)
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_rows(0, self.n, x, y);
    }

    fn diagonal(&self) -> Vec<f64> {
        self.diag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian(n: usize, threads: usize) -> CsrMatrix {
        CsrMatrix::from_row_fn(n, threads, |i, row| {
            if i > 0 {
                row.push((i - 1, -1.0));
            }
            row.push((i, 2.0));
            if i + 1 < n {
                row.push((i + 1, -1.0));
            }
        })
    }

    #[test]
    fn assembly_sorts_and_sums_duplicates() {
        let a = CsrMatrix::from_row_fn(3, 1, |i, row| {
            row.push((2, 1.0));
            row.push((i, 4.0));
            row.push((i, 1.0));
        });
        assert!((a.get(0, 0) - 5.0).abs() < 1e-15);
        assert!((a.get(1, 1) - 5.0).abs() < 1e-15);
        assert!((a.get(2, 2) - 6.0).abs() < 1e-15); // 1 + 4 + 1
        assert!((a.get(0, 2) - 1.0).abs() < 1e-15);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn threaded_assembly_is_identical_to_serial() {
        for threads in [2, 3, 4, 7] {
            assert_eq!(laplacian(101, 1), laplacian(101, threads));
        }
    }

    #[test]
    fn threaded_spmv_is_bitwise_identical() {
        let a = laplacian(97, 1);
        let x: Vec<f64> = (0..97).map(|i| (i as f64 * 0.37).sin()).collect();
        let serial = a.spmv(&x);
        for threads in [1, 2, 4, 9] {
            let mut y = vec![0.0; 97];
            a.spmv_into(&x, &mut y, threads);
            assert_eq!(serial, y, "threads={threads}");
        }
    }

    #[test]
    fn diag_and_nnz() {
        let a = laplacian(10, 2);
        assert_eq!(a.nnz(), 28);
        assert_eq!(a.diag(), vec![2.0; 10]);
        assert_eq!(a.n(), 10);
        let mut d = Vec::new();
        a.diag_into(&mut d);
        assert_eq!(d, a.diag());
    }

    #[test]
    fn pattern_reassembly_is_bitwise_identical() {
        let n = 53;
        let value_fn = |scale: f64| {
            move |i: usize, row: &mut Vec<(usize, f64)>| {
                if i > 0 {
                    row.push((i - 1, -scale * (i as f64 * 0.11).sin()));
                }
                // Duplicate diagonal entries, pushed out of order, to
                // exercise the stable merge.
                row.push((i, 1.5 * scale));
                if i + 1 < n {
                    row.push((i + 1, -scale));
                }
                row.push((i, 2.5 * scale + (i as f64 * 0.07).cos()));
            }
        };
        let full = CsrMatrix::from_row_fn(n, 3, value_fn(2.0));
        let pattern = CsrMatrix::from_row_fn(n, 1, value_fn(1.0)).pattern();
        assert_eq!(pattern.n(), n);
        assert_eq!(pattern.nnz(), full.nnz());
        for threads in [1, 2, 4, 7] {
            let refilled = CsrMatrix::from_pattern_row_fn(&pattern, threads, value_fn(2.0));
            assert_eq!(full, refilled, "threads={threads}");
        }
    }

    #[test]
    fn pattern_superset_leaves_structural_zeros() {
        // Pattern from a tridiagonal stencil, values from a diagonal-only
        // callback: off-diagonal slots must stay exactly 0.
        let pattern = laplacian(8, 1).pattern();
        let a = CsrMatrix::from_pattern_row_fn(&pattern, 2, |i, row| {
            row.push((i, 3.0));
        });
        assert_eq!(a.nnz(), pattern.nnz());
        assert_eq!(a.diag(), vec![3.0; 8]);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn sell_spmv_is_bitwise_identical_to_csr() {
        // Ragged rows: row i keeps between 1 and ~9 entries, so blocks
        // mix widths and the active-lane prefixes actually shrink.
        let n = 131;
        let a = CsrMatrix::from_row_fn(n, 3, |i, row| {
            row.push((i, 4.0 + (i as f64 * 0.01)));
            for k in 1..=(i % 9) {
                let j = (i + k * k) % n;
                if j != i {
                    row.push((j, -0.1 * (k as f64) * ((i + j) as f64 * 0.13).sin()));
                }
            }
        });
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos() + 0.5).collect();
        let reference = a.spmv(&x);
        let sell = SellMatrix::from_csr(&a);
        for threads in [1, 2, 4, 7] {
            let mut y = vec![0.0; n];
            sell.spmv_into(&x, &mut y, threads);
            for (p, q) in reference.iter().zip(&y) {
                assert_eq!(p.to_bits(), q.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sell_refresh_tracks_new_values() {
        let a = laplacian(40, 1);
        let mut sell = SellMatrix::from_csr(&a);
        let scaled = CsrMatrix::from_pattern_row_fn(&a.pattern(), 1, |i, row| {
            for idx in a.row_offsets()[i]..a.row_offsets()[i + 1] {
                row.push((a.col_indices()[idx], 3.0 * a.values()[idx]));
            }
        });
        sell.refresh_values(&scaled);
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y = vec![0.0; 40];
        sell.spmv_into(&x, &mut y, 2);
        assert_eq!(y, scaled.spmv(&x));
    }

    #[test]
    #[should_panic(expected = "not in the cached pattern")]
    fn pattern_rejects_unknown_column() {
        let pattern = CsrMatrix::from_row_fn(4, 1, |i, row| row.push((i, 1.0))).pattern();
        let _ = CsrMatrix::from_pattern_row_fn(&pattern, 1, |i, row| {
            row.push((i, 1.0));
            row.push(((i + 1) % 4, 1.0));
        });
    }
}
