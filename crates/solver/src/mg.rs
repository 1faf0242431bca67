//! Geometric multigrid V-cycle preconditioning for structured-grid
//! operators.
//!
//! The finite-volume thermal models assemble Poisson-like operators on
//! a structured `nx × ny × nz` grid (row `i = ix + nx·(iy + ny·iz)`) —
//! the textbook multigrid case. This module builds a grid hierarchy by
//! **2×2×2 cell aggregation** (ceil division per axis, so odd extents
//! coarsen cleanly), forms **smoothed-aggregation prolongation**
//! `P = (I − ω·D⁻¹A)^s·P₀` with the standard damping `ω = 4/(3·λ_max)`
//! — two Jacobi passes (`s = 2`) out of the fine level, one on every
//! coarser level, so the coarse operators do not fill in level after
//! level — assembles **Galerkin coarse operators** `A_c = Pᵀ·A·P`, and
//! solves the coarsest level directly with the existing dense
//! Cholesky. Both setup products gather rows through one sparse
//! accumulator: one check per product term and a sort of each row's
//! distinct columns, never of its terms. Each level smooths with a
//! short Chebyshev polynomial targeted at the upper (oscillatory) part
//! of the spectrum — no triangular solves
//! anywhere, so unlike IC(0) the application has **no sequential
//! dependency**: every kernel is SpMV-shaped and stays bitwise
//! identical at any thread count.
//!
//! One V-cycle per PCG preconditioner application makes iteration
//! counts essentially mesh-independent, which is what lets 64³+ grids
//! win on wall clock rather than just on iteration count.
//!
//! The hierarchy is deterministic end to end: aggregation is a pure
//! index map, setup products are accumulated serially in fixed order,
//! and the smoothers/transfers partition by contiguous row blocks.

use crate::cheb::{cheb_apply, estimate_bounds_with, ChebWork, EIG_HIGH_SAFETY, POWER_ITERS};
use crate::csr::CsrMatrix;
use crate::dense::DenseCholesky;
use crate::error::SolverError;
use crate::stats::SpectralStats;
use std::time::{Duration, Instant};

/// Coarsest-level size at which the hierarchy stops and a dense
/// Cholesky factorisation takes over.
const COARSE_DIRECT_MAX: usize = 600;
/// Hard cap on grid levels (a 2×2×2 coarsening from any practical
/// grid bottoms out far earlier).
const MAX_LEVELS: usize = 12;
/// Chebyshev steps per pre-/post-smoothing pass.
const SMOOTH_STEPS: usize = 3;
/// The smoother targets the eigenvalue interval
/// `[SMOOTH_LOW_FRACTION·λ_max, EIG_HIGH_SAFETY·λ_max]` — the upper
/// part of the spectrum that coarse-grid correction cannot see. The
/// 2×2×2 aggregates coarsen aggressively (8×), so only the lowest
/// ~eighth of the spectrum is coarse-representable and the smoother
/// covers a correspondingly wide band.
const SMOOTH_LOW_FRACTION: f64 = 1.0 / 7.0;

/// A rectangular sparse transfer operator `P` (fine rows × coarse
/// columns), stored row-major for prolongation together with its
/// transpose for restriction.
#[derive(Debug, Clone)]
struct Transfer {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Transpose layout (coarse rows → fine columns) for `Pᵀ·r`.
    t_row_ptr: Vec<usize>,
    t_cols: Vec<usize>,
    t_vals: Vec<f64>,
}

impl Transfer {
    fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `xf += P·xc` (prolongation of a coarse correction).
    fn prolong_add(&self, xc: &[f64], xf: &mut [f64]) {
        for (i, xfi) in xf.iter_mut().enumerate().take(self.nrows) {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[idx] * xc[self.cols[idx]];
            }
            *xfi += acc;
        }
    }

    /// `rc = Pᵀ·rf` (restriction of a fine residual).
    fn restrict_into(&self, rf: &[f64], rc: &mut [f64]) {
        for (cr, rci) in rc.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.t_row_ptr[cr]..self.t_row_ptr[cr + 1] {
                acc += self.t_vals[idx] * rf[self.t_cols[idx]];
            }
            *rci = acc;
        }
    }

    /// Builds the transpose layout by counting sort (deterministic:
    /// fine rows are visited ascending, so columns within each
    /// transpose row come out ascending too).
    fn with_transpose(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        let mut counts = vec![0usize; ncols + 1];
        for &c in &cols {
            counts[c + 1] += 1;
        }
        for j in 0..ncols {
            counts[j + 1] += counts[j];
        }
        let t_row_ptr = counts.clone();
        let mut cursor = counts;
        let mut t_cols = vec![0usize; cols.len()];
        let mut t_vals = vec![0.0f64; cols.len()];
        for i in 0..nrows {
            for idx in row_ptr[i]..row_ptr[i + 1] {
                let c = cols[idx];
                let slot = cursor[c];
                cursor[c] += 1;
                t_cols[slot] = i;
                t_vals[slot] = vals[idx];
            }
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            cols,
            vals,
            t_row_ptr,
            t_cols,
            t_vals,
        }
    }
}

/// One grid level of the hierarchy: the operator (owned for coarse
/// levels, external for level 0), its diagonal and smoothing interval,
/// the prolongation from the next-coarser level, and warm scratch so
/// V-cycles are allocation-free.
#[derive(Debug, Clone)]
struct MgLevel {
    /// The level operator; `None` at level 0, where the caller's
    /// (possibly SELL-accelerated) fine operator is used instead.
    a: Option<CsrMatrix>,
    diag: Vec<f64>,
    /// Chebyshev smoothing interval `[smooth_low, smooth_high]`
    /// derived from the power-method λ_max estimate of `D⁻¹A` at this
    /// level.
    smooth_low: f64,
    smooth_high: f64,
    /// Prolongation from the next-coarser level into this one.
    p: Transfer,
    // V-cycle scratch, sized to this level.
    x: Vec<f64>,
    r: Vec<f64>,
    resid: Vec<f64>,
    corr: Vec<f64>,
    cheb: ChebWork,
}

/// The assembled multigrid hierarchy, cached in the
/// [`PcgWorkspace`](crate::PcgWorkspace) by pattern key and value
/// snapshot. Applying it runs one V-cycle; warm applications perform
/// no heap allocation.
#[derive(Debug, Clone)]
pub(crate) struct MgHierarchy {
    levels: Vec<MgLevel>,
    chol: DenseCholesky,
    coarse_b: Vec<f64>,
    coarse_x: Vec<f64>,
    hierarchy_nnz: usize,
    fine_eig_high: f64,
    /// Setup wall time per phase, summed over levels (zero unless
    /// observability was enabled during the build).
    times: SetupTimes,
}

/// Wall time of each hierarchy setup phase, summed over levels.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    eig_bounds: Duration,
    /// Aggregation plus the Jacobi-smoothed transfer products.
    prolongation: Duration,
    galerkin: Duration,
    /// Dense assembly and Cholesky factorisation of the coarsest level.
    coarse_factor: Duration,
}

/// Runs `f`, adding its wall time to `total` when `on`; reads no clock
/// otherwise.
fn timed<T>(on: bool, total: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// The aggregate (coarse-cell) id of every fine cell under 2×2×2
/// coarsening of `dims` into `cdims`.
fn aggregate_ids(dims: (usize, usize, usize), cdims: (usize, usize, usize)) -> Vec<usize> {
    let (nx, ny, nz) = dims;
    let (cnx, cny, _) = cdims;
    let mut agg = Vec::with_capacity(nx * ny * nz);
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                agg.push(ix / 2 + cnx * (iy / 2 + cny * (iz / 2)));
            }
        }
    }
    agg
}

/// Jacobi-smoothing passes applied to the tentative prolongation out
/// of grid level `level` (0 = finest). Each pass widens every row of
/// `P` by one stencil hop, and the Galerkin product squares that
/// growth into the coarse operator, so passes are spent where they
/// buy convergence. Two passes on the fine level give the better
/// low-mode interpolation that 8× aggregation needs to hold the 33³
/// V-cycle factor near 0.10 (one pass everywhere gives 0.26); coarser
/// levels take the classic single pass, which keeps their operators
/// from filling in level after level.
fn prolong_smooth_passes(level: usize) -> usize {
    if level == 0 {
        2
    } else {
        1
    }
}

/// Builds the smoothed-aggregation prolongation
/// `P = (I − ω·D⁻¹·A)^s · P₀` where `P₀[i, agg(i)] = 1`, `D` is `diag`
/// and `s = passes`. Row `i` of `P` spans the aggregates of `i`'s
/// `s`-hop stencil neighbourhood.
fn smoothed_prolongation(
    a: &CsrMatrix,
    diag: &[f64],
    agg: &[usize],
    ncoarse: usize,
    omega: f64,
    passes: usize,
) -> Transfer {
    let n = a.n();
    let mut row_ptr: Vec<usize> = (0..=n).collect();
    let mut cols: Vec<usize> = agg.to_vec();
    let mut vals: Vec<f64> = vec![1.0; n];
    for _ in 0..passes {
        (row_ptr, cols, vals) =
            jacobi_smooth_transfer(a, diag, ncoarse, &row_ptr, &cols, &vals, omega);
    }
    Transfer::with_transpose(n, ncoarse, row_ptr, cols, vals)
}

/// One application of `S = I − ω·D⁻¹·A` to a sparse transfer operator
/// with `ncols` columns, given as CSR triplets. Each row gathers the
/// row of `P` first, then `A`'s row in stored order, through a
/// [`RowAccumulator`], so the product is deterministic and equal bit
/// for bit to a stable sort-and-merge of the row's terms.
fn jacobi_smooth_transfer(
    a: &CsrMatrix,
    diag: &[f64],
    ncols: usize,
    p_row_ptr: &[usize],
    p_cols: &[usize],
    p_vals: &[f64],
    omega: f64,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let n = a.n();
    let row_ptr_a = a.row_offsets();
    let cols_a = a.col_indices();
    let vals_a = a.values();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    let mut row = RowAccumulator::new(ncols);
    for i in 0..n {
        // Identity part: row i of P as-is.
        for k in p_row_ptr[i]..p_row_ptr[i + 1] {
            row.add(i, p_cols[k], p_vals[k]);
        }
        let scale_i = -omega / diag[i];
        for idx in row_ptr_a[i]..row_ptr_a[i + 1] {
            let j = cols_a[idx];
            let w = scale_i * vals_a[idx];
            for k in p_row_ptr[j]..p_row_ptr[j + 1] {
                row.add(i, p_cols[k], w * p_vals[k]);
            }
        }
        row.emit(&mut cols, &mut vals);
        row_ptr.push(cols.len());
    }
    (row_ptr, cols, vals)
}

/// Sparse row accumulator for the setup products: a value slot and a
/// last-row marker per output column, plus the list of columns the
/// current row touched. The first term to reach a column in a row
/// assigns it and later terms add, so each column's sum is the left
/// fold of its terms in arrival order — the sum a stable sort-and-merge
/// of the row's terms forms — at one check per term plus a sort of the
/// row's distinct columns.
struct RowAccumulator {
    acc: Vec<f64>,
    marker: Vec<usize>,
    touched: Vec<usize>,
}

impl RowAccumulator {
    fn new(ncols: usize) -> Self {
        Self {
            acc: vec![0.0; ncols],
            marker: vec![usize::MAX; ncols],
            touched: Vec::with_capacity(64),
        }
    }

    /// Adds the term `v` to column `col` of row `row`. Rows must be
    /// gathered one at a time, each finished by [`Self::emit`].
    #[inline]
    fn add(&mut self, row: usize, col: usize, v: f64) {
        if self.marker[col] == row {
            self.acc[col] += v;
        } else {
            self.marker[col] = row;
            self.acc[col] = v;
            self.touched.push(col);
        }
    }

    /// Appends the finished row to `cols`/`vals` by ascending column.
    fn emit(&mut self, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        self.touched.sort_unstable();
        cols.extend_from_slice(&self.touched);
        vals.extend(self.touched.iter().map(|&c| self.acc[c]));
        self.touched.clear();
    }
}

/// Assembles the Galerkin coarse operator `A_c = Pᵀ·A·P` serially with
/// a fixed accumulation order ([`RowAccumulator`] with ascending-column
/// emission), so the product is deterministic.
fn galerkin_product(a: &CsrMatrix, p: &Transfer) -> CsrMatrix {
    let n = a.n();
    let nc = p.ncols;
    // Stage 1: AP (fine rows × coarse cols).
    let mut ap_row_ptr = Vec::with_capacity(n + 1);
    let mut ap_cols = Vec::new();
    let mut ap_vals = Vec::new();
    ap_row_ptr.push(0);
    let mut row = RowAccumulator::new(nc);
    for i in 0..n {
        for idx in a.row_offsets()[i]..a.row_offsets()[i + 1] {
            let j = a.col_indices()[idx];
            let aij = a.values()[idx];
            for pidx in p.row_ptr[j]..p.row_ptr[j + 1] {
                row.add(i, p.cols[pidx], aij * p.vals[pidx]);
            }
        }
        row.emit(&mut ap_cols, &mut ap_vals);
        ap_row_ptr.push(ap_cols.len());
    }
    // Stage 2: A_c = Pᵀ·(AP) (coarse rows).
    let mut c_row_ptr = Vec::with_capacity(nc + 1);
    let mut c_cols = Vec::new();
    let mut c_vals = Vec::new();
    c_row_ptr.push(0);
    let mut row = RowAccumulator::new(nc);
    for cr in 0..nc {
        for tidx in p.t_row_ptr[cr]..p.t_row_ptr[cr + 1] {
            let i = p.t_cols[tidx];
            let w = p.t_vals[tidx];
            for apidx in ap_row_ptr[i]..ap_row_ptr[i + 1] {
                row.add(cr, ap_cols[apidx], w * ap_vals[apidx]);
            }
        }
        row.emit(&mut c_cols, &mut c_vals);
        c_row_ptr.push(c_cols.len());
    }
    CsrMatrix::from_parts(nc, c_row_ptr, c_cols, c_vals)
}

impl MgHierarchy {
    /// Builds the hierarchy for the fine operator `a` on the declared
    /// grid shape. `dims` must multiply out to `a.n()` (validated by
    /// the caller). Setup is serial and allocation-heavy by design —
    /// the result is cached and every *application* is allocation-free.
    ///
    /// # Errors
    ///
    /// [`SolverError::Singular`] if the coarsest Galerkin operator is
    /// not positive definite.
    pub(crate) fn build(
        a: &CsrMatrix,
        dims: (usize, usize, usize),
        context: &'static str,
    ) -> Result<Self, SolverError> {
        let mut levels: Vec<MgLevel> = Vec::new();
        let mut hierarchy_nnz = 0usize;
        let mut fine_eig_high = 0.0f64;
        let timing = aeropack_obs::enabled();
        let mut times = SetupTimes::default();
        // The operator being coarsened this round: level 0 borrows
        // `a`, deeper rounds own their Galerkin product.
        let mut current: Option<CsrMatrix> = None;
        let mut cur_dims = dims;
        loop {
            let op: &CsrMatrix = current.as_ref().unwrap_or(a);
            let n = op.n();
            let diag = op.diag();
            let bounds = timed(timing, &mut times.eig_bounds, || {
                estimate_bounds_with(
                    &|x: &[f64], y: &mut [f64]| op.spmv_into(x, y, 1),
                    &diag,
                    POWER_ITERS,
                )
            });
            if levels.is_empty() {
                fine_eig_high = bounds.high;
            }
            let (cnx, cny, cnz) = (
                cur_dims.0.div_ceil(2).max(1),
                cur_dims.1.div_ceil(2).max(1),
                cur_dims.2.div_ceil(2).max(1),
            );
            let ncoarse = cnx * cny * cnz;
            if n <= COARSE_DIRECT_MAX || ncoarse >= n || levels.len() + 1 >= MAX_LEVELS {
                // This level becomes the direct coarse solve.
                let chol = timed(timing, &mut times.coarse_factor, || {
                    let mut dense = vec![0.0f64; n * n];
                    for i in 0..n {
                        for idx in op.row_offsets()[i]..op.row_offsets()[i + 1] {
                            dense[i * n + op.col_indices()[idx]] = op.values()[idx];
                        }
                    }
                    DenseCholesky::factor(&dense, n, context)
                })?;
                aeropack_obs::counter!("solver.mg.setups");
                aeropack_obs::counter!("solver.mg.levels", levels.len() + 1);
                aeropack_obs::histogram!("solver.mg.coarse_unknowns", n);
                return Ok(Self {
                    levels,
                    chol,
                    coarse_b: vec![0.0; n],
                    coarse_x: vec![0.0; n],
                    hierarchy_nnz,
                    fine_eig_high,
                    times,
                });
            }
            let omega = 4.0 / (3.0 * bounds.high.max(f64::MIN_POSITIVE));
            let passes = prolong_smooth_passes(levels.len());
            let p = timed(timing, &mut times.prolongation, || {
                let agg = aggregate_ids(cur_dims, (cnx, cny, cnz));
                smoothed_prolongation(op, &diag, &agg, ncoarse, omega, passes)
            });
            let coarse = timed(timing, &mut times.galerkin, || galerkin_product(op, &p));
            hierarchy_nnz += p.nnz() + coarse.nnz();
            levels.push(MgLevel {
                a: current.take(),
                diag,
                smooth_low: SMOOTH_LOW_FRACTION * bounds.high,
                smooth_high: EIG_HIGH_SAFETY * bounds.high,
                p,
                x: vec![0.0; n],
                r: vec![0.0; n],
                resid: vec![0.0; n],
                corr: vec![0.0; n],
                cheb: ChebWork::default(),
            });
            current = Some(coarse);
            cur_dims = (cnx, cny, cnz);
        }
    }

    /// Grid levels including the direct coarse level.
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len() + 1
    }

    /// Unknowns on the direct-solve coarse level.
    pub(crate) fn coarse_unknowns(&self) -> usize {
        self.coarse_b.len()
    }

    /// The metadata block reported through
    /// [`SolverStats::spectral`](crate::SolverStats). A reused
    /// hierarchy ran no setup, so its phase times read zero.
    pub(crate) fn spectral_stats(&self, reused: bool) -> SpectralStats {
        let (low, high) = self
            .levels
            .first()
            .map(|l| (l.smooth_low, l.smooth_high))
            .unwrap_or((0.0, self.fine_eig_high));
        let times = if reused {
            SetupTimes::default()
        } else {
            self.times
        };
        SpectralStats {
            levels: self.level_count(),
            smoother: "chebyshev",
            degree: SMOOTH_STEPS,
            eig_low: low,
            eig_high: high,
            coarse_unknowns: self.coarse_unknowns(),
            hierarchy_nnz: self.hierarchy_nnz,
            reused,
            eig_bounds_time: times.eig_bounds,
            prolongation_time: times.prolongation,
            galerkin_time: times.galerkin,
            coarse_factor_time: times.coarse_factor,
        }
    }

    /// One V-cycle: `z ≈ A⁻¹·r`. `fine_op` is the level-0 operator
    /// apply (the caller's SELL-accelerated SpMV), `threads` the worker
    /// count for the coarse-level kernels. Allocation-free on a warm
    /// hierarchy and bitwise identical at any thread count.
    pub(crate) fn apply<F>(&mut self, fine_op: &F, r: &[f64], z: &mut [f64], threads: usize)
    where
        F: Fn(&[f64], &mut [f64]),
    {
        aeropack_obs::counter!("solver.mg.vcycles");
        let nlev = self.levels.len();
        if nlev == 0 {
            // Degenerate hierarchy: the whole problem fit the direct
            // coarse solve.
            self.coarse_b.copy_from_slice(r);
            self.chol.solve_into(&self.coarse_b, &mut self.coarse_x);
            z.copy_from_slice(&self.coarse_x);
            return;
        }
        self.levels[0].r.copy_from_slice(r);
        // Downward sweep: pre-smooth, form the residual, restrict.
        for l in 0..nlev {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let lvl = &mut head[l];
            let MgLevel {
                a,
                diag,
                smooth_low,
                smooth_high,
                p,
                x,
                r,
                resid,
                corr: _,
                cheb,
            } = lvl;
            let a: &Option<CsrMatrix> = a;
            let op = |v: &[f64], y: &mut [f64]| match a {
                None => fine_op(v, y),
                Some(m) => m.spmv_into(v, y, threads),
            };
            cheb_apply(
                &op,
                diag,
                *smooth_low,
                *smooth_high,
                SMOOTH_STEPS,
                r,
                x,
                cheb,
            );
            op(x, resid);
            for i in 0..resid.len() {
                resid[i] = r[i] - resid[i];
            }
            let next_r: &mut Vec<f64> = match tail.first_mut() {
                Some(next) => &mut next.r,
                None => &mut self.coarse_b,
            };
            p.restrict_into(resid, next_r);
        }
        self.chol.solve_into(&self.coarse_b, &mut self.coarse_x);
        // Upward sweep: prolong the correction, post-smooth.
        for l in (0..nlev).rev() {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let lvl = &mut head[l];
            let MgLevel {
                a,
                diag,
                smooth_low,
                smooth_high,
                p,
                x,
                r,
                resid,
                corr,
                cheb,
            } = lvl;
            let a: &Option<CsrMatrix> = a;
            let xc: &[f64] = match tail.first() {
                Some(next) => &next.x,
                None => &self.coarse_x,
            };
            p.prolong_add(xc, x);
            let op = |v: &[f64], y: &mut [f64]| match a {
                None => fine_op(v, y),
                Some(m) => m.spmv_into(v, y, threads),
            };
            op(x, resid);
            for i in 0..resid.len() {
                resid[i] = r[i] - resid[i];
            }
            cheb_apply(
                &op,
                diag,
                *smooth_low,
                *smooth_high,
                SMOOTH_STEPS,
                resid,
                corr,
                cheb,
            );
            for i in 0..x.len() {
                x[i] += corr[i];
            }
        }
        z.copy_from_slice(&self.levels[0].x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 7-point Poisson operator on an `nx × ny × nz` grid with
    /// Dirichlet boundaries folded into the diagonal.
    fn poisson3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let idx = move |ix: usize, iy: usize, iz: usize| ix + nx * (iy + ny * iz);
        CsrMatrix::from_row_fn(nx * ny * nz, 2, move |i, row| {
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let iz = i / (nx * ny);
            row.push((i, 6.0));
            if ix > 0 {
                row.push((idx(ix - 1, iy, iz), -1.0));
            }
            if ix + 1 < nx {
                row.push((idx(ix + 1, iy, iz), -1.0));
            }
            if iy > 0 {
                row.push((idx(ix, iy - 1, iz), -1.0));
            }
            if iy + 1 < ny {
                row.push((idx(ix, iy + 1, iz), -1.0));
            }
            if iz > 0 {
                row.push((idx(ix, iy, iz - 1), -1.0));
            }
            if iz + 1 < nz {
                row.push((idx(ix, iy, iz + 1), -1.0));
            }
        })
    }

    /// A symmetric 7-point operator with cell-varying face
    /// conductances (a layered, FR-4-under-copper-like contrast), a
    /// Dirichlet-style diagonal boost on the `z = 0` face, and a cut
    /// (zero-conductance) plane between `ix = 1` and `ix = 2` kept in
    /// the pattern as explicit `+0.0` entries. Those make the transfer
    /// product form `−0.0` terms, which only a first-touch-assigns
    /// accumulator sums like the sorted merge.
    fn variable_poisson3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let idx = move |ix: usize, iy: usize, iz: usize| ix + nx * (iy + ny * iz);
        let k = move |i: usize| {
            let iz = i / (nx * ny);
            (if iz.is_multiple_of(2) { 0.3 } else { 390.0 }) * (1.0 + 0.1 * ((i * 7) % 5) as f64)
        };
        let face = move |i: usize, j: usize| 2.0 * k(i) * k(j) / (k(i) + k(j));
        CsrMatrix::from_row_fn(nx * ny * nz, 2, move |i, row| {
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let iz = i / (nx * ny);
            let mut nbrs = Vec::new();
            if iz > 0 {
                nbrs.push(idx(ix, iy, iz - 1));
            }
            if iy > 0 {
                nbrs.push(idx(ix, iy - 1, iz));
            }
            if ix > 0 {
                nbrs.push(idx(ix - 1, iy, iz));
            }
            if ix + 1 < nx {
                nbrs.push(idx(ix + 1, iy, iz));
            }
            if iy + 1 < ny {
                nbrs.push(idx(ix, iy + 1, iz));
            }
            if iz + 1 < nz {
                nbrs.push(idx(ix, iy, iz + 1));
            }
            let mut d = if iz == 0 { 2.0 * k(i) } else { 0.0 };
            for &j in &nbrs {
                if (ix.min(j % nx), ix.max(j % nx)) == (1, 2) {
                    row.push((j, 0.0));
                } else {
                    d += face(i, j);
                    row.push((j, -face(i, j)));
                }
            }
            row.push((i, d));
        })
    }

    /// The sorted-merge transfer product the accumulator replaced:
    /// each row's terms are collected in the same order, stably sorted
    /// by column and merged. Kept as the bit-identity reference.
    fn jacobi_smooth_transfer_sorted(
        a: &CsrMatrix,
        p_row_ptr: &[usize],
        p_cols: &[usize],
        p_vals: &[f64],
        omega: f64,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let n = a.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(32);
        for i in 0..n {
            entries.clear();
            for k in p_row_ptr[i]..p_row_ptr[i + 1] {
                entries.push((p_cols[k], p_vals[k]));
            }
            let scale_i = -omega / a.get(i, i);
            for idx in a.row_offsets()[i]..a.row_offsets()[i + 1] {
                let j = a.col_indices()[idx];
                let w = scale_i * a.values()[idx];
                for k in p_row_ptr[j]..p_row_ptr[j + 1] {
                    entries.push((p_cols[k], w * p_vals[k]));
                }
            }
            entries.sort_by_key(|e| e.0);
            let mut k = 0;
            while k < entries.len() {
                let (col, mut acc) = entries[k];
                k += 1;
                while k < entries.len() && entries[k].0 == col {
                    acc += entries[k].1;
                    k += 1;
                }
                cols.push(col);
                vals.push(acc);
            }
            row_ptr.push(cols.len());
        }
        (row_ptr, cols, vals)
    }

    /// The prolongation `(I − ω·D⁻¹A)^passes · P₀` through the sorted
    /// reference, as a [`Transfer`].
    fn reference_prolongation(
        a: &CsrMatrix,
        agg: &[usize],
        ncoarse: usize,
        omega: f64,
        passes: usize,
    ) -> Transfer {
        let n = a.n();
        let mut row_ptr: Vec<usize> = (0..=n).collect();
        let mut cols: Vec<usize> = agg.to_vec();
        let mut vals: Vec<f64> = vec![1.0; n];
        for _ in 0..passes {
            (row_ptr, cols, vals) = jacobi_smooth_transfer_sorted(a, &row_ptr, &cols, &vals, omega);
        }
        Transfer::with_transpose(n, ncoarse, row_ptr, cols, vals)
    }

    #[test]
    fn transfer_product_is_bit_identical_to_the_sorted_merge() {
        let dims = (7, 5, 3);
        let cdims = (4, 3, 2);
        let nc = cdims.0 * cdims.1 * cdims.2;
        let agg = aggregate_ids(dims, cdims);
        for (name, a) in [
            ("poisson", poisson3d(dims.0, dims.1, dims.2)),
            ("variable", variable_poisson3d(dims.0, dims.1, dims.2)),
        ] {
            let diag = a.diag();
            let omega = 4.0 / (3.0 * 1.7);
            for passes in [1, 2] {
                let got = smoothed_prolongation(&a, &diag, &agg, nc, omega, passes);
                let want = reference_prolongation(&a, &agg, nc, omega, passes);
                assert_eq!(got.row_ptr, want.row_ptr, "{name}, {passes} pass(es)");
                assert_eq!(got.cols, want.cols, "{name}, {passes} pass(es)");
                assert_eq!(got.t_row_ptr, want.t_row_ptr, "{name}, {passes} pass(es)");
                assert_eq!(got.t_cols, want.t_cols, "{name}, {passes} pass(es)");
                for (what, g, w) in [
                    ("vals", &got.vals, &want.vals),
                    ("t_vals", &got.t_vals, &want.t_vals),
                ] {
                    let first_diff = g
                        .iter()
                        .zip(w.iter())
                        .position(|(x, y)| x.to_bits() != y.to_bits());
                    assert_eq!(first_diff, None, "{name}, {passes} pass(es): {what} differ");
                }
            }
        }
    }

    #[test]
    fn coarse_levels_smooth_the_prolongation_once() {
        // The all-two-pass hierarchy, level by level through the
        // sorted reference, stopping where `build` stops.
        let dims = (33, 33, 33);
        let a = poisson3d(dims.0, dims.1, dims.2);
        let mut two_pass_nnz = 0usize;
        let mut levels = 1;
        let mut current: Option<CsrMatrix> = None;
        let mut cur_dims = dims;
        loop {
            let op = current.as_ref().unwrap_or(&a);
            let cdims = (
                cur_dims.0.div_ceil(2),
                cur_dims.1.div_ceil(2),
                cur_dims.2.div_ceil(2),
            );
            let nc = cdims.0 * cdims.1 * cdims.2;
            if op.n() <= COARSE_DIRECT_MAX {
                break;
            }
            let bounds = estimate_bounds_with(
                &|x: &[f64], y: &mut [f64]| op.spmv_into(x, y, 1),
                &op.diag(),
                POWER_ITERS,
            );
            let omega = 4.0 / (3.0 * bounds.high);
            let p = reference_prolongation(op, &aggregate_ids(cur_dims, cdims), nc, omega, 2);
            let coarse = galerkin_product(op, &p);
            two_pass_nnz += p.nnz() + coarse.nnz();
            current = Some(coarse);
            cur_dims = cdims;
            levels += 1;
        }
        let mg = MgHierarchy::build(&a, dims, "mg schedule").unwrap();
        assert!(levels >= 3, "33³ must coarsen past level 1");
        assert_eq!(mg.level_count(), levels);
        assert!(
            mg.hierarchy_nnz < two_pass_nnz,
            "hierarchy nnz {} not below the all-two-pass {two_pass_nnz}",
            mg.hierarchy_nnz
        );
    }

    #[test]
    fn setup_phase_times_are_captured_while_obs_is_on() {
        let a = poisson3d(12, 10, 6);
        let mg = {
            let _obs = aeropack_obs::scoped(std::sync::Arc::new(aeropack_obs::Registry::new()));
            MgHierarchy::build(&a, (12, 10, 6), "mg timed").unwrap()
        };
        let spec = mg.spectral_stats(false);
        for (phase, t) in [
            ("eig bounds", spec.eig_bounds_time),
            ("prolongation", spec.prolongation_time),
            ("galerkin", spec.galerkin_time),
            ("coarse factor", spec.coarse_factor_time),
        ] {
            assert!(t > Duration::ZERO, "{phase} time not captured");
        }
        assert_eq!(mg.spectral_stats(true).galerkin_time, Duration::ZERO);
    }

    #[test]
    fn vcycle_convergence_factor_below_0_2_on_33cubed_poisson() {
        // The stationary iteration x ← x + B(b − A·x) with B one
        // V-cycle must contract the error by at least 5× per sweep on
        // the 33³ Poisson problem (odd extents exercise the ceil
        // coarsening). The asymptotic factor is measured over late
        // iterations, after the easy error components are gone.
        let (nx, ny, nz) = (33, 33, 33);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let mut mg = MgHierarchy::build(&a, (nx, ny, nz), "mg test").unwrap();
        assert!(mg.level_count() >= 3, "33³ must coarsen more than once");
        let b = vec![0.0; n];
        let mut x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 97.0).collect();
        let fine_op = |v: &[f64], y: &mut [f64]| a.spmv_into(v, y, 1);
        let mut resid = vec![0.0; n];
        let mut z = vec![0.0; n];
        let norm = |v: &[f64]| v.iter().map(|t| t * t).sum::<f64>().sqrt();
        let mut factors = Vec::new();
        let mut prev = norm(&x);
        for _ in 0..12 {
            fine_op(&x, &mut resid);
            for i in 0..n {
                resid[i] = b[i] - resid[i];
            }
            mg.apply(&fine_op, &resid, &mut z, 1);
            for i in 0..n {
                x[i] += z[i];
            }
            let e = norm(&x);
            factors.push(e / prev);
            prev = e;
        }
        let late = &factors[factors.len() - 4..];
        let rho = late.iter().product::<f64>().powf(1.0 / late.len() as f64);
        assert!(rho < 0.2, "V-cycle convergence factor {rho} ≥ 0.2");
    }

    #[test]
    fn vcycle_is_deterministic_across_thread_counts() {
        let (nx, ny, nz) = (12, 10, 6);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 1.5).collect();
        let mut reference = vec![0.0; n];
        {
            let mut mg = MgHierarchy::build(&a, (nx, ny, nz), "mg det").unwrap();
            mg.apply(
                &|v: &[f64], y: &mut [f64]| a.spmv_into(v, y, 1),
                &r,
                &mut reference,
                1,
            );
        }
        for threads in [2, 8] {
            let mut mg = MgHierarchy::build(&a, (nx, ny, nz), "mg det").unwrap();
            let mut z = vec![0.0; n];
            mg.apply(
                &|v: &[f64], y: &mut [f64]| a.spmv_into(v, y, threads),
                &r,
                &mut z,
                threads,
            );
            for (p, q) in reference.iter().zip(&z) {
                assert_eq!(p.to_bits(), q.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn galerkin_product_is_symmetric_and_matches_dense_ptap() {
        let dims = (7, 5, 3);
        let cdims = (4, 3, 2);
        let a = poisson3d(dims.0, dims.1, dims.2);
        let (n, nc) = (a.n(), cdims.0 * cdims.1 * cdims.2);
        let agg = aggregate_ids(dims, cdims);
        let p = smoothed_prolongation(&a, &a.diag(), &agg, nc, 4.0 / (3.0 * 2.0), 2);
        let ac = galerkin_product(&a, &p);
        assert_eq!(ac.n(), nc);
        // Dense P (n × nc) and the reference Pᵀ·A·P.
        let mut pd = vec![0.0f64; n * nc];
        for i in 0..n {
            for idx in p.row_ptr[i]..p.row_ptr[i + 1] {
                pd[i * nc + p.cols[idx]] = p.vals[idx];
            }
        }
        let mut ap = vec![0.0f64; n * nc];
        for i in 0..n {
            for j in 0..n {
                let aij = a.get(i, j);
                if aij != 0.0 {
                    for c in 0..nc {
                        ap[i * nc + c] += aij * pd[j * nc + c];
                    }
                }
            }
        }
        let mut dense = vec![0.0f64; nc * nc];
        for r in 0..nc {
            for c in 0..nc {
                dense[r * nc + c] = (0..n).map(|i| pd[i * nc + r] * ap[i * nc + c]).sum();
            }
        }
        let scale = dense.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for r in 0..nc {
            for c in 0..nc {
                let got = ac.get(r, c);
                assert!(
                    (got - dense[r * nc + c]).abs() <= 1e-12 * scale,
                    "A_c[{r},{c}] = {got} vs dense {}",
                    dense[r * nc + c]
                );
                assert!(
                    (got - ac.get(c, r)).abs() <= 1e-12 * scale,
                    "A_c not symmetric at ({r},{c})"
                );
            }
            // Ascending-column emission.
            let cols = &ac.col_indices()[ac.row_offsets()[r]..ac.row_offsets()[r + 1]];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted");
        }
    }

    #[test]
    fn degenerate_small_grid_uses_direct_solve_only() {
        let a = poisson3d(4, 4, 4);
        let mut mg = MgHierarchy::build(&a, (4, 4, 4), "mg tiny").unwrap();
        assert_eq!(mg.level_count(), 1);
        let n = a.n();
        let r = vec![1.0; n];
        let mut z = vec![0.0; n];
        mg.apply(
            &|v: &[f64], y: &mut [f64]| a.spmv_into(v, y, 1),
            &r,
            &mut z,
            1,
        );
        // The "preconditioner" is exact here: A·z must equal r.
        let az = a.spmv(&z);
        for (p, q) in az.iter().zip(&r) {
            assert!((p - q).abs() < 1e-9);
        }
    }
}
