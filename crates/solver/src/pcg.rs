//! Preconditioned conjugate gradient on SPD operators, with reusable
//! workspaces and batched multi-RHS solves.
//!
//! Three tiers of entry point, from convenient to allocation-free:
//!
//! * [`solve_sparse`] / [`solve_operator`] — one-shot solves that
//!   allocate a private [`PcgWorkspace`] internally.
//! * [`solve_sparse_with`] — borrows a caller-owned workspace, so a
//!   scenario sweep reuses the r/z/p/Ap buffers and the screened
//!   preconditioner diagonal across solves.
//! * [`solve_sparse_into`] — additionally writes the solution into a
//!   caller buffer; with residual-history recording disabled
//!   ([`SolverConfig::record_history`]) it performs **zero heap
//!   allocations** once the workspace is warm.
//!
//! [`solve_multi_rhs`] solves `k` right-hand sides against one matrix,
//! screening/preconditioning once and reusing the same CSR traversal.

use std::time::{Duration, Instant};

use crate::cheb::{
    cheb_apply, estimate_bounds_with, ChebWork, EIG_HIGH_SAFETY, EIG_LOW_SAFETY,
    FALLBACK_CHEB_STEPS, POWER_ITERS,
};
use crate::config::{Solution, SolverConfig};
use crate::csr::{CsrMatrix, SellMatrix};
use crate::error::SolverError;
use crate::ic0::Ic0Factor;
use crate::mg::MgHierarchy;
use crate::reorder::{rcm_permutation, PermutedSystem};
use crate::stats::{FactorStats, Method, Precond, SolverStats, SpectralStats};
use crate::LinearOperator;

/// Systems at or above this size run their SpMVs through the blocked
/// SELL layout ([`SellMatrix`]) cached in the workspace; smaller
/// systems stay on plain CSR, where the re-layout cost would not
/// amortise. The kernels are bitwise identical, so the threshold is a
/// pure speed knob.
const SELL_MIN_ROWS: usize = 1024;

enum Preconditioner<'a> {
    None,
    Jacobi(&'a [f64]),
    Ssor {
        matrix: &'a CsrMatrix,
        diag: &'a [f64],
    },
    Ic0 {
        factor: &'a Ic0Factor,
        threads: usize,
    },
    Chebyshev {
        matrix: &'a CsrMatrix,
        sell: Option<&'a SellMatrix>,
        diag: &'a [f64],
        low: f64,
        high: f64,
        steps: usize,
        work: &'a mut ChebWork,
        threads: usize,
    },
    Multigrid {
        matrix: &'a CsrMatrix,
        sell: Option<&'a SellMatrix>,
        hier: &'a mut MgHierarchy,
        threads: usize,
    },
}

impl Preconditioner<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        match self {
            Self::None => z.copy_from_slice(r),
            Self::Jacobi(diag) => {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(*diag) {
                    *zi = ri / di;
                }
            }
            Self::Ssor { matrix, diag } => matrix.ssor_apply(diag, r, z),
            Self::Ic0 { factor, threads } => factor.apply(r, z, *threads),
            Self::Chebyshev {
                matrix,
                sell,
                diag,
                low,
                high,
                steps,
                work,
                threads,
            } => {
                aeropack_obs::counter!("solver.cheb.applies");
                let threads = *threads;
                let sell = *sell;
                let matrix: &CsrMatrix = matrix;
                let op = |v: &[f64], y: &mut [f64]| match sell {
                    Some(s) => s.spmv_into(v, y, threads),
                    None => matrix.spmv_into(v, y, threads),
                };
                cheb_apply(&op, diag, *low, *high, *steps, r, z, work);
            }
            Self::Multigrid {
                matrix,
                sell,
                hier,
                threads,
            } => {
                let threads = *threads;
                let sell = *sell;
                let matrix: &CsrMatrix = matrix;
                let op = |v: &[f64], y: &mut [f64]| match sell {
                    Some(s) => s.spmv_into(v, y, threads),
                    None => matrix.spmv_into(v, y, threads),
                };
                hier.apply(&op, r, z, threads);
            }
        }
    }
}

/// The workspace's cached RCM permutation + permuted matrix, keyed on
/// the source pattern's shared index arrays with an exact value
/// snapshot so "same grid, new coefficients" refreshes values in place
/// (allocation-free) and "same coefficients" does nothing at all.
#[derive(Debug, Clone)]
struct ReorderCache {
    key: (usize, usize),
    sys: PermutedSystem,
    vals_snapshot: Vec<f64>,
}

/// The workspace's cached IC(0) factor, keyed like [`ReorderCache`] on
/// the pattern of the matrix that was factored (the permuted matrix
/// when RCM engages). A matching snapshot means the factor is reused
/// outright; a matching pattern with new values refactors numerically
/// in place.
#[derive(Debug, Clone)]
struct Ic0Cache {
    key: (usize, usize),
    factor: Ic0Factor,
    vals_snapshot: Vec<f64>,
}

/// The workspace's cached Chebyshev setup: the safety-adjusted
/// eigenvalue interval of `D⁻¹A` plus the polynomial scratch, keyed
/// like [`Ic0Cache`]. A value change re-runs the power method (the
/// spectrum moved); a pure pattern hit reuses the bounds outright.
#[derive(Debug, Clone)]
struct ChebCache {
    key: (usize, usize),
    vals_snapshot: Vec<f64>,
    low: f64,
    high: f64,
    work: ChebWork,
}

/// The workspace's cached multigrid hierarchy, keyed like
/// [`Ic0Cache`]. New values with the same pattern rebuild the numeric
/// hierarchy (smoothed prolongation and Galerkin products depend on
/// the coefficients); a snapshot hit reuses everything including the
/// coarse factorisation.
#[derive(Debug, Clone)]
struct MgCache {
    key: (usize, usize),
    vals_snapshot: Vec<f64>,
    hier: MgHierarchy,
}

/// The workspace's cached SELL re-layout of the iteration matrix,
/// keyed like [`Ic0Cache`]; a value change refreshes the blocked value
/// stream in place without allocating.
#[derive(Debug, Clone)]
struct SellCache {
    key: (usize, usize),
    vals_snapshot: Vec<f64>,
    sell: SellMatrix,
}

/// Reusable PCG scratch space: the residual/search/preconditioner
/// buffers, the screened diagonal, and — for [`Precond::Ic0`] — the
/// cached RCM permutation and IC(0) factor. Create one per solving
/// context (a sweep worker, a transient stepper) and pass it to
/// [`solve_sparse_with`] / [`solve_sparse_into`]; after the first solve
/// of a given size the buffers are warm and the iteration loop runs
/// without touching the allocator. The factor cache makes a power
/// sweep over one operator factor once and apply many times.
#[derive(Debug, Clone, Default)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    diag: Vec<f64>,
    history: Vec<f64>,
    /// Permuted-order right-hand side and solution buffers.
    bp: Vec<f64>,
    xp: Vec<f64>,
    reorder: Option<ReorderCache>,
    ic0: Option<Ic0Cache>,
    cheb: Option<ChebCache>,
    mg: Option<MgCache>,
    sell: Option<SellCache>,
}

impl PcgWorkspace {
    /// An empty workspace; buffers grow to the problem size on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for `n` unknowns, so even the first solve
    /// allocates nothing inside the iteration loop.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::default();
        ws.ensure(n);
        ws
    }

    fn ensure(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
        self.history.clear();
    }
}

/// Solves the SPD system `A·x = b` with `A` in CSR form through the
/// configured iterative method. This is the entry point the
/// finite-volume solvers use; it supports every [`Precond`], including
/// [`Precond::Ssor`] which needs the explicit sparse storage.
///
/// Allocates a fresh [`PcgWorkspace`] per call — prefer
/// [`solve_sparse_with`] when solving repeatedly.
///
/// # Errors
///
/// * [`SolverError::Singular`] — non-positive diagonal or an indefinite
///   operator detected during iteration.
/// * [`SolverError::NotConverged`] — iteration budget exhausted.
/// * [`SolverError::InvalidInput`] — dimension mismatch or a direct
///   method selection (use [`solve_dense`](crate::solve_dense)).
pub fn solve_sparse(a: &CsrMatrix, b: &[f64], cfg: &SolverConfig) -> Result<Solution, SolverError> {
    let mut ws = PcgWorkspace::new();
    solve_sparse_with(&mut ws, a, b, cfg)
}

/// Like [`solve_sparse`], but borrows a caller-owned [`PcgWorkspace`]
/// instead of allocating: across a sweep of same-sized systems the
/// work vectors and the screened diagonal buffer are reused, and the
/// PCG iteration loop performs no heap allocation after the first
/// solve.
///
/// # Errors
///
/// Same contract as [`solve_sparse`].
pub fn solve_sparse_with(
    ws: &mut PcgWorkspace,
    a: &CsrMatrix,
    b: &[f64],
    cfg: &SolverConfig,
) -> Result<Solution, SolverError> {
    let mut x = vec![0.0; a.n()];
    let stats = solve_sparse_into(ws, a, b, &mut x, cfg)?;
    Ok(Solution { x, stats })
}

/// The fully allocation-free entry point: solves `A·x = b` writing the
/// solution into `x` (which must be zeroed or hold any starting values
/// — it is overwritten). With residual-history recording disabled via
/// [`SolverConfig::record_history`]`(false)`, a warm workspace makes
/// the whole call zero-allocation.
///
/// # Errors
///
/// Same contract as [`solve_sparse`], plus [`SolverError::InvalidInput`]
/// when `x` has the wrong length.
pub fn solve_sparse_into(
    ws: &mut PcgWorkspace,
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    cfg: &SolverConfig,
) -> Result<SolverStats, SolverError> {
    if cfg.get_method() != Method::Pcg {
        return Err(SolverError::invalid(format!(
            "solve_sparse supports PCG, not {} (use solve_dense)",
            cfg.get_method()
        )));
    }
    let n = a.n();
    if x.len() != n {
        return Err(SolverError::invalid(format!(
            "solution length {} does not match n={n}",
            x.len()
        )));
    }
    let setup_start = Instant::now();
    ws.ensure(n);
    a.diag_into(&mut ws.diag);
    if ws.diag.iter().any(|&d| d <= 0.0) {
        return Err(SolverError::Singular {
            context: cfg.get_context(),
        });
    }
    // Resolve the effective preconditioner: Multigrid needs a declared
    // grid shape to coarsen; without one it falls back to the purely
    // algebraic Chebyshev polynomial.
    let mut precond_kind = cfg.get_preconditioner();
    if precond_kind == Precond::Multigrid {
        match cfg.get_grid_dims() {
            Some((nx, ny, nz)) if nx * ny * nz == n => {}
            Some((nx, ny, nz)) => {
                return Err(SolverError::invalid(format!(
                    "grid dims {nx}×{ny}×{nz} do not multiply out to n={n}"
                )));
            }
            None => {
                aeropack_obs::counter!("solver.mg.fallbacks");
                precond_kind = Precond::Chebyshev(FALLBACK_CHEB_STEPS);
            }
        }
    }
    if let Precond::Chebyshev(k) = precond_kind {
        if k == 0 {
            return Err(SolverError::invalid(
                "Chebyshev step count must be at least 1",
            ));
        }
    }
    let threads = cfg.get_threads();
    let use_rcm = cfg.rcm_engages() && n > 1;
    if use_rcm && precond_kind == Precond::Multigrid {
        return Err(SolverError::invalid(
            "RCM reordering scrambles the structured grid the multigrid \
             hierarchy coarsens (use Reorder::None or Reorder::Auto)",
        ));
    }
    let PcgWorkspace {
        r,
        z,
        p,
        ap,
        diag,
        history,
        bp,
        xp,
        reorder,
        ic0,
        cheb,
        mg,
        sell,
    } = ws;
    if use_rcm {
        ensure_reorder(reorder, a);
    }
    let sys: Option<&PermutedSystem> = if use_rcm {
        reorder.as_ref().map(|c| &c.sys)
    } else {
        None
    };
    let system: &CsrMatrix = sys.map_or(a, |s| s.matrix());
    if sys.is_some() {
        // Preconditioners act on the permuted operator.
        system.diag_into(diag);
    }
    // Blocked SpMV layout: the iteration operator (and the fine level
    // of the preconditioners) runs through the SELL re-layout above
    // the size threshold, bitwise identical to plain CSR.
    if n >= SELL_MIN_ROWS {
        ensure_sell(sell, system);
    }
    let sell_ref: Option<&SellMatrix> = if n >= SELL_MIN_ROWS {
        sell.as_ref().map(|c| &c.sell)
    } else {
        None
    };
    let factorization = match precond_kind {
        Precond::Ic0 => Some(ensure_ic0(ic0, system, use_rcm, cfg.get_context())?),
        _ => None,
    };
    let spectral = match precond_kind {
        Precond::Chebyshev(k) => Some(ensure_cheb(cheb, system, sell_ref, k, threads)),
        Precond::Multigrid => {
            let dims = cfg.get_grid_dims().expect("grid dims validated above");
            Some(ensure_mg(mg, system, dims, cfg.get_context())?)
        }
        _ => None,
    };
    let mut precond = match precond_kind {
        Precond::None => Preconditioner::None,
        Precond::Jacobi => Preconditioner::Jacobi(diag),
        Precond::Ssor => Preconditioner::Ssor {
            matrix: system,
            diag,
        },
        Precond::Ic0 => Preconditioner::Ic0 {
            factor: &ic0.as_ref().expect("factor ensured above").factor,
            threads,
        },
        Precond::Chebyshev(k) => {
            let c = cheb.as_mut().expect("bounds ensured above");
            Preconditioner::Chebyshev {
                matrix: system,
                sell: sell_ref,
                diag,
                low: c.low,
                high: c.high,
                steps: k,
                work: &mut c.work,
                threads,
            }
        }
        Precond::Multigrid => Preconditioner::Multigrid {
            matrix: system,
            sell: sell_ref,
            hier: &mut mg.as_mut().expect("hierarchy ensured above").hier,
            threads,
        },
    };
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    if let Some(sys) = sys {
        bp.resize(n, 0.0);
        xp.resize(n, 0.0);
        sys.permute_into(b, bp);
        let stats = pcg_loop(
            |v, y| match sell_ref {
                Some(s) => s.spmv_into(v, y, threads),
                None => system.spmv_into(v, y, threads),
            },
            &mut precond,
            precond_kind,
            bp,
            xp,
            (r, z, p, ap),
            history,
            cfg,
            n,
            (factorization, spectral, setup_seconds),
        )?;
        sys.scatter_back(xp, x);
        Ok(stats)
    } else {
        pcg_loop(
            |v, y| match sell_ref {
                Some(s) => s.spmv_into(v, y, threads),
                None => system.spmv_into(v, y, threads),
            },
            &mut precond,
            precond_kind,
            b,
            x,
            (r, z, p, ap),
            history,
            cfg,
            n,
            (factorization, spectral, setup_seconds),
        )
    }
}

/// Brings the workspace's RCM cache in sync with `a`: a pattern hit
/// with identical values is free, a pattern hit with new values
/// refreshes the permuted copy in place, and a new pattern recomputes
/// the permutation.
fn ensure_reorder(cache: &mut Option<ReorderCache>, a: &CsrMatrix) {
    let key = a.pattern().key();
    if let Some(c) = cache {
        if c.key == key {
            if c.vals_snapshot.as_slice() != a.values() {
                c.sys.refresh_values(a);
                c.vals_snapshot.copy_from_slice(a.values());
            }
            return;
        }
    }
    aeropack_obs::counter!("solver.rcm.reorders");
    let sys = PermutedSystem::build(a, rcm_permutation(&a.pattern()));
    *cache = Some(ReorderCache {
        key,
        sys,
        vals_snapshot: a.values().to_vec(),
    });
}

/// Brings the workspace's IC(0) cache in sync with `m` (the matrix the
/// iteration actually runs on — permuted when RCM engages) and returns
/// the factorisation stats for this solve.
fn ensure_ic0(
    cache: &mut Option<Ic0Cache>,
    m: &CsrMatrix,
    reordered: bool,
    context: &'static str,
) -> Result<FactorStats, SolverError> {
    let key = m.pattern().key();
    if let Some(c) = cache {
        if c.key == key && c.vals_snapshot.as_slice() == m.values() {
            aeropack_obs::counter!("solver.ic0.factor_reuses");
            return Ok(FactorStats {
                factor_time: Duration::ZERO,
                fill_nnz: c.factor.fill_nnz(),
                forward_levels: c.factor.forward_levels(),
                backward_levels: c.factor.backward_levels(),
                diagonal_shift: c.factor.shift(),
                reused: true,
                reordered,
            });
        }
        if c.key == key {
            let t0 = Instant::now();
            match c.factor.refactor(m) {
                Ok(retries) => {
                    c.vals_snapshot.copy_from_slice(m.values());
                    return Ok(record_factor(&c.factor, t0.elapsed(), retries, reordered));
                }
                Err(_) => {
                    // The numeric content is now garbage; drop the
                    // cache so a future solve rebuilds from scratch.
                    *cache = None;
                    return Err(SolverError::Singular { context });
                }
            }
        }
    }
    let t0 = Instant::now();
    let (factor, retries) = Ic0Factor::new(m).map_err(|_| SolverError::Singular { context })?;
    let stats = record_factor(&factor, t0.elapsed(), retries, reordered);
    *cache = Some(Ic0Cache {
        key,
        factor,
        vals_snapshot: m.values().to_vec(),
    });
    Ok(stats)
}

fn record_factor(
    factor: &Ic0Factor,
    elapsed: Duration,
    retries: usize,
    reordered: bool,
) -> FactorStats {
    aeropack_obs::counter!("solver.ic0.factorizations");
    aeropack_obs::counter!("solver.ic0.fill_nnz", factor.fill_nnz());
    if retries > 0 {
        aeropack_obs::counter!("solver.ic0.shift_retries", retries);
    }
    aeropack_obs::histogram!("solver.ic0.factor_seconds", elapsed.as_secs_f64());
    aeropack_obs::histogram!("solver.ic0.levels", factor.forward_levels());
    FactorStats {
        factor_time: elapsed,
        fill_nnz: factor.fill_nnz(),
        forward_levels: factor.forward_levels(),
        backward_levels: factor.backward_levels(),
        diagonal_shift: factor.shift(),
        reused: false,
        reordered,
    }
}

/// Brings the workspace's SELL layout in sync with `m`: pattern hits
/// with changed values refresh in place (no allocation), new patterns
/// rebuild the block layout.
fn ensure_sell(cache: &mut Option<SellCache>, m: &CsrMatrix) {
    let key = m.pattern().key();
    if let Some(c) = cache {
        if c.key == key {
            if c.vals_snapshot.as_slice() != m.values() {
                c.sell.refresh_values(m);
                c.vals_snapshot.copy_from_slice(m.values());
            }
            return;
        }
    }
    aeropack_obs::counter!("solver.pcg.sell_builds");
    *cache = Some(SellCache {
        key,
        sell: SellMatrix::from_csr(m),
        vals_snapshot: m.values().to_vec(),
    });
}

/// Brings the workspace's Chebyshev spectral bounds in sync with `m`.
/// New values re-run the power method (the spectrum moved); a clean
/// hit reuses the cached interval for free.
fn ensure_cheb(
    cache: &mut Option<ChebCache>,
    m: &CsrMatrix,
    sell: Option<&SellMatrix>,
    steps: usize,
    threads: usize,
) -> SpectralStats {
    let key = m.pattern().key();
    let reused =
        matches!(cache, Some(c) if c.key == key && c.vals_snapshot.as_slice() == m.values());
    if reused {
        aeropack_obs::counter!("solver.cheb.reuses");
    } else {
        aeropack_obs::counter!("solver.cheb.setups");
        let diag = m.diag();
        let op = |v: &[f64], y: &mut [f64]| match sell {
            Some(s) => s.spmv_into(v, y, threads),
            None => m.spmv_into(v, y, threads),
        };
        let bounds = estimate_bounds_with(&op, &diag, POWER_ITERS);
        // Overestimating the top of the spectrum is safe; clipping it
        // risks an indefinite polynomial. The lower bound only trades
        // smoothing for conditioning, so a floor is enough.
        let high = bounds.high * EIG_HIGH_SAFETY;
        let low = (bounds.low * EIG_LOW_SAFETY).max(high * 1e-8);
        match cache {
            Some(c) if c.key == key => {
                c.vals_snapshot.copy_from_slice(m.values());
                c.low = low;
                c.high = high;
            }
            _ => {
                *cache = Some(ChebCache {
                    key,
                    vals_snapshot: m.values().to_vec(),
                    low,
                    high,
                    work: ChebWork::default(),
                })
            }
        }
    }
    let c = cache.as_ref().expect("cheb cache ensured above");
    SpectralStats {
        levels: 1,
        smoother: "polynomial",
        degree: steps,
        eig_low: c.low,
        eig_high: c.high,
        coarse_unknowns: 0,
        hierarchy_nnz: 0,
        reused,
    }
}

/// Brings the workspace's multigrid hierarchy in sync with `m`. Value
/// changes rebuild the whole hierarchy — the Galerkin coarse operators
/// and spectral bounds all depend on the numeric content, and power
/// sweeps that share matrix values hit the reuse path anyway.
fn ensure_mg(
    cache: &mut Option<MgCache>,
    m: &CsrMatrix,
    dims: (usize, usize, usize),
    context: &'static str,
) -> Result<SpectralStats, SolverError> {
    let key = m.pattern().key();
    if let Some(c) = cache {
        if c.key == key && c.vals_snapshot.as_slice() == m.values() {
            aeropack_obs::counter!("solver.mg.reuses");
            return Ok(c.hier.spectral_stats(true));
        }
        if c.key == key {
            aeropack_obs::counter!("solver.mg.rebuilds");
        }
    }
    let hier = MgHierarchy::build(m, dims, context)?;
    let stats = hier.spectral_stats(false);
    *cache = Some(MgCache {
        key,
        vals_snapshot: m.values().to_vec(),
        hier,
    });
    Ok(stats)
}

/// Solves the SPD system `A·x = b` for any [`LinearOperator`]
/// (matrix-free stencils included). [`Precond::Ssor`] needs explicit
/// storage and is rejected here — use [`solve_sparse`].
///
/// # Errors
///
/// Same contract as [`solve_sparse`].
pub fn solve_operator(
    a: &dyn LinearOperator,
    b: &[f64],
    cfg: &SolverConfig,
) -> Result<Solution, SolverError> {
    if cfg.get_method() != Method::Pcg {
        return Err(SolverError::invalid(format!(
            "solve_operator supports PCG, not {} (use solve_dense)",
            cfg.get_method()
        )));
    }
    let n = a.dim();
    let mut ws = PcgWorkspace::with_capacity(n);
    ws.diag = a.diagonal();
    if ws.diag.iter().any(|&d| d <= 0.0) {
        return Err(SolverError::Singular {
            context: cfg.get_context(),
        });
    }
    let PcgWorkspace {
        r,
        z,
        p,
        ap,
        diag,
        history,
        ..
    } = &mut ws;
    let mut precond = match cfg.get_preconditioner() {
        Precond::None => Preconditioner::None,
        Precond::Jacobi => Preconditioner::Jacobi(diag),
        Precond::Ssor => {
            return Err(SolverError::invalid(
                "SSOR preconditioning needs explicit CSR storage (use solve_sparse)",
            ))
        }
        Precond::Ic0 => {
            return Err(SolverError::invalid(
                "IC(0) preconditioning needs explicit CSR storage (use solve_sparse)",
            ))
        }
        Precond::Chebyshev(_) | Precond::Multigrid => {
            return Err(SolverError::invalid(
                "spectral preconditioning needs explicit CSR storage (use solve_sparse)",
            ))
        }
    };
    let mut x = vec![0.0; n];
    let stats = pcg_loop(
        |v, y| a.apply(v, y),
        &mut precond,
        cfg.get_preconditioner(),
        b,
        &mut x,
        (r, z, p, ap),
        history,
        cfg,
        n,
        (None, None, 0.0),
    )?;
    Ok(Solution { x, stats })
}

/// Solves `k` right-hand sides against one matrix: `rhs_block` holds
/// the RHS vectors contiguously (`k·n` values), and the returned
/// solutions are in the same order. The diagonal is screened and the
/// preconditioner set up **once**, and every solve reuses the same
/// workspace and CSR traversal — the batched path scenario sweeps use
/// when many load cases share one operator.
///
/// A `k = 0` batch (empty `rhs_block`) is a well-defined degenerate
/// case and returns an empty solution list; a `k = 1` batch is
/// bit-identical to the corresponding [`solve_sparse`] call.
///
/// # Errors
///
/// [`SolverError::InvalidInput`] when the matrix is empty or
/// `rhs_block` is not a multiple of `n`; otherwise the per-RHS
/// contract of [`solve_sparse`] (the first failing RHS aborts the
/// batch).
pub fn solve_multi_rhs(
    a: &CsrMatrix,
    rhs_block: &[f64],
    cfg: &SolverConfig,
) -> Result<Vec<Solution>, SolverError> {
    let mut ws = PcgWorkspace::new();
    solve_multi_rhs_with(&mut ws, a, rhs_block, cfg)
}

/// [`solve_multi_rhs`] over a caller-owned workspace.
///
/// # Errors
///
/// Same contract as [`solve_multi_rhs`].
pub fn solve_multi_rhs_with(
    ws: &mut PcgWorkspace,
    a: &CsrMatrix,
    rhs_block: &[f64],
    cfg: &SolverConfig,
) -> Result<Vec<Solution>, SolverError> {
    let n = a.n();
    if n == 0 {
        return Err(SolverError::invalid("matrix has no rows"));
    }
    if !rhs_block.len().is_multiple_of(n) {
        return Err(SolverError::invalid(format!(
            "rhs block length {} is not a multiple of n={n}",
            rhs_block.len()
        )));
    }
    let k = rhs_block.len() / n;
    let mut out = Vec::with_capacity(k);
    for b in rhs_block.chunks_exact(n) {
        out.push(solve_sparse_with(ws, a, b, cfg)?);
    }
    Ok(out)
}

/// The PCG iteration. All scratch comes in through `bufs`/`history`;
/// the loop body performs no allocation (history pushes reuse warm
/// capacity and are skipped entirely when recording is off).
#[allow(clippy::too_many_arguments)]
fn pcg_loop<F>(
    apply: F,
    precond: &mut Preconditioner<'_>,
    precond_kind: Precond,
    b: &[f64],
    x: &mut [f64],
    bufs: (&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>),
    history: &mut Vec<f64>,
    cfg: &SolverConfig,
    n: usize,
    setup: (Option<FactorStats>, Option<SpectralStats>, f64),
) -> Result<SolverStats, SolverError>
where
    F: Fn(&[f64], &mut [f64]),
{
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs length {} does not match n={n}",
            b.len()
        )));
    }
    let (r, z, p, ap) = bufs;
    let (factorization, spectral, setup_seconds) = setup;
    let context = cfg.get_context();
    let tol = cfg.get_tolerance();
    let record = cfg.get_record_history();
    let max_iter = cfg.iteration_budget(n);
    let start = Instant::now();
    let stats = |iterations: usize, history: Vec<f64>, final_residual: f64| {
        let iterate_seconds = start.elapsed().as_secs_f64();
        let wall_time = Duration::from_secs_f64(setup_seconds + iterate_seconds);
        aeropack_obs::counter!("solver.pcg.solves");
        aeropack_obs::counter!("solver.pcg.iterations", iterations);
        aeropack_obs::counter!(
            match precond_kind {
                Precond::None => "solver.pcg.iterations.none",
                Precond::Jacobi => "solver.pcg.iterations.jacobi",
                Precond::Ssor => "solver.pcg.iterations.ssor",
                Precond::Ic0 => "solver.pcg.iterations.ic0",
                Precond::Chebyshev(_) => "solver.pcg.iterations.chebyshev",
                Precond::Multigrid => "solver.pcg.iterations.mg",
            },
            iterations
        );
        if precond_kind != cfg.get_preconditioner() {
            aeropack_obs::counter!("solver.pcg.precond_substitutions");
        }
        aeropack_obs::histogram!("solver.pcg.final_residual", final_residual);
        aeropack_obs::histogram!("solver.pcg.solve_seconds", wall_time.as_secs_f64());
        SolverStats {
            context,
            method: Method::Pcg,
            preconditioner: precond_kind,
            requested_preconditioner: cfg.get_preconditioner(),
            unknowns: n,
            threads: cfg.get_threads(),
            iterations,
            residual_history: history,
            final_residual,
            tolerance: tol,
            wall_time,
            setup_seconds,
            iterate_seconds,
            factorization,
            spectral,
        }
    };

    x.fill(0.0);
    r.copy_from_slice(b);
    let b_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    if b_norm == 0.0 {
        return Ok(stats(0, Vec::new(), 0.0));
    }
    precond.apply(r, z);
    p.copy_from_slice(z);
    let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
    for iter in 0..max_iter {
        apply(p, ap);
        let pap: f64 = p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
        if pap <= 0.0 {
            return Err(SolverError::Singular { context });
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rel = r.iter().map(|v| v * v).sum::<f64>().sqrt() / b_norm;
        if record {
            history.push(rel);
        }
        if rel <= tol {
            let recorded = if record { history.clone() } else { Vec::new() };
            return Ok(stats(iter + 1, recorded, rel));
        }
        precond.apply(r, z);
        let rz_new: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let rel = history.last().copied().unwrap_or(1.0);
    aeropack_obs::counter!("solver.pcg.not_converged");
    Err(SolverError::NotConverged {
        context,
        iterations: max_iter,
        residual: rel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Reorder;
    use crate::stats::Precond;

    fn laplacian(n: usize) -> CsrMatrix {
        CsrMatrix::from_row_fn(n, 1, |i, row| {
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
    fn pcg_solves_laplacian_chain_every_precond() {
        let n = 50;
        let a = laplacian(n);
        let b = vec![1.0; n];
        for precond in [Precond::None, Precond::Jacobi, Precond::Ssor, Precond::Ic0] {
            let cfg = SolverConfig::new()
                .preconditioner(precond)
                .tolerance(1e-12)
                .context("laplacian");
            let sol = solve_sparse(&a, &b, &cfg).unwrap();
            for (i, &xi) in sol.x.iter().enumerate() {
                let k = (i + 1) as f64;
                let exact = k * (n as f64 + 1.0 - k) / 2.0;
                assert!(
                    (xi - exact).abs() < 1e-6 * exact.max(1.0),
                    "{precond}: i={i}"
                );
            }
            assert!(sol.stats.iterations > 0);
            assert_eq!(sol.stats.residual_history.len(), sol.stats.iterations);
            assert!(sol.stats.converged());
        }
    }

    #[test]
    fn ssor_converges_faster_than_jacobi() {
        let n = 200;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let jacobi =
            solve_sparse(&a, &b, &SolverConfig::new().preconditioner(Precond::Jacobi)).unwrap();
        let ssor =
            solve_sparse(&a, &b, &SolverConfig::new().preconditioner(Precond::Ssor)).unwrap();
        assert!(
            ssor.stats.iterations < jacobi.stats.iterations,
            "SSOR {} vs Jacobi {}",
            ssor.stats.iterations,
            jacobi.stats.iterations
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = laplacian(8);
        let sol = solve_sparse(&a, &[0.0; 8], &SolverConfig::new()).unwrap();
        assert_eq!(sol.x, vec![0.0; 8]);
        assert_eq!(sol.stats.iterations, 0);
    }

    #[test]
    fn non_positive_diagonal_is_singular() {
        let a = CsrMatrix::from_row_fn(3, 1, |i, row| {
            row.push((i, if i == 1 { 0.0 } else { 1.0 }));
        });
        assert!(matches!(
            solve_sparse(&a, &[1.0; 3], &SolverConfig::new()),
            Err(SolverError::Singular { .. })
        ));
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let a = laplacian(100);
        let cfg = SolverConfig::new().tolerance(1e-14).max_iterations(3);
        assert!(matches!(
            solve_sparse(&a, &vec![1.0; 100], &cfg),
            Err(SolverError::NotConverged { iterations: 3, .. })
        ));
    }

    #[test]
    fn operator_path_matches_sparse_path() {
        let n = 40;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let cfg = SolverConfig::new().tolerance(1e-12);
        let s1 = solve_sparse(&a, &b, &cfg).unwrap();
        let s2 = solve_operator(&a, &b, &cfg).unwrap();
        assert_eq!(s1.x, s2.x);
    }

    #[test]
    fn operator_path_rejects_ssor() {
        let a = laplacian(4);
        let cfg = SolverConfig::new().preconditioner(Precond::Ssor);
        assert!(matches!(
            solve_operator(&a, &[1.0; 4], &cfg),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn operator_path_rejects_ic0() {
        let a = laplacian(4);
        let cfg = SolverConfig::new().preconditioner(Precond::Ic0);
        assert!(matches!(
            solve_operator(&a, &[1.0; 4], &cfg),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn ic0_converges_in_fewer_iterations_than_jacobi_and_ssor() {
        let n = 400;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let iters = |precond| {
            solve_sparse(&a, &b, &SolverConfig::new().preconditioner(precond))
                .unwrap()
                .stats
                .iterations
        };
        let (jacobi, ssor, ic0) = (
            iters(Precond::Jacobi),
            iters(Precond::Ssor),
            iters(Precond::Ic0),
        );
        assert!(ic0 < ssor, "IC(0) {ic0} vs SSOR {ssor}");
        assert!(ic0 * 2 <= jacobi, "IC(0) {ic0} vs Jacobi {jacobi}");
    }

    #[test]
    fn ic0_factor_is_cached_across_a_workspace_sweep() {
        let n = 120;
        let a = laplacian(n);
        let cfg = SolverConfig::new()
            .preconditioner(Precond::Ic0)
            .tolerance(1e-12);
        let mut ws = PcgWorkspace::new();
        let first = solve_sparse_with(&mut ws, &a, &vec![1.0; n], &cfg).unwrap();
        let f1 = first
            .stats
            .factorization
            .expect("IC(0) reports factor stats");
        assert!(!f1.reused);
        assert!(f1.reordered, "Reorder::Auto engages RCM with IC(0)");
        assert!(f1.fill_nnz > 0);
        let second = solve_sparse_with(&mut ws, &a, &vec![2.0; n], &cfg).unwrap();
        let f2 = second.stats.factorization.unwrap();
        assert!(f2.reused, "same matrix must reuse the cached factor");
        assert_eq!(f2.factor_time, Duration::ZERO);
        // A same-pattern matrix with new values refactors in place.
        let scaled = CsrMatrix::from_pattern_row_fn(&a.pattern(), 1, |i, row| {
            for idx in a.row_offsets()[i]..a.row_offsets()[i + 1] {
                row.push((a.col_indices()[idx], 2.0 * a.values()[idx]));
            }
        });
        let third = solve_sparse_with(&mut ws, &scaled, &vec![1.0; n], &cfg).unwrap();
        assert!(!third.stats.factorization.unwrap().reused);
    }

    #[test]
    fn rcm_reordering_does_not_change_what_is_solved() {
        use crate::config::Reorder;
        let n = 150;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 2.0).collect();
        for precond in [Precond::Jacobi, Precond::Ssor, Precond::Ic0] {
            let plain = solve_sparse(
                &a,
                &b,
                &SolverConfig::new()
                    .preconditioner(precond)
                    .reorder(Reorder::None)
                    .tolerance(1e-12),
            )
            .unwrap();
            let rcm = solve_sparse(
                &a,
                &b,
                &SolverConfig::new()
                    .preconditioner(precond)
                    .reorder(Reorder::Rcm)
                    .tolerance(1e-12),
            )
            .unwrap();
            for (p, q) in plain.x.iter().zip(rcm.x.iter()) {
                assert!((p - q).abs() < 1e-8 * p.abs().max(1.0), "{precond}");
            }
        }
    }

    #[test]
    fn reused_workspace_is_bitwise_identical_to_fresh_solves() {
        let n = 60;
        let a = laplacian(n);
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..n)
                    .map(|i| ((i + k) as f64 * 0.07).sin() + 2.0)
                    .collect()
            })
            .collect();
        for precond in [Precond::None, Precond::Jacobi, Precond::Ssor, Precond::Ic0] {
            let cfg = SolverConfig::new().preconditioner(precond).tolerance(1e-12);
            let mut ws = PcgWorkspace::new();
            for b in &rhs {
                let fresh = solve_sparse(&a, b, &cfg).unwrap();
                let reused = solve_sparse_with(&mut ws, &a, b, &cfg).unwrap();
                assert_eq!(fresh.x, reused.x, "{precond}");
                assert_eq!(fresh.stats.iterations, reused.stats.iterations);
                assert_eq!(fresh.stats.residual_history, reused.stats.residual_history);
            }
        }
    }

    #[test]
    fn solve_into_writes_caller_buffer_and_skips_history() {
        let n = 30;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = SolverConfig::new().record_history(false);
        let mut ws = PcgWorkspace::with_capacity(n);
        let mut x = vec![7.0; n]; // stale values must be overwritten
        let stats = solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg).unwrap();
        let reference = solve_sparse(&a, &b, &SolverConfig::new()).unwrap();
        assert_eq!(x, reference.x);
        assert_eq!(stats.iterations, reference.stats.iterations);
        assert!(stats.residual_history.is_empty());
        assert!(stats.converged());
    }

    #[test]
    fn solve_into_rejects_wrong_solution_length() {
        let a = laplacian(5);
        let mut ws = PcgWorkspace::new();
        let mut x = vec![0.0; 4];
        assert!(matches!(
            solve_sparse_into(&mut ws, &a, &[1.0; 5], &mut x, &SolverConfig::new()),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn multi_rhs_matches_independent_solves() {
        let n = 48;
        let a = laplacian(n);
        let k = 5;
        let mut block = Vec::with_capacity(k * n);
        for j in 0..k {
            for i in 0..n {
                block.push(((i * (j + 1)) as f64 * 0.05).cos() + 1.5);
            }
        }
        let cfg = SolverConfig::new().tolerance(1e-12);
        let batch = solve_multi_rhs(&a, &block, &cfg).unwrap();
        assert_eq!(batch.len(), k);
        for (j, sol) in batch.iter().enumerate() {
            let single = solve_sparse(&a, &block[j * n..(j + 1) * n], &cfg).unwrap();
            assert_eq!(sol.x, single.x, "rhs {j}");
            assert_eq!(sol.stats.iterations, single.stats.iterations);
        }
    }

    #[test]
    fn multi_rhs_rejects_ragged_block() {
        let a = laplacian(4);
        assert!(matches!(
            solve_multi_rhs(&a, &[1.0; 7], &SolverConfig::new()),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn multi_rhs_degenerate_batches() {
        let a = laplacian(6);
        // k = 0: a well-defined empty batch, not an error.
        let empty = solve_multi_rhs(&a, &[], &SolverConfig::new()).unwrap();
        assert!(empty.is_empty());
        // k = 1: bit-identical to the single-RHS path.
        let b: Vec<f64> = (0..6).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let cfg = SolverConfig::new().tolerance(1e-12);
        let batch = solve_multi_rhs(&a, &b, &cfg).unwrap();
        let single = solve_sparse(&a, &b, &cfg).unwrap();
        assert_eq!(batch.len(), 1);
        for (p, q) in batch[0].x.iter().zip(&single.x) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(batch[0].stats.iterations, single.stats.iterations);
    }

    /// 7-point Poisson operator on a structured grid (Dirichlet
    /// boundaries folded into the diagonal).
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

    #[test]
    fn chebyshev_solves_and_reports_spectral_stats() {
        let n = 120;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = SolverConfig::new()
            .preconditioner(Precond::Chebyshev(4))
            .tolerance(1e-11);
        let sol = solve_sparse(&a, &b, &cfg).unwrap();
        assert!(sol.stats.converged());
        let spec = sol
            .stats
            .spectral
            .expect("chebyshev reports spectral stats");
        assert_eq!(spec.levels, 1);
        assert_eq!(spec.degree, 4);
        assert!(spec.eig_high > spec.eig_low && spec.eig_low > 0.0);
        assert!(!spec.reused);
        for (i, &xi) in sol.x.iter().enumerate() {
            let k = (i + 1) as f64;
            let exact = k * (n as f64 + 1.0 - k) / 2.0;
            assert!((xi - exact).abs() < 1e-5 * exact.max(1.0), "i={i}");
        }
        // Degree 0 is not a polynomial.
        assert!(matches!(
            solve_sparse(
                &a,
                &b,
                &SolverConfig::new().preconditioner(Precond::Chebyshev(0))
            ),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn multigrid_solves_poisson_with_declared_dims() {
        let (nx, ny, nz) = (12, 10, 8);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 1.5).collect();
        let cfg = SolverConfig::new()
            .preconditioner(Precond::Multigrid)
            .grid_dims((nx, ny, nz))
            .tolerance(1e-11);
        let sol = solve_sparse(&a, &b, &cfg).unwrap();
        assert!(sol.stats.converged());
        assert_eq!(sol.stats.preconditioner, Precond::Multigrid);
        let spec = sol.stats.spectral.expect("mg reports spectral stats");
        assert!(spec.levels >= 2);
        assert!(spec.coarse_unknowns > 0 && spec.coarse_unknowns < n);
        assert_eq!(spec.smoother, "chebyshev");
        // The hierarchy shrinks the iteration count well below Jacobi.
        let jacobi = solve_sparse(
            &a,
            &b,
            &SolverConfig::new()
                .preconditioner(Precond::Jacobi)
                .tolerance(1e-11),
        )
        .unwrap();
        assert!(
            sol.stats.iterations * 2 < jacobi.stats.iterations,
            "MG {} vs Jacobi {}",
            sol.stats.iterations,
            jacobi.stats.iterations
        );
        // Residual parity with the Jacobi solution.
        for (p, q) in sol.x.iter().zip(&jacobi.x) {
            assert!((p - q).abs() < 1e-6 * q.abs().max(1.0));
        }
    }

    #[test]
    fn multigrid_without_dims_falls_back_to_chebyshev() {
        let n = 90;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = SolverConfig::new()
            .preconditioner(Precond::Multigrid)
            .tolerance(1e-11);
        let sol = solve_sparse(&a, &b, &cfg).unwrap();
        assert!(sol.stats.converged());
        // The effective preconditioner is reported, not the requested one
        // — and the requested one stays visible alongside it.
        assert_eq!(
            sol.stats.preconditioner,
            Precond::Chebyshev(crate::cheb::FALLBACK_CHEB_STEPS)
        );
        assert_eq!(sol.stats.requested_preconditioner, Precond::Multigrid);
        assert!(sol.stats.spectral.is_some());
        // When nothing substitutes, the two fields agree.
        let plain =
            solve_sparse(&a, &b, &SolverConfig::new().preconditioner(Precond::Jacobi)).unwrap();
        assert_eq!(plain.stats.preconditioner, Precond::Jacobi);
        assert_eq!(plain.stats.requested_preconditioner, Precond::Jacobi);
    }

    #[test]
    fn multigrid_rejects_wrong_dims_and_rcm() {
        let a = poisson3d(4, 4, 4);
        let b = vec![1.0; a.n()];
        assert!(matches!(
            solve_sparse(
                &a,
                &b,
                &SolverConfig::new()
                    .preconditioner(Precond::Multigrid)
                    .grid_dims((4, 4, 5))
            ),
            Err(SolverError::InvalidInput { .. })
        ));
        assert!(matches!(
            solve_sparse(
                &a,
                &b,
                &SolverConfig::new()
                    .preconditioner(Precond::Multigrid)
                    .grid_dims((4, 4, 4))
                    .reorder(Reorder::Rcm)
            ),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn spectral_caches_are_reused_across_a_workspace_sweep() {
        let (nx, ny, nz) = (8, 8, 6);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let b = vec![1.0; n];
        let cfg = SolverConfig::new()
            .preconditioner(Precond::Multigrid)
            .grid_dims((nx, ny, nz))
            .tolerance(1e-10);
        let mut ws = PcgWorkspace::new();
        let first = solve_sparse_with(&mut ws, &a, &b, &cfg).unwrap();
        assert!(!first.stats.spectral.unwrap().reused);
        let second = solve_sparse_with(&mut ws, &a, &b, &cfg).unwrap();
        assert!(second.stats.spectral.unwrap().reused);
        for (p, q) in first.x.iter().zip(&second.x) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // Same story for the Chebyshev bounds cache.
        let cfg = SolverConfig::new()
            .preconditioner(Precond::Chebyshev(3))
            .tolerance(1e-10);
        let mut ws = PcgWorkspace::new();
        let first = solve_sparse_with(&mut ws, &a, &b, &cfg).unwrap();
        assert!(!first.stats.spectral.unwrap().reused);
        let second = solve_sparse_with(&mut ws, &a, &b, &cfg).unwrap();
        assert!(second.stats.spectral.unwrap().reused);
    }

    #[test]
    fn operator_path_rejects_spectral_preconditioners() {
        struct Op(CsrMatrix);
        impl LinearOperator for Op {
            fn dim(&self) -> usize {
                self.0.n()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.0.spmv_into(x, y, 1);
            }
            fn diagonal(&self) -> Vec<f64> {
                self.0.diag()
            }
        }
        let op = Op(laplacian(12));
        let b = vec![1.0; 12];
        for precond in [Precond::Chebyshev(3), Precond::Multigrid] {
            assert!(matches!(
                solve_operator(&op, &b, &SolverConfig::new().preconditioner(precond)),
                Err(SolverError::InvalidInput { .. })
            ));
        }
    }

    #[test]
    fn setup_and_iterate_seconds_partition_the_wall_time() {
        let a = laplacian(64);
        let b = vec![1.0; 64];
        let sol = solve_sparse(
            &a,
            &b,
            &SolverConfig::new().preconditioner(Precond::Chebyshev(3)),
        )
        .unwrap();
        let s = &sol.stats;
        assert!(s.setup_seconds >= 0.0 && s.iterate_seconds >= 0.0);
        let sum = s.setup_seconds + s.iterate_seconds;
        assert!((s.wall_time.as_secs_f64() - sum).abs() <= 1e-9 + 1e-6 * sum);
    }
}
