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
use crate::csr::{CsrMatrix, CsrPattern, SellMatrix};
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

/// `y = A·v` for the iteration matrix: through its cached SELL layout
/// when there is one, else plain CSR (bitwise identical either way).
#[derive(Clone, Copy)]
struct Spmv<'a> {
    csr: &'a CsrMatrix,
    sell: Option<&'a SellMatrix>,
    threads: usize,
}

impl Spmv<'_> {
    fn apply(&self, v: &[f64], y: &mut [f64]) {
        match self.sell {
            Some(s) => s.spmv_into(v, y, self.threads),
            None => self.csr.spmv_into(v, y, self.threads),
        }
    }
}

enum Preconditioner<'a> {
    None,
    Jacobi(&'a [f64]),
    /// The workspace's preconditioner slot; `steps` is the Chebyshev
    /// degree (unused by the other slot kinds).
    Cached {
        slot: &'a mut PrecondSlot,
        op: Spmv<'a>,
        diag: &'a [f64],
        steps: usize,
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
            Self::Cached {
                slot,
                op,
                diag,
                steps,
            } => {
                let threads = op.threads;
                let fine = |v: &[f64], y: &mut [f64]| op.apply(v, y);
                match slot {
                    PrecondSlot::Ic0(factor) => factor.apply(r, z, threads),
                    PrecondSlot::Chebyshev { low, high, work } => {
                        aeropack_obs::counter!("solver.cheb.applies");
                        cheb_apply(&fine, diag, *low, *high, *steps, r, z, work);
                    }
                    PrecondSlot::Multigrid { hier, .. } => hier.apply(&fine, r, z, threads),
                }
            }
        }
    }
}

/// How the matrix of a solve compares with the one the workspace
/// cache is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    /// Same pattern, same values: every cached slot is current.
    Same,
    /// Same pattern, new coefficients: slots refresh in place.
    NewValues,
    /// A different pattern, or nothing cached: slots are rebuilt.
    NewPattern,
}

/// The setup of the last IC(0), Chebyshev or multigrid solve. The kind
/// fixes the system it was built on — IC(0) factors the RCM-permuted
/// copy, Chebyshev and multigrid work on `a` itself — so a kind match
/// is also a match of the system.
#[derive(Debug, Clone)]
enum PrecondSlot {
    Ic0(Box<Ic0Factor>),
    /// The safety-adjusted eigenvalue interval of `D⁻¹A` and the
    /// polynomial scratch.
    Chebyshev {
        low: f64,
        high: f64,
        work: ChebWork,
    },
    /// The hierarchy and the grid shape it coarsened.
    Multigrid {
        hier: MgHierarchy,
        dims: (usize, usize, usize),
    },
}

impl PrecondSlot {
    fn serves(&self, kind: Precond, dims: Option<(usize, usize, usize)>) -> bool {
        match (self, kind) {
            (Self::Ic0(_), Precond::Ic0) | (Self::Chebyshev { .. }, Precond::Chebyshev(_)) => true,
            (Self::Multigrid { dims: built, .. }, Precond::Multigrid) => Some(*built) == dims,
            _ => false,
        }
    }
}

/// The workspace's one cache, keyed on the input matrix `a`: its
/// pattern (held, so the index arrays the key points at cannot be
/// freed and reused by another matrix) and an exact snapshot of its
/// values. One comparison per solve ([`SolveCache::sync`]) drives three
/// slots: the RCM-permuted copy, the SELL layout and one
/// preconditioner setup. A slot is either empty or current for the
/// keyed matrix: a new pattern empties all three, and new values
/// refresh the slots the solve uses and drop the others.
#[derive(Debug, Clone, Default)]
struct SolveCache {
    pattern: Option<CsrPattern>,
    values: Vec<f64>,
    rcm: Option<PermutedSystem>,
    /// The SELL layout and whether it was built on the permuted copy.
    sell: Option<(SellMatrix, bool)>,
    precond: Option<PrecondSlot>,
}

impl SolveCache {
    /// Compares `a` with the key and moves the key to `a`.
    fn sync(&mut self, a: &CsrMatrix) -> Change {
        let pattern = a.pattern();
        if self.pattern.as_ref().map(CsrPattern::key) != Some(pattern.key()) {
            self.pattern = Some(pattern);
            self.values.clear();
            self.values.extend_from_slice(a.values());
            self.rcm = None;
            self.sell = None;
            self.precond = None;
            return Change::NewPattern;
        }
        if self.values.as_slice() == a.values() {
            return Change::Same;
        }
        self.values.copy_from_slice(a.values());
        Change::NewValues
    }
}

/// Reusable PCG scratch space: the residual/search/preconditioner
/// buffers, the screened diagonal, and one cache of what a solve sets
/// up from its matrix (RCM permutation, SELL layout, IC(0) factor,
/// Chebyshev bounds or multigrid hierarchy). Create one per solving
/// context (a sweep worker, a transient stepper) and pass it to
/// [`solve_sparse_with`] / [`solve_sparse_into`]; after the first solve
/// of a given size the buffers are warm and the iteration loop runs
/// without touching the allocator. The cache makes a power sweep over
/// one operator set up once and apply many times.
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
    cache: SolveCache,
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
/// the ones that need the explicit sparse storage.
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
    check_rhs_len(b, n)?;
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
    if precond_kind == Precond::Chebyshev(0) {
        return Err(SolverError::invalid(
            "Chebyshev step count must be at least 1",
        ));
    }
    let threads = cfg.get_threads();
    // RCM engages exactly under IC(0): it tightens the factor's
    // profile, and it would scramble the grid multigrid coarsens.
    let use_rcm = precond_kind == Precond::Ic0 && n > 1;
    let use_sell = n >= SELL_MIN_ROWS;
    let PcgWorkspace {
        r,
        z,
        p,
        ap,
        diag,
        history,
        bp,
        xp,
        cache,
    } = ws;
    let change = cache.sync(a);
    let SolveCache {
        rcm,
        sell,
        precond: slot,
        ..
    } = cache;
    if !use_rcm && change == Change::NewValues {
        *rcm = None;
    }
    if use_rcm {
        match rcm {
            Some(sys) if change == Change::NewValues => sys.refresh_values(a),
            Some(_) => {}
            None => {
                aeropack_obs::counter!("solver.rcm.reorders");
                *rcm = Some(PermutedSystem::build(a, rcm_permutation(&a.pattern())));
            }
        }
    }
    let sys: Option<&PermutedSystem> = if use_rcm { rcm.as_ref() } else { None };
    let system: &CsrMatrix = sys.map_or(a, PermutedSystem::matrix);
    if sys.is_some() {
        // Preconditioners act on the permuted operator.
        system.diag_into(diag);
    }
    // Blocked SpMV layout: the iteration operator (and the fine level
    // of the preconditioners) runs through the SELL re-layout above
    // the size threshold, bitwise identical to plain CSR.
    if use_sell {
        match sell {
            Some((s, permuted)) if *permuted == use_rcm => {
                if change == Change::NewValues {
                    s.refresh_values(system);
                }
            }
            _ => {
                aeropack_obs::counter!("solver.pcg.sell_builds");
                *sell = Some((SellMatrix::from_csr(system), use_rcm));
            }
        }
    }
    // Only a solve with `use_sell` can find a layout here: a new
    // pattern empties the slot, and the same pattern means the same n.
    let op = Spmv {
        csr: system,
        sell: sell.as_ref().map(|(s, _)| s),
        threads,
    };
    let (factorization, spectral) = match precond_kind {
        Precond::None | Precond::Jacobi => {
            if change == Change::NewValues {
                *slot = None;
            }
            (None, None)
        }
        kind => {
            // A slot of another kind (or a hierarchy of another grid
            // shape) is as stale as an empty one.
            let change = match slot {
                Some(s) if s.serves(kind, cfg.get_grid_dims()) => change,
                _ => Change::NewPattern,
            };
            sync_precond(slot, change, kind, op, use_rcm, cfg)?
        }
    };
    let mut precond = match precond_kind {
        Precond::None => Preconditioner::None,
        Precond::Jacobi => Preconditioner::Jacobi(diag),
        _ => Preconditioner::Cached {
            slot: slot.as_mut().expect("preconditioner slot synced above"),
            op,
            diag,
            steps: precond_kind.degree(),
        },
    };
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let (rhs, sol) = match sys {
        Some(sys) => {
            bp.resize(n, 0.0);
            xp.resize(n, 0.0);
            sys.permute_into(b, bp);
            (&bp[..], &mut xp[..])
        }
        None => (b, &mut *x),
    };
    let stats = pcg_loop(
        |v, y| op.apply(v, y),
        &mut precond,
        precond_kind,
        rhs,
        sol,
        (r, z, p, ap),
        history,
        cfg,
        n,
        (factorization, spectral, setup_seconds),
    )?;
    if let Some(sys) = sys {
        sys.scatter_back(xp, x);
    }
    Ok(stats)
}

fn check_rhs_len(b: &[f64], n: usize) -> Result<(), SolverError> {
    if b.len() == n {
        Ok(())
    } else {
        Err(SolverError::invalid(format!(
            "rhs length {} does not match n={n}",
            b.len()
        )))
    }
}

/// Brings the preconditioner slot in line with the iteration matrix
/// `op.csr` after `change`, which is [`Change::NewPattern`] whenever
/// the slot is empty or holds another kind, and returns this solve's
/// setup stats. A failed IC(0) refactor or multigrid build leaves the
/// slot empty, so the next solve rebuilds from scratch.
fn sync_precond(
    slot: &mut Option<PrecondSlot>,
    change: Change,
    kind: Precond,
    op: Spmv<'_>,
    reordered: bool,
    cfg: &SolverConfig,
) -> Result<(Option<FactorStats>, Option<SpectralStats>), SolverError> {
    let m = op.csr;
    let context = cfg.get_context();
    match kind {
        Precond::Ic0 => {
            if let (Change::Same, Some(PrecondSlot::Ic0(factor))) = (change, &*slot) {
                aeropack_obs::counter!("solver.ic0.factor_reuses");
                let mut stats = factor_stats(factor, Duration::ZERO, reordered);
                stats.reused = true;
                return Ok((Some(stats), None));
            }
            let t0 = Instant::now();
            let singular = |_| SolverError::Singular { context };
            let (factor, retries) = match slot.take() {
                Some(PrecondSlot::Ic0(mut factor)) => {
                    let retries = factor.refactor(m).map_err(singular)?;
                    (factor, retries)
                }
                _ => {
                    let (factor, retries) = Ic0Factor::new(m).map_err(singular)?;
                    (Box::new(factor), retries)
                }
            };
            let elapsed = t0.elapsed();
            aeropack_obs::counter!("solver.ic0.factorizations");
            aeropack_obs::counter!("solver.ic0.fill_nnz", factor.fill_nnz());
            if retries > 0 {
                aeropack_obs::counter!("solver.ic0.shift_retries", retries);
            }
            aeropack_obs::histogram!("solver.ic0.factor_seconds", elapsed.as_secs_f64());
            aeropack_obs::histogram!("solver.ic0.levels", factor.forward_levels());
            let stats = factor_stats(&factor, elapsed, reordered);
            *slot = Some(PrecondSlot::Ic0(factor));
            Ok((Some(stats), None))
        }
        Precond::Chebyshev(steps) => {
            let reused = change == Change::Same;
            if reused {
                aeropack_obs::counter!("solver.cheb.reuses");
            } else {
                aeropack_obs::counter!("solver.cheb.setups");
                let bounds = estimate_bounds_with(
                    &|v: &[f64], y: &mut [f64]| op.apply(v, y),
                    &m.diag(),
                    POWER_ITERS,
                );
                // Overestimating the top of the spectrum is safe;
                // clipping it risks an indefinite polynomial. The lower
                // bound only trades smoothing for conditioning, so a
                // floor is enough.
                let high = bounds.high * EIG_HIGH_SAFETY;
                let low = (bounds.low * EIG_LOW_SAFETY).max(high * 1e-8);
                match slot {
                    Some(PrecondSlot::Chebyshev {
                        low: l, high: h, ..
                    }) if change == Change::NewValues => (*l, *h) = (low, high),
                    _ => {
                        *slot = Some(PrecondSlot::Chebyshev {
                            low,
                            high,
                            work: ChebWork::default(),
                        })
                    }
                }
            }
            let Some(PrecondSlot::Chebyshev { low, high, .. }) = *slot else {
                unreachable!("Chebyshev slot synced above")
            };
            Ok((
                None,
                Some(SpectralStats {
                    levels: 1,
                    smoother: "polynomial",
                    degree: steps,
                    eig_low: low,
                    eig_high: high,
                    coarse_unknowns: 0,
                    hierarchy_nnz: 0,
                    reused,
                    eig_bounds_time: Duration::ZERO,
                    prolongation_time: Duration::ZERO,
                    galerkin_time: Duration::ZERO,
                    coarse_factor_time: Duration::ZERO,
                }),
            ))
        }
        Precond::Multigrid => {
            // Value changes rebuild the whole hierarchy — the Galerkin
            // coarse operators and spectral bounds all depend on the
            // numeric content, and power sweeps that share matrix
            // values hit the reuse path anyway.
            if let (Change::Same, Some(PrecondSlot::Multigrid { hier, .. })) = (change, &*slot) {
                aeropack_obs::counter!("solver.mg.reuses");
                return Ok((None, Some(hier.spectral_stats(true))));
            }
            if change == Change::NewValues {
                aeropack_obs::counter!("solver.mg.rebuilds");
            }
            *slot = None;
            let dims = cfg.get_grid_dims().expect("grid dims validated above");
            let hier = MgHierarchy::build(m, dims, context)?;
            let stats = hier.spectral_stats(false);
            *slot = Some(PrecondSlot::Multigrid { hier, dims });
            Ok((None, Some(stats)))
        }
        Precond::None | Precond::Jacobi => unreachable!("{kind} keeps no slot"),
    }
}

fn factor_stats(factor: &Ic0Factor, factor_time: Duration, reordered: bool) -> FactorStats {
    FactorStats {
        factor_time,
        fill_nnz: factor.fill_nnz(),
        forward_levels: factor.forward_levels(),
        backward_levels: factor.backward_levels(),
        diagonal_shift: factor.shift(),
        reused: false,
        reordered,
    }
}

/// Solves the SPD system `A·x = b` for any [`LinearOperator`]
/// (matrix-free stencils included). Only [`Precond::None`] and
/// [`Precond::Jacobi`] work without explicit storage; the others are
/// rejected here — use [`solve_sparse`].
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
    check_rhs_len(b, n)?;
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
        kind => {
            return Err(SolverError::invalid(format!(
                "{kind} preconditioning needs explicit CSR storage (use solve_sparse)"
            )))
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
        for precond in [Precond::None, Precond::Jacobi, Precond::Ic0] {
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
    fn operator_path_rejects_ic0() {
        let a = laplacian(4);
        let cfg = SolverConfig::new().preconditioner(Precond::Ic0);
        assert!(matches!(
            solve_operator(&a, &[1.0; 4], &cfg),
            Err(SolverError::InvalidInput { .. })
        ));
    }

    #[test]
    fn ic0_converges_in_fewer_iterations_than_jacobi() {
        let n = 400;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let iters = |precond| {
            solve_sparse(&a, &b, &SolverConfig::new().preconditioner(precond))
                .unwrap()
                .stats
                .iterations
        };
        let (jacobi, ic0) = (iters(Precond::Jacobi), iters(Precond::Ic0));
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
        assert!(f1.reordered, "RCM engages with IC(0)");
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
        for precond in [Precond::None, Precond::Jacobi, Precond::Ic0] {
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
    fn solve_into_rejects_wrong_lengths() {
        let a = laplacian(5);
        let mut ws = PcgWorkspace::new();
        let mut x = vec![0.0; 4];
        assert!(matches!(
            solve_sparse_into(&mut ws, &a, &[1.0; 5], &mut x, &SolverConfig::new()),
            Err(SolverError::InvalidInput { .. })
        ));
        // A short or long right-hand side is an error on the permuted
        // IC(0) path too, not an out-of-bounds gather or a silently
        // ignored tail.
        let mut x = vec![0.0; 5];
        for b in [&[1.0; 4][..], &[1.0; 6][..]] {
            for precond in [Precond::Jacobi, Precond::Ic0] {
                let cfg = SolverConfig::new().preconditioner(precond);
                assert!(matches!(
                    solve_sparse_into(&mut ws, &a, b, &mut x, &cfg),
                    Err(SolverError::InvalidInput { .. })
                ));
            }
        }
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
    fn multigrid_rejects_wrong_dims() {
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

    /// One workspace cycles through every cached preconditioner kind
    /// and a same-pattern value change on a grid large enough for the
    /// SELL layout. Each solve must match a fresh workspace bit for bit,
    /// so no slot built on the permuted system is ever used on the
    /// natural one (or the reverse), and no slot outlives the values
    /// it was built from.
    #[test]
    fn one_cache_serves_every_kind_bitwise_like_fresh_workspaces() {
        let dims = (16, 10, 8);
        let a = poisson3d(dims.0, dims.1, dims.2);
        let n = a.n();
        assert!(n >= SELL_MIN_ROWS);
        let scaled = CsrMatrix::from_pattern_row_fn(&a.pattern(), 1, |i, row| {
            for idx in a.row_offsets()[i]..a.row_offsets()[i + 1] {
                row.push((a.col_indices()[idx], 1.5 * a.values()[idx]));
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin() + 1.5).collect();
        let cheb = Precond::Chebyshev(3);
        // The same rows declared as another grid shape: a hierarchy
        // coarsened for one shape must not serve the other.
        let other = (dims.1, dims.0, dims.2);
        let steps = [
            (&a, Precond::Ic0, dims, Some(false)),
            (&a, Precond::Ic0, dims, Some(true)),
            (&a, Precond::Multigrid, dims, Some(false)),
            (&a, Precond::Multigrid, dims, Some(true)),
            (&a, Precond::Multigrid, other, Some(false)),
            (&a, Precond::Multigrid, dims, Some(false)),
            (&a, Precond::Jacobi, dims, None),
            (&a, cheb, dims, Some(false)),
            (&a, cheb, dims, Some(true)),
            (&a, Precond::Ic0, dims, Some(false)),
            (&scaled, Precond::Multigrid, dims, Some(false)),
            (&scaled, Precond::Ic0, dims, Some(false)),
            (&a, Precond::Jacobi, dims, None),
            (&a, Precond::Ic0, dims, Some(false)),
            (&a, Precond::Ic0, dims, Some(true)),
        ];
        let mut ws = PcgWorkspace::new();
        for (k, &(m, precond, dims, reused)) in steps.iter().enumerate() {
            let cfg = SolverConfig::new()
                .preconditioner(precond)
                .grid_dims(dims)
                .tolerance(1e-10);
            let fresh = solve_sparse(m, &b, &cfg).unwrap();
            let warm = solve_sparse_with(&mut ws, m, &b, &cfg).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fresh.x), bits(&warm.x), "step {k}: {precond}");
            let s = &warm.stats;
            let flag = s
                .factorization
                .map(|f| f.reused)
                .or(s.spectral.map(|f| f.reused));
            assert_eq!(flag, reused, "step {k}: {precond}");
        }
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
