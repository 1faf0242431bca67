//! Solve observability: method/preconditioner tags and per-solve
//! statistics.

use std::fmt;
use std::time::Duration;

/// The solution method behind a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Preconditioned conjugate gradient (SPD systems).
    Pcg,
    /// Dense Cholesky factorisation (SPD systems).
    Cholesky,
    /// Dense LU factorisation with partial pivoting (general systems).
    Lu,
    /// Scalar bisection (used by the nonlinear operating-point solvers
    /// — rack flow, SEB balance — for their stats reporting).
    Bisection,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Pcg => "PCG",
            Self::Cholesky => "Cholesky",
            Self::Lu => "LU",
            Self::Bisection => "bisection",
        })
    }
}

/// Preconditioner applied inside the iterative methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precond {
    /// No preconditioning.
    None,
    /// Diagonal (Jacobi) scaling.
    Jacobi,
    /// Incomplete Cholesky IC(0): a sparse factorisation on the matrix's
    /// own sparsity pattern, applied as forward/backward triangular
    /// solves. Requires explicit sparse storage; the factor is cached in
    /// the [`PcgWorkspace`](crate::PcgWorkspace) and reused across
    /// solves of the same matrix (a power sweep factors once and applies
    /// many times). The system is RCM-reordered first, for a tighter
    /// factor profile and shallower triangular-solve levels.
    Ic0,
    /// `k`-step Chebyshev polynomial preconditioning on the
    /// Jacobi-scaled operator `D⁻¹A`. Purely algebraic — only SpMV and
    /// diagonal scaling, no triangular solves, so the application
    /// parallelises with no sequential dependency at all. The spectral
    /// bounds are estimated by a few power-method iterations and cached
    /// in the [`PcgWorkspace`](crate::PcgWorkspace). `k` must be ≥ 1
    /// (`k = 1` degenerates to damped Jacobi).
    Chebyshev(usize),
    /// Geometric multigrid V-cycle built from the structured-grid shape
    /// declared via
    /// [`SolverConfig::grid_dims`](crate::SolverConfig::grid_dims):
    /// 2×2×2 cell aggregation with smoothed prolongation, Galerkin
    /// coarse operators, Chebyshev smoothing and a dense Cholesky
    /// coarse solve. Iteration counts become essentially
    /// mesh-independent. When no grid shape is available (FEM /
    /// unstructured matrices) the solve falls back to
    /// [`Precond::Chebyshev`] automatically. The hierarchy is cached in
    /// the [`PcgWorkspace`](crate::PcgWorkspace).
    Multigrid,
}

impl Precond {
    /// A stable small-integer code for fingerprinting and wire formats.
    /// The values are the historical enum discriminants; code 2 (the
    /// removed SSOR variant) stays unused, so fingerprints of the
    /// remaining variants never move.
    pub fn code(self) -> u8 {
        match self {
            Self::None => 0,
            Self::Jacobi => 1,
            Self::Ic0 => 3,
            Self::Chebyshev(_) => 4,
            Self::Multigrid => 5,
        }
    }

    /// The data payload of the data-carrying variant — the polynomial
    /// step count for [`Precond::Chebyshev`] — and 0 for every other
    /// variant (a fingerprint companion to [`Precond::code`]).
    pub fn degree(self) -> usize {
        match self {
            Self::Chebyshev(k) => k,
            _ => 0,
        }
    }
}

impl fmt::Display for Precond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::None => f.write_str("none"),
            Self::Jacobi => f.write_str("Jacobi"),
            Self::Ic0 => f.write_str("IC(0)"),
            Self::Chebyshev(k) => write!(f, "Chebyshev({k})"),
            Self::Multigrid => f.write_str("MG"),
        }
    }
}

/// Setup-phase statistics of a factorisation-based preconditioner
/// (IC(0)): what the factorisation cost, how it was scheduled and
/// whether this solve could reuse a cached factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorStats {
    /// Wall time of the numeric factorisation (zero when `reused`).
    pub factor_time: Duration,
    /// Stored non-zeros in the triangular factor.
    pub fill_nnz: usize,
    /// Dependency levels of the forward (lower) triangular solve — the
    /// parallelism ceiling of the level-scheduled application.
    pub forward_levels: usize,
    /// Dependency levels of the backward (upper) triangular solve.
    pub backward_levels: usize,
    /// Diagonal shift `α` applied on breakdown (`A + α·diag(A)`); 0 for
    /// a clean factorisation.
    pub diagonal_shift: f64,
    /// Whether the workspace's cached factor was reused (no numeric
    /// factorisation ran for this solve).
    pub reused: bool,
    /// Whether the system was RCM-reordered before factorisation.
    pub reordered: bool,
}

/// Setup-phase statistics of the spectral preconditioners (Chebyshev
/// polynomial and multigrid): the estimated eigenvalue interval, the
/// hierarchy shape and whether the cached setup was reused. The bench
/// JSON surfaces these as the smoother/level/eig-bound metadata of the
/// `fv_large` rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralStats {
    /// Grid levels in the multigrid hierarchy (1 for Chebyshev — the
    /// fine level only).
    pub levels: usize,
    /// Smoother (multigrid) or polynomial (Chebyshev) family tag.
    pub smoother: &'static str,
    /// Chebyshev step count: the polynomial steps per application
    /// (Chebyshev preconditioner) or per smoothing pass (multigrid).
    pub degree: usize,
    /// Lower edge of the target eigenvalue interval of the
    /// Jacobi-scaled fine operator `D⁻¹A`.
    pub eig_low: f64,
    /// Upper edge of the target eigenvalue interval (power-method
    /// estimate with a safety factor).
    pub eig_high: f64,
    /// Unknowns on the coarsest multigrid level (0 for Chebyshev).
    pub coarse_unknowns: usize,
    /// Stored non-zeros across all coarse-level operators and transfer
    /// operators (0 for Chebyshev).
    pub hierarchy_nnz: usize,
    /// Whether the workspace's cached setup (bounds or hierarchy) was
    /// reused — no power iterations or Galerkin products ran.
    pub reused: bool,
    /// Multigrid setup time spent in the power-method eigenvalue
    /// bounds, summed over levels. This and the three phase times
    /// below are measured only while observability is enabled
    /// (`aeropack_obs::enabled()`); they read zero otherwise, when the
    /// setup was reused, and for Chebyshev.
    pub eig_bounds_time: Duration,
    /// Multigrid setup time spent aggregating and building the
    /// Jacobi-smoothed prolongations, summed over levels.
    pub prolongation_time: Duration,
    /// Multigrid setup time spent in the Galerkin products
    /// `Pᵀ·A·P`, summed over levels.
    pub galerkin_time: Duration,
    /// Multigrid setup time spent assembling and factoring the dense
    /// coarsest-level operator.
    pub coarse_factor_time: Duration,
}

/// Statistics of one solve: what ran, how hard it worked and how well
/// it converged. Returned inside every [`Solution`](crate::Solution)
/// and cached by the model types behind their `last_solve_stats()`
/// accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverStats {
    /// What was being solved (human-readable tag).
    pub context: &'static str,
    /// The method that ran.
    pub method: Method,
    /// The preconditioner that actually **ran** — after automatic
    /// resolution, so a [`Precond::Multigrid`] request without grid
    /// dims reports the Chebyshev fallback here.
    pub preconditioner: Precond,
    /// The preconditioner the configuration **asked for**, before any
    /// automatic fallback or resolution. Equal to `preconditioner`
    /// when no substitution happened.
    pub requested_preconditioner: Precond,
    /// Number of unknowns.
    pub unknowns: usize,
    /// Worker threads used by the kernels.
    pub threads: usize,
    /// Iterations performed (0 for direct factorisations).
    pub iterations: usize,
    /// Relative residual after each iteration (empty for direct
    /// methods).
    pub residual_history: Vec<f64>,
    /// Achieved relative residual `‖b − A·x‖ / ‖b‖`.
    pub final_residual: f64,
    /// The tolerance that was requested.
    pub tolerance: f64,
    /// Wall-clock time of the solve (setup + iteration).
    pub wall_time: Duration,
    /// Wall-clock seconds of the preconditioner setup phase: diagonal
    /// screening, reordering, IC(0) factorisation, eigenvalue
    /// estimation, multigrid hierarchy construction. Near zero when the
    /// workspace caches hit.
    pub setup_seconds: f64,
    /// Wall-clock seconds of the iteration loop itself (the PCG
    /// iterations, or the whole factor-solve for direct methods).
    pub iterate_seconds: f64,
    /// Setup-phase detail for factorisation-based preconditioners
    /// (IC(0)); `None` for preconditioners with no setup phase.
    pub factorization: Option<FactorStats>,
    /// Setup-phase detail for the spectral preconditioners (Chebyshev /
    /// multigrid); `None` otherwise.
    pub spectral: Option<SpectralStats>,
}

impl SolverStats {
    /// Stats skeleton for a direct (non-iterative) solve.
    pub fn direct(
        context: &'static str,
        method: Method,
        unknowns: usize,
        final_residual: f64,
        wall_time: Duration,
    ) -> Self {
        Self {
            context,
            method,
            preconditioner: Precond::None,
            requested_preconditioner: Precond::None,
            unknowns,
            threads: 1,
            iterations: 0,
            residual_history: Vec::new(),
            final_residual,
            tolerance: 0.0,
            wall_time,
            setup_seconds: 0.0,
            iterate_seconds: wall_time.as_secs_f64(),
            factorization: None,
            spectral: None,
        }
    }

    /// Whether the solve met its requested tolerance (direct solves
    /// report `true`).
    pub fn converged(&self) -> bool {
        self.iterations == 0 || self.final_residual <= self.tolerance
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({}) n={} threads={} iters={} residual={:.2e} in {:.2} ms",
            self.context,
            self.method,
            self.preconditioner,
            self.unknowns,
            self.threads,
            self.iterations,
            self.final_residual,
            self.wall_time.as_secs_f64() * 1e3,
        )
    }
}
