//! The solver front door: a builder-style configuration and the
//! solution-with-stats return type.

use crate::stats::{Method, Precond, SolverStats};

/// Configuration for a linear solve, built fluently:
///
/// ```
/// use aeropack_solver::{Method, Precond, SolverConfig};
///
/// let cfg = SolverConfig::new()
///     .method(Method::Pcg)
///     .preconditioner(Precond::Ic0)
///     .tolerance(1e-11)
///     .threads(4);
/// assert_eq!(cfg.get_threads(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    method: Method,
    precond: Precond,
    tolerance: f64,
    max_iterations: Option<usize>,
    threads: usize,
    context: &'static str,
    record_history: bool,
    grid_dims: Option<(usize, usize, usize)>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            method: Method::Pcg,
            precond: Precond::Jacobi,
            tolerance: 1e-11,
            max_iterations: None,
            threads: 1,
            context: "linear solve",
            record_history: true,
            grid_dims: None,
        }
    }
}

impl SolverConfig {
    /// The default configuration: PCG with Jacobi preconditioning,
    /// relative tolerance `1e-11`, one thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the solution method.
    #[must_use]
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Selects the preconditioner for iterative methods.
    #[must_use]
    pub fn preconditioner(mut self, precond: Precond) -> Self {
        self.precond = precond;
        self
    }

    /// Sets the relative residual tolerance `‖b − A·x‖ ≤ tol·‖b‖`.
    #[must_use]
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Caps the iteration budget (the default scales with the problem
    /// size: `40·max(n, 100)`).
    #[must_use]
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Sets the number of worker threads for the sparse kernels. Row
    /// partitioning keeps results bitwise identical at any count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Tags the solve for error messages and stats lines.
    #[must_use]
    pub fn context(mut self, context: &'static str) -> Self {
        self.context = context;
        self
    }

    /// Enables or disables per-iteration residual recording (on by
    /// default). Disabling it keeps
    /// [`SolverStats::residual_history`](crate::SolverStats) empty and
    /// makes warm-workspace solves fully allocation-free — the mode
    /// sweep engines run in.
    #[must_use]
    pub fn record_history(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// The configured method.
    pub fn get_method(&self) -> Method {
        self.method
    }

    /// The configured preconditioner.
    pub fn get_preconditioner(&self) -> Precond {
        self.precond
    }

    /// The configured relative tolerance.
    pub fn get_tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The iteration budget for a problem of size `n`.
    pub fn iteration_budget(&self, n: usize) -> usize {
        self.max_iterations.unwrap_or(40 * n.max(100))
    }

    /// The configured thread count (≥ 1).
    pub fn get_threads(&self) -> usize {
        self.threads
    }

    /// The context tag.
    pub fn get_context(&self) -> &'static str {
        self.context
    }

    /// Whether per-iteration residuals are recorded into the stats.
    pub fn get_record_history(&self) -> bool {
        self.record_history
    }

    /// Declares the structured-grid shape `(nx, ny, nz)` behind the
    /// matrix (row index `i = ix + nx·(iy + ny·iz)`), which lets
    /// [`Precond::Multigrid`] build its geometric coarsening hierarchy.
    /// The thermal finite-volume models inject their grid shape
    /// automatically; matrix-free callers set it by hand. Without it,
    /// `Precond::Multigrid` falls back to Chebyshev polynomial
    /// preconditioning.
    #[must_use]
    pub fn grid_dims(mut self, dims: (usize, usize, usize)) -> Self {
        self.grid_dims = Some(dims);
        self
    }

    /// The declared structured-grid shape, if any.
    pub fn get_grid_dims(&self) -> Option<(usize, usize, usize)> {
        self.grid_dims
    }
}

/// A solved system: the solution vector plus the statistics of the
/// solve that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The solution vector `x` of `A·x = b`.
    pub x: Vec<f64>,
    /// How the solve went.
    pub stats: SolverStats,
}
