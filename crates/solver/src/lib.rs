//! Shared linear solver backend for the aeropack workspace.
//!
//! Every quantitative result of the reproduction — the three-level
//! thermal procedure, the Fig 10 ΔT-vs-power curves, the modal and PSD
//! qualification margins — bottoms out in a linear solve. This crate is
//! the single implementation both physics stacks (`aeropack-thermal`
//! and `aeropack-fem`) route through:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with multithreaded
//!   SpMV and parallel row-block assembly built on
//!   [`std::thread::scope`] (no external dependencies). Row
//!   partitioning keeps the result bitwise identical at any thread
//!   count.
//! * [`solve_sparse`] — preconditioned conjugate gradient with
//!   pluggable [`Precond::Jacobi`] / [`Precond::Ic0`] /
//!   [`Precond::Chebyshev`] / [`Precond::Multigrid`]
//!   preconditioners. IC(0) factors on the
//!   matrix's own sparsity pattern (with diagonal-shift breakdown
//!   fallback), caches the factor in the [`PcgWorkspace`] for reuse
//!   across a sweep, applies it through level-scheduled parallel
//!   triangular solves, and runs on a reverse Cuthill–McKee
//!   reordering of the system for better factor quality and
//!   locality. Multigrid builds a smoothed-
//!   aggregation hierarchy from [`SolverConfig::grid_dims`] with
//!   Galerkin coarse operators, Chebyshev smoothers and a dense
//!   Cholesky coarse solve; Chebyshev is its pure-algebraic fallback
//!   (power-method spectral bounds cached in the workspace). Large
//!   solves route SpMV through a cache-blocked SELL-style layout
//!   ([`SellMatrix`]).
//! * [`DenseCholesky`] / [`DenseLu`] — the dense direct factorisations
//!   behind resistive networks and the FEM eigen solvers, reachable
//!   through the same [`SolverConfig`] front door via [`solve_dense`].
//! * [`SolverStats`] — the observability layer: every solve returns a
//!   [`Solution`] carrying iteration counts, the residual history, the
//!   achieved tolerance and wall time, so experiment binaries can print
//!   convergence tables.
//!
//! # Example
//!
//! ```
//! use aeropack_solver::{CsrMatrix, Method, Precond, SolverConfig};
//!
//! // 1-D Laplacian chain with Dirichlet ends.
//! let n = 64;
//! let a = CsrMatrix::from_row_fn(n, 1, |i, row| {
//!     if i > 0 { row.push((i - 1, -1.0)); }
//!     row.push((i, 2.0));
//!     if i + 1 < n { row.push((i + 1, -1.0)); }
//! });
//! let cfg = SolverConfig::new()
//!     .method(Method::Pcg)
//!     .preconditioner(Precond::Ic0)
//!     .tolerance(1e-12);
//! let sol = aeropack_solver::solve_sparse(&a, &vec![1.0; n], &cfg).unwrap();
//! assert!(sol.stats.final_residual <= 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cheb;
mod config;
mod csr;
mod dense;
mod error;
mod fingerprint;
mod ic0;
mod mg;
mod pcg;
mod reorder;
mod stats;

pub use cheb::{estimate_dinv_spectrum, EigBounds};
pub use config::{Solution, SolverConfig};
pub use csr::{CsrMatrix, CsrPattern, SellMatrix};
pub use dense::{solve_dense, DenseCholesky, DenseLu};
pub use error::SolverError;
pub use fingerprint::Fingerprint;
pub use pcg::{
    solve_multi_rhs, solve_multi_rhs_with, solve_operator, solve_sparse, solve_sparse_into,
    solve_sparse_with, PcgWorkspace,
};
pub use reorder::{bandwidth, rcm_permutation};
pub use stats::{FactorStats, Method, Precond, SolverStats, SpectralStats};

/// A symmetric (or general) linear operator `y = A·x` — the
/// architectural seam the physics crates program against. Sparse
/// matrices, dense matrices and matrix-free stencils all implement it.
pub trait LinearOperator {
    /// Problem dimension `n` (the operator is `n × n`).
    fn dim(&self) -> usize;

    /// Computes `y = A·x`. Both slices have length [`dim`](Self::dim).
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// The matrix diagonal, used by the Jacobi preconditioner and for
    /// positivity screening of SPD systems.
    fn diagonal(&self) -> Vec<f64>;
}
