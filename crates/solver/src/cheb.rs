//! Chebyshev polynomial preconditioning and power-method eigenvalue
//! estimation for the Jacobi-scaled operator `D⁻¹A`.
//!
//! The Chebyshev preconditioner applies a fixed polynomial `q(D⁻¹A)`
//! chosen to approximate the inverse over a target eigenvalue interval
//! `[λ_lo, λ_hi]`. Unlike IC(0) it needs **no triangular
//! solves** — each step is one SpMV plus elementwise work — so its
//! application has no sequential dependency and parallelises exactly
//! like the SpMV kernel, staying bitwise identical at any thread
//! count. The same routine doubles as the multigrid smoother, where
//! the target interval covers only the upper (oscillatory) part of the
//! spectrum.
//!
//! The interval comes from a few power-method iterations on `D⁻¹A`
//! (Rayleigh quotients in the `D`-weighted inner product, where the
//! scaled operator is symmetric), run once at setup and cached in the
//! [`PcgWorkspace`](crate::PcgWorkspace). Safety factors inflate the
//! upper bound — the polynomial stays positive on `(0, λ_hi]`, so an
//! *over*-estimated interval only degrades convergence slightly, while
//! an under-estimated `λ_hi` could make the even-degree polynomial
//! change sign beyond it and break positive definiteness.

use crate::csr::CsrMatrix;

/// Safety inflation applied to the power-method estimate of the
/// largest eigenvalue before it is used as the Chebyshev interval top.
pub(crate) const EIG_HIGH_SAFETY: f64 = 1.1;
/// Safety deflation applied to the smallest-eigenvalue estimate.
pub(crate) const EIG_LOW_SAFETY: f64 = 0.9;
/// Power-method iterations run at preconditioner setup.
pub(crate) const POWER_ITERS: usize = 12;
/// Chebyshev step count used when [`Precond::Multigrid`]
/// (crate::Precond::Multigrid) falls back to the polynomial
/// preconditioner on matrices with no declared grid shape.
pub(crate) const FALLBACK_CHEB_STEPS: usize = 4;

/// An estimated eigenvalue interval of the Jacobi-scaled operator
/// `D⁻¹A`, as returned by [`estimate_dinv_spectrum`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigBounds {
    /// Smallest-eigenvalue estimate (power method on the shifted
    /// operator `λ_hi·I − D⁻¹A`).
    pub low: f64,
    /// Largest-eigenvalue estimate (raw Rayleigh quotient, no safety
    /// factor applied).
    pub high: f64,
}

/// Deterministic pseudo-random start vector for the power method: a
/// SplitMix64-style bit mix of the index, mapped to `[-0.5, 0.5)`.
/// Mixed signs and no structure keep the overlap with every
/// eigenvector generic, and determinism keeps solves reproducible.
fn seed_into(v: &mut [f64]) {
    for (i, vi) in v.iter_mut().enumerate() {
        let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        *vi = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        let inv = 1.0 / norm;
        for x in v.iter_mut() {
            *x *= inv;
        }
    }
}

/// `D`-weighted Rayleigh quotient `(v, w)_D / (v, v)_D` where
/// `w = B·v` — the Rayleigh quotient of the symmetrised scaled
/// operator `D^{-1/2} A D^{-1/2}`.
fn rayleigh(diag: &[f64], v: &[f64], w: &[f64]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..v.len() {
        num += diag[i] * v[i] * w[i];
        den += diag[i] * v[i] * v[i];
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Power-method estimate of the extreme eigenvalues of `D⁻¹A`, for any
/// operator given as an apply closure. Runs `iters` iterations for the
/// top of the spectrum, then `iters` more on the shifted operator
/// `λ_hi·I − D⁻¹A` for the bottom. Allocates its own scratch — this is
/// a setup-phase routine; the result is cached by the callers.
pub(crate) fn estimate_bounds_with<F>(apply: &F, diag: &[f64], iters: usize) -> EigBounds
where
    F: Fn(&[f64], &mut [f64]),
{
    let n = diag.len();
    if n == 0 {
        return EigBounds {
            low: 1.0,
            high: 1.0,
        };
    }
    let mut v = vec![0.0; n];
    let mut w = vec![0.0; n];
    seed_into(&mut v);
    normalize(&mut v);
    let mut high = 1.0;
    for _ in 0..iters {
        apply(&v, &mut w);
        for i in 0..n {
            w[i] /= diag[i];
        }
        high = rayleigh(diag, &v, &w);
        std::mem::swap(&mut v, &mut w);
        normalize(&mut v);
    }
    aeropack_obs::counter!("solver.cheb.power_iterations", iters);
    // Bottom of the spectrum: power method on `s·I − B` whose top
    // eigenvalue is `s − λ_min`. The shift `s` is the (possibly
    // slightly low) λ_max estimate — eigenvalues marginally above it
    // contribute tiny magnitudes and do not disturb the dominance of
    // `s − λ_min`.
    let s = high;
    seed_into(&mut v);
    normalize(&mut v);
    let mut shifted_top = 0.0;
    for _ in 0..iters {
        apply(&v, &mut w);
        for i in 0..n {
            w[i] = s * v[i] - w[i] / diag[i];
        }
        shifted_top = rayleigh(diag, &v, &w);
        std::mem::swap(&mut v, &mut w);
        normalize(&mut v);
    }
    aeropack_obs::counter!("solver.cheb.power_iterations", iters);
    let low = (s - shifted_top).max(0.0);
    EigBounds { low, high }
}

/// Power-method estimate of the eigenvalue interval of `D⁻¹A` for a
/// sparse matrix: `iters` iterations for each end of the spectrum
/// (Rayleigh quotients in the `D`-weighted inner product). The
/// estimates are *raw* — the preconditioner setup applies its own
/// safety factors on top. Deterministic: the start vector is a fixed
/// hash of the index.
///
/// # Panics
///
/// Panics if the matrix has a non-positive diagonal entry.
pub fn estimate_dinv_spectrum(a: &CsrMatrix, iters: usize) -> EigBounds {
    let diag = a.diag();
    assert!(
        diag.iter().all(|&d| d > 0.0),
        "power-method spectrum estimation needs a positive diagonal"
    );
    estimate_bounds_with(&|x, y| a.spmv_into(x, y, 1), &diag, iters)
}

/// Reusable scratch of one Chebyshev application: the scaled residual,
/// the direction and the SpMV output buffer. Held by the workspace
/// cache (preconditioner) or per multigrid level (smoother) so warm
/// applications are allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChebWork {
    rs: Vec<f64>,
    d: Vec<f64>,
    w: Vec<f64>,
}

impl ChebWork {
    pub(crate) fn ensure(&mut self, n: usize) {
        self.rs.resize(n, 0.0);
        self.d.resize(n, 0.0);
        self.w.resize(n, 0.0);
    }
}

/// Runs `steps` Chebyshev steps for `A·x ≈ r` from a zero initial
/// guess, over the Jacobi-scaled operator `B = D⁻¹A` with target
/// interval `[low, high]` (Saad, *Iterative Methods*, Alg. 12.1, in
/// scaled-residual form). `x` is overwritten with the polynomial
/// application `q(B)·D⁻¹·r`; the map is linear, symmetric and positive
/// definite, which is what PCG requires of a preconditioner. Costs
/// `steps − 1` SpMVs plus elementwise work; no triangular solves.
///
/// Allocation-free once `work` is warm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cheb_apply<F>(
    apply: &F,
    diag: &[f64],
    low: f64,
    high: f64,
    steps: usize,
    r: &[f64],
    x: &mut [f64],
    work: &mut ChebWork,
) where
    F: Fn(&[f64], &mut [f64]),
{
    let n = r.len();
    work.ensure(n);
    let ChebWork { rs, d, w } = work;
    let theta = 0.5 * (high + low);
    let delta = 0.5 * (high - low);
    // Degenerate interval (λ_lo = λ_hi, e.g. an identity-like
    // operator): one exact scaled-Jacobi step.
    if delta <= 0.0 || steps <= 1 {
        for i in 0..n {
            x[i] = r[i] / (diag[i] * theta);
        }
        return;
    }
    let sigma1 = theta / delta;
    let mut rho = 1.0 / sigma1;
    for i in 0..n {
        rs[i] = r[i] / diag[i];
        d[i] = rs[i] / theta;
        x[i] = d[i];
    }
    for _ in 1..steps {
        apply(d, w);
        for i in 0..n {
            rs[i] -= w[i] / diag[i];
        }
        let rho_new = 1.0 / (2.0 * sigma1 - rho);
        let a_coef = rho_new * rho;
        let b_coef = 2.0 * rho_new / delta;
        for i in 0..n {
            d[i] = a_coef * d[i] + b_coef * rs[i];
            x[i] += d[i];
        }
        rho = rho_new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> CsrMatrix {
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
    fn power_method_recovers_tridiagonal_spectrum() {
        // For tridiag(-1, 2, -1) the scaled operator D⁻¹A has the
        // analytic spectrum λ_k = 1 − cos(kπ/(n+1)), k = 1..n.
        let n = 16;
        let a = tridiag(n);
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let exact_low = 1.0 - h.cos();
        let exact_high = 1.0 - (n as f64 * h).cos();
        let est = estimate_dinv_spectrum(&a, 120);
        assert!(
            (est.high - exact_high).abs() <= 0.02 * exact_high,
            "λ_max estimate {} vs analytic {exact_high}",
            est.high
        );
        assert!(
            (est.low - exact_low).abs() <= 0.15 * exact_low + 1e-12,
            "λ_min estimate {} vs analytic {exact_low}",
            est.low
        );
        // The production safety factors must bracket the spectrum.
        assert!(est.high * EIG_HIGH_SAFETY >= exact_high);
        assert!(est.low * EIG_LOW_SAFETY <= exact_low);
    }

    #[test]
    fn power_method_is_deterministic() {
        let a = tridiag(33);
        let e1 = estimate_dinv_spectrum(&a, 20);
        let e2 = estimate_dinv_spectrum(&a, 20);
        assert_eq!(e1.high.to_bits(), e2.high.to_bits());
        assert_eq!(e1.low.to_bits(), e2.low.to_bits());
    }

    #[test]
    fn cheb_apply_reduces_error_with_degree() {
        // Higher-degree polynomials approximate A⁻¹ better: the
        // residual of x_k = q_k(B) D⁻¹ r must shrink as k grows.
        let n = 32;
        let a = tridiag(n);
        let diag = a.diag();
        let bounds = estimate_dinv_spectrum(&a, 60);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.2).collect();
        let apply = |x: &[f64], y: &mut [f64]| a.spmv_into(x, y, 1);
        let mut work = ChebWork::default();
        let mut last = f64::INFINITY;
        for steps in [1, 3, 6, 12] {
            let mut x = vec![0.0; n];
            cheb_apply(
                &apply,
                &diag,
                bounds.low * EIG_LOW_SAFETY,
                bounds.high * EIG_HIGH_SAFETY,
                steps,
                &r,
                &mut x,
                &mut work,
            );
            let mut ax = vec![0.0; n];
            a.spmv_into(&x, &mut ax, 1);
            let resid = r
                .iter()
                .zip(&ax)
                .map(|(b, y)| (b - y) * (b - y))
                .sum::<f64>()
                .sqrt();
            assert!(resid < last, "steps={steps}: residual {resid} vs {last}");
            last = resid;
        }
    }
}
