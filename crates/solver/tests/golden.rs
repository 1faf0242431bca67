//! Golden tests: PCG (every preconditioner) against dense Cholesky on
//! shared SPD fixtures, plus the threading determinism contract.

use aeropack_solver::{solve_dense, solve_sparse, CsrMatrix, Method, Precond, SolverConfig};

/// Deterministic LCG so fixtures are reproducible without external
/// dependencies.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// A diagonally dominant (hence SPD) banded fixture with pseudo-random
/// off-diagonal couplings, in both dense and CSR forms.
fn spd_fixture(n: usize, band: usize, seed: u64) -> (Vec<f64>, CsrMatrix, Vec<f64>) {
    let mut rng = Lcg(seed);
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..(i + band + 1).min(n) {
            let v = -rng.next_f64();
            dense[i * n + j] = v;
            dense[j * n + i] = v;
        }
    }
    for i in 0..n {
        let row_sum: f64 = (0..n)
            .filter(|&j| j != i)
            .map(|j| dense[i * n + j].abs())
            .sum();
        dense[i * n + i] = row_sum + 0.5 + rng.next_f64();
    }
    let csr = CsrMatrix::from_row_fn(n, 1, |i, row| {
        for j in 0..n {
            let v = dense[i * n + j];
            if v != 0.0 {
                row.push((j, v));
            }
        }
    });
    let b: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
    (dense, csr, b)
}

#[test]
fn pcg_matches_dense_cholesky_on_spd_fixtures() {
    for (n, band, seed) in [(30, 2, 1u64), (75, 4, 2), (120, 3, 3)] {
        let (dense, csr, b) = spd_fixture(n, band, seed);
        let chol = solve_dense(
            &dense,
            n,
            &b,
            &SolverConfig::new()
                .method(Method::Cholesky)
                .context("golden dense"),
        )
        .unwrap();
        let x_norm = chol.x.iter().map(|v| v * v).sum::<f64>().sqrt();
        for precond in [
            Precond::Jacobi,
            Precond::Ic0,
            Precond::Chebyshev(4),
            // No grid shape here, so this exercises the automatic
            // Multigrid → Chebyshev fallback against the same fixture.
            Precond::Multigrid,
        ] {
            let pcg = solve_sparse(
                &csr,
                &b,
                &SolverConfig::new()
                    .preconditioner(precond)
                    .tolerance(1e-12)
                    .context("golden pcg"),
            )
            .unwrap();
            let diff = chol
                .x
                .iter()
                .zip(&pcg.x)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(
                diff <= 1e-9 * x_norm.max(1.0),
                "n={n} {precond}: ‖Δx‖ = {diff:.3e}"
            );
        }
    }
}

#[test]
fn lu_agrees_with_cholesky_on_spd() {
    let (dense, _, b) = spd_fixture(40, 3, 9);
    let chol = solve_dense(
        &dense,
        40,
        &b,
        &SolverConfig::new().method(Method::Cholesky),
    )
    .unwrap();
    let lu = solve_dense(&dense, 40, &b, &SolverConfig::new().method(Method::Lu)).unwrap();
    for (a, b) in chol.x.iter().zip(&lu.x) {
        assert!((a - b).abs() < 1e-10);
    }
}

#[test]
fn threaded_spmv_and_assembly_are_deterministic() {
    let n = 64 * 64;
    let stencil = |i: usize, row: &mut Vec<(usize, f64)>| {
        let (x, y) = (i % 64, i / 64);
        let mut diag = 1e-3;
        let couple = |j: usize, g: f64, row: &mut Vec<(usize, f64)>, diag: &mut f64| {
            row.push((j, -g));
            *diag += g;
        };
        if x > 0 {
            couple(i - 1, 1.0 + (i as f64 * 0.01).sin().abs(), row, &mut diag);
        }
        if x + 1 < 64 {
            couple(
                i + 1,
                1.0 + ((i + 1) as f64 * 0.01).sin().abs(),
                row,
                &mut diag,
            );
        }
        if y > 0 {
            couple(i - 64, 2.0, row, &mut diag);
        }
        if y + 1 < 64 {
            couple(i + 64, 2.0, row, &mut diag);
        }
        row.push((i, diag));
    };
    let serial = CsrMatrix::from_row_fn(n, 1, stencil);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).cos()).collect();
    let y_serial = serial.spmv(&x);

    // threads(1): bitwise identical to the serial kernel.
    let mut y1 = vec![0.0; n];
    serial.spmv_into(&x, &mut y1, 1);
    assert_eq!(y_serial, y1);

    // threads(4): assembly and SpMV both row-partitioned → identical
    // layout and accumulation order, so well within the 1e-12 contract
    // (in fact bitwise equal).
    let par = CsrMatrix::from_row_fn(n, 4, stencil);
    assert_eq!(serial, par, "parallel assembly must match serial");
    let mut y4 = vec![0.0; n];
    par.spmv_into(&x, &mut y4, 4);
    for (a, b) in y_serial.iter().zip(&y4) {
        assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
    }
    assert_eq!(y_serial, y4);
}

#[test]
fn threaded_pcg_solution_is_identical() {
    let n = 900;
    let stencil = |i: usize, row: &mut Vec<(usize, f64)>| {
        let (x, y) = (i % 30, i / 30);
        let mut diag = 0.0;
        if x > 0 {
            row.push((i - 1, -1.0));
            diag += 1.0;
        }
        if x + 1 < 30 {
            row.push((i + 1, -1.0));
            diag += 1.0;
        }
        if y > 0 {
            row.push((i - 30, -1.0));
            diag += 1.0;
        }
        if y + 1 < 30 {
            row.push((i + 30, -1.0));
            diag += 1.0;
        }
        row.push((i, diag + 1.0));
    };
    let a = CsrMatrix::from_row_fn(n, 1, stencil);
    let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    for precond in [Precond::Jacobi, Precond::Ic0] {
        let s1 = solve_sparse(
            &a,
            &b,
            &SolverConfig::new()
                .preconditioner(precond)
                .threads(1)
                .tolerance(1e-12),
        )
        .unwrap();
        let s4 = solve_sparse(
            &a,
            &b,
            &SolverConfig::new()
                .preconditioner(precond)
                .threads(4)
                .tolerance(1e-12),
        )
        .unwrap();
        assert_eq!(s1.x, s4.x, "{precond}: PCG must be thread-count invariant");
        assert_eq!(s1.stats.iterations, s4.stats.iterations);
        assert_eq!(s4.stats.threads, 4);
    }
}

#[test]
fn rcm_reduces_bandwidth_of_a_grid_operator() {
    use aeropack_solver::{bandwidth, rcm_permutation};
    // A 2-D grid numbered row-major has bandwidth 30; RCM must not make
    // it worse, and on a scrambled numbering it must recover a tight
    // band. The permutation is also checked to be a bijection.
    let n = 900;
    let scramble = |i: usize| (i * 577) % n;
    let mut inv = vec![0usize; n];
    for i in 0..n {
        inv[scramble(i)] = i;
    }
    let a = CsrMatrix::from_row_fn(n, 1, |r, row| {
        let i = inv[r];
        let (x, y) = (i % 30, i / 30);
        row.push((r, 4.0));
        if x > 0 {
            row.push((scramble(i - 1), -1.0));
        }
        if x + 1 < 30 {
            row.push((scramble(i + 1), -1.0));
        }
        if y > 0 {
            row.push((scramble(i - 30), -1.0));
        }
        if y + 1 < 30 {
            row.push((scramble(i + 30), -1.0));
        }
    });
    let pattern = a.pattern();
    let before = bandwidth(&pattern);
    let perm = rcm_permutation(&pattern);
    let mut seen = vec![false; n];
    for &p in &perm {
        assert!(!seen[p], "permutation must be a bijection");
        seen[p] = true;
    }
    // Bandwidth of the permuted pattern, computed through the inverse.
    let mut new_of = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        new_of[old] = new;
    }
    let row_ptr = pattern.row_offsets();
    let cols = pattern.col_indices();
    let mut after = 0usize;
    for i in 0..n {
        for idx in row_ptr[i]..row_ptr[i + 1] {
            after = after.max(new_of[i].abs_diff(new_of[cols[idx]]));
        }
    }
    assert!(
        after * 4 < before,
        "RCM should sharply reduce the scrambled bandwidth: {before} -> {after}"
    );
    assert!(after <= 60, "a 30×30 grid should reorder to a tight band");
}
