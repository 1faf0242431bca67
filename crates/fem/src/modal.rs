//! Modal extraction by subspace iteration, and the modal data needed by
//! the response solvers.

use std::time::Instant;

use aeropack_solver::{Method, Precond, SolverStats};
use aeropack_units::{Frequency, Mass};

use crate::error::FemError;
use crate::linalg::{generalized_eigen_dense, Cholesky, DMatrix};
use crate::model::Model;

/// The result of a modal analysis: natural frequencies, mass-normalised
/// mode shapes and base-excitation participation factors.
#[derive(Debug, Clone)]
pub struct ModalResult {
    frequencies: Vec<Frequency>,
    /// Full-length mode shapes (zeros at constrained DOFs), one per mode.
    shapes: Vec<Vec<f64>>,
    /// Participation factor `Γᵢ = φᵢᵀ·M·r` for uniform base motion in w.
    participation: Vec<f64>,
    total_mass: Mass,
}

impl ModalResult {
    /// Natural frequencies, ascending.
    pub fn frequencies(&self) -> &[Frequency] {
        &self.frequencies
    }

    /// The fundamental (lowest) natural frequency.
    ///
    /// # Panics
    ///
    /// Panics if no modes were extracted (`modal` rejects that request).
    pub fn fundamental(&self) -> Frequency {
        self.frequencies[0]
    }

    /// Mass-normalised mode shape of mode `i` over all global DOFs.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range mode index.
    pub fn shape(&self, i: usize) -> Result<&[f64], FemError> {
        self.shapes
            .get(i)
            .map(|v| v.as_slice())
            .ok_or(FemError::IndexOutOfRange {
                what: "mode",
                index: i,
                len: self.shapes.len(),
            })
    }

    /// Participation factor of mode `i` for uniform base excitation in w.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range mode index.
    pub fn participation(&self, i: usize) -> Result<f64, FemError> {
        self.participation
            .get(i)
            .copied()
            .ok_or(FemError::IndexOutOfRange {
                what: "mode",
                index: i,
                len: self.participation.len(),
            })
    }

    /// Effective modal mass of mode `i` (`Γᵢ²` for mass-normalised
    /// shapes).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range mode index.
    pub fn effective_mass(&self, i: usize) -> Result<Mass, FemError> {
        Ok(Mass::new(self.participation(i)?.powi(2)))
    }

    /// Fraction of the total translational mass captured by the extracted
    /// modes — the usual completeness check before a response analysis.
    pub fn mass_capture(&self) -> f64 {
        let captured: f64 = self.participation.iter().map(|g| g * g).sum();
        captured / self.total_mass.value()
    }

    /// Number of extracted modes.
    pub fn mode_count(&self) -> usize {
        self.frequencies.len()
    }

    /// Total translational model mass.
    pub fn total_mass(&self) -> Mass {
        self.total_mass
    }
}

/// Extracts the `n_modes` lowest modes of a constrained model by subspace
/// iteration (Bathe's algorithm with a Rayleigh–Ritz projection per
/// sweep).
///
/// # Errors
///
/// Returns an error when `n_modes` is zero or exceeds the number of free
/// DOFs, when the model is under-constrained (singular stiffness), or
/// when the iteration fails to converge.
pub fn modal(model: &Model, n_modes: usize) -> Result<ModalResult, FemError> {
    let _span = aeropack_obs::span!("fem.modal", modes = n_modes);
    let (k, m, free) = model.reduced_system();
    let n = free.len();
    if n_modes == 0 {
        return Err(FemError::invalid("must request at least one mode"));
    }
    if n_modes > n {
        return Err(FemError::invalid(format!(
            "requested {n_modes} modes but only {n} free DOFs exist"
        )));
    }

    // For small systems, solve the dense generalised problem directly.
    let start = Instant::now();
    let (vals, vecs) = if n <= 60 {
        let (vals, vecs) = generalized_eigen_dense(&k, &m)?;
        aeropack_obs::counter!("fem.modal.dense_extractions");
        model.record_solve_stats(SolverStats::direct(
            "modal extraction (dense eigensolver)",
            Method::Cholesky,
            n,
            0.0,
            start.elapsed(),
        ));
        (vals, vecs)
    } else {
        let (vals, vecs, iterations) = subspace_iteration(&k, &m, n_modes)?;
        aeropack_obs::counter!("fem.modal.subspace_extractions");
        aeropack_obs::counter!("fem.modal.subspace_iterations", iterations);
        model.record_solve_stats(SolverStats {
            context: "modal extraction (subspace iteration)",
            method: Method::Cholesky,
            preconditioner: Precond::None,
            requested_preconditioner: Precond::None,
            unknowns: n,
            threads: 1,
            iterations,
            residual_history: Vec::new(),
            final_residual: 0.0,
            tolerance: 1e-10,
            wall_time: start.elapsed(),
            setup_seconds: 0.0,
            iterate_seconds: start.elapsed().as_secs_f64(),
            factorization: None,
            spectral: None,
        });
        (vals, vecs)
    };

    // Assemble full-length shapes and participation factors.
    let r = model.influence_vector();
    let m_full = model.mass();
    let mr = m_full.matvec(&r);
    let mut frequencies = Vec::with_capacity(n_modes);
    let mut shapes = Vec::with_capacity(n_modes);
    let mut participation = Vec::with_capacity(n_modes);
    for mode in 0..n_modes {
        let lambda = vals[mode];
        if lambda < -1e-6 {
            return Err(FemError::invalid(format!(
                "negative eigenvalue {lambda:.3e}: model is not positive semi-definite"
            )));
        }
        frequencies.push(Frequency::from_angular(lambda.max(0.0).sqrt()));
        let mut full = vec![0.0; model.dof_count()];
        for (ri, &gi) in free.iter().enumerate() {
            full[gi] = vecs[(ri, mode)];
        }
        let gamma: f64 = full.iter().zip(&mr).map(|(a, b)| a * b).sum();
        shapes.push(full);
        participation.push(gamma);
    }

    Ok(ModalResult {
        frequencies,
        shapes,
        participation,
        total_mass: model.total_mass(),
    })
}

/// Subspace iteration for the lowest `n_modes` of `K·x = λ·M·x`.
/// Returns eigenvalues ascending, M-orthonormal eigenvectors in the
/// first `n_modes` columns, and the number of sweeps it took.
fn subspace_iteration(
    k: &DMatrix,
    m: &DMatrix,
    n_modes: usize,
) -> Result<(Vec<f64>, DMatrix, usize), FemError> {
    let n = k.nrows();
    let p = (2 * n_modes).min(n_modes + 8).min(n);
    let chol = Cholesky::factor(k).map_err(|_| FemError::SingularMatrix {
        context: "stiffness factorisation (is the model fully constrained?)",
    })?;

    // Deterministic pseudo-random start vectors (simple LCG) so results
    // are reproducible run to run.
    let mut x = DMatrix::zeros(n, p);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for j in 0..p {
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
            x[(i, j)] = u - 0.5;
        }
    }

    let mut last = vec![f64::INFINITY; n_modes];
    for iter in 0..200 {
        // Y = M X;  Z = K⁻¹ Y.
        let y = m.matmul(&x);
        let mut z = DMatrix::zeros(n, p);
        for j in 0..p {
            let col = chol.solve(&y.column(j));
            z.set_column(j, &col);
        }
        // Projected matrices: Kr = Zᵀ K Z = Zᵀ Y,  Mr = Zᵀ M Z.
        let kr = z.t_matmul(&y);
        let mr = z.t_matmul(&m.matmul(&z));
        // Symmetrise round-off.
        let kr = symmetrize(kr);
        let mr = symmetrize(mr);
        let (vals, q) = generalized_eigen_dense(&kr, &mr)?;
        x = z.matmul(&q);

        let worst = (0..n_modes)
            .map(|i| ((vals[i] - last[i]) / vals[i].max(1e-300)).abs())
            .fold(0.0f64, f64::max);
        last[..n_modes].copy_from_slice(&vals[..n_modes]);
        if worst < 1e-10 && iter > 1 {
            return Ok((vals, x, iter + 1));
        }
    }
    Err(FemError::NotConverged {
        context: "subspace iteration",
        iterations: 200,
        residual: f64::NAN,
    })
}

fn symmetrize(mut a: DMatrix) -> DMatrix {
    let n = a.nrows();
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = avg;
            a[(j, i)] = avg;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::PlateProperties;
    use crate::model::{Dof, PlateMesh};
    use aeropack_materials::Material;
    use aeropack_units::Length;

    fn ss_square_plate(n: usize) -> PlateMesh {
        let props = PlateProperties::from_material(
            &Material::aluminum_6061(),
            Length::from_millimeters(2.0),
        )
        .unwrap();
        let mut mesh = PlateMesh::rectangular(0.3, 0.3, n, n, &props).unwrap();
        mesh.simply_support_edges().unwrap();
        mesh
    }

    /// Navier frequency of SS plate mode (m,n): ω = π²[(m/a)²+(n/b)²]√(D/ρh).
    fn navier_frequency(m: u32, n: u32, a: f64, b: f64, d: f64, rho_h: f64) -> f64 {
        let pi = std::f64::consts::PI;
        let omega =
            pi * pi * ((m as f64 / a).powi(2) + (n as f64 / b).powi(2)) * (d / rho_h).sqrt();
        omega / (2.0 * pi)
    }

    #[test]
    fn ss_plate_fundamental_matches_navier() {
        let props = PlateProperties::from_material(
            &Material::aluminum_6061(),
            Length::from_millimeters(2.0),
        )
        .unwrap();
        let mesh = ss_square_plate(6);
        let result = modal(&mesh.model, 4).unwrap();
        let exact = navier_frequency(1, 1, 0.3, 0.3, props.flexural_rigidity(), props.areal_mass);
        let got = result.fundamental().value();
        let rel = (got - exact).abs() / exact;
        assert!(
            rel < 0.04,
            "fundamental {got:.1} Hz vs Navier {exact:.1} Hz ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn ss_plate_higher_modes_match_navier() {
        let props = PlateProperties::from_material(
            &Material::aluminum_6061(),
            Length::from_millimeters(2.0),
        )
        .unwrap();
        let mesh = ss_square_plate(8);
        let result = modal(&mesh.model, 4).unwrap();
        let d = props.flexural_rigidity();
        let rh = props.areal_mass;
        // Modes (1,2) and (2,1) are degenerate; (2,2) is fourth.
        let f12 = navier_frequency(1, 2, 0.3, 0.3, d, rh);
        let f22 = navier_frequency(2, 2, 0.3, 0.3, d, rh);
        let got12 = result.frequencies()[1].value();
        let got22 = result.frequencies()[3].value();
        assert!((got12 - f12).abs() / f12 < 0.06, "{got12} vs {f12}");
        assert!((got22 - f22).abs() / f22 < 0.08, "{got22} vs {f22}");
    }

    #[test]
    fn frequencies_are_sorted_ascending() {
        let mesh = ss_square_plate(6);
        let result = modal(&mesh.model, 6).unwrap();
        let f = result.frequencies();
        for w in f.windows(2) {
            assert!(w[0].value() <= w[1].value() + 1e-9);
        }
    }

    #[test]
    fn fundamental_mode_captures_most_mass() {
        let mesh = ss_square_plate(6);
        let result = modal(&mesh.model, 1).unwrap();
        // The (1,1) mode of an SS plate captures ~70 % of the mass
        // (analytic value for a beam is 81 %, plate slightly less... for
        // a plate, (16/π²)²/4 ≈ 0.66 of ρab per (1,1) mode).
        let capture = result.mass_capture();
        assert!(capture > 0.5 && capture < 0.9, "mass capture {capture}");
    }

    #[test]
    fn adding_stiffener_raises_frequency() {
        // The Ariane power-supply story: tune the first mode upward.
        let props = PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(1.6))
            .unwrap();
        let mut soft = PlateMesh::rectangular(0.2, 0.15, 6, 5, &props).unwrap();
        soft.pin_card_guides().unwrap();
        let f_soft = modal(&soft.model, 1).unwrap().fundamental();

        let mut stiff = PlateMesh::rectangular(0.2, 0.15, 6, 5, &props).unwrap();
        stiff.pin_card_guides().unwrap();
        // Grounded springs mid-span emulate a stiffening rib + standoffs.
        for j in 0..=stiff.ny() {
            let n = stiff.node_at(3, j).unwrap();
            stiff.model.add_spring_to_ground(n, Dof::W, 5e5).unwrap();
        }
        let f_stiff = modal(&stiff.model, 1).unwrap().fundamental();
        assert!(
            f_stiff.value() > 1.5 * f_soft.value(),
            "stiffening must raise the fundamental: {f_soft} -> {f_stiff}"
        );
    }

    #[test]
    fn requesting_too_many_modes_errors() {
        let mesh = ss_square_plate(2);
        let free = mesh.model.free_dof_count();
        assert!(modal(&mesh.model, free + 1).is_err());
        assert!(modal(&mesh.model, 0).is_err());
    }

    #[test]
    fn unconstrained_model_errors() {
        let props = PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(1.6))
            .unwrap();
        let mesh = PlateMesh::rectangular(0.4, 0.3, 6, 6, &props).unwrap();
        // > 60 free DOFs so the subspace path (which needs K SPD) runs.
        assert!(mesh.model.free_dof_count() > 60);
        assert!(modal(&mesh.model, 3).is_err());
    }

    #[test]
    fn subspace_agrees_with_dense_on_medium_model() {
        // Build one model, solve with both paths by exploiting the size
        // threshold: 5x3 mesh with card guides has 3*24-… free DOFs;
        // compare subspace on the reduced system against dense solve.
        let props = PlateProperties::from_material(
            &Material::aluminum_6061(),
            Length::from_millimeters(2.0),
        )
        .unwrap();
        let mut mesh = PlateMesh::rectangular(0.25, 0.15, 5, 4, &props).unwrap();
        mesh.simply_support_edges().unwrap();
        let (k, m, _) = mesh.model.reduced_system();
        let (dense_vals, _) = generalized_eigen_dense(&k, &m).unwrap();
        let (sub_vals, _, _) = subspace_iteration(&k, &m, 3).unwrap();
        for i in 0..3 {
            let rel = (dense_vals[i] - sub_vals[i]).abs() / dense_vals[i];
            assert!(rel < 1e-6, "mode {i}: {rel}");
        }
    }
}
