//! Golden-snapshot regression gate over the workspace's headline
//! physics outputs: the Fig 10 power-sweep grid, the modal frequency
//! ladder, the random-vibration RMS levels, and the PCG-vs-Cholesky
//! differential residuals. Values are compared against tolerance-tagged
//! JSON under `tests/golden/`; run `scripts/snapshot.sh` to update the
//! files after an intentional physics change.

use std::path::PathBuf;

use aeropack::fem::linalg::DMatrix;
use aeropack::prelude::*;
use aeropack::verify::Snapshot;

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.json"))
}

fn gate(stem: &str, snapshot: &Snapshot) {
    if let Err(report) = Snapshot::gate(&golden_path(stem), snapshot) {
        panic!("{report}");
    }
}

/// Fig 10: ΔT(PCB − cabin air) versus power for the three COSEE
/// configurations, through `SebModel::power_sweep` on the sweep engine.
#[test]
fn golden_fig10_power_sweep() {
    let cabin = Celsius::new(25.0);
    let configs = [
        (
            "no_lhp",
            SebModel::cosee(SeatStructure::aluminum(), false, 0.0).unwrap(),
        ),
        (
            "lhp",
            SebModel::cosee(SeatStructure::aluminum(), true, 0.0).unwrap(),
        ),
        (
            "lhp_tilt22",
            SebModel::cosee(SeatStructure::aluminum(), true, 22f64.to_radians()).unwrap(),
        ),
    ];
    let models: Vec<SebModel> = configs.iter().map(|(_, m)| m.clone()).collect();
    let powers: Vec<Power> = (1..=6).map(|i| Power::new(15.0 * i as f64)).collect();
    let (grid, stats) = SebModel::power_sweep(&models, &powers, cabin, &Sweep::new(2));
    assert_eq!(stats.scenarios, configs.len() * powers.len());

    let mut snapshot = Snapshot::new("fig10_power_sweep");
    for ((name, _), row) in configs.iter().zip(&grid) {
        let mut solved = 0usize;
        for (power, state) in powers.iter().zip(row) {
            if let Ok(state) = state {
                solved += 1;
                snapshot.push(
                    format!("{name}/p{:03.0}_dt", power.value()),
                    state.dt_pcb_air(cabin).kelvin(),
                    1e-9,
                    1e-6,
                );
            }
        }
        // Points past dry-out legitimately fail to solve; pin how many
        // solved so a silently appearing/vanishing point is drift.
        snapshot.push(format!("{name}/solved_points"), solved as f64, 0.0, 0.0);
    }
    gate("fig10_power_sweep", &snapshot);
}

/// The first four modal frequencies of the equipment-style simply
/// supported aluminium plate (subspace-iteration path), plus the modal
/// mass capture.
#[test]
fn golden_modal_frequencies() {
    let props = PlateProperties::from_material(
        &Material::aluminum_6061(),
        aeropack::units::Length::from_millimeters(2.0),
    )
    .unwrap();
    let mut mesh = PlateMesh::rectangular(0.3, 0.2, 6, 6, &props).unwrap();
    mesh.simply_support_edges().unwrap();
    let modes = modal(&mesh.model, 4).unwrap();

    let mut snapshot = Snapshot::new("modal_frequencies");
    for (i, f) in modes.frequencies().iter().enumerate() {
        // Eigensolves are iterative; give them a slightly wider band
        // than the direct solves.
        snapshot.push(format!("mode{}_hz", i + 1), f.value(), 1e-9, 1e-6);
    }
    snapshot.push("mass_capture", modes.mass_capture(), 1e-9, 1e-5);
    gate("modal_frequencies", &snapshot);
}

/// Random-vibration RMS response of the plate centre under a flat
/// 0.04 g²/Hz PSD (the DO-160-style broadband shape).
#[test]
fn golden_random_vibration_rms() {
    let props = PlateProperties::from_material(
        &Material::fr4(),
        aeropack::units::Length::from_millimeters(1.6),
    )
    .unwrap();
    let mut mesh = PlateMesh::rectangular(0.16, 0.1, 6, 4, &props).unwrap();
    mesh.simply_support_edges().unwrap();
    let modes = modal(&mesh.model, 5).unwrap();
    let response = HarmonicResponse::new(&mesh.model, &modes, 0.03).unwrap();
    let input = PsdCurve::new(vec![
        (Frequency::new(20.0), AccelPsd::new(0.04)),
        (Frequency::new(2000.0), AccelPsd::new(0.04)),
    ])
    .unwrap();
    let center = mesh.center_node();
    let rms = random_response(&response, center, Dof::W, &input).unwrap();

    let mut snapshot = Snapshot::new("random_vibration_rms");
    snapshot.push("accel_grms", rms.accel_grms, 1e-9, 1e-6);
    snapshot.push("disp_rms_m", rms.disp_rms, 1e-15, 1e-6);
    snapshot.push(
        "characteristic_hz",
        rms.characteristic_frequency.value(),
        1e-9,
        1e-6,
    );
    snapshot.push("input_grms", input.grms(), 1e-9, 1e-9);
    gate("random_vibration_rms", &snapshot);
}

/// One 90-minute orbit cycle of a dissipating radiating plate through
/// the adaptive mission driver: final field statistics, the accepted
/// step count, and the bit-exact trajectory hash (split into two 32-bit
/// halves so the f64 snapshot slots carry it losslessly).
#[test]
fn golden_mission_orbit_cycle() {
    use aeropack::mission::{
        AdaptiveConfig, MissionConfig, MissionDriver, MissionProfile, Orbit, RadiatingFace, Scheme,
        StepControl,
    };

    let grid = FvGrid::new((0.15, 0.15, 0.012), (6, 6, 2)).unwrap();
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(Power::new(25.0), (1, 1, 0), (5, 5, 1))
        .unwrap();
    let profile = MissionProfile::orbit_cycle(&Orbit::leo_90min(), 1).unwrap();
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig {
            dt_max: 60.0,
            ..AdaptiveConfig::default()
        }))
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        });
    let mut driver = MissionDriver::new(model, profile, config, Celsius::new(20.0)).unwrap();
    driver.run_to_end().unwrap();
    let field = driver.field().unwrap();
    let stats = *driver.stats();
    let hash = driver.trajectory_fingerprint();

    let mut snapshot = Snapshot::new("mission_orbit_cycle");
    snapshot.push("final_min_c", field.min_temperature().value(), 1e-9, 1e-9);
    snapshot.push("final_max_c", field.max_temperature().value(), 1e-9, 1e-9);
    snapshot.push("final_mean_c", field.mean_temperature().value(), 1e-9, 1e-9);
    snapshot.push("accepted_steps", stats.accepted as f64, 0.0, 0.0);
    snapshot.push("relinearizations", stats.relinearizations as f64, 0.0, 0.0);
    snapshot.push("trajectory_hash_hi", (hash >> 32) as f64, 0.0, 0.0);
    snapshot.push("trajectory_hash_lo", (hash & 0xffff_ffff) as f64, 0.0, 0.0);
    gate("mission_orbit_cycle", &snapshot);
}

/// The NSGA-II Pareto front for the paper's packaging trade at 120 W
/// in a 25 °C cabin with a 22° adverse tilt: every front member's
/// topology and objectives in canonical order, plus the bit-exact
/// front fingerprint (split into 32-bit halves for the f64 slots).
/// The optimizer is deterministic by construction, so the hash gate
/// is exact; any drift is a real physics or algorithm change.
#[test]
fn golden_optimize_front() {
    use aeropack::optimize::{DesignSpace, EvalContext, Optimizer, OptimizerConfig};

    let ctx = EvalContext::new(Celsius::new(25.0), Power::new(120.0), 22f64.to_radians());
    let config = OptimizerConfig {
        population: 48,
        generations: 30,
        seed: 0x05a2_010c_05ee,
        ..OptimizerConfig::default()
    };
    let result = Optimizer::new(DesignSpace::default(), config).run(&ctx, &Sweep::new(2));
    let hash = result.front.fingerprint();

    let mut snapshot = Snapshot::new("optimize_front");
    snapshot.push("front_len", result.front.len() as f64, 0.0, 0.0);
    snapshot.push("evaluations", result.evaluations as f64, 0.0, 0.0);
    snapshot.push("front_hash_hi", (hash >> 32) as f64, 0.0, 0.0);
    snapshot.push("front_hash_lo", (hash & 0xffff_ffff) as f64, 0.0, 0.0);
    for (i, p) in result.front.points().iter().enumerate() {
        snapshot.push(
            format!("p{i:02}_topology"),
            p.genome.topology.index() as f64,
            0.0,
            0.0,
        );
        snapshot.push(format!("p{i:02}_dt_k"), p.objectives.dt_k, 1e-9, 1e-9);
        snapshot.push(format!("p{i:02}_mass_kg"), p.objectives.mass_kg, 1e-9, 1e-9);
        snapshot.push(
            format!("p{i:02}_mtbf_h"),
            p.objectives.mtbf_hours,
            1e-6,
            1e-9,
        );
    }
    gate("optimize_front", &snapshot);
}

/// PCG (Jacobi) against dense Cholesky on a banded SPD
/// fixture: the differential residual ‖x_pcg − x_chol‖/‖x_chol‖ pins
/// the iterative path to the direct one.
#[test]
fn golden_solver_differential_residuals() {
    let n = 64;
    let band = 5;
    // Deterministic banded SPD fixture (diagonally dominant).
    let mut rng = SplitMix64::new(0x90_1de2);
    let mut dense = DMatrix::zeros(n, n);
    for i in 0..n {
        for j in i..(i + band).min(n) {
            if i == j {
                continue;
            }
            let v = rng.range_f64(-1.0, 1.0);
            dense[(i, j)] = v;
            dense[(j, i)] = v;
        }
    }
    for i in 0..n {
        let row_sum: f64 = (0..n)
            .filter(|&j| j != i)
            .map(|j| dense[(i, j)].abs())
            .sum();
        dense[(i, i)] = row_sum + 1.0;
    }
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos() * 3.0).collect();
    let a = aeropack::solver::CsrMatrix::from_row_fn(n, band * 2, |i, row| {
        for j in 0..n {
            if dense[(i, j)] != 0.0 {
                row.push((j, dense[(i, j)]));
            }
        }
    });

    let chol = aeropack::solver::solve_dense(
        dense.data(),
        n,
        &b,
        &SolverConfig::new().method(Method::Cholesky),
    )
    .unwrap();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let chol_norm = norm(&chol.x);

    let mut snapshot = Snapshot::new("solver_differential_residuals");
    let cfg = SolverConfig::new()
        .method(Method::Pcg)
        .preconditioner(Precond::Jacobi)
        .tolerance(1e-12);
    let pcg = aeropack::solver::solve_sparse(&a, &b, &cfg).unwrap();
    let diff: f64 = norm(
        &pcg.x
            .iter()
            .zip(&chol.x)
            .map(|(p, q)| p - q)
            .collect::<Vec<_>>(),
    ) / chol_norm;
    // The differential residual itself is noise-limited near the solve
    // tolerance; gate its magnitude with an absolute band.
    snapshot.push("jacobi_rel_diff", diff, 1e-10, 0.0);
    snapshot.push(
        "jacobi_iterations",
        pcg.stats.iterations as f64,
        // Iteration counts are integers; allow ±2 for platform FP.
        2.0,
        0.0,
    );
    snapshot.push("cholesky_solution_norm", chol_norm, 1e-9, 1e-9);
    gate("solver_differential_residuals", &snapshot);
}
