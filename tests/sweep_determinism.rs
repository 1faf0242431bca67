//! Cross-layer determinism guarantees of the sweep engine: the Fig 10
//! power sweep, the harmonic frequency sweep and the random-vibration
//! integral must be **bit-identical** at every thread count, and equal
//! to the pre-engine serial paths they replaced.

use aeropack::design::{SeatStructure, SebModel};
use aeropack::fem::{
    modal, random_response, random_response_with, Dof, HarmonicResponse, PlateMesh, PlateProperties,
};
use aeropack::materials::Material;
use aeropack::mission::{
    sweep_missions, AdaptiveConfig, Checkpoint, MissionConfig, MissionDriver, MissionProfile,
    Orbit, RadiatingFace, Scheme, StepControl,
};
use aeropack::solver::{Precond, SolverConfig};
use aeropack::sweep::Sweep;
use aeropack::thermal::{Face, FaceBc, FvGrid, FvModel};
use aeropack::units::{Celsius, Frequency, HeatTransferCoeff, Length, Power};
use aeropack_envqual::Do160Curve;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fig10_configs() -> Vec<SebModel> {
    vec![
        SebModel::cosee(SeatStructure::aluminum(), false, 0.0).expect("model"),
        SebModel::cosee(SeatStructure::aluminum(), true, 0.0).expect("model"),
        SebModel::cosee(SeatStructure::aluminum(), true, 22f64.to_radians()).expect("model"),
    ]
}

/// Collapses one Fig 10 grid into comparable bit patterns (errors keep
/// their display string so failure modes must match too).
fn fig10_bits(
    rows: &[Vec<Result<aeropack::design::SebOperatingState, aeropack::design::DesignError>>],
    ambient: Celsius,
) -> Vec<Result<u64, String>> {
    rows.iter()
        .flatten()
        .map(|point| match point {
            Ok(state) => Ok(state.dt_pcb_air(ambient).kelvin().to_bits()),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

#[test]
fn fig10_power_sweep_is_bit_identical_across_thread_counts() {
    let ambient = Celsius::new(25.0);
    let configs = fig10_configs();
    let powers: Vec<Power> = (1..=11).map(|i| Power::new(10.0 * i as f64)).collect();

    let (serial_rows, serial_stats) =
        SebModel::power_sweep(&configs, &powers, ambient, &Sweep::serial());
    let reference = fig10_bits(&serial_rows, ambient);
    assert_eq!(serial_stats.scenarios, configs.len() * powers.len());

    for threads in THREAD_COUNTS {
        let (rows, stats) = SebModel::power_sweep(&configs, &powers, ambient, &Sweep::new(threads));
        assert_eq!(
            fig10_bits(&rows, ambient),
            reference,
            "Fig 10 sweep diverged at {threads} threads"
        );
        // The stats roll-up must not depend on scheduling either.
        assert_eq!(stats.scenarios, serial_stats.scenarios);
        assert_eq!(stats.total_iterations, serial_stats.total_iterations);
        assert_eq!(stats.converged, serial_stats.converged);
    }
}

#[test]
fn fig10_power_sweep_matches_the_old_pointwise_serial_path() {
    let ambient = Celsius::new(25.0);
    let configs = fig10_configs();
    let powers: Vec<Power> = (1..=11).map(|i| Power::new(10.0 * i as f64)).collect();

    let (rows, _) = SebModel::power_sweep(&configs, &powers, ambient, &Sweep::new(8));
    for (ci, config) in configs.iter().enumerate() {
        for (pi, &p) in powers.iter().enumerate() {
            // The pre-engine path: one direct solve per grid point.
            let old = config.solve(p, ambient);
            match (&rows[ci][pi], &old) {
                (Ok(new_state), Ok(old_state)) => assert_eq!(
                    new_state.dt_pcb_air(ambient).kelvin().to_bits(),
                    old_state.dt_pcb_air(ambient).kelvin().to_bits(),
                    "sweep diverged from pointwise solve at config {ci}, {p:?}"
                ),
                (Err(new_err), Err(old_err)) => {
                    assert_eq!(new_err.to_string(), old_err.to_string())
                }
                (new, old) => panic!(
                    "outcome mismatch at config {ci}, {p:?}: sweep {new:?} vs pointwise {old:?}"
                ),
            }
        }
    }
}

fn board_response() -> (HarmonicResponse, usize) {
    let props = PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(2.4))
        .expect("props")
        .with_smeared_mass(4.0);
    let mut mesh = PlateMesh::rectangular(0.14, 0.09, 6, 4, &props).expect("mesh");
    mesh.pin_all_edges().expect("bc");
    let modes = modal(&mesh.model, 4).expect("modal");
    let node = mesh.center_node();
    (
        HarmonicResponse::new(&mesh.model, &modes, 0.03).expect("resp"),
        node,
    )
}

#[test]
fn harmonic_sweep_is_bit_identical_across_thread_counts() {
    let (resp, node) = board_response();
    let f_min = Frequency::new(20.0);
    let f_max = Frequency::new(2000.0);
    let points = 257;

    let reference: Vec<(u64, u64)> = resp
        .sweep_with(&Sweep::serial(), node, Dof::W, f_min, f_max, points)
        .expect("serial sweep")
        .iter()
        .map(|(f, a)| (f.value().to_bits(), a.to_bits()))
        .collect();

    for threads in THREAD_COUNTS {
        // `with_grain(1)` overrides the modal-sum grain hint so the
        // sweep genuinely spawns `threads` workers on this small grid —
        // otherwise the serial fast path would make the test vacuous.
        let runner = Sweep::new(threads).with_grain(1);
        let (swept, stats) = resp
            .sweep_with_stats(&runner, node, Dof::W, f_min, f_max, points)
            .expect("parallel sweep");
        let parallel: Vec<(u64, u64)> = swept
            .iter()
            .map(|(f, a)| (f.value().to_bits(), a.to_bits()))
            .collect();
        assert_eq!(
            parallel, reference,
            "harmonic sweep diverged at {threads} threads"
        );
        assert_eq!(stats.engaged_workers, threads.min(points));
        // Real per-point records: the modal sum is counted as work.
        assert_eq!(stats.total_iterations, points * resp.omegas().len());
        assert!(stats.total_solve_time.as_nanos() > 0);
    }

    // The old serial path computed exactly this loop in frequency
    // order; reproduce it point by point against the engine output.
    let log_min = f_min.value().ln();
    let log_max = f_max.value().ln();
    for (i, &(f_bits, _)) in reference.iter().enumerate() {
        let f = (log_min + (log_max - log_min) * i as f64 / (points - 1) as f64).exp();
        assert_eq!(f.to_bits(), f_bits, "frequency grid changed at point {i}");
    }
}

#[test]
fn random_response_is_bit_identical_across_thread_counts() {
    let (resp, node) = board_response();
    let psd = Do160Curve::C1.psd();

    let reference = random_response_with(&Sweep::serial(), &resp, node, Dof::W, &psd)
        .expect("serial random response");
    // `random_response` itself reads AEROPACK_THREADS; exercise the
    // explicit-runner path at every count and the env path once.
    // `with_grain(1)` forces genuine parallelism past the grain hint.
    for threads in THREAD_COUNTS {
        let runner = Sweep::new(threads).with_grain(1);
        let parallel = random_response_with(&runner, &resp, node, Dof::W, &psd)
            .expect("parallel random response");
        assert_eq!(
            parallel.accel_grms.to_bits(),
            reference.accel_grms.to_bits(),
            "g_rms diverged at {threads} threads"
        );
        assert_eq!(
            parallel.disp_rms.to_bits(),
            reference.disp_rms.to_bits(),
            "displacement RMS diverged at {threads} threads"
        );
        assert_eq!(
            parallel.characteristic_frequency.value().to_bits(),
            reference.characteristic_frequency.value().to_bits(),
            "characteristic frequency diverged at {threads} threads"
        );
    }
    let via_env = random_response(&resp, node, Dof::W, &psd).expect("env-path random response");
    assert_eq!(via_env.accel_grms.to_bits(), reference.accel_grms.to_bits());
}

#[test]
fn fv_power_sweep_with_ic0_is_bit_identical_across_thread_counts() {
    // The IC(0)+RCM hot path end to end: a finite-volume power sweep
    // whose every solve goes through the level-scheduled triangular
    // applies and the workspace-cached factor. Worker-local model
    // clones mean each worker re-derives the permutation and factor
    // from the same matrix values, so results must stay bitwise
    // identical no matter how scenarios are split across threads — and
    // identical to the serial `scale_sources` path the scaled solve
    // replaced.
    let grid = FvGrid::new((0.12, 0.08, 0.0016), (24, 16, 1)).expect("grid");
    let mut base = FvModel::new(grid, &Material::fr4());
    base.add_power_box(Power::new(18.0), (6, 4, 0), (14, 10, 1))
        .expect("source");
    base.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(45.0),
            ambient: Celsius::new(35.0),
        },
    );
    base.set_solver_config(SolverConfig::new().preconditioner(Precond::Ic0));
    base.solve_steady().expect("prime solve");
    let scales: Vec<f64> = (0..12).map(|i| 0.5 + 0.1 * i as f64).collect();

    let field_bits = |runner: &Sweep| -> Vec<Vec<u64>> {
        runner.map_with(
            &scales,
            || base.clone(),
            |model, &scale| {
                let field = model.solve_steady_scaled(scale).expect("scaled solve");
                let stats = model.last_solve_stats().expect("stats");
                assert!(stats.converged());
                let factor = stats.factorization.expect("IC(0) factor stats");
                assert!(factor.reordered, "IC(0) engages RCM");
                field.temperatures().iter().map(|t| t.to_bits()).collect()
            },
        )
    };

    let reference = field_bits(&Sweep::serial());
    for threads in THREAD_COUNTS {
        // `with_grain(1)` forces genuine parallelism past the FV grain
        // hint a library sweep would apply.
        let parallel = field_bits(&Sweep::new(threads).with_grain(1));
        assert_eq!(
            parallel, reference,
            "IC(0) FV sweep diverged at {threads} threads"
        );
    }

    // The scaled solve is the old clone-and-scale path, bit for bit.
    for (&scale, bits) in scales.iter().zip(&reference) {
        let mut scaled = base.clone();
        scaled.scale_sources(scale);
        let old: Vec<u64> = scaled
            .solve_steady()
            .expect("scale_sources solve")
            .temperatures()
            .iter()
            .map(|t| t.to_bits())
            .collect();
        assert_eq!(&old, bits, "solve_steady_scaled({scale}) diverged");
    }
}

#[test]
fn fv_power_sweep_with_multigrid_is_bit_identical_across_thread_counts() {
    // The multigrid + SELL fast path end to end: a 3-D grid large
    // enough that the V-cycle hierarchy is multi-level and the blocked
    // SELL SpMV layout engages (n ≥ 1024). Determinism must hold
    // across *both* thread axes — the sweep worker count and the
    // solver's internal SpMV threads.
    let grid = FvGrid::new((0.16, 0.12, 0.04), (16, 12, 8)).expect("grid");
    let mut base = FvModel::new(grid, &Material::fr4());
    base.add_power_box(Power::new(22.0), (4, 3, 2), (12, 9, 6))
        .expect("source");
    base.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(40.0),
            ambient: Celsius::new(30.0),
        },
    );
    let scales: Vec<f64> = (0..8).map(|i| 0.6 + 0.15 * i as f64).collect();

    let field_bits = |runner: &Sweep, solver_threads: usize| -> Vec<Vec<u64>> {
        let mut model = base.clone();
        model.set_solver_config(
            SolverConfig::new()
                .preconditioner(Precond::Multigrid)
                .threads(solver_threads),
        );
        runner.map_with(
            &scales,
            || model.clone(),
            |model, &scale| {
                let field = model.solve_steady_scaled(scale).expect("scaled solve");
                let stats = model.last_solve_stats().expect("stats");
                assert!(stats.converged());
                assert_eq!(stats.preconditioner, Precond::Multigrid);
                let spec = stats.spectral.expect("MG spectral stats");
                assert!(spec.levels >= 2, "hierarchy must coarsen");
                field.temperatures().iter().map(|t| t.to_bits()).collect()
            },
        )
    };

    let reference = field_bits(&Sweep::serial(), 1);
    for threads in THREAD_COUNTS {
        let parallel = field_bits(&Sweep::new(threads).with_grain(1), threads);
        assert_eq!(
            parallel, reference,
            "multigrid FV sweep diverged at {threads} threads"
        );
    }
}

#[test]
fn sweeps_stay_bit_identical_with_observability_enabled() {
    // Observability must be a pure observer: enabling it (scoped
    // registry, events flowing from every worker) must not perturb a
    // single bit of any sweep output, at any thread count.
    let (resp, node) = board_response();
    let f_min = Frequency::new(20.0);
    let f_max = Frequency::new(2000.0);
    let points = 257;
    let disabled_reference: Vec<(u64, u64)> = resp
        .sweep_with(&Sweep::serial(), node, Dof::W, f_min, f_max, points)
        .expect("serial sweep")
        .iter()
        .map(|(f, a)| (f.value().to_bits(), a.to_bits()))
        .collect();

    for threads in THREAD_COUNTS {
        let reg = std::sync::Arc::new(aeropack::obs::Registry::new());
        let observed: Vec<(u64, u64)> = {
            let _obs = aeropack::obs::scoped(reg.clone());
            resp.sweep_with(
                &Sweep::new(threads).with_grain(1),
                node,
                Dof::W,
                f_min,
                f_max,
                points,
            )
            .expect("observed sweep")
            .iter()
            .map(|(f, a)| (f.value().to_bits(), a.to_bits()))
            .collect()
        };
        assert_eq!(
            observed, disabled_reference,
            "observability perturbed the harmonic sweep at {threads} threads"
        );
        // The events really flowed — including from spawned workers.
        assert_eq!(reg.counter("sweep.scenarios"), points as u64);
        assert_eq!(reg.counter("fem.harmonic.points"), points as u64);
        if threads > 1 {
            let snap = reg.snapshot();
            assert!(
                snap.spans
                    .iter()
                    .any(|s| s.path.starts_with("sweep.worker{")),
                "worker spans missing at {threads} threads"
            );
        }
    }
}

#[test]
fn mission_sweeps_are_bit_identical_across_thread_counts() {
    // Three climb–cruise–descent profiles through the adaptive mission
    // driver: every summary — including the adaptive step sequence and
    // final field folded into `trajectory_hash` — must be bit-identical
    // at every sweep thread count.
    let grid = FvGrid::new((0.1, 0.08, 0.01), (6, 4, 2)).expect("grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(Power::new(12.0), (1, 1, 0), (5, 3, 1))
        .expect("source");
    let profiles: Vec<MissionProfile> = [4_000.0, 8_000.0, 11_000.0]
        .iter()
        .map(|&alt| {
            MissionProfile::climb_cruise_descent(
                alt,
                (120.0, 480.0, 120.0),
                HeatTransferCoeff::new(35.0),
            )
            .expect("profile")
        })
        .collect();
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig {
            dt_max: 20.0,
            ..AdaptiveConfig::default()
        }))
        .convective_face(Face::ZMax);
    let initial = Celsius::new(15.0);

    let (reference, serial_stats) =
        sweep_missions(&model, &profiles, &config, initial, &Sweep::serial());
    let reference: Vec<_> = reference
        .into_iter()
        .map(|r| r.expect("serial mission"))
        .collect();
    assert!(
        reference.iter().all(|s| s.steps > 20),
        "adaptive missions must produce real step sequences"
    );

    for threads in THREAD_COUNTS {
        // `with_grain(1)` forces genuine parallelism on this small
        // profile list.
        let runner = Sweep::new(threads).with_grain(1);
        let (rows, stats) = sweep_missions(&model, &profiles, &config, initial, &runner);
        assert_eq!(stats.scenarios, serial_stats.scenarios);
        for (expected, row) in reference.iter().zip(rows) {
            let got = row.expect("parallel mission");
            assert_eq!(
                *expected, got,
                "mission sweep diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn mission_ic0_trajectory_is_bit_identical_across_solver_threads() {
    // A default-config orbit mission runs on the driver's IC(0)
    // upgrade. At 64×64×4 = 16 384 cells the plate reaches the IC(0)
    // parallel grain, so the level-scheduled triangular solves really
    // run threaded: ~20 adaptive steps must give the same trajectory
    // fingerprint at 1, 2 and 8 solver threads.
    let grid = FvGrid::new((0.15, 0.15, 0.012), (64, 64, 4)).expect("grid");
    let mut base = FvModel::new(grid, &Material::aluminum_6061());
    base.add_power_box(Power::new(25.0), (16, 16, 0), (48, 48, 1))
        .expect("source");
    let profile = MissionProfile::orbit_cycle(&Orbit::leo_90min(), 1).expect("profile");
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig::default()))
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        });
    let fly = |threads: usize| {
        let mut model = base.clone();
        model.set_solver_config(SolverConfig::new().threads(threads));
        let mut driver =
            MissionDriver::new(model, profile.clone(), config.clone(), Celsius::new(20.0))
                .expect("driver");
        for _ in 0..20 {
            driver.step().expect("step");
        }
        let stats = driver.last_solve_stats().expect("solve stats");
        assert_eq!(stats.preconditioner, Precond::Ic0);
        assert_eq!(stats.threads, threads);
        driver.trajectory_fingerprint()
    };
    let reference = fly(1);
    for threads in [2, 8] {
        assert_eq!(
            reference,
            fly(threads),
            "IC(0) mission trajectory diverged at {threads} solver threads"
        );
    }
}

#[test]
fn mission_checkpoint_restore_is_bit_identical() {
    // An orbit mission with a radiating face: the checkpoint carries
    // the lagged radiation linearisation, both snapshot codecs must
    // round-trip it bit-exactly mid-trajectory, and a restored driver
    // must finish on the original trajectory bit for bit.
    let grid = FvGrid::new((0.12, 0.12, 0.01), (5, 5, 2)).expect("grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(Power::new(20.0), (1, 1, 0), (4, 4, 1))
        .expect("source");
    let profile = MissionProfile::orbit_cycle(&Orbit::leo_90min(), 1).expect("profile");
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig {
            dt_max: 120.0,
            ..AdaptiveConfig::default()
        }))
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        });

    let mut original = MissionDriver::new(
        model.clone(),
        profile.clone(),
        config.clone(),
        Celsius::new(20.0),
    )
    .expect("driver");
    for _ in 0..30 {
        original.step().expect("step");
    }
    let cp = original.checkpoint();
    let via_binary = Checkpoint::from_binary(&cp.to_binary()).expect("binary codec");
    let via_json = Checkpoint::from_json(&cp.to_json()).expect("json codec");
    assert_eq!(cp.hash(), via_binary.hash(), "binary round-trip drifted");
    assert_eq!(cp.hash(), via_json.hash(), "JSON round-trip drifted");

    original.run_to_end().expect("uninterrupted run");
    let mut restored = MissionDriver::restore(model, profile, config, &via_json).expect("restore");
    restored.run_to_end().expect("restored run");

    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(original.temperatures()),
        bits(restored.temperatures()),
        "restored trajectory diverged from the uninterrupted one"
    );
    // The full end states — time, dt, step index, radiation
    // linearisation, field — agree, not just the temperatures.
    assert_eq!(original.checkpoint().hash(), restored.checkpoint().hash());
}

#[test]
fn power_sweep_reports_per_point_failures_in_place() {
    // Past ~300 W the internal copper/water heat pipes exceed their
    // capillary limit: those grid points must come back as Err rows in
    // their exact slots while every other point still solves — at every
    // thread count, identically to the pointwise path.
    let ambient = Celsius::new(25.0);
    let configs = fig10_configs();
    let powers: Vec<Power> = [40.0, 120.0, 250.0, 400.0, 3000.0]
        .iter()
        .map(|&p| Power::new(p))
        .collect();

    let pointwise: Vec<Vec<Result<u64, String>>> = configs
        .iter()
        .map(|config| {
            powers
                .iter()
                .map(|&p| match config.solve(p, ambient) {
                    Ok(s) => Ok(s.dt_pcb_air(ambient).kelvin().to_bits()),
                    Err(e) => Err(e.to_string()),
                })
                .collect()
        })
        .collect();
    let failures: usize = pointwise
        .iter()
        .flatten()
        .filter(|point| point.is_err())
        .count();
    assert!(
        failures > 0 && failures < configs.len() * powers.len(),
        "the grid must mix dry-out failures ({failures}) with successes"
    );

    for threads in THREAD_COUNTS {
        let (rows, stats) = SebModel::power_sweep(&configs, &powers, ambient, &Sweep::new(threads));
        assert_eq!(stats.scenarios, configs.len() * powers.len());
        // Failed scenarios are the non-converged ones in the roll-up.
        assert_eq!(stats.converged, stats.scenarios - failures);
        for (ci, row) in rows.iter().enumerate() {
            for (pi, point) in row.iter().enumerate() {
                let got = match point {
                    Ok(s) => Ok(s.dt_pcb_air(ambient).kelvin().to_bits()),
                    Err(e) => Err(e.to_string()),
                };
                assert_eq!(
                    got, pointwise[ci][pi],
                    "threads={threads} config={ci} power={pi}: sweep row diverged"
                );
            }
        }
    }
}
