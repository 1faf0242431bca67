//! Property-style tests on the core invariants of the workspace:
//! conservation laws, rigorous bounds, monotonicities and reciprocity,
//! driven through the [`aeropack::verify`] harness so failures shrink
//! to a minimal counterexample and print a one-line reproducer seed.

use aeropack::fem::linalg::{generalized_eigen_dense, Cholesky, DMatrix, Lu};
use aeropack::optimize::dominates;
use aeropack::prelude::*;
use aeropack::tim::{bruggeman, hashin_shtrikman_bounds, maxwell_garnett, wiener_bounds};
use aeropack::verify::{check, ensure, tuple3, tuple4, tuple5, Gen};

const CASES: u64 = 32;

/// A generator for a random symmetric positive-definite `n × n` matrix
/// (`AᵀA + n·I`), flattened row-major so the harness can shrink it.
fn gen_spd(n: usize) -> Gen<DMatrix> {
    Gen::f64_range(-2.0, 2.0)
        .vec_of(n * n, n * n)
        .map(move |data| {
            let a = DMatrix::from_rows(n, n, data);
            let mut g = a.t_matmul(&a);
            for i in 0..n {
                g[(i, i)] += n as f64;
            }
            g
        })
}

#[test]
fn lu_and_cholesky_agree_on_spd() {
    let gen = gen_spd(4).zip(&Gen::f64_range(-5.0, 5.0).vec_of(4, 4));
    check(0xa11f_0001, CASES, &gen, |(a, b)| {
        let x_lu = Lu::factor(a).map_err(|e| e.to_string())?.solve(b);
        let x_ch = Cholesky::factor(a).map_err(|e| e.to_string())?.solve(b);
        for (p, q) in x_lu.iter().zip(&x_ch) {
            ensure!((p - q).abs() < 1e-8, "LU {p} vs Cholesky {q}");
        }
        // Residual check: A·x = b.
        let r = a.matvec(&x_lu);
        for (ri, bi) in r.iter().zip(b) {
            ensure!((ri - bi).abs() < 1e-8, "residual {}", ri - bi);
        }
        Ok(())
    });
}

#[test]
fn generalized_eigen_is_m_orthonormal() {
    let gen = gen_spd(4).zip(&Gen::f64_range(0.5, 3.0));
    check(0xa11f_0002, CASES, &gen, |(k, shift)| {
        let mut m = DMatrix::identity(4);
        for i in 0..4 {
            m[(i, i)] = shift + i as f64 * 0.3;
        }
        let (vals, vecs) = generalized_eigen_dense(k, &m).map_err(|e| e.to_string())?;
        // Ascending positive eigenvalues.
        ensure!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        ensure!(vals[0] > 0.0);
        // M-orthonormal columns.
        let g = vecs.t_matmul(&m.matmul(&vecs));
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                ensure!(
                    (g[(i, j)] - expect).abs() < 1e-7,
                    "VᵀMV[{i},{j}] = {}",
                    g[(i, j)]
                );
            }
        }
        Ok(())
    });
}

#[test]
fn fv_conserves_energy() {
    let gen = tuple5(
        &Gen::usize_range(2, 7).zip(&Gen::usize_range(2, 6)),
        &Gen::f64_range(0.5, 30.0),
        &Gen::f64_range(0.5, 30.0),
        &Gen::f64_range(5.0, 500.0),
        &Gen::f64_range(-40.0, 70.0),
    );
    check(
        0xa11f_0003,
        CASES,
        &gen,
        |&((nx, ny), q1, q2, h, ambient)| {
            let grid = FvGrid::new((0.08, 0.06, 0.004), (nx, ny, 1)).map_err(|e| e.to_string())?;
            let mut model = FvModel::new(grid, &Material::aluminum_6061());
            model
                .add_power_box(Power::new(q1), (0, 0, 0), (1, 1, 1))
                .map_err(|e| e.to_string())?;
            model
                .add_power_box(Power::new(q2), (nx - 1, ny - 1, 0), (nx, ny, 1))
                .map_err(|e| e.to_string())?;
            model.set_face_bc(
                Face::ZMax,
                FaceBc::Convection {
                    h: HeatTransferCoeff::new(h),
                    ambient: Celsius::new(ambient),
                },
            );
            let field = model.solve_steady().map_err(|e| e.to_string())?;
            let mut out = 0.0;
            for &f in Face::ALL.iter() {
                out += model
                    .boundary_heat(&field, f)
                    .map_err(|e| e.to_string())?
                    .value();
            }
            let total = q1 + q2;
            ensure!((out - total).abs() < 1e-6 * total, "in {total}, out {out}");
            // Every cell is at or above ambient (heat only enters).
            ensure!(field.min_temperature().value() >= ambient - 1e-9);
            // The shared backend reported its convergence record.
            let stats = model.last_solve_stats().ok_or("no stats recorded")?;
            ensure!(stats.final_residual <= stats.tolerance);
            Ok(())
        },
    );
}

/// A single-phase "hold" profile: no convection, no radiation drive,
/// dissipation at `power_scale`.
fn hold_profile(duration_s: f64, power_scale: f64) -> MissionProfile {
    let mut state = BoundaryState::sea_level();
    state.power_scale = power_scale;
    MissionProfile::new(vec![MissionPhase::constant("hold", duration_s, state)])
        .expect("valid profile")
}

/// An adaptive control whose `dt_max` forces at least
/// `duration / dt_max` accepted steps.
fn capped_adaptive(dt_max: f64) -> StepControl {
    StepControl::Adaptive(AdaptiveConfig {
        dt_init: dt_max / 4.0,
        dt_min: dt_max / 1e4,
        dt_max,
        ..AdaptiveConfig::default()
    })
}

#[test]
fn mission_adiabatic_transient_conserves_energy() {
    // An adiabatic box with zero sources: the discrete operator has
    // zero column sums, so `E = Σ capᵢ·Tᵢ` is conserved exactly in
    // exact arithmetic; the adaptive driver must hold the relative
    // drift below 1e-9 over 10⁴ accepted steps (per-solve PCG residual
    // plus 10⁴-step round-off accumulation).
    let gen = tuple3(
        &Gen::usize_range(2, 5).zip(&Gen::usize_range(2, 4)),
        &Gen::f64_range(20.0, 80.0),
        &Gen::f64_range(1.0, 60.0),
    );
    check(0xa11f_0009, 8, &gen, |&((nx, ny), base_c, amp)| {
        let grid = FvGrid::new((0.06, 0.04, 0.008), (nx, ny, 2)).map_err(|e| e.to_string())?;
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model.set_solver_config(SolverConfig::new().tolerance(1e-13));
        let n = model.grid().cell_count();
        // A non-uniform start (no sources, so nothing else drives the
        // transient): a deterministic ripple on top of the base.
        let temps: Vec<f64> = (0..n)
            .map(|i| base_c + amp * (0.7 * i as f64).sin())
            .collect();
        let field = model
            .field_from_temperatures(temps)
            .map_err(|e| e.to_string())?;
        let duration = 20.0;
        let config = MissionConfig::new(Scheme::Trapezoidal)
            .control(capped_adaptive(duration / 1.0e4))
            .max_steps(1_000_000);
        let mut driver =
            MissionDriver::with_initial_field(model, hold_profile(duration, 0.0), config, &field)
                .map_err(|e| e.to_string())?;
        let e0 = driver.thermal_energy();
        driver.run_to_end().map_err(|e| e.to_string())?;
        ensure!(
            driver.stats().accepted >= 10_000,
            "dt cap must force ≥ 10⁴ adaptive steps, got {}",
            driver.stats().accepted
        );
        let drift = (driver.thermal_energy() - e0).abs() / e0.abs();
        ensure!(drift <= 1e-9, "relative energy drift {drift:.3e} > 1e-9");
        // The field actually evolved (the test is not vacuous) and
        // relaxed toward the adiabatic equilibrium: the uniform mean.
        let spread = |f: &FvField| f.max_temperature().value() - f.min_temperature().value();
        let final_field = driver.field().map_err(|e| e.to_string())?;
        ensure!(spread(&final_field) < spread(&field));
        Ok(())
    });
}

#[test]
fn mission_constant_power_energy_balance_matches_integral() {
    // Same adiabatic box, now with a constant dissipation P: the energy
    // gained over the mission must equal ∫P dt = P·t_end to within
    // accumulated round-off.
    let gen = tuple3(
        &Gen::usize_range(2, 5).zip(&Gen::usize_range(2, 4)),
        &Gen::f64_range(2.0, 40.0),
        &Gen::f64_range(5.0, 120.0),
    );
    check(0xa11f_000a, 8, &gen, |&((nx, ny), power, duration)| {
        let grid = FvGrid::new((0.06, 0.04, 0.008), (nx, ny, 2)).map_err(|e| e.to_string())?;
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model.set_solver_config(SolverConfig::new().tolerance(1e-13));
        model
            .add_power_box(Power::new(power), (0, 0, 0), (nx, ny, 1))
            .map_err(|e| e.to_string())?;
        let config = MissionConfig::new(Scheme::Trapezoidal)
            .control(capped_adaptive(duration / 500.0))
            .max_steps(1_000_000);
        let mut driver = MissionDriver::new(
            model,
            hold_profile(duration, 1.0),
            config,
            Celsius::new(25.0),
        )
        .map_err(|e| e.to_string())?;
        let e0 = driver.thermal_energy();
        driver.run_to_end().map_err(|e| e.to_string())?;
        let gained = driver.thermal_energy() - e0;
        let expected = power * duration;
        ensure!(
            (gained - expected).abs() <= 1e-9 * expected,
            "energy balance: gained {gained} J, ∫P dt = {expected} J"
        );
        Ok(())
    });
}

#[test]
fn network_superposition_holds() {
    let gen = tuple4(
        &Gen::f64_range(0.1, 5.0),
        &Gen::f64_range(0.1, 5.0),
        &Gen::f64_range(1.0, 100.0),
        &Gen::f64_range(-40.0, 85.0),
    );
    check(0xa11f_0004, CASES, &gen, |&(r1, r2, q, t_amb)| {
        // T(q1+q2) − T(0) must equal [T(q1) − T(0)] + [T(q2) − T(0)]
        // for a linear network.
        let build = |heat: f64| {
            let mut net = Network::new();
            let amb = net.add_fixed("ambient", Celsius::new(t_amb));
            let a = net.add_floating("a");
            let b = net.add_floating("b");
            if heat > 0.0 {
                net.add_heat(b, Power::new(heat)).unwrap();
            }
            net.connect(b, a, ThermalResistance::new(r1)).unwrap();
            net.connect(a, amb, ThermalResistance::new(r2)).unwrap();
            let sol = net.solve().unwrap();
            sol.temperature(b).unwrap().value()
        };
        let t_half = build(q / 2.0) - t_amb;
        let t_full = build(q) - t_amb;
        ensure!(
            (t_full - 2.0 * t_half).abs() < 1e-9,
            "linearity: {t_full} vs 2 × {t_half}"
        );
        // And the closed form.
        ensure!((t_full - q * (r1 + r2)).abs() < 1e-9);
        Ok(())
    });
}

#[test]
fn effective_medium_within_rigorous_bounds() {
    let gen = Gen::f64_range(0.01, 0.50).zip(&Gen::f64_range(5.0, 500.0));
    check(0xa11f_0005, CASES, &gen, |&(phi, k_f)| {
        let km = ThermalConductivity::new(0.2);
        let kf = ThermalConductivity::new(k_f);
        let (wl, wh) = wiener_bounds(km, kf, phi).map_err(|e| e.to_string())?;
        let (hl, hh) = hashin_shtrikman_bounds(km, kf, phi).map_err(|e| e.to_string())?;
        // HS within Wiener.
        ensure!(hl.value() >= wl.value() - 1e-9);
        ensure!(hh.value() <= wh.value() + 1e-9);
        // Models within Wiener (MG additionally equals HS-).
        for k in [
            maxwell_garnett(km, kf, phi).map_err(|e| e.to_string())?,
            bruggeman(km, kf, phi).map_err(|e| e.to_string())?,
            lewis_nielsen(km, kf, phi, FillerShape::Sphere).map_err(|e| e.to_string())?,
        ] {
            ensure!(k.value() >= wl.value() - 1e-9, "below Wiener-: {k}");
            ensure!(k.value() <= wh.value() + 1e-9, "above Wiener+: {k}");
        }
        let mg = maxwell_garnett(km, kf, phi).map_err(|e| e.to_string())?;
        ensure!((mg.value() - hl.value()).abs() < 1e-9 * hl.value());
        Ok(())
    });
}

#[test]
fn saturation_curves_are_monotone() {
    let gen = Gen::usize_range(0, 5).zip(&Gen::f64_range(0.02, 0.98));
    check(0xa11f_0006, CASES, &gen, |&(fluid_idx, f)| {
        let fluids = [
            WorkingFluid::water(),
            WorkingFluid::ammonia(),
            WorkingFluid::acetone(),
            WorkingFluid::methanol(),
            WorkingFluid::ethanol(),
        ];
        let fluid = &fluids[fluid_idx];
        let lo = fluid.min_temperature().value();
        let hi = fluid.max_temperature().value();
        let t1 = Celsius::new(lo + f * (hi - lo) * 0.5);
        let t2 = Celsius::new(lo + (0.5 + f * 0.5) * (hi - lo));
        let s1 = fluid.saturation(t1).map_err(|e| e.to_string())?;
        let s2 = fluid.saturation(t2).map_err(|e| e.to_string())?;
        ensure!(s2.pressure.value() > s1.pressure.value());
        ensure!(s2.surface_tension <= s1.surface_tension + 1e-12);
        ensure!(s2.liquid_viscosity <= s1.liquid_viscosity + 1e-12);
        ensure!(s1.vapor_density.value() < s1.liquid_density.value());
        Ok(())
    });
}

#[test]
fn air_properties_stay_physical() {
    check(0xa11f_0007, CASES, &Gen::f64_range(-60.0, 250.0), |&t| {
        let air = air_at_sea_level(Celsius::new(t));
        ensure!(air.density.value() > 0.5 && air.density.value() < 2.0);
        ensure!(air.prandtl() > 0.6 && air.prandtl() < 0.8);
        ensure!(air.kinematic_viscosity() > 0.0);
        Ok(())
    });
}

/// A generator for a small but non-degenerate optimizer scenario:
/// (seed, (tilt°, ambient °C), base power W).
fn gen_optimize_scenario() -> Gen<(u64, (f64, f64), f64)> {
    tuple3(
        &Gen::u64_any(),
        &Gen::f64_range(0.0, 40.0).zip(&Gen::f64_range(10.0, 55.0)),
        &Gen::f64_range(40.0, 200.0),
    )
}

fn small_run(seed: u64, tilt_deg: f64, ambient: f64, power: f64, sweep: &Sweep) -> OptimizeResult {
    let ctx = EvalContext::new(
        Celsius::new(ambient),
        Power::new(power),
        tilt_deg.to_radians(),
    );
    let config = OptimizerConfig {
        population: 16,
        generations: 5,
        seed,
        ..OptimizerConfig::default()
    };
    Optimizer::new(DesignSpace::default(), config).run(&ctx, sweep)
}

#[test]
fn pareto_front_is_mutually_nondominated() {
    check(
        0xa11f_000b,
        16,
        &gen_optimize_scenario(),
        |&(seed, (tilt, ambient), power)| {
            let result = small_run(seed, tilt, ambient, power, &Sweep::serial());
            ensure!(!result.front.is_empty(), "empty front");
            for a in result.front.points() {
                ensure!(
                    a.minimized().iter().all(|v| v.is_finite()),
                    "non-finite objective on the front"
                );
                for b in result.front.points() {
                    ensure!(
                        !dominates(&a.minimized(), &b.minimized()),
                        "front member dominates another: {:?} > {:?}",
                        a.minimized(),
                        b.minimized()
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn pareto_front_covers_every_dominated_sample() {
    check(
        0xa11f_000c,
        16,
        &gen_optimize_scenario(),
        |&(seed, (tilt, ambient), power)| {
            let result = small_run(seed, tilt, ambient, power, &Sweep::serial());
            // Every survivor of the final population — front members
            // included — must be covered (equalled or dominated) by the
            // front; nothing evolved may escape it.
            for p in &result.population {
                ensure!(
                    result.front.covers(&p.minimized()),
                    "population point {:?} not covered by the front",
                    p.minimized()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn optimizer_is_bitwise_reproducible_from_seed() {
    check(
        0xa11f_000d,
        8,
        &gen_optimize_scenario(),
        |&(seed, (tilt, ambient), power)| {
            let serial = small_run(seed, tilt, ambient, power, &Sweep::serial());
            let again = small_run(seed, tilt, ambient, power, &Sweep::serial());
            // `with_grain(1)` overrides the optimizer's evaluation grain
            // hint, so the three workers really run.
            let threaded = small_run(seed, tilt, ambient, power, &Sweep::new(3).with_grain(1));
            ensure!(
                serial.front.fingerprint() == again.front.fingerprint(),
                "same seed, same sweep: fingerprints diverge"
            );
            ensure!(
                serial.front.fingerprint() == threaded.front.fingerprint(),
                "thread count changed the front"
            );
            ensure!(serial.front == threaded.front, "fronts not bitwise equal");
            ensure!(serial.evaluations == 16 * 6, "evaluation budget drifted");
            Ok(())
        },
    );
}

#[test]
fn board_temperature_is_monotone_in_power() {
    let gen = tuple3(
        &Gen::f64_range(5.0, 60.0),
        &Gen::f64_range(1.1, 3.0),
        &Gen::f64_range(20.0, 70.0),
    );
    check(0xa11f_0008, CASES, &gen, |&(p1, factor, amb)| {
        let geometry = ModuleGeometry::default();
        let ambient = Celsius::new(amb);
        let mode = CoolingMode::ConductionCooled {
            rail_temperature: ambient + TempDelta::new(10.0),
        };
        let t_low = predict_board_temperature(&mode, &geometry, Power::new(p1), ambient)
            .map_err(|e| e.to_string())?;
        let t_high = predict_board_temperature(&mode, &geometry, Power::new(p1 * factor), ambient)
            .map_err(|e| e.to_string())?;
        ensure!(t_high > t_low, "power ×{factor} did not raise the board");
        Ok(())
    });
}
