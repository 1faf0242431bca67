//! Sweep-engine benchmark: the Fig 10 power grid, a harmonic frequency
//! sweep, a random-vibration PSD integral, a finite-volume
//! power-derating sweep and a climb–cruise–descent mission sweep, each
//! run serially and in parallel at 1/2/4 threads, plus the 90-minute
//! orbit-cycle mission gates (≥ 10⁴ adaptive steps with factor reuse;
//! adaptive ≥ 3× fewer steps than fixed dt at equal final-field
//! error) and the NSGA-II optimizer gate (≥ 10⁶ scenario evaluations
//! with a bit-identical Pareto front at 1/2/8 threads), and the
//! mission preconditioner crossover table (`mission_precond`: the orbit
//! plate flown with IC(0) and with multigrid at 8³–64³ and two plate
//! shapes, wall per step and setup/reuse counts, gated on field
//! agreement and 1-vs-2-thread trajectory identity).
//! Emits `BENCH_sweeps.json` at the repository root with
//! walls, speedups, rolled-up solver statistics and the pattern-cache
//! hit counts, plus the observability run report
//! (`BENCH_obs_report.json`), and **exits non-zero if any sweep is not
//! bit-identical across thread counts**.
//!
//! Rows timed with more threads than the machine has are tagged
//! `"oversubscribed": true` and excluded from the wall-time and speedup
//! checks — their "speedups" measure scheduler contention, not the
//! engine. The bit-identity gate covers every row: its verdict does not
//! depend on the clock.
//!
//! Run with `cargo bench -p aeropack-bench --bench sweeps`; pass
//! `-- --smoke` for the tiny offline CI gate (small grids, threads
//! 1 and 2, no JSON file written).

use std::time::{Duration, Instant};

use aeropack_bench::{fmt_duration, time_mean};
use aeropack_core::{representative_board, CoolingMode, Level2Model, SeatStructure, SebModel};
use aeropack_envqual::Do160Curve;
use aeropack_fem::{
    modal, random_response_with_stats, Dof, HarmonicResponse, PlateMesh, PlateProperties,
};
use aeropack_materials::Material;
use aeropack_mission::{
    sweep_missions, AdaptiveConfig, MissionConfig, MissionDriver, MissionProfile, Orbit,
    RadiatingFace, Scheme, StepControl,
};
use aeropack_optimize::{DesignSpace, EvalContext, Optimizer, OptimizerConfig};
use aeropack_solver::{Precond, SolverConfig, SpectralStats};
use aeropack_sweep::{ScenarioStats, Sweep, SweepStats};
use aeropack_thermal::{Face, FaceBc, FvGrid, FvModel, FV_SWEEP_GRAIN};
use aeropack_units::{Celsius, Frequency, HeatTransferCoeff, Length, Power};

/// Environment variable through which `scripts/bench.sh` hands the real
/// hardware thread count (from `nproc`) to the bench, so the
/// oversubscription tagging reflects the machine even where
/// `available_parallelism` sees a cgroup limit instead of the CPUs.
const HW_THREADS_ENV: &str = "AEROPACK_HW_THREADS";

fn hardware_threads() -> usize {
    std::env::var(HW_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// One benchmarked sweep: timings per thread count, the stats roll-up
/// from the widest run, and the cross-thread-count determinism verdict.
struct SweepRecord {
    name: &'static str,
    scenarios: usize,
    /// `(threads, mean wall)` pairs, serial first.
    walls: Vec<(usize, Duration)>,
    stats: SweepStats,
    deterministic: bool,
}

impl SweepRecord {
    fn speedup(&self, threads: usize) -> Option<f64> {
        let serial = self.walls.iter().find(|(t, _)| *t == 1)?.1;
        let at = self.walls.iter().find(|(t, _)| *t == threads)?.1;
        Some(serial.as_secs_f64() / at.as_secs_f64())
    }

    /// Whether any timed configuration asked for more threads than the
    /// machine can actually run in parallel.
    fn oversubscribed(&self, hardware_threads: usize) -> bool {
        self.walls.iter().any(|(t, _)| *t > hardware_threads)
    }
}

/// Folds a deterministic error message into the fingerprint stream so
/// failed scenarios participate in the bit-identity check too.
fn fold_str(bits: &mut Vec<u64>, s: &str) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    bits.push(h);
}

/// Runs `fingerprint` at every thread count and reports whether all
/// runs produced bit-identical streams.
fn check_identical(thread_counts: &[usize], fingerprint: impl Fn(usize) -> Vec<u64>) -> bool {
    let reference = fingerprint(1);
    thread_counts.iter().all(|&t| fingerprint(t) == reference)
}

fn seb_models(smoke: bool) -> Vec<SebModel> {
    let mut configs = vec![
        SebModel::cosee(SeatStructure::aluminum(), false, 0.0).expect("model"),
        SebModel::cosee(SeatStructure::aluminum(), true, 0.0).expect("model"),
    ];
    if !smoke {
        configs.push(
            SebModel::cosee(SeatStructure::aluminum(), true, 22f64.to_radians()).expect("model"),
        );
    }
    configs
}

/// The Level-2 board refinement behind the Fig 10 grid: a
/// conduction-cooled representative board whose power is rescaled per
/// grid point. Primed once so every sweep solve hits the symbolic
/// pattern cache — this is the FV hot path the seb_fig10 row used to
/// skip entirely (its lumped SEB solves are bisection-only, so the row
/// reported `cache_hits: 0`).
fn fig10_board(ambient: Celsius) -> Level2Model {
    let pcb = representative_board("fig10 board", Power::new(60.0)).expect("board");
    let mut board = Level2Model::new(
        &pcb,
        &CoolingMode::ConductionCooled {
            rail_temperature: Celsius::new(40.0),
        },
        ambient,
        Length::from_millimeters(5.0),
    )
    .expect("level-2 model");
    board.set_solver_config(SolverConfig::new().preconditioner(Precond::Ic0));
    board.solve().expect("prime solve");
    board
}

fn bench_seb_fig10(smoke: bool, thread_counts: &[usize]) -> SweepRecord {
    let ambient = Celsius::new(25.0);
    let configs = seb_models(smoke);
    let n_powers = if smoke { 4 } else { 11 };
    let powers: Vec<Power> = (1..=n_powers)
        .map(|i| Power::new(10.0 * i as f64))
        .collect();
    let board = fig10_board(ambient);
    let board_scales: Vec<f64> = powers.iter().map(|p| p.value() / 60.0).collect();

    // One grid evaluation = the lumped SEB sweep plus the Level-2 board
    // refinement sweep. The board sweep gives each worker a clone of the
    // primed model (shared pattern, private workspace) and reports the
    // per-scenario pattern-cache delta, so the roll-up finally counts
    // real FV cache hits.
    let run = |threads: usize| {
        let (rows, mut stats) =
            SebModel::power_sweep(&configs, &powers, ambient, &Sweep::new(threads));
        let (board_temps, board_stats) = Sweep::new(threads)
            .grain_hint(FV_SWEEP_GRAIN)
            .map_stats_with(
                &board_scales,
                || (board.clone(), 0usize, 0usize),
                |(model, seen_hits, seen_misses), &scale| {
                    let field = model
                        .fv_model()
                        .solve_steady_scaled(scale)
                        .expect("board solve");
                    let solver = model.last_solve_stats().expect("board stats");
                    let (hits, misses) = model.pattern_cache_stats();
                    let s = ScenarioStats::from_solver(&solver)
                        .with_cache(hits - *seen_hits, misses - *seen_misses);
                    *seen_hits = hits;
                    *seen_misses = misses;
                    (field.summary().expect("non-degenerate board field").max, s)
                },
            );
        stats.scenarios += board_stats.scenarios;
        stats.total_iterations += board_stats.total_iterations;
        stats.total_solve_time += board_stats.total_solve_time;
        stats.cache_hits += board_stats.cache_hits;
        stats.cache_misses += board_stats.cache_misses;
        stats.converged += board_stats.converged;
        (rows, board_temps, stats)
    };
    let fingerprint = |threads: usize| {
        let (rows, board_temps, _) = run(threads);
        let mut bits = Vec::new();
        for row in &rows {
            for point in row {
                match point {
                    Ok(state) => bits.push(state.dt_pcb_air(ambient).kelvin().to_bits()),
                    Err(e) => fold_str(&mut bits, &e.to_string()),
                }
            }
        }
        for t in &board_temps {
            bits.push(t.value().to_bits());
        }
        bits
    };
    let deterministic = check_identical(thread_counts, fingerprint);

    let iters = if smoke { 1 } else { 3 };
    let walls: Vec<(usize, Duration)> = thread_counts
        .iter()
        .map(|&t| (t, time_mean(0, iters, || run(t))))
        .collect();
    let stats = run(*thread_counts.last().expect("thread counts")).2;

    SweepRecord {
        name: "seb_fig10",
        scenarios: configs.len() * powers.len() + board_scales.len(),
        walls,
        stats,
        deterministic,
    }
}

fn bench_harmonic(smoke: bool, thread_counts: &[usize]) -> SweepRecord {
    let props = PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(2.4))
        .expect("props")
        .with_smeared_mass(4.0);
    let mut mesh = PlateMesh::rectangular(0.14, 0.09, 6, 4, &props).expect("mesh");
    mesh.pin_all_edges().expect("bc");
    let modes = modal(&mesh.model, 4).expect("modal");
    let resp = HarmonicResponse::new(&mesh.model, &modes, 0.03).expect("resp");
    let node = mesh.center_node();
    let points = if smoke { 40 } else { 600 };

    // `sweep_with_stats` records a real per-point `ScenarioStats` —
    // modal-sum work units and measured wall time — so the bench row no
    // longer reports the silent zeros of the old `Sweep::map` path.
    let run = |threads: usize| {
        resp.sweep_with_stats(
            &Sweep::new(threads),
            node,
            Dof::W,
            Frequency::new(20.0),
            Frequency::new(2000.0),
            points,
        )
        .expect("sweep")
    };
    let fingerprint = |threads: usize| {
        run(threads)
            .0
            .iter()
            .flat_map(|(f, a)| [f.value().to_bits(), a.to_bits()])
            .collect::<Vec<u64>>()
    };
    let deterministic = check_identical(thread_counts, fingerprint);

    let iters = if smoke { 1 } else { 5 };
    let walls: Vec<(usize, Duration)> = thread_counts
        .iter()
        .map(|&t| (t, time_mean(0, iters, || run(t))))
        .collect();
    let stats = run(*thread_counts.last().expect("thread counts")).1;

    SweepRecord {
        name: "harmonic_sweep",
        scenarios: points,
        walls,
        stats,
        deterministic,
    }
}

fn bench_random_psd(smoke: bool, thread_counts: &[usize]) -> SweepRecord {
    let props = PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(2.4))
        .expect("props")
        .with_smeared_mass(4.0);
    let (nx, ny) = if smoke { (4, 3) } else { (6, 4) };
    let mut mesh = PlateMesh::rectangular(0.14, 0.09, nx, ny, &props).expect("mesh");
    mesh.pin_all_edges().expect("bc");
    let modes = modal(&mesh.model, 4).expect("modal");
    let resp = HarmonicResponse::new(&mesh.model, &modes, 0.03).expect("resp");
    let node = mesh.center_node();
    let psd = Do160Curve::C1.psd();

    let run = |threads: usize| {
        random_response_with_stats(&Sweep::new(threads), &resp, node, Dof::W, &psd)
            .expect("random response")
    };
    let fingerprint = |threads: usize| {
        let (r, _) = run(threads);
        vec![
            r.accel_grms.to_bits(),
            r.disp_rms.to_bits(),
            r.characteristic_frequency.value().to_bits(),
        ]
    };
    let deterministic = check_identical(thread_counts, fingerprint);

    let iters = if smoke { 1 } else { 5 };
    let walls: Vec<(usize, Duration)> = thread_counts
        .iter()
        .map(|&t| (t, time_mean(0, iters, || run(t))))
        .collect();
    let stats = run(*thread_counts.last().expect("thread counts")).1;

    SweepRecord {
        name: "random_psd",
        scenarios: stats.scenarios,
        walls,
        stats,
        deterministic,
    }
}

fn board_model(n: usize) -> FvModel {
    let grid = FvGrid::new((0.16, 0.10, 0.0016), (n, n * 5 / 8, 1)).expect("grid");
    let mut model = FvModel::new(grid, &Material::fr4());
    model
        .add_power_box(Power::new(30.0), (n / 3, n / 4, 0), (n / 2, n / 2, 1))
        .expect("source");
    model.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(50.0),
            ambient: Celsius::new(40.0),
        },
    );
    model
}

fn bench_fv_power_scale(smoke: bool, thread_counts: &[usize]) -> SweepRecord {
    let mut base = board_model(if smoke { 8 } else { 32 });
    base.set_solver_config(SolverConfig::new().preconditioner(Precond::Ic0));
    // Prime the symbolic pattern once; every sweep clone then shares it
    // and reassembles values only.
    base.solve_steady().expect("prime solve");
    let n_scales = if smoke { 4 } else { 12 };
    let scales: Vec<f64> = (0..n_scales).map(|i| 0.5 + 0.1 * i as f64).collect();

    // One primed clone per *worker*, not per scenario: a worker's model
    // keeps its warm `PcgWorkspace` — with the cached RCM permutation
    // and IC(0) factor inside — across every scale in its block, which
    // is the sweep shape `solve_steady_scaled` exists for. The
    // `FV_SWEEP_GRAIN` hint routes short grids (this one: 12 points)
    // onto the serial fast path, where the old per-scenario-clone code
    // showed 0.90× "speedups" — thread spawn plus per-worker warm-up
    // costing more than the solves.
    let run = |threads: usize| {
        Sweep::new(threads)
            .grain_hint(FV_SWEEP_GRAIN)
            .map_stats_with(
                &scales,
                || (base.clone(), 0usize, 0usize),
                |(model, seen_hits, seen_misses), &scale| {
                    let field = model.solve_steady_scaled(scale).expect("solve");
                    let solver = model.last_solve_stats().expect("stats");
                    let (hits, misses) = model.pattern_cache_stats();
                    let s = ScenarioStats::from_solver(&solver)
                        .with_cache(hits - *seen_hits, misses - *seen_misses);
                    *seen_hits = hits;
                    *seen_misses = misses;
                    (field.summary().expect("non-degenerate field"), s)
                },
            )
    };
    let fingerprint = |threads: usize| {
        run(threads)
            .0
            .iter()
            .flat_map(|s| {
                [
                    s.min.value().to_bits(),
                    s.max.value().to_bits(),
                    s.mean.value().to_bits(),
                ]
            })
            .collect::<Vec<u64>>()
    };
    let deterministic = check_identical(thread_counts, fingerprint);

    let iters = if smoke { 1 } else { 3 };
    let walls: Vec<(usize, Duration)> = thread_counts
        .iter()
        .map(|&t| (t, time_mean(0, iters, || run(t))))
        .collect();
    let stats = run(*thread_counts.last().expect("thread counts")).1;

    SweepRecord {
        name: "fv_power_scale",
        scenarios: scales.len(),
        walls,
        stats,
        deterministic,
    }
}

/// A dissipating equipment plate for mission benches.
fn mission_model(nx: usize, ny: usize, nz: usize) -> FvModel {
    let grid = FvGrid::new((0.16, 0.10, 0.012), (nx, ny, nz)).expect("grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(
            Power::new(25.0),
            (nx / 4, ny / 4, 0),
            (3 * nx / 4, 3 * ny / 4, (nz / 2).max(1)),
        )
        .expect("source");
    model
}

/// The climb–cruise–descent mission sweep: one SEB-style plate flown
/// through a ladder of cruise altitudes in parallel, timed per thread
/// count and gated on bit-identical trajectories (adaptive step
/// sequence + final field, folded into each summary's
/// `trajectory_hash`).
fn bench_mission(smoke: bool, thread_counts: &[usize]) -> SweepRecord {
    let model = mission_model(if smoke { 8 } else { 16 }, if smoke { 5 } else { 10 }, 2);
    let (climb_s, cruise_s, descent_s) = if smoke {
        (60.0, 240.0, 60.0)
    } else {
        (600.0, 3_000.0, 600.0)
    };
    let n_altitudes = if smoke { 4 } else { 8 };
    let profiles: Vec<MissionProfile> = (0..n_altitudes)
        .map(|i| {
            let alt = 3_000.0 + 1_250.0 * i as f64;
            MissionProfile::climb_cruise_descent(
                alt,
                (climb_s, cruise_s, descent_s),
                HeatTransferCoeff::new(40.0),
            )
            .expect("profile")
        })
        .collect();
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig {
            dt_max: if smoke { 10.0 } else { 30.0 },
            ..AdaptiveConfig::default()
        }))
        .convective_face(Face::ZMax);
    let initial = Celsius::new(15.0);

    let run = |threads: usize| {
        let runner = Sweep::new(threads).with_grain(1);
        sweep_missions(&model, &profiles, &config, initial, &runner)
    };
    let fingerprint = |threads: usize| {
        let (rows, _) = run(threads);
        let mut bits = Vec::new();
        for row in &rows {
            match row {
                Ok(s) => {
                    bits.push(s.trajectory_hash);
                    bits.push(s.final_mean_c.to_bits());
                    bits.push(s.peak_c.to_bits());
                }
                Err(e) => fold_str(&mut bits, &e.to_string()),
            }
        }
        bits
    };
    let deterministic = check_identical(thread_counts, fingerprint);

    let iters = if smoke { 1 } else { 3 };
    let walls: Vec<(usize, Duration)> = thread_counts
        .iter()
        .map(|&t| (t, time_mean(0, iters, || run(t))))
        .collect();
    let (rows, stats) = run(*thread_counts.last().expect("thread counts"));
    for row in &rows {
        let summary = row.as_ref().expect("mission solves");
        assert!(
            summary.factor_reuses > 0,
            "mission solves must reuse preconditioner factors across steps"
        );
    }

    SweepRecord {
        name: "bench_mission",
        scenarios: profiles.len(),
        walls,
        stats,
        deterministic,
    }
}

/// The orbit-cycle mission report: scale (step count, factor reuse on
/// the 32³ grid in full mode) and the adaptive-vs-fixed step-count
/// ratio at matched final-field error.
struct MissionOrbitReport {
    cells: usize,
    accepted_steps: usize,
    factor_reuses: usize,
    matrix_reuses: usize,
    adaptive_steps: usize,
    adaptive_error_k: f64,
    fixed_dt_s: f64,
    fixed_steps: usize,
    fixed_error_k: f64,
}

fn run_orbit(
    model: &FvModel,
    profile: &MissionProfile,
    control: StepControl,
) -> (Vec<f64>, aeropack_mission::MissionStats) {
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(control)
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        })
        .max_steps(2_000_000);
    let mut driver = MissionDriver::new(model.clone(), profile.clone(), config, Celsius::new(20.0))
        .expect("orbit driver");
    driver.run_to_end().expect("orbit mission");
    let stats = *driver.stats();
    (driver.temperatures().to_vec(), stats)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The 90-minute orbit-cycle gates behind the mission tentpole:
///
/// 1. **Adaptive efficiency** — on a small radiating plate, the
///    adaptive controller must reach the accuracy of the matching
///    fixed-dt run with ≥ 3× fewer accepted steps. The fixed dt is the
///    coarsest rung of a refinement ladder whose final-field error
///    (against a fine fixed-dt reference) does not exceed the adaptive
///    run's error.
/// 2. **Scale** (full mode) — the same orbit at 32³ must complete
///    ≥ 10⁴ adaptive steps with warm-solve factor reuse engaged.
fn bench_mission_orbit(smoke: bool) -> MissionOrbitReport {
    let orbit = Orbit::leo_90min();
    let profile = MissionProfile::orbit_cycle(&orbit, 1).expect("orbit profile");

    // --- Adaptive-vs-fixed at matched error (both modes, small grid).
    let study_model = mission_model(6, 5, 2);
    let adaptive = StepControl::Adaptive(AdaptiveConfig {
        dt_max: 120.0,
        ..AdaptiveConfig::default()
    });
    let (reference, _) = run_orbit(&study_model, &profile, StepControl::Fixed { dt: 1.0 });
    let (adaptive_field, adaptive_stats) = run_orbit(&study_model, &profile, adaptive);
    let adaptive_error = max_abs_diff(&adaptive_field, &reference);
    let mut fixed_pick = None;
    for dt in [
        96.0, 64.0, 48.0, 32.0, 24.0, 16.0, 12.0, 8.0, 6.0, 4.0, 3.0, 2.0,
    ] {
        let (field, stats) = run_orbit(&study_model, &profile, StepControl::Fixed { dt });
        let err = max_abs_diff(&field, &reference);
        if err <= adaptive_error {
            fixed_pick = Some((dt, stats.accepted, err));
            break;
        }
    }
    let (fixed_dt, fixed_steps, fixed_error) =
        fixed_pick.expect("some fixed dt must reach the adaptive error");
    assert!(
        fixed_steps >= 3 * adaptive_stats.accepted,
        "adaptive must take ≥ 3× fewer steps than fixed dt at equal error: \
         adaptive {} steps (err {adaptive_error:.3e} K) vs fixed dt={fixed_dt}s \
         {fixed_steps} steps (err {fixed_error:.3e} K)",
        adaptive_stats.accepted
    );

    // --- Scale leg: ≥ 10⁴ adaptive steps with factor reuse. ----------
    let (scale_model, scale_control) = if smoke {
        // Smoke keeps the shape (step floor via dt_max) on a tiny grid.
        (
            mission_model(5, 4, 2),
            StepControl::Adaptive(AdaptiveConfig {
                dt_max: orbit.period_s / 1.0e4,
                dt_init: orbit.period_s / 4.0e4,
                ..AdaptiveConfig::default()
            }),
        )
    } else {
        let grid = FvGrid::new((0.32, 0.32, 0.32), (32, 32, 32)).expect("grid");
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(120.0), (8, 8, 8), (24, 24, 24))
            .expect("source");
        (
            model,
            StepControl::Adaptive(AdaptiveConfig {
                dt_max: orbit.period_s / 1.2e4,
                dt_init: orbit.period_s / 4.8e4,
                ..AdaptiveConfig::default()
            }),
        )
    };
    let (_, scale_stats) = run_orbit(&scale_model, &profile, scale_control);
    assert!(
        scale_stats.accepted >= 10_000,
        "the orbit cycle must take ≥ 10⁴ adaptive steps, took {}",
        scale_stats.accepted
    );
    assert!(
        scale_stats.factor_reuses > 0,
        "long missions must reuse preconditioner factors across steps"
    );
    assert!(
        scale_stats.matrix_reuses > scale_stats.matrix_rebuilds,
        "the dt quantizer must hold the θ-system steady most steps: \
         {} reuses vs {} rebuilds",
        scale_stats.matrix_reuses,
        scale_stats.matrix_rebuilds
    );

    MissionOrbitReport {
        cells: scale_model.grid().cell_count(),
        accepted_steps: scale_stats.accepted,
        factor_reuses: scale_stats.factor_reuses,
        matrix_reuses: scale_stats.matrix_reuses,
        adaptive_steps: adaptive_stats.accepted,
        adaptive_error_k: adaptive_error,
        fixed_dt_s: fixed_dt,
        fixed_steps,
        fixed_error_k: fixed_error,
    }
}

/// One row of the mission preconditioner crossover table: the orbit
/// plate at one grid shape, flown under one explicit preconditioner.
struct MissionPrecondRow {
    shape: (usize, usize, usize),
    precond: &'static str,
    steps: usize,
    solves: usize,
    /// Mean wall per accepted step at 1 solver thread.
    wall_per_step: Duration,
    /// Solves that set the preconditioner up (multigrid hierarchy
    /// rebuilds / IC(0) factorisations).
    setups: usize,
    /// Solves that reused the cached factor or hierarchy.
    reuses: usize,
    iterations_per_solve: f64,
    /// `max |T_ic0 − T_mg|` at the end of this shape's flights, K.
    field_diff_k: f64,
    /// Trajectory fingerprint identical at 1 and 2 solver threads.
    deterministic: bool,
}

/// Accepted-step budget per flight: whole-orbit flights on small grids,
/// a fixed amount of cell-steps on large ones (a 64³ plate takes ~10⁵
/// adaptive steps per orbit), never fewer than 10 steps.
const PRECOND_CELL_STEPS: usize = 2_500_000;

/// Flies the LEO orbit plate of the `orbit_mission` benchmark
/// (0.15 × 0.15 × 0.012 m aluminium, 25 W box, radiating `ZMax` face)
/// at `shape` under `precond` for up to `max_steps` accepted steps.
/// Returns the final field, the mission counters, the wall and the
/// trajectory fingerprint.
fn fly_orbit_plate(
    shape: (usize, usize, usize),
    precond: Precond,
    threads: usize,
    max_steps: usize,
) -> (Vec<f64>, aeropack_mission::MissionStats, Duration, u64) {
    let (nx, ny, nz) = shape;
    let grid = FvGrid::new((0.15, 0.15, 0.012), shape).expect("grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(
            Power::new(25.0),
            (nx / 4, ny / 4, 0),
            (nx / 4 + nx / 2, ny / 4 + ny / 2, (nz / 4).max(1)),
        )
        .expect("source");
    model.set_solver_config(SolverConfig::new().preconditioner(precond).threads(threads));
    let profile = MissionProfile::orbit_cycle(&Orbit::leo_90min(), 1).expect("orbit profile");
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig::default()))
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        });
    let mut driver =
        MissionDriver::new(model, profile, config, Celsius::new(20.0)).expect("orbit driver");
    let start = Instant::now();
    for _ in 0..max_steps {
        if driver.finished() {
            break;
        }
        driver.step().expect("orbit step");
    }
    let wall = start.elapsed();
    (
        driver.temperatures().to_vec(),
        *driver.stats(),
        wall,
        driver.trajectory_fingerprint(),
    )
}

/// The crossover table behind the mission driver's preconditioner
/// rule: the orbit plate flown with IC(0) and with multigrid at 8³ to
/// 64³ and at the 20×20×4 and 64×64×8 plate shapes (smoke: 8³ and
/// 20×20×4). Each flight is timed at 1 solver thread and re-flown at 2;
/// the gates are correctness only — the two preconditioners must end
/// within 1e-8 K of each other, and every trajectory must be
/// bit-identical at 1 and 2 threads. Walls are recorded, not gated.
fn bench_mission_precond(smoke: bool) -> Vec<MissionPrecondRow> {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(8, 8, 8), (20, 20, 4)]
    } else {
        &[
            (8, 8, 8),
            (16, 16, 16),
            (32, 32, 32),
            (64, 64, 64),
            (20, 20, 4),
            (64, 64, 8),
        ]
    };
    let mut rows: Vec<MissionPrecondRow> = Vec::new();
    for &shape in shapes {
        let cells = shape.0 * shape.1 * shape.2;
        let max_steps = (PRECOND_CELL_STEPS / cells).clamp(10, 250);
        let mut fields: Vec<Vec<f64>> = Vec::new();
        for (name, precond) in [("ic0", Precond::Ic0), ("mg", Precond::Multigrid)] {
            let (field, stats, wall, fingerprint) = fly_orbit_plate(shape, precond, 1, max_steps);
            let (_, _, _, fingerprint_2) = fly_orbit_plate(shape, precond, 2, max_steps);
            rows.push(MissionPrecondRow {
                shape,
                precond: name,
                steps: stats.accepted,
                solves: stats.solves,
                wall_per_step: wall / stats.accepted.max(1) as u32,
                setups: stats.solves - stats.factor_reuses,
                reuses: stats.factor_reuses,
                iterations_per_solve: stats.solver_iterations as f64 / stats.solves.max(1) as f64,
                field_diff_k: 0.0,
                deterministic: fingerprint == fingerprint_2,
            });
            fields.push(field);
        }
        let diff = max_abs_diff(&fields[0], &fields[1]);
        for r in rows.iter_mut().rev().take(2) {
            r.field_diff_k = diff;
        }
    }
    for r in &rows {
        let (nx, ny, nz) = r.shape;
        assert!(
            r.deterministic,
            "mission {nx}x{ny}x{nz} {}: trajectory differs between 1 and 2 solver threads",
            r.precond
        );
        assert!(
            r.field_diff_k <= 1e-8,
            "mission {nx}x{ny}x{nz}: IC(0) and multigrid final fields differ by {:.3e} K",
            r.field_diff_k
        );
    }
    rows
}

/// The NSGA-II optimizer gate: the paper's packaging trade as a
/// million-evaluation search, bit-identical at 1/2/8 threads.
struct OptimizeReport {
    population: usize,
    generations: usize,
    evaluations: u64,
    front_len: usize,
    front_hash: u64,
    /// `(threads, wall)` — one full run per thread count; the wall and
    /// the determinism fingerprint come from the same run.
    walls: Vec<(usize, Duration)>,
    deterministic: bool,
}

/// Runs the full NSGA-II search at each thread count and gates:
///
/// 1. **Scale** (full mode) — ≥ 10⁶ scenario evaluations
///    (`population × (generations + 1)`).
/// 2. **Determinism** — the Pareto front (genomes and objectives, via
///    [`ParetoFront::fingerprint`](aeropack_optimize::ParetoFront))
///    must be bit-identical at 1, 2 and 8 threads. Unlike the wall
///    gates this holds on any host: the engine's order-preserving maps
///    and serial RNG stream owe nothing to the scheduler.
fn bench_optimize(smoke: bool) -> OptimizeReport {
    // 512 × (1953 + 1) = 1 000 448 evaluations ≥ 10⁶; the population is
    // kept moderate because ranking and crowding the combined 2N
    // population, not the closed-form evaluation, is the per-generation
    // cost.
    let (population, generations) = if smoke { (32, 15) } else { (512, 1953) };
    let ctx = EvalContext::new(Celsius::new(25.0), Power::new(120.0), 22f64.to_radians());
    let config = OptimizerConfig {
        population,
        generations,
        seed: 0x0971_ca5e_0000_5eed,
        ..OptimizerConfig::default()
    };

    let thread_counts = [1usize, 2, 8];
    let mut walls = Vec::new();
    let mut fronts = Vec::new();
    let mut evaluations = 0u64;
    for &t in &thread_counts {
        let optimizer = Optimizer::new(DesignSpace::default(), config);
        let start = Instant::now();
        // `with_grain(1)` overrides the optimizer's evaluation grain
        // hint, so the 2- and 8-thread runs really evaluate in parallel.
        let result = optimizer.run(&ctx, &Sweep::new(t).with_grain(1));
        walls.push((t, start.elapsed()));
        evaluations = result.evaluations;
        fronts.push((result.front.fingerprint(), result.front));
    }
    let deterministic = fronts
        .iter()
        .all(|(hash, front)| *hash == fronts[0].0 && *front == fronts[0].1);
    assert!(
        deterministic,
        "NSGA-II Pareto front must be bit-identical at 1/2/8 threads"
    );
    if !smoke {
        assert!(
            evaluations >= 1_000_000,
            "the optimize bench must perform ≥ 10⁶ scenario evaluations, did {evaluations}"
        );
    }

    let (front_hash, front) = &fronts[0];
    OptimizeReport {
        population,
        generations,
        evaluations,
        front_len: front.len(),
        front_hash: *front_hash,
        walls,
        deterministic,
    }
}

/// One preconditioner's performance on the large-grid steady solve.
struct PrecondRow {
    precond: &'static str,
    iterations: usize,
    /// Warm-solve wall: preconditioner caches already built, the
    /// repeated-solve shape that power sweeps and the serve coalescer
    /// actually run.
    wall: Duration,
    /// Preconditioner setup cost of the *cold* first solve (factor /
    /// power method / hierarchy build).
    cold_setup_seconds: f64,
    iterate_seconds: f64,
    factor_seconds: f64,
    fill_nnz: usize,
    forward_levels: usize,
    reordered: bool,
    spectral: Option<SpectralStats>,
    max_abs_diff_vs_jacobi: f64,
    /// What the config asked for vs what the solver actually ran —
    /// distinct when a preconditioner resolves to a substitute (MG
    /// without grid dims falls back to Chebyshev).
    requested_precond: String,
    effective_precond: String,
}

/// The full fv_large report: grid size, the oversubscription verdict
/// (single-hardware-thread hosts cannot time the wall gate
/// meaningfully) and one row per preconditioner.
struct FvLargeReport {
    cells: usize,
    oversubscribed: bool,
    rows: Vec<PrecondRow>,
    /// Multigrid PCG iterations on the half-resolution (32³) grid in
    /// full mode — the mesh-independence reference.
    mg_iterations_half: Option<usize>,
}

fn fv_large_model(n: usize) -> FvModel {
    let grid = FvGrid::new((0.1, 0.1, 0.1), (n, n, n)).expect("grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(
            Power::new(80.0),
            (n / 4, n / 4, n / 4),
            (n / 2, n / 2, n / 2),
        )
        .expect("source");
    model.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(25.0),
            ambient: Celsius::new(30.0),
        },
    );
    model
}

/// The large-grid preconditioner comparison behind the tentpole claim,
/// gated on **wall time**: on the 64³ FV solve the best barrier-free
/// preconditioner (multigrid or Chebyshev) must beat the Jacobi warm
/// wall by ≥ 1.3× in full mode. The wall gate only applies on hosts
/// with ≥ 2 hardware threads (elsewhere the OS scheduler owns the
/// clock); field parity vs Jacobi (≤ 1e-4 K) and the iteration gates —
/// IC(0) halves Jacobi's count, multigrid converges in ≤ 40 iterations
/// at 64³ and within 1.5× of its 32³ count (mesh independence) — are
/// enforced always.
fn bench_fv_large(smoke: bool, hardware_threads: usize) -> FvLargeReport {
    let n = if smoke { 20 } else { 64 };
    let oversubscribed = hardware_threads < 2;
    let mut model = fv_large_model(n);

    let mut rows: Vec<PrecondRow> = Vec::new();
    let mut jacobi_field: Vec<f64> = Vec::new();
    for (name, precond) in [
        ("jacobi", Precond::Jacobi),
        ("ic0", Precond::Ic0),
        ("chebyshev", Precond::Chebyshev(4)),
        ("mg", Precond::Multigrid),
    ] {
        model.set_solver_config(
            SolverConfig::new()
                .preconditioner(precond)
                .threads(1)
                .tolerance(1e-10),
        );
        // Cold solve: pays the one-off preconditioner setup (factor,
        // power method, hierarchy build) and fills the workspace caches.
        model.solve_steady().expect("large-grid cold solve");
        let cold = model.last_solve_stats().expect("cold stats");
        // Warm solve: the repeated-solve shape every sweep runs.
        let start = Instant::now();
        let field = model.solve_steady().expect("large-grid warm solve");
        let wall = start.elapsed();
        let stats = model.last_solve_stats().expect("stats");
        assert!(stats.converged(), "{name} must converge on the {n}³ grid");
        let max_abs_diff_vs_jacobi = if jacobi_field.is_empty() {
            jacobi_field = field.temperatures().to_vec();
            0.0
        } else {
            field
                .temperatures()
                .iter()
                .zip(&jacobi_field)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        let (factor_seconds, fill_nnz, forward_levels, reordered) = cold
            .factorization
            .map(|f| {
                (
                    f.factor_time.as_secs_f64(),
                    f.fill_nnz,
                    f.forward_levels,
                    f.reordered,
                )
            })
            .unwrap_or((0.0, 0, 0, false));
        if let Some(spec) = stats.spectral {
            assert!(spec.reused, "{name}: warm solve must reuse spectral setup");
        }
        rows.push(PrecondRow {
            precond: name,
            iterations: stats.iterations,
            wall,
            cold_setup_seconds: cold.setup_seconds,
            iterate_seconds: stats.iterate_seconds,
            factor_seconds,
            fill_nnz,
            forward_levels,
            reordered,
            spectral: cold.spectral,
            max_abs_diff_vs_jacobi,
            requested_precond: stats.requested_preconditioner.to_string(),
            effective_precond: stats.preconditioner.to_string(),
        });
    }

    let jacobi = &rows[0];
    let ic0 = rows.iter().find(|r| r.precond == "ic0").expect("ic0 row");
    assert!(
        ic0.iterations * 2 <= jacobi.iterations,
        "IC(0)+RCM must at least halve PCG iterations vs Jacobi on the {n}³ grid: \
         {} vs {}",
        ic0.iterations,
        jacobi.iterations
    );
    assert!(ic0.reordered, "IC(0) must engage RCM");
    for r in &rows {
        assert!(
            r.max_abs_diff_vs_jacobi <= 1e-4,
            "{}: field diverged from Jacobi by {:.3e} K",
            r.precond,
            r.max_abs_diff_vs_jacobi
        );
    }
    let mg = rows.iter().find(|r| r.precond == "mg").expect("mg row");
    let mg_spec = mg.spectral.expect("mg row carries spectral stats");
    assert!(
        mg_spec.levels >= 2,
        "multigrid must actually coarsen the {n}³ grid"
    );
    assert!(
        mg_spec.galerkin_time > Duration::ZERO,
        "the cold multigrid solve runs with obs on and must report its setup phases"
    );

    let mut mg_iterations_half = None;
    if !smoke {
        assert!(
            mg.iterations <= 40,
            "multigrid must converge in ≤ 40 iterations at 64³, took {}",
            mg.iterations
        );
        // Mesh independence: the 64³ count must stay within 1.5× of the
        // 32³ count, the signature of an O(n) preconditioner.
        let mut half = fv_large_model(32);
        half.set_solver_config(
            SolverConfig::new()
                .preconditioner(Precond::Multigrid)
                .threads(1)
                .tolerance(1e-10),
        );
        half.solve_steady().expect("32³ multigrid solve");
        let half_iters = half.last_solve_stats().expect("32³ stats").iterations;
        assert!(
            (mg.iterations as f64) <= 1.5 * half_iters as f64,
            "multigrid iterations must be mesh-independent: {} at 64³ vs {} at 32³",
            mg.iterations,
            half_iters
        );
        mg_iterations_half = Some(half_iters);
        // The wall gate proper — only where the clock means something.
        if !oversubscribed {
            let best = rows
                .iter()
                .filter(|r| matches!(r.precond, "mg" | "chebyshev"))
                .map(|r| r.wall.as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            assert!(
                best * 1.3 <= jacobi.wall.as_secs_f64(),
                "best barrier-free preconditioner ({best:.3}s) must beat the Jacobi \
                 wall ({:.3}s) by ≥ 1.3× at 1 thread",
                jacobi.wall.as_secs_f64()
            );
        }
    }
    FvLargeReport {
        cells: n * n * n,
        oversubscribed,
        rows,
        mg_iterations_half,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn emit_json(
    records: &[SweepRecord],
    fv_large: &FvLargeReport,
    mission_orbit: &MissionOrbitReport,
    mission_precond: &[MissionPrecondRow],
    optimize: &OptimizeReport,
    hardware_threads: usize,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"generated_by\": \"cargo bench -p aeropack-bench --bench sweeps\",\n");
    out.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sweeps\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(r.name)));
        out.push_str(&format!("      \"scenarios\": {},\n", r.scenarios));
        out.push_str("      \"wall_seconds\": {");
        for (j, (t, d)) in r.walls.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{t}\": {:.6}", d.as_secs_f64()));
        }
        out.push_str("},\n");
        out.push_str("      \"speedup_vs_serial\": {");
        let mut first = true;
        for (t, _) in r.walls.iter().filter(|(t, _)| *t > 1) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "\"{t}\": {:.3}",
                r.speedup(*t).unwrap_or(f64::NAN)
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "      \"total_iterations\": {},\n",
            r.stats.total_iterations
        ));
        out.push_str(&format!(
            "      \"total_solve_time_s\": {:.6},\n",
            r.stats.total_solve_time.as_secs_f64()
        ));
        out.push_str(&format!("      \"cache_hits\": {},\n", r.stats.cache_hits));
        out.push_str(&format!(
            "      \"cache_misses\": {},\n",
            r.stats.cache_misses
        ));
        out.push_str(&format!("      \"converged\": {},\n", r.stats.converged));
        out.push_str(&format!(
            "      \"oversubscribed\": {},\n",
            r.oversubscribed(hardware_threads)
        ));
        out.push_str(&format!("      \"deterministic\": {}\n", r.deterministic));
        out.push_str(if i + 1 == records.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"fv_large\": {\n");
    out.push_str(&format!("    \"cells\": {},\n", fv_large.cells));
    out.push_str(&format!(
        "    \"oversubscribed\": {},\n",
        fv_large.oversubscribed
    ));
    if let Some(half) = fv_large.mg_iterations_half {
        out.push_str(&format!("    \"mg_iterations_32cubed\": {half},\n"));
    }
    out.push_str("    \"preconditioners\": [\n");
    for (i, r) in fv_large.rows.iter().enumerate() {
        let mut row = format!(
            "      {{\"precond\": \"{}\", \"iterations\": {}, \"wall_seconds\": {:.6}, \
             \"cold_setup_seconds\": {:.6}, \"iterate_seconds\": {:.6}, \
             \"factor_seconds\": {:.6}, \"fill_nnz\": {}, \"forward_levels\": {}, \
             \"reordered\": {}, \"max_abs_diff_vs_jacobi\": {:.3e}, \
             \"requested_precond\": \"{}\", \"effective_precond\": \"{}\"",
            json_escape(r.precond),
            r.iterations,
            r.wall.as_secs_f64(),
            r.cold_setup_seconds,
            r.iterate_seconds,
            r.factor_seconds,
            r.fill_nnz,
            r.forward_levels,
            r.reordered,
            r.max_abs_diff_vs_jacobi,
            json_escape(&r.requested_precond),
            json_escape(&r.effective_precond),
        );
        if let Some(s) = &r.spectral {
            row.push_str(&format!(
                ", \"levels\": {}, \"smoother\": \"{}\", \"degree\": {}, \
                 \"eig_low\": {:.6e}, \"eig_high\": {:.6e}, \"coarse_unknowns\": {}, \
                 \"hierarchy_nnz\": {}",
                s.levels,
                json_escape(s.smoother),
                s.degree,
                s.eig_low,
                s.eig_high,
                s.coarse_unknowns,
                s.hierarchy_nnz,
            ));
            if r.precond == "mg" {
                row.push_str(&format!(
                    ", \"setup_phase_seconds\": {{\"eig_bounds\": {:.6}, \
                     \"prolongation\": {:.6}, \"galerkin\": {:.6}, \"coarse_factor\": {:.6}}}",
                    s.eig_bounds_time.as_secs_f64(),
                    s.prolongation_time.as_secs_f64(),
                    s.galerkin_time.as_secs_f64(),
                    s.coarse_factor_time.as_secs_f64(),
                ));
            }
        }
        row.push_str(&format!(
            "}}{}\n",
            if i + 1 == fv_large.rows.len() {
                ""
            } else {
                ","
            }
        ));
        out.push_str(&row);
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"mission_orbit\": {\n");
    out.push_str(&format!("    \"cells\": {},\n", mission_orbit.cells));
    out.push_str(&format!(
        "    \"accepted_steps\": {},\n",
        mission_orbit.accepted_steps
    ));
    out.push_str(&format!(
        "    \"factor_reuses\": {},\n",
        mission_orbit.factor_reuses
    ));
    out.push_str(&format!(
        "    \"matrix_reuses\": {},\n",
        mission_orbit.matrix_reuses
    ));
    out.push_str(&format!(
        "    \"adaptive_steps\": {},\n",
        mission_orbit.adaptive_steps
    ));
    out.push_str(&format!(
        "    \"adaptive_error_k\": {:.6e},\n",
        mission_orbit.adaptive_error_k
    ));
    out.push_str(&format!(
        "    \"fixed_dt_s\": {:.3},\n",
        mission_orbit.fixed_dt_s
    ));
    out.push_str(&format!(
        "    \"fixed_steps\": {},\n",
        mission_orbit.fixed_steps
    ));
    out.push_str(&format!(
        "    \"fixed_error_k\": {:.6e}\n",
        mission_orbit.fixed_error_k
    ));
    out.push_str("  },\n");
    out.push_str("  \"mission_precond\": {\n");
    out.push_str(&format!("    \"hardware_threads\": {hardware_threads},\n"));
    out.push_str("    \"solver_threads\": 1,\n");
    out.push_str("    \"rows\": [\n");
    for (i, r) in mission_precond.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"shape\": \"{}x{}x{}\", \"cells\": {}, \"precond\": \"{}\", \
             \"steps\": {}, \"solves\": {}, \"wall_per_step_ms\": {:.4}, \
             \"setups\": {}, \"reuses\": {}, \"iterations_per_solve\": {:.2}, \
             \"max_field_diff_k\": {:.3e}, \"deterministic\": {}}}{}\n",
            r.shape.0,
            r.shape.1,
            r.shape.2,
            r.shape.0 * r.shape.1 * r.shape.2,
            r.precond,
            r.steps,
            r.solves,
            r.wall_per_step.as_secs_f64() * 1e3,
            r.setups,
            r.reuses,
            r.iterations_per_solve,
            r.field_diff_k,
            r.deterministic,
            if i + 1 == mission_precond.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"bench_optimize\": {\n");
    out.push_str(&format!("    \"population\": {},\n", optimize.population));
    out.push_str(&format!("    \"generations\": {},\n", optimize.generations));
    out.push_str(&format!("    \"evaluations\": {},\n", optimize.evaluations));
    out.push_str(&format!("    \"front_len\": {},\n", optimize.front_len));
    out.push_str(&format!(
        "    \"front_hash\": \"{:016x}\",\n",
        optimize.front_hash
    ));
    out.push_str("    \"wall_seconds\": {");
    for (j, (t, d)) in optimize.walls.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{t}\": {:.6}", d.as_secs_f64()));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "    \"deterministic\": {}\n",
        optimize.deterministic
    ));
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let hardware_threads = hardware_threads();

    // The bench is also the run-report producer: record every event so
    // the emitted report carries real spans, counters and histograms.
    aeropack_obs::init_from_env();
    aeropack_obs::set_enabled(true);

    println!(
        "sweep benches ({} mode, hardware threads: {hardware_threads})",
        if smoke { "smoke" } else { "full" }
    );
    let records = [
        bench_seb_fig10(smoke, thread_counts),
        bench_harmonic(smoke, thread_counts),
        bench_random_psd(smoke, thread_counts),
        bench_fv_power_scale(smoke, thread_counts),
        bench_mission(smoke, thread_counts),
    ];
    let fv_large = bench_fv_large(smoke, hardware_threads);
    let mission_orbit = bench_mission_orbit(smoke);
    let mission_precond = bench_mission_precond(smoke);
    let optimize = bench_optimize(smoke);

    for r in &records {
        let oversub = r.oversubscribed(hardware_threads);
        println!(
            "\n{} — {} scenarios{}",
            r.name,
            r.scenarios,
            if oversub { " (oversubscribed)" } else { "" }
        );
        for (t, d) in &r.walls {
            println!("  threads={t:<2} wall {:>12}", fmt_duration(*d));
        }
        for (t, _) in r.walls.iter().filter(|(t, _)| *t > 1) {
            println!(
                "  speedup {t} threads vs serial: {:.2}x{}",
                r.speedup(*t).unwrap_or(f64::NAN),
                if *t > hardware_threads {
                    " (oversubscribed: contention, not engine)"
                } else {
                    ""
                }
            );
        }
        println!("  stats: {}", r.stats);
        println!(
            "  bit-identical across threads {:?}: {}",
            thread_counts, r.deterministic
        );
    }

    {
        println!(
            "\nfv_large — {} cells, 1 thread, tolerance 1e-10, warm walls{}",
            fv_large.cells,
            if fv_large.oversubscribed {
                " (oversubscribed: wall gate skipped)"
            } else {
                ""
            }
        );
        for r in &fv_large.rows {
            print!(
                "  {:<9} {:>5} iterations, wall {:>12}, setup {:.3} ms, \
                 Δmax vs jacobi {:.2e} K",
                r.precond,
                r.iterations,
                fmt_duration(r.wall),
                r.cold_setup_seconds * 1e3,
                r.max_abs_diff_vs_jacobi
            );
            if r.fill_nnz > 0 {
                print!(
                    ", factor {:.3} ms, fill {} nnz, {} fwd levels",
                    r.factor_seconds * 1e3,
                    r.fill_nnz,
                    r.forward_levels
                );
            }
            if let Some(s) = &r.spectral {
                print!(
                    ", {} level(s), {} smoother deg {}, eig [{:.3e}, {:.3e}], \
                     {} coarse unknowns",
                    s.levels, s.smoother, s.degree, s.eig_low, s.eig_high, s.coarse_unknowns
                );
                if r.precond == "mg" {
                    print!(
                        ", setup phases: eig-bounds {:.1} ms, prolongation {:.1} ms, \
                         Galerkin {:.1} ms, coarse factor {:.1} ms",
                        s.eig_bounds_time.as_secs_f64() * 1e3,
                        s.prolongation_time.as_secs_f64() * 1e3,
                        s.galerkin_time.as_secs_f64() * 1e3,
                        s.coarse_factor_time.as_secs_f64() * 1e3,
                    );
                }
            }
            println!();
        }
        if let Some(half) = fv_large.mg_iterations_half {
            println!("  mg mesh-independence reference: {half} iterations at 32³");
        }
    }

    {
        println!(
            "\nmission_orbit — {} cells, one 90-minute LEO cycle",
            mission_orbit.cells
        );
        println!(
            "  scale: {} adaptive steps, {} factor reuses, {} matrix reuses",
            mission_orbit.accepted_steps, mission_orbit.factor_reuses, mission_orbit.matrix_reuses
        );
        println!(
            "  equal-error study: adaptive {} steps at {:.3e} K vs fixed dt={}s \
             {} steps at {:.3e} K ({:.1}x fewer)",
            mission_orbit.adaptive_steps,
            mission_orbit.adaptive_error_k,
            mission_orbit.fixed_dt_s,
            mission_orbit.fixed_steps,
            mission_orbit.fixed_error_k,
            mission_orbit.fixed_steps as f64 / mission_orbit.adaptive_steps as f64
        );
    }

    {
        println!(
            "\nmission_precond — orbit plate, IC(0) vs multigrid, 1 solver thread \
             (hardware threads: {hardware_threads})"
        );
        for r in &mission_precond {
            println!(
                "  {:<8} {:<3} {:>4} steps, {:>9.3} ms/step, {:>4} setups, \
                 {:>4} reuses, {:>5.1} iterations/solve, |T_ic0 − T_mg| {:.1e} K",
                format!("{}x{}x{}", r.shape.0, r.shape.1, r.shape.2),
                r.precond,
                r.steps,
                r.wall_per_step.as_secs_f64() * 1e3,
                r.setups,
                r.reuses,
                r.iterations_per_solve,
                r.field_diff_k
            );
        }
    }

    {
        println!(
            "\nbench_optimize — NSGA-II, population {} × {} generations, \
             {} evaluations",
            optimize.population, optimize.generations, optimize.evaluations
        );
        for (t, d) in &optimize.walls {
            println!("  threads={t:<2} wall {:>12}", fmt_duration(*d));
        }
        println!(
            "  front: {} designs, hash {:016x}, bit-identical at 1/2/8 threads: {}",
            optimize.front_len, optimize.front_hash, optimize.deterministic
        );
    }

    // The Fig 10 row must route its FV board refinement through the
    // symbolic pattern cache: a primed model is cloned per worker, so
    // every board assembly after the prime is a cache hit. The historic
    // regression was `cache_hits: 0` — the row never touched FV at all.
    {
        let seb = records
            .iter()
            .find(|r| r.name == "seb_fig10")
            .expect("seb record");
        assert!(
            seb.stats.cache_hits > 0,
            "seb_fig10: the Level-2 board sweep must hit the CSR pattern cache"
        );
    }

    // The FV power sweep regression gate: with the `FV_SWEEP_GRAIN`
    // hint, short grids take the serial fast path instead of paying
    // thread spawn + per-worker warm-up, so parallel configurations on
    // real cores must stay within noise of serial (the checked history
    // shows 0.90× at 2 and 4 threads before the grain hint).
    {
        let fv = records
            .iter()
            .find(|r| r.name == "fv_power_scale")
            .expect("fv record");
        for (t, _) in fv.walls.iter().filter(|(t, _)| *t > 1) {
            if *t > hardware_threads {
                continue; // oversubscribed: scheduler noise, not engine
            }
            let speedup = fv.speedup(*t).unwrap_or(f64::NAN);
            assert!(
                speedup >= 0.95,
                "fv_power_scale at {t} threads regressed to {speedup:.2}x vs serial"
            );
        }
    }

    // The dense modal-sum rows used to report silent zeros (the old
    // `Sweep::map` path recorded no `ScenarioStats` at all); gate on
    // real work being accounted.
    for name in ["harmonic_sweep", "random_psd"] {
        let r = records
            .iter()
            .find(|r| r.name == name)
            .expect("record present");
        assert!(
            r.stats.total_iterations > 0,
            "{name}: total_iterations must be non-zero (silent-zero stats regression)"
        );
        assert!(
            r.stats.total_solve_time > Duration::ZERO,
            "{name}: total_solve_time must be non-zero (silent-zero stats regression)"
        );
    }

    let json = emit_json(
        &records,
        &fv_large,
        &mission_orbit,
        &mission_precond,
        &optimize,
        hardware_threads,
        smoke,
    );
    let report = aeropack_obs::report_json();
    let summary = aeropack_obs::validate_report(&report).expect("run report must validate");
    if smoke {
        println!("\n{json}");
        println!("obs run report: {summary}");
    } else {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let path = root.join("BENCH_sweeps.json");
        std::fs::write(&path, &json).expect("write BENCH_sweeps.json");
        println!("\nwrote {}", path.display());
        let report_path = root.join("BENCH_obs_report.json");
        std::fs::write(&report_path, &report).expect("write BENCH_obs_report.json");
        println!("wrote {} ({summary})", report_path.display());
    }
    assert!(
        summary.counter_prefix_sum("sweep.") > 0,
        "run report must carry sweep counters"
    );
    assert!(
        summary.counter_prefix_sum("solver.ic0.") > 0,
        "run report must carry IC(0) factorization counters"
    );
    assert!(
        summary.counter_prefix_sum("solver.mg.") > 0,
        "run report must carry multigrid hierarchy counters"
    );
    assert!(
        summary.counter_prefix_sum("solver.cheb.") > 0,
        "run report must carry Chebyshev spectral counters"
    );
    assert!(
        summary.counter_prefix_sum("mission.") > 0,
        "run report must carry mission-driver counters"
    );
    assert!(
        summary.counter_prefix_sum("solver.transient.") > 0,
        "run report must carry transient-solve counters"
    );
    assert!(
        summary.counter_prefix_sum("optimize.") > 0,
        "run report must carry optimizer counters"
    );
    // Honour AEROPACK_OBS_REPORT in either mode, so the CI smoke gate
    // can obs_check the emitted counters without a full bench run.
    if let Some(path) = aeropack_obs::write_env_report().expect("write env-report") {
        println!("wrote {} (AEROPACK_OBS_REPORT)", path.display());
    }

    // Every row is gated, oversubscribed or not: `check_identical`
    // compares result bits, so its verdict owes nothing to the clock or
    // the scheduler. Oversubscription only voids the wall-time and
    // speedup checks above.
    if let Some(bad) = records.iter().find(|r| !r.deterministic) {
        eprintln!(
            "NONDETERMINISM: sweep '{}' is not bit-identical across thread counts",
            bad.name
        );
        std::process::exit(1);
    }
    println!("all sweeps bit-identical across thread counts");
}
