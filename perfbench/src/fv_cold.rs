//! `fv_cold`: cold steady solves of distinct 3-D board models.
//!
//! Each seeded model (an FR-4 board under an aluminium spreader, with
//! seeded component boxes and film coefficient) is solved once with
//! multigrid and once with IC(0) at a 1e-10 tolerance, each on a fresh
//! clone that has never been solved, so every solve pays symbolic and
//! numeric set-up and nothing is reused. The unit operation is one
//! model: both cold solves, timed whole. A run solves a fixed number of
//! distinct models, [`MODELS_PER_SECOND`] per second of `--seconds`.

use std::time::Instant;

use aeropack::materials::Material;
use aeropack::solver::{Precond, SolverConfig, SolverStats};
use aeropack::thermal::{Face, FaceBc, FvField, FvGrid, FvModel, ThermalError};
use aeropack::units::{Celsius, HeatTransferCoeff, Power};

use crate::layers;
use crate::rng::Rng;
use crate::stats::{median, nearest_rank, sorted, tail_level};
use crate::trace::{SpanId, Tracer};
use crate::{repeated_setup, Outcome};

/// Grid cells along x, y, z and the board's extent, m.
const SHAPE: (usize, usize, usize) = (48, 40, 12);
const EXTENT: (f64, f64, f64) = (0.16, 0.12, 0.016);
/// Distinct models solved per second of the requested run length.
const MODELS_PER_SECOND: f64 = 7.0;
const TOLERANCE: f64 = 1e-10;
/// MG and IC(0) fields must agree this closely, K.
const AGREE_K: f64 = 1e-4;

/// One seeded board model: spreader layer over FR-4, 3–5 dissipating
/// components on the bottom layer, convection from the top face.
fn board_model(rng: &mut Rng) -> FvModel {
    let (nx, ny, nz) = SHAPE;
    let grid = FvGrid::new(EXTENT, SHAPE).expect("valid board grid");
    let mut model = FvModel::new(grid, &Material::fr4());
    model
        .fill_box(&Material::aluminum_6061(), (0, 0, nz - 3), (nx, ny, nz))
        .expect("spreader inside the grid");
    let parts = 3 + rng.below(3);
    for _ in 0..parts {
        let (w, d) = (6 + rng.below(10), 6 + rng.below(8));
        let (i, j) = (rng.below(nx - w), rng.below(ny - d));
        model
            .add_power_box(
                Power::new(rng.range(2.0, 12.0)),
                (i, j, 0),
                (i + w, j + d, 3),
            )
            .expect("component inside the grid");
    }
    model.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(rng.range(25.0, 90.0)),
            ambient: Celsius::new(rng.range(20.0, 45.0)),
        },
    );
    model
}

fn configured(base: &FvModel, precond: Precond) -> FvModel {
    let mut m = base.clone();
    m.set_solver_config(
        SolverConfig::new()
            .preconditioner(precond)
            .tolerance(TOLERANCE),
    );
    m
}

/// A cold solve inside a `thermal.solve_steady` span, with the solver's
/// own reported wall time placed as a `solver.pcg` child at its end
/// (the PCG call is the last thing `solve_steady` does).
fn traced_solve(
    tracer: &Tracer,
    parent: Option<SpanId>,
    model: &FvModel,
) -> (Result<FvField, ThermalError>, Option<SolverStats>, f64) {
    let start = Instant::now();
    let field = model.solve_steady();
    let end = Instant::now();
    let stats = model.last_solve_stats();
    let span = tracer.record("thermal.solve_steady", start, end, parent, None);
    if let Some(s) = &stats {
        let solver_start = end.checked_sub(s.wall_time).unwrap_or(start).max(start);
        tracer.record("solver.pcg", solver_start, end, span, None);
    }
    (field, stats, (end - start).as_secs_f64())
}

fn max_abs_diff(a: &FvField, b: &FvField) -> f64 {
    a.temperatures()
        .iter()
        .zip(b.temperatures())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Computed bandwidth of CSR `y = A·x`, GB/s: values and column
/// indices (8 B each per non-zero), gathered `x` (8 B per non-zero),
/// row pointers and `y` (8 B each per row). Cache reuse is ignored.
pub fn spmv_gbs(model: &FvModel) -> f64 {
    let (a, _) = model.assemble_operator();
    let x = vec![1.0; a.n()];
    let mut y = vec![0.0; a.n()];
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        a.spmv_into(std::hint::black_box(&x), &mut y, 1);
        std::hint::black_box(&y);
    }
    let secs = t0.elapsed().as_secs_f64();
    let bytes = (24 * a.nnz() + 16 * a.n()) as f64 * reps as f64;
    bytes / secs * 1e-9
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let count = ((seconds * MODELS_PER_SECOND).ceil() as usize).max(1);
    let models = repeated_setup(&mut out, || {
        let mut rng = Rng::new(seed);
        let models: Vec<FvModel> = (0..count).map(|_| board_model(&mut rng)).collect();
        // Warm-up on a model outside the timed set: first-touch page
        // faults and code paging stay out of the measurement.
        let warm = board_model(&mut rng);
        for p in [Precond::Multigrid, Precond::Ic0] {
            configured(&warm, p).solve_steady().expect("warm-up solve");
        }
        models
    });

    let obs = aeropack::obs::global_registry();
    obs.clear();
    let (mut pair_ms, mut mg_s, mut ic0_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mg_stats, mut ic0_factor_s, mut assemble_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut worst_diff = 0.0f64;
    let t0 = Instant::now();
    for base in &models {
        let root = tracer.open("bench.model", None);
        let (mg_model, ic0_model) = (
            configured(base, Precond::Multigrid),
            configured(base, Precond::Ic0),
        );
        if tracer.enabled() {
            let cold = base.clone();
            let (_, d) = tracer.time("thermal.assemble_operator", root, || {
                cold.assemble_operator()
            });
            assemble_s.push(d.as_secs_f64());
        }
        let (mg, mg_st, t_mg) = traced_solve(tracer, root, &mg_model);
        let (ic0, ic0_st, t_ic0) = traced_solve(tracer, root, &ic0_model);
        pair_ms.push((t_mg + t_ic0) * 1e3);
        mg_s.push(t_mg);
        ic0_s.push(t_ic0);
        let converged = |s: &Option<SolverStats>| s.as_ref().is_some_and(|s| s.converged());
        let ok = match (&mg, &ic0) {
            (Ok(a), Ok(b)) if converged(&mg_st) && converged(&ic0_st) => {
                let d = max_abs_diff(a, b);
                worst_diff = worst_diff.max(d);
                d <= AGREE_K
            }
            _ => false,
        };
        out.check(ok);
        if let Some(s) = mg_st {
            mg_stats.push(s);
        }
        if let Some(f) = ic0_st.and_then(|s| s.factorization) {
            ic0_factor_s.push(f.factor_time.as_secs_f64());
        }
        tracer.close(root);
    }
    let wall = t0.elapsed().as_secs_f64();

    let sorted_pairs = sorted(pair_ms);
    let tail_q = tail_level(count).unwrap_or(1.0);
    out.p50_ms = nearest_rank(&sorted_pairs, 0.5);
    out.tail_ms = nearest_rank(&sorted_pairs, tail_q);
    out.throughput_per_s = count as f64 / wall;
    out.note(format!(
        "grid {}x{}x{} ({} cells), {} models solved cold by MG and IC(0) at tol {TOLERANCE:e}",
        SHAPE.0,
        SHAPE.1,
        SHAPE.2,
        SHAPE.0 * SHAPE.1 * SHAPE.2,
        sorted_pairs.len()
    ));
    out.note(format!(
        "mg_solve_s={:.4} ic0_solve_s={:.4} (medians)  max |T_mg - T_ic0| = {worst_diff:.2e} K",
        median(&mg_s),
        median(&ic0_s)
    ));
    out.note(format!(
        "model p50={:.2} ms p{}={:.2} ms over {count} models",
        out.p50_ms,
        tail_q * 100.0,
        out.tail_ms
    ));

    if tracer.enabled() {
        let pick =
            |f: &dyn Fn(&SolverStats) -> f64| median(&mg_stats.iter().map(f).collect::<Vec<_>>());
        let iterations = pick(&|s| s.iterations as f64);
        let iterate_s = pick(&|s| s.iterate_seconds);
        out.layer("thermal.assemble_s", median(&assemble_s));
        out.layer("solver.setup_s", pick(&|s| s.setup_seconds));
        out.layer("solver.iterate_s", iterate_s);
        out.layer("solver.iterations", iterations);
        out.layer("solver.iter_ms", iterate_s / iterations.max(1.0) * 1e3);
        out.layer(
            "solver.mg.hierarchy_nnz",
            pick(&|s| {
                s.spectral
                    .as_ref()
                    .map_or(0.0, |sp| sp.hierarchy_nnz as f64)
            }),
        );
        out.layer("solver.ic0.factor_s", median(&ic0_factor_s));
        out.layer("solver.spmv_gbs", spmv_gbs(&models[0]));
        layers::program_counters(&mut out, &obs, count as f64);
        layers::coverage(&mut out, tracer, wall);
        out.layer(
            "obs.overhead_frac",
            layers::obs_overhead(|| {
                let m = configured(&models[0], Precond::Multigrid);
                m.solve_steady().expect("overhead probe solve");
            }),
        );
    }
    out
}
