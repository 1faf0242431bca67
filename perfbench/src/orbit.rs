//! `orbit_mission`: a radiating 3-D plate flown through repeated LEO
//! sun/eclipse cycles by the adaptive mission driver.
//!
//! The seeded plate (aluminium, one dissipating box) radiates from its
//! `ZMax` face (ε 0.85, α 0.3) and is stepped adaptively with the
//! trapezoidal scheme; the driver upgrades the preconditioner to
//! multigrid itself. The unit operation is advancing the mission by a
//! [`WINDOW_S`] window of simulated time (the steps that cross it); step
//! costs are bimodal (multigrid rebuild or reuse), so a window is the
//! steadier unit, while single steps are timed for the per-layer
//! figures. A run flies [`MISSIONS_PER_SECOND`] whole missions per
//! second of `--seconds`, one per seeded plate.

use std::time::Instant;

use aeropack::materials::Material;
use aeropack::mission::{
    AdaptiveConfig, MissionConfig, MissionDriver, MissionProfile, MissionStats, Orbit,
    RadiatingFace, Scheme, StepControl,
};
use aeropack::obs::Registry;
use aeropack::thermal::{Face, FvGrid, FvModel};
use aeropack::units::{Celsius, Power};

use crate::layers;
use crate::rng::Rng;
use crate::stats::{median, nearest_rank, sorted, tail_level};
use crate::trace::{SpanId, Tracer};
use crate::{repeated_setup, Outcome};

const SHAPE: (usize, usize, usize) = (20, 20, 4);
const EXTENT: (f64, f64, f64) = (0.15, 0.15, 0.012);
/// Orbits per mission.
const ORBITS: usize = 2;
/// Missions flown per second of the requested run length.
const MISSIONS_PER_SECOND: f64 = 0.8;
/// Simulated time per unit operation, s.
const WINDOW_S: f64 = 300.0;
const INITIAL_C: f64 = 20.0;

struct Setup {
    model: FvModel,
    profile: MissionProfile,
    config: MissionConfig,
}

fn setup(rng: &mut Rng) -> Setup {
    let (nx, ny, _) = SHAPE;
    let grid = FvGrid::new(EXTENT, SHAPE).expect("valid plate grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    // A 25 W half-size box two cells off centre, in one of the four
    // mirror-image positions: plates differ, but every one is equally
    // hard to step (the adaptive controller reacts strongly to any
    // other change, which would make the figures depend on the seed).
    let (w, d) = (nx / 2, ny / 2);
    let corner = rng.below(4);
    let i = if corner & 1 == 0 {
        nx / 4 - 2
    } else {
        nx / 4 + 2
    };
    let j = if corner & 2 == 0 {
        ny / 4 - 2
    } else {
        ny / 4 + 2
    };
    model
        .add_power_box(Power::new(25.0), (i, j, 0), (i + w, j + d, 1))
        .expect("box inside the grid");
    let profile =
        MissionProfile::orbit_cycle(&Orbit::leo_90min(), ORBITS).expect("valid orbit profile");
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig::default()))
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        });
    Setup {
        model,
        profile,
        config,
    }
}

fn driver(s: &Setup) -> MissionDriver {
    MissionDriver::new(
        s.model.clone(),
        s.profile.clone(),
        s.config.clone(),
        Celsius::new(INITIAL_C),
    )
    .expect("valid mission")
}

/// What a finished mission must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Evidence {
    fingerprint: u64,
    min_c: f64,
    max_c: f64,
    mean_c: f64,
}

fn evidence(d: &MissionDriver) -> Option<Evidence> {
    let field = d.field().ok()?;
    Some(Evidence {
        fingerprint: d.trajectory_fingerprint(),
        min_c: field.min_temperature().value(),
        max_c: field.max_temperature().value(),
        mean_c: field.mean_temperature().value(),
    })
}

/// Sum of the program's `solver.pcg.solve_seconds` histogram.
fn solver_seconds(reg: &Registry) -> f64 {
    reg.snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "solver.pcg.solve_seconds")
        .map_or(0.0, |h| h.sum)
}

struct Flight {
    evidence: Option<Evidence>,
    stats: MissionStats,
    steps_ms: Vec<f64>,
    windows_ms: Vec<f64>,
    failed: u64,
}

/// Flies one whole mission, timing every `step()`. When tracing, each
/// step is a `mission.step` span with a `solver.pcg` child placed at its
/// end, sized by the solve seconds the program recorded during it.
fn fly(s: &Setup, tracer: &Tracer, reg: &Registry, parent: Option<SpanId>) -> Flight {
    let mut d = driver(s);
    let (mut steps_ms, mut windows_ms) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let (mut window_start, mut window_end) = (Instant::now(), WINDOW_S);
    while !d.finished() {
        let before = if tracer.enabled() {
            solver_seconds(reg)
        } else {
            0.0
        };
        let start = Instant::now();
        let step = d.step();
        let end = Instant::now();
        steps_ms.push((end - start).as_secs_f64() * 1e3);
        if tracer.enabled() {
            let span = tracer.record("mission.step", start, end, parent, None);
            let solve = std::time::Duration::from_secs_f64(solver_seconds(reg) - before);
            let solve_start = end.checked_sub(solve).unwrap_or(start).max(start);
            tracer.record("solver.pcg", solve_start, end, span, None);
        }
        if step.is_err() {
            failed += 1;
            break;
        }
        if d.time() >= window_end || d.finished() {
            windows_ms.push(window_start.elapsed().as_secs_f64() * 1e3);
            window_start = Instant::now();
            window_end += WINDOW_S;
        }
    }
    Flight {
        evidence: evidence(&d),
        stats: *d.stats(),
        steps_ms,
        windows_ms,
        failed,
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let missions = ((seconds * MISSIONS_PER_SECOND).ceil() as usize).max(1);
    let plates = repeated_setup(&mut out, || {
        let mut rng = Rng::new(seed);
        let plates: Vec<Setup> = (0..missions).map(|_| setup(&mut rng)).collect();
        // Warm-up outside the timed stream: the first steps of a mission
        // on a plate of its own.
        let mut d = driver(&setup(&mut rng));
        for _ in 0..200 {
            d.step().expect("warm-up step");
        }
        plates
    });

    let reg = aeropack::obs::global_registry();
    reg.clear();
    let (mut steps_ms, mut windows_ms) = (Vec::new(), Vec::new());
    let mut flights = Vec::new();
    let t0 = Instant::now();
    for plate in &plates {
        let root = tracer.open("bench.mission", None);
        let f = fly(plate, tracer, &reg, root);
        tracer.close(root);
        steps_ms.extend_from_slice(&f.steps_ms);
        windows_ms.extend_from_slice(&f.windows_ms);
        flights.push(f);
    }
    let wall = t0.elapsed().as_secs_f64();

    // One more flight of the first plate, with observability toggled
    // the other way, must reproduce its trajectory bit for bit.
    let traced = tracer.enabled();
    aeropack::obs::set_enabled(!traced);
    let check = fly(&plates[0], &Tracer::new(false), &reg, None);
    aeropack::obs::set_enabled(traced);
    let reference = flights[0].evidence;
    for f in flights.iter().chain([&check]) {
        out.attempted += f.steps_ms.len() as u64;
        out.failed += f.failed;
        if f.evidence.is_none() {
            out.failed += 1;
        }
    }
    if check.evidence != reference {
        out.failed += 1;
    }
    let s = &plates[0];

    let lat = sorted(steps_ms);
    let windows = sorted(windows_ms);
    let tail_q = tail_level(windows.len()).unwrap_or(1.0);
    let orbits = (missions * ORBITS) as f64;
    out.p50_ms = nearest_rank(&windows, 0.5);
    out.tail_ms = nearest_rank(&windows, tail_q);
    out.throughput_per_s = orbits / wall;
    // Mission counters summed over the timed flights.
    let total =
        |f: fn(&MissionStats) -> usize| flights.iter().map(|x| f(&x.stats)).sum::<usize>() as f64;
    let per_mission = |f: fn(&MissionStats) -> usize| total(f) / missions as f64;
    out.note(format!(
        "grid {}x{}x{}, {missions} plates each flown {ORBITS} LEO orbits, \
         {:.1} steps and {:.1} rejections per mission, {} step samples",
        SHAPE.0,
        SHAPE.1,
        SHAPE.2,
        per_mission(|s| s.accepted),
        per_mission(|s| s.rejected),
        lat.len()
    ));
    out.note(format!(
        "orbit_wall_s={:.4}  {WINDOW_S} s window p50={:.3} ms p{}={:.3} ms ({} windows)  step p50={:.3} ms  \
         fingerprint={:016x} (obs {} check matches: {})",
        wall / orbits,
        out.p50_ms,
        tail_q * 100.0,
        out.tail_ms,
        windows.len(),
        nearest_rank(&lat, 0.5),
        reference.map_or(0, |e| e.fingerprint),
        if traced { "off" } else { "on" },
        check.evidence == reference
    ));

    if traced {
        out.layer("mission.step_p50_ms", nearest_rank(&lat, 0.5));
        out.layer("mission.step_p99_ms", nearest_rank(&lat, 0.99));
        out.layer("mission.accepted", per_mission(|s| s.accepted));
        let rejected = total(|s| s.rejected);
        out.layer(
            "mission.reject_ratio",
            rejected / (total(|s| s.accepted) + rejected),
        );
        out.layer(
            "mission.matrix_rebuilds",
            per_mission(|s| s.matrix_rebuilds),
        );
        out.layer(
            "mission.relinearizations",
            per_mission(|s| s.relinearizations),
        );
        let solves = total(|s| s.solves).max(1.0);
        out.layer(
            "mission.factor_reuse_ratio",
            total(|s| s.factor_reuses) / solves,
        );
        out.layer("solver.iterations", total(|s| s.solver_iterations) / solves);
        // Counters cover the timed missions only (the check flight ran
        // with observability off).
        layers::program_counters(&mut out, &reg, missions as f64);
        layers::coverage(&mut out, tracer, wall);
        let warm = s.model.clone();
        warm.assemble_operator();
        let assemble: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(warm.assemble_operator());
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.layer("thermal.assemble_s", median(&assemble));
        out.layer("solver.spmv_gbs", crate::fv_cold::spmv_gbs(&s.model));
        out.layer(
            "obs.overhead_frac",
            layers::obs_overhead(|| {
                let mut d = driver(s);
                for _ in 0..60 {
                    d.step().expect("overhead probe step");
                }
            }),
        );
    }
    out
}
