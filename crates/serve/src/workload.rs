//! The [`Workload`] execution interface and the per-worker
//! [`Workspace`].
//!
//! Every analysis the service dispatches — and every scenario a sweep
//! engine fans out — reduces to the same two operations: *identify*
//! the work (a canonical fingerprint, for caching and coalescing) and
//! *run* it against warm per-worker state. [`Workload`] is that
//! interface. The typed wrappers ([`SebAnalysis`], [`FvAnalysis`],
//! [`BoardAnalysis`], [`FemAnalysis`]) implement it for callers who
//! hold model specs directly, and [`AnalysisRequest`] implements it
//! too, so service dispatch and ad-hoc embedding share one execution
//! path instead of per-crate entry points.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use aeropack_core::{representative_board, DesignError, Level2Model, SeatStructure, SebModel};
use aeropack_fem::{modal, Dof, HarmonicResponse, PlateMesh, PlateProperties};
use aeropack_solver::{Precond, SolverConfig};
use aeropack_sweep::Sweep;
use aeropack_thermal::{Face, FaceBc, FvField, FvGrid, FvModel};
use aeropack_twophase::TwoPhaseError;
use aeropack_units::{Celsius, Frequency, HeatTransferCoeff, Length, Power, TempDelta};

use crate::error::Error;
use crate::request::{
    AnalysisRequest, AnalysisResponse, BoardSpec, FemPlateSpec, MissionSpec, OptimizeSpec,
    PlateSpec, SeatKind, SebSpec, TransientSpec,
};

/// How many built models a [`Workspace`] keeps warm before it clears
/// its caches. Small: the point is reuse across a burst of related
/// requests, not an unbounded model store.
const WORKSPACE_CAP: usize = 16;

/// Per-worker mutable state: built models keyed by their spec
/// fingerprint, so a burst of requests against the same model reuses
/// the CSR pattern cache, the warm PCG workspace and (under IC(0))
/// the cached factorisation instead of rebuilding per request.
#[derive(Debug, Default)]
pub struct Workspace {
    fv: HashMap<u64, FvModel>,
    boards: HashMap<u64, Level2Model>,
    sebs: HashMap<u64, SebModel>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The FV plate model for `spec`, built on first use and cached.
    pub fn fv_model(&mut self, spec: &PlateSpec) -> Result<&FvModel, Error> {
        if self.fv.len() > WORKSPACE_CAP {
            self.fv.clear();
        }
        Ok(match self.fv.entry(spec.fingerprint()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(build_plate_model(spec)?),
        })
    }

    /// The Level-2 board model for `spec`, built on first use and
    /// cached.
    pub fn board_model(&mut self, spec: &BoardSpec) -> Result<&Level2Model, Error> {
        if self.boards.len() > WORKSPACE_CAP {
            self.boards.clear();
        }
        Ok(match self.boards.entry(spec.fingerprint()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(build_board_model(spec)?),
        })
    }

    /// The SEB model for `spec`, built on first use and cached.
    pub fn seb_model(&mut self, spec: &SebSpec) -> Result<&SebModel, Error> {
        if self.sebs.len() > WORKSPACE_CAP {
            self.sebs.clear();
        }
        Ok(match self.sebs.entry(spec.fingerprint()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let seat = match spec.seat {
                    SeatKind::Aluminum => SeatStructure::aluminum(),
                    SeatKind::CarbonComposite => SeatStructure::carbon_composite(),
                };
                v.insert(SebModel::cosee(seat, spec.lhp, spec.tilt_deg.to_radians())?)
            }
        })
    }
}

fn build_plate_model(spec: &PlateSpec) -> Result<FvModel, Error> {
    if spec.nx == 0 || spec.ny == 0 {
        return Err(Error::invalid("plate mesh must have at least one cell"));
    }
    let grid = FvGrid::new(
        (spec.lx_m, spec.ly_m, spec.thickness_m),
        (spec.nx, spec.ny, 1),
    )?;
    let mut model = FvModel::new(grid, &spec.material.material());
    // Power patch over the centre half of the plate (quarter margins).
    let lo = (spec.nx / 4, spec.ny / 4, 0);
    let hi = (spec.nx - spec.nx / 4, spec.ny - spec.ny / 4, 1);
    model.add_power_box(Power::new(spec.power_w), lo, hi)?;
    model.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(spec.h_w_m2k),
            ambient: Celsius::new(spec.ambient_c),
        },
    );
    // Repeated solves against one plate are the common service pattern:
    // the structured grid lets multigrid amortise its hierarchy setup
    // through the model's workspace (the FV model injects the grid
    // shape into the solver config automatically).
    model.set_solver_config(SolverConfig::new().preconditioner(Precond::Multigrid));
    Ok(model)
}

fn build_board_model(spec: &BoardSpec) -> Result<Level2Model, Error> {
    let pcb = representative_board("serve board", Power::new(spec.power_w))?;
    let model = Level2Model::new(
        &pcb,
        &spec.mode.mode(),
        Celsius::new(spec.ambient_c),
        Length::from_millimeters(spec.resolution_mm),
    )?;
    Ok(model)
}

fn build_fem_mesh(spec: &FemPlateSpec) -> Result<PlateMesh, Error> {
    let props = PlateProperties::from_material(
        &spec.material.material(),
        Length::from_millimeters(spec.thickness_mm),
    )?
    .with_smeared_mass(spec.smeared_mass_kg_m2);
    let mut mesh = PlateMesh::rectangular(spec.lx_m, spec.ly_m, spec.nx, spec.ny, &props)?;
    mesh.simply_support_edges()?;
    Ok(mesh)
}

fn field_response(field: &FvField) -> Result<AnalysisResponse, Error> {
    let summary = field.summary()?;
    Ok(AnalysisResponse::Field {
        min_c: summary.min.value(),
        max_c: summary.max.value(),
        mean_c: summary.mean.value(),
        cells: field.cell_count(),
    })
}

/// One unit of analysis work: a canonical identity for caching and
/// coalescing, and an execution against per-worker state.
pub trait Workload {
    /// The content-addressed cache key (see
    /// [`AnalysisRequest::fingerprint`]).
    fn fingerprint(&self) -> u64;

    /// Runs the analysis, reusing models the workspace holds warm.
    ///
    /// # Errors
    ///
    /// Any analysis failure, folded into the unified [`Error`].
    fn run(&self, workspace: &mut Workspace) -> Result<AnalysisResponse, Error>;
}

/// A SEB query against one box configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SebAnalysis {
    /// Box configuration.
    pub spec: SebSpec,
    /// What to compute.
    pub query: SebQuery,
}

/// The SEB query kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum SebQuery {
    /// Maximum power holding ΔT(PCB−air) under the limit.
    Capability {
        /// ΔT limit, K.
        dt_limit_k: f64,
    },
    /// One operating point.
    OperatingPoint {
        /// Dissipated power, W.
        power_w: f64,
    },
    /// A whole power column.
    PowerSweep {
        /// Power grid, W.
        powers_w: Vec<f64>,
    },
}

impl SebAnalysis {
    fn request(&self) -> AnalysisRequest {
        match &self.query {
            SebQuery::Capability { dt_limit_k } => AnalysisRequest::SebCapability {
                spec: self.spec,
                dt_limit_k: *dt_limit_k,
            },
            SebQuery::OperatingPoint { power_w } => AnalysisRequest::SebOperatingPoint {
                spec: self.spec,
                power_w: *power_w,
            },
            SebQuery::PowerSweep { powers_w } => AnalysisRequest::SebPowerSweep {
                spec: self.spec,
                powers_w: powers_w.clone(),
            },
        }
    }
}

impl Workload for SebAnalysis {
    fn fingerprint(&self) -> u64 {
        self.request().fingerprint()
    }

    fn run(&self, workspace: &mut Workspace) -> Result<AnalysisResponse, Error> {
        run_request(&self.request(), workspace)
    }
}

/// A scaled steady solve of an FV plate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FvAnalysis {
    /// Plate definition.
    pub spec: PlateSpec,
    /// Source multiplier.
    pub scale: f64,
}

impl Workload for FvAnalysis {
    fn fingerprint(&self) -> u64 {
        AnalysisRequest::FvSteady {
            spec: self.spec,
            scale: self.scale,
        }
        .fingerprint()
    }

    fn run(&self, workspace: &mut Workspace) -> Result<AnalysisResponse, Error> {
        run_request(
            &AnalysisRequest::FvSteady {
                spec: self.spec,
                scale: self.scale,
            },
            workspace,
        )
    }
}

/// A scaled steady solve of a Level-2 board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardAnalysis {
    /// Board definition.
    pub spec: BoardSpec,
    /// Source multiplier.
    pub scale: f64,
}

impl Workload for BoardAnalysis {
    fn fingerprint(&self) -> u64 {
        AnalysisRequest::BoardSteady {
            spec: self.spec,
            scale: self.scale,
        }
        .fingerprint()
    }

    fn run(&self, workspace: &mut Workspace) -> Result<AnalysisResponse, Error> {
        run_request(
            &AnalysisRequest::BoardSteady {
                spec: self.spec,
                scale: self.scale,
            },
            workspace,
        )
    }
}

/// A structural query against one FEM plate.
#[derive(Debug, Clone, PartialEq)]
pub struct FemAnalysis {
    /// Plate definition.
    pub spec: FemPlateSpec,
    /// What to compute.
    pub query: FemQuery,
}

/// The FEM query kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FemQuery {
    /// Static deflection under a centre point load.
    Static {
        /// Centre load, N.
        load_n: f64,
    },
    /// Natural frequencies.
    Modal {
        /// Number of modes.
        n_modes: usize,
    },
    /// Harmonic transmissibility sweep at the centre.
    Harmonic {
        /// Modal damping ratio.
        damping: f64,
        /// Sweep start, Hz.
        f_min_hz: f64,
        /// Sweep end, Hz.
        f_max_hz: f64,
        /// Number of sweep points.
        points: usize,
    },
}

impl FemAnalysis {
    fn request(&self) -> AnalysisRequest {
        match self.query {
            FemQuery::Static { load_n } => AnalysisRequest::FemStatic {
                spec: self.spec,
                load_n,
            },
            FemQuery::Modal { n_modes } => AnalysisRequest::FemModal {
                spec: self.spec,
                n_modes,
            },
            FemQuery::Harmonic {
                damping,
                f_min_hz,
                f_max_hz,
                points,
            } => AnalysisRequest::FemHarmonic {
                spec: self.spec,
                damping,
                f_min_hz,
                f_max_hz,
                points,
            },
        }
    }
}

impl Workload for FemAnalysis {
    fn fingerprint(&self) -> u64 {
        self.request().fingerprint()
    }

    fn run(&self, workspace: &mut Workspace) -> Result<AnalysisResponse, Error> {
        run_request(&self.request(), workspace)
    }
}

impl Workload for AnalysisRequest {
    fn fingerprint(&self) -> u64 {
        AnalysisRequest::fingerprint(self)
    }

    fn run(&self, workspace: &mut Workspace) -> Result<AnalysisResponse, Error> {
        run_request(self, workspace)
    }
}

/// Runs every workload through `runner` — the bridge between the
/// sweep engine and the service's execution interface. Each scenario
/// gets a fresh [`Workspace`]; long-lived warm state is the service
/// worker pool's job.
pub fn run_all<W: Workload + Sync>(
    runner: &Sweep,
    items: &[W],
) -> Vec<Result<AnalysisResponse, Error>> {
    runner.map(items, |w| w.run(&mut Workspace::new()))
}

/// The single execution path behind every [`Workload`] impl.
pub(crate) fn run_request(
    request: &AnalysisRequest,
    ws: &mut Workspace,
) -> Result<AnalysisResponse, Error> {
    request.validate()?;
    match request {
        AnalysisRequest::SebCapability { spec, dt_limit_k } => {
            let ambient = Celsius::new(spec.ambient_c);
            let model = ws.seb_model(spec)?;
            let cap = model.capability(TempDelta::new(*dt_limit_k), ambient)?;
            Ok(AnalysisResponse::Capability { watts: cap.value() })
        }
        AnalysisRequest::SebOperatingPoint { spec, power_w } => {
            let ambient = Celsius::new(spec.ambient_c);
            let model = ws.seb_model(spec)?;
            let state = model.solve(Power::new(*power_w), ambient)?;
            Ok(AnalysisResponse::OperatingPoint {
                power_w: state.power.value(),
                pcb_c: state.pcb_temperature.value(),
                wall_c: state.wall_temperature.value(),
                lhp_w: state.lhp_power.value(),
                dt_pcb_air_k: state.dt_pcb_air(ambient).kelvin(),
            })
        }
        AnalysisRequest::SebPowerSweep { spec, powers_w } => {
            let ambient = Celsius::new(spec.ambient_c);
            let model = ws.seb_model(spec)?;
            let mut dt = Vec::with_capacity(powers_w.len());
            for &p in powers_w {
                match model.solve(Power::new(p), ambient) {
                    Ok(state) => dt.push(Some(state.dt_pcb_air(ambient).kelvin())),
                    Err(DesignError::TwoPhase(TwoPhaseError::DryOut { .. })) => dt.push(None),
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(AnalysisResponse::PowerSweep { dt_pcb_air_k: dt })
        }
        AnalysisRequest::FvSteady { spec, scale } => {
            let model = ws.fv_model(spec)?;
            let field = model.solve_steady_scaled(*scale)?;
            field_response(&field)
        }
        AnalysisRequest::BoardSteady { spec, scale } => {
            let model = ws.board_model(spec)?;
            let field = model.fv_model().solve_steady_scaled(*scale)?;
            field_response(&field)
        }
        AnalysisRequest::Transient { spec } => run_transient(spec, ws),
        AnalysisRequest::Optimize { spec } => run_optimize(spec),
        AnalysisRequest::FemStatic { spec, load_n } => {
            let mesh = build_fem_mesh(spec)?;
            let center = mesh.center_node();
            let cfg = SolverConfig::new().preconditioner(Precond::Ic0);
            let u = mesh
                .model
                .solve_static_sparse(&[(center, Dof::W, *load_n)], &cfg)?;
            let wi = mesh.model.dof_index(center, Dof::W)?;
            Ok(AnalysisResponse::Static {
                max_deflection_m: u[wi].abs(),
            })
        }
        AnalysisRequest::FemModal { spec, n_modes } => {
            let mesh = build_fem_mesh(spec)?;
            let modes = modal(&mesh.model, *n_modes)?;
            Ok(AnalysisResponse::Modal {
                frequencies_hz: modes.frequencies().iter().map(|f| f.value()).collect(),
            })
        }
        AnalysisRequest::FemHarmonic {
            spec,
            damping,
            f_min_hz,
            f_max_hz,
            points,
        } => {
            let mesh = build_fem_mesh(spec)?;
            let modes = modal(&mesh.model, 6)?;
            let resp = HarmonicResponse::new(&mesh.model, &modes, *damping)?;
            let curve = resp.sweep_with(
                &Sweep::serial(),
                mesh.center_node(),
                Dof::W,
                Frequency::new(*f_min_hz),
                Frequency::new(*f_max_hz),
                *points,
            )?;
            let (peak_hz, peak) = curve.iter().fold((0.0f64, 0.0f64), |(bf, bt), (f, t)| {
                if *t > bt {
                    (f.value(), *t)
                } else {
                    (bf, bt)
                }
            });
            Ok(AnalysisResponse::Harmonic {
                peak_hz,
                peak_transmissibility: peak,
                points: curve.len(),
            })
        }
    }
}

/// Runs a mission-profile transient: the plate model is fetched warm
/// from the workspace (sharing its symbolic pattern), flown through
/// the spec's mission by the `aeropack-mission` adaptive driver, and
/// summarised with its bit-exact trajectory fingerprint.
fn run_transient(spec: &TransientSpec, ws: &mut Workspace) -> Result<AnalysisResponse, Error> {
    use aeropack_mission::{
        AdaptiveConfig, MissionConfig, MissionDriver, MissionProfile, Orbit, RadiatingFace,
        StepControl,
    };
    let mission_err = |e: aeropack_mission::MissionError| Error::invalid(e.to_string());

    let (profile, config) = match spec.mission {
        MissionSpec::ClimbCruiseDescent {
            cruise_altitude_m,
            climb_s,
            cruise_s,
            descent_s,
        } => {
            let profile = MissionProfile::climb_cruise_descent(
                cruise_altitude_m,
                (climb_s, cruise_s, descent_s),
                HeatTransferCoeff::new(spec.plate.h_w_m2k),
            )
            .map_err(mission_err)?;
            let config = MissionConfig::new(spec.scheme.scheme()).convective_face(Face::ZMax);
            (profile, config)
        }
        MissionSpec::OrbitCycle {
            cycles,
            emissivity,
            absorptivity,
        } => {
            let profile =
                MissionProfile::orbit_cycle(&Orbit::leo_90min(), cycles).map_err(mission_err)?;
            let config = MissionConfig::new(spec.scheme.scheme()).radiating_face(RadiatingFace {
                face: Face::ZMax,
                emissivity,
                absorptivity,
            });
            (profile, config)
        }
    };
    let config = config.control(match spec.fixed_dt_s {
        Some(dt) => StepControl::Fixed { dt },
        None => StepControl::Adaptive(AdaptiveConfig::default()),
    });

    let model = ws.fv_model(&spec.plate)?.clone();
    let mut driver = MissionDriver::new(model, profile, config, Celsius::new(spec.initial_c))
        .map_err(mission_err)?;
    driver.run_to_end().map_err(mission_err)?;
    let field = driver.field().map_err(mission_err)?;
    let stats = *driver.stats();
    Ok(AnalysisResponse::Transient {
        final_min_c: field.min_temperature().value(),
        final_max_c: field.max_temperature().value(),
        final_mean_c: field.mean_temperature().value(),
        steps: stats.accepted,
        rejected: stats.rejected,
        factor_reuses: stats.factor_reuses,
        trajectory_hash: driver.trajectory_fingerprint(),
    })
}

/// Evaluation budget ceiling for service-submitted optimizer runs: a
/// wire request must not be able to pin a worker for hours.
const OPTIMIZE_MAX_EVALUATIONS: u64 = 16_000_000;

/// Runs a multi-objective optimization. The search itself runs serial
/// inside this worker — the service's parallelism is the worker pool —
/// which is also the bit-identical reference ordering, so a front hash
/// computed here matches any thread count of a library-side run.
fn run_optimize(spec: &OptimizeSpec) -> Result<AnalysisResponse, Error> {
    use aeropack_optimize::{DesignSpace, EvalContext, Optimizer, OptimizerConfig};

    if spec.population < 2 {
        return Err(Error::invalid("optimize population must be at least 2"));
    }
    // Every field is finite (`run_request` validated the request):
    // NaN objectives would break the optimizer's non-dominated sort,
    // whose lexicographic order disagrees with `dominates` on NaN.
    if spec.base_power_w <= 0.0 {
        return Err(Error::invalid("optimize base_power_w must be positive"));
    }
    let budget = spec.population as u64 * (spec.generations as u64 + 1);
    if budget > OPTIMIZE_MAX_EVALUATIONS {
        return Err(Error::invalid(format!(
            "optimize run of {budget} evaluations exceeds the service cap \
             of {OPTIMIZE_MAX_EVALUATIONS}"
        )));
    }
    let ctx = EvalContext::new(
        Celsius::new(spec.ambient_c),
        Power::new(spec.base_power_w),
        spec.tilt_deg.to_radians(),
    );
    let config = OptimizerConfig {
        population: spec.population,
        generations: spec.generations,
        seed: spec.seed,
        ..OptimizerConfig::default()
    };
    let result = Optimizer::new(DesignSpace::default(), config).run(&ctx, &Sweep::serial());
    let points = result.front.points();
    Ok(AnalysisResponse::Pareto {
        topologies: points
            .iter()
            .map(|p| p.genome.topology.tag().to_string())
            .collect(),
        dt_k: points.iter().map(|p| p.objectives.dt_k).collect(),
        mass_kg: points.iter().map(|p| p.objectives.mass_kg).collect(),
        mtbf_h: points.iter().map(|p| p.objectives.mtbf_hours).collect(),
        front_hash: result.front.fingerprint(),
        evaluations: result.evaluations,
    })
}

/// Runs a coalesced batch: every request shares one
/// [`coalesce_key`](AnalysisRequest::coalesce_key), so the model is
/// built (or fetched warm) once and all scales go through
/// [`FvModel::solve_steady_multi`] — one assembly, one preconditioner
/// setup, `N` right-hand sides. Responses come back in request order
/// and are bit-identical to running each request alone (each RHS
/// starts PCG from zero over the same warm workspace either way).
pub(crate) fn run_coalesced(
    requests: &[AnalysisRequest],
    ws: &mut Workspace,
) -> Result<Vec<AnalysisResponse>, Error> {
    debug_assert!(requests.len() > 1);
    let scales: Vec<f64> = requests
        .iter()
        .map(|r| r.scale().expect("coalesced request has a scale"))
        .collect();
    let fields = match &requests[0] {
        AnalysisRequest::FvSteady { spec, .. } => ws.fv_model(spec)?.solve_steady_multi(&scales)?,
        AnalysisRequest::BoardSteady { spec, .. } => ws
            .board_model(spec)?
            .fv_model()
            .solve_steady_multi(&scales)?,
        other => {
            return Err(Error::invalid(format!(
                "request {} is not coalescible",
                other.tag()
            )))
        }
    };
    fields.iter().map(field_response).collect()
}
