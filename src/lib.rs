//! `aeropack` — avionics packaging thermal/mechanical co-design toolkit.
//!
//! This façade crate re-exports the whole workspace under one roof:
//!
//! * [`units`] — strongly-typed physical quantities.
//! * [`materials`] — structural materials, air and two-phase working fluids.
//! * [`fem`] — structural finite elements: modal, harmonic and random
//!   vibration analysis.
//! * [`thermal`] — finite-volume conduction, resistive networks and
//!   convection correlations.
//! * [`twophase`] — heat pipes, loop heat pipes and thermosyphons.
//! * [`tim`] — thermal interface materials and the virtual ASTM D5470
//!   tester.
//! * [`envqual`] — DO-160 environmental qualification and reliability.
//! * [`solver`] — the shared sparse/dense linear solver backend
//!   (CSR + threaded SpMV, PCG with Jacobi/IC(0)/Chebyshev/multigrid,
//!   solve statistics).
//! * [`sweep`] — the deterministic parallel scenario-sweep engine
//!   (order-preserving thread-scoped runner, `AEROPACK_THREADS`
//!   configuration, per-sweep solver-stats roll-ups).
//! * [`obs`] — the observability layer: spans, counters, log-bucketed
//!   histograms and JSON run reports (`AEROPACK_OBS=1`), with a
//!   zero-cost disabled mode.
//! * [`design`] — the co-design framework tying it all together
//!   (three-level thermal analysis, cooling selection, the SEB model).
//! * [`mission`] — mission-profile transient analysis: box/plate view
//!   factors and a Gebhart radiosity network, ISA/orbit environment
//!   models expressed as piecewise [`MissionProfile`](mission::MissionProfile)s,
//!   and the adaptive θ-scheme transient driver with warm-started
//!   solves and bit-exact checkpointed trajectories.
//! * [`verify`] — the verification substrate: property testing with
//!   shrinking, MMS convergence studies, golden-snapshot gating.
//! * [`optimize`] — deterministic multi-objective design search:
//!   NSGA-II over the cooling-topology × packaging-parameter design
//!   space, evaluated through the [`sweep`] engine with bit-identical
//!   Pareto fronts at any thread count.
//! * [`serve`] — the batched analysis service: a worker pool behind a
//!   bounded priority/deadline queue with request coalescing and a
//!   content-addressed result cache, fronted by the unified
//!   [`AnalysisRequest`](serve::AnalysisRequest) API (in-process
//!   [`Client`](serve::Client) or line-delimited JSON over TCP).
//!
//! Most applications can simply `use aeropack::prelude::*;`.
//!
//! It reproduces the system described in *"Integration, cooling and
//! packaging issues for aerospace equipments"* (C. Sarno, C. Tantolin,
//! DATE 2010). See `DESIGN.md` for the full inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! # Quickstart
//!
//! ```
//! use aeropack::units::{Celsius, Power};
//! use aeropack::design::{CoolingMode, CoolingSelector};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let selector = CoolingSelector::default();
//! let choice = selector.select(Power::new(60.0), Celsius::new(55.0))?;
//! assert_ne!(choice.mode, CoolingMode::FreeConvection);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use aeropack_core as design;
pub use aeropack_envqual as envqual;
pub use aeropack_fem as fem;
pub use aeropack_materials as materials;
pub use aeropack_mission as mission;
pub use aeropack_obs as obs;
pub use aeropack_optimize as optimize;
pub use aeropack_serve as serve;
pub use aeropack_solver as solver;
pub use aeropack_sweep as sweep;
pub use aeropack_thermal as thermal;
pub use aeropack_tim as tim;
pub use aeropack_twophase as twophase;
pub use aeropack_units as units;
pub use aeropack_verify as verify;

/// The workspace-unified error type (stable wire codes, `From`
/// conversions from every per-crate error).
pub use aeropack_serve::Error;

/// The most commonly used names from across the workspace: every
/// quantity newtype, the solver configuration and statistics types, and
/// the design-workflow entry points.
///
/// The thermal network's solution type is re-exported as
/// [`NetworkSolution`](prelude::NetworkSolution) so the solver's
/// [`Solution`](prelude::Solution) (vector + statistics) keeps the
/// plain name.
pub mod prelude {
    pub use aeropack_units::{
        AccelPsd, Acceleration, Area, AreaResistance, Celsius, Density, Frequency, HeatFlux,
        HeatTransferCoeff, Length, Mass, MassFlowRate, Power, PowerDensity, Pressure, SpecificHeat,
        SplitMix64, Stress, TempDelta, TempRate, ThermalConductance, ThermalConductivity,
        ThermalResistance, Velocity, Volume,
    };

    pub use aeropack_materials::{air_at_sea_level, AirState, Material, WorkingFluid};

    pub use aeropack_solver::{
        Method, PcgWorkspace, Precond, Solution, SolverConfig, SolverError, SolverStats,
    };

    pub use aeropack_sweep::{ScenarioStats, Sweep, SweepStats};

    pub use aeropack_fem::{
        modal, random_response, Dof, FemError, HarmonicResponse, ModalResult, Model, PlateMesh,
        PlateProperties, PsdCurve, Sdof,
    };

    pub use aeropack_thermal::{
        solve_rack_flow, ChannelImpedance, Face, FaceBc, FanCurve, FieldSummary, FlowSolution,
        FvField, FvGrid, FvModel, Network, NodeId, Solution as NetworkSolution, ThermalError,
        TransientStepper,
    };

    pub use aeropack_twophase::{HeatPipe, LoopHeatPipe, Thermosyphon, VaporChamber};

    pub use aeropack_tim::{
        lewis_nielsen, loading_for_target, D5470Tester, FillerShape, HncSurface, TimJoint,
    };

    pub use aeropack_envqual::{
        acceleration_test, assess_fatigue, ComponentStyle, Do160Curve, Environment,
        QualificationReport, ReliabilityModel, SolderAttachment, TestOutcome, ThermalCycleProfile,
    };

    pub use aeropack_core::{
        analyze_module, level1, level3, predict_board_temperature, representative_board,
        run_design, CoolingMode, CoolingSelector, DesignError, DesignReport, DesignSpec, Equipment,
        HotSpotStudy, Level2Model, Level3Report, Module, ModuleGeometry, Pcb, SeatStructure,
        SebModel,
    };

    pub use aeropack_mission::{
        sweep_missions, AdaptiveConfig, BoundaryState, Checkpoint, MissionConfig, MissionDriver,
        MissionError, MissionPhase, MissionProfile, MissionSummary, Orbit, RadiatingFace, Scheme,
        StepControl, ViewFactors,
    };

    pub use aeropack_serve::{
        AnalysisRequest, AnalysisResponse, BoardSpec, Client, CoolingModeSpec,
        Error as AeropackError, FemPlateSpec, MissionSpec, OptimizeSpec, PlateSpec, Priority,
        SchemeKind, SeatKind, SebSpec, ServeConfig, Service, Ticket, TransientSpec, Workload,
        Workspace,
    };

    pub use aeropack_optimize::{
        DesignSpace, EvalContext, Genome, Objectives, OptimizeResult, Optimizer, OptimizerConfig,
        ParetoFront, ParetoPoint, Topology,
    };
}
