//! The adaptive implicit transient driver: θ-scheme stepping of the
//! finite-volume model through a [`MissionProfile`], built for the
//! 10⁴–10⁶-step trajectories a flight or orbit mission needs.
//!
//! # Formulation
//!
//! The semi-discrete problem is `C·dT/dt + A·T = b(t)` with `C` the
//! diagonal capacity matrix (J/K) and `A` the steady conduction
//! operator. One θ-step of length `dt` solves for the *increment*
//! `δ = T^{n+1} − T^n`:
//!
//! ```text
//! (C/dt + θ·A)·δ = θ·b^{n+1} + (1−θ)·b^n − A·T^n
//! ```
//!
//! θ = 1 is backward Euler (first order, L-stable), θ = ½ the
//! trapezoidal rule (second order, A-stable). The increment form keeps
//! the PCG start vector at zero — already within `O(dt)` of the answer
//! — which is the warm start the workspace caches were built for.
//!
//! # Step control and factor reuse
//!
//! The error estimate compares the implicit increment against an
//! explicit-Euler predictor; the weighted-RMS of the difference drives
//! a standard accept/reject controller. Crucially the controller
//! *quantises* the step size: a new `dt` is adopted only when the
//! suggestion clears a growth/shrink trigger, so long streaks of
//! identical `dt` (and therefore an unchanged θ-system) let the
//! workspace reuse its IC(0) factors / multigrid hierarchy across
//! thousands of solves. Boundary conditions are reapplied only when the
//! sampled profile state actually changes bits, and the radiation
//! linearisation is lagged behind a drift threshold for the same
//! reason.

use aeropack_obs::counter;
use aeropack_solver::{
    solve_sparse_into, CsrMatrix, Fingerprint, PcgWorkspace, Precond, SolverConfig, SolverStats,
};
use aeropack_thermal::{radiation_coefficient, Face, FaceBc, FvField, FvModel};
use aeropack_units::{Celsius, HeatTransferCoeff};

use crate::checkpoint::Checkpoint;
use crate::profile::{BoundaryState, MissionProfile};
use crate::MissionError;

/// The preconditioner a mission upgrades the stock Jacobi config to
/// (see `MissionDriver::init` for the measured rule).
const MISSION_PRECOND: Precond = Precond::Ic0;

/// The implicit time-integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// θ = 1: first order, L-stable — the robust default for stiff
    /// start-up transients.
    BackwardEuler,
    /// θ = ½: second order, A-stable — the accuracy choice for smooth
    /// mission profiles.
    Trapezoidal,
}

impl Scheme {
    /// The θ weight of the scheme.
    pub fn theta(self) -> f64 {
        match self {
            Scheme::BackwardEuler => 1.0,
            Scheme::Trapezoidal => 0.5,
        }
    }
}

/// Tuning for the embedded-error adaptive step controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Initial step length, s.
    pub dt_init: f64,
    /// Smallest step the controller may take, s. At this floor a step
    /// is accepted even over tolerance (counted in
    /// [`MissionStats::forced`]).
    pub dt_min: f64,
    /// Largest step the controller may take, s.
    pub dt_max: f64,
    /// Relative tolerance on the per-cell temperature increment.
    pub rel_tol: f64,
    /// Absolute tolerance, K.
    pub abs_tol: f64,
    /// Safety factor on the step-size suggestion.
    pub safety: f64,
    /// Largest single-step growth factor.
    pub max_growth: f64,
    /// Smallest single-step shrink factor.
    pub min_shrink: f64,
    /// Adopt a larger step only when the suggestion exceeds this
    /// multiple of the current step — the quantisation that preserves
    /// θ-system (and preconditioner-factor) reuse.
    pub growth_trigger: f64,
    /// Adopt a smaller step (without a rejection) only below this
    /// multiple of the current step.
    pub shrink_trigger: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            dt_init: 1.0,
            dt_min: 1e-3,
            dt_max: 60.0,
            rel_tol: 1e-4,
            abs_tol: 1e-3,
            safety: 0.9,
            max_growth: 2.0,
            min_shrink: 0.2,
            growth_trigger: 1.4,
            shrink_trigger: 0.75,
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) -> Result<(), MissionError> {
        let pos = [
            self.dt_init,
            self.dt_min,
            self.dt_max,
            self.rel_tol,
            self.abs_tol,
            self.safety,
        ];
        if pos.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(MissionError::invalid(
                "adaptive config values must be positive and finite",
            ));
        }
        if self.dt_min > self.dt_max || self.dt_init < self.dt_min || self.dt_init > self.dt_max {
            return Err(MissionError::invalid(
                "adaptive config needs dt_min ≤ dt_init ≤ dt_max",
            ));
        }
        if self.max_growth.is_nan()
            || self.max_growth <= 1.0
            || self.min_shrink.is_nan()
            || self.min_shrink <= 0.0
            || self.min_shrink >= 1.0
        {
            return Err(MissionError::invalid(
                "adaptive config needs max_growth > 1 and 0 < min_shrink < 1",
            ));
        }
        if self.growth_trigger.is_nan()
            || self.growth_trigger < 1.0
            || self.shrink_trigger.is_nan()
            || self.shrink_trigger > 1.0
        {
            return Err(MissionError::invalid(
                "adaptive config needs growth_trigger ≥ 1 ≥ shrink_trigger",
            ));
        }
        Ok(())
    }
}

/// How the step length is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepControl {
    /// A constant step — the reference mode for convergence studies.
    Fixed {
        /// Step length, s.
        dt: f64,
    },
    /// Embedded-error adaptive stepping.
    Adaptive(AdaptiveConfig),
}

/// A face radiating to the profile's sink temperature through a lagged
/// linearised coefficient, and absorbing the profile's environmental
/// flux.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiatingFace {
    /// Which exterior face radiates.
    pub face: Face,
    /// Surface emissivity `ε ∈ (0, 1]` for the outgoing linearised
    /// exchange.
    pub emissivity: f64,
    /// Surface absorptivity `α ∈ [0, 1]` applied to the profile's
    /// incident `flux_w_m2`.
    pub absorptivity: f64,
}

/// Configuration of a [`MissionDriver`].
#[derive(Debug, Clone)]
pub struct MissionConfig {
    scheme: Scheme,
    control: StepControl,
    convective_faces: Vec<Face>,
    radiating: Option<RadiatingFace>,
    relinearize_dk: f64,
    max_steps: usize,
}

impl MissionConfig {
    /// Starts a configuration for `scheme` with adaptive stepping at
    /// the default tolerances, no convective faces and no radiation.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            control: StepControl::Adaptive(AdaptiveConfig::default()),
            convective_faces: Vec::new(),
            radiating: None,
            relinearize_dk: 0.5,
            max_steps: 2_000_000,
        }
    }

    /// Sets the step-control mode.
    pub fn control(mut self, control: StepControl) -> Self {
        self.control = control;
        self
    }

    /// Adds a face driven by the profile's convective state
    /// (`h`, `ambient`).
    pub fn convective_face(mut self, face: Face) -> Self {
        self.convective_faces.push(face);
        self
    }

    /// Sets the radiating face.
    pub fn radiating_face(mut self, rad: RadiatingFace) -> Self {
        self.radiating = Some(rad);
        self
    }

    /// Temperature drift (surface or sink), K, beyond which the
    /// radiation linearisation is refreshed. Larger values trade
    /// accuracy for longer matrix-reuse streaks.
    pub fn relinearize_dk(mut self, dk: f64) -> Self {
        self.relinearize_dk = dk;
        self
    }

    /// Caps the total number of accepted steps [`MissionDriver::run_to_end`]
    /// may take.
    pub fn max_steps(mut self, max: usize) -> Self {
        self.max_steps = max;
        self
    }

    fn validate(&self) -> Result<(), MissionError> {
        match &self.control {
            StepControl::Fixed { dt } => {
                if !(dt.is_finite() && *dt > 0.0) {
                    return Err(MissionError::invalid(
                        "fixed dt must be positive and finite",
                    ));
                }
            }
            StepControl::Adaptive(cfg) => cfg.validate()?,
        }
        if let Some(rad) = &self.radiating {
            if !(rad.emissivity > 0.0 && rad.emissivity <= 1.0) {
                return Err(MissionError::invalid("emissivity must lie in (0, 1]"));
            }
            if !(0.0..=1.0).contains(&rad.absorptivity) {
                return Err(MissionError::invalid("absorptivity must lie in [0, 1]"));
            }
            if self.convective_faces.contains(&rad.face) {
                return Err(MissionError::invalid(
                    "a face cannot be both convective and radiating",
                ));
            }
        }
        if self.relinearize_dk.is_nan() || self.relinearize_dk <= 0.0 {
            return Err(MissionError::invalid("relinearize_dk must be positive"));
        }
        if self.max_steps == 0 {
            return Err(MissionError::invalid("max_steps must be positive"));
        }
        Ok(())
    }
}

/// Counters accumulated over a driver's life.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MissionStats {
    /// Accepted steps.
    pub accepted: usize,
    /// Rejected attempts (over tolerance, retried at a smaller step).
    pub rejected: usize,
    /// Steps accepted *over* tolerance because `dt` hit the floor.
    pub forced: usize,
    /// Linear solves performed (accepted + rejected attempts).
    pub solves: usize,
    /// Total PCG iterations across all solves.
    pub solver_iterations: usize,
    /// θ-system numeric rebuilds (operator values or `dt` changed).
    pub matrix_rebuilds: usize,
    /// Boundary-condition applications that left the assembled
    /// conduction operator `A` bit-unchanged (the sampled boundary
    /// state repeated, or it moved only the right-hand side). Counted
    /// per application, not per step, and independent of `dt`: a step
    /// whose `dt` changed still rebuilds the θ-system (see
    /// `matrix_rebuilds`) even when `A` was reused.
    pub matrix_reuses: usize,
    /// Solves whose preconditioner factors / multigrid hierarchy were
    /// reused from the workspace snapshot — the warm-solve evidence.
    pub factor_reuses: usize,
    /// Radiation relinearisations.
    pub relinearizations: usize,
    /// Smallest accepted step, s (0 before the first step).
    pub min_dt: f64,
    /// Largest accepted step, s.
    pub max_dt: f64,
}

/// What one accepted step did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Mission time after the step, s.
    pub time_s: f64,
    /// The accepted step length, s.
    pub dt_s: f64,
    /// Weighted-RMS error estimate of the accepted step (0 in fixed
    /// mode).
    pub error: f64,
    /// Rejected attempts before this acceptance.
    pub rejections: usize,
}

/// Lagged radiation linearisation state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RadLinState {
    /// Surface temperature at the last linearisation, °C.
    pub lin_surface_c: f64,
    /// Sink temperature at the last linearisation, °C.
    pub lin_sink_c: f64,
    /// The linearised coefficient `εσ(Ts²+T∞²)(Ts+T∞)`, W/(m²·K).
    pub h_r: f64,
}

/// Bit-exact key of the boundary state actually applied to the model —
/// reassembly happens only when this changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AppliedKey {
    ambient: u64,
    h: u64,
    sink: u64,
    h_r: u64,
}

impl AppliedKey {
    fn none() -> Self {
        Self {
            ambient: u64::MAX,
            h: u64::MAX,
            sink: u64::MAX,
            h_r: u64::MAX,
        }
    }
}

/// Per-cell source shaping injected on top of the profile: called with
/// the attempt's target time and the composed right-hand side (W per
/// cell) to add manufactured or scripted heat.
pub type SourceHook = Box<dyn Fn(f64, &mut [f64]) + Send + Sync>;

/// The adaptive θ-scheme transient driver.
///
/// See the [module docs](self) for the formulation; the crate docs for
/// a worked example.
pub struct MissionDriver {
    model: FvModel,
    profile: MissionProfile,
    config: MissionConfig,
    theta: f64,
    t_end: f64,

    // Trajectory state.
    time_s: f64,
    dt: f64,
    step_index: u64,
    temps: Vec<f64>,
    rad_state: Option<RadLinState>,

    // Static model data.
    cap: Vec<f64>,
    base_sources: Vec<f64>,
    rad_cells: Vec<usize>,
    rad_cell_area: f64,

    // Assembled systems.
    a: CsrMatrix,
    b_bc: Vec<f64>,
    b_now: Vec<f64>,
    m: Option<CsrMatrix>,
    m_dt_bits: u64,
    applied: AppliedKey,

    // Scratch and solver state.
    at: Vec<f64>,
    rhs: Vec<f64>,
    delta: Vec<f64>,
    b_next: Vec<f64>,
    workspace: PcgWorkspace,
    solver_config: SolverConfig,

    source_hook: Option<SourceHook>,
    stats: MissionStats,
    last_solve: Option<SolverStats>,
    dt_history: Vec<f64>,
}

impl std::fmt::Debug for MissionDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MissionDriver")
            .field("time_s", &self.time_s)
            .field("t_end", &self.t_end)
            .field("dt", &self.dt)
            .field("step_index", &self.step_index)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MissionDriver {
    /// Creates a driver from a uniform initial temperature.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or a model the
    /// solver rejects.
    pub fn new(
        model: FvModel,
        profile: MissionProfile,
        config: MissionConfig,
        initial: Celsius,
    ) -> Result<Self, MissionError> {
        let n = model.grid().cell_count();
        let temps = vec![initial.value(); n];
        Self::init(model, profile, config, temps, 0.0, None, 0, None)
    }

    /// Creates a driver from an explicit initial field (a steady-state
    /// solve, a prior mission's end state, …).
    ///
    /// # Errors
    ///
    /// Returns an error when the field does not match the model's grid
    /// or the configuration is invalid.
    pub fn with_initial_field(
        model: FvModel,
        profile: MissionProfile,
        config: MissionConfig,
        field: &FvField,
    ) -> Result<Self, MissionError> {
        if field.cell_count() != model.grid().cell_count() {
            return Err(MissionError::invalid(
                "initial field does not match the grid",
            ));
        }
        let temps = field.temperatures().to_vec();
        Self::init(model, profile, config, temps, 0.0, None, 0, None)
    }

    /// Recreates a driver mid-mission from a [`Checkpoint`], bit-exactly:
    /// continuing from a restored driver reproduces the original
    /// trajectory's remaining steps.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint does not match the model's
    /// grid or lies outside the profile.
    pub fn restore(
        model: FvModel,
        profile: MissionProfile,
        config: MissionConfig,
        checkpoint: &Checkpoint,
    ) -> Result<Self, MissionError> {
        if checkpoint.temperatures.len() != model.grid().cell_count() {
            return Err(MissionError::invalid(
                "checkpoint field does not match the grid",
            ));
        }
        if checkpoint.time_s.is_nan()
            || checkpoint.time_s < 0.0
            || checkpoint.time_s > profile.total_duration()
        {
            return Err(MissionError::invalid("checkpoint time outside the profile"));
        }
        let rad = checkpoint.radiation.map(|[s, sink, h_r]| RadLinState {
            lin_surface_c: s,
            lin_sink_c: sink,
            h_r,
        });
        Self::init(
            model,
            profile,
            config,
            checkpoint.temperatures.clone(),
            checkpoint.time_s,
            Some(checkpoint.dt_s),
            checkpoint.step,
            rad,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn init(
        mut model: FvModel,
        profile: MissionProfile,
        config: MissionConfig,
        temps: Vec<f64>,
        time_s: f64,
        dt_override: Option<f64>,
        step_index: u64,
        rad_override: Option<RadLinState>,
    ) -> Result<Self, MissionError> {
        config.validate()?;
        let theta = config.scheme.theta();
        let t_end = profile.total_duration();
        let n = temps.len();

        let cap = model.capacities();
        if cap.iter().any(|&c| c.is_nan() || c <= 0.0) {
            return Err(MissionError::invalid(
                "cell heat capacities must be positive",
            ));
        }
        // Snapshot the source layout, then zero the model's own sources
        // so every assembly returns a pure boundary-condition `b`; the
        // driver re-adds `power_scale(t) · base_sources` itself.
        let base_sources = model.sources().to_vec();
        model.scale_sources(0.0);

        let (rad_cells, rad_cell_area) = match &config.radiating {
            Some(rad) => face_cells(&model, rad.face),
            None => (Vec::new(), 0.0),
        };

        let dt = match (&config.control, dt_override) {
            (_, Some(dt)) => dt,
            (StepControl::Fixed { dt }, None) => *dt,
            (StepControl::Adaptive(cfg), None) => cfg.dt_init,
        };
        if !(dt.is_finite() && dt > 0.0) {
            return Err(MissionError::invalid("step length must be positive"));
        }

        let state0 = profile.sample(time_s);
        let rad_state = match &config.radiating {
            Some(rad) => Some(match rad_override {
                Some(r) => r,
                None => {
                    let surface = mean_over(&temps, &rad_cells);
                    linearize(rad.emissivity, surface, state0.sink.value())?
                }
            }),
            None => None,
        };

        let mut solver_config = model
            .solver_config()
            .clone()
            .context("mission transient")
            .grid_dims(model.grid().shape())
            .record_history(false);
        // Driver policy: a mission is a long run of repeated solves
        // whose θ-matrix values change every few steps (dt ladder,
        // relinearisation), so setup cost on a value change decides
        // the wall. IC(0) refactors in place on its cached pattern;
        // multigrid rebuilds its whole hierarchy. The `mission_precond`
        // crossover table in BENCH_sweeps.json (DESIGN.md §12) has
        // IC(0) ahead on every measured grid, 8³ to 64³ and the thin
        // orbit plates, so the stock Jacobi config is upgraded to
        // `MISSION_PRECOND` at any size. An explicitly configured
        // preconditioner is kept.
        if solver_config.get_preconditioner() == Precond::Jacobi {
            solver_config = solver_config.preconditioner(MISSION_PRECOND);
        }

        let mut driver = Self {
            model,
            profile,
            config,
            theta,
            t_end,
            time_s,
            dt,
            step_index,
            temps,
            rad_state,
            cap,
            base_sources,
            rad_cells,
            rad_cell_area,
            a: CsrMatrix::from_row_fn(1, 1, |_, out| out.push((0, 1.0))),
            b_bc: Vec::new(),
            b_now: vec![0.0; n],
            m: None,
            m_dt_bits: 0,
            applied: AppliedKey::none(),
            at: vec![0.0; n],
            rhs: vec![0.0; n],
            delta: vec![0.0; n],
            b_next: vec![0.0; n],
            workspace: PcgWorkspace::new(),
            solver_config,
            source_hook: None,
            stats: MissionStats::default(),
            last_solve: None,
            dt_history: Vec::new(),
        };
        driver.apply_bcs(&state0);
        driver.compose_rhs_into_b_now(time_s, &state0);
        Ok(driver)
    }

    /// Injects a per-step source shaping hook (manufactured solutions,
    /// scripted loads). Replaces any previous hook and recomposes the
    /// current right-hand side.
    pub fn set_source_hook(&mut self, hook: SourceHook) {
        self.source_hook = Some(hook);
        let state = self.profile.sample(self.time_s);
        self.compose_rhs_into_b_now(self.time_s, &state);
    }

    /// Mission time, s.
    pub fn time(&self) -> f64 {
        self.time_s
    }

    /// Whether the mission has reached the end of its profile.
    pub fn finished(&self) -> bool {
        self.time_s >= self.t_end
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MissionStats {
        &self.stats
    }

    /// Statistics of the most recent linear solve (accepted or
    /// rejected attempt): the effective preconditioner, its iteration
    /// count and whether the cached factor or hierarchy was reused.
    /// `None` before the first step.
    pub fn last_solve_stats(&self) -> Option<&SolverStats> {
        self.last_solve.as_ref()
    }

    /// The underlying model (sources zeroed; boundary conditions track
    /// the profile).
    pub fn model(&self) -> &FvModel {
        &self.model
    }

    /// The accepted step lengths so far, s — from driver creation, so a
    /// restored driver records only its own continuation.
    pub fn dt_history(&self) -> &[f64] {
        &self.dt_history
    }

    /// The current temperature field.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed driver (lengths match by
    /// construction).
    pub fn field(&self) -> Result<FvField, MissionError> {
        Ok(self.model.field_from_temperatures(self.temps.clone())?)
    }

    /// Raw per-cell temperatures, °C, grid order.
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }

    /// Total thermal energy relative to 0 °C: `Σ capᵢ·Tᵢ`, J — the
    /// quantity the conservation tests track.
    pub fn thermal_energy(&self) -> f64 {
        self.cap.iter().zip(&self.temps).map(|(c, t)| c * t).sum()
    }

    /// Captures the full trajectory state needed to resume bit-exactly.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            step: self.step_index,
            time_s: self.time_s,
            dt_s: self.dt,
            temperatures: self.temps.clone(),
            radiation: self
                .rad_state
                .map(|r| [r.lin_surface_c, r.lin_sink_c, r.h_r]),
        }
    }

    /// A 64-bit fingerprint of the trajectory so far: every accepted
    /// step length plus the current field, bit-exact.
    pub fn trajectory_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("mission.trajectory");
        fp.write_u64(self.step_index);
        fp.write_f64(self.time_s);
        fp.write_f64s(&self.dt_history);
        fp.write_f64s(&self.temps);
        fp.finish()
    }

    /// Runs until the end of the profile (or `max_steps`).
    ///
    /// # Errors
    ///
    /// Returns an error when a linear solve fails or the step budget is
    /// exhausted before the profile ends.
    pub fn run_to_end(&mut self) -> Result<(), MissionError> {
        let mut steps = 0usize;
        while !self.finished() {
            if steps >= self.config.max_steps {
                return Err(MissionError::invalid(format!(
                    "mission exceeded max_steps = {} at t = {:.3} s of {:.3} s",
                    self.config.max_steps, self.time_s, self.t_end
                )));
            }
            self.step()?;
            steps += 1;
        }
        Ok(())
    }

    /// Advances one accepted step (retrying rejected attempts
    /// internally).
    ///
    /// # Errors
    ///
    /// Returns an error when the mission is already finished or a
    /// linear solve fails.
    pub fn step(&mut self) -> Result<StepOutcome, MissionError> {
        if self.finished() {
            return Err(MissionError::invalid("mission profile already finished"));
        }
        let mut rejections = 0usize;
        loop {
            let remaining = self.t_end - self.time_s;
            let clamped = remaining <= self.dt;
            let dt_att = if clamped { remaining } else { self.dt };
            let t_next = if clamped {
                self.t_end
            } else {
                self.time_s + dt_att
            };
            let state = self.profile.sample(t_next);
            self.apply_bcs(&state);
            self.compose_rhs(t_next, &state);
            self.ensure_theta_system(dt_att);

            // rhs = θ·b_next + (1−θ)·b_now − A·T.
            let threads = self.solver_config.get_threads();
            self.a.spmv_into(&self.temps, &mut self.at, threads);
            let theta = self.theta;
            for i in 0..self.rhs.len() {
                self.rhs[i] = theta * self.b_next[i] + (1.0 - theta) * self.b_now[i] - self.at[i];
            }

            self.delta.fill(0.0);
            let m = self
                .m
                .as_ref()
                .expect("θ-system built by ensure_theta_system");
            let stats = solve_sparse_into(
                &mut self.workspace,
                m,
                &self.rhs,
                &mut self.delta,
                &self.solver_config,
            )
            .map_err(MissionError::from)?;
            self.record_solve(stats);

            let (accepted, err, at_floor) = self.judge(dt_att);
            if accepted {
                for (t, d) in self.temps.iter_mut().zip(&self.delta) {
                    *t += d;
                }
                self.time_s = t_next;
                self.step_index += 1;
                self.stats.accepted += 1;
                if at_floor {
                    self.stats.forced += 1;
                    counter!("mission.steps.forced");
                }
                if self.stats.min_dt == 0.0 || dt_att < self.stats.min_dt {
                    self.stats.min_dt = dt_att;
                }
                if dt_att > self.stats.max_dt {
                    self.stats.max_dt = dt_att;
                }
                self.dt_history.push(dt_att);
                counter!("mission.steps.accepted");
                std::mem::swap(&mut self.b_now, &mut self.b_next);
                if !clamped {
                    self.adapt_dt(err);
                }
                self.maybe_relinearize(&state);
                return Ok(StepOutcome {
                    time_s: self.time_s,
                    dt_s: dt_att,
                    error: err,
                    rejections,
                });
            }

            rejections += 1;
            self.stats.rejected += 1;
            counter!("mission.steps.rejected");
            self.shrink_dt(err);
        }
    }

    /// Accept/reject the solved increment: compares against the
    /// explicit-Euler predictor `δ̂ᵢ = dt·(b_nowᵢ − (A·T)ᵢ)/capᵢ` in a
    /// weighted-RMS norm. Returns `(accepted, err, at_floor)`.
    fn judge(&self, dt_att: f64) -> (bool, f64, bool) {
        let cfg = match &self.config.control {
            StepControl::Fixed { .. } => return (true, 0.0, false),
            StepControl::Adaptive(cfg) => cfg,
        };
        let n = self.delta.len();
        let mut sum = 0.0;
        for i in 0..n {
            let pred = dt_att * (self.b_now[i] - self.at[i]) / self.cap[i];
            let scale = cfg.abs_tol + cfg.rel_tol * (self.temps[i] + self.delta[i]).abs();
            let e = (self.delta[i] - pred) / scale;
            sum += e * e;
        }
        let err = (sum / n as f64).sqrt();
        let at_floor = dt_att <= cfg.dt_min * (1.0 + 1e-12);
        (err <= 1.0 || at_floor, err, at_floor)
    }

    /// Post-acceptance controller: suggest `dt·safety·err^(−1/2)`, but
    /// only adopt it past the growth/shrink triggers so factor-reuse
    /// streaks survive.
    fn adapt_dt(&mut self, err: f64) {
        let cfg = match &self.config.control {
            StepControl::Fixed { .. } => return,
            StepControl::Adaptive(cfg) => *cfg,
        };
        let factor = if err > 0.0 {
            (cfg.safety / err.sqrt()).clamp(cfg.min_shrink, cfg.max_growth)
        } else {
            cfg.max_growth
        };
        let suggestion = (self.dt * factor).clamp(cfg.dt_min, cfg.dt_max);
        if suggestion >= self.dt * cfg.growth_trigger || suggestion <= self.dt * cfg.shrink_trigger
        {
            self.dt = suggestion;
        }
    }

    /// Post-rejection controller: always shrink.
    fn shrink_dt(&mut self, err: f64) {
        let cfg = match &self.config.control {
            StepControl::Fixed { .. } => return,
            StepControl::Adaptive(cfg) => *cfg,
        };
        let factor = if err > 0.0 {
            (cfg.safety / err.sqrt()).clamp(cfg.min_shrink, 0.9)
        } else {
            cfg.min_shrink
        };
        self.dt = (self.dt * factor).max(cfg.dt_min);
    }

    /// Applies the sampled boundary state to the model and reassembles
    /// the operator — but only when the applied bits actually change.
    fn apply_bcs(&mut self, state: &BoundaryState) {
        let h_r_bits = self.rad_state.map_or(u64::MAX - 1, |r| r.h_r.to_bits());
        let key = AppliedKey {
            ambient: state.ambient.value().to_bits(),
            h: state.h.value().to_bits(),
            sink: state.sink.value().to_bits(),
            h_r: h_r_bits,
        };
        if key == self.applied {
            self.stats.matrix_reuses += 1;
            counter!("mission.matrix.reuses");
            return;
        }
        for &face in &self.config.convective_faces {
            self.model.set_face_bc(
                face,
                FaceBc::Convection {
                    h: state.h,
                    ambient: state.ambient,
                },
            );
        }
        if let (Some(rad), Some(lin)) = (&self.config.radiating, &self.rad_state) {
            self.model.set_face_bc(
                rad.face,
                FaceBc::Convection {
                    h: HeatTransferCoeff::new(lin.h_r),
                    ambient: state.sink,
                },
            );
        }
        let (a_new, b_bc) = self.model.assemble_operator();
        let a_changed = self.b_bc.is_empty() || a_new.values() != self.a.values();
        self.a = a_new;
        self.b_bc = b_bc;
        if a_changed {
            // Operator values moved: the θ-system must be rebuilt (the
            // workspace will refactor on the value change).
            self.m = None;
        } else {
            self.stats.matrix_reuses += 1;
            counter!("mission.matrix.reuses");
        }
        self.applied = key;
    }

    /// Composes the full right-hand side at `t` into `b_next`:
    /// boundary terms + scaled dissipation + absorbed environmental
    /// flux + hook.
    fn compose_rhs(&mut self, t: f64, state: &BoundaryState) {
        self.b_next.copy_from_slice(&self.b_bc);
        if state.power_scale != 0.0 {
            for (b, s) in self.b_next.iter_mut().zip(&self.base_sources) {
                *b += state.power_scale * s;
            }
        }
        if let Some(rad) = &self.config.radiating {
            let q = rad.absorptivity * state.flux_w_m2 * self.rad_cell_area;
            if q != 0.0 {
                for &c in &self.rad_cells {
                    self.b_next[c] += q;
                }
            }
        }
        if let Some(hook) = &self.source_hook {
            hook(t, &mut self.b_next);
        }
    }

    /// Same composition, into `b_now` (used at construction/restore).
    fn compose_rhs_into_b_now(&mut self, t: f64, state: &BoundaryState) {
        self.compose_rhs(t, state);
        self.b_now.copy_from_slice(&self.b_next);
    }

    /// Builds (or keeps) the θ-system `M = C/dt + θ·A`.
    fn ensure_theta_system(&mut self, dt: f64) {
        let dt_bits = dt.to_bits();
        if self.m.is_some() && self.m_dt_bits == dt_bits {
            return;
        }
        let pattern = self.a.pattern();
        let row_offsets = self.a.row_offsets();
        let col_indices = self.a.col_indices();
        let values = self.a.values();
        let cap = &self.cap;
        let theta = self.theta;
        let threads = self.solver_config.get_threads();
        let m = CsrMatrix::from_pattern_row_fn(&pattern, threads, |row, out| {
            for idx in row_offsets[row]..row_offsets[row + 1] {
                let col = col_indices[idx];
                let mut v = theta * values[idx];
                if col == row {
                    v += cap[row] / dt;
                }
                out.push((col, v));
            }
        });
        self.m = Some(m);
        self.m_dt_bits = dt_bits;
        self.stats.matrix_rebuilds += 1;
        counter!("mission.matrix.rebuilds");
    }

    /// Refreshes the lagged radiation linearisation when the surface or
    /// sink temperature has drifted past the threshold. On a refresh
    /// the boundary conditions and `b_now` are immediately recomposed,
    /// keeping the invariant that the post-step state is fully
    /// determined by `(T, t, dt, rad_state)` — which is exactly what a
    /// [`Checkpoint`] captures, making restore bit-exact.
    fn maybe_relinearize(&mut self, state: &BoundaryState) {
        let Some(rad) = &self.config.radiating else {
            return;
        };
        let Some(lin) = &self.rad_state else {
            return;
        };
        let surface = mean_over(&self.temps, &self.rad_cells);
        let sink = state.sink.value();
        let dk = self.config.relinearize_dk;
        if (surface - lin.lin_surface_c).abs() > dk || (sink - lin.lin_sink_c).abs() > dk {
            if let Ok(new_lin) = linearize(rad.emissivity, surface, sink) {
                self.rad_state = Some(new_lin);
                self.stats.relinearizations += 1;
                counter!("mission.relinearizations");
                let state = *state;
                self.apply_bcs(&state);
                self.compose_rhs_into_b_now(self.time_s, &state);
            }
        }
    }

    fn record_solve(&mut self, stats: SolverStats) {
        self.stats.solves += 1;
        self.stats.solver_iterations += stats.iterations;
        let factor_reused = stats.factorization.as_ref().is_some_and(|f| f.reused)
            || stats.spectral.as_ref().is_some_and(|s| s.reused);
        if factor_reused {
            self.stats.factor_reuses += 1;
        }
        counter!("solver.transient.solves");
        counter!("solver.transient.steps");
        counter!("solver.transient.iterations", stats.iterations);
        self.last_solve = Some(stats);
    }
}

/// Cell indices on an exterior face and the per-cell face area.
fn face_cells(model: &FvModel, face: Face) -> (Vec<usize>, f64) {
    let (nx, ny, nz) = model.grid().shape();
    let (dx, dy, dz) = model.grid().spacing();
    let mut cells = Vec::new();
    let idx = |i: usize, j: usize, k: usize| i + nx * (j + ny * k);
    let area = match face {
        Face::XMin | Face::XMax => dy * dz,
        Face::YMin | Face::YMax => dx * dz,
        Face::ZMin | Face::ZMax => dx * dy,
    };
    match face {
        Face::XMin | Face::XMax => {
            let i = if face == Face::XMin { 0 } else { nx - 1 };
            for k in 0..nz {
                for j in 0..ny {
                    cells.push(idx(i, j, k));
                }
            }
        }
        Face::YMin | Face::YMax => {
            let j = if face == Face::YMin { 0 } else { ny - 1 };
            for k in 0..nz {
                for i in 0..nx {
                    cells.push(idx(i, j, k));
                }
            }
        }
        Face::ZMin | Face::ZMax => {
            let k = if face == Face::ZMin { 0 } else { nz - 1 };
            for j in 0..ny {
                for i in 0..nx {
                    cells.push(idx(i, j, k));
                }
            }
        }
    }
    (cells, area)
}

fn mean_over(values: &[f64], cells: &[usize]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().map(|&c| values[c]).sum::<f64>() / cells.len() as f64
}

fn linearize(emissivity: f64, surface_c: f64, sink_c: f64) -> Result<RadLinState, MissionError> {
    let h = radiation_coefficient(emissivity, Celsius::new(surface_c), Celsius::new(sink_c))?;
    Ok(RadLinState {
        lin_surface_c: surface_c,
        lin_sink_c: sink_c,
        h_r: h.value(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MissionPhase;
    use aeropack_materials::Material;
    use aeropack_thermal::FvGrid;
    use aeropack_units::Power;

    fn plate_model() -> FvModel {
        let grid = FvGrid::new((0.1, 0.1, 0.01), (6, 6, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(10.0), (1, 1, 0), (5, 5, 1))
            .unwrap();
        model
    }

    fn constant_profile(duration_s: f64, h: f64, ambient: f64) -> MissionProfile {
        let state = BoundaryState {
            ambient: Celsius::new(ambient),
            h: HeatTransferCoeff::new(h),
            sink: Celsius::new(ambient),
            flux_w_m2: 0.0,
            power_scale: 1.0,
        };
        MissionProfile::new(vec![MissionPhase::constant("hold", duration_s, state)]).unwrap()
    }

    #[test]
    fn fixed_step_marches_to_the_end() {
        let config = MissionConfig::new(Scheme::BackwardEuler)
            .control(StepControl::Fixed { dt: 5.0 })
            .convective_face(Face::ZMax);
        let mut driver = MissionDriver::new(
            plate_model(),
            constant_profile(100.0, 25.0, 20.0),
            config,
            Celsius::new(20.0),
        )
        .unwrap();
        driver.run_to_end().unwrap();
        assert!((driver.time() - 100.0).abs() < 1e-9);
        assert_eq!(driver.stats().accepted, 20);
        assert_eq!(driver.stats().rejected, 0);
        // Dissipation heats the plate above ambient.
        assert!(driver.field().unwrap().max_temperature() > Celsius::new(20.0));
    }

    /// Flies three adaptive steps of the plate under `solver` (the
    /// model's own config) and returns the last solve's stats.
    fn last_stats_after_steps(solver: Option<SolverConfig>) -> SolverStats {
        let mut model = plate_model();
        if let Some(cfg) = solver {
            model.set_solver_config(cfg);
        }
        let config = MissionConfig::new(Scheme::Trapezoidal)
            .control(StepControl::Adaptive(AdaptiveConfig::default()))
            .convective_face(Face::ZMax);
        let mut driver = MissionDriver::new(
            model,
            constant_profile(600.0, 25.0, 20.0),
            config,
            Celsius::new(40.0),
        )
        .unwrap();
        assert!(driver.last_solve_stats().is_none());
        for _ in 0..3 {
            driver.step().unwrap();
        }
        let stats = driver.last_solve_stats().unwrap().clone();
        assert!(stats.converged());
        assert!(stats.iterations > 0);
        stats
    }

    #[test]
    fn default_config_reports_the_policy_preconditioner() {
        let stats = last_stats_after_steps(None);
        assert_eq!(stats.requested_preconditioner, MISSION_PRECOND);
        assert_eq!(stats.preconditioner, MISSION_PRECOND);
        assert!(stats.factorization.is_some());
        assert!(stats.spectral.is_none());
    }

    #[test]
    fn explicit_multigrid_config_keeps_multigrid() {
        let stats =
            last_stats_after_steps(Some(SolverConfig::new().preconditioner(Precond::Multigrid)));
        assert_eq!(stats.preconditioner, Precond::Multigrid);
        assert!(stats.spectral.is_some());
        assert!(stats.factorization.is_none());
    }

    #[test]
    fn explicit_chebyshev_config_keeps_chebyshev() {
        let stats = last_stats_after_steps(Some(
            SolverConfig::new().preconditioner(Precond::Chebyshev(3)),
        ));
        assert_eq!(stats.preconditioner, Precond::Chebyshev(3));
        assert_eq!(stats.spectral.map(|s| s.degree), Some(3));
    }

    #[test]
    fn adaptive_grows_the_step_on_a_smooth_decay() {
        let config = MissionConfig::new(Scheme::Trapezoidal)
            .control(StepControl::Adaptive(AdaptiveConfig {
                dt_init: 0.5,
                dt_max: 30.0,
                ..AdaptiveConfig::default()
            }))
            .convective_face(Face::ZMax);
        let mut driver = MissionDriver::new(
            plate_model(),
            constant_profile(600.0, 25.0, 20.0),
            config,
            Celsius::new(60.0),
        )
        .unwrap();
        driver.run_to_end().unwrap();
        let stats = *driver.stats();
        assert!(stats.accepted > 0);
        // The controller must have grown dt well past the initial 0.5 s.
        assert!(stats.max_dt > 2.0, "max_dt = {}", stats.max_dt);
        // Long constant-dt streaks mean most steps reuse the θ-system.
        assert!(
            stats.matrix_reuses > stats.matrix_rebuilds,
            "reuses {} ≤ rebuilds {}",
            stats.matrix_reuses,
            stats.matrix_rebuilds
        );
        // Warm solves must have reused preconditioner state.
        assert!(stats.factor_reuses > 0, "no factor reuse: {stats:?}");
    }

    #[test]
    fn approaches_the_analytic_lumped_equilibrium() {
        // With high conductivity and long duration, the plate approaches
        // the lumped equilibrium T = T_amb + P/(h·A).
        let grid = FvGrid::new((0.1, 0.1, 0.01), (4, 4, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(5.0), (0, 0, 0), (4, 4, 1))
            .unwrap();
        let h = 50.0;
        let config = MissionConfig::new(Scheme::BackwardEuler)
            .control(StepControl::Adaptive(AdaptiveConfig {
                dt_max: 120.0,
                ..AdaptiveConfig::default()
            }))
            .convective_face(Face::ZMax);
        let mut driver = MissionDriver::new(
            model,
            constant_profile(20_000.0, h, 20.0),
            config,
            Celsius::new(20.0),
        )
        .unwrap();
        driver.run_to_end().unwrap();
        let expected = 20.0 + 5.0 / (h * 0.01);
        let got = driver.field().unwrap().mean_temperature().value();
        assert!(
            (got - expected).abs() < 0.5,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn radiating_face_cools_toward_deep_space() {
        let state = BoundaryState {
            ambient: Celsius::new(-270.0),
            h: HeatTransferCoeff::new(0.0),
            sink: Celsius::new(-270.0),
            flux_w_m2: 0.0,
            power_scale: 0.0,
        };
        let profile =
            MissionProfile::new(vec![MissionPhase::constant("eclipse", 2_000.0, state)]).unwrap();
        let grid = FvGrid::new((0.2, 0.2, 0.01), (4, 4, 1)).unwrap();
        let model = FvModel::new(grid, &Material::aluminum_6061());
        let config = MissionConfig::new(Scheme::BackwardEuler)
            .control(StepControl::Adaptive(AdaptiveConfig::default()))
            .radiating_face(RadiatingFace {
                face: Face::ZMax,
                emissivity: 0.85,
                absorptivity: 0.3,
            });
        let mut driver = MissionDriver::new(model, profile, config, Celsius::new(40.0)).unwrap();
        driver.run_to_end().unwrap();
        let end = driver.field().unwrap().mean_temperature().value();
        assert!(end < 30.0, "radiation barely cooled: {end}");
        assert!(driver.stats().relinearizations > 0);
    }

    #[test]
    fn solar_flux_heats_the_radiating_face() {
        let dark = BoundaryState {
            ambient: Celsius::new(-270.0),
            h: HeatTransferCoeff::new(0.0),
            sink: Celsius::new(-270.0),
            flux_w_m2: 0.0,
            power_scale: 0.0,
        };
        let sunlit = BoundaryState {
            flux_w_m2: 1361.0,
            ..dark
        };
        let profile =
            MissionProfile::new(vec![MissionPhase::constant("sun", 500.0, sunlit)]).unwrap();
        let profile_dark =
            MissionProfile::new(vec![MissionPhase::constant("dark", 500.0, dark)]).unwrap();
        let grid = FvGrid::new((0.2, 0.2, 0.01), (4, 4, 1)).unwrap();
        let config = MissionConfig::new(Scheme::BackwardEuler)
            .control(StepControl::Fixed { dt: 10.0 })
            .radiating_face(RadiatingFace {
                face: Face::ZMax,
                emissivity: 0.85,
                absorptivity: 0.9,
            });
        let model = FvModel::new(grid, &Material::aluminum_6061());
        let mut lit =
            MissionDriver::new(model.clone(), profile, config.clone(), Celsius::new(0.0)).unwrap();
        let mut shade = MissionDriver::new(model, profile_dark, config, Celsius::new(0.0)).unwrap();
        lit.run_to_end().unwrap();
        shade.run_to_end().unwrap();
        let t_lit = lit.field().unwrap().mean_temperature().value();
        let t_shade = shade.field().unwrap().mean_temperature().value();
        assert!(t_lit > t_shade + 1.0, "sun {t_lit} vs shade {t_shade}");
    }

    #[test]
    fn checkpoint_restore_is_bit_exact() {
        let config = MissionConfig::new(Scheme::Trapezoidal)
            .control(StepControl::Adaptive(AdaptiveConfig {
                dt_init: 0.5,
                ..AdaptiveConfig::default()
            }))
            .convective_face(Face::ZMax);
        let profile = constant_profile(300.0, 30.0, 15.0);

        // Reference run straight through.
        let mut reference = MissionDriver::new(
            plate_model(),
            profile.clone(),
            config.clone(),
            Celsius::new(50.0),
        )
        .unwrap();
        // Run halfway, checkpoint, keep going.
        let mut first = MissionDriver::new(
            plate_model(),
            profile.clone(),
            config.clone(),
            Celsius::new(50.0),
        )
        .unwrap();
        while first.time() < 150.0 {
            first.step().unwrap();
        }
        let checkpoint = first.checkpoint();
        first.run_to_end().unwrap();

        let mut resumed =
            MissionDriver::restore(plate_model(), profile, config, &checkpoint).unwrap();
        resumed.run_to_end().unwrap();
        reference.run_to_end().unwrap();

        // The resumed driver reproduces the original continuation
        // bit-for-bit, and both match the uninterrupted reference.
        assert_eq!(first.temperatures(), resumed.temperatures());
        assert_eq!(first.temperatures(), reference.temperatures());
        let tail = &first.dt_history()[first.dt_history().len() - resumed.dt_history().len()..];
        assert_eq!(tail, resumed.dt_history());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(MissionConfig::new(Scheme::BackwardEuler)
            .control(StepControl::Fixed { dt: 0.0 })
            .validate()
            .is_err());
        assert!(MissionConfig::new(Scheme::BackwardEuler)
            .control(StepControl::Adaptive(AdaptiveConfig {
                dt_min: 10.0,
                dt_max: 1.0,
                ..AdaptiveConfig::default()
            }))
            .validate()
            .is_err());
        assert!(MissionConfig::new(Scheme::BackwardEuler)
            .convective_face(Face::ZMax)
            .radiating_face(RadiatingFace {
                face: Face::ZMax,
                emissivity: 0.9,
                absorptivity: 0.5,
            })
            .validate()
            .is_err());
        assert!(MissionConfig::new(Scheme::BackwardEuler)
            .radiating_face(RadiatingFace {
                face: Face::ZMin,
                emissivity: 1.5,
                absorptivity: 0.5,
            })
            .validate()
            .is_err());
    }
}
