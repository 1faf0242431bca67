//! Mission-profile transient analysis: the layer that turns the
//! steady-state equipment models into flight- and orbit-long
//! simulations.
//!
//! The paper's equipment-bay problem is fundamentally transient —
//! avionics fly climb–cruise–descent profiles where ambient
//! temperature, dissipation and radiative sinks all change with flight
//! phase, and orbital payloads cycle between sun and eclipse every 90
//! minutes. This crate provides the three pieces that workload needs:
//!
//! * **Radiation exchange** ([`viewfactor`], [`radiosity`]): analytic
//!   view factors for the box/plate geometries of equipment bays, and a
//!   Gebhart-factor radiosity network that is linearised each step and
//!   coupled into both the resistive flow-network solver and the
//!   finite-volume solver.
//! * **Environment models** ([`environment`], [`profile`]): ambient
//!   temperature/pressure versus altitude (ISA) and flight phase,
//!   solar/albedo flux versus orbit position or latitude/time-of-day,
//!   all expressed as a [`MissionProfile`] — piecewise phases with
//!   time-interpolated boundary conditions.
//! * **An adaptive transient driver** ([`transient`], [`checkpoint`]):
//!   θ-scheme implicit stepping (backward Euler or trapezoidal) with
//!   embedded-error step control over 10⁴–10⁶ steps, warm-started PCG
//!   solves preconditioned by IC(0) by default (refactored in place
//!   when the system matrix values change, reused outright while they
//!   do not; an explicitly configured preconditioner such as multigrid
//!   is kept), and bit-exact checkpointed
//!   trajectories in a compact binary/JSON snapshot format.
//!
//! Mission sweeps run deterministically in parallel through
//! [`sweep_missions`], and `aeropack-serve` exposes the driver behind a
//! `Transient` analysis request.
//!
//! # Examples
//!
//! ```
//! use aeropack_materials::Material;
//! use aeropack_mission::{
//!     AdaptiveConfig, MissionConfig, MissionDriver, MissionProfile, Scheme, StepControl,
//! };
//! use aeropack_thermal::{Face, FvGrid, FvModel};
//! use aeropack_units::{Celsius, HeatTransferCoeff, Power};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A dissipating aluminium plate flying a short climb-cruise-descent.
//! let grid = FvGrid::new((0.1, 0.1, 0.004), (8, 8, 2))?;
//! let mut model = FvModel::new(grid, &Material::aluminum_6061());
//! model.add_power_box(Power::new(15.0), (2, 2, 0), (6, 6, 1))?;
//! let profile = MissionProfile::climb_cruise_descent(
//!     9_000.0,                      // cruise altitude, m
//!     (300.0, 1_200.0, 300.0),      // climb / cruise / descent, s
//!     HeatTransferCoeff::new(30.0), // sea-level film coefficient
//! )?;
//! let config = MissionConfig::new(Scheme::Trapezoidal)
//!     .control(StepControl::Adaptive(AdaptiveConfig::default()))
//!     .convective_face(Face::ZMax);
//! let mut driver = MissionDriver::new(model, profile, config, Celsius::new(15.0))?;
//! driver.run_to_end()?;
//! assert!(driver.stats().accepted > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod checkpoint;
pub mod environment;
pub mod profile;
pub mod radiosity;
pub mod transient;
pub mod viewfactor;

mod sweeps;

pub use checkpoint::Checkpoint;
pub use environment::{altitude_derated_h, atmosphere_at, solar_flux, AtmosphereState, Orbit};
pub use profile::{BoundaryState, MissionPhase, MissionProfile};
pub use radiosity::RadiationNetwork;
pub use sweeps::{sweep_missions, MissionSummary};
pub use transient::{
    AdaptiveConfig, MissionConfig, MissionDriver, MissionStats, RadiatingFace, Scheme, StepControl,
};
pub use viewfactor::{parallel_rectangles, perpendicular_rectangles, ViewFactors};

/// Why a mission-level operation failed.
#[derive(Debug)]
pub enum MissionError {
    /// A geometric, profile or configuration input was out of range.
    Invalid(String),
    /// The underlying thermal model or linear solver failed.
    Thermal(aeropack_thermal::ThermalError),
    /// The environment model rejected an input (altitude out of the ISA
    /// range, …).
    Material(aeropack_materials::MaterialError),
    /// A checkpoint could not be decoded.
    Checkpoint(String),
}

impl MissionError {
    pub(crate) fn invalid(msg: impl Into<String>) -> Self {
        Self::Invalid(msg.into())
    }
}

impl fmt::Display for MissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid(msg) => write!(f, "invalid mission input: {msg}"),
            Self::Thermal(e) => write!(f, "thermal model failed: {e}"),
            Self::Material(e) => write!(f, "environment model failed: {e}"),
            Self::Checkpoint(msg) => write!(f, "checkpoint decode failed: {msg}"),
        }
    }
}

impl std::error::Error for MissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Thermal(e) => Some(e),
            Self::Material(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aeropack_thermal::ThermalError> for MissionError {
    fn from(e: aeropack_thermal::ThermalError) -> Self {
        Self::Thermal(e)
    }
}

impl From<aeropack_materials::MaterialError> for MissionError {
    fn from(e: aeropack_materials::MaterialError) -> Self {
        Self::Material(e)
    }
}

impl From<aeropack_solver::SolverError> for MissionError {
    fn from(e: aeropack_solver::SolverError) -> Self {
        Self::Thermal(e.into())
    }
}
