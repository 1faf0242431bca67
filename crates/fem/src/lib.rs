//! Structural finite-element solver for avionics packaging design.
//!
//! This crate reproduces the *mechanical* half of the paper's design
//! procedure (its ANSYS workflow): build a bending model of a board or
//! chassis panel, extract modes, and compute harmonic and random-
//! vibration responses against the qualification spectrum.
//!
//! The element library is deliberately scoped to what equipment
//! packaging needs:
//!
//! * [`acm_plate`] — the 12-DOF ACM rectangular Kirchhoff plate-bending
//!   element (boards, covers, chassis walls),
//! * [`bernoulli_beam`] — 2-node Euler–Bernoulli bending element
//!   (stiffeners, rails, the seat-structure rods of the COSEE study),
//! * grounded and coupling springs (wedge locks, mounts, isolators),
//! * lumped masses (connectors, transformers, the "power supply" of the
//!   Ariane navigation unit example).
//!
//! The numerical core — dense factorisations, the Jacobi eigensolver and
//! subspace iteration — lives in [`linalg`] and is written from scratch.
//!
//! # Example: placing a board's first mode
//!
//! The Ariane Navigation Unit story from the paper: design the power
//! supply board so its main resonant mode lands near the 500 Hz slot of
//! the frequency allocation plan.
//!
//! ```
//! use aeropack_fem::{modal, PlateMesh, PlateProperties};
//! use aeropack_materials::Material;
//! use aeropack_units::Length;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let props = PlateProperties::from_material(
//!     &Material::fr4(), Length::from_millimeters(2.4))?
//!     .with_smeared_mass(3.0); // components, kg/m²
//! let mut board = PlateMesh::rectangular(0.16, 0.10, 6, 4, &props)?;
//! board.clamp_edges()?;
//! let modes = modal(&board.model, 1)?;
//! assert!(modes.fundamental().value() > 300.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elements;
mod error;
mod harmonic;
pub mod linalg;
mod modal;
mod model;
mod random;
mod sdof;

pub use elements::{
    acm_plate, acm_plate_center_stress, bernoulli_beam, BeamProperties, PlateProperties,
};
pub use error::FemError;
pub use harmonic::{HarmonicResponse, MODAL_SUM_GRAIN};
pub use modal::{modal, ModalResult};
pub use model::{Dof, Model, PlateMesh};
pub use random::{
    random_response, random_response_with, random_response_with_stats, PsdCurve, RandomResponse,
};
pub use sdof::Sdof;
