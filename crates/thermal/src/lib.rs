//! Finite-volume conduction, resistive thermal networks and convection
//! correlations — the reproduction of the paper's FloTHERM role.
//!
//! Three layers, matching how the paper's thermal design levels use
//! them (Fig 4):
//!
//! * [`Network`] — lumped resistive networks for Level-1 sizing and for
//!   composing device models (heat pipes, TIM joints, structures).
//! * [`FvModel`] — a 3-D structured finite-volume conduction solver with
//!   orthotropic cells, volumetric sources and convective/fixed/flux
//!   face boundary conditions, for Level-2 (PCB) and Level-3 (component)
//!   fields. Includes an implicit transient stepper for thermal-shock
//!   and warm-up studies.
//! * Correlations ([`natural_convection_vertical_plate`],
//!   [`forced_convection_channel`], …) — the film coefficients that
//!   connect the conduction models to their air environment.
//!
//! # Example: a conduction path with a convective sink
//!
//! ```
//! use aeropack_thermal::Network;
//! use aeropack_units::{Celsius, Power, ThermalResistance};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Network::new();
//! let ambient = net.add_fixed("cabin air", Celsius::new(40.0));
//! let board = net.add_floating("PCB");
//! net.add_heat(board, Power::new(25.0))?;
//! net.connect(board, ambient, ThermalResistance::new(1.8))?;
//! let sol = net.solve()?;
//! assert!((sol.temperature(board)?.value() - 85.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod correlations;
mod error;
mod flownet;
mod fv;
mod network;
mod spreading;

pub use correlations::{
    film_temperature, forced_convection_channel, forced_convection_flat_plate,
    natural_convection_horizontal_plate_down, natural_convection_horizontal_plate_up,
    natural_convection_vertical_plate, radiation_coefficient, STEFAN_BOLTZMANN,
};
pub use error::ThermalError;
pub use flownet::{solve_rack_flow, ChannelImpedance, FanCurve, FlowSolution};
pub use fv::{
    Face, FaceBc, FieldSummary, FvField, FvGrid, FvModel, TransientStepper, FV_SWEEP_GRAIN,
};
pub use network::{Network, NodeId, Solution};
pub use spreading::{spreading_resistance, SpreadingResult};
