//! `aeropack-verify` — the workspace's verification substrate.
//!
//! Three layers, all hermetic (no external dependencies, deterministic
//! by construction):
//!
//! 1. **Property testing with shrinking** — [`Gen`] combinators over a
//!    recorded SplitMix64 choice stream and a [`check`] runner that, on
//!    failure, shrinks the counterexample to a minimal one (ranged
//!    floats shrink toward their lower bound, sizes toward their
//!    minimum, composites component-wise) and prints a one-line
//!    reproducer seed. The per-crate `tests/properties.rs` suites run
//!    on it.
//! 2. **MMS convergence studies** — [`mms`] injects manufactured
//!    analytic solutions into the thermal FV and FEM plate models,
//!    refines the mesh through the [`Sweep`](aeropack_sweep::Sweep)
//!    engine, and asserts the observed O(h²) rates.
//! 3. **Golden-snapshot gating** — [`Snapshot`] serializes key physics
//!    outputs to tolerance-tagged JSON under `tests/golden/` and fails
//!    CI with a per-quantity drift table when they move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod mms;
pub mod snapshot;

pub use check::{check, check_outcome, Failure};
pub use gen::{constant, one_of, tuple3, tuple4, tuple5, Gen, Source};
pub use mms::{
    fem_plate_study, fit_order, mission_temporal_error, mission_temporal_study, thermal_fv_study,
    MmsStudy,
};
pub use snapshot::{drift_table, Drift, Quantity, Snapshot, UPDATE_ENV};
