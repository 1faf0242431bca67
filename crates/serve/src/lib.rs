//! `aeropack-serve`: the batched co-design analysis service.
//!
//! The workspace's physics crates answer one question at a time; a
//! co-design loop asks thousands (power sweeps, configuration grids,
//! what-if batches). This crate turns the workspace into a *service*:
//! a persistent worker pool behind a bounded job queue, fronted by the
//! unified [`AnalysisRequest`]/[`AnalysisResponse`] vocabulary, with
//!
//! - **admission control** — the queue is bounded; a full queue
//!   rejects at submission ([`Error::QueueFull`]) instead of building
//!   unbounded backlog,
//! - **deadline & priority scheduling** — three priority classes with
//!   strict FIFO inside each (no priority inversion), and per-request
//!   deadlines enforced before a job ever occupies a solver,
//! - **request coalescing** — same-model steady solves queued together
//!   collapse into one assembly + multi-RHS PCG call, bit-identical to
//!   running them one by one,
//! - **a content-addressed result cache** — requests are canonically
//!   fingerprinted ([`Workload::fingerprint`]); repeats are answered
//!   without touching a solver, with LRU eviction,
//! - **observability** — `serve.*` counters and a `serve.latency_ms`
//!   histogram through `aeropack-obs`.
//!
//! Two front doors share all of it: the in-process [`Client`] (what
//! the experiments use) and a line-delimited JSON TCP daemon
//! ([`serve`] + [`SocketClient`]) speaking the [`wire`] codec.
//!
//! ```no_run
//! use aeropack_serve::{AnalysisRequest, Client, SebSpec, SeatKind, ServeConfig};
//!
//! let client = Client::start(ServeConfig::new().workers(2));
//! let spec = SebSpec {
//!     seat: SeatKind::Aluminum,
//!     lhp: true,
//!     tilt_deg: 0.0,
//!     ambient_c: 25.0,
//! };
//! let answer = client.call(AnalysisRequest::SebCapability {
//!     spec,
//!     dt_limit_k: 25.0,
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod queue;
mod request;
mod service;
mod transport;
pub mod wire;
mod workload;

pub use error::Error;
pub use queue::Priority;
pub use request::{
    AnalysisRequest, AnalysisResponse, BoardSpec, CoolingModeSpec, FemPlateSpec, MaterialKind,
    MissionSpec, OptimizeSpec, PlateSpec, SchemeKind, SeatKind, SebSpec, TransientSpec,
};
pub use service::{Client, ServeConfig, Service, ServiceStats, ServiceTiming, Ticket};
pub use transport::{serve, Daemon, SocketClient};
pub use workload::{
    run_all, BoardAnalysis, FemAnalysis, FemQuery, FvAnalysis, SebAnalysis, SebQuery, Workload,
    Workspace,
};
