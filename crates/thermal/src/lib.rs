//! `HotSpot`-style lumped RC thermal modeling for multi-core processors.
//!
//! The paper's entire analysis rests on the compact thermal model of eq. (2):
//!
//! ```text
//! dT(t)/dt = A·T(t) + B(v)
//! ```
//!
//! where `T` stacks the temperatures of every thermal node, `A` encodes the
//! thermal capacitances/conductances (plus the linearized leakage term `β·T`)
//! and `B(v)` the mode-dependent power injection. The authors obtained `A`
//! and `B` from `HotSpot`-5.02 at the 65 nm node with 4×4 mm cores; this crate
//! builds an equivalent lumped network from first principles:
//!
//! * [`Floorplan`] — 2-D grids (the paper's 2×1, 3×1, 3×2, 3×3 layouts),
//!   heterogeneous tile lists, and 3-D stacks (the introduction's motivating
//!   scenario).
//! * [`RcConfig`] / [`Materials`] — per-core vertical resistances
//!   (die→spreader→sink→ambient), lateral coupling conductances at each layer,
//!   and capacitances, either given directly or derived from material
//!   constants.
//! * [`RcNetwork`] — the assembled conductance matrix `G` (an SPD Laplacian
//!   with ambient legs) and capacitance vector `C` over nodes
//!   {die₀…, spreader₀…, sink₀…}.
//! * [`ThermalModel`] — the LTI system: steady states `T∞ = (G−βE)⁻¹·ψ`, the
//!   response matrix used by the fast exhaustive search, the interval step
//!   `T ↦ e^{A·l}(T − T∞) + T∞` taken in the eigenbasis (diagonalized once;
//!   each step is two basis changes and an elementwise decay, with nothing
//!   cached per `l`), and a stability proof obligation (all eigenvalues of
//!   `A` negative) checked at construction.
//! * [`sim`] — a fixed-step RK4 reference integrator used to cross-validate
//!   the analytic propagator, and [`Trace`] recording for the figure
//!   reproductions.
//!
//! Temperatures are **relative to ambient** (ambient = 0). Use the power
//! crate's `PlatformParams::to_celsius` for display.
//!
//! ```
//! use mosc_thermal::{Floorplan, RcConfig, RcNetwork, ThermalModel};
//!
//! // The paper's 2-core platform: a 1x2 grid of 4x4 mm cores.
//! let floorplan = Floorplan::paper_grid(1, 2)?;
//! let network = RcNetwork::build(&floorplan, &RcConfig::default())?;
//! let model = ThermalModel::new(network, 0.03)?;
//!
//! // Steady state under 10 W per core: every eigenvalue of A is negative,
//! // and both cores settle at the same temperature by symmetry.
//! assert!(model.eigenvalues().max() < 0.0);
//! let t = model.steady_state_cores(&[10.0, 10.0])?;
//! assert!((t[0] - t[1]).abs() < 1e-9);
//! assert!(t[0] > 0.0);
//! # Ok::<(), mosc_thermal::ThermalError>(())
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod config;
mod error;
mod floorplan;
mod grid;
mod model;
mod network;
pub mod sim;
mod trace;

pub use config::{Materials, RcConfig};
pub use error::ThermalError;
pub use floorplan::{CoreGeom, Floorplan};
pub use grid::GridModel;
pub use model::ThermalModel;
pub use network::RcNetwork;
pub use trace::{PeakSample, Trace};

/// Result alias for thermal operations.
pub type Result<T> = std::result::Result<T, ThermalError>;
