//! Static analysis for the mosc workspace: lint platforms, schedules, and
//! claimed solutions against the invariants of Sha et al., "Performance
//! Maximization via Frequency Oscillation on Temperature Constrained
//! Multi-core Processors" (ICPP 2016) — reporting typed [`Diagnostic`]
//! values with stable `M0xx` codes instead of panicking.
//!
//! Three artifact kinds, three lint groups:
//!
//! * **platform** ([`platform`]) — the DVFS level set is strictly sorted and
//!   usable (M001–M003), `T_max` exceeds ambient (M004), the conductance
//!   matrix is symmetric and diagonally dominant (M005–M006), the state
//!   matrix `A = C⁻¹(βE − G)` is Hurwitz-stable — the spectrum assumption
//!   behind Theorems 1–5 — (M007), the power model is monotone over the
//!   levels (M008), the transition overhead is valid (M009), and the core
//!   count is at most `MAX_CORES` (M010).
//! * **schedule** ([`schedule`]) — segments are finite and positive
//!   (M011–M012), cores share one period (M013, Definition 1), the timeline
//!   is step-up (M014, Definition 2 / Theorem 1), and voltages are DVFS
//!   levels of the platform (M016).
//! * **solution** ([`solution`]) — the claimed throughput and peak are
//!   recomputed from scratch (eq. (5) net of overhead; Theorem-1 exact or
//!   sampled peak) and divergence is flagged (M020–M021), feasibility flags
//!   are cross-checked against `T_max` (M022–M023), and the oscillation
//!   factor is checked against the Theorem-5 overhead budget `m ≤ M`
//!   (M017) and the transition count (M024).
//! * **telemetry** ([`telemetry`]) — a recorded `mosc-obs` JSONL stream is
//!   checked for instrumentation and solver anomalies: empty streams
//!   (M050), the AO m-sweep saturating its overhead cap (M051), pruneless
//!   branch-and-bound runs (M052), inconsistent span timing (M053), and
//!   solver spans without kernel counter movement (M054).
//! * **cross-artifact** ([`cross`]) — joins between artifacts: standalone
//!   schedules against the platform's DVFS table (M080), solve claims
//!   recomputed from the referenced platform + schedule (M081), access-log
//!   cache hits against canonical-key derivation (M082), and per-solve
//!   kernel counters against the solver kind (M083).
//! * **concurrency/trace** ([`trace`]) — the serve access log's lifecycle
//!   invariants: timestamp ordering (M090), span-tree well-formedness
//!   (M091), queue-wait accounting (M092), and per-connection sequence
//!   monotonicity (M093).
//! * **bench artifacts** ([`bench`](mod@bench)) — structural checks over the
//!   `BENCH_*.json` streams: schema-v2 metadata presence (M100), latency
//!   quantile ordering (M101), and all-empty timelines (M102).
//!
//! Entry points:
//!
//! * [`pass::run_passes`] — the pass-manager engine behind
//!   `mosc-cli analyze`: load every file once into a typed
//!   [`artifact::Artifacts`] model, run the registered [`pass::Lint`]
//!   passes, then apply severity configuration and a baseline.
//! * [`analyze_spec`] / [`analyze_telemetry`] — the single-file pipelines,
//!   also reachable through the engine.
//! * [`check_platform`] / [`check_schedule`] / [`check_solution`] — typed
//!   checks used by the `debug_assert` hooks in `mosc-core`'s solvers.
//!
//! DESIGN.md §7 tabulates every code with the paper statement it enforces;
//! §13 documents the pass manager and artifact model.

mod access;
pub mod artifact;
pub mod bench;
pub mod cross;
pub mod diag;
pub mod json;
pub mod output;
pub mod pass;
pub mod platform;
pub mod schedule;
pub mod solution;
pub mod spec;
pub mod telemetry;
pub mod trace;

pub use diag::{Code, Diagnostic, Report, Severity};
pub use platform::{check_levels, check_platform, check_t_max_c, check_tau};
pub use schedule::{check_raw_schedule, check_schedule};
pub use solution::{check_solution, SolutionClaim, Tolerances};
pub use spec::{analyze_spec, load_spec, platform_from_doc, platform_from_spec, SpecError};
pub use telemetry::analyze_telemetry;
