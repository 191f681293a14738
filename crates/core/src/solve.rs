//! The unified solver API: one dispatcher over the six algorithms.
//!
//! The solvers historically grew six incompatible entry points
//! (`ao::solve_with(&AoOptions)`, `exs::solve_with_threads(usize)`,
//! `exs_bnb::solve -> (Solution, BnbStats)`, …), which meant every layer
//! above them — the CLI, the bench harness, and now the `mosc-serve`
//! daemon — re-implemented per-solver dispatch glue. This module folds them
//! behind:
//!
//! * [`SolverKind`] — a closed enum of the six algorithms with stable wire
//!   ids (`"lns"`, `"exs"`, `"exs-bnb"`, `"ao"`, `"pco"`, `"governor"`);
//! * [`SolveOptions`] — one flat, serializable option set. Flatness is
//!   deliberate: a service caches solve results keyed by a canonical hash of
//!   (platform, kind, options), and a flat struct has exactly one canonical
//!   field order;
//! * [`SolveReport`] — the uniform outcome: the [`Solution`], cross-solver
//!   [`SolverStats`], and the wall-clock time;
//! * [`solve`] — the dispatcher itself.
//!
//! Deadlines: [`SolveOptions::deadline`] bounds the wall time of the
//! enumeration-heavy solvers (EXS and EXS-BnB poll the clock every few
//! thousand nodes and abort with [`crate::AlgoError::DeadlineExceeded`]). The
//! polynomial-time solvers ignore the deadline — their runtime is bounded by
//! construction — which the field's documentation pins as the contract.

use crate::exs_bnb::BnbStats;
use crate::reactive::GovernorOptions;
use crate::{ao, exs, exs_bnb, lns, pco, reactive};
use crate::{AoOptions, Result, Solution};
use mosc_sched::Platform;
use std::time::{Duration, Instant};

/// The six algorithms reachable through [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Level-Next-Step rounding of the continuous ideal point (baseline).
    Lns,
    /// Exhaustive search over constant assignments (Algorithm 1).
    Exs,
    /// Branch-and-bound exhaustive search (same optimum, pruned tree).
    ExsBnb,
    /// The paper's frequency-oscillation method (Algorithm 2).
    Ao,
    /// AO plus per-core phase shifts and headroom refill.
    Pco,
    /// The reactive threshold governor (online-DTM baseline).
    Governor,
}

impl SolverKind {
    /// Every kind, in presentation order (the order `compare`/`profile` use).
    #[must_use]
    pub const fn all() -> [Self; 6] {
        [Self::Lns, Self::Exs, Self::ExsBnb, Self::Ao, Self::Pco, Self::Governor]
    }

    /// The human-facing label, identical to [`Solution::algorithm`].
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Lns => "LNS",
            Self::Exs => "EXS",
            Self::ExsBnb => "EXS-BnB",
            Self::Ao => "AO",
            Self::Pco => "PCO",
            Self::Governor => "Governor",
        }
    }

    /// The stable lowercase wire id (`--algo` values, serve protocol).
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Self::Lns => "lns",
            Self::Exs => "exs",
            Self::ExsBnb => "exs-bnb",
            Self::Ao => "ao",
            Self::Pco => "pco",
            Self::Governor => "governor",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Error from parsing an unknown solver name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSolverError {
    /// The name that did not match any [`SolverKind`] id.
    pub name: String,
}

impl std::fmt::Display for UnknownSolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown solver '{}' (expected lns|exs|exs-bnb|ao|pco|governor)", self.name)
    }
}

impl std::error::Error for UnknownSolverError {}

impl std::str::FromStr for SolverKind {
    type Err = UnknownSolverError;

    /// Parses a wire id or label, case-insensitively (`"ao"`, `"AO"`,
    /// `"exs-bnb"`, `"EXS-BnB"` all parse).
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        Self::all()
            .into_iter()
            .find(|k| k.id() == lower)
            .ok_or_else(|| UnknownSolverError { name: s.to_owned() })
    }
}

/// One flat option set covering every solver. Fields a given solver does not
/// consume are ignored by it (documented per field), so a single struct can
/// be hashed canonically for caching and carried verbatim over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Worker threads for the EXS partition search and for the variants of
    /// a [`solve_batch`] call. `0` = all available. Any value produces
    /// bit-identical results, and the value is part of a service's cache
    /// key. AO, PCO, LNS and the governor ignore it: they solve on the
    /// calling thread.
    pub threads: usize,
    /// Hard cap on the oscillation factor (AO/PCO only).
    pub max_m: usize,
    /// Wall-clock budget for the enumeration solvers. EXS and EXS-BnB poll
    /// the clock every few thousand evaluations and abort with
    /// [`crate::AlgoError::DeadlineExceeded`]; the polynomial-time solvers (LNS,
    /// AO, PCO, governor) ignore it — their runtime is bounded by
    /// construction. `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Base schedule period `t_p` in seconds before oscillation (AO/PCO).
    pub base_period: f64,
    /// Consecutive non-improving oscillation factors before the m-sweep
    /// stops (AO/PCO).
    pub m_patience: usize,
    /// `t_unit = compressed_period / t_unit_divisor` for the TPT pass
    /// (AO/PCO).
    pub t_unit_divisor: usize,
    /// Candidate phase offsets per core (PCO only).
    pub phase_steps: usize,
    /// Samples per period for the sampled-peak evaluation (PCO only).
    pub samples: usize,
    /// Refill step as a fraction of the period, `Δr = 1/refill_divisor`
    /// (PCO only).
    pub refill_divisor: usize,
    /// Reactive-governor configuration (governor only).
    pub governor: GovernorOptions,
}

impl Default for SolveOptions {
    /// Mirrors the per-solver defaults ([`AoOptions::default`],
    /// [`crate::pco::PcoOptions::default`], [`GovernorOptions::default`]),
    /// so `solve(kind, p, &SolveOptions::default())` reproduces the legacy
    /// `<solver>::solve(p)` entry points exactly.
    fn default() -> Self {
        let ao = AoOptions::default();
        let pco = crate::pco::PcoOptions::default();
        Self {
            threads: 0,
            max_m: ao.max_m,
            deadline: None,
            base_period: ao.base_period,
            m_patience: ao.m_patience,
            t_unit_divisor: ao.t_unit_divisor,
            phase_steps: pco.phase_steps,
            samples: pco.samples,
            refill_divisor: pco.refill_divisor,
            governor: GovernorOptions::default(),
        }
    }
}

impl SolveOptions {
    /// The [`AoOptions`] slice of this option set.
    #[must_use]
    pub fn ao_options(&self) -> AoOptions {
        AoOptions {
            base_period: self.base_period,
            max_m: self.max_m,
            m_patience: self.m_patience,
            t_unit_divisor: self.t_unit_divisor,
        }
    }

    /// The [`crate::pco::PcoOptions`] slice of this option set.
    #[must_use]
    pub fn pco_options(&self) -> crate::pco::PcoOptions {
        crate::pco::PcoOptions {
            ao: self.ao_options(),
            phase_steps: self.phase_steps,
            samples: self.samples,
            refill_divisor: self.refill_divisor,
        }
    }
}

/// Cross-solver search statistics. Solvers fill the fields they have
/// meaningful values for and leave the rest at zero; the per-solver
/// telemetry detail stays on the `mosc-obs` side.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Search states examined: EXS assignments evaluated, EXS-BnB tree
    /// nodes visited. Zero for the constructive solvers.
    pub explored: u64,
    /// Subtrees cut by the EXS-BnB thermal bound.
    pub thermal_prunes: u64,
    /// Subtrees cut by the EXS-BnB throughput bound.
    pub throughput_prunes: u64,
    /// DVFS transitions the governor issued over its horizon.
    pub transitions: u64,
    /// Governor time (seconds) any core spent above `T_max`.
    pub violation_time: f64,
}

impl From<BnbStats> for SolverStats {
    fn from(s: BnbStats) -> Self {
        Self {
            explored: s.visited,
            thermal_prunes: s.thermal_prunes,
            throughput_prunes: s.throughput_prunes,
            ..Self::default()
        }
    }
}

/// Kernel-counter increments observed across one [`solve`] call.
///
/// The numeric kernels self-report through `mosc-obs` counters
/// (`expm.calls`, `period_map.matmuls`, …); this struct is the *difference*
/// of those process-global counters read immediately before and after the
/// dispatch, so a serving layer can attribute kernel work to the request
/// that triggered it. The deltas are global by design — EXS fans its
/// partitions out to scoped threads, and a thread-local capture would miss
/// those — so under concurrent solves a delta may include a neighbour's
/// increments; treat it as attribution, not accounting. All zero while the
/// `mosc-obs` recorder is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelDelta {
    /// Matrix exponentials built or applied (`expm.calls`): one per
    /// transient `advance` step; AO and PCO build none.
    pub expm_calls: u64,
    /// Matrix products inside the period-map kernel (`period_map.matmuls`).
    pub period_map_matmuls: u64,
    /// Steady-state temperature evaluations (`steady_state.calls`).
    pub steady_state_calls: u64,
    /// General matrix products (`linalg.matmuls`).
    pub linalg_matmuls: u64,
    /// Symmetric eigendecompositions (`eigen.calls`). These happen only in
    /// `Platform::build`, so a solve on an already-built platform reports 0.
    pub eigen_calls: u64,
    /// Platform-registry hits (`registry.hits`): lookups served an interned
    /// platform with its eigenbasis and T∞ memo already warm. A warm-registry solve must report `eigen_calls == 0` — the
    /// `M110` analyzer lint enforces exactly that join.
    pub registry_hits: u64,
    /// Platform-registry misses (`registry.misses`): lookups that had to
    /// build the platform (cold key, eviction, or a verified collision).
    pub registry_misses: u64,
}

impl KernelDelta {
    /// Reads the current global counter values (absolute, not deltas).
    fn read() -> Self {
        let get = |name| mosc_obs::counter_value(name).unwrap_or(0);
        Self {
            expm_calls: get("expm.calls"),
            period_map_matmuls: get("period_map.matmuls"),
            steady_state_calls: get("steady_state.calls"),
            linalg_matmuls: get("linalg.matmuls"),
            eigen_calls: get("eigen.calls"),
            registry_hits: get("registry.hits"),
            registry_misses: get("registry.misses"),
        }
    }

    /// Element-wise saturating difference `self - earlier`. Saturation
    /// guards against a concurrent `mosc_obs::reset()`/`drain()` zeroing
    /// the counters mid-solve.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            expm_calls: self.expm_calls.saturating_sub(earlier.expm_calls),
            period_map_matmuls: self.period_map_matmuls.saturating_sub(earlier.period_map_matmuls),
            steady_state_calls: self.steady_state_calls.saturating_sub(earlier.steady_state_calls),
            linalg_matmuls: self.linalg_matmuls.saturating_sub(earlier.linalg_matmuls),
            eigen_calls: self.eigen_calls.saturating_sub(earlier.eigen_calls),
            registry_hits: self.registry_hits.saturating_sub(earlier.registry_hits),
            registry_misses: self.registry_misses.saturating_sub(earlier.registry_misses),
        }
    }

    /// `true` when every delta is zero (recorder disabled, or a solver that
    /// never touched the thermal kernels).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// Uniform outcome of a [`solve`] call.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The constructed solution.
    pub solution: Solution,
    /// Cross-solver search statistics.
    pub stats: SolverStats,
    /// Wall-clock time of the solver call itself (excludes any queueing by
    /// the caller).
    pub wall: Duration,
    /// Kernel-counter increments observed across the call (zero while the
    /// `mosc-obs` recorder is disabled).
    pub kernel: KernelDelta,
}

impl SolveReport {
    /// Renders this result as a *solution claim* document — the JSON shape
    /// `mosc-cli analyze` recomputes and cross-checks with the `M081` lint
    /// (and the shape the serve protocol answers with): solver id,
    /// throughput, peak in °C, feasibility, oscillation factor, and the
    /// embedded schedule text so the claim is verifiable on its own
    /// against a platform spec. One line, trailing newline included.
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // m is tiny (≤ max_m)
    pub fn claim_json(&self, kind: SolverKind, platform: &Platform) -> String {
        use mosc_analyze::json::{value_to_json, Value};
        let doc = Value::Object(vec![
            ("status".to_owned(), Value::String("ok".to_owned())),
            ("solver".to_owned(), Value::String(kind.id().to_owned())),
            ("throughput".to_owned(), Value::Number(self.solution.throughput)),
            ("peak_c".to_owned(), Value::Number(self.solution.peak_c(platform))),
            ("feasible".to_owned(), Value::Bool(self.solution.feasible)),
            ("m".to_owned(), Value::Number(self.solution.m as f64)),
            (
                "schedule".to_owned(),
                Value::String(mosc_sched::text::to_text(&self.solution.schedule)),
            ),
        ]);
        let mut line = value_to_json(&doc);
        line.push('\n');
        line
    }
}

/// Runs solver `kind` on `platform` with `opts`, returning the uniform
/// [`SolveReport`].
///
/// This is the single entry point everything above the solver layer — the
/// CLI, `mosc-bench`, the `mosc-serve` daemon — dispatches through.
///
/// # Errors
/// * [`crate::AlgoError::Infeasible`] when even the all-lowest assignment violates
///   `T_max`.
/// * [`crate::AlgoError::InvalidOptions`] for out-of-range options.
/// * [`crate::AlgoError::DeadlineExceeded`] when an enumeration solver ran past
///   [`SolveOptions::deadline`].
/// * Propagated evaluation failures.
pub fn solve(kind: SolverKind, platform: &Platform, opts: &SolveOptions) -> Result<SolveReport> {
    let deadline_at = opts.deadline.map(|d| Instant::now() + d);
    let kernel_before = KernelDelta::read();
    let start = Instant::now();
    let (solution, stats) = match kind {
        SolverKind::Lns => (lns::solve(platform)?, SolverStats::default()),
        SolverKind::Exs => {
            let threads = if opts.threads == 0 {
                std::thread::available_parallelism().map_or(1, usize::from)
            } else {
                opts.threads
            };
            let (solution, evaluated) = exs::solve_inner(platform, threads, deadline_at)?;
            (solution, SolverStats { explored: evaluated, ..SolverStats::default() })
        }
        SolverKind::ExsBnb => {
            let (solution, bnb) = exs_bnb::solve_inner(platform, deadline_at)?;
            (solution, bnb.into())
        }
        SolverKind::Ao => (ao::solve_with(platform, &opts.ao_options())?, SolverStats::default()),
        SolverKind::Pco => {
            (pco::solve_with(platform, &opts.pco_options())?, SolverStats::default())
        }
        SolverKind::Governor => {
            let result = reactive::simulate(platform, &opts.governor)?;
            let solution = result.as_solution(platform)?;
            let stats = SolverStats {
                transitions: result.transitions as u64,
                violation_time: result.violation_time,
                ..SolverStats::default()
            };
            (solution, stats)
        }
    };
    let wall = start.elapsed();
    let kernel = KernelDelta::read().since(&kernel_before);
    Ok(SolveReport { solution, stats, wall, kernel })
}

/// One variant of a batched solve: a solver kind and its option set, run
/// against the batch's shared platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVariant {
    /// Which algorithm to run.
    pub kind: SolverKind,
    /// Its options.
    pub options: SolveOptions,
}

/// Solves every variant against one shared `platform`, fanning the variants
/// out over `threads` scoped worker threads (`0` = all available, clamped
/// to the variant count).
///
/// All variants share the platform's memoized kernel state — the
/// eigendecomposition and the per-voltage T∞ vectors are computed at most
/// once across the whole batch instead of once per solve.
/// Results are returned in variant order and are bit-identical to calling
/// [`solve`] on each variant sequentially: the fan-out is a round-robin
/// partition with in-order collection, and the solvers themselves are
/// deterministic for any thread count.
#[must_use]
pub fn solve_batch(
    platform: &Platform,
    variants: &[BatchVariant],
    threads: usize,
) -> Vec<Result<SolveReport>> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(variants.len())
    .max(1);
    if threads <= 1 {
        return variants.iter().map(|v| solve(v.kind, platform, &v.options)).collect();
    }
    let mut slots: Vec<Option<Result<SolveReport>>> = Vec::new();
    slots.resize_with(variants.len(), || None);
    let mut chunks: Vec<&mut [Option<Result<SolveReport>>]> = Vec::with_capacity(slots.len());
    chunks.extend(slots.iter_mut().map(std::slice::from_mut));
    std::thread::scope(|scope| {
        for (w, chunk_group) in partition_round_robin(chunks, threads).into_iter().enumerate() {
            let offset = w;
            scope.spawn(move || {
                for (j, slot_chunk) in chunk_group.into_iter().enumerate() {
                    let i = offset + j * threads;
                    let v = &variants[i];
                    slot_chunk[0] = Some(solve(v.kind, platform, &v.options));
                }
            });
        }
    });
    slots.into_iter().map(|s| s.expect("every variant slot is filled")).collect()
}

/// Deals `items` round-robin into `threads` groups, preserving in-group
/// order (group `w` holds items `w, w+threads, w+2·threads, …`).
fn partition_round_robin<T>(items: Vec<T>, threads: usize) -> Vec<Vec<T>> {
    let mut groups: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        groups[i % threads].push(item);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlgoError;
    use mosc_sched::PlatformSpec;

    #[test]
    fn kind_ids_round_trip() {
        for kind in SolverKind::all() {
            assert_eq!(kind.id().parse::<SolverKind>().unwrap(), kind);
            // Parsing is case-insensitive over the wire id.
            assert_eq!(kind.id().to_ascii_uppercase().parse::<SolverKind>().unwrap(), kind);
        }
        let err = "frobnicate".parse::<SolverKind>().unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn default_options_match_per_solver_defaults() {
        let opts = SolveOptions::default();
        let ao = AoOptions::default();
        assert!((opts.base_period - ao.base_period).abs() < 1e-15);
        assert_eq!(opts.max_m, ao.max_m);
        assert_eq!(opts.m_patience, ao.m_patience);
        assert_eq!(opts.t_unit_divisor, ao.t_unit_divisor);
        let pco = crate::pco::PcoOptions::default();
        assert_eq!(opts.phase_steps, pco.phase_steps);
        assert_eq!(opts.samples, pco.samples);
        assert_eq!(opts.refill_divisor, pco.refill_divisor);
    }

    #[test]
    fn dispatcher_reaches_every_solver() {
        let p = mosc_sched::Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
        let mut opts = SolveOptions::default();
        // Keep the governor cheap.
        opts.governor.horizon = 10.0;
        opts.governor.warmup = 5.0;
        opts.governor.control_period = 0.01;
        for kind in SolverKind::all() {
            let report = solve(kind, &p, &opts).unwrap();
            assert_eq!(report.solution.algorithm, kind.label(), "{kind:?}");
            assert!(report.solution.throughput > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn claim_json_is_parseable_and_complete() {
        use mosc_analyze::json::Value;
        let p = mosc_sched::Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap();
        let report = solve(SolverKind::Ao, &p, &SolveOptions::default()).unwrap();
        let claim = report.claim_json(SolverKind::Ao, &p);
        let doc = Value::parse(&claim).expect("claim must be valid JSON");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(doc.get("solver").and_then(Value::as_str), Some("ao"));
        assert_eq!(doc.get("throughput").and_then(Value::as_f64), Some(report.solution.throughput));
        assert_eq!(doc.get("feasible").and_then(Value::as_bool), Some(true));
        // The embedded schedule text round-trips through the sched parser.
        let text = doc.get("schedule").and_then(Value::as_str).unwrap();
        let parsed = mosc_sched::text::from_text(text).unwrap();
        assert_eq!(parsed.n_cores(), p.n_cores());
    }

    #[test]
    fn exs_stats_count_the_full_enumeration() {
        let p = mosc_sched::Platform::build(&PlatformSpec::paper(1, 3, 3, 55.0)).unwrap();
        let report = solve(SolverKind::Exs, &p, &SolveOptions::default()).unwrap();
        // 3 cores × 3 levels ⇒ exactly 27 assignments.
        assert_eq!(report.stats.explored, 27);
        let report = solve(SolverKind::ExsBnb, &p, &SolveOptions::default()).unwrap();
        assert!(report.stats.explored > 0);
    }

    #[test]
    fn an_expired_deadline_aborts_the_enumeration_solvers() {
        let p = mosc_sched::Platform::build(&PlatformSpec::paper(2, 3, 4, 55.0)).unwrap();
        let opts = SolveOptions { deadline: Some(Duration::ZERO), ..SolveOptions::default() };
        for kind in [SolverKind::Exs, SolverKind::ExsBnb] {
            match solve(kind, &p, &opts) {
                Err(AlgoError::DeadlineExceeded) => {}
                other => panic!("{kind:?}: expected DeadlineExceeded, got {other:?}"),
            }
        }
        // Constructive solvers ignore the deadline by contract.
        let report = solve(SolverKind::Lns, &p, &opts).unwrap();
        assert!(report.solution.throughput > 0.0);
    }
}
