//! Cross-artifact consistency lints (`M080`-series): findings that only
//! exist when two artifacts are joined.
//!
//! * `M080` — a standalone schedule does not fit the platform artifact it
//!   was analyzed with: wrong core count, or a segment voltage that is not
//!   in the platform's DVFS table. (Inside a spec file the same defects are
//!   M018/M016; across files they are errors, because the user explicitly
//!   asked for the pair to be checked together.)
//! * `M081` — a solve claim's throughput/peak/feasibility fail to recompute
//!   from the referenced platform + schedule. Tolerances are
//!   [`Tolerances::default`], which floor well above `ACCEPT_EPS` — the
//!   solvers' own accept threshold — so a truthful claim emitted by this
//!   workspace recomputes cleanly. A claim with no platform or schedule to
//!   recompute from is *unverifiable*, reported as a warning.
//! * `M082` — an access-log `cached: true` entry whose cache key no
//!   non-cached successful solve ever announced, or one key served under
//!   two different solver ids: the canonical-key derivation and the cache
//!   disagree. Order-insensitive, since worker concurrency legally reorders
//!   the filler's miss line after its first hit.
//! * `M083` — a per-solve `KernelDelta` is inconsistent with the solver
//!   kind: a non-cached successful solve that moved no kernel counter at
//!   all, or an AO/PCO solve with zero period-map work. Gated on recorder
//!   evidence (some entry with a nonzero counter), so logs from builds
//!   without kernel accounting stay silent.

use crate::artifact::ClaimArtifact;
use crate::diag::{Code, Report, Severity};
use crate::json::Value;
use crate::solution::Tolerances;
use crate::telemetry::StreamRecord;
use mosc_sched::{Platform, Schedule};
use std::collections::HashMap;

/// Voltages closer than this to a table level are that level (matches the
/// in-spec M016 tolerance).
const LEVEL_TOL: f64 = 1e-9;

/// M080: checks a standalone schedule against the reference platform.
pub fn check_cross_schedule(schedule: &Schedule, platform: &Platform, report: &mut Report) {
    if schedule.n_cores() != platform.n_cores() {
        report.push(
            Code::CrossScheduleMismatch,
            "cores",
            format!(
                "schedule has {} cores but the platform artifact has {}",
                schedule.n_cores(),
                platform.n_cores()
            ),
        );
        return;
    }
    let levels = platform.modes().levels();
    for (c, core) in schedule.cores().iter().enumerate() {
        for (i, seg) in core.segments().iter().enumerate() {
            if !levels.iter().any(|&l| (l - seg.voltage).abs() <= LEVEL_TOL) {
                report.push(
                    Code::CrossScheduleMismatch,
                    format!("cores[{c}].segments[{i}]"),
                    format!(
                        "segment voltage {} V is not in the platform artifact's DVFS \
                         table {levels:?}",
                        seg.voltage
                    ),
                );
            }
        }
    }
}

/// M081: recomputes a claim's headline numbers from the platform and the
/// claim's own schedule (falling back to `fallback_schedule` when the claim
/// did not embed one).
pub fn check_claim(
    claim: &ClaimArtifact,
    platform: Option<&Platform>,
    fallback_schedule: Option<&Schedule>,
    report: &mut Report,
) {
    let schedule = claim.schedule.as_ref().or(fallback_schedule);
    let (Some(p), Some(s)) = (platform, schedule) else {
        let missing = match (platform, schedule) {
            (None, None) => "platform and schedule artifacts",
            (None, _) => "a platform artifact",
            _ => "a schedule (embedded or as an artifact)",
        };
        report.push_with(
            Severity::Warning,
            Code::ClaimDivergence,
            "",
            format!("claim cannot be verified: {missing} to recompute from are missing"),
        );
        return;
    };
    if s.n_cores() != p.n_cores() {
        report.push(
            Code::ClaimDivergence,
            "schedule",
            format!(
                "claim's schedule has {} cores but the platform has {} — the claim \
                 references a different platform",
                s.n_cores(),
                p.n_cores()
            ),
        );
        return;
    }
    let tol = Tolerances::default();
    let throughput = s.throughput_with_overhead(p.overhead());
    if (throughput - claim.throughput).abs() > tol.throughput_rel * throughput.abs().max(1.0) {
        report.push(
            Code::ClaimDivergence,
            "throughput",
            format!(
                "claimed throughput {} but the platform+schedule recompute {throughput}",
                claim.throughput
            ),
        );
    }
    match p.peak(s) {
        Ok(peak) => {
            if let Some(claimed) = claim.peak {
                if (peak.temp - claimed).abs() > tol.peak_abs {
                    report.push(
                        Code::ClaimDivergence,
                        "peak",
                        format!(
                            "claimed peak {claimed} K above ambient but recomputation \
                             finds {} K",
                            peak.temp
                        ),
                    );
                }
            }
            if let Some(feasible) = claim.feasible {
                let t_max = p.t_max();
                let slack = tol.peak_abs.max(mosc_sched::FEASIBILITY_EPS);
                if feasible && peak.temp > t_max + slack {
                    report.push(
                        Code::ClaimDivergence,
                        "feasible",
                        format!(
                            "claimed feasible but recomputed peak {} K exceeds T_max \
                             {t_max} K",
                            peak.temp
                        ),
                    );
                } else if !feasible && peak.temp <= t_max - tol.peak_abs {
                    report.push(
                        Code::ClaimDivergence,
                        "feasible",
                        format!(
                            "claimed infeasible but recomputed peak {} K respects T_max \
                             {t_max} K",
                            peak.temp
                        ),
                    );
                }
            }
        }
        Err(e) => {
            report.push(Code::ClaimDivergence, "peak", format!("peak recomputation failed: {e}"));
        }
    }
}

/// The cache-key and kernel-counter fields of one access-log solve entry.
struct SolveEntry<'a> {
    lineno: usize,
    id: &'a str,
    solver: &'a str,
    cached: bool,
    key: Option<&'a str>,
    counters: Option<[f64; 4]>,
}

fn solve_entries(records: &[StreamRecord]) -> Vec<SolveEntry<'_>> {
    records
        .iter()
        .filter_map(|rec| {
            let v = &rec.value;
            if v.get("type").and_then(Value::as_str) != Some("access")
                || v.get("op").and_then(Value::as_str) != Some("solve")
                || v.get("status").and_then(Value::as_str) != Some("ok")
            {
                return None;
            }
            let counters = [
                v.get("expm_calls"),
                v.get("period_map_matmuls"),
                v.get("steady_state_calls"),
                v.get("linalg_matmuls"),
            ];
            let counters = if counters.iter().all(|c| c.and_then(Value::as_f64).is_some()) {
                let mut out = [0.0; 4];
                for (slot, c) in out.iter_mut().zip(counters) {
                    *slot = c.and_then(Value::as_f64).unwrap_or(0.0);
                }
                Some(out)
            } else {
                None
            };
            Some(SolveEntry {
                lineno: rec.lineno,
                id: v.get("id").and_then(Value::as_str).unwrap_or("?"),
                solver: v.get("solver").and_then(Value::as_str).unwrap_or(""),
                cached: v.get("cached").and_then(Value::as_bool) == Some(true),
                key: v.get("key").and_then(Value::as_str),
                counters,
            })
        })
        .collect()
}

/// One access-log entry that belongs to a `solve_batch` dispatch: the
/// batch id it rode in on plus the registry attribution and the
/// eigendecomposition count its kernel delta reported. Any status counts —
/// an errored variant still shares the batch's single platform resolve.
struct BatchEntry<'a> {
    lineno: usize,
    id: &'a str,
    batch: &'a str,
    /// Connection the dispatch arrived on (-1 when the log predates the
    /// field). Batch ids are only unique per dispatch, and a dispatch
    /// lives on one connection — so (conn, batch) scopes the M111 join.
    conn: i64,
    registry_hits: f64,
    registry_misses: f64,
    eigen_calls: f64,
}

fn batch_entries(records: &[StreamRecord]) -> Vec<BatchEntry<'_>> {
    records
        .iter()
        .filter_map(|rec| {
            let v = &rec.value;
            if v.get("type").and_then(Value::as_str) != Some("access") {
                return None;
            }
            let batch = v.get("batch").and_then(Value::as_str)?;
            Some(BatchEntry {
                lineno: rec.lineno,
                id: v.get("id").and_then(Value::as_str).unwrap_or("?"),
                batch,
                conn: v.get("conn").and_then(Value::as_f64).map_or(-1, |c| c as i64),
                registry_hits: v.get("registry_hits").and_then(Value::as_f64)?,
                registry_misses: v.get("registry_misses").and_then(Value::as_f64)?,
                eigen_calls: v.get("eigen_calls").and_then(Value::as_f64)?,
            })
        })
        .collect()
}

/// M110 + M111 over an access log's batch entries. Inert when no entry
/// carries the `batch` + registry fields (single solves, older logs).
fn registry_lints(records: &[StreamRecord], report: &mut Report) {
    let entries = batch_entries(records);

    // --- M110: a warm registry resolve must not rebuild -------------------
    // Eigendecompositions happen only when a platform build meets a
    // floorplan with no thermal model yet; a variant that reports the
    // batch's resolve as a hit while its delta shows eigen work means the
    // registry handed out an interned platform *and* rebuilt it.
    for e in &entries {
        if e.registry_hits > 0.0 && e.eigen_calls > 0.0 {
            report.push(
                Code::RegistryWarmRecompute,
                format!("line {} (id {})", e.lineno, e.id),
                format!(
                    "warm-registry solve (registry_hits {}) reports {} \
                     eigendecomposition(s) — an interned platform is already \
                     built, so a warm resolve must do zero eigen work",
                    e.registry_hits, e.eigen_calls
                ),
            );
        }
    }

    // --- M111: one batch dispatch is one resolve --------------------------
    // Keyed by (conn, batch): clients may reuse a batch id across
    // dispatches (ids are theirs to choose), but one dispatch's variants
    // all ride one connection and share exactly one resolve.
    let mut outcome_by_batch: HashMap<(i64, &str), (usize, bool)> = HashMap::new();
    for e in &entries {
        if e.registry_hits + e.registry_misses != 1.0 {
            report.push(
                Code::BatchRegistryDisagreement,
                format!("line {} (id {})", e.lineno, e.id),
                format!(
                    "batch variant reports registry_hits {} / registry_misses {} — \
                     each variant shares exactly one platform resolve, so the \
                     attribution must be one hit xor one miss",
                    e.registry_hits, e.registry_misses
                ),
            );
            continue;
        }
        let warm = e.registry_hits > 0.0;
        match outcome_by_batch.get(&(e.conn, e.batch)) {
            None => {
                outcome_by_batch.insert((e.conn, e.batch), (e.lineno, warm));
            }
            Some(&(first_lineno, first_warm)) if first_warm != warm => report.push(
                Code::BatchRegistryDisagreement,
                format!("line {} (id {})", e.lineno, e.id),
                format!(
                    "batch '{}' variants disagree about the shared resolve: this \
                     entry says {} but line {first_lineno} said {} — one batch \
                     resolves its platform exactly once",
                    e.batch,
                    if warm { "warm" } else { "cold" },
                    if first_warm { "warm" } else { "cold" },
                ),
            ),
            Some(_) => {}
        }
    }
}

/// M082 + M083 over an access log's solve entries, plus the batch/registry
/// joins M110 + M111. Inert when the log predates the `key`/counter fields.
pub fn access_log_lints(records: &[StreamRecord], report: &mut Report) {
    registry_lints(records, report);
    let entries = solve_entries(records);

    // --- M082: cache hits must agree with canonical-key derivation -------
    let mut announced: HashMap<&str, &str> = HashMap::new();
    for e in entries.iter().filter(|e| !e.cached) {
        if let Some(key) = e.key {
            match announced.get(key) {
                Some(&solver) if solver != e.solver => report.push(
                    Code::AccessCacheKeyMismatch,
                    format!("line {} (id {})", e.lineno, e.id),
                    format!(
                        "cache key {key} was solved by '{}' here but by '{solver}' \
                         elsewhere — one canonical key maps to two solvers",
                        e.solver
                    ),
                ),
                _ => {
                    announced.entry(key).or_insert(e.solver);
                }
            }
        }
    }
    for e in entries.iter().filter(|e| e.cached) {
        let Some(key) = e.key else { continue };
        match announced.get(key) {
            None => report.push(
                Code::AccessCacheKeyMismatch,
                format!("line {} (id {})", e.lineno, e.id),
                format!(
                    "cache-hit entry's key {key} was never announced by a non-cached \
                     successful solve — the hit cannot have been filled under this \
                     canonical key"
                ),
            ),
            Some(&solver) if solver != e.solver => report.push(
                Code::AccessCacheKeyMismatch,
                format!("line {} (id {})", e.lineno, e.id),
                format!(
                    "cache-hit entry for key {key} reports solver '{}' but the filling \
                     solve used '{solver}'",
                    e.solver
                ),
            ),
            Some(_) => {}
        }
    }

    // --- M083: KernelDelta vs solver kind ---------------------------------
    // Only meaningful when the recorder demonstrably populates counters.
    let evidence = entries.iter().any(|e| e.counters.is_some_and(|c| c.iter().any(|&x| x > 0.0)));
    if !evidence {
        return;
    }
    for e in entries.iter().filter(|e| !e.cached) {
        let Some(c) = e.counters else { continue };
        let ctx = format!("line {} (id {})", e.lineno, e.id);
        if c.iter().all(|&x| x == 0.0) {
            report.push(
                Code::KernelDeltaInconsistent,
                ctx,
                format!(
                    "non-cache-hit '{}' solve moved no kernel counter at all — a real \
                     solve must evaluate at least one schedule",
                    e.solver
                ),
            );
        } else if matches!(e.solver, "ao" | "pco") && c[1] == 0.0 && c[2] == 0.0 {
            report.push(
                Code::KernelDeltaInconsistent,
                ctx,
                format!(
                    "'{}' solve reports zero period_map.matmuls and zero \
                     steady_state.calls — AO/PCO evaluate through the modal \
                     period-map kernel",
                    e.solver
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::load_stream;
    use mosc_sched::PlatformSpec;

    fn platform() -> Platform {
        Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap()
    }

    #[test]
    fn cross_schedule_flags_core_count_and_off_table_voltage() {
        let p = platform();
        let mut r = Report::new();
        let short = Schedule::constant(&[0.6], 0.1).unwrap();
        check_cross_schedule(&short, &p, &mut r);
        assert!(r.has_code(Code::CrossScheduleMismatch) && r.has_errors(), "{r}");

        let mut r = Report::new();
        let off = Schedule::constant(&[0.6, 0.9], 0.1).unwrap();
        check_cross_schedule(&off, &p, &mut r);
        assert!(r.has_code(Code::CrossScheduleMismatch), "{r}");

        let mut r = Report::new();
        let good = Schedule::two_mode(&[0.6, 0.6], &[1.3, 1.3], &[0.3, 0.5], 0.1).unwrap();
        check_cross_schedule(&good, &p, &mut r);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn truthful_claim_recomputes_clean_and_mutations_fire() {
        let p = platform();
        let s = Schedule::two_mode(&[0.6, 0.6], &[1.3, 1.3], &[0.3, 0.5], 0.1).unwrap();
        let peak = p.peak(&s).unwrap().temp;
        let truthful = ClaimArtifact {
            solver: Some("ao".into()),
            throughput: s.throughput_with_overhead(p.overhead()),
            peak: Some(peak),
            feasible: Some(peak <= p.t_max() + mosc_sched::FEASIBILITY_EPS),
            m: 1,
            schedule: Some(s.clone()),
        };
        let mut r = Report::new();
        check_claim(&truthful, Some(&p), None, &mut r);
        assert!(r.is_clean(), "truthful claim flagged:\n{r}");

        // Each corrupted field fires on its own.
        let mut r = Report::new();
        let lied =
            ClaimArtifact { throughput: truthful.throughput * 1.01, ..claim_like(&truthful) };
        check_claim(&lied, Some(&p), Some(&s), &mut r);
        assert!(r.has_code(Code::ClaimDivergence) && r.has_errors(), "{r}");

        let mut r = Report::new();
        let lied = ClaimArtifact { peak: Some(peak + 1.0), ..claim_like(&truthful) };
        check_claim(&lied, Some(&p), Some(&s), &mut r);
        assert!(r.has_code(Code::ClaimDivergence), "{r}");
    }

    fn claim_like(c: &ClaimArtifact) -> ClaimArtifact {
        ClaimArtifact {
            solver: c.solver.clone(),
            throughput: c.throughput,
            peak: c.peak,
            feasible: c.feasible,
            m: c.m,
            schedule: None,
        }
    }

    #[test]
    fn unverifiable_claim_is_a_warning() {
        let c = ClaimArtifact {
            solver: None,
            throughput: 1.0,
            peak: None,
            feasible: None,
            m: 1,
            schedule: None,
        };
        let mut r = Report::new();
        check_claim(&c, None, None, &mut r);
        assert!(r.has_code(Code::ClaimDivergence), "{r}");
        assert!(!r.has_errors(), "unverifiable must be a warning:\n{r}");
    }

    const HIT_AND_FILL: &str = concat!(
        r#"{"type":"access","id":"s1","op":"solve","solver":"ao","status":"ok","cached":false,"key":"00000000deadbeef","expm_calls":0,"period_map_matmuls":40,"steady_state_calls":4,"linalg_matmuls":100}"#,
        "\n",
        r#"{"type":"access","id":"s2","op":"solve","solver":"ao","status":"ok","cached":true,"key":"00000000deadbeef","expm_calls":0,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":0}"#,
        "\n",
    );

    #[test]
    fn cache_hits_with_announced_keys_are_clean_in_any_order() {
        let records = load_stream(HIT_AND_FILL).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.is_clean(), "{r}");

        // Concurrency may log the hit before the fill: still clean.
        let mut lines: Vec<&str> = HIT_AND_FILL.lines().collect();
        lines.reverse();
        let records = load_stream(&lines.join("\n")).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.is_clean(), "reversed order flagged:\n{r}");
    }

    #[test]
    fn unannounced_hit_and_solver_conflict_are_m082() {
        let orphan = HIT_AND_FILL.lines().nth(1).unwrap();
        let records = load_stream(orphan).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.has_code(Code::AccessCacheKeyMismatch), "{r}");

        let conflicted = HIT_AND_FILL
            .replace(r#""s2","op":"solve","solver":"ao""#, r#""s2","op":"solve","solver":"pco""#);
        let records = load_stream(&conflicted).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.has_code(Code::AccessCacheKeyMismatch), "{r}");
    }

    #[test]
    fn zero_counter_uncached_solve_is_m083() {
        let dead = HIT_AND_FILL.replace(r#""period_map_matmuls":40"#, r#""period_map_matmuls":0"#);
        // Fill now has pm=0, ss=4 -> AO rule does not fire (ss moved), and
        // all-zero rule does not fire either. Seed evidence + a dead solve:
        let dead = dead.replace(r#""steady_state_calls":4"#, r#""steady_state_calls":0"#);
        let with_evidence = format!(
            "{dead}{}\n",
            r#"{"type":"access","id":"s3","op":"solve","solver":"lns","status":"ok","cached":false,"key":"0000000000000001","expm_calls":9,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":20}"#
        );
        let records = load_stream(&with_evidence).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        // s1 is an ao solve with pm=0 and ss=0 but linalg evidence -> M083.
        assert!(r.has_code(Code::KernelDeltaInconsistent), "{r}");
        assert!(!r.has_errors(), "M083 is a warning:\n{r}");

        // Without any counter evidence anywhere the lint stays silent.
        let all_zero = with_evidence
            .replace(r#""expm_calls":9"#, r#""expm_calls":0"#)
            .replace(r#""linalg_matmuls":100"#, r#""linalg_matmuls":0"#)
            .replace(r#""linalg_matmuls":20"#, r#""linalg_matmuls":0"#);
        let records = load_stream(&all_zero).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(!r.has_code(Code::KernelDeltaInconsistent), "{r}");
    }

    /// A healthy two-variant batch: cold resolve (variant 0 carries the
    /// build's eigen work), then the identical warm batch with zero eigen.
    const BATCH_COLD_WARM: &str = concat!(
        r#"{"type":"access","id":"b0#0","op":"solve","solver":"ao","status":"ok","cached":false,"key":"000000000000aaaa","expm_calls":0,"period_map_matmuls":40,"steady_state_calls":4,"linalg_matmuls":100,"eigen_calls":1,"registry_hits":0,"registry_misses":1,"batch":"b0"}"#,
        "\n",
        r#"{"type":"access","id":"b0#1","op":"solve","solver":"lns","status":"ok","cached":false,"key":"000000000000bbbb","expm_calls":6,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":20,"eigen_calls":0,"registry_hits":0,"registry_misses":1,"batch":"b0"}"#,
        "\n",
        r#"{"type":"access","id":"b1#0","op":"solve","solver":"ao","status":"ok","cached":true,"key":"000000000000aaaa","expm_calls":0,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":0,"eigen_calls":0,"registry_hits":1,"registry_misses":0,"batch":"b1"}"#,
        "\n",
        r#"{"type":"access","id":"b1#1","op":"solve","solver":"lns","status":"ok","cached":true,"key":"000000000000bbbb","expm_calls":0,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":0,"eigen_calls":0,"registry_hits":1,"registry_misses":0,"batch":"b1"}"#,
        "\n",
    );

    #[test]
    fn cold_then_warm_batch_is_clean() {
        let records = load_stream(BATCH_COLD_WARM).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn warm_batch_with_eigen_work_is_m110() {
        // The warm batch's first variant suddenly reports a rebuild.
        let lying = BATCH_COLD_WARM.replace(
            r#""b1#0","op":"solve","solver":"ao","status":"ok","cached":true,"key":"000000000000aaaa","expm_calls":0,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":0,"eigen_calls":0"#,
            r#""b1#0","op":"solve","solver":"ao","status":"ok","cached":true,"key":"000000000000aaaa","expm_calls":0,"period_map_matmuls":0,"steady_state_calls":0,"linalg_matmuls":0,"eigen_calls":1"#,
        );
        assert_ne!(lying, BATCH_COLD_WARM, "replacement must apply");
        let records = load_stream(&lying).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.has_code(Code::RegistryWarmRecompute), "{r}");
        assert!(r.has_errors(), "M110 is an error:\n{r}");
        // A *cold* batch doing eigen work is the normal case — no M110.
        let records = load_stream(BATCH_COLD_WARM).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(!r.has_code(Code::RegistryWarmRecompute), "{r}");
    }

    #[test]
    fn batch_variants_disagreeing_on_the_resolve_is_m111() {
        // Variant b0#1 claims the shared resolve was warm while b0#0 says
        // cold: impossible, the batch resolves its platform exactly once.
        let split = BATCH_COLD_WARM.replace(
            r#""linalg_matmuls":20,"eigen_calls":0,"registry_hits":0,"registry_misses":1,"batch":"b0""#,
            r#""linalg_matmuls":20,"eigen_calls":0,"registry_hits":1,"registry_misses":0,"batch":"b0""#,
        );
        assert_ne!(split, BATCH_COLD_WARM, "replacement must apply");
        let records = load_stream(&split).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.has_code(Code::BatchRegistryDisagreement), "{r}");
        assert!(!r.has_errors(), "M111 is a warning:\n{r}");

        // Attribution that is not exactly one hit xor one miss also fires.
        let double = BATCH_COLD_WARM.replace(
            r#""registry_hits":1,"registry_misses":0,"batch":"b1""#,
            r#""registry_hits":1,"registry_misses":1,"batch":"b1""#,
        );
        let records = load_stream(&double).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(r.has_code(Code::BatchRegistryDisagreement), "{r}");
    }

    #[test]
    fn a_batch_id_reused_across_connections_is_not_a_disagreement() {
        // Batch ids are the client's to choose: two dispatches on different
        // connections may reuse one id (e.g. the same stdin piped through
        // `client --batch` twice, cold then warm). The M111 join is scoped
        // to (conn, batch), so this must stay clean.
        let reused = BATCH_COLD_WARM
            .replace(
                r#""registry_misses":1,"batch":"b0""#,
                r#""registry_misses":1,"batch":"q","conn":1"#,
            )
            .replace(
                r#""registry_misses":0,"batch":"b1""#,
                r#""registry_misses":0,"batch":"q","conn":2"#,
            );
        assert_ne!(reused, BATCH_COLD_WARM, "replacement must apply");
        let records = load_stream(&reused).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(!r.has_code(Code::BatchRegistryDisagreement), "{r}");
    }

    #[test]
    fn registry_lints_are_inert_without_batch_entries() {
        // Single-solve logs (no `batch` member) never trip M110/M111.
        let records = load_stream(HIT_AND_FILL).unwrap();
        let mut r = Report::new();
        access_log_lints(&records, &mut r);
        assert!(!r.has_code(Code::RegistryWarmRecompute), "{r}");
        assert!(!r.has_code(Code::BatchRegistryDisagreement), "{r}");
    }
}
