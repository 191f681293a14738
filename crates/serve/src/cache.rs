//! The solution cache and its canonical key.
//!
//! The paper's schedules are pure functions of the platform spec and the
//! solver options (Algorithm 2 recomputes everything from `Platform`), so a
//! solve result can be reused for any byte-identical query. The key is an
//! FNV-1a hash over the canonical serialization of `(platform, solver kind,
//! options)` — canonical meaning object keys sorted at every level, so two
//! clients spelling the same platform with different member order share an
//! entry. The request deadline is excluded from the key: only successful
//! solves are cached, and a success is the same solution under any deadline.
//!
//! The cache is the same table as the platform registry,
//! [`mosc_core::registry::VerifiedLru`], holding [`CachedSolve`]s: every
//! hit is verified against the stored preimage, so a hash collision
//! degrades to a miss (and the later insert overwrites the slot), never to
//! a wrong answer; and entries are shared `Arc`s, so hit cost does not
//! scale with `schedule_text` size.

use crate::proto::{write_options, SolveOk, SolveRequest, OPTIONS_JSON_BYTES};
use mosc_analyze::json::write_canonical;
use mosc_core::registry::{ContentKey, VerifiedLru};
use mosc_core::{SolveOptions, SolverKind, SolverStats};

pub use mosc_core::registry::fnv1a;

/// A canonical solution-cache key: the 64-bit FNV-1a hash used for indexing
/// (and for the access log's `key` field), plus the canonical
/// `platform \0 kind \0 options` preimage it was derived from, so hits are
/// verified instead of trusted.
pub type CacheKey = ContentKey;

/// The LRU solution cache: the verified content table holding
/// [`CachedSolve`]s (capacity 0 disables caching).
pub type LruCache = VerifiedLru<CachedSolve>;

/// The cache key of a solve request: platform + solver kind + options, with
/// the deadline masked out (see the module docs).
#[must_use]
pub fn cache_key(req: &SolveRequest) -> CacheKey {
    let mut preimage = String::with_capacity(KEY_PLATFORM_BYTES + KEY_TAIL_BYTES);
    write_canonical(&mut preimage, &req.platform);
    finish_key(preimage, req.kind, &req.options)
}

/// [`cache_key`] from pre-serialized parts: the batch path canonicalizes
/// the shared platform once and derives every variant's key from it.
#[must_use]
pub fn cache_key_parts(
    canonical_platform: &str,
    kind: SolverKind,
    options: &SolveOptions,
) -> CacheKey {
    let mut preimage = String::with_capacity(canonical_platform.len() + KEY_TAIL_BYTES);
    preimage.push_str(canonical_platform);
    finish_key(preimage, kind, options)
}

/// Room for a typical canonical platform in a preimage buffer; a longer
/// one grows the buffer.
const KEY_PLATFORM_BYTES: usize = 128;

/// Room for the preimage after the platform: two separators, the solver id
/// and the options.
const KEY_TAIL_BYTES: usize = OPTIONS_JSON_BYTES + 16;

/// Appends `\0 kind \0 options` (deadline masked) to a preimage holding the
/// canonical platform, and hashes it.
fn finish_key(mut preimage: String, kind: SolverKind, options: &SolveOptions) -> CacheKey {
    preimage.push('\0');
    preimage.push_str(kind.id());
    preimage.push('\0');
    write_options(&mut preimage, &SolveOptions { deadline: None, ..*options });
    CacheKey::new(preimage)
}

/// A cached solve outcome: everything needed to render an `ok` response for
/// any later request (including `want_schedule`, which is why the schedule
/// text is always kept).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSolve {
    /// Which solver produced the result.
    pub solver: SolverKind,
    /// Chip-wide throughput per eq. (5).
    pub throughput: f64,
    /// Stable-status peak temperature in °C.
    pub peak_c: f64,
    /// Whether the peak respects `T_max`.
    pub feasible: bool,
    /// Oscillation factor used.
    pub m: usize,
    /// Wall time of the original (uncached) solve, in milliseconds.
    pub wall_ms: f64,
    /// Cross-solver search statistics of the original solve.
    pub stats: SolverStats,
    /// The schedule in `mosc-sched::text` form.
    pub schedule_text: String,
}

impl CachedSolve {
    /// The `ok` response line answering `id` from this solve (no trailing
    /// newline), written straight from the entry: the schedule text is
    /// escaped into the line, never copied out first. The buffer has room
    /// for the line's trailing newline, so framing it does not grow it.
    #[must_use]
    pub fn response_line(&self, id: &str, want_schedule: bool, cached: bool) -> String {
        SolveOk {
            id,
            solver: self.solver,
            throughput: self.throughput,
            peak_c: self.peak_c,
            feasible: self.feasible,
            m: self.m,
            wall_ms: self.wall_ms,
            cached,
            stats: &self.stats,
            schedule: want_schedule.then_some(self.schedule_text.as_str()),
        }
        .to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::canonical_json;
    use mosc_analyze::json::Value;

    #[test]
    fn cache_key_is_member_order_independent_but_value_sensitive() {
        let mk = |platform: &str| SolveRequest {
            id: "x".into(),
            kind: SolverKind::Ao,
            platform: Value::parse(platform).unwrap(),
            options: SolveOptions::default(),
            want_schedule: false,
            trace: None,
        };
        let a = mk(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#);
        let b = mk(r#"{"t_max_c":55.0,"levels":[0.6,1.3],"cols":2,"rows":1}"#);
        assert_eq!(cache_key(&a), cache_key(&b), "member order must not matter");
        let c = mk(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":56.0}"#);
        assert_ne!(cache_key(&a).hash, cache_key(&c).hash, "values must matter");
        // The solver kind and options are part of the key; the deadline and
        // the id are not.
        let mut d = a.clone();
        d.kind = SolverKind::Lns;
        assert_ne!(cache_key(&a).hash, cache_key(&d).hash);
        let mut e = a.clone();
        e.options.threads = 7;
        assert_ne!(cache_key(&a).hash, cache_key(&e).hash);
        let mut f = a.clone();
        f.id = "other".into();
        f.options.deadline = Some(std::time::Duration::from_secs(1));
        assert_eq!(cache_key(&a), cache_key(&f));
    }

    #[test]
    fn cache_key_parts_matches_cache_key() {
        let req = SolveRequest {
            id: "x".into(),
            kind: SolverKind::Pco,
            platform: Value::parse(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#)
                .unwrap(),
            options: SolveOptions::default(),
            want_schedule: false,
            trace: None,
        };
        let direct = cache_key(&req);
        let parts = cache_key_parts(&canonical_json(&req.platform), req.kind, &req.options);
        assert_eq!(direct, parts);
    }
}
