//! The platform registry: built [`Platform`]s interned by content.
//!
//! A schedule is a pure function of `(platform, options)` — Algorithm 2
//! rebuilds everything from the platform's modal decomposition — so both
//! things worth remembering between requests can be addressed by content:
//! the serve layer's solutions, and the built platforms a batch of solves
//! shares. Both live in `mosc-sched`'s one table type, [`VerifiedLru`]
//! (re-exported here with [`ContentKey`] and [`fnv1a`]; its module docs
//! give the policy: FNV-1a index, preimage-verified hits, bounded LRU,
//! last store wins, `Arc` values).
//!
//! The process-global platform table behind [`intern_with`] saves the
//! platform decode and build across requests: a warm solve performs zero
//! eigendecompositions (`eigen_calls == 0` in its [`crate::KernelDelta`]).
//! The eigendecomposition itself is shared one level down: every platform
//! with the same floorplan, cooler and β holds one thermal model from
//! `mosc-sched`'s own table (see [`mosc_sched::THERMAL_MODEL_CAPACITY`]),
//! so it happens once per floorplan per process, and a *cold* resolve of a
//! floorplan some earlier platform already built reports 0 as well. Its
//! hits and misses are reported through the `registry.hits` /
//! `registry.misses` counters (surfaced per-solve via
//! [`crate::KernelDelta`]), which is what the `M110`/`M111` analyzer lints
//! join against the access log.

use mosc_sched::Platform;
pub use mosc_sched::{fnv1a, ContentKey, VerifiedLru};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Interned platforms resolved from the registry (preimage-verified).
static REGISTRY_HITS: mosc_obs::Counter = mosc_obs::Counter::new("registry.hits");
/// Registry lookups that had to build the platform (cold key, evicted
/// entry, or a verification failure on a colliding hash).
static REGISTRY_MISSES: mosc_obs::Counter = mosc_obs::Counter::new("registry.misses");

/// Entries the process-global registry holds before evicting. An entry owns
/// its mode table and power model; its thermal model (the eigenbasis plus a
/// memo of modal T∞ vectors, capped per model) is shared with every platform
/// on the same floorplan, cooler and β. A full registry therefore holds one
/// thermal model per distinct floorplan among its entries, not one per
/// entry; nothing grows with the interval lengths its solves visit.
pub const DEFAULT_CAPACITY: usize = 64;

/// The process-global platform table behind [`intern_with`].
fn global() -> MutexGuard<'static, VerifiedLru<Platform>> {
    static GLOBAL: OnceLock<Mutex<VerifiedLru<Platform>>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Mutex::new(VerifiedLru::new(DEFAULT_CAPACITY)))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Resolves `preimage` (a canonical platform spec) to a shared platform
/// through the process-global table (capacity [`DEFAULT_CAPACITY`]),
/// building and interning it with `build` on a miss. Returns the platform
/// and whether the lookup was warm (`true` = served from the table, no
/// build). The table lock is *not* held across the build: concurrent misses
/// on one cold key may build redundantly (last store wins) but never block
/// each other.
///
/// # Errors
/// Propagates `build`'s error; nothing is interned in that case.
pub fn intern_with<E>(
    preimage: &str,
    build: impl FnOnce() -> Result<Platform, E>,
) -> Result<(Arc<Platform>, bool), E> {
    let key = ContentKey::new(preimage.to_owned());
    let hit = global().get(&key);
    if let Some(platform) = hit {
        REGISTRY_HITS.incr();
        return Ok((platform, true));
    }
    REGISTRY_MISSES.incr();
    let platform = Arc::new(build()?);
    global().insert(&key, Arc::clone(&platform));
    Ok((platform, false))
}
