//! Platform interning: amortize the eigenbasis across solves.
//!
//! The paper's Algorithm 2 recomputes the platform's modal decomposition
//! for every solve, and the serve layer inherited that: each request built
//! a fresh [`Platform`] — the `C^{-1/2} G C^{-1/2}` eigendecomposition and
//! (lazily, during the first solves) the per-voltage T∞ vectors — even
//! when thousands of requests share one platform. This module interns
//! platforms by the content hash of their canonical spec so
//! repeated-platform traffic reuses a single [`Platform`] instance, and with
//! it every memoized kernel artifact: a warm solve performs zero
//! eigendecompositions (`eigen_calls == 0` in its [`crate::KernelDelta`])
//! and no steady-state solve for a power profile any earlier solve on the
//! platform already visited.
//!
//! Keying is the same shape as the serve solution cache after its PR-8
//! collision fix: a 64-bit FNV-1a hash of the canonical preimage for O(1)
//! lookup, **verified against the stored preimage on every hit** so a hash
//! collision degrades to a rebuild instead of silently handing a request
//! somebody else's thermal model. The registry is bounded and LRU-evicted;
//! hits and misses are reported through the `registry.hits` /
//! `registry.misses` counters (surfaced per-solve via
//! [`crate::KernelDelta`]), which is what the `M110`/`M111` analyzer lints
//! join against the access log.

use mosc_sched::Platform;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Interned platforms resolved from the registry (preimage-verified).
static REGISTRY_HITS: mosc_obs::Counter = mosc_obs::Counter::new("registry.hits");
/// Registry lookups that had to build the platform (cold key, evicted
/// entry, or a verification failure on a colliding hash).
static REGISTRY_MISSES: mosc_obs::Counter = mosc_obs::Counter::new("registry.misses");

/// Entries the process-global registry holds before evicting. An entry's
/// footprint is its eigenbasis plus its memo of modal T∞ vectors (capped per
/// model); nothing grows with the interval lengths its solves visit.
pub const DEFAULT_CAPACITY: usize = 64;

/// 64-bit FNV-1a over the canonical preimage — the same derivation the
/// serve solution cache uses, so one hash function governs both tiers.
#[must_use]
pub fn content_hash(preimage: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in preimage.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One interned platform: the LRU stamp, the canonical preimage the hash
/// was derived from, and the shared instance.
struct Entry {
    stamp: u64,
    preimage: String,
    platform: Arc<Platform>,
}

/// A bounded, LRU-evicted interning table from canonical platform specs to
/// shared [`Platform`] instances.
///
/// Not synchronized itself — the process-global instance behind
/// [`intern_with`] wraps one in a mutex, and the lock is held only for the
/// table operations, never across a platform build.
pub struct PlatformRegistry {
    capacity: usize,
    clock: u64,
    entries: HashMap<u64, Entry>,
}

impl std::fmt::Debug for PlatformRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformRegistry")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .finish()
    }
}

impl PlatformRegistry {
    /// An empty registry holding at most `capacity` platforms. Capacity 0
    /// disables interning (every lookup is a miss and nothing is stored).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, clock: 0, entries: HashMap::new() }
    }

    /// Number of interned platforms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `preimage`; returns the interned platform and `true` on a
    /// verified hit, or `None` when the caller must build (cold key, or a
    /// hash collision whose stored preimage differs).
    fn lookup(&mut self, hash: u64, preimage: &str) -> Option<Arc<Platform>> {
        self.clock += 1;
        let entry = self.entries.get_mut(&hash)?;
        if entry.preimage != preimage {
            // 64-bit collision: never serve the other key's platform. The
            // resident entry keeps its slot (first writer wins); the
            // colliding key rebuilds on every request, which is slow but
            // correct — and observable as a persistent miss stream.
            return None;
        }
        entry.stamp = self.clock;
        Some(Arc::clone(&entry.platform))
    }

    /// Interns `platform` under `preimage`, evicting the least-recently-used
    /// entry if the registry is full. A colliding resident entry (same hash,
    /// different preimage) is left in place.
    fn store(&mut self, hash: u64, preimage: &str, platform: &Arc<Platform>) {
        if self.capacity == 0 || self.entries.contains_key(&hash) {
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.clock += 1;
        self.entries.insert(
            hash,
            Entry {
                stamp: self.clock,
                preimage: preimage.to_owned(),
                platform: Arc::clone(platform),
            },
        );
    }

    /// Resolves `preimage` to a shared platform, building (and interning)
    /// it with `build` on a miss. Returns the platform and whether the
    /// lookup was warm (`true` = served from the registry, no build).
    ///
    /// # Errors
    /// Propagates `build`'s error; nothing is interned in that case.
    pub fn get_or_build<E>(
        &mut self,
        preimage: &str,
        build: impl FnOnce() -> Result<Platform, E>,
    ) -> Result<(Arc<Platform>, bool), E> {
        let hash = content_hash(preimage);
        if let Some(platform) = self.lookup(hash, preimage) {
            REGISTRY_HITS.incr();
            return Ok((platform, true));
        }
        REGISTRY_MISSES.incr();
        let platform = Arc::new(build()?);
        self.store(hash, preimage, &platform);
        Ok((platform, false))
    }
}

/// The process-global registry behind [`intern_with`].
fn global() -> MutexGuard<'static, PlatformRegistry> {
    static GLOBAL: OnceLock<Mutex<PlatformRegistry>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Mutex::new(PlatformRegistry::new(DEFAULT_CAPACITY)))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Resolves `preimage` through the process-global registry (capacity
/// [`DEFAULT_CAPACITY`]). The registry lock is *not* held across the build:
/// a miss builds outside the lock, so concurrent misses on one cold key may
/// build redundantly (last store wins) but never block each other.
///
/// # Errors
/// Propagates `build`'s error; nothing is interned in that case.
pub fn intern_with<E>(
    preimage: &str,
    build: impl FnOnce() -> Result<Platform, E>,
) -> Result<(Arc<Platform>, bool), E> {
    let hash = content_hash(preimage);
    if let Some(platform) = {
        let mut reg = global();
        reg.lookup(hash, preimage)
    } {
        REGISTRY_HITS.incr();
        return Ok((platform, true));
    }
    REGISTRY_MISSES.incr();
    let platform = Arc::new(build()?);
    global().store(hash, preimage, &platform);
    Ok((platform, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    fn build_ok() -> Result<Platform, String> {
        Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).map_err(|e| e.to_string())
    }

    #[test]
    fn cold_then_warm_shares_one_instance() {
        let mut reg = PlatformRegistry::new(4);
        let (a, warm_a) = reg.get_or_build("spec-a", build_ok).unwrap();
        assert!(!warm_a, "first lookup must build");
        let (b, warm_b) = reg.get_or_build("spec-a", build_ok).unwrap();
        assert!(warm_b, "second lookup must be warm");
        assert!(Arc::ptr_eq(&a, &b), "warm hit must return the interned instance");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn build_errors_are_propagated_and_not_interned() {
        let mut reg = PlatformRegistry::new(4);
        let err = reg.get_or_build("bad", || Err::<Platform, _>("boom".to_string()));
        assert_eq!(err.err().as_deref(), Some("boom"));
        assert!(reg.is_empty());
        // The key stays cold: a later good build goes through.
        let (_, warm) = reg.get_or_build("bad", build_ok).unwrap();
        assert!(!warm);
    }

    #[test]
    fn capacity_bounds_the_registry_with_lru_eviction() {
        let mut reg = PlatformRegistry::new(2);
        reg.get_or_build("p0", build_ok).unwrap();
        reg.get_or_build("p1", build_ok).unwrap();
        // Touch p0 so p1 is the LRU victim.
        assert!(reg.get_or_build("p0", build_ok).unwrap().1);
        reg.get_or_build("p2", build_ok).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get_or_build("p0", build_ok).unwrap().1, "touched entry survives");
        assert!(!reg.get_or_build("p1", build_ok).unwrap().1, "LRU entry was evicted");
    }

    #[test]
    fn zero_capacity_disables_interning() {
        let mut reg = PlatformRegistry::new(0);
        assert!(!reg.get_or_build("p", build_ok).unwrap().1);
        assert!(!reg.get_or_build("p", build_ok).unwrap().1);
        assert!(reg.is_empty());
    }

    #[test]
    fn a_hash_collision_never_serves_the_wrong_platform() {
        let mut reg = PlatformRegistry::new(4);
        let hash = content_hash("resident");
        let resident = Arc::new(build_ok().unwrap());
        reg.store(hash, "resident", &resident);
        // Force a different preimage onto the resident's hash slot.
        assert!(reg.lookup(hash, "intruder").is_none(), "collision must miss, not alias");
        // The resident is untouched and still verifies.
        let hit = reg.lookup(hash, "resident").expect("resident still resolves");
        assert!(Arc::ptr_eq(&hit, &resident));
        // Storing the intruder leaves the resident in place (first writer
        // wins); the intruder keeps missing rather than evicting it.
        let intruder = Arc::new(build_ok().unwrap());
        reg.store(hash, "intruder", &intruder);
        let hit = reg.lookup(hash, "resident").expect("resident survives colliding store");
        assert!(Arc::ptr_eq(&hit, &resident));
    }

    #[test]
    fn global_interning_is_warm_on_the_second_lookup() {
        // A preimage unique to this test so parallel tests cannot race it.
        let preimage = "registry-test-global-unique-3f9c";
        let (a, _) = intern_with(preimage, build_ok).unwrap();
        let (b, warm) = intern_with(preimage, build_ok).unwrap();
        assert!(warm);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
