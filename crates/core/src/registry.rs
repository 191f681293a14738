//! Content-addressed tables: one verified LRU for solutions and platforms.
//!
//! A schedule is a pure function of `(platform, options)` — Algorithm 2
//! rebuilds everything from the platform's modal decomposition — so both
//! things worth remembering between requests can be addressed by content:
//! the serve layer's solutions, and the built [`Platform`]s whose
//! eigenbasis every solve on them shares. Both live in one table type,
//! [`VerifiedLru`]:
//!
//! * **Indexed by FNV-1a** ([`fnv1a`]) of a canonical preimage — the key's
//!   bytes, e.g. the sorted-member JSON of a platform spec.
//! * **Verified on every hit.** A 64-bit hash is not an identity, so each
//!   slot keeps the preimage it was stored under and a lookup whose
//!   preimage differs misses. A collision degrades to recomputation, never
//!   to somebody else's solution or thermal model.
//! * **Bounded, least-recently-used.** One stamp clock orders every lookup
//!   and insert; a full table evicts the oldest stamp by an `O(capacity)`
//!   scan — fine at service sizes (hundreds), and it keeps the structure a
//!   plain `HashMap`. Capacity 0 stores nothing.
//! * **Last store wins.** An insert under a resident hash overwrites the
//!   slot, whether it repeats the key or collides with it; verification
//!   keeps either outcome correct.
//! * **Shared values.** Entries are `Arc`s; a hit clones the `Arc`, not the
//!   value, so hit cost does not grow with the value.
//!
//! The process-global platform table behind [`intern_with`] amortizes the
//! eigendecomposition across requests: a warm solve performs zero
//! eigendecompositions (`eigen_calls == 0` in its [`crate::KernelDelta`])
//! and no steady-state solve for a power profile any earlier solve on the
//! platform already visited. Its hits and misses are reported through the
//! `registry.hits` / `registry.misses` counters (surfaced per-solve via
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

/// 64-bit FNV-1a over raw bytes.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A content key: the 64-bit FNV-1a hash a [`VerifiedLru`] indexes on,
/// plus the preimage it was derived from, so hits can be verified instead
/// of trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentKey {
    /// FNV-1a hash of [`preimage`](Self::preimage).
    pub hash: u64,
    /// The canonical serialization the key stands for.
    pub preimage: String,
}

impl ContentKey {
    /// The key of `preimage`, hashed with [`fnv1a`].
    #[must_use]
    pub fn new(preimage: String) -> Self {
        Self { hash: fnv1a(preimage.as_bytes()), preimage }
    }
}

/// A bounded, least-recently-used table from [`ContentKey`]s to shared
/// values, verified against the stored preimage on every hit (see the
/// module docs for the policy). Not synchronized itself: callers wrap it in
/// a mutex and hold the lock only for the table operations.
#[derive(Debug)]
pub struct VerifiedLru<V> {
    capacity: usize,
    clock: u64,
    /// `hash → (stamp, preimage, value)`.
    entries: HashMap<u64, (u64, String, Arc<V>)>,
}

impl<V> VerifiedLru<V> {
    /// An empty table holding at most `capacity` entries (0 disables it:
    /// nothing is stored and every lookup misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, clock: 0, entries: HashMap::new() }
    }

    /// Looks up `key`, refreshing its recency on a verified hit. A resident
    /// entry under the same hash but another preimage answers `None`.
    pub fn get(&mut self, key: &ContentKey) -> Option<Arc<V>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&key.hash) {
            Some((stamp, preimage, value)) if *preimage == key.preimage => {
                *stamp = clock;
                Some(Arc::clone(value))
            }
            _ => None,
        }
    }

    /// Stores `value` under `key`, overwriting any resident entry with the
    /// same hash (last store wins) and otherwise evicting the
    /// least-recently-used entry when full. Returns `true` when a capacity
    /// eviction happened; an overwrite is not one.
    pub fn insert(&mut self, key: &ContentKey, value: impl Into<Arc<V>>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.clock += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key.hash) && self.entries.len() >= self.capacity {
            if let Some(&oldest) =
                self.entries.iter().min_by_key(|(_, (stamp, _, _))| *stamp).map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.entries.insert(key.hash, (self.clock, key.preimage.clone(), value.into()));
        evicted
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

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
