//! The content-addressed table every cache in the workspace is built on:
//! the thermal models shared by [`crate::Platform::build`], the platform
//! registry in `mosc-core`, and the serve layer's solutions. One type,
//! [`VerifiedLru`], with one policy:
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

use std::collections::HashMap;
use std::sync::Arc;

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
