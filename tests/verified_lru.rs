//! The one verified LRU table, in both of its uses: the serve solution
//! cache (`mosc_serve::LruCache`) and the platform registry
//! (`mosc_core::registry`). Hits are verified against the stored preimage,
//! so a forced 64-bit collision never aliases; eviction takes the least
//! recently touched entry; capacity 0 stores nothing; a repeated or
//! colliding insert overwrites its slot without counting as an eviction;
//! hits share one `Arc`.

use mosc::algorithms::registry::{intern_with, ContentKey, VerifiedLru};
use mosc::algorithms::{SolverKind, SolverStats};
use mosc::sched::{Platform, PlatformSpec};
use mosc::serve::{CacheKey, CachedSolve, LruCache};
use std::sync::Arc;

fn solve(throughput: f64) -> CachedSolve {
    CachedSolve {
        solver: SolverKind::Ao,
        throughput,
        peak_c: 50.0,
        feasible: true,
        m: 1,
        wall_ms: 1.0,
        stats: SolverStats::default(),
        schedule_text: String::new(),
    }
}

/// A key whose hash is forced to `hash` regardless of its preimage: two
/// distinct preimages that index the same slot.
fn forced(hash: u64, preimage: &str) -> CacheKey {
    CacheKey { hash, preimage: preimage.to_owned() }
}

fn key(n: u64) -> CacheKey {
    forced(n, &format!("preimage-{n}"))
}

fn throughput(cache: &mut LruCache, key: &CacheKey) -> Option<f64> {
    cache.get(key).map(|hit| hit.throughput)
}

fn platform() -> Platform {
    Platform::build(&PlatformSpec::paper(1, 2, 2, 55.0)).unwrap()
}

#[test]
fn a_forced_collision_never_aliases_in_the_solution_cache() {
    let mut cache = LruCache::new(4);
    let a = forced(0xdead_beef, "platform-a\0ao\0{}");
    let b = forced(0xdead_beef, "platform-b\0ao\0{}");
    assert!(!cache.insert(&a, solve(1.0)));
    assert_eq!(throughput(&mut cache, &b), None, "a collision must miss, not serve a's solution");
    assert_eq!(throughput(&mut cache, &a), Some(1.0));
    // The colliding insert overwrites the slot (last store wins, not an
    // eviction); verification now protects b instead.
    assert!(!cache.insert(&b, solve(2.0)));
    assert_eq!(throughput(&mut cache, &a), None);
    assert_eq!(throughput(&mut cache, &b), Some(2.0));
    assert_eq!(cache.len(), 1);
}

#[test]
fn a_forced_collision_never_aliases_in_the_platform_table() {
    let mut table: VerifiedLru<Platform> = VerifiedLru::new(4);
    let resident = ContentKey::new("resident".to_owned());
    let intruder = ContentKey { hash: resident.hash, preimage: "intruder".to_owned() };
    let first = Arc::new(platform());
    table.insert(&resident, Arc::clone(&first));
    assert!(table.get(&intruder).is_none(), "a collision must miss, not alias");
    let hit = table.get(&resident).expect("the resident still resolves");
    assert!(Arc::ptr_eq(&hit, &first));
    // Storing the intruder overwrites the slot: the resident now misses
    // (and would rebuild) rather than resolving to the intruder's platform.
    let second = Arc::new(platform());
    assert!(!table.insert(&intruder, Arc::clone(&second)));
    assert!(table.get(&resident).is_none());
    assert!(Arc::ptr_eq(&table.get(&intruder).unwrap(), &second));
}

#[test]
fn the_lru_victim_is_the_least_recently_touched_entry() {
    let mut cache = LruCache::new(2);
    assert!(!cache.insert(&key(1), solve(1.0)));
    assert!(!cache.insert(&key(2), solve(2.0)));
    // Touch 1, so 2 is now the least recently used entry.
    assert!(cache.get(&key(1)).is_some());
    assert!(cache.insert(&key(3), solve(3.0)), "a full table evicts");
    assert_eq!(cache.len(), 2);
    assert!(cache.get(&key(2)).is_none(), "the untouched entry is the victim");
    assert!(cache.get(&key(1)).is_some());
    assert!(cache.get(&key(3)).is_some());
}

#[test]
fn capacity_zero_stores_nothing() {
    let mut cache = LruCache::new(0);
    assert!(!cache.insert(&key(1), solve(1.0)));
    assert!(cache.is_empty());
    assert!(cache.get(&key(1)).is_none());
    let mut table: VerifiedLru<Platform> = VerifiedLru::new(0);
    assert!(!table.insert(&ContentKey::new("p".to_owned()), platform()));
    assert!(table.is_empty());
}

#[test]
fn a_reinsert_is_not_an_eviction() {
    let mut cache = LruCache::new(1);
    assert!(!cache.insert(&key(7), solve(1.0)));
    assert!(!cache.insert(&key(7), solve(2.0)), "a refresh is not an eviction");
    assert_eq!(throughput(&mut cache, &key(7)), Some(2.0), "last store wins");
    assert_eq!(cache.len(), 1);
}

#[test]
fn hits_share_one_arc() {
    let mut cache = LruCache::new(2);
    cache.insert(&key(5), solve(5.0));
    let first = cache.get(&key(5)).unwrap();
    let second = cache.get(&key(5)).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "hits must share the cached allocation");
}

#[test]
fn intern_with_is_warm_on_the_second_lookup_and_skips_failed_builds() {
    // Preimages unique to this test, so no other test can warm them first.
    let preimage = "verified-lru-test-intern-warm";
    let (a, warm_a) = intern_with(preimage, || Ok::<_, String>(platform())).unwrap();
    assert!(!warm_a, "the first lookup builds");
    let (b, warm_b) = intern_with(preimage, || Ok::<_, String>(platform())).unwrap();
    assert!(warm_b, "the second lookup is warm");
    assert!(Arc::ptr_eq(&a, &b), "a warm hit returns the interned instance");

    let failing = "verified-lru-test-intern-failed-build";
    let err = intern_with(failing, || Err::<Platform, _>("boom".to_owned()));
    assert_eq!(err.err().as_deref(), Some("boom"));
    // Nothing was interned: the next lookup of the key builds again.
    let (_, warm) = intern_with(failing, || Ok::<_, String>(platform())).unwrap();
    assert!(!warm, "a failed build must not be interned");
}
