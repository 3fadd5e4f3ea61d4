//! Bounded LRU cache of wTNAF precomputation tables, keyed by base
//! point and window width.
//!
//! `TNAF_Precomputation` is the per-call setup cost of a random-point
//! multiplication: [`precompute_table`] evaluates the 2^(w−2) − 1
//! non-trivial α_u·P in López-Dahab coordinates (a few Frobenius maps
//! and mixed additions each) and converts them with one field
//! inversion, which dominates a miss. Protocol traffic is heavily
//! skewed towards a few base points — a gateway verifies many
//! signatures from the same few public keys, an ECDH responder
//! re-derives against recurring peers — so repeated kP against the
//! same base can skip the precomputation entirely. The cache is shared process-wide behind a mutex, bounded
//! (strict LRU eviction by access stamp), and hands out `Arc`s so
//! worker threads hold tables without the lock.

use crate::curve::Affine;
use crate::mul::precompute_table;
use gf2m::N;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Maximum number of cached (point, width) tables. At w = 4 a table is
/// 4 affine points (240 bytes of coordinates), so the cache tops out
/// around a few kilobytes — sized for "a gateway's worth" of recurring
/// public keys, not for unbounded traffic.
pub const CAPACITY: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    w: u32,
    x: [u32; N],
    y: [u32; N],
}

struct Entry {
    key: Key,
    table: Arc<Vec<Affine>>,
    stamp: u64,
}

#[derive(Default)]
struct Lru {
    entries: Vec<Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run `precompute_table`.
    pub misses: u64,
    /// Resident tables displaced to make room for a new key — the
    /// signature of adversarial key churn (every lookup a unique key).
    pub evictions: u64,
    /// Tables currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when the cache has never been queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

fn cache() -> &'static Mutex<Lru> {
    static CACHE: OnceLock<Mutex<Lru>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Lru::default()))
}

/// Locks the cache. A thread that panicked while holding the lock may
/// have left it half-updated; every table can be recomputed, so the
/// cache is emptied and the poison cleared instead of failing every
/// later caller.
fn lock_cache() -> MutexGuard<'static, Lru> {
    let cache = cache();
    cache.lock().unwrap_or_else(|poisoned| {
        cache.clear_poison();
        let mut lru = poisoned.into_inner();
        lru.entries.clear();
        lru
    })
}

/// Returns the wTNAF precomputation table for `p`, computing and
/// caching it on first use. `p` must be a finite point (the point
/// multiplication entry points dispatch infinity before any table
/// work).
///
/// The table is returned by `Arc` so callers — including worker
/// threads in a batch scheduler — never hold the cache lock while
/// multiplying. The precomputation itself runs *outside* the lock;
/// concurrent first lookups of the same key may both compute, and the
/// loser's table is dropped (correctness is unaffected — tables are
/// deterministic in the key).
pub fn table_for(p: &Affine, w: u32) -> Arc<Vec<Affine>> {
    debug_assert!(!p.is_infinity(), "precomputation needs a finite base");
    let key = Key {
        w,
        x: *p.x().words(),
        y: *p.y().words(),
    };
    {
        let mut lru = lock_cache();
        lru.clock += 1;
        let clock = lru.clock;
        if let Some(e) = lru.entries.iter_mut().find(|e| e.key == key) {
            e.stamp = clock;
            let table = Arc::clone(&e.table);
            lru.hits += 1;
            return table;
        }
        lru.misses += 1;
    }
    let table = Arc::new(precompute_table(p, w));
    let mut lru = lock_cache();
    // Re-check: another thread may have inserted the same key while we
    // computed.
    if let Some(e) = lru.entries.iter().find(|e| e.key == key) {
        return Arc::clone(&e.table);
    }
    if lru.entries.len() >= CAPACITY {
        if let Some(victim) = lru
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
        {
            lru.entries.swap_remove(victim);
            lru.evictions += 1;
        }
    }
    let stamp = lru.clock;
    lru.entries.push(Entry {
        key,
        table: Arc::clone(&table),
        stamp,
    });
    table
}

/// Current hit/miss counters.
pub fn stats() -> CacheStats {
    let lru = lock_cache();
    CacheStats {
        hits: lru.hits,
        misses: lru.misses,
        evictions: lru.evictions,
        entries: lru.entries.len(),
    }
}

/// Empties the cache and zeroes the counters (for benchmarks that
/// measure cold-vs-warm behaviour).
pub fn reset() {
    let mut lru = lock_cache();
    lru.entries.clear();
    lru.clock = 0;
    lru.hits = 0;
    lru.misses = 0;
    lru.evictions = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::generator;
    use crate::int::Int;
    use crate::mul::KP_WINDOW;

    // The cache is process-global and tests run concurrently; counter
    // assertions serialize on this lock so deltas are attributable.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn second_lookup_hits() {
        let _guard = serial();
        let p = generator().mul_binary(&Int::from(0x5151_5151i64));
        let before = stats();
        let t1 = table_for(&p, KP_WINDOW);
        let t2 = table_for(&p, KP_WINDOW);
        assert_eq!(t1, t2);
        let after = stats();
        assert!(after.hits > before.hits, "second lookup must hit");
        assert_eq!(*t1, precompute_table(&p, KP_WINDOW));
    }

    #[test]
    fn distinct_widths_are_distinct_entries() {
        let p = generator().mul_binary(&Int::from(0x7272i64));
        let t4 = table_for(&p, 4);
        let t5 = table_for(&p, 5);
        assert_eq!(t4.len(), 4);
        assert_eq!(t5.len(), 8);
    }

    #[test]
    fn poisoned_cache_recovers() {
        let _guard = serial();
        let p = generator().mul_binary(&Int::from(0x9015_0eedi64));
        let _ = table_for(&p, KP_WINDOW);
        let panicked = std::thread::spawn(|| {
            let _held = lock_cache();
            panic!("deliberate panic while holding the table cache lock");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(*table_for(&p, KP_WINDOW), precompute_table(&p, KP_WINDOW));
        assert!(!cache().is_poisoned());
    }

    #[test]
    fn capacity_is_bounded() {
        let _guard = serial();
        for k in 0..(CAPACITY as i64 + 8) {
            let p = generator().mul_binary(&Int::from(900_000 + k));
            let _ = table_for(&p, KP_WINDOW);
        }
        assert!(stats().entries <= CAPACITY);
    }
}
