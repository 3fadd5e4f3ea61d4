//! Bounded LRU cache of wTNAF precomputation, keyed by base point and
//! window width.
//!
//! `TNAF_Precomputation` is the per-call setup cost of a random-point
//! multiplication. Every entry is a [`Comb`], and so a base in the
//! prime-order subgroup: a miss runs [`Comb::build`], whose subgroup
//! check is the one τ-adic code accepts, and inserts nothing when it
//! refuses the base. A miss therefore costs one check and a hit none,
//! and a lookup that returns a comb is the caller's proof of
//! membership. The comb is the base's width-w table in λ-affine
//! coordinates (the 2^(w−2) − 1 non-trivial α_u·P evaluated in
//! López-Dahab coordinates and converted with one field inversion),
//! then 7 more strips, strip j = τ^(30j) of the table, one table-driven
//! 30-fold squaring per coordinate; every kP against it runs the host's
//! comb over 30 Frobenius maps instead of 239. Protocol traffic is
//! heavily skewed towards a few base points — a gateway verifies many
//! signatures from the same few public keys, an ECDH responder
//! re-derives against recurring peers — so repeated kP against the same
//! base can skip the precomputation entirely. The cache is shared
//! process-wide behind a mutex, bounded (strict LRU eviction by access
//! stamp), and hands out `Arc`-backed combs so worker threads hold them
//! without the lock.
//!
//! A verification key that recurs is a fixed base, like G. Its entry
//! counts the double multiply's lookups ([`key_comb_for`]): the first
//! reads the w = 4 comb kP reads, and the second *promotes* the key,
//! building its comb at [`KEY_COMB_WINDOW`] (8 strips of its w = 5
//! table) so every later verification reads u₂'s digits against that
//! wider table. [`comb_for`] (kP, ECDH, admission warm-up) neither
//! promotes nor reads the promoted comb, so key churn pays for none.

use crate::curve::Affine;
use crate::mul::{Comb, KEY_COMB_WINDOW, KP_WINDOW};
use gf2m::N;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum number of cached (point, width) entries. A
/// [`crate::LambdaPoint`] is 64 bytes, and an entry is a comb of 8
/// strips of its width-w table, 8 × 2^(w−2) points: at w = 4,
/// 8 × 4 × 64 = 2 048 bytes of coordinates. A key's promotion adds its
/// w = 5 comb, 8 strips of 8 points, 4 096 bytes: 6 144 bytes per
/// promoted key, and at most 32 × 6 144 bytes = 192 KiB of coordinates
/// when every resident key is promoted — sized for "a gateway's worth"
/// of recurring public keys, not for unbounded traffic. Protocol
/// traffic asks for w = 4 only; the public API's widest comb, w = 8,
/// holds 512 points (32 KiB).
pub const CAPACITY: usize = 32;

/// The double-multiply lookup that promotes a key: its second.
const PROMOTE_AT: u32 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    w: u32,
    x: [u32; N],
    y: [u32; N],
}

impl Key {
    fn new(p: &Affine, w: u32) -> Key {
        Key {
            w,
            x: *p.x().words(),
            y: *p.y().words(),
        }
    }
}

struct Entry {
    key: Key,
    comb: Comb,
    /// The key's comb at [`KEY_COMB_WINDOW`], once promoted.
    promoted: Option<Comb>,
    /// Double-multiply lookups so far (saturating).
    uses: u32,
    stamp: u64,
}

#[derive(Default)]
struct Lru {
    entries: Vec<Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    promotions: u64,
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build: the subgroup check, then, for a base
    /// that passes it, its λ table and comb strips. One check per miss.
    pub misses: u64,
    /// Resident combs displaced to make room for a new key — the
    /// signature of adversarial key churn (every lookup a unique key).
    pub evictions: u64,
    /// Combs currently resident.
    pub entries: usize,
    /// Keys given a [`KEY_COMB_WINDOW`] comb on their second
    /// double-multiply lookup.
    pub promotions: u64,
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
/// have left it half-updated; every comb can be recomputed, so the
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

/// What one locked lookup found.
enum Found {
    Miss,
    Comb(Comb),
    /// A resident key on its promoting lookup, with its unpromoted comb.
    Promote(Comb),
}

/// Looks `key` up under the lock, counting a hit or a miss. A
/// double-multiply lookup (`dm`) counts a use and reads the promoted
/// comb.
fn find(key: &Key, dm: bool) -> Found {
    let mut guard = lock_cache();
    let lru = &mut *guard;
    lru.clock += 1;
    let Some(e) = lru.entries.iter_mut().find(|e| e.key == *key) else {
        lru.misses += 1;
        return Found::Miss;
    };
    lru.hits += 1;
    e.stamp = lru.clock;
    if !dm {
        return Found::Comb(e.comb.clone());
    }
    if let Some(comb) = &e.promoted {
        return Found::Comb(comb.clone());
    }
    e.uses = e.uses.saturating_add(1);
    if e.uses >= PROMOTE_AT {
        Found::Promote(e.comb.clone())
    } else {
        Found::Comb(e.comb.clone())
    }
}

/// Builds the comb for a missed `key` outside the lock and, if the base
/// is in the subgroup, inserts it, evicting the least recently used
/// entry when full. A refused base inserts nothing. `uses` is the
/// entry's initial double-multiply count.
fn insert(p: &Affine, key: Key, uses: u32) -> Option<Comb> {
    let comb = Comb::build(p, key.w)?;
    let mut lru = lock_cache();
    // Re-check: another thread may have inserted the same key while we
    // computed.
    if let Some(e) = lru.entries.iter().find(|e| e.key == key) {
        return Some(e.comb.clone());
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
        comb: comb.clone(),
        promoted: None,
        uses,
        stamp,
    });
    Some(comb)
}

/// Builds the [`KEY_COMB_WINDOW`] comb of `comb`'s base outside the
/// lock and attaches it to its entry, if it is still resident. A
/// concurrent promotion of the same key may also build; the first to
/// attach wins and the other's comb serves only its own call.
fn promote(comb: &Comb, key: Key) -> Comb {
    let wide = comb.widened(KEY_COMB_WINDOW);
    let mut lru = lock_cache();
    let Some(i) = lru.entries.iter().position(|e| e.key == key) else {
        return wide;
    };
    if let Some(resident) = &lru.entries[i].promoted {
        return resident.clone();
    }
    lru.entries[i].promoted = Some(wide.clone());
    lru.promotions += 1;
    wide
}

/// Returns `p`'s [`Comb`] at width `w`, building and caching it on
/// first use, or `None` when `p` is outside the prime-order subgroup
/// (checked on every miss; a refused base is never cached). `p` must be
/// a finite point (the point multiplication entry points dispatch
/// infinity before any table work). A lookup here never promotes a key.
///
/// The comb is returned by `Arc` so callers — including worker
/// threads in a batch scheduler — never hold the cache lock while
/// multiplying. The precomputation itself runs *outside* the lock;
/// concurrent first lookups of the same key may both compute, and the
/// loser's comb is dropped (correctness is unaffected — combs are
/// deterministic in the key).
pub fn comb_for(p: &Affine, w: u32) -> Option<Comb> {
    debug_assert!(!p.is_infinity(), "precomputation needs a finite base");
    let key = Key::new(p, w);
    match find(&key, false) {
        Found::Comb(comb) => Some(comb),
        _ => insert(p, key, 0),
    }
}

/// The double multiply's lookup of a verification key `q` (finite): its
/// w = [`KP_WINDOW`] comb on a miss or its first double-multiply lookup,
/// its [`KEY_COMB_WINDOW`] comb from the second on, and `None` for a
/// key outside the prime-order subgroup, as [`comb_for`]. The lookup
/// that promotes the key builds the wider comb outside the lock, like a
/// miss builds a comb. Counts hits and misses like [`comb_for`], which
/// shares the entry.
pub fn key_comb_for(q: &Affine) -> Option<Comb> {
    debug_assert!(!q.is_infinity(), "precomputation needs a finite base");
    let key = Key::new(q, KP_WINDOW);
    match find(&key, true) {
        Found::Miss => insert(q, key, 1),
        Found::Comb(comb) => Some(comb),
        Found::Promote(comb) => Some(promote(&comb, key)),
    }
}

/// Current hit/miss counters.
pub fn stats() -> CacheStats {
    let lru = lock_cache();
    CacheStats {
        hits: lru.hits,
        misses: lru.misses,
        evictions: lru.evictions,
        entries: lru.entries.len(),
        promotions: lru.promotions,
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
    lru.promotions = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::generator;
    use crate::int::Int;
    use crate::mul::{
        double_multiply, key_comb, mul_wtnaf, mul_wtnaf_proj, precompute_lambda_table,
    };
    use crate::projective::LambdaPoint;
    use gf2m::Fe;
    use std::mem::size_of;

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
        let c1 = comb_for(&p, KP_WINDOW);
        let c2 = comb_for(&p, KP_WINDOW);
        assert_eq!(c1, c2);
        let after = stats();
        assert!(after.hits > before.hits, "second lookup must hit");
        let strips = c1.expect("a subgroup base").strips().to_vec();
        assert_eq!(strips, key_comb::<LambdaPoint>(&p, KP_WINDOW));
        assert_eq!(strips.len(), 8);
        assert_eq!(strips[0], precompute_lambda_table(&p, KP_WINDOW));
    }

    #[test]
    fn distinct_widths_are_distinct_entries() {
        let p = generator().mul_binary(&Int::from(0x7272i64));
        assert_eq!(comb_for(&p, 4).unwrap().width(), 4);
        assert_eq!(comb_for(&p, 5).unwrap().width(), 5);
    }

    #[test]
    fn second_double_multiply_lookup_promotes() {
        let p = generator().mul_binary(&Int::from(0x0b5e_55edi64));
        let before = stats();
        let first = key_comb_for(&p).unwrap();
        assert_eq!(Some(&first), comb_for(&p, KP_WINDOW).as_ref());
        assert_eq!(first.width(), KP_WINDOW);
        let second = key_comb_for(&p).unwrap();
        assert_eq!(Some(&second), Comb::build(&p, KEY_COMB_WINDOW).as_ref());
        assert_eq!(second.width(), KEY_COMB_WINDOW);
        assert!(stats().promotions > before.promotions);
        // Promoted once: later lookups read the same comb.
        assert_eq!(key_comb_for(&p), Some(second));
    }

    #[test]
    fn comb_for_hits_never_promote() {
        let p = generator().mul_binary(&Int::from(0x7ab1_e0f0i64));
        for _ in 0..4 {
            let _ = comb_for(&p, KP_WINDOW);
        }
        // Four kP lookups leave the key on its first double-multiply use.
        let width = || key_comb_for(&p).unwrap().width();
        assert_eq!(width(), KP_WINDOW);
        assert_eq!(width(), KEY_COMB_WINDOW);
        // A promoted key still serves kP its w = 4 comb.
        assert_eq!(comb_for(&p, KP_WINDOW), Comb::build(&p, KP_WINDOW));
    }

    #[test]
    fn poisoned_cache_recovers() {
        let _guard = serial();
        let p = generator().mul_binary(&Int::from(0x9015_0eedi64));
        let _ = key_comb_for(&p);
        assert_eq!(key_comb_for(&p).unwrap().width(), KEY_COMB_WINDOW);
        let panicked = std::thread::spawn(|| {
            let _held = lock_cache();
            panic!("deliberate panic while holding the table cache lock");
        })
        .join();
        assert!(panicked.is_err());
        // Recovery empties the cache, promoted combs with the rest: the
        // key starts over, unpromoted.
        assert_eq!(key_comb_for(&p), Comb::build(&p, KP_WINDOW));
        assert!(!cache().is_poisoned());
    }

    #[test]
    fn promoted_keys_stay_within_the_stated_bytes() {
        let _guard = serial();
        for k in 0..(CAPACITY as i64 + 4) {
            let q = generator().mul_binary(&Int::from(950_000 + k));
            let _ = key_comb_for(&q);
            assert_eq!(key_comb_for(&q).unwrap().width(), KEY_COMB_WINDOW);
        }
        assert_eq!(size_of::<LambdaPoint>(), 64);
        let points = |c: &Comb| c.strips().iter().map(Vec::len).sum::<usize>();
        let lru = lock_cache();
        // Concurrent tests may leave other entries: unpromoted combs, up
        // to w = 8.
        let mut protocol_bytes = 0;
        for e in &lru.entries {
            let promoted = e.promoted.as_ref().map_or(0, points);
            let bytes = (points(&e.comb) + promoted) * size_of::<LambdaPoint>();
            // The `CAPACITY` doc's figures: a comb holds 8 × 2^(w−2)
            // points, 2 048 bytes at w = 4 plus 4 096 once promoted, and
            // 32 KiB at w = 8.
            assert!(bytes <= 32 * 1024, "{bytes} bytes in one entry");
            if e.key.w == KP_WINDOW {
                assert!(bytes <= 2_048 + 4_096, "{bytes} bytes in a w = 4 entry");
                protocol_bytes += bytes;
            }
        }
        assert!(lru.entries.len() <= CAPACITY);
        assert!(
            protocol_bytes <= 192 * 1024,
            "{protocol_bytes} bytes resident at w = 4"
        );
    }

    /// The coset shifts of the order-n subgroup: the 2-torsion point
    /// (0, 1) and the order-4 points ±(1, 1).
    fn torsion() -> [Affine; 3] {
        let q4 = Affine::Point {
            x: Fe::ONE,
            y: Fe::ONE,
        };
        [
            Affine::Point {
                x: Fe::ZERO,
                y: Fe::ONE,
            },
            q4,
            q4.negated(),
        ]
    }

    #[test]
    fn coset_bases_are_refused_and_multiplied_by_double_and_add() {
        // Full-width scalars, which the τ-adic recoding reduces mod δ:
        // kP and u1·G + u2·P must still equal double-and-add's in every
        // coset, and a refused base must never become an entry.
        let n = crate::curve::order();
        let top = |bits: usize| &Int::one().shl(bits) - &Int::one();
        let scalars = [&n - &Int::one(), top(256)];
        let u1 = top(224);
        let p = generator().mul_binary(&Int::from(0xc05e_7000i64));
        let u1_g = generator().mul_binary(&u1);
        for (j, t) in torsion().iter().enumerate() {
            for base in [*t, p.add(t)] {
                assert!(!base.is_in_prime_order_subgroup());
                assert_eq!(comb_for(&base, KP_WINDOW), None, "coset {j}");
                for k in &scalars {
                    let want = base.mul_binary(k);
                    assert_eq!(mul_wtnaf(&base, k, KP_WINDOW), want, "coset {j}, k = {k}");
                    let proj = mul_wtnaf_proj(&base, k, KP_WINDOW).to_affine();
                    assert_eq!(proj, want, "coset {j}, k = {k}");
                    // The first and second double-multiply lookups.
                    for lookup in 0..2 {
                        assert_eq!(key_comb_for(&base), None, "coset {j} lookup {lookup}");
                        let got = double_multiply(&u1, k, &base);
                        assert_eq!(got, u1_g.add(&want), "coset {j}, u2 = {k}");
                    }
                }
                let key = Key::new(&base, KP_WINDOW);
                assert!(!lock_cache().entries.iter().any(|e| e.key == key));
            }
        }
    }

    #[test]
    fn capacity_is_bounded() {
        let _guard = serial();
        for k in 0..(CAPACITY as i64 + 8) {
            let p = generator().mul_binary(&Int::from(900_000 + k));
            let _ = comb_for(&p, KP_WINDOW);
        }
        assert!(stats().entries <= CAPACITY);
    }
}
