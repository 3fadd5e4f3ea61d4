//! Bounded LRU cache of wTNAF precomputation, keyed by base point and
//! window width.
//!
//! `TNAF_Precomputation` is the per-call setup cost of a random-point
//! multiplication. On a miss [`Table::build`] runs the prime-order
//! subgroup check that picks the coordinates, once per miss and never
//! on a hit ([`CacheStats::subgroup_checks`]). A base in the subgroup
//! gets a comb ([`key_comb`]): its width-w table in λ-affine
//! coordinates (the 2^(w−2) − 1 non-trivial α_u·P evaluated in
//! López-Dahab coordinates and converted with one field inversion),
//! then 7 more strips, strip j = τ^(30j) of the table, one table-driven
//! 30-fold squaring per coordinate. Every kP
//! against it then runs the host's comb over 30 Frobenius maps instead
//! of 239. Any other base (the torsion points, the other three cosets,
//! an arbitrary [`Affine`] given to the public API) gets affine entries
//! for the LD loop, because its multiples may reach (0, 1), which has
//! no λ. Protocol traffic is heavily skewed towards a few base points —
//! a gateway verifies many signatures from the same few public keys, an
//! ECDH responder re-derives against recurring peers — so repeated kP
//! against the same base can skip the precomputation entirely. The
//! cache is shared process-wide behind a mutex, bounded (strict LRU
//! eviction by access stamp), and hands out `Arc`s so worker threads
//! hold tables without the lock.
//!
//! A verification key that recurs is a fixed base, like G. Its entry
//! counts the double multiply's lookups ([`key_tables_for`]): the first
//! reads the w = 4 comb kP reads, and the second *promotes* a key of the
//! subgroup, building its comb at [`KEY_COMB_WINDOW`] (8 strips of its
//! w = 5 table) so every later verification reads u₂'s digits against
//! that wider table. A key outside the subgroup is never promoted, and
//! [`table_for`] (kP, ECDH, admission warm-up) neither promotes nor
//! reads the promoted comb, so key churn pays for none.

use crate::curve::Affine;
use crate::mul::{key_comb, Table, KEY_COMB_WINDOW, KP_WINDOW};
use crate::projective::LambdaPoint;
use gf2m::N;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Maximum number of cached (point, width) entries. A [`LambdaPoint`]
/// is 64 bytes, and a base in the subgroup is cached as a comb of 8
/// strips of its width-w table, 8 × 2^(w−2) points: at w = 4,
/// 8 × 4 × 64 = 2 048 bytes of coordinates. A key's promotion adds its
/// w = 5 comb, 8 strips of 8 points, 4 096 bytes: 6 144 bytes per
/// promoted key, and at most 32 × 6 144 bytes = 192 KiB of coordinates
/// when every resident key is promoted — sized for "a gateway's worth"
/// of recurring public keys, not for unbounded traffic. Protocol
/// traffic asks for w = 4 only; the public API's widest comb, w = 8,
/// holds 512 points (32 KiB). A base outside the subgroup holds 2^(w−2)
/// 68-byte [`Affine`]s (272 bytes at w = 4, 4 352 at w = 8) and is
/// never promoted.
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
    table: Table,
    /// The key's comb at [`KEY_COMB_WINDOW`], once promoted.
    promoted: Option<Arc<Vec<Vec<LambdaPoint>>>>,
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
    subgroup_checks: u64,
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build: the subgroup check, then a base's λ
    /// table and its comb strips, or for a base outside the subgroup
    /// its affine table.
    pub misses: u64,
    /// Resident tables displaced to make room for a new key — the
    /// signature of adversarial key churn (every lookup a unique key).
    pub evictions: u64,
    /// Tables currently resident.
    pub entries: usize,
    /// Keys given a [`KEY_COMB_WINDOW`] comb on their second
    /// double-multiply lookup.
    pub promotions: u64,
    /// Prime-order subgroup checks run to choose a table's coordinates:
    /// one per miss.
    pub subgroup_checks: u64,
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
/// have left it half-updated; every table and strip can be recomputed,
/// so the cache is emptied and the poison cleared instead of failing
/// every later caller.
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
    Table(Table),
    /// A resident key on its promoting lookup, without its comb yet.
    Promote,
}

/// Looks `key` up under the lock, counting a hit or a miss. A
/// double-multiply lookup (`dm`) of a λ entry counts a use and reads
/// the promoted comb.
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
    if !dm || !e.table.is_lambda() {
        return Found::Table(e.table.clone());
    }
    if let Some(strips) = &e.promoted {
        return Found::Table(Table::Lambda(Arc::clone(strips)));
    }
    e.uses = e.uses.saturating_add(1);
    if e.uses >= PROMOTE_AT {
        Found::Promote
    } else {
        Found::Table(e.table.clone())
    }
}

/// Builds the table for a missed `key` outside the lock, with the
/// subgroup check that picks its coordinates, and inserts it, evicting
/// the least recently used entry when full. `uses` is the entry's
/// initial double-multiply count.
fn insert(p: &Affine, key: Key, uses: u32) -> Table {
    let table = Table::build(p, key.w);
    let mut lru = lock_cache();
    lru.subgroup_checks += 1;
    // Re-check: another thread may have inserted the same key while we
    // computed.
    if let Some(e) = lru.entries.iter().find(|e| e.key == key) {
        return e.table.clone();
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
        table: table.clone(),
        promoted: None,
        uses,
        stamp,
    });
    table
}

/// Builds `q`'s [`KEY_COMB_WINDOW`] comb outside the lock and attaches
/// it to its entry, if it is still resident. A concurrent promotion of
/// the same key may also build; the first to attach wins and the
/// other's comb serves only its own call.
fn promote(q: &Affine, key: Key) -> Arc<Vec<Vec<LambdaPoint>>> {
    let strips = Arc::new(key_comb(q, KEY_COMB_WINDOW));
    let mut lru = lock_cache();
    let Some(i) = lru.entries.iter().position(|e| e.key == key) else {
        return strips;
    };
    if let Some(resident) = &lru.entries[i].promoted {
        return Arc::clone(resident);
    }
    lru.entries[i].promoted = Some(Arc::clone(&strips));
    lru.promotions += 1;
    strips
}

/// Returns the wTNAF precomputation for `p` at width `w`, computing and
/// caching it on first use: the λ comb for a base in the prime-order
/// subgroup, the affine table for any other. `p` must be a finite point
/// (the point multiplication entry points dispatch infinity before any
/// table work). A lookup here never promotes a key.
///
/// The table is returned by `Arc` so callers — including worker
/// threads in a batch scheduler — never hold the cache lock while
/// multiplying. The precomputation itself runs *outside* the lock;
/// concurrent first lookups of the same key may both compute, and the
/// loser's table is dropped (correctness is unaffected — tables are
/// deterministic in the key).
pub fn table_for(p: &Affine, w: u32) -> Table {
    debug_assert!(!p.is_infinity(), "precomputation needs a finite base");
    let key = Key::new(p, w);
    match find(&key, false) {
        Found::Table(table) => table,
        _ => insert(p, key, 0),
    }
}

/// The double multiply's lookup of a verification key `q` (finite): a
/// key in the prime-order subgroup gets its w = [`KP_WINDOW`] comb on a
/// miss or its first double-multiply lookup, and its
/// [`KEY_COMB_WINDOW`] comb from the second on; a key outside the
/// subgroup always gets its affine w = 4 table. The lookup that
/// promotes the key builds the wider comb outside the lock, like a miss
/// builds a table. Counts hits and misses like [`table_for`], which
/// shares the entry.
pub fn key_tables_for(q: &Affine) -> Table {
    debug_assert!(!q.is_infinity(), "precomputation needs a finite base");
    let key = Key::new(q, KP_WINDOW);
    match find(&key, true) {
        Found::Miss => insert(q, key, 1),
        Found::Table(table) => table,
        Found::Promote => Table::Lambda(promote(q, key)),
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
        subgroup_checks: lru.subgroup_checks,
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
    lru.subgroup_checks = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::generator;
    use crate::int::Int;
    use crate::mul::{mul_wtnaf, precompute_lambda_table, precompute_table};
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
        let t1 = table_for(&p, KP_WINDOW);
        let t2 = table_for(&p, KP_WINDOW);
        assert_eq!(t1, t2);
        let after = stats();
        assert!(after.hits > before.hits, "second lookup must hit");
        assert_eq!(t1, Table::Lambda(Arc::new(key_comb(&p, KP_WINDOW))));
        let Table::Lambda(strips) = t1 else {
            unreachable!("a subgroup base")
        };
        assert_eq!(strips.len(), 8);
        assert_eq!(strips[0], precompute_lambda_table(&p, KP_WINDOW));
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
    fn second_double_multiply_lookup_promotes() {
        let p = generator().mul_binary(&Int::from(0x0b5e_55edi64));
        let before = stats();
        let first = key_tables_for(&p);
        assert_eq!(first, table_for(&p, KP_WINDOW));
        assert_eq!(first.width(), KP_WINDOW);
        let second = key_tables_for(&p);
        assert_eq!(
            second,
            Table::Lambda(Arc::new(key_comb(&p, KEY_COMB_WINDOW)))
        );
        assert_eq!(second.width(), KEY_COMB_WINDOW);
        assert!(stats().promotions > before.promotions);
        // Promoted once: later lookups read the same comb.
        assert_eq!(key_tables_for(&p), second);
    }

    #[test]
    fn table_for_hits_never_promote() {
        let p = generator().mul_binary(&Int::from(0x7ab1_e0f0i64));
        for _ in 0..4 {
            let _ = table_for(&p, KP_WINDOW);
        }
        // Four kP lookups leave the key on its first double-multiply use.
        assert_eq!(key_tables_for(&p).width(), KP_WINDOW);
        assert_eq!(key_tables_for(&p).width(), KEY_COMB_WINDOW);
        // A promoted key still serves kP its w = 4 comb.
        assert_eq!(
            table_for(&p, KP_WINDOW),
            Table::Lambda(Arc::new(key_comb(&p, KP_WINDOW)))
        );
    }

    #[test]
    fn poisoned_cache_recovers() {
        let _guard = serial();
        let p = generator().mul_binary(&Int::from(0x9015_0eedi64));
        let _ = key_tables_for(&p);
        assert_eq!(key_tables_for(&p).width(), KEY_COMB_WINDOW);
        let panicked = std::thread::spawn(|| {
            let _held = lock_cache();
            panic!("deliberate panic while holding the table cache lock");
        })
        .join();
        assert!(panicked.is_err());
        // Recovery empties the cache, promoted combs with the rest: the
        // key starts over, unpromoted.
        assert_eq!(key_tables_for(&p), Table::build(&p, KP_WINDOW));
        assert!(!cache().is_poisoned());
    }

    #[test]
    fn promoted_keys_stay_within_the_stated_bytes() {
        let _guard = serial();
        for k in 0..(CAPACITY as i64 + 4) {
            let q = generator().mul_binary(&Int::from(950_000 + k));
            let _ = key_tables_for(&q);
            assert_eq!(key_tables_for(&q).width(), KEY_COMB_WINDOW);
        }
        assert_eq!(size_of::<LambdaPoint>(), 64);
        assert_eq!(size_of::<Affine>(), 68);
        let points = |strips: &[Vec<LambdaPoint>]| strips.iter().map(Vec::len).sum::<usize>();
        let lru = lock_cache();
        // Concurrent tests may leave other entries: unpromoted combs or,
        // for a coset base, affine tables, up to w = 8.
        let mut protocol_bytes = 0;
        for e in &lru.entries {
            let bytes = match &e.table {
                Table::Lambda(strips) => {
                    let promoted = e.promoted.as_deref().map_or(0, |s| points(s));
                    (points(strips) + promoted) * size_of::<LambdaPoint>()
                }
                Table::Ld(t) => {
                    assert!(e.promoted.is_none(), "a coset key is never promoted");
                    t.len() * size_of::<Affine>()
                }
            };
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
    fn coset_bases_stay_on_the_ld_path() {
        // Scalars below 2⁶⁴: the recoding leaves them unreduced, so kP
        // equals k·P by double-and-add in every coset.
        let k = Int::from(0x1234_5678_9abc_def1i64);
        let (u1, u2) = (Int::from(0x0f1e_2d3c_4b5ai64), Int::from(0x7a69_5847i64));
        let p = generator().mul_binary(&Int::from(0xc05e_7000i64));
        for (j, t) in torsion().iter().enumerate() {
            for base in [*t, p.add(t)] {
                assert!(!base.is_in_prime_order_subgroup());
                let table = table_for(&base, KP_WINDOW);
                assert_eq!(
                    table,
                    Table::Ld(Arc::new(precompute_table(&base, KP_WINDOW)))
                );
                assert_eq!(table.width(), KP_WINDOW);
                assert_eq!(
                    mul_wtnaf(&base, &k, KP_WINDOW),
                    base.mul_binary(&k),
                    "coset {j}"
                );
                let want = generator().mul_binary(&u1).add(&base.mul_binary(&u2));
                // A coset key is never promoted, however often it recurs.
                for lookup in 0..3 {
                    assert_eq!(key_tables_for(&base), table, "coset {j} lookup {lookup}");
                    assert_eq!(
                        crate::mul::double_multiply(&u1, &u2, &base),
                        want,
                        "coset {j}"
                    );
                }
            }
        }
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
