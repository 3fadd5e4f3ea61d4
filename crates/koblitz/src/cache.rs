//! Bounded LRU cache of wTNAF precomputation tables, keyed by base
//! point and window width.
//!
//! `TNAF_Precomputation` is the per-call setup cost of a random-point
//! multiplication: [`Table::build`] evaluates the 2^(w−2) − 1
//! non-trivial α_u·P in López-Dahab coordinates (a few Frobenius maps
//! and mixed additions each) and converts them with one field
//! inversion, which dominates a miss. A base in the prime-order
//! subgroup gets its table in λ-affine coordinates, for the host's λ
//! loop; any other base (the torsion points, the other three cosets, an
//! arbitrary [`Affine`] given to the public API) gets affine entries for
//! the LD loop, because its multiples may reach (0, 1), which has no λ.
//! The subgroup check that decides this runs once per miss, never on a
//! hit ([`CacheStats::subgroup_checks`]). Protocol traffic is heavily
//! skewed towards a few base points — a gateway verifies many
//! signatures from the same few public keys, an ECDH responder
//! re-derives against recurring peers — so repeated kP against the
//! same base can skip the precomputation entirely. The cache is shared
//! process-wide behind a mutex, bounded (strict LRU eviction by access
//! stamp), and hands out `Arc`s so worker threads hold tables without
//! the lock.
//!
//! A verification key that recurs is a fixed base, like G. Its entry
//! counts the double multiply's lookups ([`key_tables_for`]); the second
//! one *promotes* a key with a λ table, building its comb strips
//! ([`key_comb`], 8 strips of the w = 5 table) so every later
//! verification runs the joint comb over 30 Frobenius maps instead of
//! 239. A miss never builds strips, a key outside the subgroup is never
//! promoted, and [`table_for`] (kP, ECDH, admission warm-up) neither
//! promotes nor reads them, so key churn pays for none.

use crate::curve::Affine;
use crate::mul::{key_comb, KeyTables, Table, KP_WINDOW};
use crate::projective::LambdaPoint;
use gf2m::N;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Maximum number of cached (point, width) entries. A [`LambdaPoint`]
/// is 64 bytes, so a subgroup key's w = 4 table (4 points) holds 256
/// bytes of coordinates and its promotion adds 8 strips of 8 points,
/// 4 096 bytes: 4 352 bytes per promoted key, and at most
/// 32 × 4 352 bytes = 136 KiB of coordinates when every resident key is
/// promoted — sized for "a gateway's worth" of recurring public keys,
/// not for unbounded traffic. An entry of width w holds 2^(w−2) points,
/// at most 64 at w = 8; a base outside the subgroup holds 68-byte
/// [`Affine`]s (272 bytes at w = 4, 4 352 at w = 8) and is never
/// promoted.
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
    /// The key's comb strips, once promoted.
    strips: Option<Arc<Vec<Vec<LambdaPoint>>>>,
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
    /// Lookups that had to run `precompute_table`.
    pub misses: u64,
    /// Resident tables displaced to make room for a new key — the
    /// signature of adversarial key churn (every lookup a unique key).
    pub evictions: u64,
    /// Tables currently resident.
    pub entries: usize,
    /// Keys given comb strips on their second double-multiply lookup.
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
    /// A resident key on its promoting lookup, without strips yet.
    Promote,
    Comb(Arc<Vec<Vec<LambdaPoint>>>),
}

/// Looks `key` up under the lock, counting a hit or a miss. A
/// double-multiply lookup (`dm`) of a λ entry counts a use and reads
/// the strips.
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
    if let Some(strips) = &e.strips {
        return Found::Comb(Arc::clone(strips));
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
        strips: None,
        uses,
        stamp,
    });
    table
}

/// Builds `q`'s strips outside the lock and attaches them to its entry,
/// if it is still resident. A concurrent promotion of the same key may
/// also build; the first to attach wins and the other's strips serve
/// only its own call.
fn promote(q: &Affine, key: Key) -> Arc<Vec<Vec<LambdaPoint>>> {
    let strips = Arc::new(key_comb(q));
    let mut lru = lock_cache();
    let Some(i) = lru.entries.iter().position(|e| e.key == key) else {
        return strips;
    };
    if let Some(resident) = &lru.entries[i].strips {
        return Arc::clone(resident);
    }
    lru.entries[i].strips = Some(Arc::clone(&strips));
    lru.promotions += 1;
    strips
}

/// Returns the wTNAF precomputation table for `p`, computing and
/// caching it on first use: λ-affine for a base in the prime-order
/// subgroup, affine for any other. `p` must be a finite point (the point
/// multiplication entry points dispatch infinity before any table
/// work). A lookup here never promotes a key.
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

/// The double multiply's lookup of a verification key `q` (finite):
/// its w = 4 table on a miss or the key's first double-multiply lookup,
/// its comb strips from the second on if the table is λ; a key outside
/// the prime-order subgroup always gets its affine table. The lookup that promotes the
/// key builds the strips outside the lock, like a miss builds a table.
/// Counts hits and misses like [`table_for`], which shares the entry.
pub fn key_tables_for(q: &Affine) -> KeyTables {
    debug_assert!(!q.is_infinity(), "precomputation needs a finite base");
    let key = Key::new(q, KP_WINDOW);
    match find(&key, true) {
        Found::Miss => KeyTables::Window(insert(q, key, 1)),
        Found::Table(table) => KeyTables::Window(table),
        Found::Promote => KeyTables::Comb(promote(q, key)),
        Found::Comb(strips) => KeyTables::Comb(strips),
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
        assert_eq!(
            t1,
            Table::Lambda(Arc::new(precompute_lambda_table(&p, KP_WINDOW)))
        );
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
        assert_eq!(first, KeyTables::Window(table_for(&p, KP_WINDOW)));
        let second = key_tables_for(&p);
        assert_eq!(second, KeyTables::Comb(Arc::new(key_comb(&p))));
        assert!(stats().promotions > before.promotions);
        // Promoted once: later lookups read the same strips.
        assert_eq!(key_tables_for(&p), second);
    }

    #[test]
    fn table_for_hits_never_promote() {
        let p = generator().mul_binary(&Int::from(0x7ab1_e0f0i64));
        for _ in 0..4 {
            let _ = table_for(&p, KP_WINDOW);
        }
        // Four kP lookups leave the key on its first double-multiply use.
        assert!(matches!(key_tables_for(&p), KeyTables::Window(_)));
        assert!(matches!(key_tables_for(&p), KeyTables::Comb(_)));
        // A promoted key still serves kP its w = 4 table.
        assert_eq!(
            table_for(&p, KP_WINDOW),
            Table::Lambda(Arc::new(precompute_lambda_table(&p, KP_WINDOW)))
        );
    }

    #[test]
    fn poisoned_cache_recovers() {
        let _guard = serial();
        let p = generator().mul_binary(&Int::from(0x9015_0eedi64));
        let _ = key_tables_for(&p);
        assert!(matches!(key_tables_for(&p), KeyTables::Comb(_)));
        let panicked = std::thread::spawn(|| {
            let _held = lock_cache();
            panic!("deliberate panic while holding the table cache lock");
        })
        .join();
        assert!(panicked.is_err());
        // Recovery empties the cache, strips with tables: the key starts
        // over, unpromoted.
        assert_eq!(
            key_tables_for(&p),
            KeyTables::Window(Table::build(&p, KP_WINDOW))
        );
        assert!(!cache().is_poisoned());
    }

    #[test]
    fn promoted_keys_stay_within_the_stated_bytes() {
        let _guard = serial();
        for k in 0..(CAPACITY as i64 + 4) {
            let q = generator().mul_binary(&Int::from(950_000 + k));
            let _ = key_tables_for(&q);
            assert!(matches!(key_tables_for(&q), KeyTables::Comb(_)));
        }
        assert_eq!(std::mem::size_of::<LambdaPoint>(), 64);
        assert_eq!(std::mem::size_of::<Affine>(), 68);
        let lru = lock_cache();
        // Concurrent tests may leave other entries: unpromoted tables up
        // to w = 8, λ or (for a coset base) affine.
        let bytes: usize = lru
            .entries
            .iter()
            .map(|e| match &e.table {
                Table::Lambda(t) => {
                    let strips = e
                        .strips
                        .as_ref()
                        .map_or(0, |s| s.iter().map(Vec::len).sum());
                    (t.len() + strips) * std::mem::size_of::<LambdaPoint>()
                }
                Table::Ld(t) => {
                    assert!(e.strips.is_none(), "a coset key is never promoted");
                    t.len() * std::mem::size_of::<Affine>()
                }
            })
            .sum();
        // The `CAPACITY` doc's bound: 256 + 4 096 bytes per promoted key
        // (a w = 8 table holds at most 64 × 68 = 4 352 bytes too).
        assert!(lru.entries.len() <= CAPACITY);
        assert!(bytes <= CAPACITY * 4_352, "{bytes} bytes resident");
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
                assert_eq!(
                    mul_wtnaf(&base, &k, KP_WINDOW),
                    base.mul_binary(&k),
                    "coset {j}"
                );
                let want = generator().mul_binary(&u1).add(&base.mul_binary(&u2));
                // A coset key is never promoted, however often it recurs.
                for lookup in 0..3 {
                    assert_eq!(
                        key_tables_for(&base),
                        KeyTables::Window(table.clone()),
                        "coset {j} lookup {lookup}"
                    );
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
