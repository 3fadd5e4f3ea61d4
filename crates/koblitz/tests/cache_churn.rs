//! Adversarial key churn against the process-wide wTNAF table cache.
//!
//! The cache exists because protocol traffic is skewed towards
//! recurring base points; an adversary inverts that assumption by
//! making every request a never-seen-before key. This test lives in
//! its own integration binary so the global cache (and its counters)
//! belongs to this process alone — the unit tests inside the crate
//! share it with every `kp` call and can only assert relative
//! movement.

use gf2m::Fe;
use koblitz::cache::{self, CAPACITY};
use koblitz::mul::{self, KEY_COMB_WINDOW, KP_WINDOW};
use koblitz::{generator, Affine, Int};
use std::sync::{Mutex, MutexGuard};

// The tests in this binary still share the one global cache;
// serialize them so each owns the counters it resets.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn unique_key_flood_degrades_hit_rate_without_growing() {
    const FLOOD: i64 = 4 * CAPACITY as i64;
    let _guard = serial();
    cache::reset();
    for k in 0..FLOOD {
        let p = generator().mul_binary(&Int::from(7_000_000 + k));
        let comb = cache::comb_for(&p, KP_WINDOW).expect("a subgroup base");
        assert_eq!(
            comb.width(),
            KP_WINDOW,
            "combs stay well-formed under churn"
        );
    }
    let s = cache::stats();
    assert!(s.entries <= CAPACITY, "flood must not grow the cache");
    assert_eq!(s.misses, FLOOD as u64, "unique keys never hit");
    assert_eq!(s.hits, 0, "hit rate degrades to zero under churn");
    assert_eq!(s.hit_rate(), 0.0);
    assert_eq!(
        s.evictions,
        FLOOD as u64 - CAPACITY as u64,
        "every miss beyond the resident capacity displaces exactly one table"
    );

    // The cache still works after the flood: recurring keys hit again.
    let survivors: Vec<_> = (0..4)
        .map(|k| generator().mul_binary(&Int::from(8_000_000 + k)))
        .collect();
    let first: Vec<_> = survivors
        .iter()
        .map(|p| cache::comb_for(p, KP_WINDOW))
        .collect();
    let second: Vec<_> = survivors
        .iter()
        .map(|p| cache::comb_for(p, KP_WINDOW))
        .collect();
    assert_eq!(first, second, "post-flood tables round-trip");
    let s2 = cache::stats();
    assert_eq!(s2.hits, 4, "recurring keys hit once resident");
    assert!(s2.hit_rate() > 0.0);
}

#[test]
fn unique_key_verification_flood_builds_no_strips() {
    const FLOOD: i64 = 2 * CAPACITY as i64;
    let _guard = serial();
    cache::reset();
    let u1 = Int::from(0x1234_5678i64);
    let u2 = Int::from(0x0abc_def1i64);
    for k in 0..FLOOD {
        let q = generator().mul_binary(&Int::from(6_000_000 + k));
        let want = generator().mul_binary(&(&u1 + &(&u2 * &Int::from(6_000_000 + k))));
        assert_eq!(mul::double_multiply(&u1, &u2, &q), want);
    }
    let s = cache::stats();
    assert_eq!(s.misses, FLOOD as u64, "unique keys never hit");
    assert_eq!(s.promotions, 0, "a key seen once gets no wider comb");

    // A key that recurs is promoted on its second double multiply.
    let q = generator().mul_binary(&Int::from(6_900_000i64));
    assert_eq!(cache::key_comb_for(&q).unwrap().width(), KP_WINDOW);
    assert_eq!(cache::key_comb_for(&q).unwrap().width(), KEY_COMB_WINDOW);
    assert_eq!(cache::stats().promotions, 1);
}

#[test]
fn strict_lru_evicts_least_recently_used_under_churn() {
    let _guard = serial();
    cache::reset();
    let points: Vec<_> = (0..CAPACITY as i64)
        .map(|k| generator().mul_binary(&Int::from(9_000_000 + k)))
        .collect();
    for p in &points {
        let _ = cache::comb_for(p, KP_WINDOW);
    }
    // Touch everything except point 0, then insert a new key: the
    // untouched point 0 must be the victim.
    for p in &points[1..] {
        let _ = cache::comb_for(p, KP_WINDOW);
    }
    let fresh = generator().mul_binary(&Int::from(9_900_000i64));
    let _ = cache::comb_for(&fresh, KP_WINDOW);
    let before = cache::stats();
    let _ = cache::comb_for(&points[0], KP_WINDOW); // evicted: recompute
    let _ = cache::comb_for(&points[5], KP_WINDOW); // resident: hit
    let after = cache::stats();
    assert_eq!(after.misses - before.misses, 1, "victim was point 0 only");
    assert_eq!(after.hits - before.hits, 1, "survivors still resident");
}

#[test]
fn subgroup_check_runs_on_a_miss_only() {
    let _guard = serial();
    cache::reset();
    let keys: Vec<_> = (0..4i64)
        .map(|k| generator().mul_binary(&Int::from(5_000_000 + k)))
        .collect();
    for q in &keys {
        assert!(cache::comb_for(q, KP_WINDOW).is_some());
    }
    let s = cache::stats();
    assert_eq!(
        (s.misses, s.hits, s.entries),
        (4, 0, 4),
        "one build per miss"
    );
    // Hits through both lookups, a promotion and the comb lookups after
    // it build no comb at the kP width.
    let width = |q| cache::key_comb_for(q).unwrap().width();
    for q in &keys {
        let _ = cache::comb_for(q, KP_WINDOW);
        assert_eq!(width(q), KP_WINDOW);
        assert_eq!(width(q), KEY_COMB_WINDOW);
        assert_eq!(width(q), KEY_COMB_WINDOW);
    }
    let s = cache::stats();
    assert_eq!(
        (s.misses, s.hits, s.entries),
        (4, 16, 4),
        "hits build nothing"
    );
    // A new width is a new entry: a miss.
    let _ = cache::comb_for(&keys[0], 5);
    assert_eq!((cache::stats().misses, cache::stats().entries), (5, 5));
}

#[test]
fn refused_bases_are_misses_that_insert_nothing() {
    let _guard = serial();
    cache::reset();
    let q4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
    let t2 = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
    let p = generator().mul_binary(&Int::from(3_000_000i64));
    let _ = cache::comb_for(&p, KP_WINDOW);
    let before = cache::stats();
    // Every lookup of a coset base checks it again: no verdict is kept.
    let refused = [
        t2,
        q4,
        q4.negated(),
        p.add(&t2),
        p.add(&q4),
        p.add(&q4.negated()),
    ];
    for base in &refused {
        assert_eq!(cache::comb_for(base, KP_WINDOW), None, "{base}");
        assert_eq!(cache::key_comb_for(base), None, "{base}");
        assert_eq!(cache::key_comb_for(base), None, "{base}");
    }
    let after = cache::stats();
    assert_eq!(after.misses - before.misses, 3 * refused.len() as u64);
    assert_eq!(after.hits, before.hits);
    assert_eq!(
        after.entries, before.entries,
        "a refused base is never an entry"
    );
    assert_eq!(after.promotions, before.promotions);
}

#[test]
fn kp_hit_builds_nothing() {
    let _guard = serial();
    cache::reset();
    let p = generator().mul_binary(&Int::from(4_000_000i64));
    let k = Int::from(0x0123_4567_89ab_cdefi64);
    let built = cache::comb_for(&p, KP_WINDOW).expect("a subgroup base");
    let before = cache::stats();
    assert_eq!(mul::mul_wtnaf(&p, &k, KP_WINDOW), p.mul_binary(&k));
    let after = cache::stats();
    assert_eq!(after.hits, before.hits + 1, "the kP lookup hits");
    assert_eq!(
        (after.misses, after.entries),
        (before.misses, before.entries),
        "a hit builds nothing"
    );
    let again = cache::comb_for(&p, KP_WINDOW).expect("a subgroup base");
    assert!(
        std::ptr::eq(built.strips(), again.strips()),
        "the same strips"
    );
}
