//! The prime-order subgroup verdict an ECDH takes from the wTNAF table
//! cache: a peer the cache holds a comb for is in the subgroup, and an
//! unseen peer is checked once, on the miss. This test lives in its own
//! integration binary so the global cache counters belong to this
//! process alone.

use gf2m::Fe;
use koblitz::cache::{self, CacheStats};
use koblitz::Affine;
use protocols::batch::ecdh_batch;
use protocols::ecdh::{EcdhError, Keypair};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// (hits, misses, entries) added by `f`.
fn lookups(f: impl FnOnce()) -> (u64, u64, isize) {
    let before: CacheStats = cache::stats();
    f();
    let after = cache::stats();
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.entries as isize - before.entries as isize,
    )
}

#[test]
fn an_unseen_peer_costs_one_miss_and_a_seen_one_a_hit() {
    let _guard = serial();
    cache::reset();
    let me = Keypair::generate(b"responder");
    let peer = *Keypair::generate(b"unseen peer").public();
    let first = lookups(|| assert!(me.shared_secret(&peer).is_ok()));
    assert_eq!(first, (0, 1, 1), "the first ECDH: one miss, one entry");
    let second = lookups(|| assert!(me.shared_secret(&peer).is_ok()));
    assert_eq!(second, (1, 0, 0), "the second ECDH: one hit");
    // The batch scheduler makes the same lookups.
    let other = *Keypair::generate(b"another unseen peer").public();
    let batch = lookups(|| assert!(ecdh_batch(&me, &[other, peer], 1).iter().all(Result::is_ok)));
    assert_eq!(batch, (1, 1, 1), "one miss for the new peer, one hit");
}

#[test]
fn a_coset_peer_is_refused_and_inserts_nothing() {
    let _guard = serial();
    cache::reset();
    let me = Keypair::generate(b"responder");
    let q = *Keypair::generate(b"peer").public();
    let q4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
    let t2 = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
    for t in [t2, q4, q4.negated()] {
        for peer in [t, q.add(&t)] {
            let scalar = lookups(|| {
                assert_eq!(me.shared_secret(&peer), Err(EcdhError::WrongOrderPublicKey))
            });
            assert_eq!(scalar, (0, 1, 0), "{peer}: one check, no entry");
            let batch = lookups(|| {
                assert_eq!(
                    ecdh_batch(&me, &[peer], 1),
                    [Err(EcdhError::WrongOrderPublicKey)]
                )
            });
            assert_eq!(batch, (0, 1, 0), "{peer}: one check, no entry");
        }
    }
}
