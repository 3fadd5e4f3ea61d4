//! Attacker's-eye negative paths through the whole protocol stack, as
//! seen from the radio: every test feeds wire bytes (not constructed
//! structs) through the same decode functions a receiving node runs,
//! and asserts the stack answers with the right error — never a panic,
//! never silent acceptance.

use prng::SplitMix64;
use protocols::ecdh::{EcdhError, Keypair};
use protocols::ecdsa::{self, SigningKey, VerifyError};
use protocols::ecies::{self, EciesError};
use protocols::wire::{
    decode_public_key, decode_public_key_slice, decode_signature, decode_signature_slice,
    encode_public_key, encode_signature, SealedFrame, WindowedReplayGuard, WireError,
};

#[test]
fn every_single_bit_flip_in_a_signature_is_rejected() {
    let key = SigningKey::generate(b"node-12 identity");
    let msg = b"fw-update v1.4.2 sha256=8c1f";
    let good = encode_signature(&key.sign(msg));
    for byte in 0..good.len() {
        for bit in 0..8 {
            let mut flipped = good;
            flipped[byte] ^= 1 << bit;
            // The decoder may reject the scalar outright (out of
            // range); otherwise verification must fail.
            match decode_signature_slice(&flipped) {
                Err(WireError::BadScalar) => {}
                Err(e) => panic!("unexpected decode error {e} at byte {byte} bit {bit}"),
                Ok(sig) => {
                    assert!(
                        ecdsa::verify(key.public(), msg, &sig).is_err(),
                        "flipped bit {bit} of byte {byte} still verified"
                    );
                }
            }
        }
    }
}

#[test]
fn truncated_and_padded_signatures_error_cleanly() {
    let key = SigningKey::generate(b"node-12 identity");
    let good = encode_signature(&key.sign(b"frame"));
    for len in 0..good.len() {
        assert_eq!(
            decode_signature_slice(&good[..len]),
            Err(WireError::BadLength { need: 60, got: len })
        );
    }
    let mut padded = good.to_vec();
    padded.push(0);
    assert_eq!(
        decode_signature_slice(&padded),
        Err(WireError::BadLength { need: 60, got: 61 })
    );
}

#[test]
fn signature_under_the_wrong_key_is_rejected_end_to_end() {
    let signer = SigningKey::generate(b"real signer");
    let imposter = SigningKey::generate(b"imposter");
    let msg = b"route update";
    let sig_bytes = encode_signature(&imposter.sign(msg));
    let key_bytes = encode_public_key(signer.public());
    // Receiver decodes both from the wire, then verifies.
    let q = decode_public_key_slice(&key_bytes).expect("signer key valid");
    let sig = decode_signature_slice(&sig_bytes).expect("well-formed signature");
    assert_eq!(ecdsa::verify(&q, msg, &sig), Err(VerifyError::BadSignature));
}

#[test]
fn tampered_ecies_ciphertext_and_mac_are_rejected() {
    let node = Keypair::generate(b"node-3");
    let ct = ecies::encrypt(node.public(), b"set interval=60", b"entropy").expect("valid key");
    // Flip every byte of the sealed body (ciphertext, header and MAC
    // alike): each single corruption must be caught by the tag check.
    for i in 0..ct.sealed.len() {
        let mut bad = ct.clone();
        bad.sealed[i] ^= 0x80;
        assert!(
            matches!(
                ecies::decrypt(&node, &bad),
                Err(EciesError::Wire(WireError::BadTag))
            ),
            "corrupted sealed byte {i} was not caught"
        );
    }
    // Truncating below header+tag is a length error, not a panic.
    let mut short = ct.clone();
    short.sealed.truncate(10);
    assert!(matches!(
        ecies::decrypt(&node, &short),
        Err(EciesError::Wire(WireError::BadLength { need: 20, got: 10 }))
    ));
}

#[test]
fn replayed_frames_are_rejected_after_one_delivery() {
    let a = Keypair::generate(b"node a");
    let b = Keypair::generate(b"node b");
    let secret = a.shared_secret(b.public()).expect("peer ok");
    let mut guard = WindowedReplayGuard::new(8);

    let f1 = SealedFrame::seal(&secret, 1, b"reading 1");
    let f2 = SealedFrame::seal(&secret, 2, b"reading 2");
    // In-order delivery works; a captured copy replayed later does not,
    // even though its MAC is genuine.
    assert!(guard.open(&f1, &secret).is_ok());
    assert!(guard.open(&f2, &secret).is_ok());
    assert_eq!(
        guard.open(&f1, &secret),
        Err(WireError::Replayed { seq: 1, last: 2 })
    );
    assert_eq!(
        guard.open(&f2, &secret),
        Err(WireError::Replayed { seq: 2, last: 2 })
    );
}

#[test]
fn small_subgroup_probes_are_stopped_at_every_layer() {
    use gf2m::Fe;
    use koblitz::Affine;
    use protocols::batch::ecdh_batch;
    let node = Keypair::generate(b"victim node");
    // One probe in every coset of the order-n subgroup but the subgroup
    // itself: the 2-torsion point T = (0, 1), the order-4 points
    // ±(1, 1) = (1, 1), (1, 0), and G shifted by each of them (orders
    // 2n and 4n). All are on the curve and their compressed encodings
    // are well-formed, so only an order check stops them.
    let t = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
    let q4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
    let q4_neg = Affine::new(Fe::ONE, Fe::ZERO).unwrap();
    let g = koblitz::curve::generator();
    let probes = [t, q4, q4_neg, g.add(&t), g.add(&q4), g.add(&q4_neg)];
    for probe in &probes {
        assert!(probe.is_on_curve(), "{probe}");
        let encoded = encode_public_key(probe);
        assert_eq!(
            decode_public_key_slice(&encoded),
            Err(WireError::WrongOrder),
            "wire layer must reject {probe}"
        );
        // Even handed the point directly (bypassing the wire), the ECDH
        // layer re-checks.
        assert_eq!(
            node.shared_secret(probe),
            Err(EcdhError::WrongOrderPublicKey),
            "ECDH layer must reject {probe}"
        );
    }
    // The batch path answers slot by slot exactly as the scalar one,
    // with the probes interleaved among valid peers.
    let mut peers = Vec::new();
    for (i, probe) in probes.iter().enumerate() {
        peers.push(*Keypair::generate(format!("peer {i}").as_bytes()).public());
        peers.push(*probe);
    }
    let batched = ecdh_batch(&node, &peers, 2);
    for (peer, got) in peers.iter().zip(&batched) {
        assert_eq!(*got, node.shared_secret(peer), "slot for {peer}");
    }
    let rejected = batched
        .iter()
        .filter(|r| **r == Err(EcdhError::WrongOrderPublicKey))
        .count();
    assert_eq!(rejected, probes.len());
}

/// One seeded mutation of a valid frame: truncate, extend, flip bits
/// or substitute a byte — the same attacker model the `verify` crate's
/// differential harness uses, kept in sync by construction (both feed
/// the same decoders).
fn mutate(template: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = template.to_vec();
    match rng.below(5) {
        0 => {
            let len = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(len);
        }
        1 => {
            for _ in 0..rng.below(16) + 1 {
                buf.push(rng.next_u32() as u8);
            }
        }
        2 if !buf.is_empty() => {
            for _ in 0..rng.below(4) + 1 {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
        }
        3 if !buf.is_empty() => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] = rng.next_u32() as u8;
        }
        _ => {}
    }
    buf
}

#[test]
fn fuzzed_public_key_frames_never_panic_and_decoders_agree() {
    let key = SigningKey::generate(b"fuzz identity");
    let good = encode_public_key(key.public());
    let mut rng = SplitMix64::new(0xf0bb);
    let mut rejected = 0;
    for _ in 0..2000 {
        let buf = mutate(&good, &mut rng);
        // Slice decoder: must return a typed error, never panic.
        let via_slice = decode_public_key_slice(&buf);
        if via_slice.is_err() {
            rejected += 1;
        }
        match <&[u8; 31]>::try_from(buf.as_slice()) {
            // Same bytes through the owned-array decoder: the typed
            // result must be identical.
            Ok(arr) => assert_eq!(decode_public_key(arr), via_slice, "bytes {buf:02x?}"),
            Err(_) => assert_eq!(
                via_slice,
                Err(WireError::BadLength {
                    need: 31,
                    got: buf.len()
                })
            ),
        }
    }
    assert!(rejected > 500, "mutations barely exercised the error paths");
}

#[test]
fn fuzzed_signature_frames_never_panic_and_decoders_agree() {
    let key = SigningKey::generate(b"fuzz identity");
    let good = encode_signature(&key.sign(b"fuzzed message"));
    let mut rng = SplitMix64::new(0xf519);
    for _ in 0..2000 {
        let buf = mutate(&good, &mut rng);
        let via_slice = decode_signature_slice(&buf);
        match <&[u8; 60]>::try_from(buf.as_slice()) {
            Ok(arr) => assert_eq!(decode_signature(arr), via_slice, "bytes {buf:02x?}"),
            Err(_) => assert_eq!(
                via_slice,
                Err(WireError::BadLength {
                    need: 60,
                    got: buf.len()
                })
            ),
        }
    }
}

#[test]
fn fuzzed_sealed_frames_never_panic_and_reparse_identically() {
    let secret = [0x31u8; 32];
    let good = SealedFrame::seal(&secret, 9, b"sensor frame payload")
        .as_bytes()
        .to_vec();
    let mut rng = SplitMix64::new(0xf3a3);
    let mut accepted = 0;
    for _ in 0..2000 {
        let buf = mutate(&good, &mut rng);
        let Ok(frame) = SealedFrame::from_bytes(&buf) else {
            continue; // typed parse error — fine
        };
        // Re-encoding a parsed frame must be lossless, and opening the
        // re-parsed copy must give the same typed outcome.
        let reparsed = SealedFrame::from_bytes(frame.as_bytes()).expect("roundtrip parses");
        assert_eq!(reparsed.open(&secret), frame.open(&secret));
        if frame.open(&secret).is_ok() {
            accepted += 1;
        }
    }
    // The untouched template is sealed with the right secret, so the
    // accept path must have been exercised too (mutation arm 4 is a
    // no-op).
    assert!(accepted > 0, "accept path never exercised");
}
