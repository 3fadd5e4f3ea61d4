//! Wire formats for the WSN protocol layer: compressed public keys,
//! fixed-size signatures, and the sealed telemetry frame of the hybrid
//! cryptosystem (AES-128-CTR + HMAC-SHA256, encrypt-then-MAC).
//!
//! Radio payload is the scarcest resource after energy on a sensor
//! node; compression cuts a public key from 61 to 31 bytes.

use crate::aes128::Aes128;
use crate::ecdsa::Signature;
use crate::hmac::hmac_sha256;
use koblitz::curve::{Affine, DecompressError};
use koblitz::Scalar;

/// Errors decoding wire data — the shared taxonomy for everything a
/// node can receive over the radio. Every reject names *why*, so the
/// negative-path tests (and a listening operator) can tell an
/// off-curve probe from a truncated frame from a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Point decompression failed (bad tag byte or no such x).
    BadPoint(DecompressError),
    /// The decoded point was the identity — never a valid public key.
    IdentityPoint,
    /// The decoded point is on the curve but outside the prime-order
    /// subgroup (a small-subgroup / invalid-point probe; sect233k1 has
    /// cofactor 4).
    WrongOrder,
    /// A scalar was zero or ≥ n.
    BadScalar,
    /// The frame authentication tag did not verify.
    BadTag,
    /// The buffer was shorter than the format requires.
    BadLength {
        /// Minimum (or exact) byte length the format needs.
        need: usize,
        /// Length actually received.
        got: usize,
    },
    /// The buffer exceeded the maximum accepted frame size.
    Oversize {
        /// Maximum accepted length.
        max: usize,
        /// Length actually received.
        got: usize,
    },
    /// The frame's sequence number was not fresh (a replay).
    Replayed {
        /// Sequence number received.
        seq: u32,
        /// Newest sequence number already accepted.
        last: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadPoint(e) => write!(f, "bad point encoding: {e}"),
            WireError::IdentityPoint => f.write_str("point is the identity"),
            WireError::WrongOrder => f.write_str("point is outside the prime-order subgroup"),
            WireError::BadScalar => f.write_str("scalar out of range"),
            WireError::BadTag => f.write_str("authentication tag mismatch"),
            WireError::BadLength { need, got } => {
                write!(f, "buffer too short: need {need} bytes, got {got}")
            }
            WireError::Oversize { max, got } => {
                write!(f, "buffer too long: at most {max} bytes, got {got}")
            }
            WireError::Replayed { seq, last } => {
                write!(f, "replayed frame: seq {seq} not newer than {last}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecompressError> for WireError {
    fn from(e: DecompressError) -> WireError {
        WireError::BadPoint(e)
    }
}

/// Encodes a public key compressed (31 bytes).
pub fn encode_public_key(p: &Affine) -> [u8; 31] {
    p.to_compressed_bytes()
}

/// Decodes and fully validates a compressed public key: the encoding
/// must parse, the point must be finite, on the curve, and of order n.
///
/// The order check matters even for decompressed points: x = 0 decodes
/// to the 2-torsion point (0, 1), and other cofactor points decompress
/// fine too — without the check they make small-subgroup probes.
///
/// # Errors
///
/// [`WireError::BadPoint`] for malformed encodings,
/// [`WireError::IdentityPoint`] for the identity,
/// [`WireError::WrongOrder`] for cofactor / composite-order points.
pub fn decode_public_key(bytes: &[u8; 31]) -> Result<Affine, WireError> {
    let p = Affine::from_compressed_bytes(bytes)?;
    if p.is_infinity() {
        return Err(WireError::IdentityPoint);
    }
    debug_assert!(p.is_on_curve());
    if !p.is_in_prime_order_subgroup() {
        return Err(WireError::WrongOrder);
    }
    Ok(p)
}

/// [`decode_public_key`] for radio buffers of unchecked length.
///
/// # Errors
///
/// Adds [`WireError::BadLength`] to the fixed-size decoder's errors.
pub fn decode_public_key_slice(bytes: &[u8]) -> Result<Affine, WireError> {
    let fixed: &[u8; 31] = bytes.try_into().map_err(|_| WireError::BadLength {
        need: 31,
        got: bytes.len(),
    })?;
    decode_public_key(fixed)
}

/// Encodes a signature as r ‖ s, 30 bytes each.
pub fn encode_signature(sig: &Signature) -> [u8; 60] {
    let mut out = [0u8; 60];
    out[..30].copy_from_slice(&sig.r.to_be_bytes());
    out[30..].copy_from_slice(&sig.s.to_be_bytes());
    out
}

/// Decodes a signature, rejecting out-of-range components.
///
/// # Errors
///
/// Returns [`WireError::BadScalar`] for zero or non-canonical values.
pub fn decode_signature(bytes: &[u8; 60]) -> Result<Signature, WireError> {
    let component = |half: &[u8]| {
        let half: &[u8; 30] = half.try_into().expect("30-byte half");
        Scalar::from_canonical_be_bytes(half).filter(|v| !v.is_zero())
    };
    match (component(&bytes[..30]), component(&bytes[30..])) {
        (Some(r), Some(s)) => Ok(Signature { r, s }),
        _ => Err(WireError::BadScalar),
    }
}

/// [`decode_signature`] for radio buffers of unchecked length. A
/// truncated or padded signature is a length error, not a panic.
///
/// # Errors
///
/// Adds [`WireError::BadLength`] to the fixed-size decoder's errors.
pub fn decode_signature_slice(bytes: &[u8]) -> Result<Signature, WireError> {
    let fixed: &[u8; 60] = bytes.try_into().map_err(|_| WireError::BadLength {
        need: 60,
        got: bytes.len(),
    })?;
    decode_signature(fixed)
}

/// A sealed telemetry frame: 4-byte sequence number ‖ ciphertext ‖
/// 16-byte truncated HMAC tag. Key material comes from the ECDH shared
/// secret (first 16 bytes AES, last 16 bytes MAC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedFrame {
    bytes: Vec<u8>,
}

impl SealedFrame {
    /// Largest payload a frame may carry — a sensor-radio MTU bound
    /// that keeps a malicious length from forcing unbounded buffering.
    pub const MAX_PAYLOAD: usize = 1024;

    /// Largest wire frame: header + payload + tag.
    pub const MAX_FRAME: usize = 4 + Self::MAX_PAYLOAD + 16;

    /// Encrypts and authenticates `payload` under the 32-byte session
    /// secret with the given sequence number (also the CTR nonce seed).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`SealedFrame::MAX_PAYLOAD`] (a
    /// sender-side programming error: the peer would reject the frame).
    pub fn seal(secret: &[u8; 32], seq: u32, payload: &[u8]) -> SealedFrame {
        assert!(
            payload.len() <= Self::MAX_PAYLOAD,
            "payload exceeds the frame MTU"
        );
        let aes = Aes128::new(&secret[..16].try_into().expect("16 bytes"));
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&seq.to_be_bytes());
        let mut body = payload.to_vec();
        aes.ctr_apply(&nonce, &mut body);
        let mut bytes = seq.to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let tag = hmac_sha256(&secret[16..], &bytes);
        bytes.extend_from_slice(&tag[..16]);
        SealedFrame { bytes }
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses wire bytes (no authentication yet — that happens in
    /// [`SealedFrame::open`]).
    ///
    /// # Errors
    ///
    /// Rejects frames shorter than header + tag
    /// ([`WireError::BadLength`]) and frames over
    /// [`SealedFrame::MAX_FRAME`] ([`WireError::Oversize`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<SealedFrame, WireError> {
        if bytes.len() < 4 + 16 {
            return Err(WireError::BadLength {
                need: 4 + 16,
                got: bytes.len(),
            });
        }
        if bytes.len() > Self::MAX_FRAME {
            return Err(WireError::Oversize {
                max: Self::MAX_FRAME,
                got: bytes.len(),
            });
        }
        Ok(SealedFrame {
            bytes: bytes.to_vec(),
        })
    }

    /// Verifies and decrypts, returning the sequence number and
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTag`] on any authentication failure.
    pub fn open(&self, secret: &[u8; 32]) -> Result<(u32, Vec<u8>), WireError> {
        let split = self.bytes.len() - 16;
        let (body, tag) = self.bytes.split_at(split);
        let want = hmac_sha256(&secret[16..], body);
        // Constant-time-ish comparison (full-width accumulate).
        let mut diff = 0u8;
        for (a, b) in tag.iter().zip(&want[..16]) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(WireError::BadTag);
        }
        let seq = u32::from_be_bytes(body[..4].try_into().expect("4 bytes"));
        let aes = Aes128::new(&secret[..16].try_into().expect("16 bytes"));
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&seq.to_be_bytes());
        let mut payload = body[4..].to_vec();
        aes.ctr_apply(&nonce, &mut payload);
        Ok((seq, payload))
    }
}

/// A windowed replay rejection: the raw-sequence counterpart of
/// [`WireError::Replayed`] for [`WindowedReplayGuard`], which tracks
/// 64-bit sequence numbers and a window floor rather than a single
/// high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayRejected {
    /// The sequence number that was refused.
    pub seq: u64,
    /// The oldest sequence number the window still accepts; everything
    /// below it is treated as replayed.
    pub floor: u64,
}

impl std::fmt::Display for ReplayRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed sequence {} (window floor {})",
            self.seq, self.floor
        )
    }
}

impl std::error::Error for ReplayRejected {}

/// Bounded anti-replay state accepting *out-of-order* sequence numbers
/// within a sliding window.
///
/// The sequence number doubles as the CTR nonce in
/// [`SealedFrame::seal`], so accepting a stale frame would both
/// re-deliver old data and sanction keystream reuse. A strictly
/// monotonic guard would drop every reordered frame; this one remembers
/// up to `capacity` accepted sequence numbers so late frames still
/// land, while staying immune to the attack a naive seen-set invites —
/// an adversarial flood of unique sequence numbers growing receiver
/// memory without bound. When the set is full, the *lowest* sequence
/// number is evicted deterministically and the window floor rises past
/// it, so memory is bounded by construction and replay detection still
/// holds for everything at or above the floor (older frames are
/// conservatively refused).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedReplayGuard {
    /// Accepted sequence numbers at or above `floor`, sorted ascending.
    seen: Vec<u64>,
    capacity: usize,
    floor: u64,
    evictions: u64,
}

impl WindowedReplayGuard {
    /// A guard remembering at most `capacity` sequence numbers
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> WindowedReplayGuard {
        WindowedReplayGuard {
            seen: Vec::new(),
            capacity: capacity.max(1),
            floor: 0,
            evictions: 0,
        }
    }

    /// Checks freshness without committing — the admission-control
    /// pattern: a request rejected *later* in the pipeline (quota,
    /// backpressure) must not burn its sequence number, or the retry
    /// the rejection invites would read as a replay.
    ///
    /// # Errors
    ///
    /// [`ReplayRejected`] for sequence numbers below the window floor
    /// or already accepted.
    pub fn check(&self, seq: u64) -> Result<(), ReplayRejected> {
        if seq < self.floor || self.seen.binary_search(&seq).is_ok() {
            return Err(ReplayRejected {
                seq,
                floor: self.floor,
            });
        }
        Ok(())
    }

    /// Commits a sequence number, evicting the lowest one (and raising
    /// the floor past it) if the window is full.
    ///
    /// # Errors
    ///
    /// The same rejections as [`WindowedReplayGuard::check`].
    pub fn accept(&mut self, seq: u64) -> Result<(), ReplayRejected> {
        if seq < self.floor {
            return Err(ReplayRejected {
                seq,
                floor: self.floor,
            });
        }
        let at = match self.seen.binary_search(&seq) {
            Ok(_) => {
                return Err(ReplayRejected {
                    seq,
                    floor: self.floor,
                })
            }
            Err(at) => at,
        };
        self.seen.insert(at, seq);
        if self.seen.len() > self.capacity {
            let evicted = self.seen.remove(0);
            self.floor = evicted + 1;
            self.evictions += 1;
        }
        Ok(())
    }

    /// Verifies, decrypts and freshness-checks a sealed frame. The
    /// window advances only *after* the tag verifies, so an attacker
    /// cannot move it with forged frames.
    ///
    /// # Errors
    ///
    /// [`SealedFrame::open`]'s errors, plus [`WireError::Replayed`]
    /// (carrying the newest accepted sequence number) when the
    /// sequence number is stale or already seen. A frame that fails
    /// authentication never advances the window.
    pub fn open(
        &mut self,
        frame: &SealedFrame,
        secret: &[u8; 32],
    ) -> Result<(u32, Vec<u8>), WireError> {
        let (seq, payload) = frame.open(secret)?;
        self.accept(seq as u64).map_err(|_| WireError::Replayed {
            seq,
            last: self.newest() as u32,
        })?;
        Ok((seq, payload))
    }

    /// The newest sequence number accepted (0 before any accept).
    pub fn newest(&self) -> u64 {
        self.seen
            .last()
            .copied()
            .unwrap_or_else(|| self.floor.saturating_sub(1))
    }

    /// The oldest sequence number the window still accepts.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Sequence numbers currently remembered (≤ capacity, always).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no sequence number has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// How many sequence numbers were evicted to keep memory bounded.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdh::Keypair;
    use crate::ecdsa::SigningKey;

    #[test]
    fn public_key_roundtrip() {
        let kp = Keypair::generate(b"wire test");
        let enc = encode_public_key(kp.public());
        assert_eq!(decode_public_key(&enc), Ok(*kp.public()));
    }

    #[test]
    fn public_key_rejects_infinity_and_garbage() {
        // The all-zero tag encodes the identity.
        assert_eq!(decode_public_key(&[0u8; 31]), Err(WireError::IdentityPoint));
        let mut garbage = [0xFFu8; 31];
        garbage[0] = 0x07;
        assert_eq!(
            decode_public_key(&garbage),
            Err(WireError::BadPoint(DecompressError::InvalidTag))
        );
    }

    #[test]
    fn public_key_rejects_small_subgroup_points() {
        use gf2m::Fe;
        use koblitz::Affine;
        // x = 0 decompresses to the 2-torsion point (0, 1): a
        // well-formed encoding that must still be rejected.
        let two_torsion = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
        let enc = encode_public_key(&two_torsion);
        assert_eq!(
            Affine::from_compressed_bytes(&enc),
            Ok(two_torsion),
            "decompression itself accepts the cofactor point"
        );
        assert_eq!(decode_public_key(&enc), Err(WireError::WrongOrder));
        // The order-4 point (1, 1) likewise.
        let order4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
        assert_eq!(
            decode_public_key(&encode_public_key(&order4)),
            Err(WireError::WrongOrder)
        );
    }

    #[test]
    fn slice_decoders_reject_bad_lengths_without_panicking() {
        let kp = Keypair::generate(b"slice test");
        let enc = encode_public_key(kp.public());
        assert_eq!(decode_public_key_slice(&enc), Ok(*kp.public()));
        assert_eq!(
            decode_public_key_slice(&enc[..30]),
            Err(WireError::BadLength { need: 31, got: 30 })
        );
        let key = SigningKey::generate(b"slice signer");
        let sig = encode_signature(&key.sign(b"frame"));
        assert!(decode_signature_slice(&sig).is_ok());
        assert_eq!(
            decode_signature_slice(&sig[..59]),
            Err(WireError::BadLength { need: 60, got: 59 })
        );
        let mut long = sig.to_vec();
        long.push(0);
        assert_eq!(
            decode_signature_slice(&long),
            Err(WireError::BadLength { need: 60, got: 61 })
        );
    }

    #[test]
    fn signature_roundtrip() {
        let key = SigningKey::generate(b"wire signer");
        let sig = key.sign(b"frame");
        let enc = encode_signature(&sig);
        assert_eq!(decode_signature(&enc), Ok(sig));
    }

    #[test]
    fn signature_rejects_out_of_range() {
        let zeros = [0u8; 60];
        assert_eq!(decode_signature(&zeros), Err(WireError::BadScalar));
        let mut big = [0xFFu8; 60];
        big[0] = 0xFF;
        assert_eq!(decode_signature(&big), Err(WireError::BadScalar));
    }

    /// `hex` (no prefix) as a 30-byte big-endian value, left-padded.
    fn be30(hex: &str) -> [u8; 30] {
        let padded = format!("{hex:0>60}");
        let mut out = [0u8; 30];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("hex digit");
        }
        out
    }

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn encode_signature_known_answers() {
        // The r ‖ s encodings of `ecdsa`'s three known-answer
        // signatures (empty, short and 200-byte messages).
        const WANT: [&str; 3] = [
            "004fd9ecb094156298ad329f8c6241a7587d6b5cc3cf5ccc3aa556165134\
             003367ba3333bde00eaa81591429bf32e3e86e41b24d617ddec742c1e8fe",
            "003d67c1155a15f71e0a071ecfbeba106ba96b9b1e3bbfd8bd8cef99848e\
             00177d42c1575cb3f0d319a4406cee03014e77e2d9d94dbbbb4fee591c77",
            "00018628ff99fef413f1d3a4d23b061c86287facd773886a00b3a5009894\
             006427430d5970c2e636dc2e4637db382990cb56b9910eca3caeee77faef",
        ];
        let key = SigningKey::generate(b"node-7 identity");
        let msgs: [&[u8]; 3] = [b"", b"telemetry frame 0421", &[0x5a; 200]];
        for (msg, want) in msgs.iter().zip(WANT) {
            let enc = encode_signature(&key.sign(msg));
            assert_eq!(to_hex(&enc), want, "message of {} bytes", msg.len());
            assert_eq!(decode_signature(&enc), Ok(key.sign(msg)));
        }
    }

    #[test]
    fn decode_signature_range_verdicts() {
        // r or s at 0, 1, n − 1, n, 2²³² and 2²⁴⁰ − 1, the other
        // component 1: only 1 and n − 1 are in [1, n).
        let n_minus_1 = "8000000000000000000000000000069d5bb915bcd46efb1ad5f173abde";
        let cases = [
            ("0", None),
            ("1", Some("0x1")),
            (
                n_minus_1,
                Some("0x8000000000000000000000000000069d5bb915bcd46efb1ad5f173abde"),
            ),
            (
                "8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf",
                None,
            ),
            (
                "10000000000000000000000000000000000000000000000000000000000",
                None,
            ),
            (&"ff".repeat(30), None),
        ];
        let one = be30("1");
        for (value, want) in cases {
            let v = be30(value);
            for (r, s, name) in [(v, one, "r"), (one, v, "s")] {
                let mut bytes = [0u8; 60];
                bytes[..30].copy_from_slice(&r);
                bytes[30..].copy_from_slice(&s);
                let got = decode_signature(&bytes);
                match want {
                    None => assert_eq!(got, Err(WireError::BadScalar), "{name} = {value}"),
                    Some(shown) => {
                        let sig = got.unwrap_or_else(|e| panic!("{name} = {value}: {e}"));
                        let component = if name == "r" { &sig.r } else { &sig.s };
                        assert_eq!(component.to_string(), shown, "{name} = {value}");
                        assert_eq!(encode_signature(&sig), bytes, "{name} = {value}");
                    }
                }
            }
        }
    }

    #[test]
    fn sealed_frame_roundtrip() {
        let secret = [42u8; 32];
        let frame = SealedFrame::seal(&secret, 7, b"temp=23.4C");
        let parsed = SealedFrame::from_bytes(frame.as_bytes()).expect("length ok");
        let (seq, payload) = parsed.open(&secret).expect("tag ok");
        assert_eq!(seq, 7);
        assert_eq!(payload, b"temp=23.4C");
    }

    #[test]
    fn sealed_frame_detects_tampering() {
        let secret = [42u8; 32];
        let frame = SealedFrame::seal(&secret, 7, b"door=closed");
        let mut bytes = frame.as_bytes().to_vec();
        bytes[6] ^= 0x01; // flip a ciphertext bit
        let tampered = SealedFrame::from_bytes(&bytes).expect("length ok");
        assert_eq!(tampered.open(&secret), Err(WireError::BadTag));
        // Wrong key fails too.
        let wrong = [43u8; 32];
        assert_eq!(frame.open(&wrong), Err(WireError::BadTag));
    }

    #[test]
    fn sealed_frame_rejects_short_buffers() {
        assert_eq!(
            SealedFrame::from_bytes(&[0u8; 10]),
            Err(WireError::BadLength { need: 20, got: 10 })
        );
    }

    #[test]
    fn sealed_frame_rejects_oversize_buffers() {
        let big = vec![0u8; SealedFrame::MAX_FRAME + 1];
        assert_eq!(
            SealedFrame::from_bytes(&big),
            Err(WireError::Oversize {
                max: SealedFrame::MAX_FRAME,
                got: SealedFrame::MAX_FRAME + 1
            })
        );
        // The largest legal frame still parses.
        assert!(SealedFrame::from_bytes(&vec![0u8; SealedFrame::MAX_FRAME]).is_ok());
    }

    #[test]
    fn replay_guard_rejects_stale_and_repeated_sequences() {
        let secret = [9u8; 32];
        let f1 = SealedFrame::seal(&secret, 1, b"one");
        let f2 = SealedFrame::seal(&secret, 2, b"two");
        let mut guard = WindowedReplayGuard::new(8);
        assert_eq!(guard.open(&f1, &secret).unwrap().1, b"one");
        assert_eq!(guard.open(&f2, &secret).unwrap().1, b"two");
        // Replaying either frame is rejected even though the tags are
        // perfectly valid.
        assert_eq!(
            guard.open(&f2, &secret),
            Err(WireError::Replayed { seq: 2, last: 2 })
        );
        assert_eq!(
            guard.open(&f1, &secret),
            Err(WireError::Replayed { seq: 1, last: 2 })
        );
        assert_eq!(guard.newest(), 2);
        // A forged frame must not advance the window.
        let mut forged = f1.as_bytes().to_vec();
        let len = forged.len();
        forged[len - 1] ^= 1;
        let forged = SealedFrame::from_bytes(&forged).unwrap();
        assert_eq!(guard.open(&forged, &secret), Err(WireError::BadTag));
        assert_eq!(guard.newest(), 2);
    }

    #[test]
    fn windowed_guard_accepts_out_of_order_within_window() {
        let mut g = WindowedReplayGuard::new(8);
        for seq in [5u64, 3, 9, 4, 7] {
            assert_eq!(g.accept(seq), Ok(()), "seq {seq}");
        }
        // Every accepted sequence is now a replay; gaps are still fine.
        for seq in [5u64, 3, 9] {
            assert_eq!(g.accept(seq), Err(ReplayRejected { seq, floor: 0 }));
        }
        assert_eq!(g.accept(6), Ok(()));
        assert_eq!(g.newest(), 9);
        assert_eq!(g.floor(), 0, "no eviction yet");
        assert_eq!(g.evictions(), 0);
    }

    #[test]
    fn windowed_guard_flood_of_unique_seqs_stays_bounded() {
        let mut g = WindowedReplayGuard::new(16);
        // An adversary pumping unique nonces must not grow memory.
        for seq in 0..10_000u64 {
            assert_eq!(g.accept(seq), Ok(()));
            assert!(g.len() <= 16, "window exceeded its capacity at {seq}");
        }
        assert_eq!(g.len(), 16);
        assert_eq!(g.evictions(), 10_000 - 16);
        assert_eq!(g.floor(), 10_000 - 16);
        // Detection still holds within the surviving window…
        for seq in (10_000 - 16)..10_000u64 {
            assert!(g.accept(seq).is_err(), "seq {seq} must read as replayed");
        }
        // …and everything below the floor is conservatively refused.
        assert_eq!(
            g.accept(17),
            Err(ReplayRejected {
                seq: 17,
                floor: 10_000 - 16
            })
        );
    }

    #[test]
    fn windowed_guard_evicts_lowest_first_deterministically() {
        let mut g = WindowedReplayGuard::new(3);
        for seq in [10u64, 30, 20] {
            g.accept(seq).unwrap();
        }
        // Inserting 40 evicts the minimum (10): the floor rises past it.
        g.accept(40).unwrap();
        assert_eq!((g.floor(), g.evictions()), (11, 1));
        // 10 is gone (below floor) but 20 and 30 are still remembered.
        assert!(g.accept(10).is_err());
        assert!(g.accept(20).is_err());
        assert!(g.accept(30).is_err());
        // Next eviction is again the minimum survivor (20).
        g.accept(50).unwrap();
        assert_eq!((g.floor(), g.evictions()), (21, 2));
        // check() is read-only: a fresh sequence stays fresh.
        assert_eq!(g.check(60), Ok(()));
        assert_eq!(g.check(60), Ok(()));
        assert_eq!(g.accept(60), Ok(()));
        assert!(g.check(60).is_err());
    }

    #[test]
    fn windowed_guard_opens_reordered_sealed_frames() {
        let secret = [11u8; 32];
        let frames: Vec<SealedFrame> = (1..=4u32)
            .map(|seq| SealedFrame::seal(&secret, seq, format!("f{seq}").as_bytes()))
            .collect();
        let mut g = WindowedReplayGuard::new(8);
        // Delivery order 2, 1, 4, 3: the strict guard would drop 1 and
        // 3; the windowed guard accepts all four exactly once.
        for i in [1usize, 0, 3, 2] {
            assert!(g.open(&frames[i], &secret).is_ok(), "frame {}", i + 1);
        }
        assert_eq!(
            g.open(&frames[0], &secret),
            Err(WireError::Replayed { seq: 1, last: 4 })
        );
        // A forged frame still cannot advance the window.
        let mut forged = frames[0].as_bytes().to_vec();
        let len = forged.len();
        forged[len - 1] ^= 1;
        let forged = SealedFrame::from_bytes(&forged).unwrap();
        assert_eq!(g.open(&forged, &secret), Err(WireError::BadTag));
        assert_eq!(g.newest(), 4);
    }

    #[test]
    fn end_to_end_wire_exchange() {
        // Node A sends its compressed key; node B likewise; both seal
        // frames under the derived secret; signatures authenticate the
        // key exchange.
        let a = Keypair::generate(b"node a");
        let b = Keypair::generate(b"node b");
        let a_pub = decode_public_key(&encode_public_key(a.public())).expect("a key");
        let b_pub = decode_public_key(&encode_public_key(b.public())).expect("b key");
        let sa = a.shared_secret(&b_pub).expect("peer ok");
        let sb = b.shared_secret(&a_pub).expect("peer ok");
        assert_eq!(sa, sb);
        let frame = SealedFrame::seal(&sa, 1, b"hello from A");
        assert_eq!(frame.open(&sb).expect("tag ok").1, b"hello from A");
    }
}
