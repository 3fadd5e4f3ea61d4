//! Signed telemetry: the frame a sensor node sends its gateway.
//!
//! Sensor nodes sign telemetry frames (one cheap kG each); the
//! [`ServiceGateway`](crate::ServiceGateway) verifies them through the
//! gas-metered service plane.

use protocols::{Signature, SigningKey};

/// An authenticated (but unencrypted) telemetry frame: node identity,
/// monotonic sequence number, payload, and an ECDSA signature binding
/// all three.
#[derive(Debug, Clone)]
pub struct SignedTelemetry {
    /// The claimed sender.
    pub node_id: u32,
    /// Per-node signature sequence number.
    pub seq: u32,
    /// The telemetry payload.
    pub payload: Vec<u8>,
    /// Signature over the domain-tagged (id, seq, payload) message.
    pub signature: Signature,
}

/// The exact byte string a node signs: a domain tag, then the identity
/// and sequence number (so frames cannot be re-attributed or replayed
/// under another id), then the payload. Public so the gateway verifies
/// the same message the node signed.
pub fn telemetry_message(node_id: u32, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(21 + payload.len());
    msg.extend_from_slice(b"wsn-telemetry");
    msg.extend_from_slice(&node_id.to_be_bytes());
    msg.extend_from_slice(&seq.to_be_bytes());
    msg.extend_from_slice(payload);
    msg
}

impl SignedTelemetry {
    /// Signs a telemetry frame.
    pub fn sign(key: &SigningKey, node_id: u32, seq: u32, payload: &[u8]) -> SignedTelemetry {
        let msg = telemetry_message(node_id, seq, payload);
        SignedTelemetry {
            node_id,
            seq,
            payload: payload.to_vec(),
            signature: key.sign(&msg),
        }
    }
}
