//! A sensor node: battery, identity, session state.

use crate::energy::{CryptoCosts, RadioModel};
use crate::gateway::SignedTelemetry;
use protocols::wire::SealedFrame;
use protocols::{Keypair, SigningKey};

/// Static configuration of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Battery budget in joules (default: a CR2032 coin cell ≈ 2340 J).
    pub battery_joules: f64,
    /// Rounds between ECDH re-keys (forward secrecy cadence).
    pub rekey_interval: u32,
    /// Telemetry payload bytes per round.
    pub payload_bytes: usize,
    /// Radio/symmetric constants.
    pub radio: RadioModel,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            battery_joules: 2340.0,
            rekey_interval: 96, // e.g. re-key every 24 h at 15-min rounds
            payload_bytes: 24,
            radio: RadioModel::default(),
        }
    }
}

/// A simulated node: spends real energy numbers, produces real sealed
/// frames (the cryptography is not pretend — the frames decrypt).
#[derive(Debug)]
pub struct SensorNode {
    id: u32,
    config: NodeConfig,
    costs: CryptoCosts,
    battery_uj: f64,
    keypair: Keypair,
    signer: SigningKey,
    session: Option<[u8; 32]>,
    seq: u32,
    sig_seq: u32,
    rekeys: u64,
    frames: u64,
}

impl SensorNode {
    /// Creates a node with a deterministic identity derived from `id`.
    pub fn new(id: u32, config: NodeConfig, costs: CryptoCosts) -> SensorNode {
        let seed = format!("wsn-node-{id}");
        let sig_seed = format!("wsn-node-{id}-sig");
        SensorNode {
            id,
            config,
            costs,
            battery_uj: config.battery_joules * 1e6,
            keypair: Keypair::generate(seed.as_bytes()),
            signer: SigningKey::generate(sig_seed.as_bytes()),
            session: None,
            seq: 0,
            sig_seq: 0,
            rekeys: 0,
            frames: 0,
        }
    }

    /// Remaining battery in joules.
    pub fn battery_joules(&self) -> f64 {
        self.battery_uj * 1e-6
    }

    /// Whether the battery is exhausted.
    pub fn is_dead(&self) -> bool {
        self.battery_uj <= 0.0
    }

    /// Total re-keys and frames performed.
    pub fn stats(&self) -> (u64, u64) {
        (self.rekeys, self.frames)
    }

    /// The node's public key (shared with the base station out of band
    /// at deployment).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    fn spend(&mut self, uj: f64) -> bool {
        self.battery_uj -= uj;
        !self.is_dead()
    }

    /// Performs an ECDH re-key against `peer_public`, spending kG + kP
    /// plus the radio exchange. Returns false once the battery dies.
    pub fn rekey(&mut self, peer: &Keypair) -> bool {
        let cost = self.costs.rekey_uj() + self.config.radio.rekey_radio_uj();
        if !self.spend(cost) {
            return false;
        }
        let secret = self
            .keypair
            .shared_secret(peer.public())
            .expect("simulation peers are honest");
        self.session = Some(secret);
        self.seq = 0;
        self.rekeys += 1;
        true
    }

    /// Seals and "transmits" one telemetry frame; returns it so the
    /// base station side can verify it really decrypts. Returns `None`
    /// once the battery dies or before the first re-key.
    pub fn send_frame(&mut self, payload: &[u8]) -> Option<SealedFrame> {
        let secret = self.session?;
        if !self.spend(self.config.radio.frame_uj(payload.len())) {
            return None;
        }
        let frame = SealedFrame::seal(&secret, self.seq, payload);
        self.seq += 1;
        self.frames += 1;
        Some(frame)
    }

    /// The current session secret (base-station side of the test rig).
    pub fn session(&self) -> Option<[u8; 32]> {
        self.session
    }

    /// The node's signing identity (the gateway registers its public
    /// half at deployment).
    pub fn signer(&self) -> &SigningKey {
        &self.signer
    }

    /// Signs and "transmits" one authenticated telemetry frame for the
    /// gateway, spending one kG (the signature's fixed-point
    /// multiplication) plus the radio cost of payload + 60-byte
    /// signature. Returns `None` once the battery dies.
    pub fn sign_telemetry(&mut self, payload: &[u8]) -> Option<SignedTelemetry> {
        let radio = self.config.radio.frame_uj(payload.len() + 60);
        if !self.spend(self.costs.kg_uj + radio) {
            return None;
        }
        let seq = self.sig_seq;
        self.sig_seq += 1;
        self.frames += 1;
        Some(SignedTelemetry::sign(&self.signer, self.id, seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc233::Profile;

    fn costs() -> CryptoCosts {
        CryptoCosts {
            profile: Profile::ThisWorkAsm,
            kg_uj: 21.0,
            kp_uj: 31.0,
        }
    }

    #[test]
    fn node_spends_battery_on_rekey_and_frames() {
        let config = NodeConfig {
            battery_joules: 0.01,
            ..NodeConfig::default()
        };
        let mut node = SensorNode::new(1, config, costs());
        let station = Keypair::generate(b"base station");
        let before = node.battery_joules();
        assert!(node.rekey(&station));
        assert!(node.battery_joules() < before);
        let frame = node.send_frame(b"t=22.1C").expect("alive");
        // The frame genuinely decrypts with the shared secret.
        let secret = node.session().expect("keyed");
        let (seq, payload) = frame.open(&secret).expect("authentic");
        assert_eq!(seq, 0);
        assert_eq!(payload, b"t=22.1C");
    }

    #[test]
    fn frames_require_a_session() {
        let mut node = SensorNode::new(2, NodeConfig::default(), costs());
        assert!(node.send_frame(b"x").is_none(), "no session yet");
    }

    #[test]
    fn battery_exhaustion_stops_the_node() {
        let config = NodeConfig {
            battery_joules: 100e-6, // 100 µJ: one re-key kills it
            ..NodeConfig::default()
        };
        let mut node = SensorNode::new(3, config, costs());
        let station = Keypair::generate(b"base station");
        assert!(!node.rekey(&station), "battery too small");
        assert!(node.is_dead());
    }
}
