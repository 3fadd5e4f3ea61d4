//! A gateway front end that routes signed telemetry through the
//! gas-metered service plane.
//!
//! A gateway on a hostile network needs the admission discipline the
//! paper's energy argument implies: every verification costs a kG + kP
//! on the device model, so unbounded inbound traffic is an
//! energy-exhaustion attack. This front end prices each telemetry frame
//! through [`service::ServicePlane`]: per-node cycle quotas, bounded
//! queueing with typed backpressure, deadline expiry, replay windows,
//! and graceful shedding under overload — while producing the *same
//! verdicts* as a per-frame ECDSA verification for the traffic it
//! admits.

use crate::gateway::{telemetry_message, SignedTelemetry};
use service::frame::{encode_request, OpRequest, Priority, Request, Response, Status};
use service::plane::{ConfigError, Counters, PlaneConfig, ServicePlane};
use std::collections::HashMap;

/// A verified-telemetry outcome from one plane tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryVerdict {
    /// The sending node.
    pub node_id: u32,
    /// The frame's sequence number.
    pub seq: u32,
    /// Whether the signature verified.
    pub accepted: bool,
}

/// The service-plane gateway: registered node keys in front of a
/// [`ServicePlane`] running the verify workload.
#[derive(Debug)]
pub struct ServiceGateway {
    keys: HashMap<u32, koblitz::Affine>,
    plane: ServicePlane,
}

impl ServiceGateway {
    /// Builds the gateway over a validated plane configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the plane policy could never make progress.
    pub fn new(config: PlaneConfig) -> Result<ServiceGateway, ConfigError> {
        Ok(ServiceGateway {
            keys: HashMap::new(),
            plane: ServicePlane::new(config)?,
        })
    }

    /// Registers a node's public signing key (deployment-time pairing).
    pub fn register(&mut self, node_id: u32, public: koblitz::Affine) {
        self.keys.insert(node_id, public);
    }

    /// Prices and submits one telemetry frame as a service-plane verify
    /// request (client = node id, sequence = frame sequence). `None`
    /// means admitted — the verdict arrives from a later
    /// [`ServiceGateway::tick`]; `Some` is an immediate typed rejection
    /// (unknown sender, replay, quota, backpressure, shedding, …).
    pub fn submit_telemetry(
        &mut self,
        frame: &SignedTelemetry,
        priority: Priority,
    ) -> Option<Response> {
        let Some(public) = self.keys.get(&frame.node_id) else {
            // Unregistered senders spend no quota and no queue slot;
            // the rejection reuses the wire taxonomy's bad-operand
            // code so it round-trips like every other outcome.
            return Some(Response {
                client: frame.node_id,
                seq: frame.seq as u64,
                status: Status::Rejected(service::frame::FrameError::Wire(
                    protocols::wire::WireError::WrongOrder,
                )),
            });
        };
        let request = Request {
            client: frame.node_id,
            seq: frame.seq as u64,
            priority,
            deadline: 0,
            op: OpRequest::Verify {
                public: *public,
                sig: frame.signature.clone(),
                msg: telemetry_message(frame.node_id, frame.seq, &frame.payload),
            },
        };
        // Round-trip through the wire bytes: the plane sees exactly
        // what a radio would deliver.
        self.plane.submit(&encode_request(&request))
    }

    /// Advances the plane one tick. Returns the telemetry verdicts of
    /// completed verifications plus every other typed response (expiry,
    /// …) produced this tick.
    pub fn tick(&mut self) -> (Vec<TelemetryVerdict>, Vec<Response>) {
        let mut verdicts = Vec::new();
        let mut other = Vec::new();
        for resp in self.plane.tick() {
            match &resp.status {
                Status::Done(body) if body.len() == 1 => verdicts.push(TelemetryVerdict {
                    node_id: resp.client,
                    seq: resp.seq as u32,
                    accepted: body[0] == 1,
                }),
                _ => other.push(resp),
            }
        }
        (verdicts, other)
    }

    /// The plane's cumulative counters.
    pub fn counters(&self) -> Counters {
        self.plane.counters()
    }

    /// Frames admitted but not yet verified.
    pub fn pending(&self) -> usize {
        self.plane.pending()
    }

    /// The current degradation-ladder level.
    pub fn level(&self) -> u8 {
        self.plane.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::SigningKey;

    fn plane_config() -> PlaneConfig {
        let mut cfg = PlaneConfig::for_target(m0plus::target::default_target());
        cfg.workers = 1;
        cfg
    }

    fn node_key(id: u32) -> SigningKey {
        SigningKey::generate(format!("svc-gw node {id}").as_bytes())
    }

    #[test]
    fn verdicts_match_per_frame_verification() {
        let keys: Vec<SigningKey> = (0..3).map(node_key).collect();
        let mut svc = ServiceGateway::new(plane_config()).expect("valid config");
        for (id, key) in keys.iter().enumerate() {
            svc.register(id as u32, *key.public());
        }
        // Honest frames, one tampered payload, one re-signed id.
        let mut frames = Vec::new();
        for (id, key) in keys.iter().enumerate() {
            frames.push(SignedTelemetry::sign(key, id as u32, 1, b"t=20.1C"));
        }
        frames[1].payload = b"t=99.9C".to_vec(); // tampered
        let mut wrong_id = SignedTelemetry::sign(&keys[2], 2, 2, b"t=20.2C");
        wrong_id.node_id = 0; // claimed by another registered node
        frames.push(wrong_id);

        for f in &frames {
            assert_eq!(
                svc.submit_telemetry(f, Priority::Normal),
                None,
                "sustainable load admits"
            );
        }
        // The oracle: each frame verified on its own under the key
        // registered for the id it claims.
        let oracle_verdicts: Vec<bool> = frames
            .iter()
            .map(|f| {
                let public = keys[f.node_id as usize].public();
                let msg = telemetry_message(f.node_id, f.seq, &f.payload);
                protocols::ecdsa::verify(public, &msg, &f.signature).is_ok()
            })
            .collect();
        let mut svc_verdicts = Vec::new();
        while svc.pending() > 0 {
            let (vs, _) = svc.tick();
            svc_verdicts.extend(vs.into_iter().map(|v| v.accepted));
        }
        assert_eq!(
            svc_verdicts, oracle_verdicts,
            "the gateway must agree with the oracle frame by frame"
        );
        assert_eq!(svc_verdicts, [true, false, true, false]);
    }

    #[test]
    fn replayed_telemetry_is_refused_before_any_verification() {
        let key = node_key(5);
        let mut svc = ServiceGateway::new(plane_config()).expect("valid config");
        svc.register(5, *key.public());
        let frame = SignedTelemetry::sign(&key, 5, 9, b"reading");
        assert_eq!(svc.submit_telemetry(&frame, Priority::Normal), None);
        while svc.pending() > 0 {
            svc.tick();
        }
        // The captured frame replayed: rejected without burning a
        // verification (completed stays at 1).
        let resp = svc
            .submit_telemetry(&frame, Priority::Normal)
            .expect("replay is refused");
        assert!(matches!(
            resp.status,
            Status::Rejected(service::frame::FrameError::Replayed { seq: 9, .. })
        ));
        assert_eq!(svc.counters().completed, 1);
        assert_eq!(svc.counters().replays, 1);
    }

    #[test]
    fn unknown_senders_spend_nothing() {
        let mut svc = ServiceGateway::new(plane_config()).expect("valid config");
        let key = node_key(1);
        let frame = SignedTelemetry::sign(&key, 1, 1, b"hello");
        let resp = svc
            .submit_telemetry(&frame, Priority::Normal)
            .expect("unregistered is rejected");
        assert!(matches!(resp.status, Status::Rejected(_)));
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.counters().admitted, 0);
    }

    #[test]
    fn telemetry_flood_is_shed_not_crashed() {
        let key = node_key(3);
        let mut cfg = plane_config();
        cfg.quota_capacity_cycles = u64::MAX / 4; // isolate the ladder
        cfg.quota_refill_cycles_per_tick = u64::MAX / 4;
        cfg.queue_capacity = 256;
        let mut svc = ServiceGateway::new(cfg).expect("valid config");
        svc.register(3, *key.public());
        let mut shed_or_busy = 0u64;
        for seq in 0..200u32 {
            let frame = SignedTelemetry::sign(&key, 3, seq, b"flood");
            if let Some(resp) = svc.submit_telemetry(&frame, Priority::Low) {
                match resp.status {
                    Status::Shed { .. } | Status::Busy { .. } | Status::Overloaded { .. } => {
                        shed_or_busy += 1;
                    }
                    other => panic!("unexpected outcome under flood: {other:?}"),
                }
            }
            if seq % 16 == 15 {
                svc.tick();
            }
        }
        assert!(shed_or_busy > 0, "the flood must hit typed backpressure");
        assert!(svc.level() >= 1, "the ladder must engage");
        // Drain: every admitted frame completes or expires typed.
        while svc.pending() > 0 {
            svc.tick();
        }
        let c = svc.counters();
        assert_eq!(c.admitted, c.completed + c.timeouts);
        assert!(c.accounted(0));
    }
}
