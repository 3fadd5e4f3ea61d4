//! Wireless-sensor-network lifetime simulation — the application
//! context of the paper's introduction.
//!
//! The paper motivates its ECC work with WSNs: nodes *"have a limited
//! amount of energy"* and *"a node's lifetime is … directly influenced
//! by the efficiency of its algorithms."* This crate turns that claim
//! into numbers: sensor nodes with a battery budget run the full hybrid
//! cryptosystem (periodic ECDH re-keying, sealed telemetry frames) with
//! the public-key energy taken from the [`ecc233`] cost model and the
//! radio/symmetric costs from documented per-byte constants, and the
//! simulation reports how long each implementation profile keeps a node
//! alive.
//!
//! # Example
//!
//! ```
//! use wsn::{CryptoCosts, NodeConfig, Simulation};
//! use ecc233::Profile;
//!
//! let costs = CryptoCosts::measure(Profile::ThisWorkAsm);
//! let config = NodeConfig {
//!     battery_joules: 0.5, // a tiny budget so the doctest is quick
//!     rekey_interval: 8,
//!     payload_bytes: 24,
//!     ..NodeConfig::default()
//! };
//! let outcome = Simulation::new(config, costs).run(10_000);
//! assert!(outcome.rounds_survived > 0);
//! ```

pub mod energy;
pub mod gateway;
pub mod network;
pub mod node;
pub mod service_gateway;
pub mod sim;

pub use energy::{CryptoCosts, RadioModel};
pub use gateway::SignedTelemetry;
pub use network::{FleetReport, Network};
pub use node::{NodeConfig, SensorNode};
pub use service_gateway::{ServiceGateway, TelemetryVerdict};
pub use sim::{Outcome, Simulation};
