//! Multi-node network simulation: a base station and a fleet of nodes
//! with mixed duty cycles, reporting the fleet's lifetime distribution.
//!
//! This is the paper's deployment picture — "an ad-hoc wireless network
//! that consists of a number of nodes and one or more base stations" —
//! with each node spending real energy numbers from the cost model.

use crate::energy::CryptoCosts;
use crate::node::{NodeConfig, SensorNode};
use crate::sim::Outcome;
use protocols::Keypair;

/// A fleet description: per-node configs (possibly heterogeneous).
#[derive(Debug, Clone)]
pub struct Network {
    configs: Vec<NodeConfig>,
    costs: CryptoCosts,
}

/// Aggregate fleet statistics after running every node to exhaustion.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-node outcomes, in node order.
    pub outcomes: Vec<Outcome>,
}

impl FleetReport {
    /// Rounds until the *first* node dies (network coverage horizon).
    pub fn first_death(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.rounds_survived)
            .min()
            .unwrap_or(0)
    }

    /// Rounds until the *last* node dies.
    pub fn last_death(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.rounds_survived)
            .max()
            .unwrap_or(0)
    }

    /// Mean node lifetime in rounds.
    pub fn mean_lifetime(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.rounds_survived as f64)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Total frames delivered by the fleet.
    pub fn total_frames(&self) -> u64 {
        self.outcomes.iter().map(|o| o.frames).sum()
    }
}

impl Network {
    /// A fleet of `n` identical nodes.
    pub fn homogeneous(n: usize, config: NodeConfig, costs: CryptoCosts) -> Network {
        Network {
            configs: vec![config; n],
            costs,
        }
    }

    /// A fleet with explicit per-node configs (e.g. gateway nodes that
    /// re-key more often).
    pub fn heterogeneous(configs: Vec<NodeConfig>, costs: CryptoCosts) -> Network {
        Network { configs, costs }
    }

    /// Runs every node against the shared base station for at most
    /// `max_rounds` rounds each.
    pub fn run(&self, max_rounds: u64) -> FleetReport {
        let station = Keypair::generate(b"network base station");
        let outcomes = self
            .configs
            .iter()
            .enumerate()
            .map(|(id, config)| run_node(id as u32, *config, self.costs, &station, max_rounds))
            .collect();
        FleetReport { outcomes }
    }
}

fn run_node(
    id: u32,
    config: NodeConfig,
    costs: CryptoCosts,
    station: &Keypair,
    max_rounds: u64,
) -> Outcome {
    let mut node = SensorNode::new(id, config, costs);
    let mut rounds = 0u64;
    while rounds < max_rounds {
        if rounds.is_multiple_of(config.rekey_interval as u64) && !node.rekey(station) {
            break;
        }
        let payload = format!("n{id:03} r{rounds:08}");
        let Some(frame) = node.send_frame(payload.as_bytes()) else {
            break;
        };
        let secret = node.session().expect("keyed");
        debug_assert!(frame.open(&secret).is_ok());
        rounds += 1;
    }
    let (rekeys, frames) = node.stats();
    Outcome {
        rounds_survived: rounds,
        rekeys,
        frames,
        battery_left_j: node.battery_joules().max(0.0),
        hit_round_cap: rounds == max_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RadioModel;
    use ecc233::Profile;

    fn costs() -> CryptoCosts {
        CryptoCosts {
            profile: Profile::ThisWorkAsm,
            kg_uj: 21.0,
            kp_uj: 31.0,
        }
    }

    fn tiny() -> NodeConfig {
        NodeConfig {
            battery_joules: 0.02,
            rekey_interval: 8,
            payload_bytes: 16,
            radio: RadioModel::default(),
        }
    }

    #[test]
    fn homogeneous_fleet_dies_together() {
        let net = Network::homogeneous(4, tiny(), costs());
        let report = net.run(1_000_000);
        assert_eq!(report.outcomes.len(), 4);
        // Same config + deterministic energy model ⇒ identical lifetimes.
        assert_eq!(report.first_death(), report.last_death());
        assert!(report.first_death() > 0);
        assert_eq!(
            report.total_frames(),
            report.outcomes.iter().map(|o| o.frames).sum::<u64>()
        );
    }

    #[test]
    fn heavier_duty_nodes_die_first() {
        let light = tiny();
        let heavy = NodeConfig {
            rekey_interval: 1, // gateway: re-keys every round
            ..tiny()
        };
        let net = Network::heterogeneous(vec![light, heavy], costs());
        let report = net.run(1_000_000);
        assert!(
            report.outcomes[0].rounds_survived > report.outcomes[1].rounds_survived,
            "light {} vs heavy {}",
            report.outcomes[0].rounds_survived,
            report.outcomes[1].rounds_survived
        );
        assert_eq!(report.first_death(), report.outcomes[1].rounds_survived);
        assert!(report.mean_lifetime() > report.first_death() as f64);
    }

    #[test]
    fn empty_fleet_is_degenerate() {
        let net = Network::heterogeneous(vec![], costs());
        let report = net.run(100);
        assert_eq!(report.first_death(), 0);
        assert_eq!(report.mean_lifetime(), 0.0);
    }
}
