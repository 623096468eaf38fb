//! Network hardware parameters.

use serde::{Deserialize, Serialize};

/// Switching discipline of the simulated routers.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq, Default)]
pub enum Switching {
    /// Virtual cut-through with ample buffering: a blocked message is
    /// absorbed by the switch and frees its upstream link after one
    /// serialization time.
    CutThrough,
    /// Wormhole switching with minimal buffering (BlueGene-style): a
    /// message blocked at a busy link keeps its upstream link occupied
    /// until it advances — backpressure chains are what make congestion
    /// collapse dramatic for long-route (random) mappings in §5.3.
    #[default]
    Wormhole,
}

/// How a node's NIC couples tasks to the network.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq, Default)]
pub enum NicModel {
    /// One shared injection channel and one shared ejection channel per
    /// node, each at link bandwidth: all of a node's outgoing (incoming)
    /// messages serialize through it. Models BG/L co-processor mode,
    /// where the compute CPU packetizes every message (the regime of
    /// Table 1 and the §5.4 hardware runs).
    #[default]
    SharedChannel,
    /// Each network port injects/ejects independently; serialization
    /// happens only on the wire FIFOs themselves. Models a router-centric
    /// network simulator like BigNetSim (the regime of §5.3).
    PerLink,
}

/// Route selection discipline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Deterministic shortest paths (dimension-ordered e-cube on
    /// tori/meshes) — what BlueGene's default mode and the paper's
    /// simulations use.
    #[default]
    Deterministic,
    /// Minimal-adaptive: at each hop, take the productive link that frees
    /// earliest. Still shortest-path; spreads load over equivalent routes
    /// (models adaptive virtual-channel selection).
    MinimalAdaptive,
}

/// Parameters of the simulated interconnect.
///
/// The defaults are generic "mid-2000s torus machine" values; the
/// BlueGene-flavored presets live in [`crate::bluegene`]. The §5.3
/// experiments sweep `link_bandwidth` from 100 MB/s to 1 GB/s ("channel
/// bandwidth in 100s of MB/s").
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct NetworkConfig {
    /// Per-direction link bandwidth in bytes per second.
    pub link_bandwidth: f64,
    /// Router/switch latency per hop in nanoseconds (head advance time).
    pub hop_latency_ns: u64,
    /// Sender-side software overhead per message in nanoseconds (the CPU
    /// is busy for this long per send).
    pub send_overhead_ns: u64,
    /// Delivery latency for messages between tasks on the *same*
    /// processor, in nanoseconds (a memcpy, no network involvement).
    pub local_latency_ns: u64,
    /// Router switching discipline.
    pub switching: Switching,
    /// NIC coupling model.
    pub nic: NicModel,
    /// Route selection discipline.
    pub routing: RoutingMode,
    /// Per-link relative speed factors `(from, to, factor)`. Links not
    /// listed run at `link_bandwidth`; factor 0.5 halves that directed
    /// link's bandwidth (degraded cable, oversubscribed uplink — the
    /// heterogeneous-capacity setting of Taura & Chien, the paper's ref
    /// \[21\]). Factors must be positive.
    pub link_speed_factors: Vec<(usize, usize, f64)>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            link_bandwidth: 500.0e6, // 500 MB/s
            hop_latency_ns: 100,
            send_overhead_ns: 1_000,
            local_latency_ns: 500,
            switching: Switching::default(),
            nic: NicModel::default(),
            routing: RoutingMode::default(),
            link_speed_factors: Vec::new(),
        }
    }
}

impl NetworkConfig {
    /// Same config with a different bandwidth (for the §5.3 sweeps).
    pub fn with_bandwidth(mut self, bytes_per_s: f64) -> Self {
        assert!(bytes_per_s > 0.0);
        self.link_bandwidth = bytes_per_s;
        self
    }

    /// Serialization time of `bytes` on one link, in nanoseconds
    /// (rounded up so zero-byte messages still take nonzero slots).
    pub(crate) fn serialization_ns(&self, bytes: u64) -> u64 {
        ((bytes as f64) * 1e9 / self.link_bandwidth).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time() {
        let cfg = NetworkConfig::default().with_bandwidth(1e9); // 1 GB/s
        assert_eq!(cfg.serialization_ns(1000), 1000); // 1000 B at 1B/ns
        assert_eq!(cfg.serialization_ns(1), 1);
        let slow = cfg.clone().with_bandwidth(100e6); // 100 MB/s = 0.1 B/ns
        assert_eq!(slow.serialization_ns(1000), 10_000);
    }

    #[test]
    fn bandwidth_sweep_builder() {
        let cfg = NetworkConfig::default();
        let c2 = cfg.clone().with_bandwidth(2e8);
        assert_eq!(c2.link_bandwidth, 2e8);
        assert_eq!(c2.hop_latency_ns, cfg.hop_latency_ns);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = NetworkConfig::default();
        let s = serde_json::to_string(&cfg).unwrap();
        let back: NetworkConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(cfg, back);
    }
}
