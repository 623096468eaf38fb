//! BlueGene/L-flavored machine presets (§5.4 of the paper).
//!
//! **Substitution note (DESIGN.md §4).** The paper's §5.4 runs on real
//! BlueGene hardware (and its Charm++ emulator); we drive the same
//! benchmark through the packet simulator configured with BG/L-like
//! constants: 3D torus/mesh, ~175 MB/s per link direction, sub-µs per-hop
//! router latency. Relative behaviour between mappings — which is all the
//! paper's Figures 10–11 compare — depends on hop counts and contention,
//! both of which the simulator models.

use crate::config::NetworkConfig;

/// BG/L torus link bandwidth per direction: 175 MB/s (2 bits per cycle at
/// 700 MHz).
pub(crate) const BGL_LINK_BANDWIDTH: f64 = 175.0e6;

/// BG/L per-hop router latency (~100 ns including link traversal).
pub(crate) const BGL_HOP_LATENCY_NS: u64 = 100;

/// Sender software overhead per message (~2 µs MPI-level overhead).
pub(crate) const BGL_SEND_OVERHEAD_NS: u64 = 2_000;

/// Intra-node delivery latency.
pub(crate) const BGL_LOCAL_LATENCY_NS: u64 = 500;

/// The BG/L-like network configuration.
pub fn bluegene_config() -> NetworkConfig {
    NetworkConfig {
        link_bandwidth: BGL_LINK_BANDWIDTH,
        hop_latency_ns: BGL_HOP_LATENCY_NS,
        send_overhead_ns: BGL_SEND_OVERHEAD_NS,
        local_latency_ns: BGL_LOCAL_LATENCY_NS,
        switching: crate::config::Switching::Wormhole,
        nic: crate::config::NicModel::SharedChannel,
        routing: crate::config::RoutingMode::Deterministic,
        link_speed_factors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constants() {
        let cfg = bluegene_config();
        assert_eq!(cfg.link_bandwidth, 175.0e6);
        // 100 KB message serialization ≈ 585 µs at 175 MB/s.
        let ser = cfg.serialization_ns(100 * 1024);
        assert!((ser as f64 - 102400.0 * 1e9 / 175e6).abs() < 2.0);
    }
}
