//! Aggregate results of a simulation run — the observables of the paper's
//! §5.3 plots (average message latency, total execution time) plus link
//! utilization detail.

use serde::{Deserialize, Serialize};

/// Statistics from one [`crate::Simulation::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Time at which the last task finished, in nanoseconds (the paper's
    /// "total time for execution").
    pub completion_ns: u64,
    /// Messages that crossed the network (source and destination on
    /// different processors).
    pub network_messages: u64,
    /// Messages delivered between colocated tasks.
    pub local_messages: u64,
    pub bytes_delivered: u64,
    /// Mean network-message latency in nanoseconds (the paper's "average
    /// message time").
    pub avg_latency_ns: f64,
    /// Median network-message latency.
    pub p50_latency_ns: u64,
    /// 95th-percentile network-message latency.
    pub p95_latency_ns: u64,
    /// 99th-percentile network-message latency.
    pub p99_latency_ns: u64,
    pub max_latency_ns: u64,
    /// Mean hops per network message.
    pub avg_hops: f64,
    /// Busy fraction of the busiest link.
    pub max_link_utilization: f64,
    /// Mean busy fraction over all links.
    pub(crate) avg_link_utilization: f64,
    /// Links that carried at least one message.
    pub used_links: usize,
    pub(crate) total_links: usize,
}

impl SimStats {
    /// Average message latency in microseconds (the paper's plot unit).
    pub fn avg_latency_us(&self) -> f64 {
        self.avg_latency_ns / 1_000.0
    }

    /// Completion time in milliseconds.
    pub fn completion_ms(&self) -> f64 {
        self.completion_ns as f64 / 1e6
    }
}

/// Per-link accounting for one simulation run: busy time, bytes carried,
/// and head-of-line queueing. Indexed by link id — the position of the
/// directed link in `RoutedTopology::links()` order.
///
/// This is the ledger behind every contention claim: link utilization in
/// [`SimStats`] and the per-link heatmap the observability layer exports.
/// Bytes are charged once per link a message crosses, so the sum over
/// links equals Σ message bytes × hops — the simulator's realized
/// hop-bytes, cross-checkable against the analytic metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkAccounting {
    busy_ns: Vec<u64>,
    bytes: Vec<u64>,
    queue_events: u64,
    queue_wait_ns: u64,
}

impl LinkAccounting {
    pub(crate) fn new(num_links: usize) -> Self {
        LinkAccounting {
            busy_ns: vec![0; num_links],
            bytes: vec![0; num_links],
            queue_events: 0,
            queue_wait_ns: 0,
        }
    }

    /// Record a message body crossing link `li`: `ser_ns` of busy time,
    /// `bytes` carried, and `wait_ns` the head queued behind earlier
    /// traffic before the link accepted it (0 = no contention).
    pub(crate) fn on_transfer(&mut self, li: usize, ser_ns: u64, bytes: u64, wait_ns: u64) {
        self.busy_ns[li] += ser_ns;
        self.bytes[li] += bytes;
        if wait_ns > 0 {
            self.queue_events += 1;
            self.queue_wait_ns += wait_ns;
        }
    }

    /// Extend link `li`'s busy time without new bytes — wormhole
    /// backpressure holding a message body on an upstream link.
    pub(crate) fn extend_busy(&mut self, li: usize, extra_ns: u64) {
        self.busy_ns[li] += extra_ns;
    }

    pub fn busy_ns(&self, li: usize) -> u64 {
        self.busy_ns[li]
    }

    pub fn bytes(&self, li: usize) -> u64 {
        self.bytes[li]
    }

    pub fn busy_slice(&self) -> &[u64] {
        &self.busy_ns
    }

    pub fn bytes_slice(&self) -> &[u64] {
        &self.bytes
    }

    /// Give up the ledger: `(busy_ns, bytes)` per link, in link-id order,
    /// without copying.
    pub(crate) fn into_ledgers(self) -> (Vec<u64>, Vec<u64>) {
        (self.busy_ns, self.bytes)
    }

    /// Links that were ever busy.
    pub(crate) fn used_links(&self) -> usize {
        self.busy_ns.iter().filter(|&&b| b > 0).count()
    }

    pub(crate) fn max_busy_ns(&self) -> u64 {
        self.busy_ns.iter().copied().max().unwrap_or(0)
    }

    pub(crate) fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Σ over links of bytes carried = Σ over messages of bytes × hops.
    pub fn total_bytes_hops(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Transfers that queued behind earlier traffic.
    pub fn queue_events(&self) -> u64 {
        self.queue_events
    }

    /// Total head-of-line wait across all queued transfers.
    pub fn queue_wait_ns(&self) -> u64 {
        self.queue_wait_ns
    }

    /// Busy fraction of the busiest link over a run of `horizon_ns`.
    pub(crate) fn max_utilization(&self, horizon_ns: u64) -> f64 {
        if horizon_ns == 0 {
            0.0
        } else {
            self.max_busy_ns() as f64 / horizon_ns as f64
        }
    }

    /// Mean busy fraction over *all* links (idle links count).
    pub(crate) fn avg_utilization(&self, horizon_ns: u64) -> f64 {
        if horizon_ns == 0 || self.busy_ns.is_empty() {
            0.0
        } else {
            self.total_busy_ns() as f64 / (horizon_ns as f64 * self.busy_ns.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let s = SimStats {
            completion_ns: 2_500_000_000,
            network_messages: 10,
            local_messages: 0,
            bytes_delivered: 100,
            avg_latency_ns: 12_345.0,
            p50_latency_ns: 10_000,
            p95_latency_ns: 40_000,
            p99_latency_ns: 45_000,
            max_latency_ns: 50_000,
            avg_hops: 2.0,
            max_link_utilization: 0.5,
            avg_link_utilization: 0.1,
            used_links: 4,
            total_links: 8,
        };
        assert!((s.avg_latency_us() - 12.345).abs() < 1e-12);
        assert!((s.completion_ms() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn link_accounting_starts_empty() {
        let a = LinkAccounting::new(4);
        assert_eq!(a.busy_slice().len(), 4);
        assert_eq!(a.used_links(), 0);
        assert_eq!(a.max_busy_ns(), 0);
        assert_eq!(a.total_busy_ns(), 0);
        assert_eq!(a.total_bytes_hops(), 0);
        assert_eq!(a.queue_events(), 0);
        assert_eq!(a.queue_wait_ns(), 0);
        assert_eq!(a.max_utilization(1_000), 0.0);
        assert_eq!(a.avg_utilization(1_000), 0.0);
    }

    #[test]
    fn transfers_accumulate_per_link() {
        let mut a = LinkAccounting::new(3);
        a.on_transfer(0, 100, 1_000, 0);
        a.on_transfer(0, 50, 500, 25);
        a.on_transfer(2, 300, 3_000, 0);
        assert_eq!(a.busy_ns(0), 150);
        assert_eq!(a.bytes(0), 1_500);
        assert_eq!(a.busy_ns(1), 0);
        assert_eq!(a.busy_ns(2), 300);
        assert_eq!(a.used_links(), 2);
        assert_eq!(a.max_busy_ns(), 300);
        assert_eq!(a.total_busy_ns(), 450);
        assert_eq!(a.total_bytes_hops(), 4_500);
        assert_eq!(a.busy_slice(), &[150, 0, 300]);
        assert_eq!(a.bytes_slice(), &[1_500, 0, 3_000]);
        assert_eq!(a.into_ledgers(), (vec![150, 0, 300], vec![1_500, 0, 3_000]));
    }

    #[test]
    fn queueing_counts_only_contended_transfers() {
        let mut a = LinkAccounting::new(2);
        a.on_transfer(0, 10, 100, 0); // uncontended: no queue event
        a.on_transfer(0, 10, 100, 40);
        a.on_transfer(1, 10, 100, 60);
        assert_eq!(a.queue_events(), 2);
        assert_eq!(a.queue_wait_ns(), 100);
    }

    #[test]
    fn backpressure_extends_busy_without_bytes() {
        let mut a = LinkAccounting::new(2);
        a.on_transfer(0, 100, 1_000, 0);
        a.extend_busy(0, 70);
        assert_eq!(a.busy_ns(0), 170);
        assert_eq!(
            a.bytes(0),
            1_000,
            "backpressure must not double-count bytes"
        );
        // A link extended but never crossed still counts as used.
        a.extend_busy(1, 5);
        assert_eq!(a.used_links(), 2);
    }

    #[test]
    fn utilization_fractions() {
        let mut a = LinkAccounting::new(4);
        a.on_transfer(0, 500, 1, 0);
        a.on_transfer(1, 250, 1, 0);
        // horizon 1000ns: max = 0.5, avg = 750 / 4000.
        assert!((a.max_utilization(1_000) - 0.5).abs() < 1e-12);
        assert!((a.avg_utilization(1_000) - 0.1875).abs() < 1e-12);
        // Degenerate horizons are defined as zero, not NaN.
        assert_eq!(a.max_utilization(0), 0.0);
        assert_eq!(a.avg_utilization(0), 0.0);
        assert_eq!(LinkAccounting::new(0).avg_utilization(100), 0.0);
    }

    #[test]
    fn bytes_sum_equals_bytes_times_hops() {
        // Simulate one 4096-byte message crossing 3 links and one
        // 100-byte message crossing 1 link: Σ link bytes = Σ bytes·hops.
        let mut a = LinkAccounting::new(5);
        for li in 0..3 {
            a.on_transfer(li, 4_096, 4_096, 0);
        }
        a.on_transfer(4, 100, 100, 0);
        assert_eq!(a.total_bytes_hops(), 4_096 * 3 + 100);
    }
}
