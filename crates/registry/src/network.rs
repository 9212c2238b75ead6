//! Deterministic network cost model.
//!
//! The paper's discussion of storing small layers uncompressed (§IV-A)
//! trades transfer bytes against client-side decompression time. To
//! evaluate that trade-off (`bench_pull_policy`) we need a transport cost;
//! this model charges a per-request latency plus size/bandwidth, which is
//! how registry pull latency behaves to first order (cf. the Slacker and
//! Bolt measurements the paper cites).

use std::time::Duration;

/// A fixed-latency, fixed-bandwidth link.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Per-request round-trip latency.
    pub rtt: Duration,
    /// Sustained throughput in bytes/second.
    pub bandwidth_bps: u64,
}

impl NetworkModel {
    /// A datacenter-ish profile (0.5 ms RTT, 1 GB/s).
    pub fn datacenter() -> NetworkModel {
        NetworkModel { rtt: Duration::from_micros(500), bandwidth_bps: 1_000_000_000 }
    }

    /// A WAN profile (40 ms RTT, 50 MB/s) — pulling from Docker Hub over
    /// the public internet.
    pub fn wan() -> NetworkModel {
        NetworkModel { rtt: Duration::from_millis(40), bandwidth_bps: 50_000_000 }
    }

    /// Simulated time to transfer one blob of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let xfer = Duration::from_secs_f64(bytes as f64 / self.bandwidth_bps as f64);
        self.rtt + xfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_blobs() {
        let net = NetworkModel::wan();
        let t = net.transfer_time(1024);
        assert!(t >= Duration::from_millis(40));
        assert!(t < Duration::from_millis(41));
    }

    #[test]
    fn bandwidth_dominates_large_blobs() {
        let net = NetworkModel::wan();
        let t = net.transfer_time(500_000_000);
        // 500 MB at 50 MB/s = 10 s.
        assert!(t >= Duration::from_secs(10));
        assert!(t < Duration::from_secs(11));
    }

    #[test]
    fn datacenter_faster_than_wan() {
        let bytes = 10_000_000;
        assert!(NetworkModel::datacenter().transfer_time(bytes) < NetworkModel::wan().transfer_time(bytes));
    }
}
