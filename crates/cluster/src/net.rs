//! The inter-node network cost model.
//!
//! Within one Cell every migrated buffer crosses the EIB
//! (`MappingDelta::migration_time`); between nodes it crosses a blade
//! interconnect instead, which is both slower and pays a per-transfer
//! setup latency. [`NetworkModel`] prices that on a uniform fabric:
//! every link between two nodes has the same bandwidth and latency.

/// A uniform inter-node fabric: one bandwidth and one per-transfer
/// latency for every link.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    bw: f64,
    latency: f64,
}

impl NetworkModel {
    /// Seconds `bytes` of migration state spend crossing any link:
    /// `latency + bytes / bw`, or 0 when there is nothing to move.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return 0.0;
        }
        self.latency + bytes / self.bw
    }
}

impl Default for NetworkModel {
    /// A 10 GbE-class blade interconnect: 1.25 GB/s per link, 50 µs
    /// setup latency — roughly 20× slower than one Cell's EIB.
    fn default() -> NetworkModel {
        NetworkModel { bw: 1.25e9, latency: 50e-6 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prices_latency_plus_wire_time() {
        let net = NetworkModel::default();
        let t = net.transfer_time(1.25e6);
        assert!((t - (50e-6 + 1e-3)).abs() < 1e-15, "{t}");
        assert_eq!(net.transfer_time(0.0), 0.0, "empty moves are free");
    }
}
