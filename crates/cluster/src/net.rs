//! The inter-node network cost model.
//!
//! Within one Cell every migrated buffer crosses the EIB
//! (`MappingDelta::migration_time`); between nodes it crosses a blade
//! interconnect instead, which is both slower and pays a per-transfer
//! setup latency. [`NetworkModel`] prices that: a uniform
//! bandwidth/latency pair with optional per-link overrides, so an
//! asymmetric topology (same-chassis vs cross-rack) can be expressed
//! without a full matrix.

use crate::agent::NodeId;
use cellstream_core::MappingDelta;

/// Per-link bandwidth + latency, with a uniform default.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    bw: f64,
    latency: f64,
    overrides: Vec<((NodeId, NodeId), (f64, f64))>,
}

impl NetworkModel {
    /// A uniform fabric: every link runs at `bw_bytes_per_s` with
    /// `latency` seconds of per-transfer setup cost.
    pub fn uniform(bw_bytes_per_s: f64, latency: f64) -> NetworkModel {
        assert!(
            bw_bytes_per_s.is_finite() && bw_bytes_per_s > 0.0,
            "bandwidth must be positive, got {bw_bytes_per_s}"
        );
        assert!(latency.is_finite() && latency >= 0.0, "latency must be >= 0, got {latency}");
        NetworkModel { bw: bw_bytes_per_s, latency, overrides: Vec::new() }
    }

    /// Override one directed link. Later overrides win.
    pub fn with_link(
        mut self,
        from: NodeId,
        to: NodeId,
        bw_bytes_per_s: f64,
        latency: f64,
    ) -> NetworkModel {
        assert!(
            bw_bytes_per_s.is_finite() && bw_bytes_per_s > 0.0,
            "bandwidth must be positive, got {bw_bytes_per_s}"
        );
        assert!(latency.is_finite() && latency >= 0.0, "latency must be >= 0, got {latency}");
        self.overrides.push(((from, to), (bw_bytes_per_s, latency)));
        self
    }

    /// `(bandwidth, latency)` of the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> (f64, f64) {
        self.overrides
            .iter()
            .rev()
            .find(|(l, _)| *l == (from, to))
            .map_or((self.bw, self.latency), |(_, p)| *p)
    }

    /// Seconds `bytes` of migration state spend crossing `from → to`:
    /// `latency + bytes / bw`, or 0 when there is nothing to move.
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return 0.0;
        }
        let (bw, latency) = self.link(from, to);
        latency + bytes / bw
    }

    /// Price a cross-node mapping delta on the `from → to` link (the
    /// network analogue of `MappingDelta::migration_time`).
    pub fn price(&self, from: NodeId, to: NodeId, delta: &MappingDelta) -> f64 {
        let (bw, latency) = self.link(from, to);
        delta.transfer_time(bw, latency)
    }
}

impl Default for NetworkModel {
    /// A 10 GbE-class blade interconnect: 1.25 GB/s per link, 50 µs
    /// setup latency — roughly 20× slower than one Cell's EIB.
    fn default() -> NetworkModel {
        NetworkModel::uniform(1.25e9, 50e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prices_latency_plus_wire_time() {
        let net = NetworkModel::uniform(1e9, 10e-6);
        let t = net.transfer_time(NodeId(0), NodeId(1), 1e6);
        assert!((t - (10e-6 + 1e-3)).abs() < 1e-15, "{t}");
        assert_eq!(net.transfer_time(NodeId(0), NodeId(1), 0.0), 0.0, "empty moves are free");
    }

    #[test]
    fn link_overrides_are_directed_and_last_wins() {
        let net = NetworkModel::uniform(1e9, 0.0)
            .with_link(NodeId(0), NodeId(1), 2e9, 1e-6)
            .with_link(NodeId(0), NodeId(1), 4e9, 2e-6);
        assert_eq!(net.link(NodeId(0), NodeId(1)), (4e9, 2e-6));
        assert_eq!(net.link(NodeId(1), NodeId(0)), (1e9, 0.0), "reverse keeps the default");
        let t = net.transfer_time(NodeId(0), NodeId(1), 4e9);
        assert!((t - (2e-6 + 1.0)).abs() < 1e-9, "{t}");
    }
}
