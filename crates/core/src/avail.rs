//! Live platform availability: a per-PE health overlay on a
//! [`CellSpec`].
//!
//! The paper plans against a fixed, healthy platform; a serving Cell
//! blade is neither. An [`Availability`] records, per processing
//! element, a *health factor* in `[0, 1]`: `1.0` is nominal, `0.0` is
//! dead (an SPE taken offline, a thermally parked core), and anything
//! in between is a degraded PE whose compute runs proportionally
//! slower. The overlay is deliberately thin — the [`CellSpec`] stays
//! immutable and continues to describe the *nominal* machine, so
//! buffer budgets, DMA limits and the §4.2 migration cost model (EIB
//! bandwidth) are unchanged; only *compute capacity* and *placement
//! eligibility* react to health:
//!
//! * a degraded PE multiplies every task cost by `1 / factor`
//!   (`slowdown`), so the period and the repair planner see the live
//!   capacity;
//! * a dead PE must host nothing — any task seated there is a
//!   capacity violation ([`Violation::DeadPe`](crate::eval::Violation)),
//!   which routes the existing eviction machinery toward evacuating
//!   it.
//!
//! Failing a PPE is rejected at the serving layer: the PPE runs the
//! control thread and is the eviction target of last resort, so a
//! platform without a live PPE cannot replan at all (the same reason
//! [`cellstream_platform::CellSpec`] refuses to build with
//! zero PPEs).

use cellstream_platform::{CellSpec, PeId};
use std::fmt;

/// Per-PE health factors overlaying one [`CellSpec`]. See the module
/// docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Availability {
    /// Health factor per PE id: `1.0` nominal, `0.0` dead, in between
    /// degraded. Length equals `spec.n_pes()`.
    factors: Vec<f64>,
}

impl Availability {
    /// Every PE healthy — the nominal platform the paper assumes.
    pub fn full(spec: &CellSpec) -> Availability {
        Availability { factors: vec![1.0; spec.n_pes()] }
    }

    /// Number of PEs the overlay covers.
    pub fn n_pes(&self) -> usize {
        self.factors.len()
    }

    /// `true` when every PE is at factor `1.0` (the overlay is inert).
    pub fn all_healthy(&self) -> bool {
        self.factors.iter().all(|&f| f == 1.0)
    }

    /// Health factor of one PE. Panics on out-of-range ids.
    pub fn factor(&self, pe: PeId) -> f64 {
        self.factors[pe.index()]
    }

    /// `true` when the PE is dead (factor `0.0`).
    pub fn is_dead(&self, pe: PeId) -> bool {
        self.factors[pe.index()] == 0.0
    }

    /// Compute slowdown multiplier of one PE: `1 / factor` for live
    /// PEs. A dead PE reports `1.0` — its tasks are accounted at
    /// nominal cost and flagged through the dead-PE capacity violation
    /// instead, which keeps every accumulator finite (no `inf − inf`
    /// hazards in incremental updates).
    pub fn slowdown(&self, pe: PeId) -> f64 {
        let f = self.factors[pe.index()];
        if f > 0.0 {
            1.0 / f
        } else {
            1.0
        }
    }

    /// Mark a PE dead. Panics on out-of-range ids.
    pub fn fail(&mut self, pe: PeId) {
        self.factors[pe.index()] = 0.0;
    }

    /// Restore a PE to nominal health.
    pub fn restore(&mut self, pe: PeId) {
        self.factors[pe.index()] = 1.0;
    }

    /// Set a PE's health factor. Panics unless `0.0 <= factor <= 1.0`
    /// and the id is in range.
    pub fn set_factor(&mut self, pe: PeId, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "health factor must be in [0, 1], got {factor} for {pe}"
        );
        self.factors[pe.index()] = factor;
    }

    /// Ids of the dead PEs, ascending.
    pub fn dead_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.factors.iter().enumerate().filter(|(_, &f)| f == 0.0).map(|(i, _)| PeId(i))
    }

    /// Number of dead PEs.
    pub fn n_dead(&self) -> usize {
        self.factors.iter().filter(|&&f| f == 0.0).count()
    }
}

serde::impl_json_struct!(Availability { factors });

impl fmt::Display for Availability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all_healthy() {
            return write!(f, "all {} PEs healthy", self.factors.len());
        }
        let impaired: Vec<String> = self
            .factors
            .iter()
            .enumerate()
            .filter(|(_, &h)| h != 1.0)
            .map(|(i, &h)| {
                if h == 0.0 {
                    format!("PE{i} dead")
                } else {
                    format!("PE{i} at {:.0}%", h * 100.0)
                }
            })
            .collect();
        write!(f, "{}", impaired.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_overlay_is_inert() {
        let spec = CellSpec::ps3();
        let a = Availability::full(&spec);
        assert_eq!(a.n_pes(), spec.n_pes());
        assert!(a.all_healthy());
        assert_eq!(a.n_dead(), 0);
        for pe in spec.pes() {
            assert_eq!(a.factor(pe), 1.0);
            assert_eq!(a.slowdown(pe), 1.0);
            assert!(!a.is_dead(pe));
        }
        assert_eq!(format!("{a}"), "all 7 PEs healthy");
    }

    #[test]
    fn fail_restore_degrade_round_trip() {
        let mut a = Availability::full(&CellSpec::ps3());
        a.fail(PeId(3));
        assert!(a.is_dead(PeId(3)));
        assert_eq!(a.n_dead(), 1);
        assert_eq!(a.dead_pes().collect::<Vec<_>>(), vec![PeId(3)]);
        assert_eq!(a.slowdown(PeId(3)), 1.0, "dead PEs stay finite");
        assert!(!a.all_healthy());

        a.set_factor(PeId(2), 0.5);
        assert_eq!(a.slowdown(PeId(2)), 2.0);
        assert!(!a.is_dead(PeId(2)));
        assert_eq!(format!("{a}"), "PE2 at 50%, PE3 dead");

        a.restore(PeId(3));
        a.restore(PeId(2));
        assert!(a.all_healthy());
    }

    #[test]
    #[should_panic(expected = "health factor")]
    fn out_of_range_factor_is_rejected() {
        Availability::full(&CellSpec::ps3()).set_factor(PeId(1), 1.5);
    }

    #[test]
    fn availability_round_trips_through_json() {
        let mut a = Availability::full(&CellSpec::ps3());
        a.fail(PeId(4));
        a.set_factor(PeId(1), 0.25);
        let json = serde_json::to_string(&a).unwrap();
        let back: Availability = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
