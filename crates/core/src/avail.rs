//! Live platform availability: a dead-PE mask on a [`CellSpec`].
//!
//! The paper plans against a fixed, healthy platform; a serving Cell
//! blade is not one. An [`Availability`] records, per processing
//! element, whether it is alive or dead (an SPE taken offline, a
//! thermally parked core). A live PE runs at its nominal speed. The
//! mask is deliberately thin — the [`CellSpec`] stays immutable and
//! continues to describe the *nominal* machine, so compute costs,
//! buffer budgets, DMA limits and the §4.2 migration cost model (EIB
//! bandwidth) are unchanged; only *placement eligibility* reacts to
//! health: a dead PE must host nothing, and any task seated there is a
//! capacity violation ([`Violation::DeadPe`](crate::eval::Violation)),
//! which routes the existing eviction machinery toward evacuating it.
//!
//! Failing a PPE is rejected at the serving layer: the PPE runs the
//! control thread and is the eviction target of last resort, so a
//! platform without a live PPE cannot replan at all (the same reason
//! [`cellstream_platform::CellSpec`] refuses to build with
//! zero PPEs).

use cellstream_platform::{CellSpec, PeId};
use std::fmt;

/// The dead-PE mask of one [`CellSpec`]. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Availability {
    /// `true` for a dead PE, by PE id. Length equals `spec.n_pes()`.
    dead: Vec<bool>,
}

impl Availability {
    /// Every PE alive — the nominal platform the paper assumes.
    pub fn full(spec: &CellSpec) -> Availability {
        Availability { dead: vec![false; spec.n_pes()] }
    }

    /// Number of PEs the mask covers.
    pub fn n_pes(&self) -> usize {
        self.dead.len()
    }

    /// `true` when no PE is dead (the mask is inert).
    pub fn all_healthy(&self) -> bool {
        !self.dead.contains(&true)
    }

    /// `true` when the PE is dead. Panics on out-of-range ids.
    pub fn is_dead(&self, pe: PeId) -> bool {
        self.dead[pe.index()]
    }

    /// Mark a PE dead. Panics on out-of-range ids.
    pub fn fail(&mut self, pe: PeId) {
        self.dead[pe.index()] = true;
    }

    /// Bring a PE back to life.
    pub fn restore(&mut self, pe: PeId) {
        self.dead[pe.index()] = false;
    }

    /// Ids of the dead PEs, ascending.
    pub fn dead_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.dead.iter().enumerate().filter(|(_, &d)| d).map(|(i, _)| PeId(i))
    }

    /// Number of dead PEs.
    pub fn n_dead(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }
}

impl fmt::Display for Availability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all_healthy() {
            return write!(f, "all {} PEs healthy", self.dead.len());
        }
        let dead: Vec<String> =
            self.dead_pes().map(|pe| format!("PE{} dead", pe.index())).collect();
        write!(f, "{}", dead.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_is_inert() {
        let spec = CellSpec::ps3();
        let a = Availability::full(&spec);
        assert_eq!(a.n_pes(), spec.n_pes());
        assert!(a.all_healthy());
        assert_eq!(a.n_dead(), 0);
        for pe in spec.pes() {
            assert!(!a.is_dead(pe));
        }
        assert_eq!(format!("{a}"), "all 7 PEs healthy");
    }

    #[test]
    fn fail_restore_round_trip() {
        let mut a = Availability::full(&CellSpec::ps3());
        a.fail(PeId(3));
        assert!(a.is_dead(PeId(3)));
        assert_eq!(a.n_dead(), 1);
        assert_eq!(a.dead_pes().collect::<Vec<_>>(), vec![PeId(3)]);
        assert!(!a.all_healthy());

        a.fail(PeId(2));
        assert_eq!(format!("{a}"), "PE2 dead, PE3 dead");

        a.restore(PeId(3));
        a.restore(PeId(2));
        assert!(a.all_healthy());
    }
}
