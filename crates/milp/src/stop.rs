//! The one stop signal every planner polls, from a portfolio member
//! down to the simplex pivot loop.
//!
//! The paper runs its MILP under a wall-clock limit and compares it
//! with heuristics that run under the same budget (§6). A [`Stop`] is
//! that budget as one value: an optional deadline plus an optional
//! cancellation flag shared by every clone. This is the only place a
//! budget becomes a deadline and the only place a deadline is read
//! against the clock; every search loop asks [`Stop::hit`] (or, where a
//! clock read would cost too much, [`Stop::cancelled`]) and returns its
//! best answer so far.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When a solve or search must give up: an optional wall-clock deadline
/// plus an optional cancellation flag.
///
/// `Stop::default()` never stops and allocates nothing. Clones share the
/// flag, so one [`cancel`](Self::cancel) reaches every planner handed a
/// clone: all portfolio members, the branch-and-bound's nodes and its LP
/// pivot loops.
#[derive(Debug, Clone, Default)]
pub struct Stop {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl Stop {
    /// A stop with a fresh cancellation flag and no deadline.
    pub fn new() -> Stop {
        Stop { deadline: None, flag: Some(Arc::default()) }
    }

    /// A stop whose deadline is `budget` from now, with no flag. A budget
    /// too long to add to the clock is no deadline.
    pub fn after(budget: Duration) -> Stop {
        Stop { deadline: Instant::now().checked_add(budget), flag: None }
    }

    /// This stop with the earlier of its deadline and `limit` from now,
    /// sharing its flag.
    pub fn within(&self, limit: Duration) -> Stop {
        let deadline = match (self.deadline, Stop::after(limit).deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Stop { deadline, flag: self.flag.clone() }
    }

    /// This stop with its deadline, if it has one, moved to no earlier
    /// than `floor` from now, sharing its flag: the time a late starter
    /// is granted even when the budget is spent.
    pub fn at_least(&self, floor: Duration) -> Stop {
        let deadline = self.deadline.and_then(|d| Some(d.max(Stop::after(floor).deadline?)));
        Stop { deadline, flag: self.flag.clone() }
    }

    /// Raise the flag, for every clone. Idempotent; a raised flag stays
    /// raised. A stop built without a flag has nothing to raise.
    pub fn cancel(&self) {
        debug_assert!(self.flag.is_some(), "cancel on a stop without a flag (use Stop::new)");
        if let Some(flag) = &self.flag {
            // check:allow(atomic-ordering): lone cancellation flag, no
            // data published alongside it
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once the flag is raised. Reads the flag only, never the
    /// clock: cheap enough for the innermost loops.
    pub fn cancelled(&self) -> bool {
        // check:allow(atomic-ordering): lone cancellation flag, no data
        // published alongside it
        self.flag.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// `true` when the flag is raised or the deadline has passed.
    pub fn hit(&self) -> bool {
        self.cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unrepresentable_budget_is_no_deadline_and_zero_has_passed() {
        assert!(Stop::after(Duration::MAX).deadline.is_none());
        assert!(!Stop::after(Duration::MAX).hit());
        assert!(Stop::after(Duration::ZERO).hit());
        assert!(!Stop::default().hit());
    }

    #[test]
    fn within_keeps_the_earlier_deadline_and_shares_the_flag() {
        let stop = Stop::new().within(Duration::from_secs(3600));
        let soon = stop.within(Duration::ZERO);
        assert!(soon.hit() && !soon.cancelled(), "the earlier deadline wins");
        let late = stop.within(Duration::MAX);
        assert_eq!(late.deadline, stop.deadline, "a later limit keeps the deadline");
        assert!(!late.hit());
        stop.cancel();
        assert!(soon.cancelled() && late.cancelled(), "one flag behind every derived stop");
        assert_eq!(Stop::default().within(Duration::MAX).deadline, None);
    }

    #[test]
    fn at_least_grants_the_floor_and_keeps_a_later_deadline() {
        let spent = Stop::after(Duration::ZERO).at_least(Duration::from_secs(3600));
        assert!(!spent.hit(), "a spent budget still grants the floor");
        let long = Stop::after(Duration::from_secs(7200));
        assert_eq!(long.at_least(Duration::from_secs(1)).deadline, long.deadline);
        assert_eq!(Stop::default().at_least(Duration::from_secs(1)).deadline, None);
        assert_eq!(long.at_least(Duration::MAX).deadline, None, "an unrepresentable floor");
    }

    #[test]
    fn a_clone_sees_cancel() {
        let stop = Stop::new();
        let clone = stop.clone();
        assert!(!clone.hit());
        stop.cancel();
        assert!(clone.cancelled() && clone.hit());
    }
}
