//! The background improver: an asynchronous full-portfolio re-solve of
//! the incumbent workload, cancelled by the next event and adopted only
//! when it pays for its own migration. The solve runs under one
//! [`Stop`]: the improver budget as its deadline, and a flag the next
//! event raises.

use crate::report::{EventLabel, ServeReport, Verdict};
use crate::service::{Service, MIGRATION_HORIZON};
use cellstream_core::scheduler::PlanContext;
use cellstream_core::{evaluate_with, Mapping, MappingDelta, Stop};
use cellstream_heuristics::Portfolio;
use std::thread::JoinHandle;
use std::time::Instant;

/// An in-flight background portfolio solve.
pub(crate) struct Background {
    stop: Stop,
    version: u64,
    handle: JoinHandle<Option<(Mapping, f64)>>,
}

impl Service {
    /// Conclude a finished background solve, if any: adopt it when it
    /// beats the incumbent including migration cost. Returns `None`
    /// while the solve is still running (it is *not* interrupted) or
    /// when none was started.
    pub fn poll_background(&mut self) -> Option<ServeReport> {
        if self.background.as_ref().is_some_and(|bg| !bg.handle.is_finished()) {
            return None;
        }
        let started = Instant::now();
        let adopted = self.reap_background(false)?;
        let delta = self.adoption_delta.take().unwrap_or_default();
        let verdict = if adopted { Verdict::Adopted } else { Verdict::NoChange };
        let headline = (EventLabel::background(), verdict.clone());
        let mut report = self.report(headline, started, delta, None);
        report.background_adopted = adopted;
        Some(self.finish(report, std::iter::once(&verdict)))
    }

    /// Cancel and discard any in-flight background solve (used on
    /// shutdown; events do this implicitly).
    pub fn shutdown(&mut self) {
        let _ = self.reap_background(true);
    }

    /// Launch the asynchronous full-portfolio re-solve for the current
    /// workload (no-op when disabled or idle). Any previous solve must
    /// already be reaped.
    pub(crate) fn spawn_background(&mut self) {
        let Some(budget) = self.opts.background else { return };
        let Some(live) = self.live.as_ref() else { return };
        debug_assert!(self.background.is_none(), "reap before spawn");
        let stop = Stop::new().within(budget);
        let ctx = PlanContext {
            seeds: vec![live.mapping.clone()],
            stop: stop.clone(),
            ..Default::default()
        };
        let g = live.workload.graph().clone();
        let spec = self.spec.clone();
        let handle = std::thread::spawn(move || {
            Portfolio::standard().run_with(&g, &spec, &ctx).ok().map(|o| {
                let period = o.best.period();
                (o.best.mapping, period)
            })
        });
        self.background = Some(Background { stop, version: self.version, handle });
    }

    /// Join the background solve (cancelling first when `abort`) and
    /// apply the adoption rule, stashing an adoption's seat changes in
    /// `adoption_delta` for the next report to surface exactly once.
    /// `None` when no solve was in flight.
    pub(crate) fn reap_background(&mut self, abort: bool) -> Option<bool> {
        let bg = self.background.take()?;
        if abort {
            bg.stop.cancel();
        }
        let result = bg.handle.join().ok().flatten();
        self.adoption_delta = None;
        let (mapping, period) = result?;
        if bg.version != self.version {
            return Some(false); // stale: the workload changed meanwhile
        }
        let Some(live) = self.live.as_mut() else {
            return Some(false);
        };
        // the portfolio plans against the nominal platform; on an
        // impaired one its candidate is refused when it seats work on a
        // dead PE. Live PEs run at nominal speed, so a feasible
        // candidate's live period is its nominal one
        if !self.avail.all_healthy() {
            let live_ok = evaluate_with(live.workload.graph(), &self.spec, &self.avail, &mapping)
                .is_ok_and(|rep| rep.is_feasible());
            if !live_ok {
                return Some(false);
            }
        }

        let gain = live.period - period;
        if gain <= 0.0 {
            return Some(false);
        }
        let delta = MappingDelta::between(
            live.workload.graph(),
            &live.mapping,
            live.workload.graph(),
            &mapping,
        );
        // migration-aware adoption: the one-off EIB transfer must pay
        // for itself within the amortisation horizon
        if gain * MIGRATION_HORIZON <= delta.migration_time(&self.spec) {
            return Some(false);
        }
        live.mapping = mapping;
        live.period = period;
        self.adoption_delta = Some(delta);
        Some(true)
    }
}
