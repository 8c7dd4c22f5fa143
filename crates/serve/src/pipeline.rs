//! Concurrent serving: a lock-free intake ring feeding a planner thread.
//!
//! [`Service`] is single-threaded — every `process` call replans before
//! the caller may hand over the next event, so intake stalls for the
//! whole replan. [`ServePipeline`] splits the two roles across threads:
//! the **intake** side pushes name-addressed [`TraceEvent`]s into a
//! bounded [`SpscRing`] (a full ring hands the event back — the
//! backpressure signal), while the **planner** thread owns the
//! [`Service`] and drains whatever has accumulated since its last
//! replan into one [`Service::process_batch`] call. A burst that piled
//! up behind a slow replan is then amortised over a *single* compose +
//! carry-over + repair instead of paying one replan per event.
//!
//! Events are applied in submission order; the planner never reorders
//! across a dependency. [`Service::resolve_run`] cuts the batches: two
//! events touching the **same application name** (admit then retire,
//! retire then re-admit, ...) are split into separate batches, because
//! names resolve to handles against the live incumbent — the first
//! batch must commit before the second one's names make sense — and a
//! fault commits alone.
//!
//! [`ServePipeline::replay`] drives it straight from an [`EventTrace`].

use crate::metrics::ServeMetrics;
use crate::report::Verdict;
use crate::service::{Event, Service};
use cellstream_rt::SpscRing;
use cellstream_sim::online::{EventTrace, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tunables of one [`ServePipeline`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Intake ring slots; a full ring backpressures the submitter.
    pub capacity: usize,
    /// Largest burst fused into one [`Service::process_batch`] call.
    pub max_batch: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { capacity: 256, max_batch: 64 }
    }
}

/// What the planner thread did, harvested by [`ServePipeline::finish`].
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Events handed to the service (admits, retires, reweights).
    pub events: u64,
    /// Replans — `process_batch` calls covering those events.
    pub batches: u64,
    /// Events whose application name resolved to no live handle and
    /// that were therefore dropped (a retire racing a rejection, say).
    pub skipped: u64,
    /// Events the service refused (guarantee/feasibility/weight).
    pub rejected: u64,
    /// Most events ever fused into one replan.
    pub largest_batch: usize,
}

impl PipelineStats {
    /// Mean events per replan — the batching win over one-at-a-time.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.events as f64 / self.batches as f64
        }
    }
}

/// What [`ServePipeline::replay`] measured on the intake side.
/// Planner-side outcomes (batch sizes, final incumbent) come back from
/// [`ServePipeline::finish`]; replan latency is the service's own
/// `replan_ns` histogram ([`ServePipeline::metrics`]).
#[derive(Debug, Clone)]
pub struct IntakeReport {
    /// Events submitted (== the trace length).
    pub submitted: usize,
    /// Events the ring pushed back on at least once before accepting.
    pub backpressured: usize,
    /// Largest backlog observed right after a submission.
    pub peak_backlog: usize,
}

/// A [`Service`] behind a lock-free intake ring and a planner thread.
///
/// Submit name-addressed [`TraceEvent`]s from one thread (the SPSC
/// contract: a single submitting thread at a time); the planner applies
/// them asynchronously, batching whatever accumulates. [`finish`] joins
/// the planner and returns the service with its incumbent, plus the
/// batching statistics.
///
/// [`finish`]: Self::finish
#[derive(Debug)]
pub struct ServePipeline {
    ring: Arc<SpscRing<TraceEvent>>,
    done: Arc<AtomicBool>,
    planner: Option<JoinHandle<(Service, PipelineStats)>>,
    metrics: Arc<ServeMetrics>,
}

impl ServePipeline {
    /// Move `service` onto a fresh planner thread and open the intake.
    pub fn launch(service: Service, opts: PipelineOptions) -> Self {
        let ring = Arc::new(SpscRing::with_capacity(opts.capacity.max(1)));
        let done = Arc::new(AtomicBool::new(false));
        let metrics = service.metrics_handle();
        let planner = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            let max_batch = opts.max_batch.max(1);
            std::thread::spawn(move || planner_loop(service, &ring, &done, max_batch))
        };
        ServePipeline { ring, done, planner: Some(planner), metrics }
    }

    /// The service's metric cells, live while the planner runs: the
    /// submitting side can watch ring occupancy, batch shapes and
    /// replan latency without joining the planner.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Submit one event, yielding until the ring accepts it. Returns
    /// `true` if the ring refused it at least once first.
    pub fn submit(&self, mut ev: TraceEvent) -> bool {
        let mut refused = false;
        loop {
            match self.ring.try_push(ev) {
                Ok(()) => return refused,
                Err(back) => {
                    refused = true;
                    ev = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Events accepted but not yet popped by the planner.
    fn backlog(&self) -> usize {
        self.ring.len()
    }

    /// Submit a whole trace **as fast as backpressure allows**, ignoring
    /// its timestamps: the trace supplies ordering, the ring supplies
    /// pacing — the saturation mode: submission is pure queue handoff,
    /// while replanning proceeds concurrently on the planner thread.
    pub fn replay(&self, trace: &EventTrace) -> IntakeReport {
        let (mut backpressured, mut peak_backlog) = (0, 0);
        for te in trace.events() {
            backpressured += usize::from(self.submit(te.event.clone()));
            peak_backlog = peak_backlog.max(self.backlog());
        }
        IntakeReport { submitted: trace.len(), backpressured, peak_backlog }
    }

    /// Close the intake, drain the ring, join the planner, and return
    /// the service (with its final incumbent) and the batching stats.
    pub fn finish(mut self) -> (Service, PipelineStats) {
        self.done.store(true, Ordering::Release);
        let handle = self.planner.take().expect("finish runs once"); // check:allow(hot-path-panic): finish consumes self, so the handle is still present
        handle.join().expect("planner thread never panics") // check:allow(hot-path-panic): propagating a planner panic is the right failure mode
    }
}

impl Drop for ServePipeline {
    fn drop(&mut self) {
        if let Some(handle) = self.planner.take() {
            self.done.store(true, Ordering::Release);
            let _ = handle.join();
        }
    }
}

fn planner_loop(
    mut service: Service,
    ring: &SpscRing<TraceEvent>,
    done: &AtomicBool,
    max_batch: usize,
) -> (Service, PipelineStats) {
    let metrics = service.metrics_handle();
    let mut stats = PipelineStats::default();
    let mut pending: VecDeque<TraceEvent> = VecDeque::with_capacity(max_batch);
    let mut events: Vec<Event> = Vec::with_capacity(max_batch);
    loop {
        while pending.len() < max_batch {
            match ring.try_pop() {
                Some(ev) => pending.push_back(ev),
                None => break,
            }
        }
        if pending.is_empty() {
            if done.load(Ordering::Acquire) && ring.is_empty() {
                break;
            }
            std::thread::yield_now();
            continue;
        }

        let occupancy = pending.len();
        // unknown names are dropped and counted, never blocking the batch
        let known = service.resolve_run(&mut pending, max_batch, &mut events);
        stats.skipped += known.iter().filter(|&&k| !k).count() as u64;
        if events.is_empty() {
            continue;
        }
        if metrics.enabled() {
            metrics.ring_occupancy.record(occupancy as u64);
            if events.len() < max_batch && !pending.is_empty() {
                // fusion ended early on a same-name dependency or a
                // fault barrier, not for lack of accumulated events
                metrics.skipped_fusions_total.inc();
            }
        }
        match service.process_batch(&events) {
            Ok(report) => {
                stats.events += events.len() as u64;
                stats.batches += 1;
                stats.largest_batch = stats.largest_batch.max(events.len());
                stats.rejected +=
                    report.events.iter().filter(|(_, v)| matches!(v, Verdict::Rejected(_))).count()
                        as u64;
            }
            // every handle was resolved against the live incumbent on
            // this same thread, so batch validation cannot fail — but if
            // it ever does, degrade to one-at-a-time rather than lose
            // the burst
            Err(_) => {
                for ev in events.drain(..) {
                    match service.process(ev) {
                        Ok(_) => {
                            stats.events += 1;
                            stats.batches += 1;
                        }
                        Err(_) => stats.skipped += 1,
                    }
                }
            }
        }
    }
    (service, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceOptions;
    use cellstream_apps::{audio, cipher, dsp, video};
    use cellstream_platform::{CellSpec, PeId};

    fn churn_trace() -> EventTrace {
        let audio = audio::graph().unwrap();
        let video = video::graph().unwrap();
        let cipher = cipher::graph().unwrap();
        let dsp = dsp::graph().unwrap();
        EventTrace::new(0.30)
            .at(0.00, TraceEvent::Admit { graph: audio.clone(), weight: 1.0 })
            .at(0.02, TraceEvent::Admit { graph: video.clone(), weight: 1.0 })
            .at(0.04, TraceEvent::Admit { graph: cipher.clone(), weight: 2.0 })
            .at(0.06, TraceEvent::Reweight { app: audio.name().into(), weight: 2.0 })
            .at(0.08, TraceEvent::Admit { graph: dsp.clone(), weight: 1.0 })
            .at(0.10, TraceEvent::Retire { app: video.name().into() })
            .at(0.12, TraceEvent::Admit { graph: video.renamed("video-2"), weight: 1.0 })
            .at(0.14, TraceEvent::Reweight { app: cipher.name().into(), weight: 1.0 })
            .at(0.16, TraceEvent::Retire { app: audio.name().into() })
            .at(0.18, TraceEvent::Admit { graph: audio.renamed("audio-2"), weight: 2.0 })
            .at(0.20, TraceEvent::Retire { app: dsp.name().into() })
    }

    /// Apply a trace to a plain single-threaded service, resolving
    /// names exactly the way the planner thread does.
    fn replay_sequential(svc: &mut Service, trace: &EventTrace) {
        for te in trace.events() {
            match &te.event {
                TraceEvent::Admit { graph, weight } => {
                    svc.admit(graph, *weight);
                }
                TraceEvent::Retire { app } => {
                    let id = svc.handle_of(app).expect("trace retires live apps");
                    svc.retire(id).unwrap();
                }
                TraceEvent::Reweight { app, weight } => {
                    let id = svc.handle_of(app).expect("trace reweights live apps");
                    svc.reweight(id, *weight).unwrap();
                }
                other => panic!("churn traces carry no fault events: {other:?}"),
            }
        }
    }

    #[test]
    fn pipelined_replay_matches_sequential_final_state() {
        let spec = CellSpec::qs22();
        let trace = churn_trace();

        let mut seq = Service::new(spec.clone());
        replay_sequential(&mut seq, &trace);

        let pipe = ServePipeline::launch(Service::new(spec), PipelineOptions::default());
        let intake = pipe.replay(&trace);
        let (svc, stats) = pipe.finish();

        assert_eq!(intake.submitted, trace.len());
        assert_eq!(stats.skipped, 0, "every name resolves in submission order");
        assert_eq!(stats.events, trace.len() as u64);
        assert!(stats.batches as usize <= trace.len());

        // same surviving applications under the same names and weights
        let names = |s: &Service| -> Vec<String> { s.apps().map(|(_, n)| n.to_owned()).collect() };
        assert_eq!(names(&svc), names(&seq));
        assert_eq!(svc.workload(), seq.workload());
        // both incumbents feasible, periods in the same band (different
        // warm starts may land in different local optima)
        let (a, b) = (svc.period(), seq.period());
        assert!(a.is_finite() && b.is_finite());
        assert!(a <= b * 2.0 + 1e-12 && b <= a * 2.0 + 1e-12, "periods {a} vs {b}");
    }

    #[test]
    fn tiny_ring_backpressures_without_losing_events() {
        let trace = churn_trace();
        let pipe = ServePipeline::launch(
            Service::new(CellSpec::ps3()),
            PipelineOptions { capacity: 2, max_batch: 4 },
        );
        let intake = pipe.replay(&trace);
        let (svc, stats) = pipe.finish();
        assert_eq!(intake.submitted, trace.len());
        assert!(intake.peak_backlog <= 2);
        assert!(intake.backpressured <= intake.submitted);
        assert_eq!(stats.events + stats.skipped, trace.len() as u64);
        assert_eq!(stats.skipped, 0);
        assert_eq!(svc.n_apps(), 3, "audio-2, cipher and video-2 survive");
    }

    #[test]
    fn batches_cut_at_same_name_dependencies() {
        let g = audio::graph().unwrap();
        let svc = Service::new(CellSpec::ps3());
        let mut pending: VecDeque<TraceEvent> = VecDeque::from([
            TraceEvent::Admit { graph: g.clone(), weight: 1.0 },
            TraceEvent::Retire { app: g.name().into() },
            TraceEvent::Admit { graph: g.clone(), weight: 2.0 },
            TraceEvent::Admit { graph: g.renamed("other"), weight: 1.0 },
        ]);
        let mut events = Vec::new();

        // batch 1: just the first admit — the retire names it
        let known = svc.resolve_run(&mut pending, 16, &mut events);
        assert_eq!(known, [true]);
        assert!(matches!(events[..], [Event::Admit(..)]));
        assert_eq!(pending.len(), 3);

        // the retire now resolves only once batch 1 committed; against
        // the still-idle service it is an unknown name and is dropped —
        // the re-admit and the unrelated admit then fuse
        let known = svc.resolve_run(&mut pending, 16, &mut events);
        assert_eq!(known, [false, true, true], "retire of a never-admitted name is dropped");
        assert_eq!(events.len(), 2);
        assert!(pending.is_empty());
    }

    #[test]
    fn faults_resolve_alone_and_only_for_node_zero() {
        let g = audio::graph().unwrap();
        let mut svc = Service::new(CellSpec::ps3());
        svc.admit(&g, 1.0).admitted().unwrap();
        let mut pending: VecDeque<TraceEvent> = VecDeque::from([
            TraceEvent::Reweight { app: g.name().into(), weight: 2.0 },
            TraceEvent::PeFailed { node: 0, pe: PeId(2) },
            TraceEvent::CostDrift { app: "ghost".into(), factor: 2.0 },
            TraceEvent::NodeFailed { node: 0 },
            TraceEvent::PeRestored { node: 3, pe: PeId(2) },
        ]);
        let mut events = Vec::new();
        // the churn flushes first; each fault then travels alone
        assert_eq!(svc.resolve_run(&mut pending, 16, &mut events), [true]);
        assert!(matches!(events[..], [Event::Reweight(..)]));
        assert_eq!(svc.resolve_run(&mut pending, 16, &mut events), [true]);
        assert!(matches!(events[..], [Event::PeFailed(PeId(2))]));
        // unknown names, whole-node loss and other nodes' impairments
        // mean nothing to a single node
        for _ in 0..3 {
            assert_eq!(svc.resolve_run(&mut pending, 16, &mut events), [false]);
            assert!(events.is_empty());
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn pipelined_same_name_churn_lands_on_the_re_admission() {
        let g = audio::graph().unwrap();
        let trace = EventTrace::new(0.10)
            .at(0.00, TraceEvent::Admit { graph: g.clone(), weight: 1.0 })
            .at(0.02, TraceEvent::Retire { app: g.name().into() })
            .at(0.04, TraceEvent::Admit { graph: g.clone(), weight: 2.0 })
            .at(0.06, TraceEvent::Reweight { app: g.name().into(), weight: 3.0 });
        let pipe = ServePipeline::launch(Service::new(CellSpec::ps3()), PipelineOptions::default());
        pipe.replay(&trace);
        let (svc, stats) = pipe.finish();
        assert_eq!(stats.skipped, 0);
        assert_eq!(svc.n_apps(), 1);
        let w = svc.workload().expect("one app lives");
        assert_eq!(w.apps().len(), 1);
        assert_eq!(w.apps()[0].name, g.name());
        assert!((w.apps()[0].weight - 3.0).abs() < 1e-12, "the reweight landed last");
    }

    #[test]
    fn guarantee_mode_pipeline_still_gates_admissions() {
        let opts = ServiceOptions { max_period: Some(1e-9), ..ServiceOptions::default() };
        let pipe = ServePipeline::launch(
            Service::with_options(CellSpec::ps3(), opts),
            PipelineOptions::default(),
        );
        let trace = EventTrace::new(0.02)
            .at(0.00, TraceEvent::Admit { graph: video::graph().unwrap(), weight: 1.0 });
        pipe.replay(&trace);
        let (svc, stats) = pipe.finish();
        assert_eq!(svc.n_apps(), 0, "an impossible guarantee admits nothing");
        assert_eq!(stats.rejected, 1);
    }
}
