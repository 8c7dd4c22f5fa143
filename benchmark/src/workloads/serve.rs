//! `serve_single` and `serve_burst` — op = one event against one
//! `Service` on a `qs22`.
//!
//! Both replay a seeded steady-state churn trace (see [`crate::gen`])
//! over a filled service and differ in how events are delivered:
//!
//! * `serve_single` — one event per `Service::process` call, 12
//!   residents, `max_period` + `queue_rejected` on (so some admissions
//!   are refused), 2 % faults. Every op pays compose → carry-over →
//!   repair → verify → report in full: the latency workload.
//! * `serve_burst` — fixed 20-event bursts (8 retire + 8 admit + 4
//!   reweight, distinct applications) through `Service::process_batch`,
//!   24 residents, no guarantee (a guarantee forces the per-event
//!   path). The replan is amortised 20×, so per-event bookkeeping,
//!   telemetry and allocation dominate. Direct `process_batch`, not
//!   `ServePipeline`: thread-timed batch cuts would make the counts
//!   non-repeatable (one extra pipelined pass feeds the per-layer
//!   `pipeline.*` metrics only).
//!
//! Intake is closed-loop, one client: `ServePipeline` exposes no
//! per-event completion to the outside, so an open-loop fixed-rate
//! latency measurement has to wait for tracing inside the program.

use crate::affinity::with_all_cpus;
use crate::bound::{t_lb, Books};
use crate::clock::CpuInstant;
use crate::gen::{self, ChurnShape, BURST_LEN};
use crate::harness::{Layers, Pass, Workload};
use crate::spans::Tracer;
use crate::stats;
use cellstream::core::{evaluate_with, evaluate_workload_with, MappingDelta};
use cellstream::heuristics::repair::{carry_over_into, repair_with, RepairOptions};
use cellstream::platform::{CellSpec, PeId};
use cellstream::serve::{
    Event, PipelineOptions, ServePipeline, ServeReport, Service, ServiceOptions, Verdict,
};
use cellstream::sim::online::{EventTrace, TraceEvent};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Residents and events per pass of `serve_single` (~2 s of wall time
/// at this commit's 1.7 ms of CPU time per event).
const SINGLE_RESIDENT: usize = 12;
const SINGLE_OPS: usize = 800;
/// Residents and bursts per pass of `serve_burst` (~2 s of wall time at
/// 7.4 ms of CPU time per burst).
const BURST_RESIDENT: usize = 24;
const BURSTS: usize = 160;
/// Per-instance period guarantee of `serve_single`: the tightest cap
/// that refuses a few admissions and reweights per pass without
/// starving the retry queue. The edge is sharp — at 1.6e-5 one seed in
/// three keeps a fifth of its events queued and replans the queue on
/// every retirement, at 1.8e-5 nothing is ever refused.
const MAX_PERIOD: f64 = 1.7e-5;
/// `period / T_lb` is sampled after every this many ops.
const SAMPLE_EVERY: usize = 10;
/// The traced run replays the stage probes before every this many ops.
const PROBE_EVERY: usize = 5;

/// Inputs of either serving workload.
pub struct Input {
    spec: CellSpec,
    opts: ServiceOptions,
    fill: Vec<TraceEvent>,
    trace: EventTrace,
}

/// A filled service plus the benchmark's own books on it.
pub struct State {
    svc: Service,
    books: Books,
    dead: BTreeSet<PeId>,
}

/// The service options of the serving workloads (and of every fleet
/// node): the defaults, plus the guarantee and the retry queue for
/// `serve_single`.
pub fn service_options(guarantee: bool) -> ServiceOptions {
    let mut opts = ServiceOptions::default();
    if guarantee {
        opts.max_period = Some(MAX_PERIOD);
        opts.queue_rejected = true;
    }
    opts
}

fn input(opts: ServiceOptions, (fill, trace): (Vec<TraceEvent>, EventTrace)) -> Input {
    Input { spec: CellSpec::qs22(), opts, fill, trace: gen::round_trip(&trace) }
}

/// A service with `opts`, filled with the trace's start state.
fn fill_with(input: &Input, opts: &ServiceOptions) -> State {
    let mut svc = Service::with_options(input.spec.clone(), opts.clone());
    let mut books = Books::default();
    for ev in &input.fill {
        let TraceEvent::Admit { graph, weight } = ev else { unreachable!("fills only admit") };
        let report = svc.admit(graph, *weight);
        // the guarantee may refuse part of the fill; what was refused
        // waits in the retry queue like any later refusal
        assert!(
            report.applied() || matches!(report.verdict, Verdict::Queued),
            "fill admission neither applied nor queued: {:?}",
            report.verdict
        );
        books.record(ev, report.applied());
    }
    State { svc, books, dead: BTreeSet::new() }
}

fn fill(input: &Input) -> State {
    fill_with(input, &input.opts)
}

/// `T_lb` of what is resident now: membership from the service's app
/// list, every cost from the benchmark's own books and graphs.
fn resident_t_lb(input: &Input, state: &State) -> f64 {
    let apps = state.svc.apps().map(|(_, name)| state.books.work(name));
    t_lb(apps, input.spec.n_pes() - state.dead.len())
}

/// Fold one per-event report into the pass's counts and the books.
fn account(ev: &TraceEvent, report: &ServeReport, state: &mut State, pass: &mut Pass) {
    let applied = report.applied();
    let migrated = report.migration_bytes();
    pass.moved_bytes += migrated;
    pass.count("serve.migration_bytes", migrated);
    let moves = report.delta.n_moved()
        + report.background_delta.n_moved()
        + report.drained.iter().map(|d| d.delta.n_moved()).sum::<usize>();
    pass.count("serve.moves", moves as f64);
    pass.peak("serve.queue_peak", report.queue_depth as f64);
    pass.time("serve.replan_s", report.replan);
    if matches!(report.verdict, Verdict::Rejected(_) | Verdict::Queued) {
        pass.count("serve.rejected", 1.0);
        pass.time("serve.wasted_replan_s", report.replan);
    }
    for d in &report.drained {
        if matches!(d.verdict, Verdict::Rejected(_)) {
            pass.count("serve.expired", 1.0);
        }
    }
    if let Some(rec) = &report.recovery {
        pass.count("serve.shed", rec.shed.len() as f64);
    }
    state.books.record(ev, applied);
    match ev {
        TraceEvent::PeFailed { pe, .. } if applied => {
            state.dead.insert(*pe);
        }
        TraceEvent::PeRestored { pe, .. } if applied => {
            state.dead.remove(pe);
        }
        _ => {}
    }
}

/// The op kind an event is reported under.
fn kind_of(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::Admit { .. } => "admit",
        TraceEvent::Retire { .. } => "retire",
        TraceEvent::Reweight { .. } => "reweight",
        _ => "fault",
    }
}

/// Resolve a name-addressed trace event against the live service, as a
/// client holding names would. `None` when the name is not resident
/// (the system refused or shed it earlier).
fn resolve(svc: &Service, ev: &TraceEvent) -> Option<Event> {
    Some(match ev {
        TraceEvent::Admit { graph, weight } => Event::Admit(graph.clone(), *weight),
        TraceEvent::Retire { app } => Event::Retire(svc.handle_of(app)?),
        TraceEvent::Reweight { app, weight } => Event::Reweight(svc.handle_of(app)?, *weight),
        TraceEvent::PeFailed { pe, .. } => Event::PeFailed(*pe),
        TraceEvent::PeRestored { pe, .. } => Event::PeRestored(*pe),
        TraceEvent::CostDrift { app, factor } => Event::CostDrift(svc.handle_of(app)?, *factor),
        TraceEvent::NodeFailed { .. } | TraceEvent::NodeRestored { .. } => return None,
    })
}

/// The stage probes: replay, on a copy of the live workload and
/// mapping, the stages the next op will run inside the service —
/// recompose → carry-over → repair → verify/report — each under its own
/// span, plus a telemetry snapshot. Returns the time the four replayed
/// stages took, or `None` when the events carry no churn for a live
/// service (faults re-plan through the recovery path instead).
fn stage_probes(
    input: &Input,
    state: &State,
    events: &[&TraceEvent],
    op: u32,
    tr: &mut Tracer,
) -> Option<Duration> {
    let svc = &state.svc;
    let (Some(workload), Some(mapping)) = (svc.workload(), svc.mapping()) else { return None };
    if events.iter().any(|e| e.is_fault()) {
        return None;
    }
    let root = tr.begin("probe.stages", op);
    let started = CpuInstant::now();

    let span = tr.begin("graph.recompose", op);
    let mut next = workload.clone();
    {
        let mut batch = next.batch();
        for ev in events {
            match ev {
                TraceEvent::Admit { graph, weight } => {
                    batch.add(graph, *weight).expect("trace names are fresh");
                }
                TraceEvent::Retire { app } => {
                    if let Some(id) = batch.position(app) {
                        batch.retire(id).expect("position is in range");
                    }
                }
                TraceEvent::Reweight { app, weight } => {
                    if let Some(id) = batch.position(app) {
                        batch.reweight(id, *weight).expect("trace weights are positive");
                    }
                }
                _ => {}
            }
        }
        if batch.n_apps() == 0 {
            tr.end(span);
            tr.end(root);
            return None;
        }
        batch.commit().expect("non-empty batches recompose");
    }
    tr.end(span);

    let mut partial = Vec::new();
    tr.span("heuristics.carry_over", op, || {
        carry_over_into(workload.graph(), mapping, next.graph(), svc.spec(), &mut partial)
    });

    let avail = svc.availability();
    let ropts = RepairOptions {
        refine: input.opts.repair.clone(),
        avail: (!avail.all_healthy()).then(|| avail.clone()),
        ..RepairOptions::default()
    };
    let (repaired, _) = tr
        .span("heuristics.repair", op, || repair_with(next.graph(), svc.spec(), &partial, &ropts));

    tr.span("core.verify", op, || {
        let delta = MappingDelta::between(workload.graph(), mapping, next.graph(), &repaired);
        let report = evaluate_workload_with(&next, svc.spec(), avail, &repaired)
            .expect("repair returns valid mappings");
        std::hint::black_box((delta, report));
    });
    let stages = started.elapsed();
    tr.end(root);

    tr.span("telemetry.snapshot", op, || std::hint::black_box(svc.telemetry_snapshot()));
    Some(stages)
}

/// The serving oracle, after a pass: §3.2 on the live platform, the
/// period guarantee, snapshot conservation, and the books.
fn verify(input: &Input, state: &State, pass: &mut Pass) -> Result<(), String> {
    let svc = &state.svc;
    if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
        let report = evaluate_with(w.graph(), svc.spec(), svc.availability(), m)
            .map_err(|e| format!("incumbent is structurally invalid: {e}"))?;
        if !report.is_feasible() {
            return Err(format!("incumbent violates §3.2: {:?}", report.violations));
        }
        if (report.period - svc.period()).abs() > 1e-9 * report.period {
            return Err(format!("cached period {} evaluates to {}", svc.period(), report.period));
        }
        for app in w.apps() {
            if let Some(cap) = input.opts.max_period {
                if report.period / app.weight > cap * (1.0 + 1e-9) {
                    return Err(format!("{} runs past its guarantee", app.name));
                }
            }
            let weight = state.books.weight(&app.name);
            if weight.to_bits() != app.weight.to_bits() {
                return Err(format!("{}: weight {} vs books {weight}", app.name, app.weight));
            }
        }
        pass.count("serve.final_period", report.period);
    }
    if svc.availability().n_dead() != state.dead.len() {
        return Err(format!(
            "{} PEs dead, books say {}",
            svc.availability().n_dead(),
            state.dead.len()
        ));
    }
    let snap = svc.telemetry_snapshot();
    let gauge = |name: &str| snap.gauge(name).ok_or(format!("snapshot lacks {name}"));
    let (serving, queued) = (gauge("cellstream_serve_serving")?, gauge("cellstream_serve_queued")?);
    let (stranded, tracked) =
        (gauge("cellstream_serve_stranded")?, gauge("cellstream_serve_tracked")?);
    if tracked != serving + queued + stranded || serving != svc.n_apps() as f64 {
        return Err(format!(
            "conservation broken: tracked {tracked} serving {serving} queued {queued} \
             stranded {stranded} n_apps {}",
            svc.n_apps()
        ));
    }
    pass.count("serve.final_apps", serving);
    pass.count("serve.final_queued", queued);
    Ok(())
}

/// Per-layer metrics both serving workloads share.
fn layers(input: &Input, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers, burst: bool) {
    let first = traced[0];
    let med =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let secs = |key: &'static str| med(&|p| p.nominal_s(key));
    let count = |key: &str| first.counts.get(key).copied().unwrap_or(0.0);

    let (call_s, replan_s) = (med(&|p| p.total_s()), secs("serve.replan_s"));
    out.set("serve.call_s", call_s);
    out.set("serve.replan_s", replan_s);
    // the service times its replans on the wall clock: compare them
    // with the calls' wall time, which saw the same host
    let raw = |p: &Pass, key: &str| p.secs.get(key).copied().unwrap_or(0.0);
    out.set("serve.overhead_share", med(&|p| 1.0 - raw(p, "serve.replan_s") / p.calls_wall_s()));
    out.set("serve.admit_p50_us", med(&|p| p.kind_p50_ns("admit")) / 1e3);
    out.set("serve.retire_p50_us", med(&|p| p.kind_p50_ns("retire")) / 1e3);
    out.set("serve.reweight_p50_us", med(&|p| p.kind_p50_ns("reweight")) / 1e3);
    out.set("serve.fault_p50_us", med(&|p| p.kind_p50_ns("fault")) / 1e3);
    out.set("serve.batch_p50_ms", med(&|p| p.kind_p50_ns("batch")) / 1e6);
    out.set("serve.latency_p99_ms", med(&|p| p.latency_ms(99.0)));
    out.set("serve.moves", count("serve.moves"));
    out.set("serve.migration_bytes", count("serve.migration_bytes"));
    out.set("serve.rejected", count("serve.rejected"));
    out.set(
        "serve.wasted_replan_share",
        med(&|p| raw(p, "serve.wasted_replan_s") / raw(p, "serve.replan_s")),
    );
    out.set("serve.shed", count("serve.shed"));
    out.set("serve.queue_peak", count("serve.queue_peak"));
    out.set("serve.probe_coverage", secs("probe.stages_s") / secs("probe.calls_s"));

    // stage probes: mean self time per probe, from the spans (raw, so
    // scaled by the traced passes' speed)
    let speed = med(&|p| p.speed());
    let table = tr.stage_table();
    for (metric, span) in [
        ("graph.recompose_us", "graph.recompose"),
        ("heuristics.carry_over_us", "heuristics.carry_over"),
        ("heuristics.repair_us", "heuristics.repair"),
        ("core.verify_us", "core.verify"),
        ("telemetry.snapshot_us", "telemetry.snapshot"),
    ] {
        if let Some(row) = table.iter().find(|s| s.name == span) {
            out.set(metric, row.self_ns as f64 / row.calls as f64 / 1e3 * speed);
        }
    }

    // telemetry cost: the same pass with the metric cells off and on,
    // back to back, twice; untraced
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        for (slot, telemetry) in [false, true].into_iter().enumerate() {
            let opts = ServiceOptions { telemetry, ..input.opts.clone() };
            let mut state = fill_with(input, &opts);
            let mut pass = Pass::start();
            match burst {
                true => run_burst(input, &mut state, &mut pass, tr),
                false => run_single(input, &mut state, &mut pass, tr),
            }
            pass.finish();
            walls[slot].push(pass.total_s());
        }
    }
    let (off, on) = (stats::median(&walls[0]), stats::median(&walls[1]));
    out.set("telemetry.record_overhead_share", (on - off) / off);
}

fn run_single(input: &Input, state: &mut State, pass: &mut Pass, tr: &mut Tracer) {
    for (i, timed) in input.trace.events().iter().enumerate() {
        let (ev, op) = (&timed.event, i as u32);
        let probed = match tr.enabled() && i % PROBE_EVERY == 0 {
            true => stage_probes(input, state, &[ev], op, tr),
            false => None,
        };

        let started = CpuInstant::now();
        let span = tr.begin("serve.process", op);
        let report = resolve(&state.svc, ev)
            .map(|event| state.svc.process(event).expect("resolved events are well-formed"));
        tr.end(span);
        let lap = started.lap();

        if let (Some(stages), Some(_)) = (probed, &report) {
            pass.time("probe.stages_s", stages);
            pass.time("probe.calls_s", lap.cpu);
        }
        pass.op(kind_of(ev), lap, report.as_ref().is_some_and(ServeReport::applied));
        match &report {
            Some(r) => account(ev, r, state, pass),
            None => pass.count("serve.unknown", 1.0),
        }
        if (i + 1) % SAMPLE_EVERY == 0 && state.svc.period().is_finite() {
            pass.ratios.push(state.svc.period() / resident_t_lb(input, state));
        }
    }
}

fn run_burst(input: &Input, state: &mut State, pass: &mut Pass, tr: &mut Tracer) {
    for (b, burst) in input.trace.events().chunks(BURST_LEN).enumerate() {
        let op = b as u32;
        let events: Vec<&TraceEvent> = burst.iter().map(|t| &t.event).collect();
        let probed = match tr.enabled() && b % PROBE_EVERY == 0 {
            true => stage_probes(input, state, &events, op, tr),
            false => None,
        };

        let batch: Vec<Event> = events
            .iter()
            .map(|ev| resolve(&state.svc, ev).expect("bursts name resident applications"))
            .collect();
        let started = CpuInstant::now();
        let report = tr
            .span("serve.process_batch", op, || state.svc.process_batch(&batch))
            .expect("validated burst");
        let lap = started.lap();

        pass.time("serve.replan_s", report.replan);
        if let Some(stages) = probed {
            pass.time("probe.stages_s", stages);
            pass.time("probe.calls_s", lap.cpu);
        }
        // kinds make no sense inside a fused replan, only the batch as
        // a whole has one
        let applied = report.applied();
        pass.call("batch", lap, events.len() as u64, applied as u64);
        pass.moved_bytes += report.migration_bytes();
        pass.count("serve.migration_bytes", report.migration_bytes());
        pass.count("serve.moves", report.delta.n_moved() as f64);
        pass.count("serve.rejected", (events.len() - applied) as f64);
        // a fused burst applies every event or the oracle fails the pass
        for ev in &events {
            state.books.record(ev, true);
        }
        if state.svc.period().is_finite() {
            pass.ratios.push(state.svc.period() / resident_t_lb(input, state));
        }
    }
}

pub struct ServeSingle;

impl Workload for ServeSingle {
    type Input = Input;
    type State = State;
    const NAME: &'static str = "serve_single";
    const MIN_PASSES: usize = 6;

    fn generate(seed: u64) -> Input {
        let shape = ChurnShape {
            resident: SINGLE_RESIDENT,
            ops: SINGLE_OPS,
            fault_every: 50,
            nodes: 1,
            n_spe: 8,
        };
        input(service_options(true), gen::churn_trace(seed, &shape))
    }
    fn fill(input: &Input) -> State {
        fill(input)
    }
    fn run(input: &Input, state: &mut State, pass: &mut Pass, tr: &mut Tracer) {
        run_single(input, state, pass, tr)
    }
    fn verify(input: &Input, state: &State, pass: &mut Pass) -> Result<(), String> {
        verify(input, state, pass)
    }
    fn layers(input: &Input, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers) {
        layers(input, traced, tr, out, false)
    }
}

pub struct ServeBurst;

impl Workload for ServeBurst {
    type Input = Input;
    type State = State;
    const NAME: &'static str = "serve_burst";
    const MIN_PASSES: usize = 6;

    fn generate(seed: u64) -> Input {
        input(service_options(false), gen::burst_trace(seed, BURST_RESIDENT, BURSTS))
    }
    fn fill(input: &Input) -> State {
        fill(input)
    }
    fn run(input: &Input, state: &mut State, pass: &mut Pass, tr: &mut Tracer) {
        run_burst(input, state, pass, tr)
    }
    fn verify(input: &Input, state: &State, pass: &mut Pass) -> Result<(), String> {
        if pass.accepted != pass.ops {
            return Err(format!("{} of {} burst events applied", pass.accepted, pass.ops));
        }
        verify(input, state, pass)
    }
    fn layers(input: &Input, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers) {
        layers(input, traced, tr, out, true);

        // one extra pass through the concurrent intake pipeline, on
        // both cores: the planner thread cuts batches by timing, so its
        // numbers are per-layer diagnostics only
        let state = fill(input);
        let (pstats, wall, blocked) = with_all_cpus(|| {
            let pipe =
                ServePipeline::launch(state.svc, PipelineOptions { capacity: 256, max_batch: 32 });
            let started = Instant::now();
            let mut blocked = Duration::ZERO;
            for timed in input.trace.events() {
                let t = Instant::now();
                if pipe.submit(timed.event.clone()) {
                    blocked += t.elapsed();
                }
            }
            let (_svc, pstats) = pipe.finish();
            (pstats, started.elapsed().as_secs_f64(), blocked)
        });
        out.set("pipeline.events_per_s", pstats.events as f64 / wall);
        out.set("pipeline.mean_batch", pstats.mean_batch());
        out.set("pipeline.submit_blocked_s", blocked.as_secs_f64());
    }
}
