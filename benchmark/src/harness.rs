//! The run shape every workload shares.
//!
//! One run = a sequence of identical *passes*. A pass sets up from
//! scratch (generate the inputs from the seed, round-trip them through
//! JSON, build and fill the start state — timed as one set-up sample),
//! then replays the workload's fixed list of ops, each call into the
//! system timed on its own, then runs the correctness oracle. Pass 0 is
//! the untimed warm-up; timed passes repeat until `--seconds` have been
//! measured, and never fewer than the workload's minimum.
//!
//! **Every time is CPU time on a nominal machine.** The sandbox this
//! was sized on shares its cores: the host steals them for milliseconds
//! at a time, and between thefts the same instructions take 1.0–1.6× as
//! long from one tenth of a second to the next, at a level that drifts
//! over minutes (CPU time tracks it — the core is slower, not
//! descheduled). Raw wall-clock medians of bit-identical runs differed
//! by 20–40 % between processes. So the harness
//!
//! * reads the process's CPU clock, not the wall clock
//!   ([`crate::clock`]), which leaves the thefts out — and reports the
//!   calls' wall time over their CPU time beside it (`wall_over_cpu`),
//!   so a call that waits cannot hide;
//! * runs a fixed *reference slice* ([`ref_slice_ns`], ~0.17 ms of
//!   sorting) on the measuring thread between calls, at most once a
//!   millisecond, and scales each call by [`REF_NOMINAL_NS`] over the
//!   mean of the two slices around it — the process is confined to one
//!   CPU so slices and calls share a core, and the process clock of a
//!   workload with two threads still means elapsed time;
//! * reports each call, and each latency sample, at its *lower
//!   quartile over the passes*. Passes are replays, so call *i* of one
//!   pass is call *i* of every other; the host only ever adds time, so
//!   a disturbed replay is outvoted from below. `ops_per_s` is ops over
//!   the sum of those call times, a latency percentile is taken over
//!   those samples.
//!
//! Count metrics must repeat bit for bit in every pass, the warm-up
//! included, or the run fails: same inputs ⇒ same placements is the
//! system's determinism contract.

use crate::affinity::confine_to_one_cpu;
use crate::clock::{CpuInstant, Lap};
use crate::metrics::{per_layer_unit, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes to measure.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

/// What the reference slice takes on the machine every reported time is
/// scaled to, in nanoseconds: about what it takes on the sandbox this
/// was sized on while the host is quiet.
pub const REF_NOMINAL_NS: f64 = 175_000.0;

/// A pass takes a reference slice after a call only when the last one
/// is at least this old, so sub-millisecond ops are not outweighed by
/// their own yardstick; calls in between share a pair of slices.
const SLICE_GAP: Duration = Duration::from_millis(1);

/// The reference slice: 30 sorts of 1 024 freshly scrambled words —
/// branchy, data-dependent, L1-resident, like the planners' inner
/// loops — timed in nanoseconds. Its raw median is the per-layer
/// `harness.ref_kernel_ms`, so raw time = reported time × that ÷
/// [`REF_NOMINAL_NS`].
pub fn ref_slice_ns() -> u64 {
    let t = CpuInstant::now();
    let mut words = [0u32; 1024];
    let mut acc = 0u64;
    for round in 0..30u32 {
        for (i, w) in words.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(2654435761).wrapping_add(round) >> 7;
        }
        words.sort_unstable();
        acc += u64::from(words[round as usize % words.len()]);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// A raw duration between two reference slices, on the nominal
/// machine, in seconds.
fn to_nominal_s(raw: Duration, before_ns: u64, after_ns: u64) -> f64 {
    raw.as_secs_f64() * REF_NOMINAL_NS / ((before_ns + after_ns) as f64 / 2.0)
}

/// One timed call into the system.
#[derive(Debug, Clone, Copy)]
struct Call {
    /// Raw CPU time.
    ns: u64,
    /// Raw wall time.
    wall_ns: u64,
    /// Index of the last reference slice taken before the call was
    /// recorded; the next index is the first one taken after it.
    slice: u32,
}

/// A pass's times on the nominal machine, computed when it ends.
#[derive(Debug, Default)]
struct Scaled {
    /// Per call, in recording order, nanoseconds.
    calls: Vec<f64>,
    /// Latency samples, in recording order, nanoseconds.
    lat: Vec<f64>,
    /// `REF_NOMINAL_NS` over the pass's mean slice: what the pass's
    /// accumulators are multiplied by.
    speed: f64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Raw wall time of the op replay, harness bookkeeping and
    /// reference slices included.
    pub wall: Duration,
    /// Raw wall and CPU time of the calls alone.
    calls_wall: Duration,
    calls_cpu: Duration,
    /// Ops attempted.
    pub ops: u64,
    /// Ops applied and verified.
    pub accepted: u64,
    /// §4.2 migration bytes plus fleet network bytes the pass moved.
    pub moved_bytes: f64,
    /// `period / T_lb` at the workload's fixed sampling points.
    pub ratios: Vec<f64>,
    /// Model-side counts; compared bit for bit across passes.
    pub counts: BTreeMap<&'static str, f64>,
    /// Raw time accumulators (seconds) and sample tallies the per-layer
    /// metrics read; timings, so never compared.
    pub secs: BTreeMap<&'static str, f64>,
    calls: Vec<Call>,
    /// Latency samples: raw nanoseconds and the call each belongs to.
    samples: Vec<(u64, u32)>,
    /// Calls by op kind.
    kinds: BTreeMap<&'static str, Vec<u32>>,
    slices: Vec<u64>,
    last_slice: Option<Instant>,
    scaled: Scaled,
}

impl Pass {
    /// A pass about to start: takes the opening reference slice.
    pub fn start() -> Pass {
        let mut pass = Pass::default();
        pass.take_slice();
        pass
    }

    fn take_slice(&mut self) {
        self.slices.push(ref_slice_ns());
        self.last_slice = Some(Instant::now());
    }

    fn record(&mut self, kind: &'static str, lap: Lap) -> u32 {
        let latency = lap.cpu;
        self.calls_wall += lap.wall;
        self.calls_cpu += lap.cpu;
        let id = self.calls.len() as u32;
        // only tests build a pass without `start`
        let slice = self.slices.len().saturating_sub(1) as u32;
        self.calls.push(Call {
            ns: latency.as_nanos() as u64,
            wall_ns: lap.wall.as_nanos() as u64,
            slice,
        });
        self.kinds.entry(kind).or_default().push(id);
        if self.last_slice.is_some_and(|t| t.elapsed() >= SLICE_GAP) {
            self.take_slice();
        }
        id
    }

    /// Record one op carried by one call: its kind, its call latency,
    /// whether it was applied.
    pub fn op(&mut self, kind: &'static str, lap: Lap, accepted: bool) {
        self.call(kind, lap, 1, u64::from(accepted));
    }

    /// Record one call that carried `ops` ops (a burst): every op
    /// completes when the call does, so each gets the call's latency.
    pub fn call(&mut self, kind: &'static str, lap: Lap, ops: u64, accepted: u64) {
        let id = self.record(kind, lap);
        self.ops += ops;
        self.accepted += accepted;
        let ns = lap.cpu.as_nanos() as u64;
        self.samples.extend(std::iter::repeat_n((ns, id), ops as usize));
    }

    /// Record one call whose ops have latencies of their own (a stream
    /// segment: the call is the engine run, a sample is one instance's
    /// source-to-sink time).
    pub fn segment(
        &mut self,
        kind: &'static str,
        lap: Lap,
        ops: u64,
        accepted: u64,
        latencies_ns: impl IntoIterator<Item = u64>,
    ) {
        let id = self.record(kind, lap);
        self.ops += ops;
        self.accepted += accepted;
        self.samples.extend(latencies_ns.into_iter().map(|ns| (ns, id)));
    }

    /// Add to a model-side count.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// Raise a model-side high-water mark.
    pub fn peak(&mut self, name: &'static str, value: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(value);
    }

    /// Add to a time accumulator.
    pub fn time(&mut self, name: &'static str, d: Duration) {
        self.tally(name, d.as_secs_f64());
    }

    /// Add to an uncompared tally (how many samples an accumulator
    /// holds, say).
    pub fn tally(&mut self, name: &'static str, by: f64) {
        *self.secs.entry(name).or_insert(0.0) += by;
    }

    /// End the pass: take the closing reference slice and put every
    /// call and latency sample on the nominal machine.
    pub fn finish(&mut self) {
        self.take_slice();
        self.scale();
    }

    fn scale(&mut self) {
        let factor = |c: &Call| {
            let i = c.slice as usize;
            // the closing slice guarantees every call a slice after it
            REF_NOMINAL_NS / ((self.slices[i] + self.slices[i + 1]) as f64 / 2.0)
        };
        let factors: Vec<f64> = self.calls.iter().map(factor).collect();
        let calls = self.calls.iter().zip(&factors).map(|(c, f)| c.ns as f64 * f).collect();
        let lat =
            self.samples.iter().map(|(ns, call)| *ns as f64 * factors[*call as usize]).collect();
        let mean_slice = self.slices.iter().sum::<u64>() as f64 / self.slices.len() as f64;
        self.scaled = Scaled { calls, lat, speed: REF_NOMINAL_NS / mean_slice };
        self.samples = Vec::new();
    }

    /// The fingerprint compared across passes: every count, bit for
    /// bit.
    fn fingerprint(&self) -> Vec<(String, u64)> {
        let mut f: Vec<(String, u64)> = vec![
            ("ops".into(), self.ops),
            ("accepted".into(), self.accepted),
            ("calls".into(), self.calls.len() as u64),
            ("moved_bytes".into(), self.moved_bytes.to_bits()),
            ("ratio_samples".into(), self.ratios.len() as u64),
        ];
        f.extend(self.ratios.iter().enumerate().map(|(i, r)| (format!("ratio[{i}]"), r.to_bits())));
        f.extend(self.counts.iter().map(|(k, v)| ((*k).to_owned(), v.to_bits())));
        f
    }

    /// The first count on which `other` is not a bit-for-bit replay of
    /// this pass, if any.
    fn differs_from(&self, other: &Pass) -> Option<String> {
        let (a, b) = (self.fingerprint(), other.fingerprint());
        if a.len() != b.len() {
            return Some(format!("{} counts vs {}", a.len(), b.len()));
        }
        a.iter()
            .zip(&b)
            .find(|(x, y)| x != y)
            .map(|(x, y)| format!("{} = {:#x}, {} = {:#x}", x.0, x.1, y.0, y.1))
    }

    /// Sum of the pass's calls on the nominal machine, seconds.
    pub fn total_s(&self) -> f64 {
        self.scaled.calls.iter().sum::<f64>() / 1e9
    }

    /// Nearest-rank percentile of the pass's latency samples on the
    /// nominal machine, milliseconds.
    pub fn latency_ms(&self, p: f64) -> f64 {
        stats::percentile_sorted(&stats::sorted(&self.scaled.lat), p) / 1e6
    }

    /// Median call latency of one op kind on the nominal machine,
    /// nanoseconds (0 when the pass has no call of the kind).
    pub fn kind_p50_ns(&self, kind: &str) -> f64 {
        self.kinds.get(kind).map_or(0.0, |ids| {
            let v: Vec<f64> = ids.iter().map(|i| self.scaled.calls[*i as usize]).collect();
            stats::median(&v)
        })
    }

    /// Raw wall time of the pass's calls, seconds.
    pub fn calls_wall_s(&self) -> f64 {
        self.calls_wall.as_secs_f64()
    }

    /// Wall time of the pass's calls over their CPU time: 1 on a core
    /// nobody else uses, unless calls wait.
    pub fn wall_over_cpu(&self) -> f64 {
        self.calls_wall.as_secs_f64() / self.calls_cpu.as_secs_f64()
    }

    /// An accumulator on the nominal machine (scaled by the pass's mean
    /// reference slice), seconds.
    pub fn nominal_s(&self, key: &str) -> f64 {
        self.secs.get(key).copied().unwrap_or(0.0) * self.scaled.speed
    }

    /// What a raw time measured during the pass is multiplied by to put
    /// it on the nominal machine: [`REF_NOMINAL_NS`] over the pass's
    /// mean reference slice.
    pub fn speed(&self) -> f64 {
        self.scaled.speed
    }
}

/// Run `f` between two reference slices and return its result and the
/// CPU time it took on the nominal machine, in seconds: for the
/// diagnostics a traced run makes outside its passes.
pub fn on_nominal_machine<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = ref_slice_ns();
    let t = CpuInstant::now();
    let out = f();
    let raw = t.elapsed();
    (out, to_nominal_s(raw, before, ref_slice_ns()))
}

/// Per-layer metrics of a traced run, by registered name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a per-layer metric. Panics on a name the registry does not
    /// know — `BENCHMARK.json` must list everything a run can print.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(per_layer_unit(name).is_some(), "unregistered per-layer metric {name}");
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// One workload: how to build its inputs and start state, replay its
/// ops, and check its outputs.
pub trait Workload {
    /// Inputs generated from the seed.
    type Input;
    /// The start state one pass replays against.
    type State;
    /// Workload name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Fewest timed passes a run may report from.
    const MIN_PASSES: usize;

    /// Generate the inputs from the seed, through the JSON round trip.
    fn generate(seed: u64) -> Self::Input;
    /// Build and fill the start state.
    fn fill(input: &Self::Input) -> Self::State;
    /// Replay the ops, recording every call into the system on `pass`.
    fn run(input: &Self::Input, state: &mut Self::State, pass: &mut Pass, tr: &mut Tracer);
    /// The correctness oracle, after the replay: `Err` fails the run.
    fn verify(input: &Self::Input, state: &Self::State, pass: &mut Pass) -> Result<(), String>;
    /// Per-layer metrics of the traced run: reductions of the traced
    /// passes plus whatever extra probes the workload defines.
    fn layers(input: &Self::Input, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers);
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Registered name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// `true` when every oracle check held in every pass.
    pub correct: bool,
    /// Ops executed in timed passes.
    pub attempted: u64,
    /// Ops whose result failed verification.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics
    /// (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// The failed check, if any.
    pub error: Option<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line the driver reads: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups a run performs before its warm-up pass, so that `setup_s` is
/// a median of at least this many samples even when passes are few.
const EXTRA_SETUPS: usize = 6;

/// Each column's lower quartile over the rows: `rows` holds one row per
/// pass — its scaled call times, or its latency samples — and the
/// passes are replays, so a column is one call (one sample) seen once
/// per pass. The host only ever adds time — a theft's cold caches, the
/// deep queues a preempted consumer leaves behind — so a column's low
/// values are the ones the code decides; the reference slices add
/// noise in both directions, so not the lowest.
fn lower_quartile_columns(rows: &[&[f64]]) -> Vec<f64> {
    let n = rows.first().map_or(0, |r| r.len());
    let mut column = vec![0.0f64; rows.len()];
    (0..n)
        .map(|i| {
            for (cell, row) in column.iter_mut().zip(rows) {
                *cell = row[i];
            }
            column.sort_by(f64::total_cmp);
            stats::percentile_sorted(&column, 25.0)
        })
        .collect()
}

/// Wall time over CPU time of the calls, with the host's thefts voted
/// out: a call's ratio is the *lowest* its replays show — a call that
/// waits (sleeps, parks, blocks on a helper thread) waits in every
/// pass, a theft hits a replay or two — and the calls are weighted by
/// `weights`, their reported times.
fn wall_over_cpu(passes: &[&Pass], weights: &[f64]) -> f64 {
    let ratio = |c: &Call| c.wall_ns as f64 / c.ns.max(1) as f64;
    let lowest = |i: usize| passes.iter().map(|p| ratio(&p.calls[i])).fold(f64::INFINITY, f64::min);
    let weighted: f64 = weights.iter().enumerate().map(|(i, w)| w * lowest(i)).sum();
    weighted / weights.iter().sum::<f64>()
}

/// Run one workload to completion and reduce it to its metrics.
pub fn run<W: Workload>(args: &Args) -> (Outcome, Tracer) {
    assert_eq!(args.workload, W::NAME);
    // slices and calls must share a core; threads a workload spawns
    // inherit the mask
    let confined = confine_to_one_cpu();
    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let (mut gen_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut deadline: Option<Instant> = None;
    let mut last_input = None;

    // every pass starts from nothing, so every pass is a set-up sample
    let set_up = |gen_s: &mut Vec<f64>, setup_s: &mut Vec<f64>| {
        let s0 = ref_slice_ns();
        let t = CpuInstant::now();
        let input = W::generate(args.seed);
        let gen = t.elapsed();
        let s1 = ref_slice_ns();
        let t = CpuInstant::now();
        let state = W::fill(&input);
        let fill = t.elapsed();
        let s2 = ref_slice_ns();
        gen_s.push(to_nominal_s(gen, s0, s1));
        setup_s.push(to_nominal_s(gen, s0, s1) + to_nominal_s(fill, s1, s2));
        (input, state)
    };
    for _ in 0..EXTRA_SETUPS {
        std::hint::black_box(set_up(&mut gen_s, &mut setup_s));
    }

    let failure = loop {
        let idx = passes.len();
        let pass_started = Instant::now();
        let (input, mut state) = set_up(&mut gen_s, &mut setup_s);

        // the traced run alternates traced and plain passes, so one run
        // prices its own tracing overhead; pass 0 is the warm-up
        tracer.set_recording(args.trace && idx % 2 == 1);
        let mut pass = Pass::start();
        let t = Instant::now();
        W::run(&input, &mut state, &mut pass, &mut tracer);
        pass.wall = t.elapsed();
        pass.finish();
        tracer.set_recording(false);

        if let Err(e) = W::verify(&input, &state, &mut pass) {
            break Some(format!("pass {idx}: {e}"));
        }
        if let Some(diff) = passes.first().and_then(|first| first.differs_from(&pass)) {
            break Some(format!("pass {idx} is not a replay of pass 0: {diff}"));
        }
        drop(state);
        passes.push(pass);
        last_input = Some(input);

        let now = Instant::now();
        let end = *deadline.get_or_insert(now + Duration::from_secs_f64(args.seconds));
        let timed = passes.len() - 1;
        // a traced run needs a traced and a plain timed pass at least
        let min = if args.trace { W::MIN_PASSES.max(2) } else { W::MIN_PASSES };
        // stop where a further pass would end further from the deadline
        // than this one did
        if timed >= min && now + (now - pass_started) / 2 >= end {
            break None;
        }
    };

    let timed: Vec<&Pass> = passes.iter().skip(1).collect();
    let mut notes = Vec::new();
    if let Some(e) = &failure {
        let outcome = Outcome {
            correct: false,
            attempted: timed.iter().map(|p| p.ops).sum::<u64>().max(1),
            failed: 1,
            metrics: Vec::new(),
            error: Some(e.clone()),
            notes,
        };
        return (outcome, tracer);
    }

    let first = &passes[0];
    let ops = first.ops;
    let slices: Vec<f64> =
        passes.iter().flat_map(|p| p.slices.iter().map(|ns| *ns as f64)).collect();
    notes.push(format!(
        "{}: seed {}, {} timed passes of {} ops in {} calls ({} latency samples each) after 1 \
         warm-up pass, {} set-ups, {}",
        W::NAME,
        args.seed,
        timed.len(),
        ops,
        first.calls.len(),
        first.scaled.lat.len(),
        setup_s.len(),
        match confined {
            true => "confined to one CPU",
            false => "NOT confined to one CPU (affinity refused)",
        },
    ));
    let list = |v: &[f64], digits: usize| {
        v.iter().map(|x| format!("{x:.digits$}")).collect::<Vec<_>>().join(" ")
    };
    let walls: Vec<f64> = timed.iter().map(|p| p.wall.as_secs_f64()).collect();
    let totals: Vec<f64> = timed.iter().map(|p| p.total_s()).collect();
    notes.push(format!("raw pass walls (s): {}", list(&walls, 3)));
    notes.push(format!("pass totals on the nominal machine (s): {}", list(&totals, 3)));
    let raw_wall_over_cpu: Vec<f64> = timed.iter().map(|p| p.wall_over_cpu()).collect();
    let rows: Vec<&[f64]> = timed.iter().map(|p| p.scaled.calls.as_slice()).collect();
    let calls = lower_quartile_columns(&rows);
    let rows: Vec<&[f64]> = timed.iter().map(|p| p.scaled.lat.as_slice()).collect();
    let latencies = stats::sorted(&lower_quartile_columns(&rows));
    notes.push(format!("calls' raw wall over CPU time per pass: {}", list(&raw_wall_over_cpu, 3)));
    if calls.len() <= 16 {
        let ms: Vec<f64> = calls.iter().map(|ns| ns / 1e6).collect();
        notes.push(format!("call times on the nominal machine (ms): {}", list(&ms, 1)));
    }
    notes.push(format!(
        "reference slice: {} taken, median {:.1} us, nominal {:.1} us; every time below is \
         scaled to the nominal machine",
        slices.len(),
        stats::median(&slices) / 1e3,
        REF_NOMINAL_NS / 1e3,
    ));

    let metrics = if args.trace {
        let traced: Vec<&Pass> = passes.iter().skip(1).step_by(2).collect();
        let plain: Vec<f64> = totals.iter().skip(1).step_by(2).copied().collect();
        let traced_totals: Vec<f64> = totals.iter().step_by(2).copied().collect();
        let mut layers = Layers::default();
        let input = last_input.as_ref().expect("at least the warm-up pass ran");
        W::layers(input, &traced, &mut tracer, &mut layers);
        layers.set("harness.gen_s", stats::median(&gen_s));
        layers.set("harness.fill_s", stats::median(&setup_s) - stats::median(&gen_s));
        layers.set("harness.warmup_s", first.wall.as_secs_f64());
        layers.set("harness.pass_cv", if plain.len() > 1 { stats::cv(&plain) } else { 0.0 });
        layers.set("harness.ref_kernel_ms", stats::median(&slices) / 1e6);
        layers.set("harness.raw_wall_over_cpu", stats::median(&raw_wall_over_cpu));
        if !plain.is_empty() {
            let (t, p) = (stats::median(&traced_totals), stats::median(&plain));
            layers.set("harness.trace_overhead_share", (t - p) / p);
        }
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| Metric {
                name,
                value: layers.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        let values = [
            stats::median(&setup_s),
            ops as f64 / (calls.iter().sum::<f64>() / 1e9),
            stats::percentile_sorted(&latencies, 50.0) / 1e6,
            stats::percentile_sorted(&latencies, 90.0) / 1e6,
            wall_over_cpu(&timed, &calls),
            stats::geomean(&first.ratios),
            first.accepted as f64 / ops as f64,
            first.moved_bytes / 1024.0 / ops as f64,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), value)| Metric { name, value, unit })
            .collect()
    };

    let outcome = Outcome {
        correct: true,
        attempted: timed.iter().map(|p| p.ops).sum(),
        failed: 0,
        metrics,
        error: None,
        notes,
    };
    (outcome, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload that counts to three, for exercising the run shape.
    struct Toy;

    impl Workload for Toy {
        type Input = u64;
        type State = u64;
        const NAME: &'static str = "toy";
        const MIN_PASSES: usize = 3;

        fn generate(seed: u64) -> u64 {
            seed
        }
        fn fill(input: &u64) -> u64 {
            *input
        }
        fn run(_: &u64, state: &mut u64, pass: &mut Pass, tr: &mut Tracer) {
            for i in 0..3u32 {
                let t = CpuInstant::now();
                tr.span("toy.op", i, || *state += 1);
                pass.op("add", t.lap(), true);
                pass.ratios.push(1.25);
            }
            pass.moved_bytes = 2048.0;
            pass.count("toy.sum", *state as f64);
        }
        fn verify(input: &u64, state: &u64, _: &mut Pass) -> Result<(), String> {
            match *state == input + 3 {
                true => Ok(()),
                false => Err(format!("{state} != {input} + 3")),
            }
        }
        fn layers(_: &u64, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers) {
            assert!(!traced.is_empty());
            out.set("serve.moves", tr.stage_table()[0].calls as f64);
        }
    }

    fn args(trace: bool) -> Args {
        Args { workload: "toy".into(), seed: 4, seconds: 0.0, trace }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let (out, tr) = run::<Toy>(&args(false));
        assert!(out.correct && out.error.is_none());
        assert_eq!(out.attempted, 9, "three timed passes of three ops");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        let by = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(by("period_ratio"), 1.25);
        assert_eq!(by("accepted_share"), 1.0);
        assert!((by("migration_kb_per_op") - 2.0 / 3.0).abs() < 1e-12);
        assert!(by("ops_per_s") > 0.0 && by("setup_s") > 0.0);
        assert!(tr.spans().is_empty(), "the untraced run records no span");
        assert!(out.to_json().starts_with("{\"correct\": true, \"attempted\": 9, \"failed\": 0"));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let (out, tr) = run::<Toy>(&args(true));
        assert!(out.correct);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        // passes 1 and 3 are traced, 2 is plain: six op spans
        assert_eq!(tr.spans().len(), 6);
        let moves = out.metrics.iter().find(|m| m.name == "serve.moves").unwrap();
        assert_eq!(moves.value, 6.0);
    }

    #[test]
    fn calls_are_scaled_by_the_slices_around_them() {
        // no slice was ever taken, so recording takes none either
        let mut pass = Pass { slices: vec![100_000], ..Pass::default() };
        let lap = |us| Lap { cpu: Duration::from_micros(us), wall: Duration::from_micros(2 * us) };
        pass.call("burst", lap(400), 2, 1);
        pass.slices.push(300_000);
        pass.op("single", lap(100), true);
        pass.slices.push(400_000);
        pass.scale();
        // call 0 ran between slices of 100 and 300 us: the machine was
        // 200/175 slower than nominal; call 1 between 300 and 400 us
        let f0 = REF_NOMINAL_NS / 200_000.0;
        let f1 = REF_NOMINAL_NS / 350_000.0;
        assert!((pass.scaled.calls[0] - 400_000.0 * f0).abs() < 1e-6);
        assert!((pass.scaled.calls[1] - 100_000.0 * f1).abs() < 1e-6);
        assert_eq!((pass.ops, pass.accepted), (3, 2));
        // both ops of the burst carry its latency
        assert_eq!(pass.scaled.lat.len(), 3);
        assert!((pass.latency_ms(100.0) - 0.4 * f0).abs() < 1e-9);
        assert!((pass.kind_p50_ns("single") - 100_000.0 * f1).abs() < 1e-6);
        assert!((pass.total_s() - (400e-6 * f0 + 100e-6 * f1)).abs() < 1e-12);
        assert!((pass.wall_over_cpu() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn each_call_is_its_lower_quartile_over_the_passes() {
        // five passes of two calls, one disturbed call in each of three
        // passes: no pass is clean, the second lowest of each column is
        let rows: [&[f64]; 5] =
            [&[11.0, 90.0], &[50.0, 21.0], &[10.0, 20.0], &[12.0, 70.0], &[60.0, 22.0]];
        assert_eq!(lower_quartile_columns(&rows), [11.0, 21.0]);
        assert!(lower_quartile_columns(&[]).is_empty());
    }

    #[test]
    fn a_wait_shows_in_wall_over_cpu_and_a_theft_does_not() {
        let lap =
            |cpu, wall| Lap { cpu: Duration::from_micros(cpu), wall: Duration::from_micros(wall) };
        // call 0 computes; call 1 sleeps as long as it computes, in every
        // pass; the host steals from one replay of each
        let replays = [
            [lap(100, 100), lap(300, 600)],
            [lap(100, 250), lap(300, 600)],
            [lap(100, 100), lap(300, 900)],
        ];
        let passes: Vec<Pass> = replays
            .iter()
            .map(|laps| {
                let mut pass = Pass::default();
                for l in laps {
                    pass.op("op", *l, true);
                }
                pass
            })
            .collect();
        let passes: Vec<&Pass> = passes.iter().collect();
        // weighted by the calls' reported times, 1 : 3
        let ratio = wall_over_cpu(&passes, &[100.0, 300.0]);
        assert!((ratio - (100.0 * 1.0 + 300.0 * 2.0) / 400.0).abs() < 1e-12);
    }

    #[test]
    fn a_pass_that_is_not_a_replay_is_told_apart() {
        let mut a = Pass::default();
        let mut b = Pass::default();
        a.count("x", 1.0);
        b.count("x", 1.0 + f64::EPSILON);
        assert!(a.differs_from(&b).is_some_and(|d| d.starts_with("x = ")));
        b.counts.insert("x", 1.0);
        assert_eq!(a.differs_from(&b), None);
        b.count("y", 0.0);
        assert!(a.differs_from(&b).is_some());
    }

    /// A workload whose oracle always objects.
    struct Broken;

    impl Workload for Broken {
        type Input = u64;
        type State = u64;
        const NAME: &'static str = "toy";
        const MIN_PASSES: usize = 3;

        fn generate(seed: u64) -> u64 {
            Toy::generate(seed)
        }
        fn fill(input: &u64) -> u64 {
            Toy::fill(input)
        }
        fn run(input: &u64, state: &mut u64, pass: &mut Pass, tr: &mut Tracer) {
            Toy::run(input, state, pass, tr)
        }
        fn verify(_: &u64, _: &u64, _: &mut Pass) -> Result<(), String> {
            Err("the incumbent violates §3.2".into())
        }
        fn layers(_: &u64, _: &[&Pass], _: &mut Tracer, _: &mut Layers) {}
    }

    #[test]
    fn a_failed_oracle_check_fails_the_run() {
        let (out, _) = run::<Broken>(&args(false));
        assert!(!out.correct && out.failed == 1 && out.metrics.is_empty());
        assert_eq!(out.error.as_deref(), Some("pass 0: the incumbent violates §3.2"));
        assert!(out.to_json().starts_with("{\"correct\": false"));
    }
}
