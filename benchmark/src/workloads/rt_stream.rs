//! `rt_stream` — op = one task execution on `rt::run`.
//!
//! The only workload where a plan *runs*. An 8-task chain with 2 KiB
//! edges is planned once per set-up by the heuristic schedulers on
//! `CellSpec::with_spes(1)` — two PE threads, never more than `nproc`
//! (nine threads on two cores measure the OS scheduler) — and each pass
//! streams a fixed number of instances through it on real threads. No
//! planner code executes in the timed phase: ring hand-off,
//! per-instance allocation and the global progress mutex are the whole
//! cost.
//!
//! A pass is 24 engine runs (*segments*) of 500 instances, ~20 ms
//! each, so that the harness can take a reference slice between them;
//! each segment starts its two PE threads afresh (`rt.init_s`, well
//! under 1 % of a segment). Like every workload the process is
//! **confined to one CPU**, and the PE threads inherit that (see
//! [`crate::affinity`] for the measurements behind it); the free
//! two-core rate is a per-layer diagnostic (`rt.parallel_efficiency`).
//!
//! Task bodies are benchmark closures computing `rt::ChecksumKernel`'s
//! hash: the source stamps each instance's creation time (and mixes
//! `--seed` into the payload, which is all the seed can decide here —
//! the chain's costs fix the mapping, and a second mapping would be a
//! second workload), the sink stamps its arrival and keeps its
//! checksum. Latency = source → sink per instance; every sink checksum
//! is checked against `fnv1a` of a reference chain.

use crate::affinity::with_all_cpus;
use crate::bound::{t_lb, Work};
use crate::clock::CpuInstant;
use crate::harness::{on_nominal_machine, Layers, Pass, Workload};
use crate::spans::Tracer;
use crate::stats;
use cellstream::core::{Mapping, MappingDelta, PlanContext};
use cellstream::graph::{StreamGraph, TaskSpec};
use cellstream::heuristics::scheduler_by_name;
use cellstream::platform::{CellSpec, PeId};
use cellstream::rt::kernels::fnv1a;
use cellstream::rt::{
    run, synthetic_kernels_for_mapping, Kernel, KernelCtx, RtConfig, RunStats, SpscRing, Window,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const TASKS: usize = 8;
const EDGE_BYTES: usize = 2048;
/// Engine runs per pass and stream instances per run (~20 ms at this
/// commit's ~27 k instances per CPU-second): passes are short and many.
const SEGMENTS: u64 = 24;
const SEGMENT_INSTANCES: u64 = 500;
/// Stream instances per pass.
const INSTANCES: u64 = SEGMENTS * SEGMENT_INSTANCES;
/// Every this many instances one's source-to-sink latency is kept as a
/// sample (1 500 a pass). The harness holds every sample of every pass
/// until the run ends; all 12 000 made the process's peak RSS follow
/// the pass count — 1.7 MiB of 7, and as unsteady as the host.
const LATENCY_EVERY: usize = 8;

pub struct Input {
    spec: CellSpec,
    graph: StreamGraph,
    mapping: Mapping,
    period: f64,
    t_lb: f64,
    deploy_bytes: f64,
    salt: u64,
    config: RtConfig,
}

/// Per-instance stamps the kernels fill in, shared with the PE threads.
pub struct Stamps {
    /// Source and sink stamp on the benchmark's clock (process CPU
    /// time), so an instance's latency leaves out what the host stole
    /// while it was in flight.
    epoch: CpuInstant,
    /// Stream position of the running segment's instance 0.
    base: AtomicU64,
    created_ns: Vec<AtomicU64>,
    arrived_ns: Vec<AtomicU64>,
    checksum: Vec<AtomicU64>,
    /// Nanoseconds spent inside task bodies, all PEs.
    kernel_ns: AtomicU64,
}

pub struct State {
    stamps: Arc<Stamps>,
    kernels: Vec<Arc<dyn Kernel>>,
    /// One per segment run so far.
    stats: Vec<RunStats>,
    /// The first instance whose sink checksum or stamps were wrong.
    mismatch: Option<String>,
}

pub struct RtStream;

/// The chain: SPE-friendly filters between a PPE-friendly source and
/// sink, so the best two-PE mapping splits it.
fn chain() -> StreamGraph {
    let mut b = StreamGraph::builder("rt-chain");
    let mut prev = None;
    for i in 0..TASKS {
        let (ppe, spe) = match i {
            0 | 7 => (0.6e-6, 1.2e-6),
            _ => (1.5e-6 + 0.1e-6 * i as f64, 0.5e-6 + 0.05e-6 * i as f64),
        };
        let t = b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(ppe).spe_cost(spe));
        if let Some(p) = prev {
            b.add_edge(p, t, EDGE_BYTES as f64).expect("chain edges are unique");
        }
        prev = Some(t);
    }
    b.build().expect("a chain is a DAG")
}

/// The 8-byte hash pattern `ChecksumKernel` writes to an output.
fn pattern(h: u64, out: &mut [u8]) {
    let bytes = h.to_le_bytes();
    for (i, b) in out.iter_mut().enumerate() {
        *b = bytes[i % 8];
    }
}

/// `ChecksumKernel`'s hash of one instance: the instance number, then
/// every visible input byte.
fn checksum(instance: u64, inputs: &[Window<'_>]) -> u64 {
    let head = instance.to_le_bytes();
    fnv1a(
        head.iter()
            .copied()
            .chain(inputs.iter().flat_map(|w| w.instances.iter().flat_map(|s| s.iter().copied()))),
    )
}

/// What the source emits for the instance at a stream position: the
/// seed-salted position, hashed.
fn source_hash(position: u64, salt: u64) -> u64 {
    fnv1a((position ^ salt).to_le_bytes())
}

/// Sink checksum of every stream position, from the reference chain.
/// The oracle's own preparation, not the system's set-up: computed on
/// the first use and kept for the later passes of the process.
fn reference(salt: u64) -> &'static [u64] {
    static REFERENCE: OnceLock<(u64, Vec<u64>)> = OnceLock::new();
    let (seed, sums) = REFERENCE
        .get_or_init(|| (salt, (0..INSTANCES).map(|i| reference_checksum(i, salt)).collect()));
    assert_eq!(*seed, salt, "one seed per process");
    sums
}

/// The sink checksum the chain must deliver at a stream position,
/// computed without the runtime. The engine numbers a segment's
/// instances from 0, so the filters hash the position within the
/// segment.
fn reference_checksum(position: u64, salt: u64) -> u64 {
    let instance = position % SEGMENT_INSTANCES;
    let mut buf = vec![0u8; EDGE_BYTES];
    pattern(source_hash(position, salt), &mut buf);
    let mut h = 0;
    for _ in 1..TASKS {
        let window = Window { instances: vec![buf.as_slice()] };
        h = checksum(instance, &[window]);
        pattern(h, &mut buf);
    }
    h
}

/// A task body, as `rt::ClosureKernel` would wrap it.
type Body = Box<dyn Fn(&KernelCtx<'_>, &[Window<'_>], &mut [&mut [u8]]) + Send + Sync>;

/// A task body that adds its own duration to [`Stamps::kernel_ns`].
struct Timed {
    stamps: Arc<Stamps>,
    body: Body,
}

impl Kernel for Timed {
    fn process(&self, ctx: &KernelCtx<'_>, inputs: &[Window<'_>], outputs: &mut [&mut [u8]]) {
        let t = Instant::now();
        (self.body)(ctx, inputs, outputs);
        // a statistic, read only after the engine joins its threads
        self.stamps.kernel_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The task bodies: seed-salted stamping source, checksum filters,
/// stamping sink. `base` is written before the engine spawns its
/// threads and the stamps are read only after it has joined them, which
/// orders the relaxed accesses.
fn kernels(stamps: &Arc<Stamps>, salt: u64) -> Vec<Arc<dyn Kernel>> {
    let source = Arc::clone(stamps);
    let sink = Arc::clone(stamps);
    let mut bodies: Vec<Body> = vec![Box::new(move |ctx, _, outputs| {
        let position = source.base.load(Ordering::Relaxed) + ctx.instance;
        let now = source.epoch.elapsed().as_nanos() as u64;
        source.created_ns[position as usize].store(now, Ordering::Relaxed);
        for o in outputs.iter_mut() {
            pattern(source_hash(position, salt), o);
        }
    })];
    for _ in 1..TASKS - 1 {
        bodies.push(Box::new(|ctx, inputs, outputs| {
            let h = checksum(ctx.instance, inputs);
            for o in outputs.iter_mut() {
                pattern(h, o);
            }
        }));
    }
    bodies.push(Box::new(move |ctx, inputs, _| {
        let i = (sink.base.load(Ordering::Relaxed) + ctx.instance) as usize;
        sink.checksum[i].store(checksum(ctx.instance, inputs), Ordering::Relaxed);
        sink.arrived_ns[i].store(sink.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }));
    bodies
        .into_iter()
        .map(|body| Arc::new(Timed { stamps: Arc::clone(stamps), body }) as Arc<dyn Kernel>)
        .collect()
}

fn stamps(n: u64) -> Arc<Stamps> {
    let cells = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    Arc::new(Stamps {
        epoch: CpuInstant::now(),
        base: AtomicU64::new(0),
        created_ns: cells(),
        arrived_ns: cells(),
        checksum: cells(),
        kernel_ns: AtomicU64::new(0),
    })
}

/// Nanoseconds per hand-off through a two-thread `SpscRing`: one thread
/// pushes `n` items, the other pops them.
fn ring_ns_per_op(n: u64) -> f64 {
    let ring: SpscRing<u64> = SpscRing::with_capacity(64);
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..n {
                let mut item = i;
                while let Err(back) = ring.try_push(item) {
                    item = back;
                    std::hint::spin_loop();
                }
            }
        });
        let mut seen = 0;
        while seen < n {
            match ring.try_pop() {
                Some(_) => seen += 1,
                None => std::hint::spin_loop(),
            }
        }
    });
    started.elapsed().as_nanos() as f64 / n as f64
}

impl Workload for RtStream {
    type Input = Input;
    type State = State;
    const NAME: &'static str = "rt_stream";
    const MIN_PASSES: usize = 6;

    fn generate(seed: u64) -> Input {
        let spec = CellSpec::with_spes(1);
        let json = serde_json::to_string(&chain()).expect("graphs serialize");
        let graph: StreamGraph = serde_json::from_str(&json).expect("graphs deserialize");
        // the heuristic members one after the other, best plan wins:
        // `Portfolio` would spawn a thread per member, and set-up time
        // would read the host's thread start-up latency
        let ctx = PlanContext::default();
        let plan = ["greedy_mem", "greedy_cpu", "comm_aware", "multi_start", "anneal"]
            .iter()
            .map(|name| {
                let member = scheduler_by_name(name).expect("registered scheduler");
                member.plan(&graph, &spec, &ctx).expect("heuristics always plan")
            })
            .filter(|p| p.is_feasible())
            .min_by(|a, b| a.period().total_cmp(&b.period()))
            .expect("some heuristic mapping of a small chain is feasible");
        let ppe_only = Mapping::all_on(&graph, spec.pe(0));
        let deploy_bytes =
            MappingDelta::between(&graph, &ppe_only, &graph, &plan.mapping).migration_bytes;
        let config = RtConfig { n_instances: SEGMENT_INSTANCES, ..RtConfig::default() };
        Input {
            t_lb: t_lb([Work::of(&graph)], spec.n_pes()),
            period: plan.period(),
            mapping: plan.mapping,
            deploy_bytes,
            salt: seed,
            config,
            graph,
            spec,
        }
    }

    fn fill(input: &Input) -> State {
        let stamps = stamps(INSTANCES);
        State { kernels: kernels(&stamps, input.salt), stamps, stats: Vec::new(), mismatch: None }
    }

    fn run(input: &Input, state: &mut State, pass: &mut Pass, tr: &mut Tracer) {
        let reference = reference(input.salt);
        for segment in 0..SEGMENTS {
            let base = segment * SEGMENT_INSTANCES;
            state.stamps.base.store(base, Ordering::Relaxed);
            let started = CpuInstant::now();
            let stats = tr
                .span("rt.run", segment as u32, || {
                    run(&input.graph, &input.spec, &input.mapping, &state.kernels, &input.config)
                })
                .expect("the planned mapping fits the local store");
            let lap = started.lap();
            state.stats.push(stats);

            // an op is one task execution; an instance verified at the
            // sink vouches for the eight executions that produced it
            let s = &state.stamps;
            let mut latencies = Vec::with_capacity(SEGMENT_INSTANCES as usize / LATENCY_EVERY);
            let mut verified = 0u64;
            for i in (base..base + SEGMENT_INSTANCES).map(|i| i as usize) {
                let got = s.checksum[i].load(Ordering::Relaxed);
                let created = s.created_ns[i].load(Ordering::Relaxed);
                let arrived = s.arrived_ns[i].load(Ordering::Relaxed);
                if got == reference[i] && arrived >= created {
                    verified += 1;
                } else if state.mismatch.is_none() {
                    state.mismatch = Some(format!(
                        "instance {i}: sink checksum {got:#x}, reference {:#x}; left the source \
                         at {created} ns, reached the sink at {arrived} ns",
                        reference[i]
                    ));
                }
                if i % LATENCY_EVERY == 0 {
                    latencies.push(arrived.saturating_sub(created));
                }
            }
            let tasks = TASKS as u64;
            pass.segment("run", lap, SEGMENT_INSTANCES * tasks, verified * tasks, latencies);
        }
    }

    fn verify(input: &Input, state: &State, pass: &mut Pass) -> Result<(), String> {
        if state.stats.len() as u64 != SEGMENTS {
            return Err(format!("{} of {SEGMENTS} segments ran", state.stats.len()));
        }
        for stats in &state.stats {
            let all = stats.processed.iter().all(|&c| c == SEGMENT_INSTANCES);
            if stats.processed.len() != TASKS || !all {
                return Err(format!(
                    "processed {:?}, expected {SEGMENT_INSTANCES} each",
                    stats.processed
                ));
            }
        }
        if let Some(mismatch) = &state.mismatch {
            return Err(mismatch.clone());
        }
        pass.ratios.push(input.period / input.t_lb);
        pass.moved_bytes = input.deploy_bytes;
        let edge_bytes: f64 = input.graph.edges().iter().map(|e| e.data_bytes).sum();
        pass.count("rt.bytes_moved", edge_bytes * INSTANCES as f64);
        pass.count("rt.store_used", state.stats[0].store_used.iter().sum::<u64>() as f64);
        pass.count("rt.checksum_xor", {
            let x = reference(input.salt).iter().fold(0u64, |a, b| a ^ b);
            (x >> 11) as f64
        });
        let kernel_ns = state.stamps.kernel_ns.load(Ordering::Relaxed);
        pass.time("rt.kernel_s", Duration::from_nanos(kernel_ns));
        Ok(())
    }

    fn layers(input: &Input, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers) {
        let first = traced[0];
        let med = |f: &dyn Fn(&Pass) -> f64| {
            stats::median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        let run_s = med(&|p| p.total_s());
        let per_s = INSTANCES as f64 / run_s;
        tr.set_recording(true);

        // engine start-up and tear-down: a one-instance run
        let one = RtConfig { n_instances: 1, ..input.config.clone() };
        let state = RtStream::fill(input);
        let (init, init_s) = on_nominal_machine(|| {
            tr.span("rt.init", 0, || {
                run(&input.graph, &input.spec, &input.mapping, &state.kernels, &one)
            })
        });
        init.expect("the planned mapping fits");

        // a whole pass's instances in one run: with every task on the
        // PPE thread, and on both PE threads left free to use two cores
        let full = RtConfig { n_instances: INSTANCES, ..input.config.clone() };
        let state = RtStream::fill(input);
        let all_ppe = Mapping::all_on(&input.graph, PeId(0));
        let (single, single_s) = on_nominal_machine(|| {
            tr.span("rt.single_pe", 0, || {
                run(&input.graph, &input.spec, &all_ppe, &state.kernels, &full)
            })
        });
        let single = single.expect("the PPE has no local-store limit");
        let state = RtStream::fill(input);
        let free = with_all_cpus(|| {
            tr.span("rt.free", 0, || {
                run(&input.graph, &input.spec, &input.mapping, &state.kernels, &full)
            })
        })
        .expect("the planned mapping fits");

        // model check: spin kernels calibrated from the declared costs
        // (x200, so one instance takes ~1 ms), measured period against
        // the model period
        let scale = 200.0;
        let spin = synthetic_kernels_for_mapping(&input.graph, &input.spec, &input.mapping, scale);
        let few = RtConfig { n_instances: 300, ..input.config.clone() };
        let spun = with_all_cpus(|| {
            tr.span("rt.spin", 0, || run(&input.graph, &input.spec, &input.mapping, &spin, &few))
        })
        .expect("the planned mapping fits");
        tr.set_recording(false);

        out.set("rt.init_s", init_s);
        out.set("rt.run_s", run_s);
        out.set("rt.instances_per_s", per_s);
        out.set("rt.single_pe_per_s", INSTANCES as f64 / single_s);
        out.set(
            "rt.parallel_efficiency",
            free.throughput / single.throughput / input.spec.n_pes() as f64,
        );
        let kernel_share = |p: &Pass| p.nominal_s("rt.kernel_s") / p.total_s();
        out.set("rt.kernel_share", med(&kernel_share));
        out.set("rt.ring_ns_per_op", with_all_cpus(|| ring_ns_per_op(200_000)));
        out.set("rt.bytes_moved", first.counts["rt.bytes_moved"]);
        out.set("rt.src_sink_p99_us", med(&|p| p.latency_ms(99.0)) * 1e3);
        out.set("rt.store_used_kb", first.counts["rt.store_used"] / 1024.0);
        out.set("rt.spin_model_ratio", (1.0 / spun.throughput) / (input.period * scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream::rt::ChecksumKernel;

    #[test]
    fn filter_bodies_compute_the_runtime_checksum() {
        // the benchmark's filter body and rt::ChecksumKernel agree byte
        // for byte, so the closures wrap the kernel's function
        let input = vec![7u8; 64];
        let ctx = KernelCtx { instance: 9, task_name: "t", peek: 0 };
        let mut ours = vec![0u8; 32];
        let mut theirs = vec![0u8; 32];
        pattern(checksum(9, &[Window { instances: vec![&input] }]), &mut ours);
        ChecksumKernel.process(
            &ctx,
            &[Window { instances: vec![&input] }],
            &mut [theirs.as_mut_slice()],
        );
        assert_eq!(ours, theirs);
    }

    #[test]
    fn reference_depends_on_instance_and_seed() {
        assert_eq!(reference_checksum(3, 1), reference_checksum(3, 1));
        assert_ne!(reference_checksum(3, 1), reference_checksum(4, 1));
        assert_ne!(reference_checksum(3, 1), reference_checksum(3, 2));
    }

    #[test]
    fn a_short_stream_delivers_the_reference_checksums() {
        let mut input = RtStream::generate(5);
        input.config.n_instances = 50;
        let mut state = RtStream::fill(&input);
        let stats =
            run(&input.graph, &input.spec, &input.mapping, &state.kernels, &input.config).unwrap();
        assert!(stats.processed.iter().all(|&c| c == 50));
        state.stats.push(stats);
        for i in 0..50 {
            let delivered = state.stamps.checksum[i].load(Ordering::Relaxed);
            assert_eq!(delivered, reference_checksum(i as u64, 5));
        }
    }
}
