//! Behavioural invariants of the threaded runtime.

use crate::engine::{run, RtConfig, RtError};
use crate::kernels::{fnv1a, ChecksumKernel, ClosureKernel, Kernel, VerifyKernel, Window};
use cellstream_core::Mapping;
use cellstream_daggen::{chain, fork_join, CostParams};
use cellstream_graph::{StreamGraph, TaskSpec};
use cellstream_platform::{CellSpec, CellSpecBuilder, PeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn checksum_kernels(n: usize) -> Vec<Arc<dyn Kernel>> {
    (0..n).map(|_| Arc::new(ChecksumKernel) as Arc<dyn Kernel>).collect()
}

fn spread_mapping(g: &StreamGraph, spec: &CellSpec) -> Mapping {
    let mut assignment = vec![PeId(0); g.n_tasks()];
    for (rank, t) in g.topo_order().iter().enumerate() {
        assignment[t.index()] = spec.pe(rank % spec.n_pes());
    }
    Mapping::new(g, spec, assignment).unwrap()
}

#[test]
fn every_task_processes_every_instance_exactly_once() {
    let g = chain("c", 6, &CostParams::default(), 3);
    let spec = CellSpec::with_spes(3);
    let m = spread_mapping(&g, &spec);
    let stats = run(
        &g,
        &spec,
        &m,
        &checksum_kernels(6),
        &RtConfig { n_instances: 500, ..Default::default() },
    )
    .unwrap();
    assert_eq!(stats.processed, vec![500; 6]);
    assert!(stats.throughput > 0.0);
}

#[test]
fn pipeline_is_a_deterministic_function_of_instance() {
    // source -> mid -> verify-sink; sink recomputes the expected double
    // checksum for every instance: any reorder or corruption breaks it.
    let mut b = StreamGraph::builder("verify");
    let src = b.add_task(TaskSpec::new("src").uniform_cost(1e-7));
    let mid = b.add_task(TaskSpec::new("mid").uniform_cost(1e-7));
    let sink = b.add_task(TaskSpec::new("sink").uniform_cost(1e-7));
    b.add_edge(src, mid, 64.0).unwrap();
    b.add_edge(mid, sink, 64.0).unwrap();
    let g = b.build().unwrap();

    let mismatches = Arc::new(AtomicU64::new(0));
    let expect = {
        move |instance: u64, inputs: &[Window<'_>]| -> bool {
            // src output for instance j: fnv(j) pattern over 64 bytes
            let src_out = |j: u64| -> Vec<u8> {
                let h = fnv1a(j.to_le_bytes()).to_le_bytes();
                (0..64).map(|i| h[i % 8]).collect()
            };
            // mid output: fnv(instance ++ src_out(instance..)) — peek 0
            let mid_out = |j: u64| -> Vec<u8> {
                let mut acc = j.to_le_bytes().to_vec();
                acc.extend_from_slice(&src_out(j));
                let h = fnv1a(acc).to_le_bytes();
                (0..64).map(|i| h[i % 8]).collect()
            };
            inputs.len() == 1
                && inputs[0].instances.len() == 1
                && inputs[0].instances[0] == mid_out(instance).as_slice()
        }
    };
    let kernels: Vec<Arc<dyn Kernel>> = vec![
        Arc::new(ChecksumKernel),
        Arc::new(ChecksumKernel),
        Arc::new(VerifyKernel { mismatches: mismatches.clone(), expect: Box::new(expect) }),
    ];
    let spec = CellSpec::with_spes(2);
    let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(1), PeId(2)]).unwrap();
    let stats = run(&g, &spec, &m, &kernels, &RtConfig { n_instances: 2000, ..Default::default() })
        .unwrap();
    assert_eq!(stats.processed, vec![2000; 3]);
    assert_eq!(mismatches.load(Ordering::Acquire), 0, "pipeline corrupted data");
}

#[test]
fn peek_windows_expose_future_instances() {
    // consumer peeks 2 ahead; kernel checks window contents are the
    // source outputs for instances i, i+1, i+2 (clamped at stream end)
    let mut b = StreamGraph::builder("peeky");
    let src = b.add_task(TaskSpec::new("src").uniform_cost(1e-7));
    let snk = b.add_task(TaskSpec::new("snk").uniform_cost(1e-7).peek(2));
    b.add_edge(src, snk, 16.0).unwrap();
    let g = b.build().unwrap();

    let n: u64 = 300;
    let errors = Arc::new(AtomicU64::new(0));
    let errors2 = errors.clone();
    let check =
        ClosureKernel(move |ctx: &KernelCtx<'_>, inputs: &[Window<'_>], _out: &mut [&mut [u8]]| {
            let i = ctx.instance;
            let expect_len = ((i + 2).min(n - 1) - i + 1) as usize;
            if inputs[0].instances.len() != expect_len {
                errors2.fetch_add(1, Ordering::Relaxed);
                return;
            }
            for (off, slice) in inputs[0].instances.iter().enumerate() {
                let h = fnv1a((i + off as u64).to_le_bytes()).to_le_bytes();
                let expected: Vec<u8> = (0..16).map(|b| h[b % 8]).collect();
                if *slice != expected.as_slice() {
                    errors2.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    use crate::kernels::KernelCtx;
    let kernels: Vec<Arc<dyn Kernel>> = vec![Arc::new(ChecksumKernel), Arc::new(check)];
    let spec = CellSpec::with_spes(1);
    let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(1)]).unwrap();
    let stats =
        run(&g, &spec, &m, &kernels, &RtConfig { n_instances: n, ..Default::default() }).unwrap();
    assert_eq!(stats.processed, vec![n; 2]);
    assert_eq!(errors.load(Ordering::Acquire), 0, "peek windows wrong");
}

#[test]
fn local_store_overflow_rejected_at_init() {
    let spec = CellSpecBuilder::default()
        .spes(1)
        .local_store(cellstream_platform::ByteSize::kib(80))
        .code_size(cellstream_platform::ByteSize::kib(64))
        .build()
        .unwrap();
    // 10 kB payload, span 2 -> 20 kB per buffer; middle task holds 40 kB;
    // chain of 4 on one SPE: 6 buffers = 120 kB > 16 kB budget
    let mut b = StreamGraph::builder("fat");
    let ids: Vec<_> =
        (0..4).map(|i| b.add_task(TaskSpec::new(format!("t{i}")).uniform_cost(1e-7))).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], 10.0 * 1024.0).unwrap();
    }
    let g = b.build().unwrap();
    let m = Mapping::all_on(&g, PeId(1));
    let err = run(&g, &spec, &m, &checksum_kernels(4), &RtConfig::default()).unwrap_err();
    assert!(matches!(err, RtError::Allocation(PeId(1), _)), "{err:?}");
    // the same graph runs fine on the PPE (main memory is unconstrained)
    let ok = run(
        &g,
        &spec,
        &Mapping::all_on(&g, PeId(0)),
        &checksum_kernels(4),
        &RtConfig { n_instances: 50, ..Default::default() },
    );
    assert!(ok.is_ok());
}

#[test]
fn store_accounting_reported() {
    let spec = CellSpec::with_spes(2);
    // The edge-byte draw is seed-dependent and the split mapping must fit
    // both local stores: pick the first seed the verifier accepts instead
    // of hard-coding one (seed 5's buffers overflow SPE 1).
    let (g, m) = (0..64u64)
        .find_map(|seed| {
            let g = chain("c", 3, &CostParams::default(), seed);
            let m = Mapping::new(&g, &spec, vec![PeId(1), PeId(1), PeId(2)]).unwrap();
            cellstream_core::evaluate(&g, &spec, &m)
                .ok()
                .filter(|r| r.is_feasible())
                .map(|_| (g, m))
        })
        .expect("some seed's buffers fit the split mapping");
    let stats = run(
        &g,
        &spec,
        &m,
        &checksum_kernels(3),
        &RtConfig { n_instances: 20, ..Default::default() },
    )
    .unwrap();
    assert_eq!(stats.store_used[0], 0, "PPE reserves nothing");
    assert!(stats.store_used[1] > 0);
    assert!(stats.store_used[1] <= spec.local_store_budget());
}

#[test]
fn fork_join_runs_to_completion_on_many_threads() {
    let g = fork_join("fj", 6, &CostParams::default(), 9);
    let spec = CellSpec::qs22();
    // memory-aware spreading: the wide join task needs the PPE
    let m = cellstream_heuristics::greedy_cpu(&g, &spec);
    let stats = run(
        &g,
        &spec,
        &m,
        &checksum_kernels(g.n_tasks()),
        &RtConfig { n_instances: 400, ..Default::default() },
    )
    .unwrap();
    assert!(stats.processed.iter().all(|&c| c == 400));
}

#[test]
fn kernel_table_must_cover_all_tasks() {
    let g = chain("c", 3, &CostParams::default(), 1);
    let spec = CellSpec::ps3();
    let m = Mapping::all_on(&g, PeId(0));
    let err = run(&g, &spec, &m, &checksum_kernels(2), &RtConfig::default()).unwrap_err();
    assert!(matches!(err, RtError::MissingKernel(_)));
}

#[test]
fn an_empty_stream_is_an_error_not_a_panic() {
    let g = chain("c", 3, &CostParams::default(), 1);
    let spec = CellSpec::ps3();
    let m = Mapping::all_on(&g, PeId(0));
    let cfg = RtConfig { n_instances: 0, ..Default::default() };
    let err = run(&g, &spec, &m, &checksum_kernels(3), &cfg).unwrap_err();
    assert_eq!(err, RtError::NoInstances);
    assert_eq!(err.to_string(), "run at least one instance");
}

#[test]
fn zero_byte_edges_work() {
    // the NP-reduction graphs have data = 0: rings of 0-byte slots
    let mut b = StreamGraph::builder("zero");
    let a = b.add_task(TaskSpec::new("a").uniform_cost(1e-7));
    let z = b.add_task(TaskSpec::new("z").uniform_cost(1e-7));
    b.add_edge(a, z, 0.0).unwrap();
    let g = b.build().unwrap();
    let spec = CellSpec::with_spes(1);
    let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(1)]).unwrap();
    let stats = run(
        &g,
        &spec,
        &m,
        &checksum_kernels(2),
        &RtConfig { n_instances: 100, ..Default::default() },
    )
    .unwrap();
    assert_eq!(stats.processed, vec![100, 100]);
}
