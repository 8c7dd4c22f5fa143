//! Throughput evaluation of an arbitrary mapping.
//!
//! This is the polynomial-time verifier from the paper's NP-completeness
//! proof (§3.2): *"we simply have to make sure that the occupation time of
//! each resource (processing element or communication interface) for
//! processing one instance is not larger than 1/B"* — plus the feasibility
//! constraints (1i)–(1k) on local stores and DMA queues.
//!
//! The period of a mapping is
//!
//! ```text
//! T = max over PEs of { compute load,  incoming bytes / bw,  outgoing bytes / bw }
//! ```
//!
//! where memory reads/writes count on the interfaces of the PE that issues
//! them (§2.1: "memory accesses have to be counted as communications").

use crate::mapping::Mapping;
use crate::steady::buffers::BufferPlan;
use cellstream_graph::StreamGraph;
use cellstream_platform::{CellSpec, PeId, PeKind};
use std::fmt;

pub mod incremental;

/// A violated feasibility constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Constraint (1i): buffers exceed `LS − code` on an SPE.
    LocalStore {
        /// The overloaded SPE.
        pe: PeId,
        /// Bytes of buffers required.
        used: f64,
        /// Bytes available.
        budget: f64,
    },
    /// Constraint (1j): more than 16 concurrent incoming DMAs on an SPE.
    DmaIn {
        /// The overloaded SPE.
        pe: PeId,
        /// Concurrent incoming transfers required.
        used: u32,
        /// The hardware queue depth.
        limit: u32,
    },
    /// Constraint (1k): more than 8 concurrent SPE→PPE proxy transfers.
    DmaPpe {
        /// The overloaded SPE.
        pe: PeId,
        /// Concurrent proxy transfers required.
        used: u32,
        /// The proxy queue depth.
        limit: u32,
    },
    /// A task is seated on a PE the [`Availability`](crate::Availability) mask marks
    /// dead — live capacity is zero there, so the mapping cannot run.
    DeadPe {
        /// The dead PE.
        pe: PeId,
        /// Tasks seated on it.
        tasks: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LocalStore { pe, used, budget } => {
                write!(f, "{pe}: buffers need {used:.0} B of {budget:.0} B local store")
            }
            Violation::DmaIn { pe, used, limit } => {
                write!(f, "{pe}: {used} incoming DMA transfers (limit {limit})")
            }
            Violation::DmaPpe { pe, used, limit } => {
                write!(f, "{pe}: {used} SPE→PPE proxy transfers (limit {limit})")
            }
            Violation::DeadPe { pe, tasks } => {
                write!(f, "{pe}: {tasks} task(s) seated on a dead PE")
            }
        }
    }
}

/// Which resource class determines the period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// A PE's compute load.
    Compute(PeId),
    /// A PE's incoming interface.
    IncomingBw(PeId),
    /// A PE's outgoing interface.
    OutgoingBw(PeId),
}

/// Full evaluation of a mapping.
#[derive(Debug, Clone)]
pub struct MappingReport {
    /// Steady-state period `T` (seconds per instance).
    pub period: f64,
    /// Throughput `ρ = 1/T` (instances per second).
    pub throughput: f64,
    /// Per-PE compute seconds per instance.
    pub compute_load: Vec<f64>,
    /// Per-PE incoming bytes per instance (edges + memory reads).
    pub in_bytes: Vec<f64>,
    /// Per-PE outgoing bytes per instance (edges + memory writes).
    pub out_bytes: Vec<f64>,
    /// Per-SPE local-store buffer bytes (indexed by PE id; PPEs stay 0).
    pub memory_bytes: Vec<f64>,
    /// Per-SPE concurrent incoming DMA count.
    pub dma_in: Vec<u32>,
    /// Per-SPE concurrent SPE→PPE proxy transfer count.
    pub dma_ppe: Vec<u32>,
    /// The resource that sets the period.
    pub bottleneck: Bottleneck,
    /// All (1i)–(1k) violations; empty iff the mapping is feasible.
    pub violations: Vec<Violation>,
}

impl MappingReport {
    /// `true` iff constraints (1i)–(1k) all hold.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Throughput `ρ = 1/T`, guarded against the degenerate `T = 0`: a
/// zero-period report (reachable through zero-work graphs, which the
/// builder accepts, and hand-built reports) yields `0.0` instead of
/// `inf`, so speed-up ratios and figure columns stay finite.
pub(crate) fn throughput_of(period: f64) -> f64 {
    if period > 0.0 {
        1.0 / period
    } else {
        0.0
    }
}

/// Evaluate `mapping` on `spec`. Returns `Err` only for structurally
/// invalid mappings (wrong length / unknown PE); infeasible-but-valid
/// mappings come back as a report with `violations`.
pub fn evaluate(
    g: &StreamGraph,
    spec: &CellSpec,
    mapping: &Mapping,
) -> Result<MappingReport, crate::mapping::MappingError> {
    evaluate_with(g, spec, &crate::avail::Availability::full(spec), mapping)
}

/// [`evaluate`] against the *live* platform: any task seated on a PE
/// the [`Availability`](crate::Availability) mask marks dead is
/// reported as a [`Violation::DeadPe`]. Live PEs run at nominal speed,
/// so loads and the period are `evaluate`'s; with no PE dead this is
/// exactly `evaluate`.
pub fn evaluate_with(
    g: &StreamGraph,
    spec: &CellSpec,
    avail: &crate::avail::Availability,
    mapping: &Mapping,
) -> Result<MappingReport, crate::mapping::MappingError> {
    // revalidate (mappings can be deserialised from anywhere) — in place,
    // without cloning the assignment vector
    mapping.validate(g, spec)?;
    assert_eq!(avail.n_pes(), spec.n_pes(), "availability mask must cover every PE");

    let n = spec.n_pes();
    let bw = spec.interface_bw().as_bytes_per_s();
    let plan = BufferPlan::new(g);

    let mut compute_load = vec![0.0; n];
    let mut in_bytes = vec![0.0; n];
    let mut out_bytes = vec![0.0; n];
    let mut memory_bytes = vec![0.0; n];
    let mut dma_in = vec![0u32; n];
    let mut dma_ppe = vec![0u32; n];
    let mut seated = vec![0usize; n];

    for t in g.task_ids() {
        let pe = mapping.pe_of(t);
        let task = g.task(t);
        compute_load[pe.index()] += task.cost_on(spec.kind_of(pe));
        in_bytes[pe.index()] += task.read_bytes;
        out_bytes[pe.index()] += task.write_bytes;
        seated[pe.index()] += 1;
        if spec.is_spe(pe) {
            memory_bytes[pe.index()] += plan.for_task(t);
        }
    }
    for e in g.edges() {
        let src = mapping.pe_of(e.src);
        let dst = mapping.pe_of(e.dst);
        if src != dst {
            out_bytes[src.index()] += e.data_bytes;
            in_bytes[dst.index()] += e.data_bytes;
            if spec.is_spe(dst) {
                dma_in[dst.index()] += 1;
            }
            if spec.is_spe(src) && spec.kind_of(dst) == PeKind::Ppe {
                dma_ppe[src.index()] += 1;
            }
        }
    }

    // period = max resource occupation
    let mut period = 0.0f64;
    let mut bottleneck = Bottleneck::Compute(PeId(0));
    for pe in spec.pes() {
        let i = pe.index();
        if compute_load[i] > period {
            period = compute_load[i];
            bottleneck = Bottleneck::Compute(pe);
        }
        if in_bytes[i] / bw > period {
            period = in_bytes[i] / bw;
            bottleneck = Bottleneck::IncomingBw(pe);
        }
        if out_bytes[i] / bw > period {
            period = out_bytes[i] / bw;
            bottleneck = Bottleneck::OutgoingBw(pe);
        }
    }

    let mut violations = Vec::new();
    for pe in spec.pes() {
        if avail.is_dead(pe) && seated[pe.index()] > 0 {
            violations.push(Violation::DeadPe { pe, tasks: seated[pe.index()] });
        }
    }
    let budget = spec.local_store_budget() as f64;
    for pe in spec.spes() {
        let i = pe.index();
        if memory_bytes[i] > budget + 1e-9 {
            violations.push(Violation::LocalStore { pe, used: memory_bytes[i], budget });
        }
        if dma_in[i] > spec.dma_in_limit() {
            violations.push(Violation::DmaIn { pe, used: dma_in[i], limit: spec.dma_in_limit() });
        }
        if dma_ppe[i] > spec.dma_ppe_limit() {
            violations.push(Violation::DmaPpe {
                pe,
                used: dma_ppe[i],
                limit: spec.dma_ppe_limit(),
            });
        }
    }

    Ok(MappingReport {
        period,
        throughput: throughput_of(period),
        compute_load,
        in_bytes,
        out_bytes,
        memory_bytes,
        dma_in,
        dma_ppe,
        bottleneck,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::{StreamGraph, TaskSpec};
    use cellstream_platform::CellSpecBuilder;

    fn spec2() -> CellSpec {
        CellSpec::with_spes(2)
    }

    /// a -> z with controllable everything.
    fn pair(data: f64, read: f64, write: f64) -> StreamGraph {
        let mut b = StreamGraph::builder("p");
        let a = b.add_task(TaskSpec::new("a").ppe_cost(4e-6).spe_cost(2e-6).reads(read));
        let z = b.add_task(TaskSpec::new("z").ppe_cost(6e-6).spe_cost(1e-6).writes(write));
        b.add_edge(a, z, data).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ppe_only_period_is_total_ppe_work() {
        let g = pair(1000.0, 0.0, 0.0);
        let m = Mapping::all_on(&g, PeId(0));
        let r = evaluate(&g, &spec2(), &m).unwrap();
        assert!((r.period - 10e-6).abs() < 1e-12);
        assert!(r.is_feasible());
        assert_eq!(r.bottleneck, Bottleneck::Compute(PeId(0)));
        // co-mapped edge: no interface traffic, no DMA
        assert_eq!(r.in_bytes[0], 0.0);
        assert_eq!(r.dma_in, vec![0, 0, 0]);
    }

    #[test]
    fn split_mapping_balances_compute_and_pays_comm() {
        let g = pair(1000.0, 0.0, 0.0);
        let spec = spec2();
        let m = Mapping::new(&g, &spec, vec![PeId(1), PeId(2)]).unwrap();
        let r = evaluate(&g, &spec, &m).unwrap();
        // SPE costs: 2us and 1us; comm 1000B / 25GB/s = 40ns
        assert!((r.compute_load[1] - 2e-6).abs() < 1e-12);
        assert!((r.compute_load[2] - 1e-6).abs() < 1e-12);
        assert!((r.out_bytes[1] - 1000.0).abs() < 1e-9);
        assert!((r.in_bytes[2] - 1000.0).abs() < 1e-9);
        assert!((r.period - 2e-6).abs() < 1e-12);
        assert_eq!(r.dma_in[2], 1);
        assert_eq!(r.dma_ppe, vec![0, 0, 0]); // no SPE->PPE edge
    }

    #[test]
    fn memory_traffic_counts_on_interfaces() {
        // enormous read volume makes the incoming interface the bottleneck
        let g = pair(0.0, 2.5e6, 0.0); // 2.5MB read / 25GB/s = 100us >> compute
        let spec = spec2();
        let m = Mapping::new(&g, &spec, vec![PeId(1), PeId(2)]).unwrap();
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!((r.period - 1e-4).abs() < 1e-9);
        assert_eq!(r.bottleneck, Bottleneck::IncomingBw(PeId(1)));
    }

    #[test]
    fn local_store_violation_detected() {
        // 64 kB payload, firstPeriod span 2 -> 128 kB buffer; in+out on the
        // middle task of a 3-chain would be > LS-code for a small store
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(cellstream_platform::ByteSize::kib(128))
            .code_size(cellstream_platform::ByteSize::kib(64))
            .build()
            .unwrap();
        let g = pair(64.0 * 1024.0, 0.0, 0.0);
        let m = Mapping::new(&g, &spec, vec![PeId(1), PeId(1)]).unwrap();
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(!r.is_feasible());
        assert!(matches!(r.violations[0], Violation::LocalStore { pe: PeId(1), .. }));
        // on the PPE the same tasks are fine (main memory is unbounded)
        let m = Mapping::all_on(&g, PeId(0));
        assert!(evaluate(&g, &spec, &m).unwrap().is_feasible());
    }

    #[test]
    fn dma_in_violation_detected() {
        // 17 producers on the PPE feeding one consumer on an SPE
        let mut b = StreamGraph::builder("fan");
        let producers: Vec<_> =
            (0..17).map(|i| b.add_task(TaskSpec::new(format!("p{i}")))).collect();
        let sink = b.add_task(TaskSpec::new("sink"));
        for &p in &producers {
            b.add_edge(p, sink, 8.0).unwrap();
        }
        let g = b.build().unwrap();
        let spec = spec2();
        let mut assign = vec![PeId(0); 17];
        assign.push(PeId(1));
        let m = Mapping::new(&g, &spec, assign).unwrap();
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DmaIn { pe: PeId(1), used: 17, .. })));
    }

    #[test]
    fn dma_ppe_violation_detected() {
        // 9 tasks on one SPE all feeding PPE-mapped consumers
        let mut b = StreamGraph::builder("fanout");
        let producers: Vec<_> =
            (0..9).map(|i| b.add_task(TaskSpec::new(format!("p{i}")))).collect();
        let consumers: Vec<_> =
            (0..9).map(|i| b.add_task(TaskSpec::new(format!("c{i}")))).collect();
        for (p, c) in producers.iter().zip(&consumers) {
            b.add_edge(*p, *c, 8.0).unwrap();
        }
        let g = b.build().unwrap();
        let spec = spec2();
        let mut assign = vec![PeId(1); 9];
        assign.extend(vec![PeId(0); 9]);
        let m = Mapping::new(&g, &spec, assign).unwrap();
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DmaPpe { pe: PeId(1), used: 9, .. })));
        // SPE->SPE needs no proxy queue: move consumers to SPE 2
        let assign2: Vec<_> = (0..18).map(|i| if i < 9 { PeId(1) } else { PeId(2) }).collect();
        let m2 = Mapping::new(&g, &spec, assign2).unwrap();
        let r2 = evaluate(&g, &spec, &m2).unwrap();
        assert!(r2.dma_ppe.iter().all(|&c| c == 0));
        assert_eq!(r2.dma_in[2], 9);
    }

    #[test]
    fn throughput_guard_keeps_zero_period_finite() {
        // regression: `1.0 / period` used to return `inf` for a
        // zero-period report, poisoning every downstream speed-up ratio
        assert_eq!(throughput_of(0.0), 0.0);
        assert_eq!(throughput_of(-1.0), 0.0);
        assert!((throughput_of(2.0) - 0.5).abs() < 1e-15);
        // builder-validated graphs always have positive costs, so real
        // reports stay on the normal path
        let g = pair(100.0, 0.0, 0.0);
        let r = evaluate(&g, &spec2(), &Mapping::all_on(&g, PeId(0))).unwrap();
        assert!(r.throughput.is_finite() && r.throughput > 0.0);
        assert!((r.throughput * r.period - 1.0).abs() < 1e-12);
    }

    #[test]
    fn availability_flags_dead_seats_and_keeps_nominal_loads() {
        use crate::avail::Availability;
        let g = pair(1000.0, 0.0, 0.0);
        let spec = spec2();
        let m = Mapping::new(&g, &spec, vec![PeId(1), PeId(2)]).unwrap();

        // inert mask reproduces evaluate() exactly
        let full = Availability::full(&spec);
        let base = evaluate(&g, &spec, &m).unwrap();
        let with = evaluate_with(&g, &spec, &full, &m).unwrap();
        assert_eq!(with.period, base.period);
        assert_eq!(with.compute_load, base.compute_load);
        assert_eq!(with.violations.len(), base.violations.len());

        // a dead SPE with a seated task is a capacity violation; the
        // loads and the period stay the nominal ones
        let mut dead = Availability::full(&spec);
        dead.fail(PeId(2));
        let r = evaluate_with(&g, &spec, &dead, &m).unwrap();
        assert!(!r.is_feasible());
        assert!(matches!(r.violations[0], Violation::DeadPe { pe: PeId(2), tasks: 1 }));
        assert_eq!(r.period.to_bits(), base.period.to_bits());
        assert_eq!(r.compute_load, base.compute_load);
        // evacuating the dead PE restores feasibility
        let m2 = Mapping::new(&g, &spec, vec![PeId(1), PeId(0)]).unwrap();
        assert!(evaluate_with(&g, &spec, &dead, &m2).unwrap().is_feasible());
    }

    #[test]
    fn unrelated_costs_used_per_kind() {
        let g = pair(0.0, 0.0, 0.0);
        let spec = spec2();
        // task a: 4us PPE / 2us SPE
        let on_ppe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        let on_spe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(1))).unwrap();
        assert!((on_ppe.compute_load[0] - 10e-6).abs() < 1e-12);
        assert!((on_spe.compute_load[1] - 3e-6).abs() < 1e-12);
    }
}
