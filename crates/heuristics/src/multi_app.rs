//! The disjoint-SPE-partition baseline for multi-application workloads.
//!
//! The obvious way to run N streaming applications on one Cell is to
//! *partition* it: give each application its own disjoint set of SPEs,
//! schedule each application alone on its slice, and share only the PPE
//! (which hosts the OS and the control thread anyway). This module
//! builds that baseline so co-scheduling (all applications planned
//! jointly on the composed graph, free to share every PE) can be
//! compared against it:
//!
//! * [`partition_mapping`] — plan each application alone on a reduced
//!   platform with its allotted SPE count, then translate the pieces
//!   back onto the full platform's disjoint SPE ranges;
//! * [`best_partition`] — sweep every SPE allocation and keep the one
//!   whose *composed* evaluation (all applications' PPE loads summed,
//!   exactly as the machine would see them) has the smallest maximum
//!   weighted per-application period.
//!
//! Co-scheduling searches a strict superset of the partitioned
//! placements — every partition mapping is a valid mapping of the
//! composed graph — so a co-scheduler seeded with the best partition is
//! never worse than it, and usually strictly better: partitions strand
//! idle SPE cycles inside one application's slice that another
//! application could have used.

use crate::search::{multi_start, LocalSearchOptions};
use cellstream_core::scheduler::{PlanContext, PlanError};
use cellstream_core::workload::{evaluate_workload, WorkloadReport};
use cellstream_core::Mapping;
use cellstream_graph::{AppId, Workload};
use cellstream_platform::{CellSpec, PeId};

/// Build the reduced platform an application sees inside its partition:
/// the full spec's parameters with only `n_spe` SPEs.
fn reduced_spec(spec: &CellSpec, n_spe: usize) -> CellSpec {
    CellSpec::builder()
        .ppes(spec.n_ppe())
        .spes(n_spe)
        .interface_bw(spec.interface_bw())
        .eib_bw(spec.eib_bw())
        .local_store(spec.local_store())
        .code_size(spec.code_size())
        .dma_in_limit(spec.dma_in_limit())
        .dma_ppe_limit(spec.dma_ppe_limit())
        .build()
        .expect("a slice of a valid platform is valid")
}

/// Plan every application alone on its slice of the machine and compose
/// the result: application `i` gets `alloc[i]` SPEs (disjoint,
/// allocated in workload order after the shared PPEs). Each slice is
/// planned with [`multi_start`] local search from the standard starts.
///
/// Errors when `alloc` does not match the application count or
/// over-commits the machine's SPEs.
pub fn partition_mapping(
    w: &Workload,
    spec: &CellSpec,
    alloc: &[usize],
) -> Result<Mapping, PlanError> {
    if alloc.len() != w.n_apps() {
        return Err(PlanError::Unsupported(format!(
            "partition allocates {} slices for {} applications",
            alloc.len(),
            w.n_apps()
        )));
    }
    let total: usize = alloc.iter().sum();
    if total > spec.n_spe() {
        return Err(PlanError::Unsupported(format!(
            "partition allocates {total} SPEs, platform has {}",
            spec.n_spe()
        )));
    }
    // no plateau descent here: each slice is planned in isolation, and
    // balance-motivated moves onto the PPE — period-neutral within the
    // slice — collide once every application's PPE share is summed in
    // the composed evaluation
    let opts = LocalSearchOptions { plateau: false, ..Default::default() };
    let mut assignment = vec![PeId(0); w.graph().n_tasks()];
    let mut spe_base = spec.n_ppe();
    for (i, &n_spe) in alloc.iter().enumerate() {
        let app = AppId(i);
        let sub = w.subgraph(app);
        let slice = reduced_spec(spec, n_spe);
        let starts = vec![
            crate::greedy::greedy_mem(&sub, &slice),
            crate::greedy::greedy_cpu(&sub, &slice),
            crate::comm_aware::comm_aware_greedy(&sub, &slice),
            Mapping::all_on(&sub, PeId(0)),
        ];
        let (local, _) = multi_start(&sub, &slice, &starts, &opts);
        for (k, t) in w.tasks_of(app).enumerate() {
            let pe = local.pe_of(cellstream_graph::TaskId(k));
            assignment[t.index()] = if pe.index() < spec.n_ppe() {
                pe // shared PPEs keep their ids
            } else {
                PeId(spe_base + (pe.index() - spec.n_ppe()))
            };
        }
        spe_base += n_spe;
    }
    Mapping::new(w.graph(), spec, assignment).map_err(PlanError::Mapping)
}

/// Every way to hand `total` SPEs to `parts` applications (compositions
/// of `total` into `parts` non-negative terms, all SPEs handed out).
fn allocations(total: usize, parts: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; parts];
    fn rec(total: usize, i: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if i == cur.len() - 1 {
            cur[i] = total;
            out.push(cur.clone());
            return;
        }
        for k in 0..=total {
            cur[i] = k;
            rec(total - k, i + 1, cur, out);
        }
    }
    rec(total, 0, &mut cur, &mut out);
    out
}

/// The best disjoint-SPE-partition baseline: sweep every SPE allocation,
/// evaluate each partitioned placement on the **composed** workload
/// (shared-PPE loads summed), and keep the allocation with the smallest
/// maximum weighted per-application period. Returns the winning
/// mapping, its allocation, and its composed evaluation.
///
/// The sweep enumerates `C(n_spe + N − 1, N − 1)` allocations; it
/// refuses workloads where that exceeds 10 000 (at QS22 scale that is
/// ≥ 6 concurrent applications — partition baselines stop being
/// interesting well before that). `ctx.budget` is honoured as a soft
/// deadline *between* allocations: balanced splits are tried first, at
/// least one allocation is always evaluated, and the sweep stops early
/// once the budget is spent (each slice plan itself uses the default
/// multi-start options).
pub fn best_partition(
    w: &Workload,
    spec: &CellSpec,
    ctx: &PlanContext,
) -> Result<(Mapping, Vec<usize>, WorkloadReport), PlanError> {
    let mut allocs = allocations(spec.n_spe(), w.n_apps());
    if allocs.len() > 10_000 {
        return Err(PlanError::Unsupported(format!(
            "partition sweep would try {} allocations",
            allocs.len()
        )));
    }
    // balanced splits first, so a budget-truncated sweep still compares
    // against the allocations a human would try (ties keep the
    // enumeration order — deterministic)
    let imbalance = |a: &[usize]| {
        let (lo, hi) = (a.iter().min().copied().unwrap_or(0), a.iter().max().copied().unwrap_or(0));
        hi - lo
    };
    allocs.sort_by_key(|a| imbalance(a));
    // a budget too long to add to the clock is no deadline
    let deadline = ctx.budget.and_then(|b| std::time::Instant::now().checked_add(b));
    let mut best: Option<(Mapping, Vec<usize>, WorkloadReport)> = None;
    for alloc in allocs {
        if best.is_some() && deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        let mapping = partition_mapping(w, spec, &alloc)?;
        let report = evaluate_workload(w, spec, &mapping).map_err(PlanError::Mapping)?;
        if !report.is_feasible() {
            continue;
        }
        // strict `<` keeps the first (deterministic) allocation on ties
        let better = best
            .as_ref()
            .is_none_or(|(_, _, b)| report.max_weighted_period() < b.max_weighted_period());
        if better {
            best = Some((mapping, alloc, report));
        }
    }
    best.ok_or_else(|| {
        PlanError::Infeasible("no feasible SPE partition exists for this workload".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_graph::TaskId;

    fn pair_workload() -> Workload {
        let a = chain("a", 5, &CostParams::default(), 3);
        let b = chain("b", 4, &CostParams::default(), 11);
        Workload::compose("pair", &[&a, &b]).unwrap()
    }

    #[test]
    fn allocations_enumerate_compositions() {
        let a = allocations(3, 2);
        assert_eq!(a, vec![vec![0, 3], vec![1, 2], vec![2, 1], vec![3, 0]]);
        assert_eq!(allocations(8, 2).len(), 9);
        assert_eq!(allocations(4, 3).len(), 15); // C(6,2)
    }

    #[test]
    fn partition_keeps_apps_in_their_slices() {
        let w = pair_workload();
        let spec = CellSpec::with_spes(4);
        let m = partition_mapping(&w, &spec, &[2, 2]).unwrap();
        for t in w.tasks_of(AppId(0)) {
            let pe = m.pe_of(t).index();
            assert!(pe == 0 || (1..=2).contains(&pe), "app a on PPE or SPE1-2, got PE{pe}");
        }
        for t in w.tasks_of(AppId(1)) {
            let pe = m.pe_of(t).index();
            assert!(pe == 0 || (3..=4).contains(&pe), "app b on PPE or SPE3-4, got PE{pe}");
        }
    }

    #[test]
    fn partition_rejects_bad_allocations() {
        let w = pair_workload();
        let spec = CellSpec::with_spes(4);
        assert!(matches!(partition_mapping(&w, &spec, &[2]), Err(PlanError::Unsupported(_))));
        assert!(matches!(partition_mapping(&w, &spec, &[3, 3]), Err(PlanError::Unsupported(_))));
    }

    #[test]
    fn best_partition_is_feasible_and_no_worse_than_even_split() {
        let w = pair_workload();
        let spec = CellSpec::with_spes(4);
        let (_, alloc, report) = best_partition(&w, &spec, &PlanContext::default()).unwrap();
        assert!(report.is_feasible());
        assert_eq!(alloc.iter().sum::<usize>(), 4);
        let even = partition_mapping(&w, &spec, &[2, 2]).unwrap();
        let even_report = evaluate_workload(&w, &spec, &even).unwrap();
        assert!(report.max_weighted_period() <= even_report.max_weighted_period() + 1e-15);
    }

    #[test]
    fn best_partition_honours_a_tiny_budget() {
        // a zero budget stops the sweep after the first evaluated
        // allocation — which, by balanced-first ordering, is the even
        // split — instead of ignoring the caller's deadline
        let w = pair_workload();
        let spec = CellSpec::with_spes(4);
        let ctx = PlanContext::with_budget(std::time::Duration::ZERO);
        let (_, alloc, report) = best_partition(&w, &spec, &ctx).unwrap();
        assert!(report.is_feasible());
        assert_eq!(alloc, vec![2, 2]);
    }

    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let w = pair_workload();
        let spec = CellSpec::with_spes(4);
        let ctx = PlanContext::with_budget(std::time::Duration::MAX);
        let (mapping, alloc, _) = best_partition(&w, &spec, &ctx).unwrap();
        let (unbudgeted, unbudgeted_alloc, _) =
            best_partition(&w, &spec, &PlanContext::default()).unwrap();
        assert_eq!((mapping, alloc), (unbudgeted, unbudgeted_alloc));
    }

    #[test]
    fn co_scheduling_seeded_with_partition_never_loses_to_it() {
        let w = pair_workload();
        let spec = CellSpec::with_spes(4);
        let (baseline, _, base_report) =
            best_partition(&w, &spec, &PlanContext::default()).unwrap();
        let starts = vec![baseline];
        let (m, p) = multi_start(w.graph(), &spec, &starts, &LocalSearchOptions::default());
        assert!(p <= base_report.max_weighted_period() + 1e-15);
        let _ = m.pe_of(TaskId(0));
    }
}
