//! Cross-validation of the LP/MIP solver against referees that share no
//! pivoting code with it: vertex enumeration for LPs ([`brute_force_lp`]),
//! exhaustive search over the binaries for MIPs ([`brute_force_binary`])
//! and the optimality certificate ([`Model::certify`]); plus the
//! closed-form regression models the dense tableau used to carry.

use crate::bb::{solve_mip, MipOptions, MipStatus};
use crate::model::{Cmp, LpOptions, LpStatus, Model, SolveError, Uncertified, VarId, VarKind};
use crate::revised::{SparseLp, SparseSolution, VState, Workspace};
use crate::stop::Stop;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// LP vs. brute-force vertex enumeration
// ---------------------------------------------------------------------------

/// What enumeration can say about an LP.
#[derive(Debug)]
enum Brute {
    Optimal(f64),
    Infeasible,
    Unbounded,
}

/// Smallest objective over the vertices of the feasible region, `None`
/// when it has none: every choice of n planes among the rows (taken as
/// equalities) and the finite bounds, intersected by Gaussian
/// elimination and kept when feasible. Exponential; used for n ≤ 6.
fn best_vertex(model: &Model) -> Option<f64> {
    let n = model.n_vars();
    assert!(n <= 6, "vertex enumeration only for tiny LPs");
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for c in &model.cons {
        let mut a = vec![0.0; n];
        for &(j, v) in &c.terms {
            a[j] = v;
        }
        planes.push((a, c.rhs));
    }
    for j in 0..n {
        let (lo, hi) = model.bounds(VarId(j));
        let mut a = vec![0.0; n];
        a[j] = 1.0;
        planes.push((a.clone(), lo));
        if hi.is_finite() && hi > lo {
            planes.push((a, hi));
        }
    }
    let mut best: Option<f64> = None;
    let idx: Vec<usize> = (0..planes.len()).collect();
    for combo in choose(&idx, n) {
        let a: Vec<Vec<f64>> = combo.iter().map(|&i| planes[i].0.clone()).collect();
        let b: Vec<f64> = combo.iter().map(|&i| planes[i].1).collect();
        if let Some(x) = solve_dense(&a, &b) {
            if model.max_violation(&x) <= 1e-9 {
                let obj = model.objective_of(&x);
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
    }
    best
}

/// The verdict of vertex enumeration on any model the solver accepts
/// (`≤`/`≥`/`=` rows, negative lower bounds, free-above variables).
///
/// Every variable has a finite lower bound, so the feasible region
/// contains no line: it is empty or has a vertex, and a bounded optimum
/// sits on one. `Unbounded` needs a polytope to enumerate, so the
/// free-above variables are boxed — not `x` at some big M, whose size
/// would be one more tolerance to tune, but the *direction*: the
/// recession cone `{d ≥ 0 : A d {≤,=,≥} 0, d_j = 0 for boxed j}` cut at
/// `d ≤ 1`. The LP is unbounded exactly when it is feasible and that
/// polytope holds a `d` with `c·d < 0`.
fn brute_force_lp(model: &Model) -> Brute {
    let Some(best) = best_vertex(model) else {
        return Brute::Infeasible;
    };
    let mut cone = Model::new("recession");
    let mut dir = vec![None; model.n_vars()];
    for (j, v) in model.vars.iter().enumerate() {
        if v.hi.is_infinite() {
            dir[j] = Some(cone.add_var(0.0, 1.0, v.obj, VarKind::Continuous));
        }
    }
    for c in &model.cons {
        let terms = c.terms.iter().filter_map(|&(j, a)| dir[j].map(|d| (d, a))).collect();
        cone.add_con(terms, c.cmp, 0.0);
    }
    if best_vertex(&cone).expect("d = 0 is a vertex of the cone") < -1e-9 {
        Brute::Unbounded
    } else {
        Brute::Optimal(best)
    }
}

fn choose(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![vec![]];
    }
    if items.len() < k {
        return vec![];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for mut rest in choose(&items[i + 1..], k - 1) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

/// Gaussian elimination for tiny square systems; None if singular.
fn solve_dense(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();
    for col in 0..n {
        let piv = (col..n).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[piv][col].abs() < 1e-10 {
            return None;
        }
        m.swap(col, piv);
        let d = m[col][col];
        for v in m[col].iter_mut() {
            *v /= d;
        }
        for r in 0..n {
            if r != col {
                let f = m[r][col];
                if f != 0.0 {
                    let pivot_row = m[col].clone();
                    for (cell, p) in m[r].iter_mut().zip(pivot_row.iter()).take(n + 1) {
                        *cell -= f * p;
                    }
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n]).collect())
}

fn arb_tiny_lp() -> impl Strategy<Value = Model> {
    // 2-3 vars, 1-4 <= constraints, coefficients in [-5,5], bounds [0, 0..8]
    (2usize..=3, 1usize..=4, any::<u64>()).prop_map(|(n, mcount, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Model::new("prop");
        for _ in 0..n {
            let hi = rng.gen_range(1.0..8.0);
            let obj = rng.gen_range(-5.0..5.0f64);
            m.add_var(0.0, hi, obj, VarKind::Continuous);
        }
        for _ in 0..mcount {
            let terms: Vec<_> =
                (0..n).map(|j| (crate::model::VarId(j), rng.gen_range(-5.0..5.0f64))).collect();
            // keep rhs >= 0 so origin stays feasible: brute force and
            // simplex then always agree on feasibility
            let rhs = rng.gen_range(0.0..10.0);
            m.add_con(terms, Cmp::Le, rhs);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_simplex_matches_vertex_enumeration(m in arb_tiny_lp()) {
        let sol = m.solve_lp(&LpOptions::default()).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        // the origin is feasible and every variable boxed
        let Brute::Optimal(brute) = brute_force_lp(&m) else {
            panic!("boxed LP with a feasible origin must have an optimum");
        };
        prop_assert!((sol.objective - brute).abs() <= 1e-6 * (1.0 + brute.abs()),
            "simplex {} vs brute {}", sol.objective, brute);
        prop_assert!(m.max_violation(&sol.x) <= 1e-7);
        prop_assert_eq!(m.certify(&sol.x, &sol.duals, CERT_TOL), Ok(()));
    }

    #[test]
    fn prop_lp_solution_feasible_and_bounded_by_relaxation(m in arb_tiny_lp()) {
        let sol = m.solve_lp(&LpOptions::default()).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!(m.max_violation(&sol.x) <= 1e-7);
    }
}

// ---------------------------------------------------------------------------
// MIP vs. exhaustive enumeration
// ---------------------------------------------------------------------------

/// Exhaustive optimum over all binary assignments, `None` if infeasible.
/// Continuous variables are left to the other oracle: each assignment is
/// substituted into the rows and what remains goes to [`brute_force_lp`].
fn brute_force_binary(model: &Model) -> Option<f64> {
    let bins = model.binary_vars();
    let mut rest = Model::new("continuous-part");
    let mut cont = vec![None; model.n_vars()];
    for (j, v) in model.vars.iter().enumerate() {
        if v.kind == VarKind::Continuous {
            cont[j] = Some(rest.add_var(v.lo, v.hi, v.obj, v.kind));
        }
    }
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << bins.len()) {
        let mut x = vec![0.0; model.n_vars()];
        for (i, b) in bins.iter().enumerate() {
            if mask & (1 << i) != 0 {
                x[b.0] = 1.0;
            }
        }
        let mut sub = rest.clone();
        for c in &model.cons {
            let terms = c.terms.iter().filter_map(|&(j, a)| cont[j].map(|v| (v, a))).collect();
            let fixed: f64 =
                c.terms.iter().filter(|&&(j, _)| cont[j].is_none()).map(|&(j, a)| a * x[j]).sum();
            sub.add_con(terms, c.cmp, c.rhs - fixed);
        }
        match brute_force_lp(&sub) {
            Brute::Optimal(rest_obj) => {
                let obj = model.objective_of(&x) + rest_obj;
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
            Brute::Infeasible => {}
            Brute::Unbounded => panic!("the MIP oracle needs a bounded continuous part"),
        }
    }
    best
}

fn exact_opts() -> MipOptions {
    MipOptions { rel_gap: 0.0, abs_gap: 1e-9, ..Default::default() }
}

/// The relative tolerance every optimal answer here is certified at.
const CERT_TOL: f64 = 1e-9;

/// `abs_gap` bounds the *absolute* gap `incumbent − bound`. Next to an
/// objective of −1e9 the relative gap of the seed's −1e9 to the root
/// bound (−1e9 − 0.525) is 5e-10, under the 1e-9 meant as an absolute
/// gap, and the search used to stop there one item short.
#[test]
fn the_absolute_gap_is_compared_as_an_absolute_gap() {
    let mut m = Model::new("abs-gap");
    let a = m.add_var(0.0, 1.0, -1e9, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, -0.4, VarKind::Binary);
    let c = m.add_var(0.0, 1.0, -0.5, VarKind::Binary);
    m.add_con(vec![(a, 1.0), (b, 1.0), (c, 2.0)], Cmp::Le, 2.5);
    let brute = brute_force_binary(&m).expect("the zero vector is feasible");
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[vec![1.0, 0.0, 0.0]], None).unwrap();
    let (obj, x) = res.incumbent.expect("the seed is feasible");
    assert_eq!(res.status, MipStatus::Optimal);
    assert!((obj - brute).abs() < 1e-6, "bb {obj} vs brute {brute}: {x:?}");
}

/// The certificate refuses what is not an optimum: a feasible but
/// suboptimal point, duals of the wrong sign, and an optimal point with
/// duals that do not close the gap.
#[test]
fn the_certificate_refuses_a_wrong_answer() {
    // max x + 2y  s.t.  x + y ≤ 4, x ≤ 3, y ≤ 2: (2, 2), y = −1
    let mut m = Model::new("certify");
    let x = m.add_var(0.0, 3.0, -1.0, VarKind::Continuous);
    let y = m.add_var(0.0, 2.0, -2.0, VarKind::Continuous);
    m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    let sol = m.solve_lp(&LpOptions::default()).unwrap();
    assert_eq!(
        (sol.x.as_slice(), sol.duals.as_slice()),
        ([2.0, 2.0].as_slice(), [-1.0].as_slice())
    );
    assert_eq!(m.certify(&sol.x, &sol.duals, CERT_TOL), Ok(()));
    assert_eq!(m.certify(&[1.0, 2.0], &[-1.0], CERT_TOL), Err(Uncertified::Slackness(0)));
    assert_eq!(m.certify(&[2.0, 2.0], &[1.0], CERT_TOL), Err(Uncertified::DualSign(0)));
    assert_eq!(m.certify(&[2.0, 2.0], &[-2.0], CERT_TOL), Err(Uncertified::ReducedCost(x)));
    assert_eq!(m.certify(&[2.0, 2.5], &[-1.0], CERT_TOL), Err(Uncertified::Bound(y)));
    assert_eq!(m.certify(&[3.0, 2.0], &[-1.0], CERT_TOL), Err(Uncertified::Row(0)));
    assert_eq!(m.certify(&[2.0, 2.0], &[], CERT_TOL), Err(Uncertified::Shape));
    // min a  s.t.  a ≥ 0, a free above: a dual of 2 prices a at 1 − 2 < 0
    // at its lower bound, and no upper bound is near a = 0 — the gap
    // alone would pass, pricing the missing upper bound at the lower one
    let mut m = Model::new("uncapped");
    let a = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
    m.add_con(vec![(a, 1.0)], Cmp::Ge, 0.0);
    assert_eq!(m.certify(&[0.0], &[2.0], CERT_TOL), Err(Uncertified::ReducedCost(a)));
    assert_eq!(m.certify(&[0.0], &[1.0], CERT_TOL), Ok(()));
    // min 1e6·x  s.t.  x ≥ 5, x in [0, 10]: a dual 1.5e-3 short of 1e6
    // leaves a reduced cost inside its tolerance (scaled by 2e6) at an
    // x off its bounds, but a gap of 7.5e-3 — over 1e-9 of 5e6
    let mut m = Model::new("gap");
    let x = m.add_var(0.0, 10.0, 1e6, VarKind::Continuous);
    m.add_con(vec![(x, 1.0)], Cmp::Ge, 5.0);
    let got = m.certify(&[5.0], &[1e6 - 1.5e-3], CERT_TOL);
    assert!(matches!(got, Err(Uncertified::Gap { .. })), "{got:?}");
    assert_eq!(m.certify(&[5.0], &[1e6], CERT_TOL), Ok(()));
}

#[test]
fn knapsack_small() {
    // max 10a + 13b + 7c st 3a + 4b + 2c <= 6  -> a+c (17) vs b+c (20) -> 20
    let mut m = Model::new("knap");
    let a = m.add_var(0.0, 1.0, -10.0, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, -13.0, VarKind::Binary);
    let c = m.add_var(0.0, 1.0, -7.0, VarKind::Binary);
    m.add_con(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
    let (obj, x) = res.incumbent.expect("feasible");
    assert!((obj + 20.0).abs() < 1e-9, "{obj}");
    assert_eq!(x.iter().map(|v| v.round() as i32).collect::<Vec<_>>(), vec![0, 1, 1]);
    assert_eq!(res.status, MipStatus::Optimal);
}

#[test]
fn infeasible_mip() {
    let mut m = Model::new("inf");
    let a = m.add_var(0.0, 1.0, 1.0, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, 1.0, VarKind::Binary);
    m.add_con(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 3.0);
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
    assert_eq!(res.status, MipStatus::Infeasible);
    assert!(res.incumbent.is_none());
}

#[test]
fn lp_relaxation_fractional_but_mip_integral() {
    // max a + b st 2a + 2b <= 3: LP gives 1.5, MIP gives 1
    let mut m = Model::new("frac");
    let a = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
    m.add_con(vec![(a, 2.0), (b, 2.0)], Cmp::Le, 3.0);
    let lp = m.solve_lp(&LpOptions::default()).unwrap();
    assert!((lp.objective + 1.5).abs() < 1e-8);
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
    let (obj, _) = res.incumbent.unwrap();
    assert!((obj + 1.0).abs() < 1e-9, "{obj}");
}

/// A point that holds every row but has a fractional binary is not an
/// incumbent, whether a seed or a completion hands it over: `(1, ½)`
/// reaches the relaxation's −1.5, which would close the gap at the root
/// and return a fractional "optimum"; the integral optimum is −1.
#[test]
fn a_fractional_seed_or_completion_is_refused() {
    let mut m = Model::new("frac-seed");
    let a = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
    m.add_con(vec![(a, 2.0), (b, 2.0)], Cmp::Le, 3.0);
    let half = vec![1.0, 0.5];
    assert_eq!(m.max_violation(&half), 0.0, "the point holds every row");
    let completion = |_: &[f64]| -> Option<(f64, Vec<f64>)> { Some((-1.5, half.clone())) };
    for (what, seeds, complete) in [
        ("seed", vec![half.clone()], None),
        ("completion", Vec::new(), Some(&completion as &crate::bb::Completion<'_>)),
    ] {
        let res = solve_mip(&m, &exact_opts(), &Stop::default(), &seeds, complete).unwrap();
        assert_eq!(res.status, MipStatus::Optimal, "{what}");
        let (obj, x) = res.incumbent.expect("the search finds an integral point");
        assert_eq!(obj, -1.0, "{what}: {x:?}");
        assert!(x.iter().all(|&v| v == 0.0 || v == 1.0), "{what}: {x:?}");
    }
}

#[test]
fn seeds_are_validated_not_trusted() {
    let mut m = Model::new("seed");
    let a = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
    m.add_con(vec![(a, 1.0)], Cmp::Le, 0.0); // forces a = 0
                                             // seed claims a=1 (infeasible) — must be rejected
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[vec![1.0]], None).unwrap();
    let (obj, x) = res.incumbent.unwrap();
    assert_eq!(x[0], 0.0);
    assert!(obj.abs() < 1e-9);
}

/// `min x + y  s.t.  2x + 2y ≥ 1` over binaries: the relaxation is
/// fractional at ½, the optimum is 1.
fn cover_of_two() -> Model {
    let mut m = Model::new("cover");
    let x = m.add_var(0.0, 1.0, 1.0, VarKind::Binary);
    let y = m.add_var(0.0, 1.0, 1.0, VarKind::Binary);
    m.add_con(vec![(x, 2.0), (y, 2.0)], Cmp::Ge, 1.0);
    m
}

/// A NaN point breaks every row infinitely: `f64::max` drops a NaN, so
/// a violation folded with `max` must not be where a NaN goes to hide.
#[test]
fn a_non_finite_point_is_infinitely_infeasible() {
    let m = cover_of_two();
    assert_eq!(m.max_violation(&[f64::NAN, f64::NAN]), f64::INFINITY);
    assert_eq!(m.max_violation(&[1.0, f64::NAN]), f64::INFINITY);
    assert_eq!(m.max_violation(&[f64::INFINITY, 0.0]), f64::INFINITY);
    assert_eq!(m.max_violation(&[1.0, 0.0]), 0.0);
}

/// A point shorter than the model is not a point of it: infinitely
/// infeasible, not an index out of bounds.
#[test]
fn a_short_point_is_infinitely_infeasible() {
    assert_eq!(cover_of_two().max_violation(&[1.0]), f64::INFINITY);
}

/// A point longer than the model is not a point of it either: its tail
/// — here a NaN — must not be zipped away.
#[test]
fn a_long_point_is_infinitely_infeasible() {
    assert_eq!(cover_of_two().max_violation(&[1.0, 0.0, f64::NAN]), f64::INFINITY);
}

/// A NaN seed is refused like any infeasible one: it must not become
/// the incumbent, and so cannot block the real optimum.
#[test]
fn a_nan_seed_is_refused() {
    let m = cover_of_two();
    let res =
        solve_mip(&m, &exact_opts(), &Stop::default(), &[vec![f64::NAN, f64::NAN]], None).unwrap();
    assert_eq!(res.status, MipStatus::Optimal);
    let (obj, x) = res.incumbent.expect("the search finds the cover");
    assert_eq!((obj, res.best_bound), (1.0, 1.0));
    assert_eq!(m.max_violation(&x), 0.0);
}

/// A completion that answers NaN cannot corrupt the incumbent either:
/// the root relaxation is fractional, so the completion runs before the
/// search reaches the optimum.
#[test]
fn a_nan_completion_is_refused() {
    let m = cover_of_two();
    let called = std::cell::Cell::new(0);
    let completion = |x: &[f64]| -> Option<(f64, Vec<f64>)> {
        called.set(called.get() + 1);
        Some((f64::NAN, vec![f64::NAN; x.len()]))
    };
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], Some(&completion)).unwrap();
    assert!(called.get() > 0, "the root is fractional");
    assert_eq!(res.status, MipStatus::Optimal);
    let (obj, x) = res.incumbent.expect("the search finds the cover");
    assert_eq!((obj, res.best_bound), (1.0, 1.0));
    assert_eq!(m.max_violation(&x), 0.0);
}

#[test]
fn good_seed_short_circuits_search() {
    // With rel_gap = 0.05 and an optimal seed, zero branching is needed if
    // the root relaxation is within 5%.
    let mut m = Model::new("warm");
    let vars: Vec<_> =
        (0..6).map(|i| m.add_var(0.0, 1.0, -(1.0 + i as f64), VarKind::Binary)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    m.add_con(terms, Cmp::Le, 6.0); // all fit: optimum takes everything
    let seed = vec![1.0; 6];
    let res = solve_mip(&m, &MipOptions::default(), &Stop::default(), &[seed], None).unwrap();
    let (obj, _) = res.incumbent.unwrap();
    assert!((obj + 21.0).abs() < 1e-9);
    assert!(res.nodes <= 2, "root should settle it, used {} nodes", res.nodes);
}

#[test]
fn completion_callback_harvests_incumbents() {
    // Completion rounds everything up if feasible.
    let mut m = Model::new("cb");
    let a = m.add_var(0.0, 1.0, -3.0, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, -2.0, VarKind::Binary);
    m.add_con(vec![(a, 2.0), (b, 2.0)], Cmp::Le, 3.0);
    let completion = |x: &[f64]| -> Option<(f64, Vec<f64>)> {
        // keep the largest coordinate only
        let mut full = vec![0.0; x.len()];
        let argmax = if x[0] >= x[1] { 0 } else { 1 };
        full[argmax] = 1.0;
        Some((0.0, full))
    };
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], Some(&completion)).unwrap();
    let (obj, _) = res.incumbent.unwrap();
    assert!((obj + 3.0).abs() < 1e-9, "{obj}");
}

#[test]
fn gap_mode_stops_early_but_reports_gap() {
    // An instance where the LP bound is weak: equality-partition knapsack.
    let mut rng = StdRng::seed_from_u64(7);
    let mut m = Model::new("gap");
    let n = 14;
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..20.0)).collect();
    let vars: Vec<_> = (0..n).map(|i| m.add_var(0.0, 1.0, -weights[i], VarKind::Binary)).collect();
    let cap: f64 = weights.iter().sum::<f64>() * 0.5;
    m.add_con(
        vars.iter().map(|&v| (v, 1.0_f64)).zip(weights.iter()).map(|((v, _), &w)| (v, w)).collect(),
        Cmp::Le,
        cap,
    );
    let res = solve_mip(
        &m,
        &MipOptions { rel_gap: 0.05, ..Default::default() },
        &Stop::default(),
        &[],
        None,
    )
    .unwrap();
    let (obj, _) = res.incumbent.expect("always feasible");
    assert!(res.gap <= 0.05 + 1e-12, "gap {} too large", res.gap);
    assert!(obj <= res.best_bound * (1.0 - 0.0) + 1e-9 || obj >= res.best_bound);
}

#[test]
fn mixed_integer_continuous() {
    // min T st T >= 3a + 1, T >= 4(1-a)  — pick a to minimise max(3a+1, 4-4a)
    // a=1 -> T=4 vs T=0 -> max 4; a=0 -> max(1,4)=4; fractional would do
    // better but a is binary: both give 4.
    let mut m = Model::new("mix");
    let t = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
    let a = m.add_var(0.0, 1.0, 0.0, VarKind::Binary);
    m.add_con(vec![(t, 1.0), (a, -3.0)], Cmp::Ge, 1.0);
    m.add_con(vec![(t, 1.0), (a, 4.0)], Cmp::Ge, 4.0);
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
    let (obj, _) = res.incumbent.unwrap();
    assert!((obj - 4.0).abs() < 1e-8, "{obj}");
}

#[test]
fn node_limit_respected() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut m = Model::new("nl");
    let n = 16;
    let vars: Vec<_> =
        (0..n).map(|_| m.add_var(0.0, 1.0, -rng.gen_range(1.0..9.0f64), VarKind::Binary)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(1.0..9.0f64))).collect();
    m.add_con(terms, Cmp::Le, 20.0);
    let res = solve_mip(
        &m,
        &MipOptions { rel_gap: 0.0, max_nodes: 3, ..Default::default() },
        &Stop::default(),
        &[],
        None,
    )
    .unwrap();
    assert!(res.nodes <= 4); // root + up to limit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_mip_matches_exhaustive(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=8usize);
        let mut m = Model::new("prop-mip");
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-9.0..9.0f64), VarKind::Binary))
            .collect();
        for _ in 0..rng.gen_range(1..=3usize) {
            let terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(-4.0..6.0f64))).collect();
            let rhs = rng.gen_range(0.0..12.0); // 0-vector feasible
            m.add_con(terms, Cmp::Le, rhs);
        }
        let brute = brute_force_binary(&m).expect("zero vector feasible");
        let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
        let (obj, x) = res.incumbent.expect("feasible");
        prop_assert!(m.max_violation(&x) <= 1e-7);
        prop_assert!((obj - brute).abs() <= 1e-6 * (1.0 + brute.abs()),
            "bb {} vs brute {}", obj, brute);
        // the reported bound must be a true lower bound
        prop_assert!(res.best_bound <= brute + 1e-6 * (1.0 + brute.abs()));
    }

    #[test]
    fn prop_gap_contract_holds(seed in any::<u64>()) {
        // With rel_gap = 0.1, incumbent must be within 10% of the true optimum.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4..=8usize);
        let mut m = Model::new("prop-gap");
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, -rng.gen_range(0.5..9.0f64), VarKind::Binary))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.5..6.0f64))).collect();
        let rhs = rng.gen_range(2.0..10.0);
        m.add_con(terms, Cmp::Le, rhs);
        let brute = brute_force_binary(&m).expect("zero feasible");
        let res = solve_mip(
            &m,
            &MipOptions { rel_gap: 0.1, ..Default::default() },
            &Stop::default(), &[],
            None,
        ).unwrap();
        let (obj, _) = res.incumbent.expect("feasible");
        // obj <= brute * (1 - 0.1) would mean better than optimal: impossible.
        prop_assert!(obj >= brute - 1e-7);
        // the gap contract: obj within 10% of optimum (both negative here)
        prop_assert!(obj <= brute * (1.0 - 0.1) + 1e-7 || (obj - brute) <= 0.1 * brute.abs() + 1e-7,
            "obj {} optimum {}", obj, brute);
    }
}

// ---------------------------------------------------------------------------
// Stress and edge cases
// ---------------------------------------------------------------------------

#[test]
fn assignment_mip_matches_hungarian_style_brute_force() {
    // 4 tasks x 3 machines assignment: minimize total cost with
    // sum_j x[t][j] = 1 — the structure of the paper's constraint (1b).
    let costs = [[4.0, 2.0, 8.0], [3.0, 7.0, 5.0], [9.0, 1.0, 6.0], [2.0, 2.0, 2.0]];
    let mut m = Model::new("assign");
    let mut x = Vec::new();
    for row in costs {
        let r: Vec<_> = row.iter().map(|&c| m.add_var(0.0, 1.0, c, VarKind::Binary)).collect();
        m.add_con(r.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
        x.push(r);
    }
    let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
    let (obj, _) = res.incumbent.unwrap();
    // optimum: 2 + 3 + 1 + 2 = 8
    assert!((obj - 8.0).abs() < 1e-9, "{obj}");
    assert_eq!(res.status, MipStatus::Optimal);
}

#[test]
fn large_lp_with_many_bounded_variables_stays_sane() {
    // 400 bounded variables, 80 random <= rows: exercises the implicit
    // upper-bound handling at a size where explicit bound rows would
    // double the tableau.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut m = Model::new("large");
    let vars: Vec<_> = (0..400)
        .map(|_| {
            m.add_var(
                0.0,
                rng.gen_range(0.5..2.0f64),
                -rng.gen_range(0.1..1.0f64),
                VarKind::Continuous,
            )
        })
        .collect();
    for _ in 0..80 {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.1) {
                terms.push((v, rng.gen_range(0.2..2.0f64)));
            }
        }
        if !terms.is_empty() {
            m.add_con(terms, Cmp::Le, rng.gen_range(4.0..20.0));
        }
    }
    let sol = m.solve_lp(&LpOptions::default()).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(m.max_violation(&sol.x) <= 1e-6, "violation {}", m.max_violation(&sol.x));
    // maximization (negative costs) with upper bounds: objective strictly
    // negative, bounded below by the sum of bounds
    let lower: f64 = (0..400)
        .map(|i| {
            let (_, hi) = m.bounds(crate::model::VarId(i));
            -hi
        })
        .sum();
    assert!(sol.objective >= lower && sol.objective < 0.0);
}

#[test]
fn mixed_eq_le_ge_system() {
    // min x+y+z st x+y+z = 6, x >= 1, y <= 2, x - z <= 0
    // objective fixed at 6; check a consistent vertex is returned
    let mut m = Model::new("mix3");
    let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
    let y = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
    let z = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
    m.add_con(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Eq, 6.0);
    m.add_con(vec![(x, 1.0)], Cmp::Ge, 1.0);
    m.add_con(vec![(y, 1.0)], Cmp::Le, 2.0);
    m.add_con(vec![(x, 1.0), (z, -1.0)], Cmp::Le, 0.0);
    let sol = m.solve_lp(&LpOptions::default()).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 6.0).abs() < 1e-8);
    assert!(m.max_violation(&sol.x) <= 1e-7);
}

#[test]
fn binary_fixing_via_bounds_like_branch_and_bound() {
    // fixing binaries through set_bounds must behave like substitution
    let mut m = Model::new("fix");
    let a = m.add_var(0.0, 1.0, -5.0, VarKind::Binary);
    let b = m.add_var(0.0, 1.0, -3.0, VarKind::Binary);
    m.add_con(vec![(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
    // free: take a (obj -5)
    let free = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
    assert!((free.incumbent.unwrap().0 + 5.0).abs() < 1e-9);
    // a fixed to 0: must take b
    let mut m0 = m.clone();
    m0.set_bounds(a, 0.0, 0.0);
    let fixed = solve_mip(&m0, &exact_opts(), &Stop::default(), &[], None).unwrap();
    assert!((fixed.incumbent.unwrap().0 + 3.0).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Differential suite: the engine vs the exhaustive oracles, full surface
// ---------------------------------------------------------------------------

/// Random bounded LP with mixed `≤`/`≥`/`=` rows, negative lower
/// bounds, boxed and free-above variables — the full surface the
/// engine and vertex enumeration must agree on.
fn arb_bounded_lp() -> impl Strategy<Value = Model> {
    (2usize..=6, 1usize..=6, any::<u64>()).prop_map(|(n, mcount, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Model::new("diff");
        for _ in 0..n {
            let lo = if rng.gen_bool(0.3) { -rng.gen_range(0.0..4.0f64) } else { 0.0 };
            let hi = if rng.gen_bool(0.2) { f64::INFINITY } else { lo + rng.gen_range(0.5..8.0) };
            let obj = rng.gen_range(-5.0..5.0f64);
            m.add_var(lo, hi, obj, VarKind::Continuous);
        }
        for _ in 0..mcount {
            let mut terms = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.8) {
                    terms.push((crate::model::VarId(j), rng.gen_range(-5.0..5.0f64)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            let cmp = match rng.gen_range(0..4u8) {
                0 => Cmp::Ge,
                1 => Cmp::Eq,
                _ => Cmp::Le,
            };
            // keep equality rows satisfiable-ish by centring rhs on a
            // random box point
            let x0: Vec<f64> = (0..n)
                .map(|j| {
                    let (lo, hi) = m.bounds(crate::model::VarId(j));
                    rng.gen_range(lo..lo.max(hi.min(lo + 8.0)) + 1e-9)
                })
                .collect();
            let base: f64 = terms.iter().map(|&(v, a)| a * x0[v.0]).sum();
            let rhs = base
                + match cmp {
                    Cmp::Le => rng.gen_range(0.0..3.0f64),
                    Cmp::Ge => -rng.gen_range(0.0..3.0f64),
                    Cmp::Eq => 0.0,
                };
            m.add_con(terms, cmp, rhs);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The solver refuses exactly the models with a negative cost on a
    /// column with no upper bound, naming the first such column. On every
    /// other model it and vertex enumeration must agree on the verdict
    /// (optimal / infeasible — such a model is never unbounded), and on
    /// the objective within 1e-7 when optimal, where the certificate must
    /// also hold.
    #[test]
    fn prop_lp_matches_vertex_enumeration_on_the_full_surface(m in arb_bounded_lp()) {
        let uncapped = m.vars.iter().position(|v| v.obj < 0.0 && v.hi.is_infinite());
        let sol = m.solve_lp(&LpOptions::default());
        match (sol, uncapped.map(VarId)) {
            (Err(e), Some(v)) => prop_assert_eq!(e, SolveError::NegativeCostUncapped(v)),
            (Ok(sol), None) => match brute_force_lp(&m) {
            Brute::Optimal(brute) => {
                prop_assert_eq!(sol.status, LpStatus::Optimal);
                prop_assert!((sol.objective - brute).abs() <= 1e-7 * (1.0 + brute.abs()),
                    "simplex {} vs brute {}", sol.objective, brute);
                prop_assert!(m.max_violation(&sol.x) <= 1e-6,
                    "point violates by {}", m.max_violation(&sol.x));
                prop_assert_eq!(m.certify(&sol.x, &sol.duals, CERT_TOL), Ok(()));
            }
            Brute::Infeasible => prop_assert_eq!(sol.status, LpStatus::Infeasible),
            Brute::Unbounded => panic!("no negative cost is uncapped: bounded below"),
            },
            (got, v) => panic!("uncapped {v:?}, solve_lp {:?}", got.map(|s| s.status)),
        }
    }

    /// End-to-end B&B with a continuous variable in every row: the
    /// warm-started search, run to proven optimality, must land on the
    /// exhaustive optimum.
    #[test]
    fn prop_solve_mip_with_a_continuous_variable_matches_exhaustive(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=8usize);
        let mut m = Model::new("mip-diff");
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-9.0..9.0f64), VarKind::Binary))
            .collect();
        let t = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        for _ in 0..rng.gen_range(1..=3usize) {
            let mut terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(-4.0..6.0f64))).collect();
            terms.push((t, -1.0));
            m.add_con(terms, Cmp::Le, rng.gen_range(0.0..8.0));
        }
        let brute = brute_force_binary(&m).expect("T absorbs every row");
        let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
        let (obj, x) = res.incumbent.expect("feasible");
        prop_assert!(m.max_violation(&x) <= 1e-6);
        prop_assert!((obj - brute).abs() <= 1e-6 * (1.0 + brute.abs()),
            "bb {} vs brute {}", obj, brute);
    }

    /// Lazy rows change what the search's LP carries, never its answer.
    /// A random MIP shaped like Linear Program (1) — a period `T` every
    /// load row charges, zero-cost indicators `e ≥ a + b − 1` that a load
    /// row charges and a capacity row caps, plus pure-binary rows — with
    /// a random subset of its rows lazy lands on the exhaustive optimum
    /// of the whole model, and its incumbent satisfies every row.
    #[test]
    fn prop_lazy_rows_leave_the_optimum_unchanged(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=6usize);
        let mut m = Model::new("lazy-diff");
        let bins: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, -rng.gen_range(0.0..4.0f64), VarKind::Binary))
            .collect();
        let t = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let eps: Vec<_> = (0..2)
            .map(|_| m.add_var(0.0, 1.0, 0.0, VarKind::Continuous))
            .collect();
        let add = |m: &mut Model, terms, cmp, rhs, lazy: bool| {
            if lazy { m.add_lazy_con(terms, cmp, rhs) } else { m.add_con(terms, cmp, rhs) }
        };
        for &e in &eps {
            let (a, b) = (bins[rng.gen_range(0..n)], bins[rng.gen_range(0..n)]);
            add(&mut m, vec![(e, 1.0), (a, -1.0), (b, -1.0)], Cmp::Ge, -1.0, rng.gen_bool(0.8));
        }
        let cap = rng.gen_range(0.0..2.0f64);
        add(&mut m, eps.iter().map(|&e| (e, 1.0)).collect(), Cmp::Le, cap, rng.gen_bool(0.3));
        for _ in 0..rng.gen_range(1..=2usize) {
            let mut terms: Vec<_> = bins.iter().map(|&v| (v, rng.gen_range(0.0..3.0f64))).collect();
            terms.extend(eps.iter().map(|&e| (e, rng.gen_range(0.0..3.0f64))));
            terms.push((t, -1.0));
            add(&mut m, terms, Cmp::Le, 0.0, rng.gen_bool(0.3));
        }
        let (a, b) = (bins[rng.gen_range(0..n)], bins[rng.gen_range(0..n)]);
        add(&mut m, vec![(a, 1.0), (b, 1.0)], Cmp::Le, 1.0, rng.gen_bool(0.5));
        let brute = brute_force_binary(&m).expect("all-zero is feasible");
        let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
        prop_assert_eq!(res.status, MipStatus::Optimal);
        let (obj, x) = res.incumbent.expect("feasible");
        prop_assert!(m.max_violation(&x) <= 1e-6, "incumbent breaks a row by {}", m.max_violation(&x));
        prop_assert!((obj - brute).abs() <= 1e-6 * (1.0 + brute.abs()),
            "bb {} vs brute {}", obj, brute);
    }
}

// ---------------------------------------------------------------------------
// An LP grown in place
// ---------------------------------------------------------------------------

/// A random model whose rows branch-and-bound would take in batches:
/// binaries and boxed or half-bounded continuous columns (a negative
/// cost only with a finite upper bound), rows of every comparison with
/// coefficients over six orders of magnitude (so the equilibration
/// factors differ row to row), and about half of them lazy.
fn arb_lazy_model(rng: &mut StdRng) -> Model {
    let n = rng.gen_range(2..=7usize);
    let mut m = Model::new("grown");
    let vars: Vec<_> = (0..n)
        .map(|_| {
            let obj = rng.gen_range(-4.0..4.0f64);
            if rng.gen_bool(0.5) {
                m.add_var(0.0, 1.0, obj, VarKind::Binary)
            } else {
                let lo = if rng.gen_bool(0.3) { -rng.gen_range(0.0..3.0f64) } else { 0.0 };
                let capped = obj < 0.0 || rng.gen_bool(0.5);
                let hi = if capped { lo + rng.gen_range(0.5..6.0) } else { f64::INFINITY };
                m.add_var(lo, hi, obj, VarKind::Continuous)
            }
        })
        .collect();
    for _ in 0..rng.gen_range(2..=10usize) {
        let magnitude = 10f64.powi(rng.gen_range(-3..=3));
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.6) {
                terms.push((v, magnitude * rng.gen_range(-3.0..3.0f64)));
            }
        }
        let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.gen_range(0..3usize)];
        let rhs = magnitude * rng.gen_range(-2.0..4.0f64);
        if rng.gen_bool(0.5) {
            m.add_lazy_con(terms, cmp, rhs);
        } else {
            m.add_con(terms, cmp, rhs);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Branch-and-bound appends the lazy rows it activates to its LP in
    /// place. After every random batch the grown LP equals one built from
    /// scratch over the same rows, bit for bit, and the dual simplex from
    /// the same basis — the last solve's, extended by the new logicals,
    /// basic — takes the same pivots on both: the same status, objective
    /// bits and iteration count.
    #[test]
    fn prop_rows_appended_in_place_build_the_same_lp(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = arb_lazy_model(&mut rng);
        let (mut lazy, mut rows): (Vec<usize>, Vec<usize>) =
            (0..m.n_cons()).partition(|&i| m.cons[i].lazy);
        let mut grown = SparseLp::from_model_rows(&m, &rows).unwrap();
        let opts = LpOptions::default();
        let mut basis = grown.slack_basis();
        while !lazy.is_empty() {
            let batch: Vec<usize> = (0..rng.gen_range(1..=lazy.len().min(3)))
                .map(|_| lazy.remove(rng.gen_range(0..lazy.len())))
                .collect();
            grown.append_rows(&m, &batch);
            rows.extend(&batch);
            let fresh = SparseLp::from_model_rows(&m, &rows).unwrap();
            prop_assert_eq!(format!("{grown:?}"), format!("{fresh:?}"));
            prop_assert!(grown == fresh);
            let n = grown.n_structural();
            for pos in basis.cols.len()..grown.n_rows() {
                basis.cols.push(n + pos);
                basis.state.push(VState::Basic(pos));
            }
            let solve = |lp: &SparseLp| lp.solve_dual_in(&mut Workspace::new(lp), &basis, &opts, &Stop::default());
            match (solve(&grown), solve(&fresh)) {
                (Ok(g), Ok(f)) => {
                    prop_assert_eq!(g.status, f.status);
                    prop_assert_eq!(g.objective.to_bits(), f.objective.to_bits());
                    prop_assert_eq!(g.iterations, f.iterations);
                    basis = g.basis;
                }
                (g, f) => prop_assert_eq!(g.err(), f.err(), "one side refused the basis"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Anti-cycling and budget regressions
// ---------------------------------------------------------------------------

/// Beale's classic cycling LP: naive Dantzig pricing with exact
/// tie-breaking cycles forever on it. Its negative costs get upper
/// bounds that do not bind at the optimum (`x1 = 1/25`, `x3 = 1`), so
/// the dual simplex starts from the slack basis; it must terminate well
/// inside the iteration cap — with `Optimal`, never `IterLimit`, and
/// certified.
#[test]
fn degenerate_beale_terminates_under_bland_fallback() {
    let mut m = Model::new("beale");
    let x1 = m.add_var(0.0, 1.0, -0.75, VarKind::Continuous);
    let x2 = m.add_var(0.0, f64::INFINITY, 150.0, VarKind::Continuous);
    let x3 = m.add_var(0.0, 2.0, -0.02, VarKind::Continuous);
    let x4 = m.add_var(0.0, f64::INFINITY, 6.0, VarKind::Continuous);
    m.add_con(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], Cmp::Le, 0.0);
    m.add_con(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], Cmp::Le, 0.0);
    m.add_con(vec![(x3, 1.0)], Cmp::Le, 1.0);
    // a tight-but-sufficient cap: termination must come from optimality,
    // not from bumping into the cap
    let cap = 1_000;
    let sol = m.solve_lp(&LpOptions { max_iterations: cap }).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal, "Bland fallback must break the cycle");
    assert!(sol.iterations < cap, "finished at the cap ({cap}): suspicious of cycling");
    assert!((sol.objective + 0.05).abs() < 1e-6, "{}", sol.objective);
    assert_eq!(m.certify(&sol.x, &sol.duals, CERT_TOL), Ok(()));
}

/// A deliberately microscopic iteration cap must surface as IterLimit,
/// proving the cap is enforced inside the pivot loop.
#[test]
fn iteration_cap_is_enforced() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut m = Model::new("cap");
    let vars: Vec<_> = (0..40)
        .map(|_| m.add_var(0.0, rng.gen_range(1.0..3.0), -1.0, VarKind::Continuous))
        .collect();
    for _ in 0..30 {
        let terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.1..2.0f64))).collect();
        m.add_con(terms, Cmp::Le, rng.gen_range(1.0..4.0));
    }
    let sol = m.solve_lp(&LpOptions { max_iterations: 3 }).unwrap();
    assert_eq!(sol.status, LpStatus::IterLimit);
    assert!(sol.iterations <= 3, "{}", sol.iterations);
}

// ---------------------------------------------------------------------------
// Warm starts and deadlines
// ---------------------------------------------------------------------------

/// A branching-heavy MIP must actually exercise the dual-simplex warm
/// starts, and essentially all of them should hold on a well-scaled
/// model.
#[test]
fn warm_starts_are_attempted_and_mostly_hit() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 14;
    let mut m = Model::new("warm-rate");
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..20.0)).collect();
    let vars: Vec<_> = (0..n).map(|i| m.add_var(0.0, 1.0, -weights[i], VarKind::Binary)).collect();
    let cap: f64 = weights.iter().sum::<f64>() * 0.37;
    m.add_con(vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(), Cmp::Le, cap);
    let res = solve_mip(
        &m,
        &MipOptions { rel_gap: 0.0, ..Default::default() },
        &Stop::default(),
        &[],
        None,
    )
    .unwrap();
    assert!(res.nodes > 3, "expected real branching, got {} nodes", res.nodes);
    assert!(res.warm_starts > 0, "child nodes must attempt warm starts");
    assert!(
        res.warm_start_rate() >= 0.9,
        "warm-start rate {} ({} / {})",
        res.warm_start_rate(),
        res.warm_start_hits,
        res.warm_starts
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A column with a negative cost and no upper bound would leave the
    /// slack basis dual infeasible with no bound flip to repair it, and
    /// Linear Program (1) has none. Both entry points refuse such a model
    /// with the typed error naming the column, before anything runs: the
    /// model is untouched and the completion callback never called.
    #[test]
    fn prop_an_uncapped_negative_cost_is_refused(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=7usize);
        let mut m = Model::new("dual-infeasible-root");
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-5.0..5.0f64), VarKind::Binary))
            .collect();
        let y = m.add_var(0.0, f64::INFINITY, -1.0, VarKind::Continuous);
        for _ in 0..rng.gen_range(1..=3usize) {
            let mut terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(-2.0..4.0f64))).collect();
            terms.push((y, rng.gen_range(0.5..2.0f64)));
            m.add_con(terms, Cmp::Le, rng.gen_range(2.0..10.0)); // zero vector feasible
        }
        let before = format!("{m:?}");
        let refused = Err(SolveError::NegativeCostUncapped(y));
        prop_assert_eq!(SparseLp::from_model(&m).map(|_| ()), refused.clone());
        prop_assert_eq!(m.solve_lp(&LpOptions::default()).map(|_| ()), refused.clone());
        let called = std::cell::Cell::new(false);
        let completion = |_: &[f64]| {
            called.set(true);
            None
        };
        let seeds = [vec![0.0; n + 1]];
        let got = solve_mip(&m, &exact_opts(), &Stop::default(), &seeds, Some(&completion)).map(|_| ());
        prop_assert_eq!(got, refused);
        prop_assert!(!called.get(), "a refused model reached the search");
        prop_assert_eq!(format!("{m:?}"), before);
    }
}

/// The MIP deadline is threaded into `solve_lp` itself: even when a
/// single node LP would run for a long time, the overall solve returns
/// close to the configured budget instead of finishing the node first.
#[test]
fn time_limit_cannot_be_overshot_by_one_long_lp() {
    use std::time::{Duration, Instant};
    // a large dense-ish LP whose single solve takes well over the budget
    let mut rng = StdRng::seed_from_u64(77);
    let n = 220;
    let mut m = Model::new("slow");
    let vars: Vec<_> = (0..n)
        .map(|_| {
            m.add_var(0.0, rng.gen_range(0.5..2.0), -rng.gen_range(0.1..1.0f64), VarKind::Binary)
        })
        .collect();
    for _ in 0..160 {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.4) {
                terms.push((v, rng.gen_range(0.2..2.0f64)));
            }
        }
        if !terms.is_empty() {
            m.add_con(terms, Cmp::Le, rng.gen_range(1.0..6.0));
        }
    }
    let budget = Duration::from_millis(30);
    let started = Instant::now();
    let res = solve_mip(
        &m,
        &MipOptions { rel_gap: 0.0, time_limit: budget, ..Default::default() },
        &Stop::default(),
        &[],
        None,
    )
    .unwrap();
    let wall = started.elapsed();
    // generous slack: one deadline-check interval plus scheduling noise,
    // NOT the multi-second runtime of an unchecked root LP
    assert!(
        wall <= budget + Duration::from_millis(150),
        "solve ran {wall:?} against a {budget:?} budget (status {:?})",
        res.status
    );
}

/// The deadline is `start + time_limit`; `Duration::MAX` cannot be
/// added to an `Instant` and must read as "no deadline", not panic.
#[test]
fn unrepresentable_time_limit_means_no_deadline() {
    let mut m = Model::new("one");
    let x = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
    m.add_con(vec![(x, 2.0)], Cmp::Le, 1.0);
    let opts = MipOptions { time_limit: std::time::Duration::MAX, ..exact_opts() };
    let res = solve_mip(&m, &opts, &Stop::default(), &[], None).unwrap();
    assert_eq!(res.status, MipStatus::Optimal);
    let (obj, x) = res.incumbent.expect("x = 0 is feasible");
    assert_eq!((obj, x), (0.0, vec![0.0]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_mip_with_equalities_matches_exhaustive(seed in any::<u64>()) {
        // binaries with one equality row (pick exactly k) + one <= row
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4..=7usize);
        let k = rng.gen_range(1..=n / 2) as f64;
        let mut m = Model::new("prop-eq");
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-5.0..5.0f64), VarKind::Binary))
            .collect();
        m.add_con(vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, k);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..3.0)).collect();
        m.add_con(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(),
            Cmp::Le,
            weights.iter().sum::<f64>(), // always satisfiable
        );
        let brute = brute_force_binary(&m);
        let res = solve_mip(&m, &exact_opts(), &Stop::default(), &[], None).unwrap();
        match brute {
            Some(opt) => {
                let (obj, _) = res.incumbent.expect("brute force found a point");
                prop_assert!((obj - opt).abs() <= 1e-6 * (1.0 + opt.abs()),
                    "bb {} vs brute {}", obj, opt);
            }
            None => prop_assert_eq!(res.status, MipStatus::Infeasible),
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-form LP regressions (inherited from the dense tableau's own suite)
// ---------------------------------------------------------------------------

/// `(terms, cmp, rhs)`.
type Row<'a> = (&'a [(usize, f64)], Cmp, f64);

/// `min Σ obj·x` over `(lo, hi, obj)` variables and `rows`.
fn lp(vars: &[(f64, f64, f64)], rows: &[Row<'_>]) -> Model {
    let mut m = Model::new("closed-form");
    for &(lo, hi, obj) in vars {
        m.add_var(lo, hi, obj, VarKind::Continuous);
    }
    for &(terms, cmp, rhs) in rows {
        m.add_con(terms.iter().map(|&(j, a)| (VarId(j), a)).collect(), cmp, rhs);
    }
    m
}

/// Solve through the public entry point and require `status`; an
/// optimum must also pass the certificate.
fn solved(m: &Model, status: LpStatus) -> SparseSolution {
    let s = m.solve_lp(&LpOptions::default()).expect("valid model");
    assert_eq!(s.status, status);
    if status == LpStatus::Optimal {
        assert_eq!(m.certify(&s.x, &s.duals, CERT_TOL), Ok(()));
    }
    s
}

fn assert_near(got: f64, want: f64) {
    assert!((got - want).abs() < 1e-8, "{got} vs {want}");
}

const INF: f64 = f64::INFINITY;

#[test]
fn bounds_alone_decide_a_rowless_lp() {
    // min x over [1, 5]; max x over [0, 5] by negation
    assert_near(solved(&lp(&[(1.0, 5.0, 1.0)], &[]), LpStatus::Optimal).objective, 1.0);
    assert_near(solved(&lp(&[(0.0, 5.0, -1.0)], &[]), LpStatus::Optimal).x[0], 5.0);
    // a box and a column free above, one cost of each sign: (2, -1), -3
    let m = lp(&[(0.0, 2.0, -1.0), (-1.0, INF, 1.0)], &[]);
    assert_near(solved(&m, LpStatus::Optimal).objective, -3.0);
}

#[test]
fn dantzig_textbook_2d() {
    // min -3x - 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), -36;
    // the negative costs need upper bounds (10: not binding)
    let m = lp(
        &[(0.0, 10.0, -3.0), (0.0, 10.0, -5.0)],
        &[
            (&[(0, 1.0)], Cmp::Le, 4.0),
            (&[(1, 2.0)], Cmp::Le, 12.0),
            (&[(0, 3.0), (1, 2.0)], Cmp::Le, 18.0),
        ],
    );
    let s = solved(&m, LpStatus::Optimal);
    assert_near(s.objective, -36.0);
    assert_near(s.x[0], 2.0);
    assert_near(s.x[1], 6.0);
}

#[test]
fn equality_rows_pin_the_point() {
    // x + y = 10, x - y = 4 -> (7, 3)
    let m = lp(
        &[(0.0, INF, 1.0), (0.0, INF, 1.0)],
        &[(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 10.0), (&[(0, 1.0), (1, -1.0)], Cmp::Eq, 4.0)],
    );
    let s = solved(&m, LpStatus::Optimal);
    assert_near(s.x[0], 7.0);
    assert_near(s.x[1], 3.0);
}

#[test]
fn ge_rows_cut_off_the_origin() {
    // min 2x + 3y st x + y >= 10, x >= 2: the origin is infeasible;
    // optimum (10, 0), 20
    let m = lp(
        &[(0.0, INF, 2.0), (0.0, INF, 3.0)],
        &[(&[(0, 1.0), (1, 1.0)], Cmp::Ge, 10.0), (&[(0, 1.0)], Cmp::Ge, 2.0)],
    );
    assert_near(solved(&m, LpStatus::Optimal).objective, 20.0);
}

#[test]
fn infeasible_verdicts_and_the_unbounded_refusal() {
    // x <= 1 by its bound, x >= 2 by a row
    solved(&lp(&[(0.0, 1.0, 1.0)], &[(&[(0, 1.0)], Cmp::Ge, 2.0)]), LpStatus::Infeasible);
    // the same contradiction across two variables
    let m = lp(&[(0.0, 1.0, 1.0), (0.0, 1.0, 1.0)], &[(&[(0, 1.0), (1, 1.0)], Cmp::Ge, 3.0)]);
    solved(&m, LpStatus::Infeasible);
    // a row whose only coefficient is zero: 0 >= 1 has no point, 0 <= 1
    // binds nothing
    let zero: &[(usize, f64)] = &[(0, 0.0)];
    solved(&lp(&[(0.0, 1.0, 1.0)], &[(zero, Cmp::Ge, 1.0)]), LpStatus::Infeasible);
    assert_near(
        solved(&lp(&[(0.0, 1.0, -1.0)], &[(zero, Cmp::Le, 1.0)]), LpStatus::Optimal).x[0],
        1.0,
    );
    // min -x st x - y <= 1: the ray (1, 1) improves forever, and the
    // uncapped negative cost that makes it is refused up front
    let m = lp(&[(0.0, INF, -1.0), (0.0, INF, 0.0)], &[(&[(0, 1.0), (1, -1.0)], Cmp::Le, 1.0)]);
    let got = m.solve_lp(&LpOptions::default()).map(|s| s.status);
    assert_eq!(got, Err(SolveError::NegativeCostUncapped(VarId(0))));
}

#[test]
fn upper_bounds_act_without_rows() {
    // max x + y + z st x + y + z <= 10, boxes 2, 3, 4: all at their bounds
    let m = lp(
        &[(0.0, 2.0, -1.0), (0.0, 3.0, -1.0), (0.0, 4.0, -1.0)],
        &[(&[(0, 1.0), (1, 1.0), (2, 1.0)], Cmp::Le, 10.0)],
    );
    assert_near(solved(&m, LpStatus::Optimal).objective, -9.0);
    // max 2x + y st x + y <= 3, boxes 2, 2: the row binds, (2, 1)
    let m = lp(&[(0.0, 2.0, -2.0), (0.0, 2.0, -1.0)], &[(&[(0, 1.0), (1, 1.0)], Cmp::Le, 3.0)]);
    let s = solved(&m, LpStatus::Optimal);
    assert_near(s.objective, -5.0);
    assert_near(s.x[0], 2.0);
    assert_near(s.x[1], 1.0);
}

#[test]
fn negative_lower_bounds_are_native() {
    // min x + y, x >= -5, y in [0, 3], x + y >= 0: the row is the bound
    let m = lp(&[(-5.0, INF, 1.0), (0.0, 3.0, 1.0)], &[(&[(0, 1.0), (1, 1.0)], Cmp::Ge, 0.0)]);
    assert_near(solved(&m, LpStatus::Optimal).objective, 0.0);
}

#[test]
fn empty_domain_is_an_error_not_a_verdict() {
    let m = lp(&[(2.0, 1.0, 1.0)], &[]);
    assert_eq!(m.solve_lp(&LpOptions::default()).unwrap_err(), SolveError::EmptyDomain(VarId(0)));
}

#[test]
fn a_variable_fixed_by_equal_bounds_keeps_its_value() {
    // x = 2.5, x + y >= 4 -> y = 1.5
    let m = lp(&[(2.5, 2.5, 1.0), (0.0, 10.0, 1.0)], &[(&[(0, 1.0), (1, 1.0)], Cmp::Ge, 4.0)]);
    let s = solved(&m, LpStatus::Optimal);
    assert_near(s.x[0], 2.5);
    assert_near(s.x[1], 1.5);
}

#[test]
fn redundant_equalities_are_harmless() {
    // x + y = 4 stated twice (once doubled): a rank-deficient row set
    let m = lp(
        &[(0.0, INF, 1.0), (0.0, INF, 2.0)],
        &[(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 4.0), (&[(0, 2.0), (1, 2.0)], Cmp::Eq, 8.0)],
    );
    assert_near(solved(&m, LpStatus::Optimal).objective, 4.0); // (4, 0)
}

#[test]
fn duplicate_terms_are_summed() {
    // x + x >= 6 -> x = 3
    let m = lp(&[(0.0, 10.0, 1.0)], &[(&[(0, 1.0), (0, 1.0)], Cmp::Ge, 6.0)]);
    assert_near(solved(&m, LpStatus::Optimal).x[0], 3.0);
}

#[test]
fn badly_scaled_rows_survive_equilibration() {
    // coefficients spread over 16 orders of magnitude between the rows
    let m = lp(
        &[(0.0, INF, 1.0), (0.0, INF, 1.0)],
        &[(&[(0, 2.5e10), (1, 1e10)], Cmp::Ge, 5e10), (&[(0, 1e-6), (1, 3e-6)], Cmp::Ge, 4e-6)],
    );
    let s = solved(&m, LpStatus::Optimal);
    // feasibility at a tolerance scaled to each row's magnitude
    assert!(2.5e10 * s.x[0] + 1e10 * s.x[1] >= 5e10 * (1.0 - 1e-7));
    assert!(1e-6 * s.x[0] + 3e-6 * s.x[1] >= 4e-6 * (1.0 - 1e-7));
    // the two rows meet at (22, 10) / 13, where x + y is smallest
    assert!((s.objective - 32.0 / 13.0).abs() < 1e-6, "{}", s.objective);
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

/// A non-finite coefficient or right-hand side is an error at both entry
/// points, wherever it sits: a singleton row, a fixed column, a row with
/// two live terms.
#[test]
fn non_finite_rows_are_rejected_at_both_entry_points() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let x = (0.0, 4.0, -1.0);
        let models = [
            lp(&[x], &[(&[(0, bad)], Cmp::Le, 2.0)]), // singleton coefficient
            lp(&[x], &[(&[(0, 1.0)], Cmp::Le, bad)]), // singleton rhs
            lp(&[x, (1.0, 1.0, 0.0)], &[(&[(0, 1.0), (1, bad)], Cmp::Le, 9.0)]), // fixed column
            lp(&[x, x], &[(&[(0, bad), (1, 1.0)], Cmp::Le, 2.0)]), // two live terms
        ];
        for (case, m) in models.iter().enumerate() {
            let got = m.solve_lp(&LpOptions::default()).map(|s| (s.status, s.objective));
            assert_eq!(got, Err(SolveError::BadCoefficient), "solve_lp, case {case}, {bad}");
            let got = solve_mip(m, &exact_opts(), &Stop::default(), &[], None).map(|r| r.status);
            assert_eq!(got, Err(SolveError::BadCoefficient), "solve_mip, case {case}, {bad}");
        }
    }
}
