//! Model-checker pins at capacity 3 and on degenerate programs. The
//! capacity-1 and capacity-2 proofs and every negative proof run from
//! the workspace root's `tests/ring_model.rs`, in tier-1; these take
//! longer and run under `cargo test -p cellstream-check`.

use super::{check_ring, CheckConfig, Weaken};

fn cfg(capacity: usize, push_attempts: usize, pop_attempts: usize, peek: usize) -> CheckConfig {
    CheckConfig { capacity, push_attempts, pop_attempts, peek, weaken: Weaken::Nothing }
}

#[test]
fn shipped_orderings_survive_capacity_3() {
    for (program, peek) in [("pop-one", 0), ("peek-2", 2)] {
        let out = check_ring(&cfg(3, 5, 5, peek)).unwrap_or_else(|v| {
            panic!("{program}: violation `{}` under schedule {:?}", v.message, v.schedule)
        });
        assert!(out.executions > 1_000, "{program}: only {} schedules explored", out.executions);
    }
}

#[test]
fn trivial_scenarios_terminate() {
    // no ops at all, and one-sided programs: nothing to race on
    for peek in [0, 2] {
        for c in [cfg(1, 0, 0, peek), cfg(2, 3, 0, peek), cfg(2, 0, 3, peek)] {
            let out = check_ring(&c).expect("one-sided scenarios are trivially safe");
            assert!(out.executions >= 1);
        }
    }
}
