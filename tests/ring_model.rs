//! The ring every instance and every intake event travels through,
//! model-checked in tier-1: `cellstream_check::mc` runs the shipped
//! `rt::Ring` source against simulated weakly-ordered memory over every
//! schedule. The shipped orderings must survive both consumer programs
//! — the queue's pop-one `try_pop` and the engine's peek-2 window — and
//! each deliberately weakened ordering must be caught, otherwise the
//! checker proves nothing. Capacity 3 runs under
//! `cargo test -p cellstream-check`.

use cellstream_check::mc::{check_ring, CheckConfig, Weaken};

const POP_ONE: usize = 0;
const PEEK_2: usize = 2;

fn cfg(capacity: usize, attempts: usize, peek: usize, weaken: Weaken) -> CheckConfig {
    CheckConfig { capacity, push_attempts: attempts, pop_attempts: attempts, peek, weaken }
}

fn survives(capacity: usize, attempts: usize, peek: usize) {
    let out = check_ring(&cfg(capacity, attempts, peek, Weaken::Nothing)).unwrap_or_else(|v| {
        panic!("peek {peek}: violation `{}` under schedule {:?}", v.message, v.schedule)
    });
    // exhaustiveness sanity: this is a real state-space walk, not a
    // handful of smoke schedules
    assert!(out.executions > 1_000, "peek {peek}: only {} schedules explored", out.executions);
}

#[test]
fn shipped_orderings_survive_capacity_1() {
    survives(1, 5, POP_ONE);
    survives(1, 5, PEEK_2);
}

#[test]
fn shipped_orderings_survive_capacity_2() {
    survives(2, 5, POP_ONE);
    survives(2, 5, PEEK_2);
}

#[test]
fn weakened_publish_ordering_is_caught() {
    // the producer's `produced.store(.., Release)` demoted to relaxed:
    // the count may drain before the slot write, so the consumer can
    // read a published slot that does not hold its instance yet
    for peek in [POP_ONE, PEEK_2] {
        for capacity in [1, 2] {
            let v = check_ring(&cfg(capacity, 3, peek, Weaken::ProducedRelease))
                .expect_err("a relaxed publish store must be caught");
            assert!(
                ["panic in ring code", "lost publish", "FIFO", "window breach"]
                    .iter()
                    .any(|kind| v.message.contains(kind)),
                "peek {peek}, capacity {capacity}: unexpected violation kind: {}",
                v.message
            );
        }
    }
}

#[test]
fn weakened_recycle_ordering_is_caught_by_the_pop_one_program() {
    // the consumer's `consumed.store(.., Release)` demoted to relaxed:
    // the freed count may drain before the take's store to the slot, so
    // the producer's write lands under a store still in flight. The
    // window program stores nothing to its slots, and loads are not
    // reordered in the model, so there only the pop-one program can
    // expose it
    for (capacity, attempts) in [(1, 3), (2, 4)] {
        let v = check_ring(&cfg(capacity, attempts, POP_ONE, Weaken::ConsumedRelease))
            .expect_err("a relaxed recycle store must be caught");
        assert!(
            v.message.contains("slot reuse") || v.message.contains("FIFO"),
            "capacity {capacity}: unexpected violation kind: {}",
            v.message
        );
    }
}
