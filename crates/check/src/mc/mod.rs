//! Exhaustive interleaving model checker for `cellstream_rt::SpscRing`.
//!
//! The ring's counters and slots are generic ([`AtomicCounter`],
//! [`RingSlot`]), so this module injects **simulated** implementations
//! into the exact `try_push`/`try_pop` source that ships and enumerates
//! every producer/consumer schedule under a weakly-ordered operational
//! memory model:
//!
//! * every store lands in the storing side's **store buffer** and
//!   becomes visible to the other side only when it *drains* to shared
//!   memory — a scheduler choice, not a fixed delay;
//! * drains respect per-location FIFO within one buffer (coherence) and
//!   the `Release` constraint: a `Release` store drains only once it is
//!   the oldest entry of its buffer, i.e. after everything the thread
//!   stored before it — exactly the one-way barrier the real ordering
//!   provides. Non-`Release` stores may drain **out of order** past
//!   older entries (ARM-style store reordering), which is what a
//!   deliberately weakened ordering exposes;
//! * loads read the loader's own newest buffered value for the location
//!   (store-to-load forwarding) or else shared memory. Load reordering
//!   is *not* modelled: the checker verifies the store-release
//!   discipline, which is where this protocol's correctness lives (see
//!   DESIGN.md for scope and limits).
//!
//! Scheduling choices are: which side attempts its next operation, and,
//! before each cross-thread load, which (if any) of the other side's
//! drainable entries commit first. The driver enumerates all schedules
//! by stateless depth-first replay and asserts, per schedule: no slot
//! reuse (a publish never overwrites an untaken item), no lost publish
//! (every successfully pushed item is popped, exactly once), FIFO
//! order, and `try_push` backpressure that never admits an item into a
//! full ring (conservative refusals are allowed — a refusal only means
//! a freed slot was not visible *yet*).

use cellstream_rt::{AtomicCounter, RingSlot, SpscRing};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::Ordering;

const LOC_PRODUCED: usize = 0;
const LOC_CONSUMED: usize = 1;
const SLOT_BASE: usize = 2;
/// Slot encoding: 0 = empty, `v + 1` = `Some(v)`.
const EMPTY: u64 = 0;

const PRODUCER: usize = 0;
const CONSUMER: usize = 1;

/// Which `Release` store to deliberately weaken to `Relaxed` — the
/// negative tests prove the checker catches each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weaken {
    /// Ship the orderings as written.
    Nothing,
    /// The producer's `produced.store(.., Release)` publish.
    ProducedRelease,
    /// The consumer's `consumed.store(.., Release)` recycle.
    ConsumedRelease,
}

/// One bounded checking scenario.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Ring capacity (the paper's rings are tiny; 1–3 is exhaustive).
    pub capacity: usize,
    /// `try_push` attempts the producer makes (values 0, 1, 2, …).
    pub push_attempts: usize,
    /// `try_pop` attempts the consumer makes during the race phase.
    pub pop_attempts: usize,
    /// Ordering weakening under test.
    pub weaken: Weaken,
}

/// Successful exhaustive run.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Number of complete schedules executed.
    pub executions: u64,
}

/// A schedule that broke an invariant.
#[derive(Debug)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// The choice sequence reproducing it (see [`CheckConfig`]).
    pub schedule: Vec<usize>,
    /// Schedules executed up to and including the failing one.
    pub executions: u64,
}

/// One buffered, not-yet-visible store.
#[derive(Debug, Clone)]
struct Entry {
    loc: usize,
    value: u64,
    release: bool,
}

/// The simulated memory + scheduler state shared by the counters, the
/// slots and the driver of one execution.
#[derive(Debug)]
struct SimState {
    shared: Vec<u64>,
    buffers: [Vec<Entry>; 2],
    /// Which side is currently executing ring code.
    current: usize,
    /// Replay prefix for this execution (DFS position).
    prefix: Vec<usize>,
    /// `(chosen, n_options)` log of every choice point hit.
    taken: Vec<(usize, usize)>,
    /// First invariant breach detected inside the simulation.
    violation: Option<String>,
    /// `false` once the race phase ends: stores apply directly and
    /// loads stop consulting the scheduler.
    interleaving: bool,
}

impl SimState {
    fn new(capacity: usize, prefix: Vec<usize>) -> SimState {
        SimState {
            shared: vec![0; SLOT_BASE + capacity],
            buffers: [Vec::new(), Vec::new()],
            current: PRODUCER,
            prefix,
            taken: Vec::new(),
            violation: None,
            interleaving: true,
        }
    }

    /// Resolve one scheduler choice among `n` options.
    fn choose(&mut self, n: usize) -> usize {
        let idx = self.taken.len();
        let c = if idx < self.prefix.len() { self.prefix[idx] } else { 0 };
        debug_assert!(c < n, "replayed choice out of range");
        self.taken.push((c, n));
        c
    }

    /// The side that is the sole writer of `loc`, if any.
    fn owner(loc: usize) -> Option<usize> {
        match loc {
            LOC_PRODUCED => Some(PRODUCER),
            LOC_CONSUMED => Some(CONSUMER),
            _ => None,
        }
    }

    /// Indices into the *other* side's buffer that may drain now:
    /// nothing older targets the same location, and a `Release` entry
    /// must be the oldest of its buffer.
    fn drainable(&self) -> Vec<usize> {
        let other = 1 - self.current;
        let buf = &self.buffers[other];
        (0..buf.len())
            .filter(|&i| {
                let e = &buf[i];
                let coherent = buf[..i].iter().all(|p| p.loc != e.loc);
                let ordered = !e.release || i == 0;
                coherent && ordered
            })
            .collect()
    }

    fn drain(&mut self, side: usize, idx: usize) {
        let e = self.buffers[side].remove(idx);
        self.shared[e.loc] = e.value;
    }

    /// Commit everything, oldest-first per buffer (always legal).
    fn drain_all(&mut self) {
        for side in [PRODUCER, CONSUMER] {
            while !self.buffers[side].is_empty() {
                self.drain(side, 0);
            }
        }
    }

    /// A load as the ring code sees it: during the race phase a
    /// cross-thread load is a choice point — any subset of the other
    /// side's drainable entries may commit first, one at a time —
    /// then the value is the loader's own newest buffered store for
    /// the location (forwarding) or shared memory.
    fn load(&mut self, loc: usize) -> u64 {
        if self.interleaving && Self::owner(loc) != Some(self.current) {
            loop {
                let opts = self.drainable();
                if opts.is_empty() {
                    break;
                }
                let k = self.choose(1 + opts.len());
                if k == 0 {
                    break;
                }
                self.drain(1 - self.current, opts[k - 1]);
            }
        }
        let own = self.buffers[self.current].iter().rev().find(|e| e.loc == loc);
        own.map_or(self.shared[loc], |e| e.value)
    }

    fn store(&mut self, loc: usize, value: u64, release: bool) {
        if self.interleaving {
            self.buffers[self.current].push(Entry { loc, value, release });
        } else {
            self.shared[loc] = value;
        }
    }

    fn flag(&mut self, message: String) {
        self.violation.get_or_insert(message);
    }
}

/// Shared handle to one execution's simulation.
#[derive(Debug, Clone)]
struct Env(Rc<RefCell<SimState>>);

/// An [`AtomicCounter`] backed by simulated memory. `Release` stores
/// keep their barrier unless this counter is the weakened one; loads
/// are in-order (see the module docs for model scope).
#[derive(Debug, Clone)]
struct SimCounter {
    env: Env,
    loc: usize,
    weaken: bool,
}

impl AtomicCounter for SimCounter {
    fn load(&self, _order: Ordering) -> u64 {
        self.env.0.borrow_mut().load(self.loc)
    }

    fn store(&self, value: u64, order: Ordering) {
        let release = order == Ordering::Release && !self.weaken;
        self.env.0.borrow_mut().store(self.loc, value, release);
    }
}

/// A [`RingSlot`] backed by simulated memory; detects slot reuse at
/// `put` time (an untaken item anywhere in coherence order).
#[derive(Debug, Clone)]
struct SimSlot {
    env: Env,
    loc: usize,
}

impl RingSlot<u64> for SimSlot {
    fn put(&self, item: u64) {
        let mut st = self.env.0.borrow_mut();
        if st.interleaving {
            let pending = st.buffers.iter().any(|b| b.iter().any(|e| e.loc == self.loc));
            if pending || st.shared[self.loc] != EMPTY {
                st.flag(format!(
                    "slot reuse: publishing item {item} over a slot still holding an \
                     untaken or un-drained value"
                ));
            }
        }
        let loc = self.loc;
        st.store(loc, item + 1, false);
    }

    fn take(&self) -> Option<u64> {
        let mut st = self.env.0.borrow_mut();
        let v = st.load(self.loc);
        let loc = self.loc;
        st.store(loc, EMPTY, false);
        if v == EMPTY {
            None
        } else {
            Some(v - 1)
        }
    }
}

/// Exhaustively check one scenario. `Ok` means every schedule upheld
/// every invariant; `Err` carries the first violating schedule.
pub fn check_spsc(cfg: &CheckConfig) -> Result<CheckOutcome, Violation> {
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0u64;
    loop {
        executions += 1;
        let (taken, violation) = run_schedule(cfg, prefix.clone());
        if let Some(message) = violation {
            return Err(Violation {
                message,
                schedule: taken.iter().map(|&(c, _)| c).collect(),
                executions,
            });
        }
        // advance depth-first: bump the deepest choice with options left
        let mut t = taken;
        loop {
            match t.pop() {
                None => return Ok(CheckOutcome { executions }),
                Some((c, n)) if c + 1 < n => {
                    t.push((c + 1, n));
                    prefix = t.iter().map(|&(c, _)| c).collect();
                    break;
                }
                Some(_) => {}
            }
        }
    }
}

/// Execute one complete schedule; returns the choice log and the first
/// violation (from the simulation, the driver's ground-truth checks, or
/// a panic out of the shipped ring code — its `debug_assert` firing on
/// an empty published slot is itself a detection).
fn run_schedule(cfg: &CheckConfig, prefix: Vec<usize>) -> (Vec<(usize, usize)>, Option<String>) {
    let env = Env(Rc::new(RefCell::new(SimState::new(cfg.capacity, prefix))));
    let slots: Vec<SimSlot> =
        (0..cfg.capacity).map(|k| SimSlot { env: env.clone(), loc: SLOT_BASE + k }).collect();
    let produced = SimCounter {
        env: env.clone(),
        loc: LOC_PRODUCED,
        weaken: cfg.weaken == Weaken::ProducedRelease,
    };
    let consumed = SimCounter {
        env: env.clone(),
        loc: LOC_CONSUMED,
        weaken: cfg.weaken == Weaken::ConsumedRelease,
    };
    // the system under test: the exact SpscRing source that ships
    let ring: SpscRing<u64, SimCounter, SimSlot> = SpscRing::from_parts(slots, produced, consumed);

    let outcome = catch_unwind(AssertUnwindSafe(|| drive(&ring, &env, cfg)));
    let mut st = env.0.borrow_mut();
    let downstream = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(driver_violation)) => Some(driver_violation),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "ring code panicked".to_string());
            Some(format!("panic in ring code: {msg}"))
        }
    };
    // root cause over symptom: the simulation's own diagnosis (e.g. slot
    // reuse) outranks the driver check or the panic it provoked
    // downstream — whichever of the two the build profile lets fire —
    // and a clean driver result
    let violation = st.violation.take().or(downstream);
    (std::mem::take(&mut st.taken), violation)
}

/// The two bounded thread programs, interleaved by scheduler choices.
/// Ground truth (`pushed`/`popped`) is exact because the driver itself
/// is sequential — only the simulated memory reorders.
fn drive(
    ring: &SpscRing<u64, SimCounter, SimSlot>,
    env: &Env,
    cfg: &CheckConfig,
) -> Result<(), String> {
    let cap = cfg.capacity as u64;
    let (mut push_left, mut pop_left) = (cfg.push_attempts, cfg.pop_attempts);
    let mut next_push = 0u64;
    let mut pushed = 0u64;
    let mut popped = 0u64;
    let mut expect = 0u64;

    while push_left > 0 || pop_left > 0 {
        let side = if push_left == 0 {
            CONSUMER
        } else if pop_left == 0 || env.0.borrow_mut().choose(2) == 0 {
            PRODUCER
        } else {
            CONSUMER
        };
        if side == PRODUCER {
            env.0.borrow_mut().current = PRODUCER;
            let was_full = pushed - popped == cap;
            match ring.try_push(next_push) {
                Ok(()) => {
                    if was_full {
                        return Err(format!(
                            "backpressure breach: try_push({next_push}) succeeded on a \
                             full ring ({pushed} pushed, {popped} popped, capacity {cap})"
                        ));
                    }
                    pushed += 1;
                    next_push += 1;
                }
                Err(back) => {
                    if back != next_push {
                        return Err(format!(
                            "refused push returned {back}, not the offered {next_push}"
                        ));
                    }
                    // refusing a non-full ring is allowed: the freed
                    // slot may simply not have drained into view yet
                }
            }
            push_left -= 1;
        } else {
            env.0.borrow_mut().current = CONSUMER;
            if let Some(v) = ring.try_pop() {
                if v != expect {
                    return Err(format!("FIFO breach: popped {v}, expected {expect}"));
                }
                expect += 1;
                popped += 1;
            }
            pop_left -= 1;
        }
    }

    // race phase over: commit every pending store and recover the rest
    {
        let mut st = env.0.borrow_mut();
        st.interleaving = false;
        st.drain_all();
        st.current = CONSUMER;
    }
    while let Some(v) = ring.try_pop() {
        if v != expect {
            return Err(format!("FIFO breach in drain-down: popped {v}, expected {expect}"));
        }
        expect += 1;
        popped += 1;
        if popped > pushed {
            return Err(format!("phantom item: popped {popped} of {pushed} pushed"));
        }
    }
    if popped != pushed {
        return Err(format!(
            "lost publish: {pushed} pushes succeeded but only {popped} items were popped"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests;
