//! Exhaustive interleaving model checker for `cellstream_rt::Ring`.
//!
//! The ring's counters and slots are generic ([`AtomicCounter`],
//! [`SlotLock`]), so this module injects **simulated** implementations
//! into the exact `can_produce`/`write_next`/`publish` and
//! `window_ready`/`read`/`release` source that ships and enumerates every
//! producer/consumer schedule under a weakly-ordered operational memory
//! model:
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
//! The producer runs `try_push` (`can_produce`, `write_next`, `publish`)
//! in both programs. The consumer runs one of two: the **pop-one**
//! program is the queue's `try_pop`, which takes each item out of its
//! slot; the **window** program holds `read(i ..= i+peek)` and then
//! releases `i`, as `rt`'s engine executes a task with peek `peek`.
//!
//! Scheduling choices are: which side attempts its next operation, and,
//! at each cross-thread load, which of the other side's buffered stores
//! to the location (if any) it reads — that store then drains with
//! exactly the stores it must follow. The driver enumerates all schedules
//! by stateless depth-first replay and asserts, per schedule: no slot
//! reuse (a write never lands over a slot store still in flight), no
//! lost publish (every successfully pushed item is consumed, exactly
//! once), FIFO order and window contents, and `try_push` backpressure
//! that never admits an item into a full ring (conservative refusals
//! are allowed — a refusal only means a freed slot was not visible
//! *yet*).

use cellstream_rt::{AtomicCounter, Ring, SlotLock};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::Ordering;

const LOC_PRODUCED: usize = 0;
const LOC_CONSUMED: usize = 1;
const SLOT_BASE: usize = 2;

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
    /// Consumer attempts during the race phase.
    pub pop_attempts: usize,
    /// The consumer program: 0 is the pop-one program (`try_pop`); `p`
    /// is the window program, holding instances `i ..= i+p` — capped at
    /// `capacity − 1`, the deepest window a ring that size holds (the
    /// engine's §4.2 sizing always gives at least `p + 1` slots).
    pub peek: usize,
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

    /// Drain entry `idx` of `side`'s buffer to shared memory together
    /// with every entry that must drain before it, oldest first: older
    /// entries for the same location (coherence) and, before a `Release`
    /// entry, everything older.
    fn land(&mut self, side: usize, idx: usize) {
        let buf = &self.buffers[side];
        let mut due = vec![false; idx + 1];
        due[idx] = true;
        for j in (0..=idx).rev() {
            for i in 0..j {
                due[i] |= due[j] && (buf[j].release || buf[i].loc == buf[j].loc);
            }
        }
        for (landed, i) in (0..=idx).filter(|&i| due[i]).enumerate() {
            let e = self.buffers[side].remove(i - landed);
            self.shared[e.loc] = e.value;
        }
    }

    /// Commit everything, oldest-first per buffer (always legal).
    fn drain_all(&mut self) {
        for side in [PRODUCER, CONSUMER] {
            while !self.buffers[side].is_empty() {
                self.land(side, 0);
            }
        }
    }

    /// A load as the ring code sees it. During the race phase a
    /// cross-thread load is a choice point: the value may come from
    /// shared memory or from any of the other side's buffered stores to
    /// the location, which then drains with exactly the stores that must
    /// drain before it. Draining only what a load reads reaches every
    /// value sequence that draining any subset at every load reaches,
    /// and leaves each store in flight as long as possible. Then the
    /// value is the loader's own newest buffered store for the location
    /// (forwarding) or shared memory.
    fn load(&mut self, loc: usize) -> u64 {
        if self.interleaving && Self::owner(loc) != Some(self.current) {
            let other = 1 - self.current;
            let stores: Vec<usize> = (0..self.buffers[other].len())
                .filter(|&i| self.buffers[other][i].loc == loc)
                .collect();
            let k = self.choose(1 + stores.len());
            if k > 0 {
                self.land(other, stores[k - 1]);
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

/// A [`SlotLock`] backed by simulated memory: locking loads the slot,
/// and a guard that was written through stores it back when it drops.
/// Slot encoding: 0 = `None`, `v + 1` = `Some(v)`.
#[derive(Debug, Clone)]
struct SimSlot {
    env: Env,
    loc: usize,
}

/// A locked [`SimSlot`].
struct SimGuard<'a> {
    slot: &'a SimSlot,
    value: Option<u64>,
    written: bool,
}

impl SlotLock<Option<u64>> for SimSlot {
    fn lock(&self) -> impl DerefMut<Target = Option<u64>> + '_ {
        let raw = self.env.0.borrow_mut().load(self.loc);
        SimGuard { slot: self, value: raw.checked_sub(1), written: false }
    }
}

impl Deref for SimGuard<'_> {
    type Target = Option<u64>;
    fn deref(&self) -> &Option<u64> {
        &self.value
    }
}

impl DerefMut for SimGuard<'_> {
    fn deref_mut(&mut self) -> &mut Option<u64> {
        self.written = true;
        &mut self.value
    }
}

impl Drop for SimGuard<'_> {
    /// Store a written slot back. A store to the slot still in flight
    /// at that point is a producer overwriting an item the consumer may
    /// not have taken (slot reuse), or the consumer taking from a slot
    /// its item has not reached (lost publish).
    fn drop(&mut self) {
        if !self.written {
            return;
        }
        let mut st = self.slot.env.0.borrow_mut();
        let loc = self.slot.loc;
        if st.interleaving && st.buffers.iter().flatten().any(|e| e.loc == loc) {
            let what =
                if st.current == PRODUCER { "slot reuse: writing" } else { "lost publish: taking" };
            st.flag(format!("{what} {:?} while a store to its slot is in flight", self.value));
        }
        st.store(loc, self.value.map_or(0, |v| v + 1), false);
    }
}

type SimRing = Ring<Option<u64>, SimCounter, SimSlot>;

/// Exhaustively check one scenario. `Ok` means every schedule upheld
/// every invariant; `Err` carries the first violating schedule.
pub fn check_ring(cfg: &CheckConfig) -> Result<CheckOutcome, Violation> {
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
    let counter = |loc, weaken| SimCounter { env: env.clone(), loc, weaken: cfg.weaken == weaken };
    // the system under test: the exact Ring source that ships
    let ring: SimRing = Ring::from_parts(
        slots,
        counter(LOC_PRODUCED, Weaken::ProducedRelease),
        counter(LOC_CONSUMED, Weaken::ConsumedRelease),
    );

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

/// One consumer attempt on instance `i`, whose window ends at `last`:
/// `Ok(false)` when it is not ready yet.
fn consume(ring: &SimRing, cfg: &CheckConfig, i: u64, last: u64) -> Result<bool, String> {
    if cfg.peek == 0 {
        return match ring.try_pop() {
            None => Ok(false),
            Some(v) if v == i => Ok(true),
            Some(v) => Err(format!("FIFO breach: popped {v}, expected {i}")),
        };
    }
    if !ring.window_ready(last) {
        return Ok(false);
    }
    // the whole window locked at once, then the oldest instance
    // released, as the engine executes a task
    let window: Vec<_> = (i..=last).map(|j| ring.read(j)).collect();
    if let Some((j, slot)) = (i..).zip(&window).find(|(j, slot)| ***slot != Some(*j)) {
        return Err(format!("window breach: instance {j} read as {:?}", **slot));
    }
    drop(window);
    ring.release(i);
    Ok(true)
}

/// The two bounded thread programs, interleaved by scheduler choices.
/// Ground truth (`pushed`/`consumed`) is exact because the driver itself
/// is sequential — only the simulated memory reorders.
fn drive(ring: &SimRing, env: &Env, cfg: &CheckConfig) -> Result<(), String> {
    let cap = cfg.capacity as u64;
    let peek = (cfg.peek as u64).min(cap - 1);
    let (mut push_left, mut pop_left) = (cfg.push_attempts, cfg.pop_attempts);
    let (mut pushed, mut consumed) = (0u64, 0u64);

    while push_left > 0 || pop_left > 0 {
        let side = if push_left == 0 {
            CONSUMER
        } else if pop_left == 0 || env.0.borrow_mut().choose(2) == 0 {
            PRODUCER
        } else {
            CONSUMER
        };
        env.0.borrow_mut().current = side;
        if side == PRODUCER {
            let was_full = pushed - consumed == cap;
            match ring.try_push(pushed) {
                Ok(()) if was_full => {
                    return Err(format!(
                        "backpressure breach: try_push({pushed}) succeeded on a full ring \
                         ({consumed} consumed, capacity {cap})"
                    ))
                }
                Ok(()) => pushed += 1,
                Err(back) if back != pushed => {
                    return Err(format!("refused push returned {back}, not the offered {pushed}"))
                }
                // refusing a non-full ring is allowed: the freed slot
                // may simply not have drained into view yet
                Err(_) => {}
            }
            push_left -= 1;
        } else {
            consumed += u64::from(consume(ring, cfg, consumed, consumed + peek)?);
            pop_left -= 1;
        }
    }

    // race phase over: commit every pending store and consume the rest,
    // the windows clamped at the stream's end as the engine clamps them
    {
        let mut st = env.0.borrow_mut();
        st.interleaving = false;
        st.drain_all();
        st.current = CONSUMER;
    }
    while consumed < pushed {
        if !consume(ring, cfg, consumed, (consumed + peek).min(pushed - 1))? {
            return Err(format!(
                "lost publish: {pushed} pushes succeeded but only {consumed} items were consumed"
            ));
        }
        consumed += 1;
    }
    if ring.window_ready(pushed) {
        return Err(format!("phantom item: the ring published more than the {pushed} pushed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests;
