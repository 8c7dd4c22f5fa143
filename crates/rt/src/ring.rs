//! The single-producer / single-consumer ring: the one hand-off type of
//! the workspace.
//!
//! A [`Ring`] holds `capacity` slots of any payload `T`. The producer
//! locks the next free slot ([`write_next`]), writes it in place and
//! [`publish`]es it; the consumer locks published slots ([`read`]) for as
//! long as it needs them — a peek window `i ..= i+p` is `p + 1` reads —
//! and [`release`]s the oldest. `rt`'s engine runs one ring of byte
//! buffers per edge, `firstPeriod(dst) − firstPeriod(src)` slots each
//! (§4.2). [`SpscRing`] is the same ring over `Option<T>` slots used as a
//! bounded queue of owned items ([`Ring::try_push`], [`Ring::try_pop`]).
//! Slot reuse is prevented by the produced/consumed counters, so each
//! slot's `Mutex` is uncontended — it exists to keep the crate free of
//! `unsafe`.
//!
//! # Memory-ordering contract
//!
//! The ring hands items across threads through exactly two
//! Release→Acquire pairs, documented here once because the model checker
//! in `cellstream-check` verifies precisely these (see DESIGN.md,
//! "Correctness tooling"):
//!
//! * **Publish pair** — the producer's `produced.store(i + 1, Release)`
//!   synchronises-with the consumer's `produced.load(Acquire)`. The slot
//!   write program-order-precedes the Release store, so any consumer
//!   that observes the incremented count also observes the slot
//!   contents: no *lost publish* (reading a slot before its item
//!   landed).
//! * **Recycle pair** — the consumer's `consumed.store(i + 1, Release)`
//!   synchronises-with the producer's `consumed.load(Acquire)`. The slot
//!   reads and takes program-order-precede the Release store, so any
//!   producer that observes the freed count may safely overwrite the
//!   slot: no *slot reuse* (clobbering an item the consumer has not
//!   taken).
//!
//! Each side loads **its own** counter with `Relaxed`: the loading
//! thread is that counter's only writer, so it always observes its own
//! latest store and no cross-thread ordering is needed.
//!
//! The counters are generic over [`AtomicCounter`] and the slots over
//! [`SlotLock`] so `cellstream-check` can substitute a simulated
//! weakly-ordered memory and exhaustively enumerate interleavings of
//! this exact source; normal builds monomorphise to [`AtomicU64`] and
//! [`Mutex`] with zero overhead.
//!
//! [`write_next`]: Ring::write_next
//! [`publish`]: Ring::publish
//! [`read`]: Ring::read
//! [`release`]: Ring::release

use parking_lot::Mutex;
use std::marker::PhantomData;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counter operations the ring needs, abstracted so a model checker
/// can substitute a simulated weakly-ordered implementation for the
/// real [`AtomicU64`]. Implementations must make `load` observe the
/// implementation's memory model; the ring only ever uses
/// `Relaxed`/`Acquire` loads and `Release` stores.
pub trait AtomicCounter {
    /// Read the counter with the given ordering.
    fn load(&self, order: Ordering) -> u64;
    /// Write the counter with the given ordering.
    fn store(&self, value: u64, order: Ordering);
}

impl AtomicCounter for AtomicU64 {
    #[inline(always)]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    #[inline(always)]
    fn store(&self, value: u64, order: Ordering) {
        AtomicU64::store(self, value, order)
    }
}

/// One slot of a [`Ring`], locked for in-place access, abstracted so a
/// model checker can route slot traffic through simulated memory. The
/// shipping implementation is [`Mutex`].
pub trait SlotLock<T> {
    /// Lock the slot; its payload is reachable until the guard drops.
    fn lock(&self) -> impl DerefMut<Target = T> + '_;
}

impl<T> SlotLock<T> for Mutex<T> {
    #[inline(always)]
    fn lock(&self) -> impl DerefMut<Target = T> + '_ {
        Mutex::lock(self)
    }
}

/// A fixed-capacity SPSC ring of `T` slots, read and written in place
/// (see the module docs). The SPSC contract — one producing thread, one
/// consuming thread — is the caller's to uphold; breaking it cannot
/// corrupt memory, only the order of items.
///
/// The `C`/`S` parameters exist for `cellstream-check`'s interleaving
/// model checker, which runs **this** code against simulated memory;
/// every normal build uses the defaults.
#[derive(Debug)]
pub struct Ring<T, C = AtomicU64, S = Mutex<T>> {
    slots: Vec<S>,
    produced: C,
    consumed: C,
    capacity: u64,
    _payload: PhantomData<fn() -> T>,
}

impl<T> Ring<T> {
    /// A ring of `capacity` slots, each starting out as `fill()`.
    pub fn new(capacity: u64, mut fill: impl FnMut() -> T) -> Self {
        let slots = (0..capacity).map(|_| Mutex::new(fill())).collect();
        Ring::from_parts(slots, AtomicU64::new(0), AtomicU64::new(0))
    }
}

impl<T, C: AtomicCounter, S: SlotLock<T>> Ring<T, C, S> {
    /// Assemble a ring from caller-built slots and counters (both
    /// counters must read 0). This is the model checker's entry point —
    /// it injects simulated slots and counters here; normal code uses
    /// [`Ring::new`].
    pub fn from_parts(slots: Vec<S>, produced: C, consumed: C) -> Self {
        assert!(!slots.is_empty(), "a ring needs at least one slot");
        let capacity = slots.len() as u64;
        Ring { slots, produced, consumed, capacity, _payload: PhantomData }
    }

    /// Instances produced so far.
    pub fn produced(&self) -> u64 {
        // publish pair (consumer side): see the module docs
        self.produced.load(Ordering::Acquire)
    }

    /// Instances consumed (released) so far.
    fn consumed(&self) -> u64 {
        // recycle pair (producer side): see the module docs
        self.consumed.load(Ordering::Acquire)
    }

    /// `true` when the producer may write the next instance.
    pub fn can_produce(&self) -> bool {
        self.produced() - self.consumed() < self.capacity
    }

    /// Lock the slot the next instance goes to. It still holds whatever
    /// the slot carried last time round. Caller must be the unique
    /// producer, must have checked [`can_produce`](Self::can_produce),
    /// and makes the instance visible with [`publish`](Self::publish) —
    /// after dropping the slot, or the consumer's [`read`](Self::read)
    /// waits for the lock.
    // check: no-alloc
    pub fn write_next(&self) -> impl DerefMut<Target = T> + '_ {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): producer reads its own counter
        let i = self.produced.load(Ordering::Relaxed);
        assert!(
            i - self.consumed() < self.capacity,
            "write_next() without a free slot — back-pressure violated"
        );
        self.slots[(i % self.capacity) as usize].lock()
    }

    /// Publish the instance written through [`write_next`](Self::write_next).
    // check: no-alloc
    pub fn publish(&self) {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): producer reads its own counter
        let i = self.produced.load(Ordering::Relaxed);
        // publish pair (producer side): the Release orders the slot
        // write (program-order earlier) before the visible count
        self.produced.store(i + 1, Ordering::Release);
    }

    /// `true` when instances up to `i_last` are all available to read.
    pub fn window_ready(&self, i_last: u64) -> bool {
        self.produced() > i_last
    }

    /// Lock the slot holding instance `i`, which must be published and
    /// not yet released. A peek window `i ..= i+p` is `p + 1` such reads;
    /// they never alias, since the published, unreleased instances
    /// number at most the capacity.
    // check: no-alloc
    pub fn read(&self, i: u64) -> impl DerefMut<Target = T> + '_ {
        assert!(self.window_ready(i), "window not ready");
        assert!(i >= self.consumed(), "window already released");
        self.slots[(i % self.capacity) as usize].lock()
    }

    /// Release instance `i` (and everything before it), freeing its slot
    /// for the producer. Caller must be the unique consumer.
    // check: no-alloc
    pub fn release(&self, i: u64) {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): consumer reads its own counter
        let c = self.consumed.load(Ordering::Relaxed);
        assert!(i >= c, "release({i}) of an instance already released (consumed = {c})");
        // recycle pair (consumer side): the Release orders the window
        // reads (all program-order earlier) before the freed count
        self.consumed.store(i + 1, Ordering::Release);
    }
}

/// A bounded queue of owned items: a [`Ring`] whose slots hold one item
/// or none. `serve::ServePipeline` threads its events to the planner
/// through one; a full ring is the backpressure signal
/// ([`Ring::try_push`] hands the item back instead of blocking or
/// dropping).
pub type SpscRing<T> = Ring<Option<T>>;

impl<T> Ring<Option<T>> {
    /// A queue holding up to `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        Ring::new(capacity as u64, || None)
    }
}

impl<T, C: AtomicCounter, S: SlotLock<Option<T>>> Ring<Option<T>, C, S> {
    /// Items queued (pushed, not yet popped), at most the capacity. Any
    /// thread may ask: `consumed` is loaded first, and never passes
    /// `produced`, so the later `produced` load cannot read below it.
    pub fn len(&self) -> usize {
        let consumed = self.consumed();
        (self.produced() - consumed).min(self.capacity) as usize
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push from the producer side. On a full ring the item comes back
    /// as `Err` — the backpressure signal; the producer decides whether
    /// to spin, yield or shed load.
    // check: no-alloc
    pub fn try_push(&self, item: T) -> Result<(), T> {
        if !self.can_produce() {
            return Err(item);
        }
        *self.write_next() = Some(item);
        self.publish();
        Ok(())
    }

    /// Pop from the consumer side; `None` when the ring is empty.
    // check: no-alloc
    pub fn try_pop(&self) -> Option<T> {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): consumer reads its own counter
        let c = self.consumed.load(Ordering::Relaxed);
        if !self.window_ready(c) {
            return None;
        }
        let item = self.read(c).take();
        self.release(c);
        debug_assert!(item.is_some(), "published slot holds an item");
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of `capacity` 8-byte slots.
    fn bytes(capacity: u64) -> Ring<[u8; 8]> {
        Ring::new(capacity, || [0; 8])
    }

    /// Write `v` as the next instance and publish it.
    fn put(ring: &Ring<[u8; 8]>, v: u64) {
        *ring.write_next() = v.to_le_bytes();
        ring.publish();
    }

    /// The value instance `i` carries.
    fn get(ring: &Ring<[u8; 8]>, i: u64) -> u64 {
        u64::from_le_bytes(*ring.read(i))
    }

    #[test]
    fn produce_consume_round_trip() {
        let ring = bytes(3);
        assert!(ring.can_produce());
        put(&ring, 7);
        assert_eq!(ring.produced(), 1);
        assert!(ring.window_ready(0));
        assert_eq!(get(&ring, 0), 7);
        ring.release(0);
        assert_eq!(ring.consumed(), 1);
    }

    #[test]
    fn backpressure_blocks_producer() {
        let ring = bytes(2);
        ring.publish();
        ring.publish();
        assert!(!ring.can_produce(), "ring is full");
        ring.release(0);
        assert!(ring.can_produce(), "released slot is reusable");
    }

    #[test]
    fn peek_window_sees_consecutive_instances() {
        let ring = bytes(4);
        for i in 0u64..3 {
            put(&ring, i);
        }
        assert!(ring.window_ready(2));
        // the whole window locked at once, as the engine holds it
        let window: Vec<_> = (0..3).map(|i| ring.read(i)).collect();
        for (k, slot) in window.iter().enumerate() {
            assert_eq!(u64::from_le_bytes(**slot), k as u64);
        }
    }

    #[test]
    #[should_panic(expected = "back-pressure violated")]
    fn producing_into_full_ring_panics() {
        let ring = bytes(1);
        ring.publish();
        ring.write_next();
    }

    #[test]
    #[should_panic(expected = "window not ready")]
    fn early_window_panics() {
        let ring = bytes(2);
        ring.read(0);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn double_release_panics() {
        let ring = bytes(2);
        ring.publish();
        ring.release(0);
        ring.release(0);
    }

    #[test]
    fn capacity_one_ring_ping_pong() {
        // the degenerate ring: every produce fills it, every release
        // empties it, and the single slot is rewritten in place each
        // cycle — the wrap point is every instance
        let ring = bytes(1);
        for i in 0u64..5 {
            assert!(ring.can_produce(), "instance {i}: empty ring accepts");
            put(&ring, i);
            assert!(!ring.can_produce(), "instance {i}: full after one produce");
            assert!(ring.window_ready(i));
            assert_eq!(get(&ring, i), i, "instance {i} read back from the reused slot");
            ring.release(i);
            assert!(ring.can_produce(), "instance {i}: empty again after release");
        }
        assert_eq!(ring.produced(), 5);
        assert_eq!(ring.consumed(), 5);
    }

    #[test]
    fn peek_window_at_wrap_point() {
        // a window of two instances that straddles the slot-index wrap:
        // instances 2 and 3 of a 3-slot ring live in slots 2 and 0
        let ring = bytes(3);
        for i in 0u64..3 {
            put(&ring, i);
        }
        ring.release(0); // frees slot 0 for instance 3
        put(&ring, 3);
        let (older, newer) = (ring.read(2), ring.read(3));
        assert_eq!(u64::from_le_bytes(*older), 2, "slot 2");
        assert_eq!(u64::from_le_bytes(*newer), 3, "slot 0, wrapped");
    }

    #[test]
    fn spsc_ring_full_and_empty_boundaries() {
        let ring: SpscRing<u32> = SpscRing::with_capacity(2);
        assert!(ring.is_empty());
        assert_eq!(ring.try_pop(), None, "empty ring pops nothing");
        assert_eq!(ring.try_push(1), Ok(()));
        assert_eq!(ring.try_push(2), Ok(()));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.try_push(3), Err(3), "full ring hands the item back");
        assert_eq!(ring.try_pop(), Some(1), "FIFO");
        assert_eq!(ring.try_push(3), Ok(()), "freed slot is reusable");
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), Some(3));
        assert_eq!(ring.try_pop(), None);
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.produced(), 3);
    }

    #[test]
    fn capacity_one_spsc_ring_ping_pong() {
        // full↔empty every operation: the strictest backpressure cycle
        let ring: SpscRing<u64> = SpscRing::with_capacity(1);
        for i in 0u64..5 {
            assert!(ring.is_empty(), "item {i}: starts empty");
            assert_eq!(ring.try_push(i), Ok(()));
            assert_eq!(ring.len(), 1, "item {i}: one push fills capacity 1");
            assert_eq!(ring.try_push(99), Err(99), "item {i}: full ring refuses");
            assert_eq!(ring.try_pop(), Some(i), "item {i}: pops in order");
            assert_eq!(ring.try_pop(), None, "item {i}: empty again");
        }
        assert_eq!(ring.produced(), 5);
    }

    #[test]
    fn spsc_ring_stress_no_lost_or_reordered_items() {
        // a tiny ring forced through many wrap-arounds by two real
        // threads: every item arrives exactly once, in push order, and
        // backpressure refusals never drop anything; a third thread on
        // neither side polls `len()` throughout, as a monitor reading
        // `ServePipeline::backlog()` does
        let ring: SpscRing<u64> = SpscRing::with_capacity(3);
        let n = 50_000u64;
        let refusals = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut next = 0u64;
                while next < n {
                    match ring.try_push(next) {
                        Ok(()) => next += 1,
                        Err(back) => {
                            assert_eq!(back, next, "refused push returns the same item");
                            refusals.fetch_add(1, Ordering::Relaxed);
                            std::hint::spin_loop();
                        }
                    }
                }
            });
            scope.spawn(|| {
                while ring.consumed() < n {
                    assert!(ring.len() <= 3, "a monitor saw a backlog beyond the capacity");
                }
            });
            let mut expect = 0u64;
            while expect < n {
                match ring.try_pop() {
                    Some(v) => {
                        assert_eq!(v, expect, "FIFO order violated");
                        expect += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
        assert!(ring.is_empty());
        assert_eq!(ring.produced(), n);
        assert!(
            refusals.load(Ordering::Relaxed) > 0,
            "a 3-slot ring under 50k pushes must backpressure at least once"
        );
    }

    #[test]
    fn threaded_smoke() {
        // a real producer/consumer pair pushing 10k instances through a
        // 3-slot ring
        let ring = bytes(3);
        let n = 10_000u64;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0u64;
                while i < n {
                    if ring.can_produce() {
                        put(&ring, i);
                        i += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
            scope.spawn(|| {
                for i in 0..n {
                    while !ring.window_ready(i) {
                        std::hint::spin_loop();
                    }
                    assert_eq!(get(&ring, i), i, "FIFO order violated");
                    ring.release(i);
                }
            });
        });
        assert_eq!(ring.produced(), n);
        assert_eq!(ring.consumed(), n);
    }
}
