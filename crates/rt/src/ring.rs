//! Single-producer / single-consumer instance rings with peek windows.
//!
//! One ring per edge, `firstPeriod(dst) − firstPeriod(src)` slots of
//! `data_bytes` each (§4.2). The producer thread writes instance `i` in
//! place into slot `i mod S`; the consumer of a task with peek `p` locks
//! slots `i ..= i+p` at once, reads them in place and releases slot `i`
//! afterwards. Slot reuse is prevented by the produced/consumed
//! counters, so each `Mutex` is uncontended in steady state — it exists
//! to keep the crate free of `unsafe`.
//!
//! # Memory-ordering contract
//!
//! Both rings hand items across threads through exactly two
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
//!   read/take program-order-precedes the Release store, so any producer
//!   that observes the freed count may safely overwrite the slot: no
//!   *slot reuse* (clobbering an item the consumer has not taken).
//!
//! Each side loads **its own** counter with `Relaxed`: the loading
//! thread is that counter's only writer, so it always observes its own
//! latest store and no cross-thread ordering is needed.
//!
//! The counters are generic over [`AtomicCounter`] (and `SpscRing`'s
//! slots over [`RingSlot`]) so `cellstream-check` can substitute a
//! simulated weakly-ordered memory and exhaustively enumerate
//! interleavings of this exact source; normal builds monomorphise to
//! [`AtomicU64`]/[`MutexSlot`] with zero overhead.

use parking_lot::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// The counter operations the rings need, abstracted so a model checker
/// can substitute a simulated weakly-ordered implementation for the
/// real [`AtomicU64`]. Implementations must make `load` observe the
/// implementation's memory model; the rings only ever use
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

/// One owned-item slot of a [`SpscRing`], abstracted so a model checker
/// can route slot traffic through simulated memory. The shipping
/// implementation is [`MutexSlot`].
pub trait RingSlot<T> {
    /// Store `item` in the slot (the producer side of the publish pair).
    fn put(&self, item: T);
    /// Take the slot's item, leaving it empty (the consumer side).
    fn take(&self) -> Option<T>;
}

/// The default [`RingSlot`]: a mutex-guarded `Option<T>`. The counters
/// already exclude concurrent access to one slot, so the lock is
/// uncontended in steady state — it exists to keep the crate free of
/// `unsafe`.
#[derive(Debug)]
pub struct MutexSlot<T>(Mutex<Option<T>>);

impl<T> MutexSlot<T> {
    /// A fresh, empty slot.
    pub fn empty() -> Self {
        MutexSlot(Mutex::new(None))
    }
}

impl<T> RingSlot<T> for MutexSlot<T> {
    #[inline]
    fn put(&self, item: T) {
        *self.0.lock() = Some(item);
    }

    #[inline]
    fn take(&self) -> Option<T> {
        self.0.lock().take()
    }
}

/// A fixed-capacity SPSC ring of byte slots, read and written in place:
/// the producer locks the next free slot ([`write_next`]), fills it and
/// [`publish`]es it; the consumer locks published slots ([`read`]) for
/// as long as it needs them and [`release`]s them. No byte is copied in
/// or out of the ring.
///
/// [`write_next`]: Self::write_next
/// [`publish`]: Self::publish
/// [`read`]: Self::read
/// [`release`]: Self::release
#[derive(Debug)]
pub struct EdgeRing<C = AtomicU64> {
    slots: Vec<Mutex<Box<[u8]>>>,
    produced: C,
    consumed: C,
    capacity: u64,
}

/// One locked slot of an [`EdgeRing`]: the bytes of one instance. The
/// lock is held until the guard drops; the counters already keep the
/// producer and the consumer off each other's slots, so it is never
/// contended.
pub struct Slot<'a>(MutexGuard<'a, Box<[u8]>>);

impl Deref for Slot<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for Slot<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl EdgeRing {
    /// A ring of `capacity` slots of `slot_bytes` bytes each.
    pub fn new(capacity: u64, slot_bytes: usize) -> Self {
        assert!(capacity >= 1, "a ring needs at least one slot");
        EdgeRing {
            slots: (0..capacity).map(|_| Mutex::new(vec![0u8; slot_bytes].into())).collect(),
            produced: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            capacity,
        }
    }
}

impl<C: AtomicCounter> EdgeRing<C> {
    /// Number of slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Instances produced so far.
    pub fn produced(&self) -> u64 {
        // publish pair (consumer side): see the module docs
        self.produced.load(Ordering::Acquire)
    }

    /// Instances consumed (released) so far.
    pub fn consumed(&self) -> u64 {
        // recycle pair (producer side): see the module docs
        self.consumed.load(Ordering::Acquire)
    }

    /// `true` when the producer may write the next instance.
    pub fn can_produce(&self) -> bool {
        self.produced() - self.consumed() < self.capacity
    }

    /// Lock the slot the next instance goes to, **zero-filled**: a writer
    /// sees the bytes a fresh buffer would hold, never the instance the
    /// slot carried last time round. Caller must be the unique producer,
    /// must have checked [`can_produce`](Self::can_produce), and makes
    /// the instance visible with [`publish`](Self::publish) — after
    /// dropping the slot, or the consumer's [`read`](Self::read) waits
    /// for the lock.
    // check: no-alloc
    pub fn write_next(&self) -> Slot<'_> {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): producer reads its own counter
        let i = self.produced.load(Ordering::Relaxed);
        assert!(
            i - self.consumed() < self.capacity,
            "write_next() without a free slot — back-pressure violated"
        );
        let mut slot = Slot(self.slots[(i % self.capacity) as usize].lock());
        slot.fill(0);
        slot
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
    pub fn read(&self, i: u64) -> Slot<'_> {
        assert!(self.window_ready(i), "window not ready");
        assert!(i >= self.consumed(), "window already released");
        Slot(self.slots[(i % self.capacity) as usize].lock())
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

/// A bounded single-producer / single-consumer queue of owned items —
/// [`EdgeRing`]'s counter discipline generalised from byte slots to any
/// `T`. The serving layer threads admission/retire/reweight events
/// through one of these between the intake thread and the planner
/// thread; a full ring is the backpressure signal ([`try_push`] hands
/// the item back instead of blocking or dropping).
///
/// The produced/consumed counters carry the synchronisation (see the
/// module docs for the two Release→Acquire pairs); slot reuse is
/// impossible while the counters disagree, so each per-slot
/// [`MutexSlot`] is uncontended in steady state — it exists, as in
/// [`EdgeRing`], to keep the crate free of `unsafe`. The SPSC contract
/// (one pushing thread, one popping thread) is the caller's to uphold;
/// breaking it cannot corrupt memory, only fairness.
///
/// The `C`/`S` parameters exist for `cellstream-check`'s interleaving
/// model checker, which runs **this** code against simulated memory;
/// every normal build uses the defaults.
///
/// [`try_push`]: Self::try_push
#[derive(Debug)]
pub struct SpscRing<T, C = AtomicU64, S = MutexSlot<T>> {
    slots: Vec<S>,
    produced: C,
    consumed: C,
    capacity: u64,
    _items: std::marker::PhantomData<fn() -> T>,
}

impl<T> SpscRing<T> {
    /// A ring holding up to `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a ring needs at least one slot");
        SpscRing::from_parts(
            (0..capacity).map(|_| MutexSlot::empty()).collect(),
            AtomicU64::new(0),
            AtomicU64::new(0),
        )
    }
}

impl<T, C: AtomicCounter, S: RingSlot<T>> SpscRing<T, C, S> {
    /// Assemble a ring from caller-built slots and counters (both
    /// counters must read 0). This is the model checker's entry point —
    /// it injects simulated slots/counters here; normal code uses
    /// [`SpscRing::with_capacity`].
    pub fn from_parts(slots: Vec<S>, produced: C, consumed: C) -> Self {
        assert!(!slots.is_empty(), "a ring needs at least one slot");
        let capacity = slots.len() as u64;
        SpscRing { slots, produced, consumed, capacity, _items: std::marker::PhantomData }
    }

    /// Maximum number of items the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Items currently queued (pushed, not yet popped).
    pub fn len(&self) -> usize {
        (self.produced.load(Ordering::Acquire) - self.consumed.load(Ordering::Acquire)) as usize
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when a push would be refused.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity as usize
    }

    /// Items pushed over the ring's lifetime.
    pub fn pushed(&self) -> u64 {
        self.produced.load(Ordering::Acquire)
    }

    /// Push from the producer side. On a full ring the item comes back
    /// as `Err` — the backpressure signal; the producer decides whether
    /// to spin, yield or shed load.
    // check: no-alloc
    pub fn try_push(&self, item: T) -> Result<(), T> {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): producer reads its own counter
        let i = self.produced.load(Ordering::Relaxed);
        // recycle pair (producer side): the Acquire makes the consumer's
        // slot take visible before we trust the freed count
        if i - self.consumed.load(Ordering::Acquire) == self.capacity {
            return Err(item);
        }
        self.slots[(i % self.capacity) as usize].put(item);
        // publish pair (producer side): the Release orders the put above
        // before the visible count
        self.produced.store(i + 1, Ordering::Release);
        Ok(())
    }

    /// Pop from the consumer side; `None` when the ring is empty.
    // check: no-alloc
    pub fn try_pop(&self) -> Option<T> {
        // own counter, sole writer — no ordering needed
        // check:allow(atomic-ordering): consumer reads its own counter
        let c = self.consumed.load(Ordering::Relaxed);
        // publish pair (consumer side): the Acquire makes the producer's
        // put visible before we trust the published count
        if self.produced.load(Ordering::Acquire) == c {
            return None;
        }
        let item = self.slots[(c % self.capacity) as usize].take();
        // recycle pair (consumer side): the Release orders the take
        // above before the freed count
        self.consumed.store(c + 1, Ordering::Release);
        debug_assert!(item.is_some(), "published slot holds an item");
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `v` as the next instance and publish it.
    fn put(ring: &EdgeRing, v: u64) {
        ring.write_next()[..8].copy_from_slice(&v.to_le_bytes());
        ring.publish();
    }

    /// The value instance `i` carries.
    fn get(ring: &EdgeRing, i: u64) -> u64 {
        u64::from_le_bytes(ring.read(i)[..8].try_into().unwrap())
    }

    #[test]
    fn produce_consume_round_trip() {
        let ring = EdgeRing::new(3, 8);
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
        let ring = EdgeRing::new(2, 4);
        ring.publish();
        ring.publish();
        assert!(!ring.can_produce(), "ring is full");
        ring.release(0);
        assert!(ring.can_produce(), "released slot is reusable");
    }

    #[test]
    fn peek_window_sees_consecutive_instances() {
        let ring = EdgeRing::new(4, 8);
        for i in 0u64..3 {
            put(&ring, i);
        }
        assert!(ring.window_ready(2));
        // the whole window locked at once, as the engine holds it
        let window: Vec<Slot<'_>> = (0..3).map(|i| ring.read(i)).collect();
        for (k, slot) in window.iter().enumerate() {
            assert_eq!(u64::from_le_bytes(slot[..].try_into().unwrap()), k as u64);
        }
    }

    #[test]
    fn a_reused_slot_comes_back_zeroed() {
        let ring = EdgeRing::new(1, 4);
        ring.write_next().copy_from_slice(&[9; 4]);
        ring.publish();
        ring.release(0);
        assert_eq!(*ring.write_next(), [0; 4], "the last instance's bytes leaked");
    }

    #[test]
    #[should_panic(expected = "back-pressure violated")]
    fn producing_into_full_ring_panics() {
        let ring = EdgeRing::new(1, 1);
        ring.publish();
        ring.write_next();
    }

    #[test]
    #[should_panic(expected = "window not ready")]
    fn early_window_panics() {
        let ring = EdgeRing::new(2, 1);
        ring.read(0);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn double_release_panics() {
        let ring = EdgeRing::new(2, 1);
        ring.publish();
        ring.release(0);
        ring.release(0);
    }

    #[test]
    fn capacity_one_edge_ring_ping_pong() {
        // the degenerate ring: every produce fills it, every release
        // empties it, and the single slot is rewritten in place each
        // cycle — the wrap point is every instance
        let ring = EdgeRing::new(1, 8);
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
        let ring = EdgeRing::new(3, 8);
        for i in 0u64..3 {
            put(&ring, i);
        }
        ring.release(0); // frees slot 0 for instance 3
        put(&ring, 3);
        let (older, newer) = (ring.read(2), ring.read(3));
        assert_eq!(u64::from_le_bytes(older[..].try_into().unwrap()), 2, "slot 2");
        assert_eq!(u64::from_le_bytes(newer[..].try_into().unwrap()), 3, "slot 0, wrapped");
    }

    #[test]
    fn spsc_ring_full_and_empty_boundaries() {
        let ring: SpscRing<u32> = SpscRing::with_capacity(2);
        assert!(ring.is_empty());
        assert_eq!(ring.try_pop(), None, "empty ring pops nothing");
        assert_eq!(ring.try_push(1), Ok(()));
        assert_eq!(ring.try_push(2), Ok(()));
        assert!(ring.is_full());
        assert_eq!(ring.try_push(3), Err(3), "full ring hands the item back");
        assert_eq!(ring.try_pop(), Some(1), "FIFO");
        assert_eq!(ring.try_push(3), Ok(()), "freed slot is reusable");
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), Some(3));
        assert_eq!(ring.try_pop(), None);
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn capacity_one_spsc_ring_ping_pong() {
        // full↔empty every operation: the strictest backpressure cycle
        let ring: SpscRing<u64> = SpscRing::with_capacity(1);
        for i in 0u64..5 {
            assert!(ring.is_empty(), "item {i}: starts empty");
            assert_eq!(ring.try_push(i), Ok(()));
            assert!(ring.is_full(), "item {i}: one push fills capacity 1");
            assert_eq!(ring.try_push(99), Err(99), "item {i}: full ring refuses");
            assert_eq!(ring.try_pop(), Some(i), "item {i}: pops in order");
            assert_eq!(ring.try_pop(), None, "item {i}: empty again");
        }
        assert_eq!(ring.pushed(), 5);
    }

    #[test]
    fn spsc_ring_stress_no_lost_or_reordered_items() {
        // a tiny ring forced through many wrap-arounds by two real
        // threads: every item arrives exactly once, in push order, and
        // backpressure refusals never drop anything
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
        });
        assert!(ring.is_empty());
        assert_eq!(ring.pushed(), n);
        assert!(
            refusals.load(Ordering::Relaxed) > 0,
            "a 3-slot ring under 50k pushes must backpressure at least once"
        );
    }

    #[test]
    fn threaded_smoke() {
        // a real producer/consumer pair pushing 10k instances through a
        // 3-slot ring
        let ring = EdgeRing::new(3, 8);
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
