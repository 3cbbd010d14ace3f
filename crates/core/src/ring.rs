//! Bounded MPMC ring — the queue primitive behind the resident
//! screening service (`bist-serve`).
//!
//! The ring is the backpressure seam of the service: submissions and
//! in-process verdicts travel through fixed-capacity rings, so a flooded
//! service answers [`Enqueue::Busy`] (handing the item back to the
//! caller) instead of growing without bound, and a device that was
//! accepted is never dropped — [`Ring::pop`] keeps draining queued
//! items even after [`Ring::close`], returning `None` only once the
//! ring is both closed and empty.
//!
//! The implementation is a mutex-guarded circular buffer with two
//! condvars (`not_empty`, `not_full`). That is deliberate: the ring
//! moves whole submissions/verdicts (hundreds of nanoseconds of copy at
//! most) while each device costs microseconds-to-milliseconds of DSP,
//! so a lock-free layout would buy nothing measurable and would cost an
//! `unsafe` surface the engine otherwise does not have. The only atomic
//! is a depth mirror so telemetry can read queue occupancy without
//! taking the lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Outcome of a non-blocking enqueue attempt — the service's
/// backpressure contract.
#[derive(Debug)]
pub enum Enqueue<T> {
    /// The item was queued and will be processed.
    Accepted,
    /// The ring is at capacity; the item is handed back so the caller
    /// can retry, shed load, or park it — it is never silently dropped.
    Busy(T),
    /// The ring was closed; the item is handed back.
    Closed(T),
}

impl<T> Enqueue<T> {
    /// True when the item was queued.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Enqueue::Accepted)
    }
}

struct RingState<T> {
    slots: Box<[Option<T>]>,
    head: usize,
    len: usize,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with blocking and
/// non-blocking endpoints on both sides.
pub struct Ring<T> {
    state: Mutex<RingState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Mirror of `state.len` for lock-free telemetry reads.
    depth: AtomicUsize,
    capacity: usize,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` items (`capacity >= 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Ring {
            state: Mutex::new(RingState {
                slots: slots.into_boxed_slice(),
                head: 0,
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Current queue depth. Monitoring only: the value may be stale by
    /// the time the caller acts on it.
    pub fn len(&self) -> usize {
        // ORDERING: Relaxed — the depth mirror feeds telemetry
        // snapshots only; it synchronizes nothing and a momentarily
        // stale read is harmless.
        self.depth.load(Ordering::Relaxed)
    }

    /// True when no items are queued (same staleness caveat as `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // bist-lint: hot-path — service ingest: every submission crosses this seam
    /// Attempts to queue `item` without blocking.
    pub fn try_push(&self, item: T) -> Enqueue<T> {
        let state = self.state.lock().expect("ring lock");
        self.enqueue(state, item)
    }

    // bist-lint: hot-path — verdict delivery: workers block here instead of dropping
    /// Queues `item`, blocking while the ring is full. Returns the item
    /// back as `Err` if the ring is closed before space frees up.
    pub fn push(&self, item: T) -> Result<(), T> {
        let state = self.state.lock().expect("ring lock");
        let state = self
            .not_full
            .wait_while(state, |s| !s.closed && s.len == self.capacity)
            .expect("ring lock");
        match self.enqueue(state, item) {
            Enqueue::Accepted => Ok(()),
            Enqueue::Busy(item) | Enqueue::Closed(item) => Err(item),
        }
    }

    /// Queues `item` under the held lock unless the ring is closed or
    /// full.
    fn enqueue(&self, mut state: MutexGuard<'_, RingState<T>>, item: T) -> Enqueue<T> {
        if state.closed {
            return Enqueue::Closed(item);
        }
        if state.len == self.capacity {
            return Enqueue::Busy(item);
        }
        let tail = (state.head + state.len) % self.capacity;
        state.slots[tail] = Some(item);
        state.len += 1;
        // ORDERING: Relaxed — depth mirror for telemetry only; real
        // producer/consumer synchronization is the mutex + condvars.
        self.depth.store(state.len, Ordering::Relaxed);
        drop(state);
        self.not_empty.notify_one();
        Enqueue::Accepted
    }

    // bist-lint: hot-path — worker claim loop: every queued item leaves through here
    /// Dequeues the oldest item, blocking while the ring is empty.
    /// Returns `None` only once the ring is closed *and* drained, so
    /// accepted items are never lost to shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock");
        loop {
            if state.len > 0 {
                let item = self.take_front(&mut state);
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ring lock");
        }
    }

    // bist-lint: hot-path — burst top-up after a blocking claim
    /// Dequeues the oldest item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock");
        if state.len == 0 {
            return None;
        }
        let item = self.take_front(&mut state);
        drop(state);
        self.not_full.notify_one();
        Some(item)
    }

    fn take_front(&self, state: &mut RingState<T>) -> T {
        let item = state.slots[state.head].take().expect("occupied slot");
        state.head = (state.head + 1) % self.capacity;
        state.len -= 1;
        // ORDERING: Relaxed — depth mirror for telemetry only; the
        // mutex orders the queue contents themselves.
        self.depth.store(state.len, Ordering::Relaxed);
        item
    }

    /// Closes the ring: future pushes fail, blocked producers and
    /// consumers wake, and `pop` drains the remaining items before
    /// reporting `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("ring lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let ring = Ring::with_capacity(2);
        assert!(ring.try_push(1).is_accepted());
        assert!(ring.try_push(2).is_accepted());
        match ring.try_push(3) {
            Enqueue::Busy(v) => assert_eq!(v, 3),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.try_pop(), Some(1));
        assert!(ring.try_push(3).is_accepted());
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), Some(3));
        assert_eq!(ring.try_pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let ring = Ring::with_capacity(4);
        assert!(ring.try_push("a").is_accepted());
        assert!(ring.try_push("b").is_accepted());
        ring.close();
        match ring.try_push("c") {
            Enqueue::Closed(v) => assert_eq!(v, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(ring.pop(), Some("a"));
        assert_eq!(ring.pop(), Some("b"));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn blocking_push_returns_item_on_close() {
        let ring = Arc::new(Ring::with_capacity(1));
        ring.push(7u32).expect("space");
        let r2 = Arc::clone(&ring);
        let blocked = std::thread::spawn(move || r2.push(8u32));
        // Give the producer time to block on the full ring, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        assert_eq!(blocked.join().expect("join"), Err(8));
        assert_eq!(ring.pop(), Some(7));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn mpmc_hands_out_every_item_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 500;
        let ring = Arc::new(Ring::with_capacity(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    ring.push(p as u64 * PER_PRODUCER + i).expect("open ring");
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let ring = Arc::clone(&ring);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = ring.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().expect("producer");
        }
        ring.close();
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            all.extend(c.join().expect("consumer"));
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS as u64 * PER_PRODUCER).collect();
        assert_eq!(all, expect);
    }
}
