//! A deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO among ties). This matters for protocol fidelity:
//! the Tiger insertion-ordering argument of §4.1.3 assumes that a cub that
//! sends a deschedule before an insertion has those messages *processed* in
//! that order, and the simulation must not reorder them through heap
//! internals.
//!
//! Three hot-path optimizations (this is the innermost loop of every
//! experiment run):
//!
//! * The heap holds only packed 16-byte keys, `time << 64 | seq << 24 |
//!   slot`: one integer compare orders by time first and insertion
//!   sequence second (the FIFO tie-break), and the sifts move 16 bytes
//!   per level instead of the whole event. A full-load 224-cub ring keeps
//!   ~134k events pending; as keys they are ~2 MB of heap instead of
//!   ~11 MB of whole entries, small enough for a 4 MB L2 cache.
//! * Payloads live in a slab (`Vec<Option<E>>`) addressed by the key's
//!   low 24 bits, with a LIFO free list, so a freed slot is reused while
//!   it is still cache-hot. The packing limits (2^24 pending events,
//!   2^40 events scheduled over the queue's life) are checked with hard
//!   asserts, like scheduling into the past.
//! * A one-entry *front slot* short-circuits the common dispatch pattern
//!   where a handler pops the head event and immediately schedules a
//!   follow-up that precedes everything else pending (immediate retries,
//!   `now + 1ns` insert attempts, near-future deliveries into a far-future
//!   backlog). Such an event, payload included, never touches the heap or
//!   the slab: scheduling it and popping it are both O(1) instead of two
//!   O(log n) sifts. It takes a slab slot only if a still earlier event
//!   displaces it into the heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Low bits of a key's sequence half that address the payload's slab slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// The largest insertion sequence number a key can carry.
const MAX_SEQ: u64 = u64::MAX >> SLOT_BITS;

/// An event queue keyed by simulated time with FIFO tie-breaking.
///
/// The queue also owns the simulated clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Scheduling an event in the
/// past is a logic error and panics, because it would mean the simulation
/// produced an effect before its cause.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    /// An event whose key sorts strictly before every key in `heap`, if
    /// any. Its key's slot bits are unused: the payload is right here.
    front: Option<(u128, E)>,
    /// Pending keys; `Reverse` turns the max-heap into a min-heap.
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots, most recently freed last. It holds only the gap between
    /// the pending high-water mark and the pending count, so it is not
    /// pre-sized.
    free: Vec<u32>,
}

/// The instant a packed key is scheduled at.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The slab slot a packed key addresses.
fn key_slot(key: u128) -> usize {
    (key as u64 & SLOT_MASK) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the epoch.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// long runs do not regrow the heap or the slab mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            front: None,
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.slab.reserve(additional);
    }

    /// The number of pending events the queue can hold without regrowing.
    pub fn capacity(&self) -> usize {
        self.heap.capacity().min(self.slab.capacity())
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulated time, if more than
    /// 2^24 events would be pending, or once 2^40 events have been
    /// scheduled over the queue's life.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled an event in the past: at={at:?} now={:?}",
            self.now
        );
        assert!(
            self.seq <= MAX_SEQ,
            "event queue sequence numbers exhausted"
        );
        // The slot bits stay zero until the event enters the heap.
        let key = (u128::from(at.as_nanos()) << 64) | u128::from(self.seq << SLOT_BITS);
        self.seq += 1;
        // Keys are unique (seq increments), so strict compares suffice.
        // Maintain the invariant: `front` sorts before every heap key.
        match &mut self.front {
            Some(f) if key < f.0 => {
                let (demoted_key, demoted) = std::mem::replace(f, (key, event));
                self.push_heap(demoted_key, demoted);
            }
            Some(_) => self.push_heap(key, event),
            None => {
                if self.heap.peek().is_none_or(|h| key < h.0) {
                    self.front = Some((key, event));
                } else {
                    self.push_heap(key, event);
                }
            }
        }
    }

    /// Parks `event` in a slab slot and pushes its key, slot filled in.
    fn push_heap(&mut self, key: u128, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                u64::from(slot)
            }
            None => {
                let slot = self.slab.len() as u64;
                assert!(
                    slot <= SLOT_MASK,
                    "more than {} events pending",
                    SLOT_MASK + 1
                );
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Reverse(key | u128::from(slot)));
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.front {
            Some((f, _)) => Some(key_time(*f)),
            None => self.heap.peek().map(|h| key_time(h.0)),
        }
    }

    /// Removes and returns the next event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match self.front.take() {
            Some((key, event)) => (key_time(key), event),
            None => {
                let key = self.heap.pop()?.0;
                let slot = key_slot(key);
                let event = self.slab[slot].take().expect("a pending key owns its slot");
                self.free.push(slot as u32);
                (key_time(key), event)
            }
        };
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        Some((at, event))
    }

    /// Removes and returns the next event only if it is at or before
    /// `horizon`; the clock does not advance past `horizon` otherwise.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Discards all pending events and advances the clock to `at`.
    ///
    /// Used by experiment drivers to fast-forward between phases.
    pub fn jump_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot jump backwards in time");
        self.front = None;
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
        self.now = at;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(10), "b");
        assert_eq!(
            q.pop_until(SimTime::from_secs(5)).map(|(_, e)| e),
            Some("a")
        );
        assert_eq!(q.pop_until(SimTime::from_secs(5)), None);
        // The clock did not advance to the unpopped event.
        assert_eq!(q.now(), SimTime::from_secs(1));
    }

    #[test]
    fn jump_to_discards_and_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(100), ()); // one in the front slot, one in the heap
        q.jump_to(SimTime::from_secs(142));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::from_secs(142));
    }

    #[test]
    fn with_capacity_presizes_and_reserve_grows() {
        let mut q = EventQueue::<u32>::with_capacity(1024);
        assert!(q.capacity() >= 1024);
        let before = q.capacity();
        for i in 0..1024 {
            q.schedule(SimTime::from_nanos(u64::from(i)), i);
        }
        // Filling to the pre-sized capacity must not regrow the heap. The
        // front-slot holds one entry, so at most `capacity` reach the heap.
        assert_eq!(q.capacity(), before);
        q.reserve(4096);
        // `reserve` sizes the heap; the front slot holds one entry outside it.
        let in_heap = q.len() - 1;
        assert!(q.capacity() >= in_heap + 4096);
    }

    /// The front-slot fast path must be invisible: any interleaving of
    /// schedules and pops yields the same order as a plain sorted-by
    /// `(time, seq)` queue.
    #[test]
    fn fast_path_preserves_order_across_interleavings() {
        // Pop-then-schedule-at-head: the follow-up lands in the front slot,
        // then a later schedule at the same instant must NOT overtake older
        // same-instant heap entries.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, "heap-old");
        q.schedule(SimTime::from_secs(1), "first");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first")); // now = 1s
        q.schedule(SimTime::from_secs(2), "front"); // beats heap min -> front slot
        q.schedule(t, "heap-new"); // same instant as heap-old, younger seq
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["front", "heap-old", "heap-new"]);
    }

    #[test]
    fn scheduling_below_front_demotes_it_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(5), "mid"); // front slot
        q.schedule(SimTime::from_secs(2), "early"); // displaces mid
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "mid", "late"]);
    }

    /// Randomized differential check: the queue agrees with a reference
    /// stable sort by `(time, seq)` over arbitrary schedule/pop traces.
    /// Payloads are 64 bytes, each filled with its id, so a slot mix-up
    /// shows as a wrong payload; freed slots are reused (the slab never
    /// outgrows the pending high-water mark); and a mid-run `jump_to`
    /// discards everything pending and restarts slot allocation.
    #[test]
    fn differential_against_reference_sort() {
        use crate::rng::RngTree;
        let mut rng = RngTree::new(77).fork("event-queue-diff", 0);
        for _ in 0..50 {
            let mut q = EventQueue::new();
            // Reference: pending (at_nanos, id) in schedule order.
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut high_water = 0;
            let mut id = 0u64;
            for step in 0..400 {
                let floor = q.now().as_nanos();
                if step == 200 {
                    q.jump_to(SimTime::from_nanos(floor + rng.gen_range(0u64..5)));
                    pending.clear();
                    high_water = 0;
                } else if rng.gen_bool(0.6) || q.is_empty() {
                    let at = floor + rng.gen_range(0u64..5);
                    q.schedule(SimTime::from_nanos(at), [id; 8]);
                    pending.push((at, id));
                    id += 1;
                } else {
                    // The earliest instant; `min_by_key` keeps the first
                    // of equal keys, which is the FIFO tie-break.
                    let i = (0..pending.len())
                        .min_by_key(|&i| pending[i].0)
                        .expect("non-empty");
                    let (at, want) = pending.remove(i);
                    let (got_at, payload) = q.pop().expect("non-empty");
                    assert_eq!((got_at.as_nanos(), payload), (at, [want; 8]));
                }
                high_water = high_water.max(pending.len());
                assert_eq!(q.len(), pending.len());
                // Without reuse the slab would hold every event ever
                // scheduled; the front slot keeps one outside it.
                assert!(q.slab.len() <= high_water, "freed slots are reused");
            }
            pending.sort_by_key(|&(at, _)| at);
            for (at, want) in pending {
                let (got_at, payload) = q.pop().expect("reference entry pending");
                assert_eq!((got_at.as_nanos(), payload), (at, [want; 8]));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "events pending")]
    fn pending_beyond_the_slot_bits_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ()); // the front slot
                                       // Pretend every slot is taken without allocating 2^24 payloads.
        q.slab = std::iter::repeat_with(|| Some(()))
            .take(1 << SLOT_BITS)
            .collect();
        q.schedule(SimTime::ZERO, ()); // behind the front: needs a slot
    }
}
