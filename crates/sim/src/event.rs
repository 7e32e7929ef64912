//! Cancellable, deterministic event queue with pooled payload storage.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so a
//! simulation is fully deterministic given the same schedule calls. Events can
//! be cancelled in amortized `O(1)` via the [`EventId`] handle returned at
//! scheduling time.
//!
//! Payloads live in a slot pool with generation counters: scheduling reuses
//! freed slots instead of allocating, so a steady-state simulation that
//! schedules and fires events at a bounded concurrency performs no heap
//! allocation after warm-up ([`EventQueue::pool_capacity`] exposes the
//! high-water mark for regression tests). Cancelled entries are skipped lazily
//! on pop, and the heap is compacted in place whenever tombstones outnumber
//! live entries so cancel-heavy workloads cannot grow the heap (or pop
//! latency) without bound.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, used for cancellation.
///
/// ```
/// use pictor_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// let id = q.schedule(SimTime::from_nanos(10), "x");
/// assert!(q.cancel(id));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn encode(slot: u32, gen: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        (self.0 & 0xffff_ffff) as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap entry: ordering key plus the pool slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct Slot<E> {
    /// Incremented whenever the slot's payload is taken (fired or cancelled),
    /// invalidating outstanding handles and heap entries referring to it.
    gen: u32,
    payload: Option<E>,
}

/// Priority queue of timestamped events with deterministic tie-breaking.
///
/// The queue enforces that time never flows backwards: popping returns events
/// in non-decreasing time order, and [`EventQueue::now`] tracks the timestamp
/// of the last popped event.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Events scheduled but not yet fired or cancelled.
    live: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (cancelled events excluded).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at `time` and returns a cancellation handle.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current queue time — an event in
    /// the past indicates a model bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduled event at {time} before now ({})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none());
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event pool overflow");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapEntry {
            time,
            seq,
            slot,
            gen,
        });
        self.live += 1;
        EventId::encode(slot, gen)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Amortized `O(1)`: when tombstones outnumber live entries the heap is
    /// rebuilt without them (an `O(n)` pass paid for by the ≥ n/2 cancels
    /// that preceded it).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot() as usize;
        let Some(s) = self.slots.get_mut(slot) else {
            return false;
        };
        if s.gen != id.gen() || s.payload.is_none() {
            return false;
        }
        s.payload = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
        if self.heap.len() > 2 * self.live + 64 {
            self.compact();
        }
        true
    }

    /// Rebuilds the heap retaining only live entries, reusing its buffer.
    fn compact(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|e| self.slots[e.slot as usize].gen == e.gen);
        self.heap = BinaryHeap::from(entries);
    }

    /// Releases the payload slot for `entry`, returning the payload if the
    /// entry is still live.
    fn take(&mut self, entry: HeapEntry) -> Option<E> {
        let s = &mut self.slots[entry.slot as usize];
        if s.gen != entry.gen {
            return None; // cancelled
        }
        let payload = s.payload.take().expect("live slot must hold a payload");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        Some(payload)
    }

    /// Pops the earliest live event, advancing the queue clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if let Some(payload) = self.take(entry) {
                self.now = entry.time;
                self.popped += 1;
                return Some((entry.time, payload));
            }
        }
        None
    }

    /// Timestamp of the earliest live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].gen != entry.gen {
                self.heap.pop();
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Pops every live event with `time <= deadline` into `out`, in firing
    /// order, advancing the queue clock through them. Returns the number of
    /// events drained.
    ///
    /// The caller owns (and re-uses) `out`, so a steady-state drain loop
    /// performs no allocation once `out`'s capacity has warmed up.
    pub fn drain_until(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let mut n = 0;
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let (time, payload) = self.pop().expect("peeked event must pop");
            out.push((time, payload));
            n += 1;
        }
        n
    }

    /// True if no live events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of entries currently in the heap (including not-yet-skipped
    /// cancelled entries). Intended for capacity diagnostics.
    pub fn len_raw(&self) -> usize {
        self.heap.len()
    }

    /// Number of payload slots ever allocated — the pool's high-water mark.
    ///
    /// Stays at the peak concurrent event count regardless of how many events
    /// flow through, which is what the pool-reuse regression tests pin.
    pub fn pool_capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert!(!q.cancel(EventId(999)), "unknown id reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(!q.cancel(b), "fired event cannot be cancelled");
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(1), ());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn mass_cancellation_compacts_heap() {
        // Regression: cancelled entries used to sit in the heap until
        // popped, so cancel-heavy workloads grew memory and pop latency
        // without bound. 100k schedules with 99% cancelled must leave a
        // heap proportional to the live count.
        let mut q = EventQueue::new();
        let mut ids = Vec::with_capacity(100_000);
        for i in 0..100_000u64 {
            ids.push(q.schedule(t(i + 1), i));
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 100 != 0 {
                assert!(q.cancel(*id));
            }
        }
        let live = 1000;
        assert!(
            q.len_raw() <= 2 * live + 64,
            "tombstones not compacted: len_raw {}",
            q.len_raw()
        );
        let mut popped = 0u64;
        let mut last = SimTime::ZERO;
        while let Some((time, payload)) = q.pop() {
            assert!(time >= last, "time went backwards");
            assert_eq!(payload % 100, 0, "cancelled event fired");
            last = time;
            popped += 1;
        }
        assert_eq!(popped, live as u64);
    }

    #[test]
    fn schedule_cancel_interleaving_stays_bounded() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            let id = q.schedule(t(i + 1), i);
            assert!(q.cancel(id));
            assert!(q.len_raw() <= 65, "heap grew: {}", q.len_raw());
        }
        assert!(q.pop().is_none());
        assert_eq!(q.events_processed(), 0);
    }

    #[test]
    fn compaction_preserves_order_and_ties() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        // Interleave kept and cancelled events, with timestamp ties.
        for round in 0..2_000u64 {
            let a = q.schedule(t(round / 4 + 1), round * 2);
            let b = q.schedule(t(round / 4 + 1), round * 2 + 1);
            q.cancel(a);
            keep.push(b);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<u64> = (0..2_000u64).map(|r| r * 2 + 1).collect();
        assert_eq!(order, expected, "insertion-order ties survive compaction");
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.pop();
        q.schedule(t(5), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn stale_handle_for_reused_slot_does_not_cancel() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.pop(); // fires "a", freeing its slot
        let b = q.schedule(t(2), "b"); // reuses the slot with a bumped gen
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert!(q.cancel(b));
    }

    #[test]
    fn drain_until_pops_in_order_up_to_deadline() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        let c = q.schedule(t(15), 99);
        q.schedule(t(20), 2);
        q.cancel(c);
        let mut out = Vec::new();
        assert_eq!(q.drain_until(t(20), &mut out), 2);
        assert_eq!(out, vec![(t(10), 1), (t(20), 2)]);
        assert_eq!(q.now(), t(20));
        // The remaining event fires on the next drain; `out` is caller-owned
        // and appended to, never cleared.
        assert_eq!(q.drain_until(t(40), &mut out), 1);
        assert_eq!(out.len(), 3);
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn pool_reuses_slots_across_100k_events() {
        // Regression: 100k events flowing through at bounded concurrency
        // must not grow the payload pool beyond the peak live count — the
        // queue recycles slots instead of allocating per event.
        let mut q = EventQueue::new();
        let waves = 100u64;
        let per_wave = 1_000u64;
        for wave in 0..waves {
            for i in 0..per_wave {
                q.schedule(t(wave * per_wave + i + 1), i);
            }
            // Cancel a sliver to exercise the free list from both paths.
            let id = q.schedule(t(wave * per_wave + per_wave), per_wave);
            assert!(q.cancel(id));
            while q.pop().is_some() {}
            assert!(
                q.pool_capacity() <= (per_wave + 1) as usize,
                "pool grew past peak concurrency: {}",
                q.pool_capacity()
            );
        }
        assert_eq!(q.events_processed(), waves * per_wave);
        assert_eq!(q.pool_capacity(), (per_wave + 1) as usize);
    }
}
