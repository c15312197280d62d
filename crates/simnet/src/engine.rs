//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties on the simulated clock are
//! broken by the order the events were scheduled in, so a run is a pure
//! function of the scenario. No wall-clock time or iteration-order
//! nondeterminism can leak in.
//!
//! Mechanically the queue is two structures behind one API:
//!
//! * a **flat 4-ary implicit heap** for events before the wheel boundary —
//!   shallower than a binary heap (half the levels), sift paths touch
//!   cache-adjacent children, and the backing `Vec` never reallocates in
//!   steady state;
//! * a **hierarchical timer wheel** (the private `wheel` module) for
//!   far-future events
//!   — dominated by RTO timers sitting ~1 s ahead of a queue that otherwise
//!   operates at microsecond pitch. Those pay O(1) insertion and are only
//!   cascaded into the heap when the clock approaches them, instead of
//!   being sifted through every near-term heap operation in between.
//!
//! The wheel never decides order: anything it matures is re-arbitrated by
//! the keyed heap, so the two-level split is invisible to results.

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Total order on scheduled events: time, then scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
}

/// Flat 4-ary implicit min-heap keyed by [`Key`].
#[derive(Clone)]
struct Heap4<E> {
    v: Vec<(Key, E)>,
}

impl<E> Heap4<E> {
    fn new() -> Self {
        Heap4 { v: Vec::with_capacity(256) }
    }

    fn len(&self) -> usize {
        self.v.len()
    }

    #[inline]
    fn peek_key(&self) -> Option<Key> {
        self.v.first().map(|(k, _)| *k)
    }

    // Both sifts move elements with the hole technique (one copy per level
    // into the vacated slot, one final write) instead of swap chains — an
    // entry is ~48 bytes, so the move count is what shows up in profiles.
    // Key comparisons are plain integer compares and cannot panic, so the
    // transient hole can never be observed.

    fn push(&mut self, key: Key, event: E) {
        let mut i = self.v.len();
        self.v.push((key, event));
        let p = self.v.as_mut_ptr();
        unsafe {
            let item = std::ptr::read(p.add(i));
            while i > 0 {
                let parent = (i - 1) / 4;
                if (*p.add(parent)).0 <= item.0 {
                    break;
                }
                std::ptr::copy_nonoverlapping(p.add(parent), p.add(i), 1);
                i = parent;
            }
            std::ptr::write(p.add(i), item);
        }
    }

    fn pop_min(&mut self) -> Option<(Key, E)> {
        let tail = self.v.pop()?;
        if self.v.is_empty() {
            return Some(tail);
        }
        let n = self.v.len();
        unsafe {
            let p = self.v.as_mut_ptr();
            let out = std::ptr::read(p);
            // Sift the displaced tail down into the root hole.
            let mut i = 0;
            loop {
                let first = 4 * i + 1;
                if first >= n {
                    break;
                }
                let last = (first + 4).min(n);
                let mut best = first;
                for c in (first + 1)..last {
                    if (*p.add(c)).0 < (*p.add(best)).0 {
                        best = c;
                    }
                }
                if (*p.add(best)).0 >= tail.0 {
                    break;
                }
                std::ptr::copy_nonoverlapping(p.add(best), p.add(i), 1);
                i = best;
            }
            std::ptr::write(p.add(i), tail);
            Some(out)
        }
    }
}

/// A min-queue of timestamped events with deterministic tie-breaking.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: Heap4<E>,
    wheel: TimerWheel<(Key, E)>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: Heap4::new(),
            wheel: TimerWheel::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past
    /// (before the current clock) is a logic error.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let key = Key { at, seq: self.next_seq };
        self.next_seq += 1;
        if at.nanos() < self.wheel.boundary() {
            self.heap.push(key, event);
        } else {
            self.wheel.insert(at.nanos(), (key, event));
        }
    }

    /// Mature every wheel slot that could precede the heap front, so the
    /// heap front is the true global minimum.
    fn settle(&mut self) {
        // Invariant: heap keys < boundary ≤ wheel keys, so a non-empty heap
        // already holds the minimum.
        while self.heap.len() == 0 {
            let Some(next_at) = self.wheel.next_occupied_at() else {
                return;
            };
            for (_, (key, event)) in self.wheel.advance_past(next_at) {
                self.heap.push(key, event);
            }
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        self.pop_settled()
    }

    /// [`EventQueue::pop`] once the heap front is the global minimum.
    #[inline]
    fn pop_settled(&mut self) -> Option<(SimTime, E)> {
        let (key, event) = self.heap.pop_min()?;
        debug_assert!(key.at >= self.now, "clock went backwards");
        self.now = key.at;
        self.processed += 1;
        Some((key.at, event))
    }

    /// Pop the earliest event only if it is scheduled strictly before
    /// `limit`; counts and advances the clock exactly like
    /// [`EventQueue::pop`].
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop_settled()
    }

    /// Peek at the timestamp of the next event without popping it. Takes
    /// `&mut self` because it may cascade matured wheel slots into the heap.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.heap.peek_key().map(|k| k.at)
    }

    /// Remove and return the earliest event if it is scheduled strictly
    /// before `t`. Used by fast-forwarding to discard in-flight events
    /// inside a skipped epoch; does not advance the clock and does not
    /// count toward [`EventQueue::processed`].
    pub fn extract_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= t {
            return None;
        }
        let (key, event) = self.heap.pop_min()?;
        Some((key.at, event))
    }

    /// Jump the clock straight to `t` without processing an event. Every
    /// still-pending event must be at or after `t`, otherwise the monotonic
    /// clock invariant would break on the next pop.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "fast-forward backwards: {t} < {}", self.now);
        debug_assert!(
            self.peek_time().map_or(true, |at| at >= t),
            "fast-forward would jump past a pending event"
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 1);
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(5), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + SimDuration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().nanos(), 7_000_000);
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn schedule_while_draining() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 0u32);
        let (_, v) = q.pop().unwrap();
        assert_eq!(v, 0);
        q.schedule(SimTime(2), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn far_timers_cascade_in_order() {
        // RTO-like population: a dense band of near events plus timers
        // seconds out; the wheel must hand them back in exact key order.
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(SimTime(i * 1_000), i);
        }
        for i in 0..50u64 {
            q.schedule(SimTime(1_000_000_000 + i * 7_919), 1_000 + i);
        }
        q.schedule(SimTime(60_000_000_000), 9_999); // a minute out
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            n += 1;
        }
        assert_eq!(n, 151);
        assert_eq!(last, SimTime(60_000_000_000));
    }

    #[test]
    fn pop_before_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop_before(SimTime(20)).unwrap().1, "a");
        assert!(q.pop_before(SimTime(20)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime(21)).unwrap().1, "b");
    }

    #[test]
    fn interleaved_schedule_pop_stress_matches_reference() {
        // Deterministic pseudo-random workload cross-checked against a
        // straightforward sorted-vec reference queue.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new(); // (at, seq, val)
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expect = Vec::new();
        for round in 0..2_000u32 {
            let r = step();
            if r % 3 != 0 {
                let at = q.now().nanos() + r % 5_000_000 * if r % 17 == 0 { 1_000 } else { 1 };
                q.schedule(SimTime(at), round);
                reference.push((at, seq, round));
                seq += 1;
            } else if !reference.is_empty() {
                let (at, e) = q.pop().unwrap();
                let best = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (a, s, _))| (*a, *s))
                    .map(|(i, _)| i)
                    .unwrap();
                let (rat, _, rv) = reference.remove(best);
                assert_eq!(at.nanos(), rat);
                popped.push(e);
                expect.push(rv);
            }
        }
        assert_eq!(popped, expect);
    }
}
