//! Deterministic discrete-event queue.
//!
//! One `std::collections::BinaryHeap` holds every pending event, ordered
//! by the key `(at, seq)`: the simulated time, then a sequence number
//! handed out in scheduling order. The key is unique, so the pop order is
//! one total order: ties on the clock break by the order the events were
//! scheduled in, and a run is a pure function of the scenario. No
//! wall-clock time or iteration-order nondeterminism can leak in.
//!
//! In a session, about half the events are ACK arrivals one round trip
//! ahead, nearly all of which fire, and retransmission timers are a
//! fraction of a percent (DESIGN §14). A custom structure comes back only
//! with a measured win on recorded session traffic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One pending event. Ordered by `(at, seq)` alone and reversed, so the
/// max-heap pops the earliest key first.
#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-queue of timestamped events with deterministic tie-breaking.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO, processed: 0 }
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
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past
    /// (before the current clock) is a logic error.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        self.heap.push(Entry { at, seq: self.next_seq, event });
        self.next_seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, event, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now, "clock went backwards");
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    /// Pop the earliest event only if it is scheduled strictly before
    /// `limit`; counts and advances the clock exactly like
    /// [`EventQueue::pop`].
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// Peek at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Remove and return the earliest event if it is scheduled strictly
    /// before `t`. Used by fast-forwarding to discard in-flight events
    /// inside a skipped epoch; does not advance the clock and does not
    /// count toward [`EventQueue::processed`].
    pub fn extract_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= t {
            return None;
        }
        self.heap.pop().map(|e| (e.at, e.event))
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
        // seconds out and one a minute out, handed back in key order.
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
        // straightforward sorted-vec reference queue. The schedules mix a
        // session's traffic: serializations microseconds ahead, packet
        // arrivals one 62.5 ms propagation ahead, retransmission timers
        // about a second out and a rare event a minute out. The removals
        // are `pop`, `pop_before` as `Network::run_until` calls it, and
        // `extract_before` followed by `advance_to` as fast-forward calls
        // them. Halfway a clone joins, and from then on it must answer
        // every operation exactly as the original does.
        let mut queues = vec![EventQueue::new()];
        let mut reference: Vec<(u64, u64, u32)> = Vec::new(); // (at, seq, val), sorted
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let (mut now, mut seq, mut processed) = (0u64, 0u64, 0u64);
        for round in 0..6_000u32 {
            if round == 3_000 {
                let fork = queues[0].clone();
                queues.push(fork);
            }
            let r = step();
            // Half the limits below fall exactly on a pending event's time.
            let boundary = reference.get(r as usize / 32 % 4).filter(|_| r / 16 % 2 == 0);
            match r % 16 {
                0..=10 => {
                    let ahead = match r / 16 % 100 {
                        0 => 60_000_000_000,
                        1..=2 => 1_000_000_000 + r % 200_000_000,
                        3..=59 => 62_500_000 + r % 4 * 1_000,
                        _ => 1_000 + r % 300_000,
                    };
                    let at = now + ahead;
                    for q in &mut queues {
                        q.schedule(SimTime(at), round);
                    }
                    let i = reference.partition_point(|&(a, _, _)| a <= at);
                    reference.insert(i, (at, seq, round));
                    seq += 1;
                }
                11..=13 => {
                    let expect = (!reference.is_empty()).then(|| reference.remove(0));
                    for q in &mut queues {
                        let got = q.pop().map(|(at, e)| (at.nanos(), e));
                        assert_eq!(got, expect.map(|(at, _, v)| (at, v)));
                    }
                    if let Some((at, _, _)) = expect {
                        (now, processed) = (at, processed + 1);
                    }
                }
                14 => {
                    let limit = boundary.map_or(now + r % 100_000_000, |e| e.0);
                    let due = reference.first().is_some_and(|&(at, _, _)| at < limit);
                    let expect = due.then(|| reference.remove(0));
                    for q in &mut queues {
                        let got = q.pop_before(SimTime(limit)).map(|(at, e)| (at.nanos(), e));
                        assert_eq!(got, expect.map(|(at, _, v)| (at, v)));
                    }
                    if let Some((at, _, _)) = expect {
                        (now, processed) = (at, processed + 1);
                    }
                }
                _ => {
                    let t = boundary.map_or(now + r % 20_000_000, |e| e.0);
                    let n = reference.partition_point(|&(at, _, _)| at < t);
                    let expect: Vec<_> = reference.drain(..n).map(|(at, _, v)| (at, v)).collect();
                    for q in &mut queues {
                        let got: Vec<_> = std::iter::from_fn(|| q.extract_before(SimTime(t)))
                            .map(|(at, e)| (at.nanos(), e))
                            .collect();
                        assert_eq!(got, expect);
                        q.advance_to(SimTime(t));
                    }
                    now = t;
                }
            }
            for q in &mut queues {
                assert_eq!(q.now().nanos(), now);
                assert_eq!(q.processed(), processed);
                assert_eq!(q.len(), reference.len());
                assert_eq!(q.peek_time().map(SimTime::nanos), reference.first().map(|e| e.0));
            }
        }
        assert_eq!(queues.len(), 2);
        let rest: Vec<_> = reference.iter().map(|&(at, _, v)| (at, v)).collect();
        for mut q in queues {
            let drained: Vec<_> =
                std::iter::from_fn(|| q.pop()).map(|(at, e)| (at.nanos(), e)).collect();
            assert_eq!(drained, rest);
        }
    }
}
