//! Flight recorder: a fixed-capacity ring buffer of recent events.
//!
//! Where spans capture the structured trace of one operation, the flight
//! recorder captures "what just happened" across the whole run — link
//! drops, CRC failures, recovery verdicts — with O(1) append and bounded
//! memory, like an aircraft's flight data recorder.

use crate::FieldValue;

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number over the whole run (not reset by wrap),
    /// so exports show how many events were dropped.
    pub seq: u64,
    pub t_ns: u64,
    pub kind: String,
    pub detail: FieldValue,
}

pub(crate) struct Recorder {
    ring: Vec<Option<Event>>,
    next_seq: u64,
}

impl Recorder {
    pub(crate) fn new(cap: usize) -> Recorder {
        Recorder { ring: vec![None; cap.max(1)], next_seq: 0 }
    }

    pub(crate) fn push(&mut self, t_ns: u64, kind: &str, detail: FieldValue) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = (seq % self.ring.len() as u64) as usize;
        self.ring[slot] = Some(Event { seq, t_ns, kind: kind.to_string(), detail });
    }

    /// Total events ever recorded (retained + overwritten).
    pub(crate) fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// How many events are retained.
    pub(crate) fn retained(&self) -> usize {
        self.next_seq.min(self.ring.len() as u64) as usize
    }

    /// Retained events, oldest first. Does not consume them.
    pub(crate) fn drain_ordered(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.ring.iter().flatten().cloned().collect();
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = Recorder::new(3);
        for i in 0..5u64 {
            r.push(i * 10, "tick", FieldValue::U64(i));
        }
        let events = r.drain_ordered();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.recorded(), 5);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = Recorder::new(0);
        r.push(1, "a", FieldValue::Bool(true));
        r.push(2, "b", FieldValue::Bool(false));
        let events = r.drain_ordered();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "b");
    }
}
