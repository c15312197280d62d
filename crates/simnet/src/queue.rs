//! Drop-tail FIFO queue attached to a link's transmit side.

use std::collections::VecDeque;

use crate::packet::Packet;

/// A bounded FIFO packet queue with tail-drop semantics, as found in the
/// routers of the paper's era. Capacity is measured in packets.
#[derive(Debug, Clone)]
pub struct DropTailQueue {
    buf: VecDeque<Packet>,
    capacity: usize,
    /// Total packets dropped because the queue was full.
    pub drops: u64,
    /// Total packets ever accepted.
    pub accepted: u64,
    /// High-water mark of queue occupancy.
    pub max_depth: usize,
}

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    Accepted,
    Dropped,
}

impl DropTailQueue {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        DropTailQueue {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            drops: 0,
            accepted: 0,
            max_depth: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Offer a packet. Full queue ⇒ tail drop.
    pub fn push(&mut self, pkt: Packet) -> Enqueue {
        if self.buf.len() >= self.capacity {
            self.drops += 1;
            Enqueue::Dropped
        } else {
            self.buf.push_back(pkt);
            self.accepted += 1;
            self.max_depth = self.max_depth.max(self.buf.len());
            Enqueue::Accepted
        }
    }

    pub fn pop(&mut self) -> Option<Packet> {
        self.buf.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::time::SimTime;

    fn pkt(seq: u64) -> Packet {
        Packet {
            flow: FlowId(0),
            seq,
            wire_bytes: 1500,
            retransmit: false,
            enqueued_at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            hop: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(pkt(i)), Enqueue::Accepted);
        }
        for i in 0..4 {
            assert_eq!(q.pop().unwrap().seq, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn tail_drop_when_full() {
        let mut q = DropTailQueue::new(2);
        assert_eq!(q.push(pkt(0)), Enqueue::Accepted);
        assert_eq!(q.push(pkt(1)), Enqueue::Accepted);
        assert_eq!(q.push(pkt(2)), Enqueue::Dropped);
        assert_eq!(q.drops, 1);
        assert_eq!(q.accepted, 2);
        // Draining frees capacity again.
        q.pop();
        assert_eq!(q.push(pkt(3)), Enqueue::Accepted);
    }

    #[test]
    fn loss_rate_tracks_offers() {
        let mut q = DropTailQueue::new(1);
        q.push(pkt(0));
        q.push(pkt(1));
        q.push(pkt(2));
        assert_eq!((q.accepted, q.drops), (1, 2));
    }

    #[test]
    fn high_water_mark() {
        let mut q = DropTailQueue::new(8);
        for i in 0..5 {
            q.push(pkt(i));
        }
        q.pop();
        q.pop();
        assert_eq!(q.max_depth, 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DropTailQueue::new(0);
    }
}
