//! TCP receiver: cumulative acknowledgements with out-of-order buffering.

use std::collections::BTreeSet;

use crate::time::SimTime;

/// An acknowledgement travelling back to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Next segment expected (cumulative ACK).
    pub ackno: u64,
    /// Echoed send timestamp, valid for RTT sampling only when the segment
    /// that triggered this ACK was not a retransmission (Karn's rule).
    pub ts_echo: Option<SimTime>,
}

/// Receiver state for one flow.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// Next in-order segment expected.
    rcv_nxt: u64,
    /// Segments received above `rcv_nxt` (sequence numbers).
    out_of_order: BTreeSet<u64>,
    /// Duplicate (non-advancing) ACKs generated.
    pub dup_acks_sent: u64,
    /// Segments received more than once.
    pub spurious: u64,
}

impl Receiver {
    pub fn new() -> Self {
        Receiver { rcv_nxt: 0, out_of_order: BTreeSet::new(), dup_acks_sent: 0, spurious: 0 }
    }

    /// Process arrival of segment `seq` (sent at `sent_at`, retransmission
    /// flag per the packet) and produce the ACK to send back.
    pub fn on_segment(&mut self, seq: u64, sent_at: SimTime, retransmit: bool) -> Ack {
        if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            // Drain any now-contiguous out-of-order segments.
            while self.out_of_order.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
        } else if seq > self.rcv_nxt {
            if !self.out_of_order.insert(seq) {
                self.spurious += 1;
            }
            self.dup_acks_sent += 1;
        } else {
            // Below the window: already delivered (e.g. go-back-N resend).
            self.spurious += 1;
            self.dup_acks_sent += 1;
        }
        Ack { ackno: self.rcv_nxt, ts_echo: if retransmit { None } else { Some(sent_at) } }
    }

    /// Highest contiguous segment received (next expected).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Fast-forward in-order delivery to `rcv_nxt`. Only valid while no
    /// out-of-order segments are buffered (fast-forwarded epochs are
    /// lossless, so delivery is strictly sequential).
    pub fn fast_forward_to(&mut self, rcv_nxt: u64) {
        debug_assert!(self.out_of_order.is_empty(), "fast-forward across a reordered window");
        self.rcv_nxt = self.rcv_nxt.max(rcv_nxt);
    }

    /// Count of buffered out-of-order segments.
    pub fn reorder_depth(&self) -> usize {
        self.out_of_order.len()
    }
}

impl Default for Receiver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_advances() {
        let mut r = Receiver::new();
        for i in 0..5 {
            let ack = r.on_segment(i, SimTime(i), false);
            assert_eq!(ack.ackno, i + 1);
            assert_eq!(ack.ts_echo, Some(SimTime(i)));
        }
        assert_eq!(r.dup_acks_sent, 0);
    }

    #[test]
    fn gap_generates_dup_acks_then_drains() {
        let mut r = Receiver::new();
        assert_eq!(r.on_segment(0, SimTime::ZERO, false).ackno, 1);
        // Segment 1 lost; 2, 3, 4 arrive → three dup ACKs of 1.
        for s in [2, 3, 4] {
            let ack = r.on_segment(s, SimTime::ZERO, false);
            assert_eq!(ack.ackno, 1);
        }
        assert_eq!(r.dup_acks_sent, 3);
        assert_eq!(r.reorder_depth(), 3);
        // Retransmitted 1 arrives: cumulative ACK jumps to 5.
        let ack = r.on_segment(1, SimTime::ZERO, true);
        assert_eq!(ack.ackno, 5);
        assert_eq!(ack.ts_echo, None, "Karn: no RTT sample from retransmit");
        assert_eq!(r.reorder_depth(), 0);
    }

    #[test]
    fn below_window_is_spurious() {
        let mut r = Receiver::new();
        r.on_segment(0, SimTime::ZERO, false);
        let ack = r.on_segment(0, SimTime::ZERO, true);
        assert_eq!(ack.ackno, 1);
        assert_eq!(r.spurious, 1);
    }

    #[test]
    fn duplicate_out_of_order_is_spurious() {
        let mut r = Receiver::new();
        r.on_segment(3, SimTime::ZERO, false);
        r.on_segment(3, SimTime::ZERO, false);
        assert_eq!(r.spurious, 1);
        assert_eq!(r.reorder_depth(), 1);
    }
}
