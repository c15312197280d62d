//! A unidirectional bottleneck link: serialization at a fixed rate, a
//! drop-tail queue, and a fixed propagation delay.
//!
//! The reverse (ACK) path is modelled as pure delay — ACKs are 40-byte
//! packets and the paper's CERN→ANL path was only congested in the data
//! direction — so a [`Link`] only carries data packets.

use crate::packet::Packet;
use crate::queue::{DropTailQueue, Enqueue};
use crate::time::{SimDuration, SimTime};

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// Bottleneck rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay (data direction).
    pub propagation: SimDuration,
    /// Router buffer, in packets.
    pub queue_capacity: usize,
}

impl LinkSpec {
    /// The CERN↔ANL path of the paper: 45 Mb/s, 125 ms RTT.
    pub fn cern_anl() -> Self {
        LinkSpec {
            rate_bps: 45_000_000,
            propagation: SimDuration::from_micros(62_500),
            queue_capacity: 256,
        }
    }

    /// Bandwidth-delay product in bytes, assuming a symmetric path
    /// (RTT = 2 × propagation).
    pub fn bdp_bytes(&self) -> u64 {
        let rtt = self.propagation.nanos() * 2;
        (self.rate_bps as u128 * rtt as u128 / 8 / crate::time::NANOS_PER_SEC as u128) as u64
    }
}

/// Dynamic link state.
#[derive(Debug, Clone)]
pub struct Link {
    pub spec: LinkSpec,
    pub queue: DropTailQueue,
    /// Whether a packet is currently being serialized.
    busy: bool,
    /// Total payload+header bytes that finished serialization.
    pub bytes_transmitted: u64,
    pub packets_transmitted: u64,
    /// Cumulative queueing delay experienced by transmitted packets.
    pub total_queue_delay: SimDuration,
    /// First/last transmission instants, for utilization accounting.
    pub first_tx: Option<SimTime>,
    pub last_tx: SimTime,
}

/// What the link asks its owner to schedule next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    /// Start serializing `packet`; completion is at `done`.
    StartTx { packet: Packet, done: SimTime },
    /// Nothing to do (queue empty or packet dropped while busy).
    Idle,
}

impl Link {
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            queue: DropTailQueue::new(spec.queue_capacity),
            spec,
            busy: false,
            bytes_transmitted: 0,
            packets_transmitted: 0,
            total_queue_delay: SimDuration::ZERO,
            first_tx: None,
            last_tx: SimTime::ZERO,
        }
    }

    /// Offer a packet at time `now`. Returns the transmission to schedule,
    /// if the link was idle and the packet goes straight to the wire.
    pub fn offer(&mut self, mut pkt: Packet, now: SimTime) -> LinkAction {
        pkt.enqueued_at = now;
        match self.queue.push(pkt) {
            Enqueue::Dropped => LinkAction::Idle,
            Enqueue::Accepted => {
                if self.busy {
                    LinkAction::Idle
                } else {
                    self.start_next(now)
                }
            }
        }
    }

    /// Called when the in-flight packet finishes serialization; returns the
    /// next transmission to schedule, if any is queued.
    pub fn tx_complete(&mut self, now: SimTime) -> LinkAction {
        self.busy = false;
        self.start_next(now)
    }

    fn start_next(&mut self, now: SimTime) -> LinkAction {
        match self.queue.pop() {
            None => LinkAction::Idle,
            Some(pkt) => {
                self.busy = true;
                self.total_queue_delay = self.total_queue_delay + now.since(pkt.enqueued_at);
                self.bytes_transmitted += u64::from(pkt.wire_bytes);
                self.packets_transmitted += 1;
                if self.first_tx.is_none() {
                    self.first_tx = Some(now);
                }
                let done =
                    now + SimDuration::serialization(u64::from(pkt.wire_bytes), self.spec.rate_bps);
                self.last_tx = done;
                LinkAction::StartTx { packet: pkt, done }
            }
        }
    }

    /// Account for an analytically fast-forwarded epoch ending at `t_end`:
    /// everything queued at the epoch start completes its transmission
    /// inside the epoch, plus `extra_packets`/`extra_bytes` of traffic the
    /// fluid model moved across the link. Leaves the link idle and empty,
    /// ready for the packet-level restart.
    pub fn fast_forward(&mut self, extra_bytes: u64, extra_packets: u64, t_end: SimTime) {
        while let Some(pkt) = self.queue.pop() {
            self.bytes_transmitted += u64::from(pkt.wire_bytes);
            self.packets_transmitted += 1;
        }
        self.busy = false;
        self.bytes_transmitted += extra_bytes;
        self.packets_transmitted += extra_packets;
        if self.packets_transmitted > 0 && self.first_tx.is_none() {
            self.first_tx = Some(t_end);
        }
        self.last_tx = self.last_tx.max(t_end);
    }

    /// Fraction of the busy interval the link actually spent transmitting.
    pub fn utilization(&self) -> f64 {
        match self.first_tx {
            None => 0.0,
            Some(first) => {
                let span = self.last_tx.since(first).as_secs_f64();
                if span == 0.0 {
                    0.0
                } else {
                    (self.bytes_transmitted as f64 * 8.0 / self.spec.rate_bps as f64) / span
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};

    fn pkt(seq: u64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            seq,
            wire_bytes: bytes,
            retransmit: false,
            enqueued_at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            hop: 0,
        }
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut link = Link::new(LinkSpec {
            rate_bps: 8_000, // 1000 bytes/s
            propagation: SimDuration::from_millis(10),
            queue_capacity: 4,
        });
        match link.offer(pkt(0, 500), SimTime::ZERO) {
            LinkAction::StartTx { packet, done } => {
                assert_eq!(packet.seq, 0);
                assert_eq!(done.as_secs_f64(), 0.5); // 500 B at 1000 B/s
            }
            LinkAction::Idle => panic!("expected immediate transmission"),
        }
    }

    #[test]
    fn busy_link_queues_and_resumes() {
        let mut link = Link::new(LinkSpec {
            rate_bps: 8_000,
            propagation: SimDuration::ZERO,
            queue_capacity: 4,
        });
        let LinkAction::StartTx { done, .. } = link.offer(pkt(0, 1000), SimTime::ZERO) else {
            panic!()
        };
        assert_eq!(link.offer(pkt(1, 1000), SimTime::ZERO), LinkAction::Idle);
        // First completes at `done`; the second starts then.
        match link.tx_complete(done) {
            LinkAction::StartTx { packet, done: d2 } => {
                assert_eq!(packet.seq, 1);
                assert_eq!(d2.as_secs_f64(), 2.0);
            }
            LinkAction::Idle => panic!("queued packet should start"),
        }
        assert_eq!(link.tx_complete(SimTime(2 * crate::time::NANOS_PER_SEC)), LinkAction::Idle);
        assert_eq!(link.packets_transmitted, 2);
        assert_eq!(link.bytes_transmitted, 2000);
    }

    #[test]
    fn queueing_delay_is_recorded() {
        let mut link = Link::new(LinkSpec {
            rate_bps: 8_000,
            propagation: SimDuration::ZERO,
            queue_capacity: 4,
        });
        let LinkAction::StartTx { done, .. } = link.offer(pkt(0, 1000), SimTime::ZERO) else {
            panic!()
        };
        link.offer(pkt(1, 1000), SimTime::ZERO);
        link.tx_complete(done);
        // Packet 1 waited exactly one serialization time (1 s).
        assert_eq!(link.total_queue_delay.as_secs_f64(), 1.0);
    }

    #[test]
    fn bdp_of_paper_link() {
        // 45 Mb/s × 125 ms = 703 125 bytes, the paper's ~700 KB optimum.
        assert_eq!(LinkSpec::cern_anl().bdp_bytes(), 703_125);
    }

    #[test]
    fn full_utilization_under_backlog() {
        let mut link = Link::new(LinkSpec {
            rate_bps: 8_000,
            propagation: SimDuration::ZERO,
            queue_capacity: 16,
        });
        let mut action = link.offer(pkt(0, 1000), SimTime::ZERO);
        for i in 1..8 {
            link.offer(pkt(i, 1000), SimTime::ZERO);
        }
        while let LinkAction::StartTx { done, .. } = action {
            action = link.tx_complete(done);
        }
        assert!((link.utilization() - 1.0).abs() < 1e-9);
    }
}
