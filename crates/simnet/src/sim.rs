//! The simulation state and its event dispatch.
//!
//! A [`crate::network::Network`] is a facade over one [`Sim`]: every link,
//! flow and receiver plus the one event queue that orders them. The event
//! loop runs inline on the calling thread (see DESIGN §14 for why there is
//! no parallel engine).

use crate::engine::EventQueue;
use crate::link::{Link, LinkAction};
use crate::network::FlowSpec;
use crate::packet::{wire, wire_bytes_for, FlowId, LinkId, Packet};
use crate::tcp::{Ack, Receiver, Sender, Tx};
use crate::time::{SimDuration, SimTime};

/// Simulation event.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// Connection handshake complete; sender may begin.
    FlowStart(FlowId),
    /// A packet finished serializing on `link`. On the final hop this also
    /// delivers the segment: the receiver's ACK is computed here and
    /// scheduled to arrive after the remaining data propagation plus the
    /// full return path, which folds what used to be a separate
    /// `DataArrival` event into this one.
    TxDone { link: LinkId, packet: Packet },
    /// A packet propagated to the next hop of its path.
    HopArrival(Packet),
    /// An ACK reached the sender.
    AckArrival { flow: FlowId, ack: Ack },
    /// Retransmission timer.
    Rto { flow: FlowId, gen: u64 },
}

/// Mutable per-flow sender-side state.
#[derive(Clone)]
pub(crate) struct FlowState {
    pub spec: FlowSpec,
    pub sender: Sender,
    pub total_bytes: Option<u64>,
    /// When the `FlowStart` event fires (open + handshake).
    pub start_at: SimTime,
    /// Zero-load RTT of the path: propagation ×2 plus one full-frame
    /// serialization per hop.
    pub base_rtt: SimDuration,
    /// Total one-way propagation of the path (the ACK's return delay).
    pub path_prop: SimDuration,
    /// Earliest `Rto` event currently sitting in the event queue, if any.
    /// The timer deadline moves on every ACK; instead of scheduling a heap
    /// event per re-arm, the pending event is left in place and re-synced
    /// (against the sender's real deadline and generation) when it pops.
    pub pending_rto: Option<SimTime>,
    /// Still counted in [`Sim::incomplete_finite`].
    pub counted_incomplete: bool,
}

/// Everything the event loop mutates: links, flows and receivers indexed
/// by their ids, plus the event queue.
#[derive(Clone)]
pub(crate) struct Sim {
    pub links: Vec<Link>,
    pub flows: Vec<FlowState>,
    pub receivers: Vec<Receiver>,
    pub queue: EventQueue<Event>,
    /// Finite flows that have not finished yet.
    pub incomplete_finite: usize,
    pub progress_traces: Option<Vec<Vec<(SimTime, u64)>>>,
    /// Reusable transmit-instruction buffer for the per-event hot path.
    pub tx_scratch: Vec<Tx>,
}

impl Sim {
    pub fn new() -> Sim {
        Sim {
            links: Vec::new(),
            flows: Vec::new(),
            receivers: Vec::new(),
            queue: EventQueue::new(),
            incomplete_finite: 0,
            progress_traces: None,
            tx_scratch: Vec::new(),
        }
    }

    /// Keep [`Sim::incomplete_finite`] in step with the sender's state;
    /// call after any operation that can complete a flow.
    pub fn note_completion(&mut self, fid: FlowId) {
        let flow = &mut self.flows[fid.0];
        if flow.counted_incomplete
            && flow.sender.is_complete()
            && flow.sender.finished_at().is_some()
        {
            flow.counted_incomplete = false;
            self.incomplete_finite -= 1;
        }
    }

    pub fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::FlowStart(fid) => {
                let mut txs = std::mem::take(&mut self.tx_scratch);
                self.flows[fid.0].sender.on_start_into(now, &mut txs);
                self.transmit(fid, &txs, now);
                self.tx_scratch = txs;
                self.sync_timer(fid);
                self.note_completion(fid);
            }
            Event::TxDone { link, packet } => {
                let prop = self.links[link.0].spec.propagation;
                let flow = &self.flows[packet.flow.0];
                let path = flow.spec.path;
                if usize::from(packet.hop) + 1 < path.len() {
                    // More hops: propagate to the next router's queue.
                    let mut next = packet;
                    next.hop += 1;
                    self.queue.schedule(now + prop, Event::HopArrival(next));
                } else {
                    // Final hop: deliver to the receiver here. The receiver
                    // is touched only by this flow's packets and links are
                    // FIFO, so computing the ACK at serialization time is
                    // order-equivalent to a separate arrival event one
                    // propagation later; the ACK still reaches the sender
                    // after the remaining data propagation plus the full
                    // return path.
                    let fid = packet.flow;
                    let back = prop + flow.path_prop;
                    let ack = self.receivers[fid.0].on_segment(
                        packet.seq,
                        packet.sent_at,
                        packet.retransmit,
                    );
                    self.queue.schedule(now + back, Event::AckArrival { flow: fid, ack });
                }
                if let LinkAction::StartTx { packet, done } = self.links[link.0].tx_complete(now) {
                    self.queue.schedule(done, Event::TxDone { link, packet });
                }
            }
            Event::HopArrival(pkt) => {
                let link_id = self.flows[pkt.flow.0].spec.path.hop(usize::from(pkt.hop));
                if let LinkAction::StartTx { packet, done } = self.links[link_id.0].offer(pkt, now)
                {
                    self.queue.schedule(done, Event::TxDone { link: link_id, packet });
                }
            }
            Event::AckArrival { flow, ack } => {
                let mut txs = std::mem::take(&mut self.tx_scratch);
                self.flows[flow.0].sender.on_ack_into(ack, now, &mut txs);
                self.transmit(flow, &txs, now);
                self.tx_scratch = txs;
                self.sync_timer(flow);
                self.trace_progress(flow, now);
                self.note_completion(flow);
            }
            Event::Rto { flow, gen } => {
                let f = &mut self.flows[flow.0];
                if f.pending_rto == Some(now) {
                    f.pending_rto = None;
                }
                let mut txs = std::mem::take(&mut self.tx_scratch);
                self.flows[flow.0].sender.on_rto_into(gen, now, &mut txs);
                self.transmit(flow, &txs, now);
                self.tx_scratch = txs;
                self.sync_timer(flow);
            }
        }
    }

    /// Offer segments to the flow's first-hop link; drops are silent (the
    /// sender discovers them through missing ACKs, as on a real drop-tail
    /// router).
    pub fn transmit(&mut self, fid: FlowId, txs: &[Tx], now: SimTime) {
        if txs.is_empty() {
            return;
        }
        let f = &self.flows[fid.0];
        let (first, total) = (f.spec.path.hop(0), f.total_bytes);
        for tx in txs {
            let wire_bytes = match total {
                Some(total) => wire_bytes_for(tx.seq, total),
                None => wire::FULL_FRAME,
            };
            let pkt = Packet {
                flow: fid,
                seq: tx.seq,
                wire_bytes,
                retransmit: tx.retransmit,
                enqueued_at: now,
                sent_at: now,
                hop: 0,
            };
            if let LinkAction::StartTx { packet, done } = self.links[first.0].offer(pkt, now) {
                self.queue.schedule(done, Event::TxDone { link: first, packet });
            }
        }
    }

    /// Lazily reconcile the event queue with the sender's retransmission
    /// timer. The deadline moves on every ACK; instead of pushing one heap
    /// event per re-arm, an `Rto` event is scheduled only when no pending
    /// event covers the current deadline. A pending event that pops with a
    /// stale generation is ignored by the sender and re-synced here, so
    /// firing semantics are identical to eager re-scheduling at a fraction
    /// of the event count.
    pub fn sync_timer(&mut self, fid: FlowId) {
        let flow = &mut self.flows[fid.0];
        if let Some((deadline, gen)) = flow.sender.timer() {
            let covered = flow.pending_rto.is_some_and(|p| p <= deadline);
            if !covered {
                flow.pending_rto = Some(deadline);
                self.queue.schedule(deadline, Event::Rto { flow: fid, gen });
            }
        }
    }

    pub fn trace_progress(&mut self, fid: FlowId, now: SimTime) {
        if self.progress_traces.is_none() {
            return;
        }
        let f = &self.flows[fid.0];
        let acked = f.sender.segments_acked() * u64::from(wire::MSS);
        let bytes = match f.total_bytes {
            Some(total) => total.min(acked),
            None => acked,
        };
        if let Some(traces) = &mut self.progress_traces {
            traces[fid.0].push((now, bytes));
        }
    }
}
