//! TCP NewReno sender.
//!
//! The sender is a pure state machine: each input (`on_start`, `on_ack`,
//! `on_rto`) returns the list of segments to transmit, and the owner polls
//! [`Sender::timer`] afterwards to (re)schedule the retransmission timer.
//! This keeps the congestion-control logic free of event-queue plumbing and
//! directly unit-testable.
//!
//! Implemented behaviour (RFC 5681 + RFC 6582):
//! * slow start and congestion avoidance,
//! * fast retransmit on three duplicate ACKs, fast recovery with window
//!   inflation, NewReno partial-ACK hole retransmission,
//! * retransmission timeout with go-back-N resend and exponential backoff,
//! * receive-window (socket-buffer) limiting — the mechanism whose tuning
//!   Section 6 of the paper studies,
//! * Karn-compliant RTT sampling via echoed timestamps.

use crate::tcp::receiver::Ack;
use crate::tcp::rtt::RttEstimator;
use crate::time::{SimDuration, SimTime};

/// A transmission instruction emitted by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tx {
    pub seq: u64,
    pub retransmit: bool,
}

/// Static sender parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderConfig {
    /// Segments to transfer; `None` means an unbounded (background) flow.
    pub total_segments: Option<u64>,
    /// Receive-window limit in segments (socket buffer ÷ MSS).
    pub rwnd_segments: u64,
    /// Initial congestion window in segments (2 in the paper's era).
    pub initial_cwnd: f64,
    /// Initial slow-start threshold in segments. "Arbitrarily high"
    /// (RFC 5681, i.e. `f64::INFINITY`) for a fresh connection; a warm
    /// flow resuming at its steady-state window sets this to its initial
    /// cwnd so it continues in congestion avoidance.
    pub initial_ssthresh: f64,
    /// Lower bound for the retransmission timeout.
    pub min_rto: SimDuration,
}

/// Per-flow transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub segments_sent: u64,
    pub segments_retransmitted: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Sender {
    cfg: SenderConfig,
    /// Lowest unacknowledged segment.
    snd_una: u64,
    /// Next new segment to send.
    snd_nxt: u64,
    /// Highest segment ever transmitted (+1); resends below this are
    /// flagged as retransmissions.
    highest_sent: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    /// NewReno recovery point: recovery ends when `ackno >= recover`.
    recover: u64,
    /// Partial ACKs seen in the current recovery episode (RFC 6582
    /// "Impatient" variant: only the first partial ACK re-arms the RTO, so
    /// a window with many holes falls back to timeout + go-back-N instead
    /// of repairing one hole per RTT).
    partial_acks: u32,
    rtt: RttEstimator,
    timer_deadline: Option<SimTime>,
    timer_gen: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    pub stats: SenderStats,
}

impl Sender {
    pub fn new(cfg: SenderConfig) -> Self {
        assert!(cfg.rwnd_segments >= 1, "receive window must hold ≥1 segment");
        assert!(cfg.initial_cwnd >= 1.0, "initial cwnd must be ≥1");
        Sender {
            rtt: RttEstimator::new(cfg.min_rto),
            snd_una: 0,
            snd_nxt: 0,
            highest_sent: 0,
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            partial_acks: 0,
            timer_deadline: None,
            timer_gen: 0,
            started_at: None,
            finished_at: None,
            stats: SenderStats::default(),
            cfg,
        }
    }

    /// Change how many segments a finite flow carries; only before it
    /// starts, while no state has been derived from the old count.
    pub fn set_total_segments(&mut self, total: u64) {
        assert!(self.started_at.is_none(), "cannot resize a flow that has started");
        assert!(self.cfg.total_segments.is_some(), "a background flow has no size");
        self.cfg.total_segments = Some(total);
    }

    /// Begin transmitting (connection already established).
    pub fn on_start(&mut self, now: SimTime) -> Vec<Tx> {
        let mut out = Vec::new();
        self.on_start_into(now, &mut out);
        out
    }

    /// [`Sender::on_start`] writing into a caller-owned buffer (cleared
    /// first), so flow admission allocates nothing.
    pub fn on_start_into(&mut self, now: SimTime, out: &mut Vec<Tx>) {
        out.clear();
        self.started_at = Some(now);
        if self.cfg.total_segments == Some(0) {
            self.finished_at = Some(now);
            return;
        }
        self.send_window_into(out);
        for tx in out.iter() {
            self.note_sent(*tx);
        }
        self.arm_timer(now);
    }

    /// Process an acknowledgement arriving at time `now`.
    pub fn on_ack(&mut self, ack: Ack, now: SimTime) -> Vec<Tx> {
        let mut out = Vec::new();
        self.on_ack_into(ack, now, &mut out);
        out
    }

    /// [`Sender::on_ack`] writing into a caller-owned buffer (cleared
    /// first), so the per-ACK hot path allocates nothing in steady state.
    pub fn on_ack_into(&mut self, ack: Ack, now: SimTime, out: &mut Vec<Tx>) {
        out.clear();
        if self.is_complete() {
            return;
        }
        if let Some(ts) = ack.ts_echo {
            self.rtt.sample(now.since(ts));
        }
        let a = ack.ackno;
        if a > self.snd_una {
            self.on_new_ack(a, now, out);
        } else {
            self.on_dup_ack(now, out);
        }
        for tx in out.iter() {
            self.note_sent(*tx);
        }
    }

    fn on_new_ack(&mut self, a: u64, now: SimTime, out: &mut Vec<Tx>) {
        let mut rearm = true;
        // Appropriate byte counting (RFC 3465): grow by what was acked, so
        // stretch ACKs (common after go-back-N repair, when the receiver
        // already holds long runs) do not starve window growth.
        let acked = (a - self.snd_una) as f64;
        if self.in_recovery {
            if a >= self.recover {
                // Full ACK: recovery complete, deflate the window.
                self.in_recovery = false;
                self.partial_acks = 0;
                self.cwnd = self.ssthresh.max(2.0);
            } else {
                // Partial ACK: the next hole starts at `a`; retransmit it and
                // deflate by the amount acknowledged (RFC 6582).
                self.cwnd = (self.cwnd - acked + 1.0).max(2.0);
                out.push(Tx { seq: a, retransmit: true });
                self.partial_acks += 1;
                rearm = self.partial_acks == 1;
            }
        } else if self.cwnd < self.ssthresh {
            // Slow start with appropriate byte counting, L=2 (RFC 3465),
            // clamped so a stretch-ACK burst cannot jump past ssthresh.
            self.cwnd = (self.cwnd + acked.min(2.0)).min(self.ssthresh.max(self.cwnd));
        } else {
            self.cwnd += acked / self.cwnd; // congestion avoidance
        }
        self.cwnd = self.cwnd.min(self.cfg.rwnd_segments.max(2) as f64);
        self.dup_acks = 0;
        self.snd_una = a;
        if self.snd_nxt < a {
            // Go-back-N rewound snd_nxt below data the receiver already had.
            self.snd_nxt = a;
        }
        if self.is_complete() {
            self.finished_at = Some(now);
            self.cancel_timer();
            return;
        }
        if rearm {
            self.arm_timer(now);
        }
        self.send_window_into(out);
    }

    fn on_dup_ack(&mut self, now: SimTime, out: &mut Vec<Tx>) {
        self.dup_acks += 1;
        if self.in_recovery {
            // Window inflation: each dup ACK signals a departed segment.
            self.cwnd += 1.0;
            self.send_window_into(out);
        } else if self.dup_acks == 3 && self.snd_una < self.snd_nxt && self.snd_una >= self.recover
        {
            // Fast retransmit / fast recovery. The `recover` guard is the
            // RFC 6582 "bugfix": duplicate ACKs caused by go-back-N resends
            // of already-received segments (after a timeout) must not
            // trigger a spurious fast retransmit.
            let flight = (self.snd_nxt - self.snd_una) as f64;
            self.ssthresh = (flight / 2.0).max(2.0);
            self.cwnd = self.ssthresh + 3.0;
            self.in_recovery = true;
            self.partial_acks = 0;
            self.recover = self.snd_nxt;
            self.stats.fast_retransmits += 1;
            out.push(Tx { seq: self.snd_una, retransmit: true });
            self.arm_timer(now);
        }
    }

    /// Retransmission timer fired. `gen` must match the arming generation;
    /// stale timers are ignored.
    pub fn on_rto(&mut self, gen: u64, now: SimTime) -> Vec<Tx> {
        let mut out = Vec::new();
        self.on_rto_into(gen, now, &mut out);
        out
    }

    /// [`Sender::on_rto`] writing into a caller-owned buffer (cleared
    /// first), so timer pops allocate nothing.
    pub fn on_rto_into(&mut self, gen: u64, now: SimTime, out: &mut Vec<Tx>) {
        out.clear();
        if gen != self.timer_gen || self.timer_deadline.is_none() || self.is_complete() {
            return;
        }
        self.stats.timeouts += 1;
        let flight = (self.snd_nxt - self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.partial_acks = 0;
        // Record the recovery point: dupacks below it are echoes of the
        // go-back-N resend and must not re-trigger fast retransmit.
        self.recover = self.snd_nxt;
        // Go-back-N: resume from the first unacknowledged segment; the
        // receiver discards anything it already holds.
        self.snd_nxt = self.snd_una;
        self.rtt.backoff();
        self.arm_timer(now);
        self.send_window_into(out);
        for tx in out.iter() {
            self.note_sent(*tx);
        }
    }

    /// Append the new segments permitted by the current window to `out`.
    /// Emission per event is capped at `MAX_BURST` (ack clocking, as in
    /// ns-2's `maxburst_`): a window that opens by hundreds of segments at
    /// once must not dump a queue-overflowing burst onto the wire in zero
    /// simulated time.
    fn send_window_into(&mut self, out: &mut Vec<Tx>) {
        const MAX_BURST: usize = 6;
        let wnd = (self.cwnd.floor() as u64).min(self.cfg.rwnd_segments).max(1);
        let limit = self.cfg.total_segments.unwrap_or(u64::MAX);
        let mut emitted = 0;
        while self.snd_nxt < limit && self.snd_nxt - self.snd_una < wnd && emitted < MAX_BURST {
            out.push(Tx { seq: self.snd_nxt, retransmit: self.snd_nxt < self.highest_sent });
            self.snd_nxt += 1;
            emitted += 1;
        }
    }

    fn note_sent(&mut self, tx: Tx) {
        self.stats.segments_sent += 1;
        if tx.retransmit {
            self.stats.segments_retransmitted += 1;
        }
        self.highest_sent = self.highest_sent.max(tx.seq + 1);
    }

    fn arm_timer(&mut self, now: SimTime) {
        self.timer_gen += 1;
        self.timer_deadline = Some(now + self.rtt.rto());
    }

    fn cancel_timer(&mut self) {
        self.timer_gen += 1;
        self.timer_deadline = None;
    }

    /// The timer the owner must have scheduled: `(deadline, generation)`.
    pub fn timer(&self) -> Option<(SimTime, u64)> {
        self.timer_deadline.map(|d| (d, self.timer_gen))
    }

    /// Effective send window in segments: `min(⌊cwnd⌋, rwnd)`, at least 1.
    pub fn window_segments(&self) -> u64 {
        (self.cwnd.floor() as u64).min(self.cfg.rwnd_segments).max(1)
    }

    /// Segments in flight (sent but not yet acknowledged).
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Receive-window limit, segments.
    pub fn rwnd_segments(&self) -> u64 {
        self.cfg.rwnd_segments
    }

    /// Segments still to be acknowledged; `None` for background flows.
    pub fn remaining_segments(&self) -> Option<u64> {
        self.cfg.total_segments.map(|t| t - self.snd_una)
    }

    /// Whether the flow sits in a predictable lossless steady state: no
    /// recovery episode or duplicate ACKs outstanding, nothing being
    /// retransmitted, the window is full, and cwnd is either pinned at the
    /// receive window or climbing linearly in congestion avoidance. In this
    /// state (and absent future losses) the flow's evolution is exactly the
    /// closed-form window model, so it is safe to fast-forward.
    pub fn is_quiescent(&self) -> bool {
        let pin = self.cfg.rwnd_segments.max(2) as f64;
        self.started_at.is_some()
            && !self.is_complete()
            && !self.in_recovery
            && self.dup_acks == 0
            && self.snd_nxt == self.highest_sent
            && (self.cwnd >= pin || self.cwnd >= self.ssthresh)
            && self.flight() == self.window_segments()
    }

    /// Apply the outcome of an analytically fast-forwarded epoch: `acked`
    /// further segments were sent and acknowledged, and the congestion
    /// window grew to `cwnd` (never shrinks — epochs are lossless by
    /// construction). Re-fills the window to the post-epoch in-flight state
    /// and re-arms the timer; returns how many new segments this opened
    /// (for link byte accounting).
    pub fn fast_forward(&mut self, acked: u64, cwnd: f64, now: SimTime) -> u64 {
        debug_assert!(self.is_quiescent(), "fast-forward from a non-quiescent sender");
        self.snd_una += acked;
        if let Some(total) = self.cfg.total_segments {
            debug_assert!(self.snd_una <= total, "fast-forward overshot the transfer");
        }
        self.cwnd = cwnd.max(self.cwnd).min(self.cfg.rwnd_segments.max(2) as f64);
        self.dup_acks = 0;
        let old_nxt = self.snd_nxt;
        if self.is_complete() {
            self.snd_nxt = self.snd_una;
            self.finished_at = Some(now);
            self.cancel_timer();
        } else {
            let limit = self.cfg.total_segments.unwrap_or(u64::MAX);
            self.snd_nxt = (self.snd_una + self.window_segments()).min(limit).max(old_nxt);
            self.arm_timer(now);
        }
        self.highest_sent = self.highest_sent.max(self.snd_nxt);
        let sent = self.snd_nxt - old_nxt;
        self.stats.segments_sent += sent;
        sent
    }

    pub fn is_complete(&self) -> bool {
        match self.cfg.total_segments {
            Some(total) => self.snd_una >= total,
            None => false,
        }
    }

    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    pub fn segments_acked(&self) -> u64 {
        self.snd_una
    }

    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(total: u64, rwnd: u64) -> SenderConfig {
        SenderConfig {
            total_segments: Some(total),
            rwnd_segments: rwnd,
            initial_cwnd: 2.0,
            initial_ssthresh: f64::INFINITY,
            min_rto: SimDuration::from_millis(200),
        }
    }

    fn ack(n: u64, at: SimTime) -> Ack {
        Ack { ackno: n, ts_echo: Some(at) }
    }

    #[test]
    fn initial_window_is_two() {
        let mut s = Sender::new(cfg(100, 64));
        let txs = s.on_start(SimTime::ZERO);
        assert_eq!(txs, vec![Tx { seq: 0, retransmit: false }, Tx { seq: 1, retransmit: false }]);
        assert!(s.timer().is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = Sender::new(cfg(1000, 1000));
        s.on_start(SimTime::ZERO);
        // ACK both initial segments: window grows 2 → 4, two new per ACK.
        let t = SimTime(1);
        let out1 = s.on_ack(ack(1, SimTime::ZERO), t);
        let out2 = s.on_ack(ack(2, SimTime::ZERO), t);
        assert_eq!(out1.len() + out2.len(), 4);
        assert_eq!(s.cwnd(), 4.0);
    }

    #[test]
    fn congestion_avoidance_after_ssthresh() {
        let mut s = Sender::new(cfg(10_000, 10_000));
        s.on_start(SimTime::ZERO);
        s.ssthresh = 4.0;
        s.cwnd = 4.0;
        let before = s.cwnd();
        s.on_ack(ack(1, SimTime::ZERO), SimTime(1));
        assert!((s.cwnd() - (before + 1.0 / before)).abs() < 1e-9);
    }

    #[test]
    fn fast_retransmit_on_third_dup() {
        let mut s = Sender::new(cfg(1000, 1000));
        s.on_start(SimTime::ZERO);
        // Grow the window a bit, then lose segment 2.
        s.on_ack(ack(1, SimTime::ZERO), SimTime(1));
        s.on_ack(ack(2, SimTime::ZERO), SimTime(2));
        let flight = s.snd_nxt - s.snd_una;
        assert!(flight >= 4);
        let dup = Ack { ackno: 2, ts_echo: None };
        assert!(s.on_ack(dup, SimTime(3)).is_empty());
        assert!(s.on_ack(dup, SimTime(4)).is_empty());
        let out = s.on_ack(dup, SimTime(5));
        assert_eq!(out[0], Tx { seq: 2, retransmit: true });
        assert!(s.in_recovery);
        assert_eq!(s.stats.fast_retransmits, 1);
        assert_eq!(s.ssthresh, (flight as f64 / 2.0).max(2.0));
    }

    #[test]
    fn full_ack_exits_recovery_and_deflates() {
        let mut s = Sender::new(cfg(1000, 1000));
        s.on_start(SimTime::ZERO);
        s.on_ack(ack(2, SimTime::ZERO), SimTime(1));
        let dup = Ack { ackno: 2, ts_echo: None };
        for t in 2..5 {
            s.on_ack(dup, SimTime(t));
        }
        assert!(s.in_recovery);
        let recover = s.recover;
        s.on_ack(ack(recover, SimTime::ZERO), SimTime(10));
        assert!(!s.in_recovery);
        assert_eq!(s.cwnd(), s.ssthresh.max(2.0));
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = Sender::new(cfg(1000, 1000));
        s.on_start(SimTime::ZERO);
        for a in 1..=6 {
            s.on_ack(ack(a, SimTime::ZERO), SimTime(a));
        }
        let dup = Ack { ackno: 6, ts_echo: None };
        for t in 10..13 {
            s.on_ack(dup, SimTime(t));
        }
        assert!(s.in_recovery);
        // Partial ACK to 8 (< recover): must retransmit segment 8.
        let out = s.on_ack(ack(8, SimTime::ZERO), SimTime(20));
        assert!(out.contains(&Tx { seq: 8, retransmit: true }));
        assert!(s.in_recovery, "stays in recovery until full ACK");
    }

    #[test]
    fn rto_collapses_window_and_goes_back_n() {
        let mut s = Sender::new(cfg(1000, 1000));
        s.on_start(SimTime::ZERO);
        for a in 1..=4 {
            s.on_ack(ack(a, SimTime::ZERO), SimTime(a));
        }
        let una = s.snd_una;
        let (deadline, gen) = s.timer().unwrap();
        let out = s.on_rto(gen, deadline);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(out, vec![Tx { seq: una, retransmit: true }]);
        assert_eq!(s.stats.timeouts, 1);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut s = Sender::new(cfg(1000, 1000));
        s.on_start(SimTime::ZERO);
        let (deadline, gen) = s.timer().unwrap();
        s.on_ack(ack(1, SimTime::ZERO), SimTime(1)); // re-arms, bumping gen
        assert!(s.on_rto(gen, deadline).is_empty());
        assert_eq!(s.stats.timeouts, 0);
    }

    #[test]
    fn completion_cancels_timer() {
        let mut s = Sender::new(cfg(2, 64));
        s.on_start(SimTime::ZERO);
        s.on_ack(ack(2, SimTime::ZERO), SimTime(9));
        assert!(s.is_complete());
        assert_eq!(s.finished_at(), Some(SimTime(9)));
        assert!(s.timer().is_none());
    }

    #[test]
    fn empty_transfer_completes_immediately() {
        let mut s = Sender::new(cfg(0, 64));
        assert!(s.on_start(SimTime(3)).is_empty());
        assert!(s.is_complete());
        assert_eq!(s.finished_at(), Some(SimTime(3)));
    }

    #[test]
    fn rwnd_caps_window() {
        let mut s = Sender::new(cfg(10_000, 4));
        s.on_start(SimTime::ZERO);
        // Grow cwnd well past rwnd.
        for a in 1..=50u64 {
            s.on_ack(ack(a, SimTime::ZERO), SimTime(a));
            assert!(s.snd_nxt - s.snd_una <= 4, "flight exceeded rwnd");
        }
        assert!(s.cwnd() <= 4.0);
    }

    #[test]
    fn background_flow_never_completes() {
        let mut s = Sender::new(SenderConfig {
            total_segments: None,
            rwnd_segments: 64,
            initial_cwnd: 2.0,
            initial_ssthresh: f64::INFINITY,
            min_rto: SimDuration::from_millis(200),
        });
        s.on_start(SimTime::ZERO);
        for a in 1..=10_000u64 {
            s.on_ack(ack(a, SimTime::ZERO), SimTime(a));
        }
        assert!(!s.is_complete());
    }
}
