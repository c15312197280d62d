//! Network assembly: links + TCP flows + the event loop.
//!
//! A [`Network`] owns one or more bottleneck [`Link`]s and a set of flows.
//! Each flow is a TCP connection (sender at the source site, receiver at the
//! destination) assigned to one link. The forward path crosses the link's
//! queue; the ACK path is pure delay. Running the network to completion
//! yields per-flow and per-link statistics.
//!
//! The simulation state lives in the private `sim` module; the event loop
//! runs inline on the calling thread.

use gdmp_telemetry::Registry;

use crate::analytic::{fluid_epoch, FluidFlow, FluidLink};
use crate::link::{Link, LinkSpec};
use crate::packet::{segments_for, wire, wire_bytes_for, FlowId, LinkId, Path};
use crate::sim::{Event, FlowState, Sim};
use crate::tcp::{Ack, Receiver, Sender, SenderConfig};
use crate::time::{SimDuration, SimTime};

/// Minimum retransmission timeout (1 s was typical for the paper era).
const MIN_RTO: SimDuration = SimDuration::from_secs(1);
/// Initial congestion window of a cold flow, segments.
const INITIAL_CWND: f64 = 2.0;

/// Specification of one TCP flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Payload bytes to transfer; `None` = unbounded background flow.
    pub bytes: Option<u64>,
    /// Socket buffer (receive window) in bytes. The paper's untuned default
    /// is 64 KB; its tuned value is 1 MB.
    pub buffer_bytes: u64,
    /// When the connection is opened.
    pub open_at: SimTime,
    /// The links the flow's data path crosses, in order (e.g. an access
    /// link then the WAN bottleneck). ACKs return over pure delay equal to
    /// the path's total propagation.
    pub path: Path,
    /// A warm flow models an already-established connection resuming at
    /// its steady-state congestion window (e.g. a reused GridFTP data
    /// channel): no handshake, cwnd starts at this many segments instead
    /// of the cold flow's two, and ssthresh starts there too (congestion
    /// avoidance, not slow-start).
    pub warm_cwnd: Option<f64>,
}

impl FlowSpec {
    /// A finite transfer with the given socket buffer on link 0.
    pub fn transfer(bytes: u64, buffer_bytes: u64) -> Self {
        FlowSpec {
            bytes: Some(bytes),
            buffer_bytes,
            open_at: SimTime::ZERO,
            path: Path::single(LinkId(0)),
            warm_cwnd: None,
        }
    }

    /// An unbounded cross-traffic flow on link 0.
    pub fn background(buffer_bytes: u64) -> Self {
        FlowSpec {
            bytes: None,
            buffer_bytes,
            open_at: SimTime::ZERO,
            path: Path::single(LinkId(0)),
            warm_cwnd: None,
        }
    }

    pub fn open_at(mut self, at: SimTime) -> Self {
        self.open_at = at;
        self
    }

    /// Mark the flow as warm, resuming at `cwnd_segments` (see
    /// [`FlowSpec::warm_cwnd`]).
    pub fn warm_start(mut self, cwnd_segments: f64) -> Self {
        self.warm_cwnd = Some(cwnd_segments);
        self
    }

    pub fn on_link(mut self, link: LinkId) -> Self {
        self.path = Path::single(link);
        self
    }

    /// Route the flow over a multi-hop path.
    pub fn via(mut self, hops: &[LinkId]) -> Self {
        self.path = Path::of(hops);
        self
    }
}

/// Outcome of one completed (or still-running background) flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    pub spec: FlowSpec,
    /// When data transmission began (after the handshake).
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub bytes_acked: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub segments_sent: u64,
    pub segments_retransmitted: u64,
}

impl FlowResult {
    /// Goodput in bits per second over the flow's own active interval
    /// (including the connection handshake), or `None` if unfinished.
    pub fn throughput_bps(&self) -> Option<f64> {
        let finished = self.finished?;
        let bytes = self.spec.bytes?;
        let span = finished.since(self.spec.open_at).as_secs_f64();
        if span == 0.0 {
            return None;
        }
        Some(bytes as f64 * 8.0 / span)
    }
}

/// Fidelity mode of the event loop.
///
/// `Auto` keeps packet-level fidelity through every transient (slow start,
/// loss recovery, queue growth) and fast-forwards only provably lossless
/// steady-state epochs through the closed-form window model in
/// [`crate::analytic`]; `Off` simulates every segment. Both modes are fully
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FastForward {
    /// Packet-level simulation of every event.
    Off,
    /// Skip quiescent steady-state epochs analytically.
    Auto,
}

/// Global knobs for a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Hard stop: no simulation may run longer than this.
    pub max_sim_time: SimDuration,
    /// Steady-state fast-forwarding (see [`FastForward`]).
    pub fast_forward: FastForward,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            max_sim_time: SimDuration::from_secs(3_600),
            fast_forward: FastForward::Auto,
        }
    }
}

impl NetworkConfig {
    /// Fidelity mode (see [`FastForward`]).
    pub fn with_fast_forward(mut self, mode: FastForward) -> Self {
        self.fast_forward = mode;
        self
    }
}

/// Frames of drop-tail headroom a link must keep below its queue capacity
/// for an epoch to count as provably lossless. Congestion-avoidance ack
/// clocking bursts at most a couple of frames above the standing queue, so
/// a small margin suffices; scenarios nearer the cliff (where slow-start
/// transients really do overflow) stay packet-level.
const FIT_MARGIN_FRAMES: usize = 4;

/// Fast-forward bookkeeping (quiescence and epoch decisions always consider
/// the whole network).
#[derive(Clone)]
struct FfState {
    /// Next time the (throttled) quiescence check may run.
    next_check: SimTime,
    /// Since when the network has continuously looked quiescent.
    quiescent_since: Option<SimTime>,
    /// Min/max zero-load RTT over all flows, for check/settle pacing.
    rtt_min: SimDuration,
    rtt_max: SimDuration,
    /// Number of analytically skipped epochs.
    epochs: u64,
    /// Events the fast-forward path avoided processing (estimated from the
    /// per-segment event cost of each skipped segment).
    skipped: u64,
}

impl FfState {
    fn new() -> FfState {
        FfState {
            next_check: SimTime::ZERO,
            quiescent_since: None,
            rtt_min: SimDuration(u64::MAX),
            rtt_max: SimDuration::ZERO,
            epochs: 0,
            skipped: 0,
        }
    }
}

/// The assembled simulation.
pub struct Network {
    cfg: NetworkConfig,
    sim: Sim,
    ff: FfState,
}

impl Network {
    pub fn new(cfg: NetworkConfig) -> Self {
        Network { cfg, sim: Sim::new(), ff: FfState::new() }
    }

    /// A copy of a paused network (see [`Network::run_until`]) that runs on
    /// independently of the original. The copy carries the whole simulation
    /// state — clock, pending events, congestion windows, link queues and
    /// every counter — so whatever it reports later ([`Network::results`],
    /// [`Network::stats`]) is what the original would have reported.
    pub fn fork(&self) -> Network {
        Network { cfg: self.cfg, sim: self.sim.clone(), ff: self.ff.clone() }
    }

    /// A network with default config and a single link.
    pub fn single_link(spec: LinkSpec) -> Self {
        let mut net = Network::new(NetworkConfig::default());
        net.add_link(spec);
        net
    }

    /// Record cumulative-bytes-acked samples for every flow (one per ACK
    /// arrival, plus one per fast-forwarded epoch boundary).
    pub fn enable_progress_trace(&mut self) {
        self.sim.progress_traces = Some(vec![Vec::new(); self.sim.flows.len()]);
    }

    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        self.sim.links.push(Link::new(spec));
        LinkId(self.sim.links.len() - 1)
    }

    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let sim = &mut self.sim;
        for hop in spec.path.iter() {
            assert!(hop.0 < sim.links.len(), "flow references unknown link {hop:?}");
        }
        let id = FlowId(sim.flows.len());
        let segments = spec.bytes.map(segments_for);
        let rwnd = (spec.buffer_bytes / u64::from(wire::MSS)).max(1);
        let warm = spec.warm_cwnd.map(|c| c.clamp(1.0, rwnd as f64));
        let sender = Sender::new(SenderConfig {
            total_segments: segments,
            rwnd_segments: rwnd,
            initial_cwnd: warm.unwrap_or(INITIAL_CWND),
            initial_ssthresh: warm.unwrap_or(f64::INFINITY),
            min_rto: MIN_RTO,
        });
        let link_spec = |l: LinkId| sim.links[l.0].spec;
        let base_rtt = spec
            .path
            .iter()
            .map(|l| {
                let s = link_spec(l);
                s.propagation * 2
                    + SimDuration::serialization(u64::from(wire::FULL_FRAME), s.rate_bps)
            })
            .fold(SimDuration::ZERO, |a, b| a + b);
        let prop = spec
            .path
            .iter()
            .map(|l| link_spec(l).propagation)
            .fold(SimDuration::ZERO, |a, b| a + b);
        // Handshake: SYN + SYN/ACK cross the propagation path once each
        // before the first data segment (data rides the third segment).
        // Warm flows ride an established connection and skip it.
        let start_at =
            if spec.warm_cwnd.is_some() { spec.open_at } else { spec.open_at + prop * 2 };
        if spec.bytes.is_some() {
            sim.incomplete_finite += 1;
        }
        sim.flows.push(FlowState {
            spec,
            sender,
            total_bytes: spec.bytes,
            start_at,
            base_rtt,
            path_prop: prop,
            pending_rto: None,
            counted_incomplete: spec.bytes.is_some(),
        });
        sim.receivers.push(Receiver::new());
        if let Some(traces) = &mut sim.progress_traces {
            traces.push(Vec::new());
        }
        sim.queue.schedule(start_at, Event::FlowStart(id));
        self.ff.rtt_min = self.ff.rtt_min.min(base_rtt);
        self.ff.rtt_max = self.ff.rtt_max.max(base_rtt);
        id
    }

    /// Change the size of a finite flow that has not started yet. On a
    /// network that has already run (one paused by [`Network::run_until`]
    /// before the flow's start), an empty flow must stay empty and a
    /// non-empty one non-empty: an empty flow counts as complete from the
    /// beginning, so the fast-forward gate has already left it out of the
    /// demand it sums, and the history so far would differ otherwise.
    pub fn set_flow_bytes(&mut self, id: FlowId, bytes: u64) {
        let fresh = self.events_processed() == 0;
        let flow = &mut self.sim.flows[id.0];
        let old = flow.total_bytes.expect("a background flow has no size");
        assert!(
            fresh || (old == 0) == (bytes == 0),
            "resizing flow {id:?} from {old} to {bytes} bytes would rewrite simulated history"
        );
        flow.spec.bytes = Some(bytes);
        flow.total_bytes = Some(bytes);
        flow.sender.set_total_segments(segments_for(bytes));
    }

    /// Change the hard stop (see [`NetworkConfig::max_sim_time`]) of a
    /// network that has not reached it.
    pub fn set_max_sim_time(&mut self, limit: SimDuration) {
        assert!(self.now() <= SimTime::ZERO + limit, "the new limit has already passed");
        self.cfg.max_sim_time = limit;
    }

    /// Drive the simulation until every finite flow completes (or the
    /// configured time limit is hit). Returns per-flow results; the
    /// counters are [`Network::stats`].
    pub fn run(&mut self) -> Vec<FlowResult> {
        self.run_until(SimTime::NEVER);
        self.results()
    }

    /// Drive the simulation like [`Network::run`], but pause before
    /// dispatching the first event at or after `limit`. The pause falls
    /// between two iterations of the event loop, so a later `run` (of this
    /// network or of a [`Network::fork`]) continues exactly as one
    /// uninterrupted `run` would have.
    ///
    /// This is the event loop: pop, dispatch, check completion, maybe
    /// fast-forward. An event at or after `limit`, or past the hard stop,
    /// stays in the queue, uncounted, and the clock stays where it was. A
    /// network that has run and has no unfinished finite flow
    /// is finished: a later call dispatches nothing.
    pub fn run_until(&mut self, limit: SimTime) {
        if self.sim.incomplete_finite == 0 && self.events_processed() > 0 {
            return;
        }
        let deadline = SimTime::ZERO + self.cfg.max_sim_time;
        let stop = limit.min(SimTime(deadline.nanos().saturating_add(1)));
        let auto = self.cfg.fast_forward == FastForward::Auto;
        while let Some((now, event)) = self.sim.queue.pop_before(stop) {
            self.sim.dispatch(now, event);
            if self.sim.incomplete_finite == 0 {
                break;
            }
            if auto && now >= self.ff.next_check {
                maybe_fast_forward(&mut self.ff, &mut self.sim, now, deadline);
            }
        }
    }

    /// The simulation's counters as plain data, the one output a caller
    /// publishes ([`NetStats::publish`]) or keeps to publish later.
    pub fn stats(&self) -> NetStats {
        NetStats {
            now: self.now(),
            links: self
                .sim
                .links
                .iter()
                .map(|l| LinkStats {
                    packets: l.packets_transmitted,
                    bytes: l.bytes_transmitted,
                    drops: l.queue.drops,
                    accepted: l.queue.accepted,
                    max_depth: l.queue.max_depth as u64,
                })
                .collect(),
            flows: self
                .sim
                .flows
                .iter()
                .map(|f| FlowStats {
                    finite: f.total_bytes.is_some(),
                    retransmits: f.sender.stats.segments_retransmitted,
                    timeouts: f.sender.stats.timeouts,
                    fast_retransmits: f.sender.stats.fast_retransmits,
                })
                .collect(),
            events_processed: self.events_processed(),
            events_skipped: self.ff.skipped,
            epochs: self.ff.epochs,
        }
    }

    pub fn results(&self) -> Vec<FlowResult> {
        self.sim
            .flows
            .iter()
            .map(|f| {
                let acked_segments = f.sender.segments_acked();
                let bytes_acked = match f.total_bytes {
                    Some(total) => total.min(acked_segments * u64::from(wire::MSS)),
                    None => acked_segments * u64::from(wire::MSS),
                };
                FlowResult {
                    spec: f.spec,
                    started: f.sender.started_at(),
                    finished: f.sender.finished_at(),
                    bytes_acked,
                    fast_retransmits: f.sender.stats.fast_retransmits,
                    timeouts: f.sender.stats.timeouts,
                    segments_sent: f.sender.stats.segments_sent,
                    segments_retransmitted: f.sender.stats.segments_retransmitted,
                }
            })
            .collect()
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.sim.links[id.0]
    }

    /// The sender of one flow: its whole congestion-control state.
    pub fn sender(&self, id: FlowId) -> &Sender {
        &self.sim.flows[id.0].sender
    }

    pub fn now(&self) -> SimTime {
        self.sim.queue.now()
    }

    pub fn events_processed(&self) -> u64 {
        self.sim.queue.processed()
    }

    /// Progress trace of one flow — `(time, cumulative bytes acked)`
    /// samples — if progress tracing was enabled.
    pub fn progress_trace(&self, fid: FlowId) -> Option<&[(SimTime, u64)]> {
        self.sim.progress_traces.as_ref()?.get(fid.0).map(Vec::as_slice)
    }

    /// Events the fast-forward path avoided simulating.
    pub fn events_skipped(&self) -> u64 {
        self.ff.skipped
    }
}

/// One link's counters in a [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    pub packets: u64,
    pub bytes: u64,
    pub drops: u64,
    pub accepted: u64,
    pub max_depth: u64,
}

/// One flow's counters in a [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// A sized transfer (`kind="transfer"`), not unbounded cross traffic.
    pub finite: bool,
    pub retransmits: u64,
    pub timeouts: u64,
    pub fast_retransmits: u64,
}

/// Everything a [`Network`] counts, detached from the simulation (see
/// [`Network::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// The network's clock when the snapshot was taken.
    pub now: SimTime,
    pub links: Vec<LinkStats>,
    pub flows: Vec<FlowStats>,
    pub events_processed: u64,
    pub events_skipped: u64,
    pub epochs: u64,
}

impl NetStats {
    /// Publish into `reg`. This is the only list of the simulator's
    /// counters: a caller publishes a finished simulation through it, and
    /// one that stands in for a simulation it has already run calls it
    /// again, so both leave the same export behind.
    pub fn publish(&self, reg: &Registry) {
        if !reg.is_enabled() {
            return;
        }
        let mut digits = [0u8; 20];
        for (i, link) in self.links.iter().enumerate() {
            let labels = [("link", decimal(i, &mut digits))];
            reg.counter_add("simnet_packets_transmitted", &labels, link.packets);
            reg.counter_add("simnet_bytes_transmitted", &labels, link.bytes);
            reg.counter_add("simnet_link_drops", &labels, link.drops);
            reg.gauge_set("simnet_queue_max_depth", &labels, link.max_depth as i64);
            if link.drops > 0 {
                reg.record(
                    self.now.nanos(),
                    "link_drops",
                    format!(
                        "link {i}: {} dropped of {} offered, peak queue {}",
                        link.drops,
                        link.accepted + link.drops,
                        link.max_depth
                    ),
                );
            }
        }
        // Flows are summed per kind first: the same series and totals as a
        // call per flow, with at most two calls per counter.
        let mut per_kind = [("transfer", None), ("background", None)];
        for flow in &self.flows {
            let sums = per_kind[usize::from(!flow.finite)].1.get_or_insert([0u64; 3]);
            sums[0] += flow.retransmits;
            sums[1] += flow.timeouts;
            sums[2] += flow.fast_retransmits;
        }
        for (kind, sums) in per_kind {
            let Some([retransmits, timeouts, fast_retransmits]) = sums else { continue };
            let labels = [("kind", kind)];
            reg.counter_add("simnet_segments_retransmitted", &labels, retransmits);
            reg.counter_add("simnet_timeouts", &labels, timeouts);
            reg.counter_add("simnet_fast_retransmits", &labels, fast_retransmits);
        }
        reg.counter_add("simnet_events_processed", &[], self.events_processed);
        reg.counter_add("simnet_events_skipped", &[], self.events_skipped);
        reg.counter_add("simnet_fastforward_epochs", &[], self.epochs);
    }
}

/// `n` in decimal, written at the end of `buf`: a label value without a
/// `String` per call.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Throttled quiescence check: runs at most every half of the smallest
/// zero-load RTT. An epoch is attempted only after the network has looked
/// quiescent continuously for two of the largest RTTs, so every transient
/// (slow start, recovery, queue drain) settles at packet level before the
/// analytic model takes over.
fn maybe_fast_forward(ff: &mut FfState, sim: &mut Sim, now: SimTime, deadline: SimTime) {
    ff.next_check = now + ff.rtt_min / 2;
    if !ff_eligible(sim) {
        ff.quiescent_since = None;
        return;
    }
    let settle = ff.rtt_max * 2;
    match ff.quiescent_since {
        None => ff.quiescent_since = Some(now),
        Some(since) if now.since(since) >= settle => {
            if fast_forward_epoch(ff, sim, now, deadline) {
                ff.quiescent_since = None;
            } else {
                // Too close to a boundary to be worth skipping; back off
                // so the fluid model is not re-run every check.
                ff.next_check = now + settle;
            }
        }
        Some(_) => {}
    }
}

/// Whether the network as a whole is in a provably lossless steady state.
/// Two conditions:
///
/// * **Static fit** — on every link, even if every incomplete flow pinned
///   its window at the receive limit, the standing queue would stay
///   [`FIT_MARGIN_FRAMES`] below the drop-tail capacity. Since
///   `cwnd ≤ rwnd` always, no future drop is possible while demand is
///   unchanged.
/// * **Per-flow quiescence** — every started flow is in the regime the
///   closed-form model describes (see `Sender::is_quiescent`).
fn ff_eligible(sim: &Sim) -> bool {
    let mut any_active = false;
    for f in &sim.flows {
        if f.sender.is_complete() || f.sender.started_at().is_none() {
            continue;
        }
        if f.sender.rwnd_segments() < 2 || !f.sender.is_quiescent() {
            return false;
        }
        any_active = true;
    }
    if !any_active {
        return false;
    }
    let frame = u64::from(wire::FULL_FRAME);
    for (li, link) in sim.links.iter().enumerate() {
        let demand: u64 = sim
            .flows
            .iter()
            .filter_map(|f| {
                let crosses = !f.sender.is_complete() && f.spec.path.iter().any(|h| h.0 == li);
                crosses.then(|| f.sender.rwnd_segments().max(2))
            })
            .sum();
        let headroom = link.spec.queue_capacity.saturating_sub(FIT_MARGIN_FRAMES) as u64;
        if demand * frame > link.spec.bdp_bytes() + headroom * frame {
            return false;
        }
    }
    true
}

/// Skip one steady-state epoch analytically. Returns `false` (leaving the
/// simulation untouched) when the epoch would be too short to pay for
/// itself; otherwise advances the clock to the epoch end, credits flows
/// and links with the traffic the fluid model moved, and re-primes the ack
/// clock so packet-level simulation resumes seamlessly.
fn fast_forward_epoch(ff: &mut FfState, sim: &mut Sim, now: SimTime, deadline: SimTime) -> bool {
    // The epoch may not run past a pending flow admission: new demand is a
    // discontinuity the packet-level loop must see.
    let mut horizon_end = deadline;
    for f in &sim.flows {
        if f.sender.started_at().is_none() {
            horizon_end = horizon_end.min(f.start_at);
        }
    }
    if horizon_end <= now {
        return false;
    }
    let mut idx = Vec::new();
    let mut fluid_flows = Vec::new();
    for (i, f) in sim.flows.iter().enumerate() {
        if f.sender.is_complete() || f.sender.started_at().is_none() {
            continue;
        }
        let pin = f.sender.rwnd_segments().max(2) as f64;
        let cwnd = f.sender.cwnd();
        let pinned = cwnd >= pin;
        fluid_flows.push(FluidFlow {
            // A pinned flow sends exactly its (integer) window per RTT;
            // a climbing one is tracked continuously.
            wnd: if pinned { f.sender.window_segments() as f64 } else { cwnd },
            rwnd: pin,
            growing: !pinned,
            base_rtt: f.base_rtt.as_secs_f64(),
            remaining: f.sender.remaining_segments(),
            path: f.spec.path.iter().map(|l| l.0).collect(),
        });
        idx.push(i);
    }
    let links: Vec<FluidLink> = sim
        .links
        .iter()
        .map(|l| FluidLink {
            rate_bps: l.spec.rate_bps as f64,
            bdp_bytes: l.spec.bdp_bytes() as f64,
        })
        .collect();
    let horizon = horizon_end.since(now).as_secs_f64();
    let plan = fluid_epoch(&fluid_flows, &links, horizon);
    if plan.duration < (ff.rtt_max * 8).as_secs_f64() {
        return false;
    }
    let t_end = (now + SimDuration::from_secs_f64(plan.duration)).min(horizon_end);
    if t_end <= now {
        return false;
    }
    // The credit must cover every in-flight segment, or the post-epoch
    // window refill would rewind the connection.
    for (j, &i) in idx.iter().enumerate() {
        if plan.credits[j] < sim.flows[i].sender.flight() {
            return false;
        }
    }
    // Point of no return: every event inside the epoch — in-flight data and
    // ACKs, timer pops — is subsumed by the analytic credit.
    while let Some((_, ev)) = sim.queue.extract_before(t_end) {
        debug_assert!(!matches!(ev, Event::FlowStart(_)), "fast-forward drained a flow admission");
        ff.skipped += 1;
    }
    sim.queue.advance_to(t_end);
    let frame = u64::from(wire::FULL_FRAME);
    let mut link_extra = vec![(0u64, 0u64); sim.links.len()];
    // Synthetic ack bursts are tiled back-to-back across flows: the
    // aggregate resume traffic then arrives at exactly the bottleneck
    // rate (one frame per serialization slot), so the post-epoch burst
    // can never overflow a queue the steady state fitted into.
    let mut burst_offset = SimDuration::ZERO;
    for (j, &i) in idx.iter().enumerate() {
        let fid = FlowId(i);
        let acked = plan.credits[j];
        let (gap, gap_bytes, path, flight, una, new_nxt) = {
            let flow = &mut sim.flows[i];
            let old_nxt = flow.sender.segments_acked() + flow.sender.flight();
            flow.sender.fast_forward(acked, plan.final_wnd[j], t_end);
            let new_nxt = flow.sender.segments_acked() + flow.sender.flight();
            // Segments in [old_nxt, new_nxt) crossed the path inside the
            // epoch without ever becoming packets; everything below
            // old_nxt was transmitted (and link-accounted) for real.
            let gap = new_nxt - old_nxt;
            let gap_bytes = match flow.total_bytes {
                Some(total) => {
                    let last = segments_for(total).saturating_sub(1);
                    let mut b = gap * frame;
                    if gap > 0 && old_nxt <= last && last < new_nxt {
                        b = b - frame + u64::from(wire_bytes_for(last, total));
                    }
                    b
                }
                None => gap * frame,
            };
            flow.pending_rto = flow.pending_rto.filter(|p| *p >= t_end);
            (
                gap,
                gap_bytes,
                flow.spec.path,
                flow.sender.flight(),
                flow.sender.segments_acked(),
                new_nxt,
            )
        };
        // The refilled window is fictional — those segments never cross the
        // wire (their ACKs are synthesized below) — so the receiver advances
        // past them; the first real post-epoch packet then arrives exactly
        // in order.
        sim.receivers[i].fast_forward_to(new_nxt);
        sim.trace_progress(fid, t_end);
        for hop in path.iter() {
            link_extra[hop.0].0 += gap_bytes;
            link_extra[hop.0].1 += gap;
        }
        // Each skipped segment would have cost one TxDone per hop, one
        // HopArrival per intermediate hop, and one AckArrival.
        ff.skipped += gap * 2 * path.len() as u64;
        if flight > 0 {
            // Re-prime the ack clock: the refilled window is treated as
            // in flight, its ACKs arriving back-to-back at the bottleneck
            // hop's serialization spacing — exactly the real pattern both
            // when the flow is window-limited (the window drains as one
            // burst per RTT) and when the link is saturated (ACKs leave at
            // the link rate). No timestamp echo — a synthetic ACK must not
            // feed the RTT estimator (Karn's rule for analytic segments).
            let spacing = path
                .iter()
                .map(|l| SimDuration::serialization(frame, sim.links[l.0].spec.rate_bps))
                .fold(SimDuration::ZERO, SimDuration::max);
            for k in 1..=flight {
                sim.queue.schedule(
                    t_end + burst_offset + spacing * k,
                    Event::AckArrival { flow: fid, ack: Ack { ackno: una + k, ts_echo: None } },
                );
            }
            burst_offset = burst_offset + spacing * flight;
        }
        sim.sync_timer(fid);
        sim.note_completion(fid);
    }
    for (link, (bytes, pkts)) in sim.links.iter_mut().zip(link_extra) {
        link.fast_forward(bytes, pkts, t_end);
    }
    ff.epochs += 1;
    true
}

/// Aggregate session statistics for a group of flows that together carry one
/// logical transfer (e.g. the parallel streams of a GridFTP session).
#[derive(Debug, Clone, Copy)]
pub struct SessionResult {
    pub total_bytes: u64,
    pub started: SimTime,
    pub finished: SimTime,
    pub retransmitted_segments: u64,
    pub timeouts: u64,
}

impl SessionResult {
    /// Combine the results of the given flows (all must be finished).
    pub fn aggregate(flows: &[FlowResult]) -> Option<SessionResult> {
        let mut total = 0u64;
        let mut start = SimTime::NEVER;
        let mut end = SimTime::ZERO;
        let mut retx = 0;
        let mut timeouts = 0;
        for f in flows {
            total += f.spec.bytes?;
            start = start.min(f.spec.open_at);
            end = end.max(f.finished?);
            retx += f.segments_retransmitted;
            timeouts += f.timeouts;
        }
        Some(SessionResult {
            total_bytes: total,
            started: start,
            finished: end,
            retransmitted_segments: retx,
            timeouts,
        })
    }

    /// End-to-end throughput of the session in bits per second.
    pub fn throughput_bps(&self) -> f64 {
        let span = self.finished.since(self.started).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.total_bytes as f64 * 8.0 / span
        }
    }

    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn lan() -> LinkSpec {
        LinkSpec {
            rate_bps: 100_000_000,
            propagation: SimDuration::from_micros(100),
            queue_capacity: 512,
        }
    }

    #[test]
    fn single_flow_completes_and_conserves_bytes() {
        let mut net = Network::single_link(lan());
        let f = net.add_flow(FlowSpec::transfer(MB, 1024 * 1024));
        let results = net.run();
        let r = &results[f.0];
        assert!(r.finished.is_some());
        assert_eq!(r.bytes_acked, MB);
        assert!(r.throughput_bps().unwrap() > 0.0);
    }

    #[test]
    fn lan_transfer_approaches_link_rate() {
        // Big buffer, short RTT, no competition: should get most of 100 Mb/s.
        let mut net = Network::single_link(lan());
        net.add_flow(FlowSpec::transfer(10 * MB, 4 * MB));
        let results = net.run();
        let tput = results[0].throughput_bps().unwrap();
        assert!(tput > 70e6, "throughput {:.1} Mb/s too low", tput / 1e6);
        assert!(tput <= 100e6, "throughput exceeds link rate");
    }

    #[test]
    fn window_limited_wan_matches_rwnd_over_rtt() {
        // 64 KB buffer over 125 ms RTT: ~4.2 Mb/s ceiling (the paper's
        // untuned single-stream regime).
        let mut net = Network::single_link(LinkSpec::cern_anl());
        net.add_flow(FlowSpec::transfer(25 * MB, 64 * 1024));
        let results = net.run();
        let tput = results[0].throughput_bps().unwrap();
        let ceiling = 64.0 * 1024.0 * 8.0 / 0.125;
        assert!(tput < ceiling * 1.05, "tput {:.2e} above window ceiling {ceiling:.2e}", tput);
        assert!(tput > ceiling * 0.7, "tput {:.2e} far below window ceiling {ceiling:.2e}", tput);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = Network::single_link(LinkSpec {
            rate_bps: 10_000_000,
            propagation: SimDuration::from_millis(20),
            queue_capacity: 64,
        });
        net.add_flow(FlowSpec::transfer(5 * MB, MB));
        net.add_flow(FlowSpec::transfer(5 * MB, MB));
        let results = net.run();
        let t0 = results[0].throughput_bps().unwrap();
        let t1 = results[1].throughput_bps().unwrap();
        let ratio = t0.max(t1) / t0.min(t1);
        assert!(ratio < 1.6, "unfair split: {t0:.2e} vs {t1:.2e}");
    }

    #[test]
    fn tiny_queue_forces_retransmissions_but_completes() {
        let mut net = Network::single_link(LinkSpec {
            rate_bps: 10_000_000,
            propagation: SimDuration::from_millis(30),
            queue_capacity: 8,
        });
        let f = net.add_flow(FlowSpec::transfer(4 * MB, 2 * MB));
        let results = net.run();
        let r = &results[f.0];
        assert!(r.finished.is_some(), "flow did not complete");
        assert!(r.segments_retransmitted > 0, "expected losses with an 8-packet queue");
        assert_eq!(r.bytes_acked, 4 * MB);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = || {
            let mut net = Network::single_link(LinkSpec::cern_anl());
            net.add_flow(FlowSpec::transfer(MB, 64 * 1024));
            net.add_flow(FlowSpec::background(MB).open_at(SimTime(1000)));
            let r = net.run();
            (r[0].finished, r[0].segments_sent, net.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_finished_network_runs_no_further() {
        let mut net = Network::single_link(LinkSpec::cern_anl());
        net.add_flow(FlowSpec::transfer(MB, 64 * 1024));
        net.add_flow(FlowSpec::background(MB).open_at(SimTime(1000)));
        let first = net.run();
        let stats = net.stats();
        assert_eq!(net.run(), first);
        assert_eq!(net.stats(), stats);
    }

    #[test]
    fn a_network_at_its_hard_stop_runs_no_further() {
        let mut net = Network::single_link(LinkSpec::cern_anl());
        net.add_flow(FlowSpec::transfer(25 * MB, 64 * 1024));
        net.set_max_sim_time(SimDuration::from_secs(1));
        let stop = SimTime::ZERO + SimDuration::from_secs(1);
        let first = net.run();
        assert!(first[0].finished.is_none(), "the transfer must hit the hard stop");
        let stats = net.stats();
        assert!(stats.now <= stop, "clock {} past the hard stop", stats.now);
        for _ in 0..2 {
            assert_eq!(net.run(), first);
            assert_eq!(net.stats(), stats);
        }
    }

    #[test]
    fn background_flow_steals_bandwidth() {
        // Low-BDP link: sharing effects dominate loss-episode noise.
        let link = LinkSpec {
            rate_bps: 10_000_000,
            propagation: SimDuration::from_millis(10),
            queue_capacity: 64,
        };
        let solo = {
            let mut net = Network::single_link(link);
            net.add_flow(FlowSpec::transfer(5 * MB, MB));
            net.run()[0].throughput_bps().unwrap()
        };
        let contended = {
            let mut net = Network::single_link(link);
            net.add_flow(FlowSpec::transfer(5 * MB, MB));
            for _ in 0..4 {
                net.add_flow(FlowSpec::background(MB));
            }
            net.run()[0].throughput_bps().unwrap()
        };
        assert!(
            contended < solo * 0.75,
            "cross traffic should reduce throughput: solo={:.1} contended={:.1} Mb/s",
            solo / 1e6,
            contended / 1e6
        );
    }

    #[test]
    fn session_aggregate_spans_all_streams() {
        let mut net = Network::single_link(LinkSpec::cern_anl());
        let specs: Vec<_> = (0..4).map(|_| FlowSpec::transfer(MB, 256 * 1024)).collect();
        for s in &specs {
            net.add_flow(*s);
        }
        let results = net.run();
        let sess = SessionResult::aggregate(&results).unwrap();
        assert_eq!(sess.total_bytes, 4 * MB);
        assert!(sess.throughput_mbps() > 0.0);
    }

    #[test]
    fn parallel_streams_beat_single_with_small_buffers() {
        // The central mechanism behind Figure 5.
        let single = {
            let mut net = Network::single_link(LinkSpec::cern_anl());
            net.add_flow(FlowSpec::transfer(25 * MB, 64 * 1024));
            SessionResult::aggregate(&net.run()).unwrap().throughput_bps()
        };
        let four = {
            let mut net = Network::single_link(LinkSpec::cern_anl());
            for _ in 0..4 {
                net.add_flow(FlowSpec::transfer(25 * MB / 4, 64 * 1024));
            }
            SessionResult::aggregate(&net.run()).unwrap().throughput_bps()
        };
        assert!(
            four > single * 2.5,
            "4 streams {:.1} Mb/s should far exceed 1 stream {:.1} Mb/s",
            four / 1e6,
            single / 1e6
        );
    }

    #[test]
    fn multihop_path_limited_by_slowest_link() {
        // 10 Mb/s access link feeding a 100 Mb/s backbone: throughput is
        // capped by the access link.
        let mut net = Network::new(NetworkConfig::default());
        let access = net.add_link(LinkSpec {
            rate_bps: 10_000_000,
            propagation: SimDuration::from_millis(1),
            queue_capacity: 64,
        });
        let backbone = net.add_link(LinkSpec {
            rate_bps: 100_000_000,
            propagation: SimDuration::from_millis(20),
            queue_capacity: 512,
        });
        let f = net.add_flow(FlowSpec::transfer(5 * MB, 2 * MB).via(&[access, backbone]));
        let results = net.run();
        let tput = results[f.0].throughput_bps().unwrap();
        assert!(tput <= 10e6 * 1.001, "exceeded access rate: {tput:.2e}");
        assert!(tput > 5e6, "far below access rate: {tput:.2e}");
        assert_eq!(results[f.0].bytes_acked, 5 * MB);
    }

    #[test]
    fn multihop_rtt_sums_propagation() {
        // Handshake + window-limited rate reflect the summed path delay.
        let mut net = Network::new(NetworkConfig::default());
        let a = net.add_link(LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: SimDuration::from_millis(30),
            queue_capacity: 512,
        });
        let b = net.add_link(LinkSpec {
            rate_bps: 1_000_000_000,
            propagation: SimDuration::from_millis(32),
            queue_capacity: 512,
        });
        // Window-limited: 64 KB buffer over 124 ms RTT ≈ 4.2 Mb/s.
        let f = net.add_flow(FlowSpec::transfer(4 * MB, 64 * 1024).via(&[a, b]));
        let results = net.run();
        let tput = results[f.0].throughput_bps().unwrap();
        let ceiling = 64.0 * 1024.0 * 8.0 / 0.124;
        assert!(
            (ceiling * 0.6..ceiling * 1.05).contains(&tput),
            "tput {tput:.2e} vs window ceiling {ceiling:.2e}"
        );
    }

    #[test]
    fn two_access_links_share_one_backbone() {
        // Two hosts with 20 Mb/s NICs feed a 30 Mb/s backbone: aggregate
        // is backbone-limited; each flow gets a share.
        let mut net = Network::new(NetworkConfig::default());
        let n1 = net.add_link(LinkSpec {
            rate_bps: 20_000_000,
            propagation: SimDuration::from_millis(1),
            queue_capacity: 128,
        });
        let n2 = net.add_link(LinkSpec {
            rate_bps: 20_000_000,
            propagation: SimDuration::from_millis(1),
            queue_capacity: 128,
        });
        let wan = net.add_link(LinkSpec {
            rate_bps: 30_000_000,
            propagation: SimDuration::from_millis(25),
            queue_capacity: 256,
        });
        let f1 = net.add_flow(FlowSpec::transfer(8 * MB, 2 * MB).via(&[n1, wan]));
        let f2 = net.add_flow(
            FlowSpec::transfer(8 * MB, 2 * MB).via(&[n2, wan]).open_at(SimTime(50_000_000)),
        );
        let results = net.run();
        let t1 = results[f1.0].throughput_bps().unwrap();
        let t2 = results[f2.0].throughput_bps().unwrap();
        assert!(t1 + t2 < 30e6 * 1.05, "aggregate {:.1e} exceeds backbone", t1 + t2);
        assert!(t1 > 3e6 && t2 > 3e6, "starvation: {t1:.2e} / {t2:.2e}");
    }

    #[test]
    fn publish_sums_flows_per_kind_and_names_links_in_decimal() {
        let flow = |finite, n| FlowStats {
            finite,
            retransmits: n,
            timeouts: n / 2,
            fast_retransmits: n % 3,
        };
        let link = |packets| LinkStats { packets, bytes: 0, drops: 0, accepted: 0, max_depth: 1 };
        let stats = NetStats {
            now: SimTime(5),
            links: (0..12).map(link).collect(),
            flows: vec![flow(true, 4), flow(false, 0), flow(true, 7), flow(false, 0)],
            events_processed: 3,
            events_skipped: 1,
            epochs: 0,
        };
        let reg = gdmp_telemetry::Registry::new();
        stats.publish(&reg);
        let kind = |k| [("kind", k)];
        assert_eq!(reg.counter_value("simnet_segments_retransmitted", &kind("transfer")), 11);
        assert_eq!(reg.counter_value("simnet_timeouts", &kind("transfer")), 5);
        assert_eq!(reg.counter_value("simnet_fast_retransmits", &kind("transfer")), 2);
        // A kind whose flows all counted zero still has its series.
        assert_eq!(
            reg.metric("simnet_timeouts", &kind("background")),
            Some(gdmp_telemetry::MetricValue::Counter(0))
        );
        assert_eq!(reg.counter_value("simnet_packets_transmitted", &[("link", "11")]), 11);
        assert_eq!(reg.counter_value("simnet_packets_transmitted", &[("link", "0")]), 0);
        assert_eq!(reg.metrics_snapshot().len(), 12 * 4 + 2 * 3 + 3);

        let only_transfers = NetStats { flows: vec![flow(true, 1)], ..stats };
        let reg = gdmp_telemetry::Registry::new();
        only_transfers.publish(&reg);
        assert_eq!(reg.metric("simnet_timeouts", &kind("background")), None);
    }

    #[test]
    fn decimal_renders_like_to_string() {
        let mut buf = [0u8; 20];
        for n in [0, 7, 10, 99, 12_345, usize::MAX] {
            assert_eq!(decimal(n, &mut buf), n.to_string());
        }
    }

    #[test]
    fn telemetry_captures_drops_and_retransmits() {
        let mut net = Network::single_link(LinkSpec {
            rate_bps: 10_000_000,
            propagation: SimDuration::from_millis(30),
            queue_capacity: 8,
        });
        net.add_flow(FlowSpec::transfer(4 * MB, 2 * MB));
        let results = net.run();
        assert!(results[0].segments_retransmitted > 0);
        let reg = gdmp_telemetry::Registry::new();
        net.stats().publish(&reg);
        assert_eq!(
            reg.counter_value("simnet_segments_retransmitted", &[("kind", "transfer")]),
            results[0].segments_retransmitted
        );
        assert!(reg.counter_value("simnet_link_drops", &[("link", "0")]) > 0);
        assert_eq!(reg.counter_value("simnet_events_processed", &[]), net.events_processed());
    }

    #[test]
    fn empty_flow_finishes_without_traffic() {
        let mut net = Network::single_link(lan());
        let f = net.add_flow(FlowSpec::transfer(0, MB));
        let results = net.run();
        assert!(results[f.0].finished.is_some());
        assert_eq!(net.link(LinkId(0)).packets_transmitted, 0);
    }

    #[test]
    fn resized_flow_runs_like_one_built_at_that_size() {
        // A late transfer resized while the cross traffic is paused
        // mid-run behaves as if it had been added with the new size.
        let run = |resize: Option<u64>| {
            let mut net = Network::single_link(LinkSpec::cern_anl());
            net.add_flow(FlowSpec::background(64 * 1024));
            let late = SimTime::ZERO + SimDuration::from_secs(2);
            let f = net.add_flow(FlowSpec::transfer(resize.map_or(MB, |_| 1), MB).open_at(late));
            if let Some(bytes) = resize {
                net.run_until(late);
                net.set_flow_bytes(f, bytes);
            }
            (net.run(), net.events_processed(), net.events_skipped())
        };
        assert_eq!(run(Some(MB)), run(None));
    }

    #[test]
    #[should_panic(expected = "would rewrite simulated history")]
    fn emptying_a_flow_of_a_paused_network_is_refused() {
        let mut net = Network::single_link(LinkSpec::cern_anl());
        net.add_flow(FlowSpec::background(64 * 1024));
        let late = SimTime::ZERO + SimDuration::from_secs(2);
        let f = net.add_flow(FlowSpec::transfer(1, MB).open_at(late));
        net.run_until(late);
        net.set_flow_bytes(f, 0);
    }
}
