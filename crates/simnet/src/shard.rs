//! Sharded simulation state and the conservative-lookahead parallel runtime.
//!
//! A [`crate::network::Network`] is a facade over one or more [`ShardSim`]s.
//! Each shard owns a disjoint subset of the links (and the flows/receivers
//! anchored to them) plus its own event queue; with one shard the event loop
//! runs inline exactly as a sequential simulator would. With several, each
//! shard's loop runs on its own worker thread and the shards synchronise
//! with the classic null-message PDES bound: every cross-shard interaction
//! rides a link with non-zero delay, so a shard may safely dispatch up to
//! `min over inbound edges (source horizon + lookahead)` — the **lookahead**
//! of an edge being the minimum latency any event can cross it with.
//!
//! Determinism does not depend on thread scheduling because event order
//! never depends on *when* a cross-shard event is merged: every event
//! carries a globally comparable key `(time, created, source shard, source
//! sequence)` (see [`crate::engine`]), so a merged event sorts into exactly
//! the slot a sequential run would have given it. The per-edge queues only
//! move events between threads; the keyed heap arbitrates.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, RwLock};

use crate::engine::{EventQueue, Key};
use crate::link::{Link, LinkAction};
use crate::network::{FfState, FlowSpec, NetworkConfig};
use crate::packet::{wire, wire_bytes_for, FlowId, LinkId, Packet, Path};
use crate::tcp::{Ack, Receiver, Sender, Tx};
use crate::time::{SimDuration, SimTime};

/// Simulation event. Flow and link ids are global; each event is dispatched
/// on the shard owning the link (or sender) it touches.
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

/// Immutable routing/partition map shared by every shard of one network.
/// (`Clone` so the seed network can grow it via [`Arc::make_mut`].)
#[derive(Debug, Clone)]
pub(crate) struct Topo {
    pub n_shards: u32,
    /// Owning shard per link.
    pub link_shard: Vec<u32>,
    /// Owning shard per flow's sender (= shard of the path's first hop).
    pub flow_shard: Vec<u32>,
    /// Owning shard per flow's receiver (= shard of the path's last hop).
    pub recv_shard: Vec<u32>,
    /// Per-flow static routing data, needed by every shard the path crosses.
    pub path: Vec<Path>,
    /// Total one-way propagation of each flow's path.
    pub path_prop: Vec<SimDuration>,
    /// `lookahead[src * n_shards + dst]`: minimum delay of any event
    /// crossing the `src → dst` edge, in ns; `u64::MAX` = no edge.
    pub lookahead: Vec<u64>,
}

impl Topo {
    pub fn single() -> Topo {
        Topo {
            n_shards: 1,
            link_shard: Vec::new(),
            flow_shard: Vec::new(),
            recv_shard: Vec::new(),
            path: Vec::new(),
            path_prop: Vec::new(),
            lookahead: vec![u64::MAX],
        }
    }

    #[inline]
    pub fn lookahead(&self, src: u32, dst: u32) -> u64 {
        self.lookahead[src as usize * self.n_shards as usize + dst as usize]
    }
}

/// Mutable per-flow sender-side state, owned by the flow's shard.
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
    /// Earliest `Rto` event currently sitting in the event queue, if any.
    /// The timer deadline moves on every ACK; instead of scheduling a heap
    /// event per re-arm, the pending event is left in place and re-synced
    /// (against the sender's real deadline and generation) when it pops.
    pub pending_rto: Option<SimTime>,
    /// Still counted in [`ShardSim::incomplete_finite`].
    pub counted_incomplete: bool,
}

/// An event in transit between shards, tagged with everything its ordering
/// key needs so the destination can merge it deterministically.
pub(crate) struct CrossEvent {
    pub at: SimTime,
    pub created: SimTime,
    pub seq: u64,
    pub ev: Event,
}

/// Per-ordered-pair cross-shard event queues (single producer, single
/// consumer by construction; a mutex keeps it simple and uncontended).
pub(crate) struct EdgeSet {
    n: usize,
    queues: Vec<Option<Mutex<VecDeque<CrossEvent>>>>,
}

impl EdgeSet {
    fn new(topo: &Topo) -> EdgeSet {
        let n = topo.n_shards as usize;
        let queues = (0..n * n)
            .map(|i| (topo.lookahead[i] != u64::MAX).then(|| Mutex::new(VecDeque::new())))
            .collect();
        EdgeSet { n, queues }
    }

    fn push(&self, src: u32, dst: u32, ev: CrossEvent) {
        self.queues[src as usize * self.n + dst as usize]
            .as_ref()
            .expect("cross-shard event on an edge the partitioner found no lookahead for")
            .lock()
            .expect("edge queue poisoned")
            .push_back(ev);
    }
}

/// One shard: a subset of links/flows/receivers plus its own event queue.
/// Vectors are full-length and indexed by *global* id; entries are `Some`
/// only where this shard owns the object, so dispatch code reads exactly
/// like the sequential simulator's.
#[derive(Clone)]
pub(crate) struct ShardSim {
    pub id: u32,
    pub topo: Arc<Topo>,
    pub links: Vec<Option<Link>>,
    pub flows: Vec<Option<FlowState>>,
    pub receivers: Vec<Option<Receiver>>,
    pub queue: EventQueue<Event>,
    /// Finite flows owned by this shard that have not finished yet.
    pub incomplete_finite: usize,
    /// Key of the dispatch during which `incomplete_finite` last hit zero.
    pub completion_key: Option<Key>,
    pub cwnd_traces: Option<Vec<Vec<(SimTime, f64)>>>,
    pub progress_traces: Option<Vec<Vec<(SimTime, u64)>>>,
    /// Reusable transmit-instruction buffer for the per-event hot path.
    pub tx_scratch: Vec<Tx>,
    /// Next cross-event sequence number per destination shard.
    cross_seq: Vec<u64>,
}

impl ShardSim {
    pub fn seed() -> ShardSim {
        ShardSim {
            id: 0,
            topo: Arc::new(Topo::single()),
            links: Vec::new(),
            flows: Vec::new(),
            receivers: Vec::new(),
            queue: EventQueue::with_shard(0),
            incomplete_finite: 0,
            completion_key: None,
            cwnd_traces: None,
            progress_traces: None,
            tx_scratch: Vec::new(),
            cross_seq: vec![0],
        }
    }

    #[inline]
    pub fn flow(&self, fid: FlowId) -> &FlowState {
        self.flows[fid.0].as_ref().expect("flow dispatched on non-owning shard")
    }

    #[inline]
    pub fn flow_mut(&mut self, fid: FlowId) -> &mut FlowState {
        self.flows[fid.0].as_mut().expect("flow dispatched on non-owning shard")
    }

    #[inline]
    fn link_ref(&self, lid: LinkId) -> &Link {
        self.links[lid.0].as_ref().expect("link event on non-owning shard")
    }

    #[inline]
    fn link_mut(&mut self, lid: LinkId) -> &mut Link {
        self.links[lid.0].as_mut().expect("link event on non-owning shard")
    }

    /// Schedule an event for `dst` shard: locally when `dst` is this shard,
    /// otherwise onto the cross edge with this shard's ordering tag.
    #[inline]
    fn sched(&mut self, dst: u32, at: SimTime, ev: Event, edges: Option<&EdgeSet>) {
        if dst == self.id {
            self.queue.schedule(at, ev);
        } else {
            let seq = self.cross_seq[dst as usize];
            self.cross_seq[dst as usize] += 1;
            let edges = edges.expect("cross-shard event without an edge set");
            edges.push(self.id, dst, CrossEvent { at, created: self.queue.now(), seq, ev });
        }
    }

    /// Merge every queued inbound cross event. Anything sitting in an edge
    /// queue was created below its source's published horizon, so merging
    /// it all is always safe; the keyed queue puts each event in its
    /// deterministic slot regardless of merge timing.
    pub fn drain_inbound(&mut self, edges: &EdgeSet) {
        for src in 0..edges.n {
            if src == self.id as usize {
                continue;
            }
            let Some(q) = &edges.queues[src * edges.n + self.id as usize] else { continue };
            let mut q = q.lock().expect("edge queue poisoned");
            while let Some(ce) = q.pop_front() {
                self.queue.schedule_keyed(ce.at, ce.created, src as u32, ce.seq, ce.ev);
            }
        }
    }

    /// Keep [`ShardSim::incomplete_finite`] in step with the sender's state;
    /// call after any operation that can complete a flow.
    pub fn note_completion(&mut self, fid: FlowId) {
        let flow = self.flow_mut(fid);
        if flow.counted_incomplete
            && flow.sender.is_complete()
            && flow.sender.finished_at().is_some()
        {
            flow.counted_incomplete = false;
            self.incomplete_finite -= 1;
            if self.incomplete_finite == 0 {
                self.completion_key = Some(self.queue.last_key());
            }
        }
    }

    pub fn dispatch(&mut self, now: SimTime, event: Event, edges: Option<&EdgeSet>) {
        match event {
            Event::FlowStart(fid) => {
                let mut txs = std::mem::take(&mut self.tx_scratch);
                self.flow_mut(fid).sender.on_start_into(now, &mut txs);
                self.transmit(fid, &txs, now);
                self.tx_scratch = txs;
                self.sync_timer(fid);
                self.note_completion(fid);
            }
            Event::TxDone { link, packet } => {
                let prop = self.link_ref(link).spec.propagation;
                let path = self.topo.path[packet.flow.0];
                if usize::from(packet.hop) + 1 < path.len() {
                    // More hops: propagate to the next router's queue.
                    let mut next = packet;
                    next.hop += 1;
                    let next_link = path.hop(usize::from(next.hop));
                    let dst = self.topo.link_shard[next_link.0];
                    self.sched(dst, now + prop, Event::HopArrival(next), edges);
                } else {
                    // Final hop: deliver to the receiver here. The receiver
                    // is touched only by this flow's packets and links are
                    // FIFO, so computing the ACK at serialization time is
                    // order-equivalent to a separate arrival event one
                    // propagation later; the ACK still reaches the sender
                    // after the remaining data propagation plus the full
                    // return path.
                    let fid = packet.flow;
                    let ack = self.receivers[fid.0]
                        .as_mut()
                        .expect("receiver owned by the final hop's shard")
                        .on_segment(packet.seq, packet.sent_at, packet.retransmit);
                    let back = prop + self.topo.path_prop[fid.0];
                    let dst = self.topo.flow_shard[fid.0];
                    self.sched(dst, now + back, Event::AckArrival { flow: fid, ack }, edges);
                }
                if let LinkAction::StartTx { packet, done } = self.link_mut(link).tx_complete(now) {
                    self.queue.schedule(done, Event::TxDone { link, packet });
                }
            }
            Event::HopArrival(pkt) => {
                let link_id = self.topo.path[pkt.flow.0].hop(usize::from(pkt.hop));
                if let LinkAction::StartTx { packet, done } = self.link_mut(link_id).offer(pkt, now)
                {
                    self.queue.schedule(done, Event::TxDone { link: link_id, packet });
                }
            }
            Event::AckArrival { flow, ack } => {
                let mut txs = std::mem::take(&mut self.tx_scratch);
                self.flow_mut(flow).sender.on_ack_into(ack, now, &mut txs);
                self.transmit(flow, &txs, now);
                self.tx_scratch = txs;
                self.sync_timer(flow);
                self.trace_cwnd(flow, now);
                self.trace_progress(flow, now);
                self.note_completion(flow);
            }
            Event::Rto { flow, gen } => {
                let f = self.flow_mut(flow);
                if f.pending_rto == Some(now) {
                    f.pending_rto = None;
                }
                let mut txs = std::mem::take(&mut self.tx_scratch);
                self.flow_mut(flow).sender.on_rto_into(gen, now, &mut txs);
                self.transmit(flow, &txs, now);
                let fired = !txs.is_empty();
                self.tx_scratch = txs;
                self.sync_timer(flow);
                if fired {
                    self.trace_cwnd(flow, now);
                }
            }
        }
    }

    /// Offer segments to the flow's first-hop link (always owned by this
    /// shard); drops are silent (the sender discovers them through missing
    /// ACKs, as on a real drop-tail router).
    pub fn transmit(&mut self, fid: FlowId, txs: &[Tx], now: SimTime) {
        if txs.is_empty() {
            return;
        }
        let (path, total) = {
            let f = self.flow(fid);
            (f.spec.path, f.total_bytes)
        };
        let first = path.hop(0);
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
            if let LinkAction::StartTx { packet, done } = self.link_mut(first).offer(pkt, now) {
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
        let flow = self.flow_mut(fid);
        if let Some((deadline, gen)) = flow.sender.timer() {
            let covered = flow.pending_rto.is_some_and(|p| p <= deadline);
            if !covered {
                flow.pending_rto = Some(deadline);
                self.queue.schedule(deadline, Event::Rto { flow: fid, gen });
            }
        }
    }

    pub fn trace_cwnd(&mut self, fid: FlowId, now: SimTime) {
        if self.cwnd_traces.is_none() {
            return;
        }
        let cwnd = self.flow(fid).sender.cwnd();
        if let Some(traces) = &mut self.cwnd_traces {
            traces[fid.0].push((now, cwnd));
        }
    }

    pub fn trace_progress(&mut self, fid: FlowId, now: SimTime) {
        if self.progress_traces.is_none() {
            return;
        }
        let f = self.flow(fid);
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

/// Union-find over links: two links interact iff some flow's path crosses
/// both, so connected components are the finest partition with **no**
/// cross-shard traffic at all.
fn link_groups(n_links: usize, paths: &[Path]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n_links).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for p in paths {
        let mut hops = p.iter();
        if let Some(first) = hops.next() {
            let r = find(&mut parent, first.0);
            for h in hops {
                let r2 = find(&mut parent, h.0);
                parent[r2.max(r)] = r2.min(r);
            }
        }
    }
    (0..n_links).map(|l| find(&mut parent, l)).collect()
}

/// Split the seed shard into `workers` shards.
///
/// Default strategy: group links by flow-interaction (see [`link_groups`])
/// and bin whole groups onto shards by longest-processing-time-first, so the
/// common many-independent-site-pairs topology parallelises with zero
/// cross-shard edges. A `manual` per-link assignment may split interacting
/// links across shards (paths then cross partition edges); in that case
/// every edge's lookahead must be positive or conservative synchronisation
/// could not make progress, and the partition is rejected with a panic.
pub(crate) fn partition(seed: ShardSim, workers: usize, manual: Option<&[usize]>) -> Vec<ShardSim> {
    let n_links = seed.links.len();
    let n_flows = seed.flows.len();
    let paths: Vec<Path> =
        seed.flows.iter().map(|f| f.as_ref().expect("seed owns all flows").spec.path).collect();

    let link_shard: Vec<u32> = match manual {
        Some(assign) => {
            assert_eq!(assign.len(), n_links, "manual partition must cover every link");
            assign.iter().map(|&s| s as u32).collect()
        }
        None => {
            let roots = link_groups(n_links, &paths);
            // Weight each group by its expected event load: segments for
            // finite flows, a nominal budget for unbounded background flows.
            let mut group_ids: Vec<usize> = roots.clone();
            group_ids.sort_unstable();
            group_ids.dedup();
            let mut weight: Vec<u64> = vec![1; group_ids.len()];
            let gidx = |root: usize| group_ids.binary_search(&root).expect("root is a group");
            for f in seed.flows.iter().map(|f| f.as_ref().expect("seed owns all flows")) {
                let g = gidx(roots[f.spec.path.hop(0).0]);
                weight[g] += match f.spec.bytes {
                    Some(b) => crate::packet::segments_for(b),
                    None => 20_000,
                };
            }
            let bins = workers.min(group_ids.len()).max(1);
            // LPT: heaviest group first onto the lightest bin; ties broken
            // by group id then bin index, so the assignment is a pure
            // function of the scenario.
            let mut order: Vec<usize> = (0..group_ids.len()).collect();
            order.sort_by_key(|&g| (std::cmp::Reverse(weight[g]), group_ids[g]));
            let mut load = vec![0u64; bins];
            let mut group_bin = vec![0u32; group_ids.len()];
            for g in order {
                let bin = (0..bins).min_by_key(|&b| (load[b], b)).expect("bins >= 1");
                load[bin] += weight[g];
                group_bin[g] = bin as u32;
            }
            (0..n_links).map(|l| group_bin[gidx(roots[l])]).collect()
        }
    };
    let n_shards: u32 = link_shard.iter().map(|&s| s + 1).max().unwrap_or(1);

    let flow_shard: Vec<u32> = paths.iter().map(|p| link_shard[p.hop(0).0]).collect();
    let recv_shard: Vec<u32> = paths.iter().map(|p| link_shard[p.hop(p.len() - 1).0]).collect();

    // Lookahead per directed edge: the minimum delay any event can cross it
    // with. Consecutive path hops contribute the upstream link's propagation
    // (`HopArrival` at `now + prop`); the final hop contributes the ACK's
    // return delay toward the sender's shard.
    let old_topo = &seed.topo;
    let mut lookahead = vec![u64::MAX; n_shards as usize * n_shards as usize];
    let mut note = |src: u32, dst: u32, delay: SimDuration| {
        if src != dst {
            let cell = &mut lookahead[src as usize * n_shards as usize + dst as usize];
            *cell = (*cell).min(delay.nanos());
        }
    };
    let prop_of = |links: &[Option<Link>], l: LinkId| {
        links[l.0].as_ref().expect("seed owns all links").spec.propagation
    };
    for (i, p) in paths.iter().enumerate() {
        for h in 0..p.len() - 1 {
            let (a, b) = (p.hop(h), p.hop(h + 1));
            note(link_shard[a.0], link_shard[b.0], prop_of(&seed.links, a));
        }
        let last = p.hop(p.len() - 1);
        note(link_shard[last.0], flow_shard[i], prop_of(&seed.links, last) + old_topo.path_prop[i]);
    }
    for (i, &la) in lookahead.iter().enumerate() {
        assert!(
            la != 0,
            "partition edge {} -> {} has zero lookahead (a zero-propagation link crosses \
             shards); conservative synchronisation cannot make progress",
            i / n_shards as usize,
            i % n_shards as usize,
        );
    }

    let topo = Arc::new(Topo {
        n_shards,
        link_shard,
        flow_shard,
        recv_shard,
        path: paths,
        path_prop: old_topo.path_prop.clone(),
        lookahead,
    });

    let mut shards: Vec<ShardSim> = (0..n_shards)
        .map(|id| ShardSim {
            id,
            topo: Arc::clone(&topo),
            links: (0..n_links).map(|_| None).collect(),
            flows: (0..n_flows).map(|_| None).collect(),
            receivers: (0..n_flows).map(|_| None).collect(),
            queue: EventQueue::with_shard(id),
            incomplete_finite: 0,
            completion_key: None,
            cwnd_traces: seed.cwnd_traces.as_ref().map(|_| vec![Vec::new(); n_flows]),
            progress_traces: seed.progress_traces.as_ref().map(|_| vec![Vec::new(); n_flows]),
            tx_scratch: Vec::new(),
            cross_seq: vec![0; n_shards as usize],
        })
        .collect();

    for (l, link) in seed.links.into_iter().enumerate() {
        shards[topo.link_shard[l] as usize].links[l] = link;
    }
    for (i, (flow, recv)) in seed.flows.into_iter().zip(seed.receivers).enumerate() {
        let flow = flow.expect("seed owns all flows");
        let sh = topo.flow_shard[i] as usize;
        if flow.counted_incomplete {
            shards[sh].incomplete_finite += 1;
        }
        // Re-admit the flow on its shard's fresh queue; global flow order
        // and creation time zero reproduce the sequential admission order.
        shards[sh].queue.schedule(flow.start_at, Event::FlowStart(FlowId(i)));
        shards[sh].flows[i] = Some(flow);
        shards[topo.recv_shard[i] as usize].receivers[i] = recv;
    }
    shards
}

/// Per-phase command broadcast from the coordinator to the workers.
#[derive(Clone, Default)]
struct Cmd {
    /// Dispatch bound per shard (exclusive), ns.
    caps: Vec<u64>,
    /// Whether each shard participates in this phase.
    run: Vec<bool>,
    /// Whether each shard stops as soon as its own finite flows hit zero.
    pause_at_zero: Vec<bool>,
}

/// Shared synchronisation state for one parallel run.
struct Ctl {
    /// Monotone per-shard horizon: "this shard will never again dispatch an
    /// event strictly below this time".
    horizons: Vec<AtomicU64>,
    /// Whether each shard has finished the current phase.
    done: Vec<AtomicBool>,
    /// Start-of-phase and end-of-phase rendezvous (workers + coordinator).
    barrier: Barrier,
    cmd: RwLock<Cmd>,
    quit: AtomicBool,
}

fn lock_all<'a>(cells: &'a [Mutex<ShardSim>]) -> Vec<MutexGuard<'a, ShardSim>> {
    cells.iter().map(|c| c.lock().expect("shard mutex poisoned")).collect()
}

/// Run a partitioned network to completion on one worker thread per shard,
/// byte-identically to the sequential loop. Returns the shards.
pub(crate) fn run_parallel(
    cfg: &NetworkConfig,
    mut shards: Vec<ShardSim>,
    ff: &mut FfState,
    deadline: SimTime,
) -> Vec<ShardSim> {
    let n = shards.len();
    let topo = Arc::clone(&shards[0].topo);
    let edges = EdgeSet::new(&topo);
    for sh in &mut shards {
        sh.completion_key = None;
    }
    let cells: Vec<Mutex<ShardSim>> = shards.into_iter().map(Mutex::new).collect();
    let ctl = Ctl {
        horizons: (0..n).map(|_| AtomicU64::new(0)).collect(),
        done: (0..n).map(|_| AtomicBool::new(false)).collect(),
        barrier: Barrier::new(n + 1),
        cmd: RwLock::new(Cmd::default()),
        quit: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        for i in 0..n {
            let (cells, ctl, edges, topo) = (&cells, &ctl, &edges, &topo);
            scope.spawn(move || worker_loop(i, cells, ctl, edges, topo));
        }
        coordinate(cfg, &topo, &cells, &ctl, &edges, ff, deadline);
        ctl.quit.store(true, Ordering::SeqCst);
        ctl.barrier.wait();
    });
    cells.into_iter().map(|c| c.into_inner().expect("shard mutex poisoned")).collect()
}

fn worker_loop(me: usize, cells: &[Mutex<ShardSim>], ctl: &Ctl, edges: &EdgeSet, topo: &Topo) {
    loop {
        ctl.barrier.wait();
        if ctl.quit.load(Ordering::SeqCst) {
            return;
        }
        let (cap, run, pause) = {
            let c = ctl.cmd.read().expect("cmd lock poisoned");
            (c.caps[me], c.run[me], c.pause_at_zero[me])
        };
        if run {
            let mut sh = cells[me].lock().expect("shard mutex poisoned");
            run_phase(&mut sh, cap, pause, ctl, edges, topo);
        }
        ctl.done[me].store(true, Ordering::SeqCst);
        ctl.barrier.wait();
    }
}

/// One shard's slice of a phase: repeatedly merge inbound events, dispatch
/// up to the conservative bound `min(cap, min inbound horizon + lookahead)`,
/// publish the new horizon, and yield until either the cap is reached or
/// every bounding neighbour has finished the phase.
fn run_phase(
    sh: &mut ShardSim,
    cap: u64,
    pause_at_zero: bool,
    ctl: &Ctl,
    edges: &EdgeSet,
    topo: &Topo,
) {
    let me = sh.id;
    loop {
        let mut limit = cap;
        let mut bounding_srcs_done = true;
        for src in 0..topo.n_shards {
            let la = topo.lookahead(src, me);
            if src == me || la == u64::MAX {
                continue;
            }
            let h = ctl.horizons[src as usize].load(Ordering::Acquire);
            limit = limit.min(h.saturating_add(la));
            if !ctl.done[src as usize].load(Ordering::SeqCst) {
                bounding_srcs_done = false;
            }
        }
        // Merge before dispatching: everything currently queued on an edge
        // is below its source's read horizon; anything pushed after the
        // horizon read lands at or beyond `limit` and cannot be needed yet.
        sh.drain_inbound(edges);
        while let Some(t) = sh.queue.peek_time() {
            if t.nanos() >= limit {
                break;
            }
            // Promise before dispatching: nothing below `t` will ever be
            // dispatched here again (events are popped in key order and
            // future inbound events land at or beyond `limit`).
            ctl.horizons[me as usize].fetch_max(t.nanos(), Ordering::AcqRel);
            let (now, ev) = sh.queue.pop().expect("peeked event vanished");
            sh.dispatch(now, ev, Some(edges));
            if pause_at_zero && sh.incomplete_finite == 0 {
                // Local completion: stop immediately; the coordinator
                // decides whether this was the global completion.
                return;
            }
        }
        ctl.horizons[me as usize].fetch_max(limit, Ordering::AcqRel);
        if limit >= cap || bounding_srcs_done {
            return;
        }
        // Blocked below the cap: neighbours are still running, so their
        // horizons will rise (by at least the edge lookahead per exchange —
        // the classic null-message progress guarantee). Spin politely.
        std::thread::yield_now();
    }
}

/// Broadcast one phase to the workers and wait for it to finish.
fn run_one_phase(ctl: &Ctl, cmd: Cmd) {
    *ctl.cmd.write().expect("cmd lock poisoned") = cmd;
    for d in &ctl.done {
        d.store(false, Ordering::SeqCst);
    }
    ctl.barrier.wait();
    ctl.barrier.wait();
}

enum Boundary {
    /// Dispatched one event (its time); the run continues.
    Dispatched(SimTime),
    /// The run is over (exhausted, past the deadline, or completed).
    Finished,
}

/// Dispatch the single globally earliest event, exactly as the sequential
/// loop's next iteration would: pop (counting it), stop undispatched if past
/// the deadline, otherwise dispatch and stop if that completed the run.
fn boundary_step(
    guards: &mut [MutexGuard<'_, ShardSim>],
    ctl: &Ctl,
    edges: &EdgeSet,
    deadline: SimTime,
) -> Boundary {
    let owner = match guards
        .iter_mut()
        .enumerate()
        .filter_map(|(i, g)| g.queue.peek_key().map(|k| (k, i)))
        .min()
    {
        Some((_, i)) => i,
        None => return Boundary::Finished,
    };
    let (now, ev) = guards[owner].queue.pop().expect("peeked event vanished");
    if now > deadline {
        return Boundary::Finished;
    }
    guards[owner].dispatch(now, ev, Some(edges));
    ctl.horizons[owner].fetch_max(now.nanos(), Ordering::AcqRel);
    for g in guards.iter_mut() {
        g.drain_inbound(edges);
    }
    if guards.iter().map(|g| g.incomplete_finite).sum::<usize>() == 0 {
        return Boundary::Finished;
    }
    Boundary::Dispatched(now)
}

/// Drain every event strictly below the global completion key `kc`,
/// sequentially in global key order — the tail the sequential loop would
/// have dispatched before the completing event.
fn drain_below(guards: &mut [MutexGuard<'_, ShardSim>], edges: &EdgeSet, kc: Key) {
    loop {
        let next = guards
            .iter_mut()
            .enumerate()
            .filter_map(|(i, g)| g.queue.peek_key().map(|k| (k, i)))
            .min();
        let Some((k, owner)) = next else { return };
        if k >= kc {
            return;
        }
        let (now, ev) = guards[owner].queue.pop().expect("peeked event vanished");
        guards[owner].dispatch(now, ev, Some(edges));
        for g in guards.iter_mut() {
            g.drain_inbound(edges);
        }
    }
}

fn coordinate(
    cfg: &NetworkConfig,
    topo: &Topo,
    cells: &[Mutex<ShardSim>],
    ctl: &Ctl,
    edges: &EdgeSet,
    ff: &mut FfState,
    deadline: SimTime,
) {
    use crate::network::{maybe_fast_forward, FastForward};
    let n = cells.len();
    let auto = cfg.fast_forward == FastForward::Auto;
    let run_cap = deadline.nanos().saturating_add(1);

    {
        // Already complete before the first event (re-run, or no finite
        // flows): the sequential loop still pops and dispatches exactly one
        // event before noticing.
        let mut guards = lock_all(cells);
        for g in guards.iter_mut() {
            g.drain_inbound(edges);
        }
        if guards.iter().map(|g| g.incomplete_finite).sum::<usize>() == 0 {
            boundary_step(&mut guards, ctl, edges, deadline);
            return;
        }
    }

    loop {
        // The next synchronisation horizon: all events strictly below it can
        // run in parallel; the first event at or beyond it must be
        // dispatched alone so the (global) fast-forward check interleaves
        // exactly as in the sequential loop.
        let bound = if auto { ff.next_check.nanos().min(run_cap) } else { run_cap };

        // Window: run phases until every shard's horizon reaches `bound` or
        // a shard's completion ended the run inside the window.
        loop {
            let mut guards = lock_all(cells);
            for g in guards.iter_mut() {
                g.drain_inbound(edges);
            }
            if guards.iter().map(|g| g.incomplete_finite).sum::<usize>() == 0 {
                // Global completion happened mid-window; finish the tail the
                // sequential loop would have dispatched before it.
                let kc = guards
                    .iter()
                    .filter_map(|g| g.completion_key)
                    .max()
                    .expect("a completion set the key");
                drain_below(&mut guards, edges, kc);
                return;
            }
            if ctl.horizons.iter().all(|h| h.load(Ordering::Acquire) >= bound) {
                break;
            }
            // Shards with finite flows run to the bound (pausing on local
            // completion); shards without any cannot be allowed past the
            // earliest possible completion time, i.e. the earliest pending
            // event of any finite shard.
            let hf = guards
                .iter_mut()
                .filter(|g| g.incomplete_finite > 0)
                .filter_map(|g| g.queue.peek_key().map(|k| k.at().nanos()))
                .min()
                .unwrap_or(u64::MAX);
            let mut cmd =
                Cmd { caps: vec![0; n], run: vec![false; n], pause_at_zero: vec![false; n] };
            for (i, g) in guards.iter().enumerate() {
                let finite = g.incomplete_finite > 0;
                cmd.caps[i] = if finite { bound } else { bound.min(hf) };
                cmd.pause_at_zero[i] = finite;
                cmd.run[i] = ctl.horizons[i].load(Ordering::Acquire) < cmd.caps[i];
            }
            drop(guards);
            if !cmd.run.iter().any(|&r| r) {
                // Nothing can move (zero-finite shards capped at hf): the
                // next step is the boundary event itself.
                break;
            }
            run_one_phase(ctl, cmd);
        }

        // Boundary: one event at/beyond the bound, then the global
        // fast-forward check, exactly like one sequential loop iteration.
        let mut guards = lock_all(cells);
        for g in guards.iter_mut() {
            g.drain_inbound(edges);
        }
        let now = match boundary_step(&mut guards, ctl, edges, deadline) {
            Boundary::Finished => return,
            Boundary::Dispatched(t) => t,
        };
        if auto && now >= ff.next_check {
            let mut refs: Vec<&mut ShardSim> = guards.iter_mut().map(|g| &mut **g).collect();
            maybe_fast_forward(cfg, ff, topo, &mut refs, Some(edges), now, deadline);
            if guards.iter().map(|g| g.incomplete_finite).sum::<usize>() == 0 {
                // The epoch completed the last flows; the sequential loop
                // dispatches one more event before noticing.
                boundary_step(&mut guards, ctl, edges, deadline);
                return;
            }
        }
    }
}
