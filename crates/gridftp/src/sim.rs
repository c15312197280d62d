//! Simulated WAN transfers: the GridFTP data path over `gdmp-simnet`.
//!
//! The paper's testbed — a 45 Mb/s, 125 ms production link between CERN
//! and ANL, shared with other traffic — is reproduced here as a
//! [`WanProfile`]: a bottleneck link plus a population of window-limited
//! background flows (the untuned TCP traffic a production link of the era
//! carried). A GridFTP session of `n` parallel streams with a given socket
//! buffer is simulated packet-by-packet against that contention.

use std::collections::HashMap;

use gdmp_simnet::analytic::window_limited_bps;
use gdmp_simnet::link::LinkSpec;
use gdmp_simnet::network::{
    FastForward, FlowSpec, NetStats, Network, NetworkConfig, SessionResult,
};
use gdmp_simnet::packet::{wire, FlowId};
use gdmp_simnet::time::{SimDuration, SimTime};
use gdmp_telemetry::Registry;

/// Control-channel round trips before data flows (auth + SPAS + RETR).
const CONTROL_RTTS: u64 = 8;

/// The simulated wide-area environment between two sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WanProfile {
    pub link: LinkSpec,
    /// Long-lived cross-traffic flows sharing the bottleneck.
    pub background_flows: u32,
    /// Socket buffer of the background flows (untuned 64 KB typical).
    pub background_buffer: u64,
    /// Stagger between background-flow opens, de-phasing the cross
    /// traffic's windows across the RTT.
    pub background_stagger: SimDuration,
    /// Stagger between parallel stream opens (avoids phase lock; real
    /// clients open sockets milliseconds apart).
    pub stream_stagger: SimDuration,
    /// Warm-up before the session starts, letting cross traffic reach
    /// steady state. It is the same history for every transfer of one
    /// recipe (this profile plus the session shape), so a [`SessionCache`]
    /// simulates it once per recipe and each transfer continues from a
    /// copy of the paused simulation; the reported event counts include it
    /// either way.
    pub warmup: SimDuration,
    /// Fidelity mode of the underlying simulation (see [`FastForward`]).
    pub fast_forward: FastForward,
}

impl WanProfile {
    /// The paper's CERN↔ANL production path.
    pub fn cern_anl_production() -> Self {
        WanProfile {
            link: LinkSpec::cern_anl(),
            background_flows: 8,
            background_buffer: 64 * 1024,
            background_stagger: SimDuration::from_millis(137),
            stream_stagger: SimDuration::from_millis(137),
            warmup: SimDuration::from_secs(5),
            fast_forward: FastForward::Auto,
        }
    }

    /// An uncontended link (for unit tests and LAN-like scenarios).
    pub fn clean(link: LinkSpec) -> Self {
        WanProfile {
            link,
            background_flows: 0,
            background_buffer: 64 * 1024,
            background_stagger: SimDuration::from_millis(137),
            stream_stagger: SimDuration::from_millis(10),
            warmup: SimDuration::ZERO,
            fast_forward: FastForward::Auto,
        }
    }

    /// Disable steady-state fast-forwarding: simulate every packet.
    pub fn exact(mut self) -> Self {
        self.fast_forward = FastForward::Off;
        self
    }

    /// Does nothing: the simulator has one engine (DESIGN §14). Kept only
    /// because the benchmark driver under `benchmark/` calls it; it goes
    /// with the next change to that driver (see ROADMAP).
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Round-trip time of the path.
    pub fn rtt(&self) -> SimDuration {
        self.link.propagation * 2
    }

    /// Analytic estimate of one cold stream's TCP slow-start duration: the
    /// RTTs the congestion window needs to double from its initial two
    /// segments up to the operating window (socket buffer capped by the
    /// stream's share of the path BDP). Used for critical-path
    /// *attribution* only — the packet simulation decides actual timing —
    /// so a deterministic closed form is exactly what's wanted.
    pub fn slow_start_estimate(&self, streams: u32, buffer: u64) -> SimDuration {
        let bdp_bytes = self.link.rate_bps as f64 / 8.0 * self.rtt().as_secs_f64();
        let share = (bdp_bytes / f64::from(streams.max(1))).min(buffer as f64);
        let target_segments = (share / f64::from(wire::MSS)).max(2.0);
        let doublings = (target_segments / 2.0).log2().ceil().max(0.0);
        SimDuration::from_nanos((self.rtt().nanos() as f64 * doublings) as u64)
    }

    /// Record the standard child spans of one transfer attempt under the
    /// caller's currently open span: session setup (named `reconnect` when
    /// re-establishing after a failure), estimated TCP slow-start (cold
    /// sessions only), and the steady remainder (`transfer_steady`).
    /// `data_elapsed` is the attempt's actual data-phase duration, possibly
    /// truncated by a mid-flight fault. The children tile
    /// `[base_ns, base_ns + setup + data_elapsed]`, so critical-path
    /// extraction can attribute end-to-end latency to reconnects,
    /// slow-start, and transfer without bespoke bookkeeping at every call
    /// site.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_transfer(
        &self,
        reg: &Registry,
        base_ns: u64,
        setup: SimDuration,
        data_elapsed: SimDuration,
        streams: u32,
        buffer: u64,
        warm: bool,
        reconnect: bool,
    ) {
        if !reg.is_enabled() {
            return;
        }
        let mut t = base_ns;
        if setup > SimDuration::ZERO {
            let name = if reconnect { "reconnect" } else { "gridftp_setup" };
            let sp = reg.span_start(name, t);
            t += setup.nanos();
            reg.span_end(sp, t);
        }
        let mut data_ns = data_elapsed.nanos();
        if !warm {
            let ss = self.slow_start_estimate(streams, buffer).nanos().min(data_ns);
            if ss > 0 {
                let sp = reg.span_start("slow_start", t);
                t += ss;
                reg.span_end(sp, t);
                data_ns -= ss;
            }
        }
        if data_ns > 0 {
            let sp = reg.span_start("transfer_steady", t);
            reg.span_end(sp, t + data_ns);
        }
    }

    /// [`SessionCache::session`], cold, on a cache of its own: nothing is
    /// reused from an earlier call.
    pub fn simulate_transfer(&self, bytes: u64, streams: u32, buffer: u64) -> SimTransferReport {
        SessionCache::default().session(self, bytes, streams, buffer, false).report
    }

    /// Hard stop of one session's simulation — a guard against a simulation
    /// that no longer makes progress, never a model output. The simulator's
    /// default hour past the last stream open, plus 64 times what a single
    /// window-limited stream would need for the whole payload, so a large
    /// untuned transfer (2 GiB at ~4 Mb/s is ~4 300 s) is not cut short.
    /// Never below the default, and a run that finishes is independent of
    /// any stop beyond its finish (DESIGN §10, "Session cache").
    fn hard_stop(&self, bytes: u64, streams: u32, buffer: u64) -> SimDuration {
        const SLACK: f64 = 64.0;
        let one_stream_bps =
            window_limited_bps(buffer.max(u64::from(wire::MSS)), self.rtt(), self.link.rate_bps);
        let payload = SimDuration::from_secs_f64(SLACK * bytes as f64 * 8.0 / one_stream_bps);
        let opened = self.warmup + self.stream_stagger * u64::from(streams);
        let floor = opened + NetworkConfig::default().max_sim_time;
        SimDuration(floor.nanos().saturating_add(payload.nanos()))
    }

    /// The construction the checkpointed path must reproduce: the network
    /// is built with the real sizes and the simulator's default hard stop,
    /// and simulated from t = 0 in one uninterrupted run.
    #[cfg(test)]
    fn simulate_from_scratch(
        &self,
        bytes: u64,
        streams: u32,
        buffer: u64,
        warm: bool,
    ) -> SessionOutcome {
        let recipe = Recipe::of(self, bytes, streams, buffer, warm);
        let net =
            recipe.network(stream_bytes(bytes, streams), NetworkConfig::default().max_sim_time);
        self.run_session(net, &recipe, bytes)
    }

    /// Run an assembled session (from wherever its network stands) to
    /// completion and report on it.
    fn run_session(&self, mut net: Network, recipe: &Recipe, bytes: u64) -> SessionOutcome {
        let Recipe { streams, buffer, .. } = *recipe;
        let ids: Vec<FlowId> = recipe.stream_flows().collect();
        let results = net.run();
        let session: Vec<_> = ids.iter().map(|i| results[i.0]).collect();
        let agg =
            SessionResult::aggregate(&session).expect("all session flows are finite and complete");
        let data_time = agg.finished.since(agg.started);
        let setup = SimDuration(self.rtt().nanos() * CONTROL_RTTS);
        let report = SimTransferReport {
            bytes,
            streams,
            buffer,
            data_time,
            setup_time: setup,
            retransmitted_segments: agg.retransmitted_segments,
            timeouts: agg.timeouts,
            events_processed: net.events_processed(),
            events_skipped: net.events_skipped(),
        };
        SessionOutcome { report, stats: net.stats() }
    }
}

/// One simulated session: the report, and the simulator's counters as
/// plain data. The simulation is a pure function of the profile and the
/// session's shape, so a [`SessionCache`] keeps the outcome and the caller
/// publishes it ([`SessionOutcome::publish`]) once per identical session
/// it stands for; telemetry then reads as if each had been simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    pub report: SimTransferReport,
    pub stats: NetStats,
}

impl SessionOutcome {
    /// Publish the network's statistics, then the session's own metrics.
    pub fn publish(&self, reg: &Registry) {
        if !reg.is_enabled() {
            return;
        }
        self.stats.publish(reg);
        let r = &self.report;
        let streams_label = r.streams.to_string();
        let labels = [("streams", streams_label.as_str())];
        reg.counter_add("gridftp_sessions", &labels, 1);
        reg.counter_add("gridftp_bytes", &labels, r.bytes);
        reg.counter_add("gridftp_retransmitted_segments", &labels, r.retransmitted_segments);
        reg.counter_add("gridftp_timeouts", &labels, r.timeouts);
        reg.observe("gridftp_data_time_ns", &[], r.data_time.nanos());
    }
}

/// Payload of each of `streams` parallel streams: equal shares, the
/// remainder on the last.
fn stream_bytes(bytes: u64, streams: u32) -> impl Iterator<Item = u64> {
    let n = u64::from(streams);
    let per = bytes / n;
    (0..n).map(move |s| if s == n - 1 { bytes - per * (n - 1) } else { per })
}

/// Everything the simulation of a session depends on before the session
/// opens — all of it except the payload size. Two transfers with equal
/// recipes share their history up to `warmup`, whatever they carry.
///
/// The session shape is part of it although no session flow has started by
/// then: the fast-forward gate sums the receive windows (`buffer`) of the
/// `streams` flows still to come, leaving out those that carry nothing
/// (`empty_streams`), and a `warm` stream opens a handshake earlier, which
/// bounds the last fast-forwarded epoch of the warm-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Recipe {
    profile: WanProfile,
    streams: u32,
    buffer: u64,
    warm: bool,
    /// How many of the streams carry no payload (`bytes < streams`, which
    /// `Grid` produces for tiny files); they are the leading ones.
    empty_streams: u32,
}

impl Recipe {
    fn of(profile: &WanProfile, bytes: u64, streams: u32, buffer: u64, warm: bool) -> Recipe {
        assert!(streams >= 1, "at least one stream");
        let empty_streams = stream_bytes(bytes, streams).filter(|&b| b == 0).count() as u32;
        Recipe { profile: *profile, streams, buffer, warm, empty_streams }
    }

    /// Flow ids of the session's streams: they follow the background flows.
    fn stream_flows(&self) -> impl Iterator<Item = FlowId> {
        let first = self.profile.background_flows as usize;
        (first..first + self.streams as usize).map(FlowId)
    }

    /// The session's network, every flow scheduled and nothing simulated.
    fn network(&self, sizes: impl Iterator<Item = u64>, max_sim_time: SimDuration) -> Network {
        let p = &self.profile;
        let mut net = Network::new(NetworkConfig { fast_forward: p.fast_forward, max_sim_time });
        net.add_link(p.link);
        for b in 0..p.background_flows {
            net.add_flow(
                FlowSpec::background(p.background_buffer)
                    .open_at(SimTime::ZERO + p.background_stagger * u64::from(b)),
            );
        }
        let session_open = SimTime::ZERO + p.warmup;
        for ((s, sz), id) in (0u64..).zip(sizes).zip(self.stream_flows()) {
            let mut flow =
                FlowSpec::transfer(sz, self.buffer).open_at(session_open + p.stream_stagger * s);
            if self.warm {
                // Resume at the stream's fair share of the path BDP — the
                // steady-state window an established connection holds.
                let bdp_bytes = p.link.rate_bps as f64 / 8.0 * p.rtt().as_secs_f64();
                let share = bdp_bytes / f64::from(self.streams) / f64::from(wire::MSS);
                flow = flow.warm_start(share.max(2.0));
            }
            assert_eq!(net.add_flow(flow), id, "streams follow the background flows");
        }
        net
    }

    /// The session's network with the warm-up behind it: paused before the
    /// first event at or after the session open, the streams holding
    /// placeholder sizes (one byte, or none for an empty stream) that the
    /// caller replaces, simulated the first time `warmed` is asked for the
    /// recipe and a copy after. A profile with no cross traffic or no
    /// warm-up has nothing to reuse: it is returned unsimulated.
    fn opened(&self, warmed: &mut HashMap<Recipe, Network>) -> Network {
        let p = &self.profile;
        let unsimulated = || {
            let placeholder = (0..self.streams).map(|s| u64::from(s >= self.empty_streams));
            self.network(placeholder, p.hard_stop(0, self.streams, self.buffer))
        };
        if p.background_flows == 0 || p.warmup == SimDuration::ZERO {
            return unsimulated();
        }
        if let Some(paused) = warmed.get(self) {
            return paused.fork();
        }
        let mut net = unsimulated();
        net.run_until(SimTime::ZERO + p.warmup);
        warmed.insert(*self, net.fork());
        net
    }
}

/// The simulations one owner (a grid, one stream count of a figure sweep)
/// has run, kept as long as the owner keeps it (DESIGN §10, "Session
/// cache"): per recipe the warm-up paused at the session open, which later
/// sessions continue from a copy of, and per session the outcome, which
/// an equal session replays. Both are exact, and keyed by value.
#[derive(Default)]
pub struct SessionCache {
    warmed: HashMap<Recipe, Network>,
    outcomes: HashMap<(WanProfile, u64, u32, u64, bool), SessionOutcome>,
}

impl SessionCache {
    /// One GridFTP retrieval of `bytes` over `streams` parallel TCP
    /// connections with the given socket buffer, simulated the first time
    /// this cache sees it. A `warm` retrieval reuses an open session, whose
    /// data channels skip the handshake and slow-start; its `setup_time`
    /// still describes a cold session, so charge it none.
    pub fn session(
        &mut self,
        profile: &WanProfile,
        bytes: u64,
        streams: u32,
        buffer: u64,
        warm: bool,
    ) -> &SessionOutcome {
        let warmed = &mut self.warmed;
        self.outcomes.entry((*profile, bytes, streams, buffer, warm)).or_insert_with(|| {
            let recipe = Recipe::of(profile, bytes, streams, buffer, warm);
            let mut net = recipe.opened(warmed);
            for (id, sz) in recipe.stream_flows().zip(stream_bytes(bytes, streams)) {
                net.set_flow_bytes(id, sz);
            }
            net.set_max_sim_time(profile.hard_stop(bytes, streams, buffer));
            profile.run_session(net, &recipe, bytes)
        })
    }

    /// Sessions simulated so far; an equal session after the first replays.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether this cache has simulated no session yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

/// Outcome of one simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTransferReport {
    pub bytes: u64,
    pub streams: u32,
    pub buffer: u64,
    /// Wall time of the data phase (first stream open → last byte acked).
    pub data_time: SimDuration,
    /// Control-channel setup overhead.
    pub setup_time: SimDuration,
    pub retransmitted_segments: u64,
    pub timeouts: u64,
    /// Simulator events of this transfer's simulation, cross-traffic
    /// warm-up included, whether this call simulated the warm-up or
    /// continued from one a [`SessionCache`] kept.
    pub events_processed: u64,
    /// Events avoided by steady-state fast-forwarding (0 when exact).
    pub events_skipped: u64,
}

impl SimTransferReport {
    /// Data-phase throughput in Mb/s — what Figures 5 and 6 plot.
    pub fn throughput_mbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.data_time.as_secs_f64() / 1e6
    }

    /// End-to-end duration including control setup.
    pub fn total_time(&self) -> SimDuration {
        self.setup_time + self.data_time
    }

    /// End-to-end throughput including setup (what an application sees).
    pub fn effective_mbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.total_time().as_secs_f64() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MB: u64 = 1024 * 1024;

    /// Everything a caller can observe of one simulated transfer: the
    /// report and the telemetry export.
    type Observed = (SimTransferReport, String);

    fn observe(outcome: &SessionOutcome) -> Observed {
        (outcome.report, published(outcome))
    }

    /// What `outcome` leaves in a fresh registry.
    fn published(outcome: &SessionOutcome) -> String {
        let reg = Registry::new();
        outcome.publish(&reg);
        reg.export_json_lines()
    }

    /// One transfer through `cache` and through the from-scratch
    /// reference; both observations.
    fn both_ways(
        cache: &mut SessionCache,
        p: &WanProfile,
        bytes: u64,
        streams: u32,
        buffer: u64,
        warm: bool,
    ) -> [Observed; 2] {
        [
            observe(cache.session(p, bytes, streams, buffer, warm)),
            observe(&p.simulate_from_scratch(bytes, streams, buffer, warm)),
        ]
    }

    fn arb_profile() -> impl Strategy<Value = WanProfile> {
        let link = (
            prop_oneof![Just(45_000_000u64), Just(20_000_000), Just(8_000_000)],
            20_000u64..=80_000,
            prop_oneof![Just(256usize), Just(64), Just(12)],
        );
        let background = (0u32..=10, prop_oneof![Just(64 * 1024u64), Just(256 * 1024)], 0u64..=200);
        let session = (0u64..=150, prop_oneof![Just(0u64), Just(700), Just(2_500), Just(5_000)]);
        (link, background, session, any::<bool>()).prop_map(
            |(
                (rate_bps, prop_us, queue_capacity),
                (flows, bg_buffer, bg_ms),
                (ms, warmup_ms),
                ff,
            )| {
                WanProfile {
                    link: LinkSpec {
                        rate_bps,
                        propagation: SimDuration::from_micros(prop_us),
                        queue_capacity,
                    },
                    background_flows: flows,
                    background_buffer: bg_buffer,
                    background_stagger: SimDuration::from_millis(bg_ms),
                    stream_stagger: SimDuration::from_millis(ms),
                    warmup: SimDuration::from_millis(warmup_ms),
                    fast_forward: if ff { FastForward::Auto } else { FastForward::Off },
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A transfer continued from a stored warm-up is indistinguishable
        /// from one simulated from t = 0. Each case runs three session
        /// shapes, cold and warm, in random order with random sizes through
        /// one cache, so a recipe is first seen with one size and reused
        /// with others, empty streams and zero-byte transfers included, and
        /// recipes that differ in one field only meet in one cache.
        #[test]
        fn forked_prefix_equals_from_scratch(
            profiles in collection::vec(
                prop_oneof![Just(WanProfile::cern_anl_production()), arb_profile()],
                2,
            ),
            shapes in collection::vec(
                (
                    0usize..2,
                    prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
                    prop_oneof![Just(16 * 1024u64), Just(64 * 1024), Just(MB), Just(MB)],
                ),
                3,
            ),
            transfers in collection::vec(
                (
                    0usize..3,
                    any::<bool>(),
                    prop_oneof![
                        Just(0u64), Just(1), Just(3), Just(7), Just(8_110),
                        Just(256 * 1024), Just(3 * MB + 17),
                    ],
                ),
                10..=12,
            ),
        ) {
            let mut cache = SessionCache::default();
            for (shape, warm, bytes) in transfers {
                let (profile, streams, buffer) = shapes[shape];
                let profile = profiles[profile];
                let [forked, scratch] =
                    both_ways(&mut cache, &profile, bytes, streams, buffer, warm);
                prop_assert_eq!(
                    &forked, &scratch,
                    "{} bytes, {} streams, {} buffer, warm {}, {:?}",
                    bytes, streams, buffer, warm, profile
                );
            }
        }
    }

    /// The export of one lossy session as the commit before
    /// `SessionOutcome` wrote it, when the network published from its live
    /// state: `publish` must not lose, rename or restamp a record.
    const LOSSY_SESSION_EXPORT: &str = include_str!("../tests/fixtures/lossy_session.jsonl");

    #[test]
    fn kept_outcome_publishes_the_recorded_export() {
        let p = WanProfile {
            link: LinkSpec {
                rate_bps: 8_000_000,
                propagation: SimDuration::from_millis(30),
                queue_capacity: 12,
            },
            background_flows: 2,
            background_buffer: 256 * 1024,
            warmup: SimDuration::from_millis(700),
            ..WanProfile::cern_anl_production()
        };
        let outcome = SessionCache::default().session(&p, 300_000, 2, MB, false).clone();
        assert!(outcome.stats.links[0].drops > 0, "the fixture is a lossy session");
        let export = published(&outcome);
        assert!(export.contains(r#""kind":"link_drops""#));
        assert_eq!(export, LOSSY_SESSION_EXPORT);
        assert_eq!(published(&outcome), export, "a second publication is the same again");
        // Publishing twice into one registry is two sessions.
        let reg = Registry::new();
        outcome.publish(&reg);
        outcome.publish(&reg);
        assert_eq!(reg.counter_value("gridftp_sessions", &[("streams", "2")]), 2);
        assert_eq!(
            reg.counter_value("simnet_events_processed", &[]),
            2 * outcome.report.events_processed
        );
        assert_eq!(reg.recent_events().len(), 2);
    }

    #[test]
    fn warmup_is_inherited_by_later_transfers_of_a_recipe() {
        let p = WanProfile::cern_anl_production();
        let mut cache = SessionCache::default();
        let pull =
            |cache: &mut SessionCache, bytes| cache.session(&p, bytes, 3, 48 * 1024, false).report;
        let first = pull(&mut cache, 8 * 1024);
        assert_eq!(cache.warmed.len(), 1, "the first transfer simulates the warm-up and keeps it");
        let again = pull(&mut cache, 8 * 1024);
        assert_eq!(again, first, "an equal session replays the first one's outcome");
        let other = pull(&mut cache, 5 * MB);
        let third = pull(&mut cache, MB);
        assert_eq!(cache.warmed.len(), 1, "one warm-up for every size");
        assert_eq!(cache.outcomes.len(), 3);
        let scratch = |bytes| p.simulate_from_scratch(bytes, 3, 48 * 1024, false).report;
        assert_eq!(other, scratch(5 * MB));
        assert_eq!(third, scratch(MB));
        // Nothing to reuse without cross traffic.
        let clean = WanProfile::clean(LinkSpec::cern_anl());
        let mut cache = SessionCache::default();
        cache.session(&clean, MB, 2, 64 * 1024, false);
        cache.session(&clean, 2 * MB, 2, 64 * 1024, false);
        assert!(cache.warmed.is_empty());
    }

    #[test]
    fn a_fresh_cache_inherits_nothing() {
        let p = WanProfile::cern_anl_production();
        let mut cache = SessionCache::default();
        let first = cache.session(&p, 8 * 1024, 3, 48 * 1024, false).report;
        assert_eq!(cache.warmed.len(), 1, "the first session simulated its own warm-up");
        let again = p.simulate_transfer(8 * 1024, 3, 48 * 1024);
        assert_eq!(again, first);
        assert_eq!(again, p.simulate_from_scratch(8 * 1024, 3, 48 * 1024, false).report);
    }

    #[test]
    fn large_untuned_transfer_outlives_the_default_hard_stop() {
        // 2 GiB at the ~4 Mb/s a 64 KB window allows needs ~4 300 s, past
        // the simulator's default one-hour stop.
        let p = WanProfile::cern_anl_production();
        let r = p.simulate_transfer(2 << 30, 1, 64 * 1024);
        assert!(r.data_time > NetworkConfig::default().max_sim_time);
        let t = r.throughput_mbps();
        assert!((3.5..4.5).contains(&t), "expected ~4 Mb/s window-limited, got {t:.2}");
    }

    #[test]
    fn clean_link_single_stream_window_limited() {
        let p = WanProfile::clean(LinkSpec::cern_anl());
        let r = p.simulate_transfer(25 * MB, 1, 64 * 1024);
        let t = r.throughput_mbps();
        assert!((2.5..4.5).contains(&t), "expected ~4 Mb/s window-limited, got {t:.2}");
    }

    #[test]
    fn parallel_streams_scale_on_contended_link() {
        let p = WanProfile::cern_anl_production();
        let one = p.simulate_transfer(25 * MB, 1, 64 * 1024).throughput_mbps();
        let eight = p.simulate_transfer(25 * MB, 8, 64 * 1024).throughput_mbps();
        assert!(eight > 3.0 * one, "8 untuned streams ({eight:.1}) should far exceed 1 ({one:.1})");
    }

    #[test]
    fn tuned_buffer_beats_untuned_single_stream() {
        let p = WanProfile::cern_anl_production();
        let untuned = p.simulate_transfer(50 * MB, 1, 64 * 1024).throughput_mbps();
        let tuned = p.simulate_transfer(50 * MB, 1, 1024 * 1024).throughput_mbps();
        assert!(
            tuned > 1.5 * untuned,
            "tuned single stream ({tuned:.1}) should beat untuned ({untuned:.1})"
        );
    }

    #[test]
    fn small_file_is_slow_start_bound() {
        let p = WanProfile::cern_anl_production();
        let small = p.simulate_transfer(MB, 4, 1024 * 1024).throughput_mbps();
        let large = p.simulate_transfer(50 * MB, 4, 1024 * 1024).throughput_mbps();
        assert!(
            small < large / 2.0,
            "1 MB file ({small:.1}) cannot amortize slow start like 50 MB ({large:.1})"
        );
    }

    #[test]
    fn setup_overhead_scales_with_rtt() {
        let p = WanProfile::cern_anl_production();
        let r = p.simulate_transfer(MB, 1, 64 * 1024);
        assert_eq!(r.setup_time.nanos(), p.rtt().nanos() * 8);
        assert!(r.effective_mbps() < r.throughput_mbps());
    }

    #[test]
    fn reports_are_deterministic() {
        let p = WanProfile::cern_anl_production();
        let a = p.simulate_transfer(10 * MB, 3, 256 * 1024);
        let b = p.simulate_transfer(10 * MB, 3, 256 * 1024);
        assert_eq!(a.data_time, b.data_time);
        assert_eq!(a.retransmitted_segments, b.retransmitted_segments);
    }

    #[test]
    fn fast_forward_matches_exact_on_quick_grid() {
        // Auto vs Off across a small streams × buffer grid: byte totals
        // always agree exactly; throughput agrees within 2 %; loss behaviour
        // (retransmit counts) is preserved.
        let p = WanProfile::cern_anl_production();
        for streams in [1u32, 4] {
            for buffer in [64 * 1024u64, 1024 * 1024] {
                let auto = p.simulate_transfer(25 * MB, streams, buffer);
                let exact = p.exact().simulate_transfer(25 * MB, streams, buffer);
                assert_eq!(auto.bytes, exact.bytes);
                assert_eq!(exact.events_skipped, 0);
                assert_eq!(
                    auto.retransmitted_segments, exact.retransmitted_segments,
                    "{streams}x{buffer}: loss behaviour diverged"
                );
                let (a, e) = (auto.throughput_mbps(), exact.throughput_mbps());
                assert!(
                    (a - e).abs() / e < 0.02,
                    "{streams}x{buffer}: auto {a:.3} vs exact {e:.3} Mb/s"
                );
            }
        }
    }

    #[test]
    fn fast_forward_skips_most_events_when_tuned() {
        // A tuned uncontended bulk transfer is steady state almost
        // throughout — the analytic path should carry the bulk of it.
        let p = WanProfile::clean(LinkSpec::cern_anl());
        let auto = p.simulate_transfer(100 * MB, 1, MB);
        let exact = p.exact().simulate_transfer(100 * MB, 1, MB);
        assert!(
            exact.events_processed >= 10 * auto.events_processed,
            "expected ≥10x fewer events: exact {} vs auto {}",
            exact.events_processed,
            auto.events_processed
        );
        let (a, e) = (auto.throughput_mbps(), exact.throughput_mbps());
        assert!((a - e).abs() / e < 0.02, "auto {a:.3} vs exact {e:.3} Mb/s");
    }

    #[test]
    fn fast_forward_is_deterministic() {
        let p = WanProfile::cern_anl_production();
        let a = p.simulate_transfer(25 * MB, 4, MB);
        let b = p.simulate_transfer(25 * MB, 4, MB);
        assert_eq!(a.data_time, b.data_time);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.events_skipped, b.events_skipped);
    }

    #[test]
    fn uneven_split_conserves_bytes() {
        // 10 MB over 3 streams: 3,333,333 ×2 + 3,333,334.
        let p = WanProfile::clean(LinkSpec::cern_anl());
        let r = p.simulate_transfer(10 * MB, 3, 256 * 1024);
        assert_eq!(r.bytes, 10 * MB);
        assert!(r.throughput_mbps() > 0.0);
    }
    #[test]
    fn trace_transfer_children_tile_the_attempt() {
        let p = WanProfile::clean(LinkSpec::cern_anl());
        let reg = Registry::new();
        let root = reg.span_start("attempt", 0);
        let setup = SimDuration::from_millis(100);
        let data = SimDuration::from_secs(2);
        p.trace_transfer(&reg, 0, setup, data, 4, 256 * 1024, false, false);
        reg.span_end(root, (setup + data).nanos());
        let spans = reg.spans();
        let total: u64 =
            spans.iter().filter(|s| s.parent.is_some()).map(|s| s.duration_ns().unwrap()).sum();
        assert_eq!(total, (setup + data).nanos(), "children must tile the attempt exactly");
        let names: Vec<&str> =
            spans.iter().filter(|s| s.parent.is_some()).map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["gridftp_setup", "slow_start", "transfer_steady"]);
        // Warm pulls have no setup and no slow-start.
        let reg = Registry::new();
        let root = reg.span_start("attempt", 0);
        p.trace_transfer(&reg, 0, SimDuration::ZERO, data, 4, 256 * 1024, true, false);
        reg.span_end(root, data.nanos());
        let names: Vec<String> =
            reg.spans().iter().filter(|s| s.parent.is_some()).map(|s| s.name.clone()).collect();
        assert_eq!(names, ["transfer_steady"]);
        // A reconnect renames the setup span.
        let reg = Registry::new();
        let root = reg.span_start("attempt", 0);
        p.trace_transfer(&reg, 0, setup, data, 4, 256 * 1024, false, true);
        reg.span_end(root, (setup + data).nanos());
        assert!(reg.spans().iter().any(|s| s.name == "reconnect"));
    }

    #[test]
    fn slow_start_estimate_is_deterministic_and_bounded() {
        let p = WanProfile::cern_anl_production();
        let a = p.slow_start_estimate(4, 256 * 1024);
        assert_eq!(a, p.slow_start_estimate(4, 256 * 1024));
        assert!(a > SimDuration::ZERO);
        // More streams -> smaller per-stream window -> shorter slow-start.
        assert!(p.slow_start_estimate(16, 256 * 1024) <= a);
        // A tiny buffer caps the window almost immediately.
        assert!(p.slow_start_estimate(1, 4 * 1024) <= p.rtt() * 2);
    }
}
