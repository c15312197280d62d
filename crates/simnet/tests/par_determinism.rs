//! The sharded engine's headline contract: `workers = N` is byte-identical
//! to `workers = 1` — same `FlowResult`s, same cwnd/progress traces, same
//! telemetry export, same event counters — for every topology, fidelity
//! mode, and loss regime. Fixed-seed suites cover the hand-picked hard
//! cases (manual split partitions with real cross-shard traffic, lossy
//! queues, fast-forward epochs); proptest sweeps randomly generated
//! multi-group populations.
//!
//! The same fixtures pin the pause contract: `run_until(t)` then `run()`
//! is one `run()`, and a `fork()` of the paused network runs on without
//! touching the original.

use proptest::prelude::*;

use gdmp_simnet::link::LinkSpec;
use gdmp_simnet::network::{FastForward, FlowResult, FlowSpec, Network, NetworkConfig};
use gdmp_simnet::packet::FlowId;
use gdmp_simnet::time::{SimDuration, SimTime};
use gdmp_telemetry::Registry;

/// Everything observable from one run, comparable with `==`.
#[derive(Debug, PartialEq)]
struct Observed {
    flows: Vec<FlowResult>,
    events_processed: u64,
    events_skipped: u64,
    ff_epochs: u64,
    now: SimTime,
    cwnd: Vec<Vec<(SimTime, f64)>>,
    progress: Vec<Vec<(SimTime, u64)>>,
    telemetry: String,
}

/// Build, run, and capture a network; `build` gets the empty network and
/// returns the flows whose traces to collect.
fn observe<F>(workers: usize, cfg: NetworkConfig, build: F) -> Observed
where
    F: Fn(&mut Network) -> Vec<FlowId>,
{
    let mut net = Network::new(cfg.with_workers(workers));
    net.enable_cwnd_trace();
    net.enable_progress_trace();
    let traced = build(&mut net);
    finish(net, &traced)
}

/// Run an assembled (possibly paused) network to completion and capture it.
fn finish(mut net: Network, traced: &[FlowId]) -> Observed {
    let reg = Registry::new();
    net.set_telemetry(reg.clone());
    let flows = net.run();
    Observed {
        flows,
        events_processed: net.events_processed(),
        events_skipped: net.events_skipped(),
        ff_epochs: net.fastforward_epochs(),
        now: net.now(),
        cwnd: traced.iter().map(|&f| net.cwnd_trace(f).unwrap_or(&[]).to_vec()).collect(),
        progress: traced.iter().map(|&f| net.progress_trace(f).unwrap_or(&[]).to_vec()).collect(),
        telemetry: reg.export_json_lines(),
    }
}

/// Assert workers ∈ {2, 4} reproduce workers = 1 exactly.
fn assert_worker_identity<F>(cfg: NetworkConfig, build: F)
where
    F: Fn(&mut Network) -> Vec<FlowId>,
{
    let one = observe(1, cfg, &build);
    for workers in [2usize, 4] {
        let par = observe(workers, cfg, &build);
        assert_eq!(one, par, "run diverged at {workers} workers");
    }
}

/// A lossy link: small queue relative to the BDP, forcing drops, fast
/// retransmits, and RTOs.
fn lossy_link(i: u64) -> LinkSpec {
    LinkSpec {
        rate_bps: 10_000_000 + i * 3_000_000,
        propagation: SimDuration::from_millis(20 + 9 * i),
        queue_capacity: 24 + 4 * i as usize,
    }
}

/// Four lossy links, each with one finite transfer and one cross-traffic
/// flow.
fn lossy_multi_group(net: &mut Network) -> Vec<FlowId> {
    let mut traced = Vec::new();
    for i in 0..4u64 {
        let l = net.add_link(lossy_link(i));
        traced.push(
            net.add_flow(
                FlowSpec::transfer(600_000 + i * 70_000, 512 * 1024)
                    .on_link(l)
                    .open_at(SimTime(i * 3_100_000)),
            ),
        );
        net.add_flow(FlowSpec::background(64 * 1024).on_link(l).open_at(SimTime(1 + i * 500_000)));
    }
    traced
}

/// Clean links so the lossless-fit gate engages and epochs actually run.
fn fast_forwarding(net: &mut Network) -> Vec<FlowId> {
    let mut traced = Vec::new();
    for i in 0..3u64 {
        let l = net.add_link(LinkSpec {
            rate_bps: 45_000_000,
            propagation: SimDuration::from_millis(30 + 10 * i),
            queue_capacity: 512,
        });
        traced.push(
            net.add_flow(
                FlowSpec::transfer(4_000_000, 2 * 1024 * 1024)
                    .on_link(l)
                    .open_at(SimTime(i * 1_000_000)),
            ),
        );
    }
    traced
}

/// One two-hop flow plus cross traffic on the second hop; with `split` the
/// path is deliberately cut across shards, so every hop hand-off and every
/// ACK return crosses a shard edge. The propagation delays are irregular
/// (non-divisible nanosecond counts) so no two events collide on an exact
/// tick.
fn two_hop(net: &mut Network, split: bool) -> Vec<FlowId> {
    let a = net.add_link(LinkSpec {
        rate_bps: 30_000_000,
        propagation: SimDuration::from_micros(17_311),
        queue_capacity: 64,
    });
    let b = net.add_link(LinkSpec {
        rate_bps: 22_000_000,
        propagation: SimDuration::from_micros(29_877),
        queue_capacity: 48,
    });
    if split {
        net.set_link_partition(&[0, 1]);
    }
    let main = net.add_flow(FlowSpec::transfer(900_000, 256 * 1024).via(&[a, b]));
    net.add_flow(FlowSpec::background(96 * 1024).on_link(b).open_at(SimTime(777_777)));
    vec![main]
}

/// A late transfer over warmed-up cross traffic that fast-forwards while
/// it waits — the shape whose warm-up `gdmp-gridftp` pauses and forks.
fn late_transfer_over_cross_traffic(net: &mut Network) -> Vec<FlowId> {
    let l = net.add_link(LinkSpec::cern_anl());
    for b in 0..8u64 {
        net.add_flow(FlowSpec::background(64 * 1024).on_link(l).open_at(SimTime(b * 137_000_000)));
    }
    vec![net.add_flow(
        FlowSpec::transfer(500_000, 256 * 1024).on_link(l).open_at(SimTime(5_000_000_000)),
    )]
}

type Fixture = fn(&mut Network) -> Vec<FlowId>;

/// The single-shard fixtures a pause is tried on, with their fidelity mode.
const PAUSE_FIXTURES: [(FastForward, Fixture); 4] = [
    (FastForward::Off, lossy_multi_group),
    (FastForward::Auto, fast_forwarding),
    (FastForward::Off, |net| two_hop(net, false)),
    (FastForward::Auto, late_transfer_over_cross_traffic),
];

#[test]
fn lossy_multi_group_identical_exact() {
    assert_worker_identity(
        NetworkConfig::default().with_fast_forward(FastForward::Off),
        lossy_multi_group,
    );
}

#[test]
fn fast_forward_auto_identical() {
    assert_worker_identity(
        NetworkConfig::default().with_fast_forward(FastForward::Auto),
        fast_forwarding,
    );
}

#[test]
fn manual_split_path_multihop_identical() {
    let cfg = NetworkConfig::default().with_fast_forward(FastForward::Off);
    let merged = observe(1, cfg, |net| two_hop(net, false));
    let split_serial = observe(1, cfg, |net| two_hop(net, true));
    let split_par = observe(2, cfg, |net| two_hop(net, true));
    assert_eq!(merged.flows, split_serial.flows, "partitioning itself changed the physics");
    assert_eq!(split_serial, split_par, "cross-shard run diverged at 2 workers");
}

#[test]
fn oversubscribed_workers_identical() {
    // More workers than flow groups: surplus shards stay empty and must
    // not perturb anything.
    assert_worker_identity(NetworkConfig::default().with_fast_forward(FastForward::Off), |net| {
        let l = net.add_link(lossy_link(2));
        vec![net.add_flow(FlowSpec::transfer(300_000, 128 * 1024).on_link(l))]
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pausing anywhere before the end changes nothing: `run_until(t)` then
    /// `run()` is one `run()`, the fork of the paused network agrees with
    /// it too, and the original is none the wiser for having been forked.
    #[test]
    fn pause_and_fork_equal_one_run(which in 0usize..4, permille in 0u64..1000) {
        let (mode, build) = PAUSE_FIXTURES[which];
        let cfg = NetworkConfig::default().with_fast_forward(mode);
        let whole = observe(1, cfg, build);
        let pause = SimTime(whole.now.nanos() / 1000 * permille);

        let mut net = Network::new(cfg);
        net.enable_cwnd_trace();
        net.enable_progress_trace();
        let traced = build(&mut net);
        net.run_until(pause);
        let paused_at = (net.now(), net.events_processed(), net.events_skipped(), net.results());

        let fork = net.fork();
        prop_assert_eq!(fork.events_inherited(), net.events_processed());
        prop_assert_eq!(net.events_inherited(), 0);
        let forked = finish(fork, &traced);
        prop_assert_eq!(
            &paused_at,
            &(net.now(), net.events_processed(), net.events_skipped(), net.results()),
            "running the fork moved the original"
        );
        prop_assert_eq!(&forked, &whole, "fork diverged, paused at {}", pause);
        prop_assert_eq!(&finish(net, &traced), &whole, "resumed run diverged, paused at {}", pause);
    }

    /// Randomly generated multi-group populations: every worker count
    /// reproduces the serial run byte for byte.
    #[test]
    fn random_populations_identical(
        seed_links in prop::collection::vec((5u64..=80, 5u64..=90, 16usize..=96), 2..=5),
        flows in prop::collection::vec(
            (0usize..5, 50_000u64..=900_000, 32u64..=512, 0u64..=40),
            1..=8,
        ),
        auto in any::<bool>(),
    ) {
        let mode = if auto { FastForward::Auto } else { FastForward::Off };
        let cfg = NetworkConfig::default().with_fast_forward(mode);
        let build = |net: &mut Network| {
            let links: Vec<_> = seed_links
                .iter()
                .map(|&(mbps, delay_ms, queue)| {
                    net.add_link(LinkSpec {
                        rate_bps: mbps * 1_000_000,
                        propagation: SimDuration::from_millis(delay_ms),
                        queue_capacity: queue,
                    })
                })
                .collect();
            flows
                .iter()
                .map(|&(li, bytes, buf_kb, open_ms)| {
                    net.add_flow(
                        FlowSpec::transfer(bytes, buf_kb * 1024)
                            .on_link(links[li % links.len()])
                            .open_at(SimTime(open_ms * 1_000_000)),
                    )
                })
                .collect()
        };
        let one = observe(1, cfg, build);
        for workers in [2usize, 4] {
            let par = observe(workers, cfg, build);
            prop_assert_eq!(&one, &par, "diverged at {} workers", workers);
        }
    }
}
