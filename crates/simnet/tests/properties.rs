//! Property-based tests for the simulator's core invariants.

use proptest::prelude::*;

use gdmp_simnet::link::LinkSpec;
use gdmp_simnet::network::{FastForward, FlowResult, FlowSpec, NetStats, Network, NetworkConfig};
use gdmp_simnet::packet::FlowId;
use gdmp_simnet::queue::{DropTailQueue, Enqueue};
use gdmp_simnet::tcp::{Receiver, Sender};
use gdmp_simnet::time::{SimDuration, SimTime};

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (1u64..=1000, 1u64..=200, 16usize..=512).prop_map(|(mbps, delay_ms, queue)| LinkSpec {
        rate_bps: mbps * 1_000_000,
        propagation: SimDuration::from_millis(delay_ms),
        queue_capacity: queue,
    })
}

/// Everything observable from one run, comparable with `==`: the flow
/// results, the counters (clock, events, epochs, links, flows), every
/// flow's whole sender state and the traced flows' progress.
#[derive(Debug, PartialEq)]
struct Observed {
    flows: Vec<FlowResult>,
    stats: NetStats,
    senders: Vec<Sender>,
    progress: Vec<Vec<(SimTime, u64)>>,
}

/// Every flow's sender, as it stands.
fn senders(net: &Network) -> Vec<Sender> {
    (0..net.results().len()).map(|i| net.sender(FlowId(i)).clone()).collect()
}

/// Run an assembled (possibly paused) network to completion and capture it.
fn finish(mut net: Network, traced: &[FlowId]) -> Observed {
    let flows = net.run();
    Observed {
        flows,
        stats: net.stats(),
        senders: senders(&net),
        progress: traced.iter().map(|&f| net.progress_trace(f).unwrap_or(&[]).to_vec()).collect(),
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

/// One two-hop flow plus cross traffic on the second hop. The propagation
/// delays are irregular (non-divisible nanosecond counts) so no two events
/// collide on an exact tick.
fn two_hop(net: &mut Network) -> Vec<FlowId> {
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

/// The fixtures a pause is tried on, with their fidelity mode.
const PAUSE_FIXTURES: [(FastForward, Fixture); 4] = [
    (FastForward::Off, lossy_multi_group),
    (FastForward::Auto, fast_forwarding),
    (FastForward::Off, two_hop),
    (FastForward::Auto, late_transfer_over_cross_traffic),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every finite transfer completes and delivers exactly its size, no
    /// matter the link and buffer parameters.
    #[test]
    fn transfer_conserves_bytes(
        link in arb_link(),
        bytes in 1u64..=4_000_000,
        buffer_kb in 8u64..=2048,
    ) {
        let mut net = Network::single_link(link);
        let f = net.add_flow(FlowSpec::transfer(bytes, buffer_kb * 1024));
        let results = net.run();
        let r = &results[f.0];
        prop_assert!(r.finished.is_some(), "flow did not complete");
        prop_assert_eq!(r.bytes_acked, bytes);
    }

    /// Throughput never exceeds the physical link rate.
    #[test]
    fn throughput_bounded_by_link(
        link in arb_link(),
        bytes in 100_000u64..=4_000_000,
        buffer_kb in 8u64..=2048,
    ) {
        let mut net = Network::single_link(link);
        let f = net.add_flow(FlowSpec::transfer(bytes, buffer_kb * 1024));
        let results = net.run();
        let tput = results[f.0].throughput_bps().unwrap();
        prop_assert!(tput <= link.rate_bps as f64 * 1.0001,
            "tput {} exceeds rate {}", tput, link.rate_bps);
    }

    /// Two identical runs produce identical outcomes (determinism).
    #[test]
    fn runs_are_deterministic(
        link in arb_link(),
        bytes in 1u64..=2_000_000,
        streams in 1usize..=6,
    ) {
        let run = || {
            let mut net = Network::single_link(link);
            for i in 0..streams {
                net.add_flow(
                    FlowSpec::transfer(bytes / streams as u64 + 1, 128 * 1024)
                        .open_at(SimTime(i as u64 * 10_000_000)),
                );
            }
            let r = net.run();
            (
                r.iter().map(|f| f.finished).collect::<Vec<_>>(),
                r.iter().map(|f| f.segments_sent).collect::<Vec<_>>(),
                net.events_processed(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// The receiver's cumulative ACK is monotone non-decreasing and reaches
    /// the total once every segment has arrived, in any arrival order.
    #[test]
    fn receiver_acks_monotone_and_complete(order in Just(()).prop_flat_map(|_| {
        proptest::collection::vec(0u64..64, 1..256)
    })) {
        // `order` is an arbitrary multiset of segment numbers 0..64; append
        // one guaranteed copy of each so delivery certainly completes.
        let mut r = Receiver::new();
        let mut last = 0;
        let mut deliver = order;
        deliver.extend(0..64);
        for seq in deliver {
            let ack = r.on_segment(seq, SimTime::ZERO, false);
            prop_assert!(ack.ackno >= last, "cumulative ACK went backwards");
            last = ack.ackno;
        }
        prop_assert_eq!(r.rcv_nxt(), 64);
        prop_assert_eq!(r.reorder_depth(), 0);
    }

    /// A drop-tail queue never holds more than its capacity and never
    /// reorders packets.
    #[test]
    fn queue_bounded_and_fifo(
        capacity in 1usize..64,
        ops in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        use gdmp_simnet::packet::{FlowId, Packet};
        let mut q = DropTailQueue::new(capacity);
        let mut next_seq = 0u64;
        let mut expected_front = 0u64;
        for push in ops {
            if push {
                let pkt = Packet {
                    flow: FlowId(0),
                    seq: next_seq,
                    wire_bytes: 1500,
                    retransmit: false,
                    enqueued_at: SimTime::ZERO,
                    sent_at: SimTime::ZERO,
                    hop: 0,
                };
                if q.push(pkt) == Enqueue::Accepted {
                    next_seq += 1;
                }
                prop_assert!(q.len() <= capacity);
            } else if let Some(pkt) = q.pop() {
                prop_assert_eq!(pkt.seq, expected_front, "FIFO violated");
                expected_front = pkt.seq + 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pausing anywhere before the end changes nothing: `run_until(t)` then
    /// `run()` is one `run()`, the fork of the paused network agrees with
    /// it too, and the original is none the wiser for having been forked.
    /// Every flow's sender is compared at the pause and after the run.
    #[test]
    fn pause_and_fork_equal_one_run(which in 0usize..4, permille in 0u64..1000) {
        let (mode, build) = PAUSE_FIXTURES[which];
        let cfg = NetworkConfig::default().with_fast_forward(mode);
        let assemble = || {
            let mut net = Network::new(cfg);
            net.enable_progress_trace();
            let traced = build(&mut net);
            (net, traced)
        };
        let (net, traced) = assemble();
        let whole = finish(net, &traced);
        let pause = SimTime(whole.stats.now.nanos() / 1000 * permille);

        let (mut net, traced) = assemble();
        net.run_until(pause);
        let paused_at = (net.stats(), net.results(), senders(&net));

        let fork = net.fork();
        prop_assert_eq!(&senders(&fork), &paused_at.2, "the fork starts from the paused senders");
        let forked = finish(fork, &traced);
        prop_assert_eq!(
            &paused_at,
            &(net.stats(), net.results(), senders(&net)),
            "running the fork moved the original"
        );
        prop_assert_eq!(&forked, &whole, "fork diverged, paused at {}", pause);
        prop_assert_eq!(&finish(net, &traced), &whole, "resumed run diverged, paused at {}", pause);
    }
}

/// Parallel streams never yield less aggregate throughput than a fifth of
/// the best single stream (sanity: no catastrophic self-interference).
#[test]
fn parallel_streams_no_catastrophe() {
    let link = LinkSpec::cern_anl();
    let total = 10 * 1024 * 1024u64;
    let single = {
        let mut net = Network::single_link(link);
        net.add_flow(FlowSpec::transfer(total, 64 * 1024));
        net.run()[0].throughput_bps().unwrap()
    };
    for n in [2u64, 4, 8] {
        let mut net = Network::single_link(link);
        let mut ids = Vec::new();
        for i in 0..n {
            ids.push(net.add_flow(
                FlowSpec::transfer(total / n, 64 * 1024).open_at(SimTime(i * 137_000_000)),
            ));
        }
        let results = net.run();
        let flows: Vec<_> = ids.iter().map(|i| results[i.0]).collect();
        let agg = gdmp_simnet::network::SessionResult::aggregate(&flows).unwrap().throughput_bps();
        assert!(agg > single / 5.0, "{n} streams collapsed: {agg:.0} vs single {single:.0}");
    }
}
