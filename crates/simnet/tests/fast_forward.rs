//! Equivalence and budget tests for steady-state fast-forwarding.
//!
//! `FastForward::Auto` must be indistinguishable from `Off` in everything
//! that matters — bytes delivered, loss behaviour, determinism — while
//! skipping the bulk of the events whenever a transfer spends most of its
//! life in a lossless steady state.

use proptest::prelude::*;

use gdmp_simnet::link::LinkSpec;
use gdmp_simnet::network::{FastForward, FlowSpec, Network, NetworkConfig};
use gdmp_simnet::time::{SimDuration, SimTime};

const MB: u64 = 1024 * 1024;

fn net_with(ff: FastForward, link: LinkSpec) -> Network {
    let mut net = Network::new(NetworkConfig { fast_forward: ff, ..NetworkConfig::default() });
    net.add_link(link);
    net
}

/// The headline scenario: the paper's tuned bulk transfer (100 MB, 1 MB
/// socket buffer, CERN↔ANL). One slow-start episode, then tens of seconds
/// of steady state — the analytic path must carry ≥10× of the event load
/// while staying within 2 % of the exact throughput.
#[test]
fn tuned_bulk_transfer_event_budget() {
    let run = |ff| {
        let mut net = net_with(ff, LinkSpec::cern_anl());
        let f = net.add_flow(FlowSpec::transfer(100 * MB, MB));
        let r = net.run()[f.0];
        (r.throughput_bps().unwrap(), net.events_processed(), r.segments_retransmitted)
    };
    let (exact_t, exact_e, exact_retx) = run(FastForward::Off);
    let (auto_t, auto_e, auto_retx) = run(FastForward::Auto);
    assert!(exact_e >= 10 * auto_e, "expected ≥10x fewer events: exact {exact_e} vs auto {auto_e}");
    assert!(
        (auto_t - exact_t).abs() / exact_t < 0.02,
        "auto {:.3} vs exact {:.3} Mb/s",
        auto_t / 1e6,
        exact_t / 1e6
    );
    assert_eq!(auto_retx, exact_retx, "loss behaviour diverged");
}

/// Auto never invents or loses payload: byte accounting matches Off exactly
/// on a staggered multi-flow session.
#[test]
fn byte_accounting_matches_exact() {
    let run = |ff| {
        let mut net = net_with(ff, LinkSpec::cern_anl());
        for i in 0..6u64 {
            net.add_flow(FlowSpec::transfer(4 * MB, 256 * 1024).open_at(SimTime(i * 100_000_000)));
        }
        net.run().iter().map(|r| r.bytes_acked).collect::<Vec<_>>()
    };
    assert_eq!(run(FastForward::Auto), run(FastForward::Off));
}

/// Fast-forwarded runs are bit-for-bit repeatable.
#[test]
fn auto_runs_are_deterministic() {
    let run = || {
        let mut net = net_with(FastForward::Auto, LinkSpec::cern_anl());
        net.add_flow(FlowSpec::transfer(30 * MB, MB));
        net.add_flow(FlowSpec::transfer(10 * MB, 64 * 1024).open_at(SimTime(500_000_000)));
        let r = net.run();
        (
            r.iter().map(|f| f.finished).collect::<Vec<_>>(),
            net.events_processed(),
            net.events_skipped(),
            net.stats().epochs,
        )
    };
    assert_eq!(run(), run());
}

/// Scenarios that never reach a provably lossless steady state (queue too
/// small for the demand) must be bit-identical to exact mode: the gate
/// refuses to engage rather than approximate a lossy regime.
#[test]
fn lossy_regime_stays_packet_level() {
    let run = |ff| {
        let mut net = net_with(
            ff,
            LinkSpec {
                rate_bps: 10_000_000,
                propagation: SimDuration::from_millis(30),
                queue_capacity: 8,
            },
        );
        let f = net.add_flow(FlowSpec::transfer(4 * MB, 2 * MB));
        let r = net.run()[f.0];
        (r.finished, r.segments_sent, r.segments_retransmitted, r.timeouts, net.events_processed())
    };
    let auto = run(FastForward::Auto);
    let exact = run(FastForward::Off);
    assert_eq!(auto, exact, "gate engaged in a lossy regime");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Across random links, buffers, and stream counts, Auto delivers the
    /// same bytes as Off and lands within 3 % on every flow's completion
    /// time (boundary effects are bounded by ~1 RTT per run; short random
    /// transfers make that a larger fraction than the figure scenarios).
    #[test]
    fn auto_matches_exact_on_random_scenarios(
        mbps in 5u64..=200,
        delay_ms in 5u64..=150,
        queue in 32usize..=512,
        buffer_kb in 16u64..=1024,
        streams in 1usize..=4,
        mb in 2u64..=16,
    ) {
        let link = LinkSpec {
            rate_bps: mbps * 1_000_000,
            propagation: SimDuration::from_millis(delay_ms),
            queue_capacity: queue,
        };
        let run = |ff| {
            let mut net = net_with(ff, link);
            for i in 0..streams as u64 {
                net.add_flow(
                    FlowSpec::transfer(mb * MB, buffer_kb * 1024)
                        .open_at(SimTime(i * 50_000_000)),
                );
            }
            net.run()
        };
        let auto = run(FastForward::Auto);
        let exact = run(FastForward::Off);
        for (a, e) in auto.iter().zip(exact.iter()) {
            prop_assert_eq!(a.bytes_acked, e.bytes_acked);
            prop_assert!(a.finished.is_some() && e.finished.is_some());
            let (at, et) = (
                a.finished.unwrap().since(a.spec.open_at).as_secs_f64(),
                e.finished.unwrap().since(e.spec.open_at).as_secs_f64(),
            );
            prop_assert!(
                (at - et).abs() / et < 0.03,
                "completion drifted: auto {at:.4}s vs exact {et:.4}s"
            );
        }
    }
}
