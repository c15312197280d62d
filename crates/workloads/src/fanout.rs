//! Fan-out replication scenario: one network, many independent site pairs.
//!
//! The paper's data grid pushes files from CERN outward to many regional
//! centres at once; each CERN→site path has its own bottleneck link and its
//! own cross traffic, and the paths do not share queues. It is the only
//! committed scenario with many links in one network, so its exact event
//! count (in `BENCH_simnet.json`, gated by `bench_compare`) is what shows
//! that no tie between events of different links was ever reordered.
//!
//! Rates, delays, and staggers are deliberately irregular across sites
//! (derived from the site index) so no two sites run in lock-step and the
//! event mix is realistic rather than K copies of one schedule.

use gdmp_simnet::link::LinkSpec;
use gdmp_simnet::network::{FastForward, FlowResult, FlowSpec, Network, NetworkConfig};
use gdmp_simnet::time::{SimDuration, SimTime};

/// Parallel streams per site transfer.
const STREAMS: u32 = 2;
/// Bytes pushed to each site.
pub const BYTES_PER_SITE: u64 = 3 * 1024 * 1024;
/// Socket buffer per stream.
const BUFFER: u64 = 256 * 1024;
/// Background flows per site path.
const BACKGROUND: u32 = 1;

/// Everything observable from one fan-out run, comparable with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutOutcome {
    pub flows: Vec<FlowResult>,
    pub events_processed: u64,
    pub events_skipped: u64,
}

/// Per-site link: rates from 8 to ~22 Mb/s, one-way delays from 18 to
/// ~60 ms, stepped by site index so every pair beats at its own frequency.
fn site_link(site: u32) -> LinkSpec {
    LinkSpec {
        rate_bps: 8_000_000 + 2_000_000 * u64::from(site % 8),
        propagation: SimDuration::from_millis(18 + 6 * u64::from(site % 8)),
        queue_capacity: 96 + 16 * (site as usize % 4),
    }
}

/// Run the fan-out to `sites` independent CERN→regional-centre pairs
/// (= independent bottleneck links; the simnet baseline uses 8) and
/// capture every observable output. Every packet is simulated
/// ([`FastForward::Off`]), so the event count is the full packet-level
/// load.
pub fn run_fanout(sites: u32) -> FanoutOutcome {
    let mut net = Network::new(NetworkConfig::default().with_fast_forward(FastForward::Off));
    for site in 0..sites {
        let link = net.add_link(site_link(site));
        // Stagger opens per site and per stream with site-dependent strides
        // so no two transfers phase-lock.
        let site_open = SimTime(u64::from(site) * 13_700_000);
        for s in 0..STREAMS {
            let per = BYTES_PER_SITE / u64::from(STREAMS);
            let sz =
                if s == STREAMS - 1 { BYTES_PER_SITE - per * u64::from(STREAMS - 1) } else { per };
            net.add_flow(
                FlowSpec::transfer(sz, BUFFER)
                    .on_link(link)
                    .open_at(site_open + SimDuration::from_millis(7 * u64::from(s))),
            );
        }
        for b in 0..BACKGROUND {
            net.add_flow(
                FlowSpec::background(64 * 1024)
                    .on_link(link)
                    .open_at(site_open + SimDuration::from_millis(3 + 11 * u64::from(b))),
            );
        }
    }
    let flows = net.run();
    FanoutOutcome {
        flows,
        events_processed: net.events_processed(),
        events_skipped: net.events_skipped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_completes_every_site() {
        let out = run_fanout(3);
        let finished =
            out.flows.iter().filter(|f| f.spec.bytes.is_some() && f.finished.is_some()).count();
        assert_eq!(finished, 3 * STREAMS as usize);
        assert!(out.events_processed > 0);
    }
}
