//! `push_soak`: producer/consumer pushes under faults, central catalog.
//!
//! Twelve fully meshed sites, federation off, the three storage backends
//! round-robin, 256 KB payloads, and a seeded chaos plan (site crashes, link flaps, a
//! partition, dropped RPCs) spread over the whole run. It drives the same
//! `gdmp` / `replica-catalog` / `gridftp` code as `grid_mix` the other
//! way round — writes and pushes beside reads, the failure, backoff,
//! breaker and journal paths beside the healthy one. The loop is
//! `run_soak_scenario`'s, call for call.
//!
//! The disk pools keep their roomy default. Replicas are installed in the
//! pool only (never written through to the archive), so a pool smaller
//! than what a site receives evicts replicas for good and `check_grid`
//! reports "catalog entry but no resident copy"; a workload on which no
//! operation fails cannot size the pool below that.

use gdmp::prelude::*;
use gdmp_workloads::observe::sample_grid_series;
use gdmp_workloads::scenario::{
    Control, Faults, Links, PolicyDecl, ProfileDecl, Scenario, SiteDecl, StorageDecl,
    TelemetryDecl, Topology, WorkloadDecl,
};

use super::{check_phase, export_digest, mix, stand_up, EndState, Rep, SimOutcome, Workload};
use crate::meter::{Call, Meter, Phase};

pub const SITES: usize = 12;
pub const ROUNDS: usize = 16;
/// Nominal payload; the seed moves it by up to ±3 %.
pub const FILE_SIZE: u64 = 256 * 1024;
const DRAIN_ROUNDS: usize = 40;
/// `ChaosPlan::new` lands every fault and its repair within 600 sim
/// seconds; two gaps per round spread the rounds over the same span.
const ROUND_GAP_NS: u64 = 600_000_000_000 / (2 * ROUNDS as u64);

/// The scenario seeds `--seed` picks from. Each one fixes a whole input:
/// the chaos plan, the retry jitter and the file size.
///
/// Not every seed will do. A source that crashes and restarts while the
/// Data Mover is backing off between attempts on it loses its pool pin
/// (pins are server memory), and when the retry then succeeds
/// `Grid::replicate` fails hard on `unpin` ("file not pinned") instead of
/// carrying on; about one seed in twenty hits this. The run converges all
/// the same, but a workload on which an op fails is no baseline, so the
/// seeds are drawn from this pool, each checked to finish with no failed
/// op (`tests/determinism.rs` re-checks them). Once `gdmp` keeps or
/// re-takes the pin, any seed will do and the pool can go.
pub const CHAOS_SEEDS: [u64; 16] = [
    0x8591_19d2_1efd_7ee0,
    0x26b3_af3a_8c70_d1e3,
    0x17db_1dd4_3584_e05c,
    0x0861_6347_e272_8f50,
    0x41ee_53a4_6195_c321,
    0x7def_55ea_411d_5098,
    0xf0d6_e429_02fa_4d1e,
    0xce08_8d33_48e1_03cc,
    0x722a_4736_8433_0fc5,
    0x630d_9c6c_f5e7_85ba,
    0x713b_51b8_a7b7_400f,
    0x1428_5ffb_05e1_35ba,
    0x07f0_eb2f_ac49_52c2,
    0x66e3_9f87_5616_ebba,
    0xa0d7_b3c3_5a35_7dbb,
    0xd0bc_6bfb_ed84_2ba8,
];

pub struct PushSoak {
    pub scenario_json: String,
}

impl PushSoak {
    pub fn new(seed: u64) -> PushSoak {
        Self::with_chaos_seed(CHAOS_SEEDS[(mix(seed, 2) % CHAOS_SEEDS.len() as u64) as usize])
    }

    /// The scenario whose fault plan, retry jitter and file size all
    /// derive from `chaos_seed`.
    pub fn with_chaos_seed(chaos_seed: u64) -> PushSoak {
        let storage = |i: usize| match i % 3 {
            0 => StorageDecl::ClassicTape,
            1 => StorageDecl::DiskArray {
                capacity: 200 << 30,
                op_latency_us: 5_000,
                stream_bytes_per_sec: 80_000_000,
            },
            _ => StorageDecl::ObjectStore {
                rtt_us: 80_000,
                stream_bytes_per_sec: 50_000_000,
                cost_per_request: 10,
                cost_per_mib: 2,
            },
        };
        let scenario = Scenario {
            name: "push-soak".to_string(),
            seed: chaos_seed,
            topology: Topology::Explicit {
                sites: (0..SITES)
                    .map(|i| SiteDecl {
                        name: format!("s{i:02}"),
                        org: format!("s{i:02}.grid"),
                        key_seed: 100 + i as u64,
                        pool_capacity: None,
                        storage: storage(i),
                    })
                    .collect(),
            },
            links: Links {
                default: ProfileDecl::CernAnlProduction,
                workers: 1,
                edges: Vec::new(),
                tiered: None,
            },
            control: Control {
                collection: "push-soak".to_string(),
                recovery: true,
                breaker: true,
                federation: false,
                fetch_policy: PolicyDecl::Default,
                trust_all: true,
                full_mesh_subscriptions: true,
            },
            telemetry: TelemetryDecl {
                recorder_capacity: Some(8192),
                timeseries_bucket_ns: Some(30_000_000_000),
                timeseries_after_build: false,
            },
            faults: Faults::Seeded { catalog_chaos: None },
            workload: WorkloadDecl::ReplicationSoak {
                rounds: ROUNDS,
                file_size: FILE_SIZE * (970 + chaos_seed % 61) / 1000,
                round_gap_ns: ROUND_GAP_NS,
                drain_rounds: DRAIN_ROUNDS,
            },
        };
        PushSoak { scenario_json: scenario.to_json_pretty() }
    }
}

impl Workload for PushSoak {
    fn rep(&self, telemetry: bool, m: &mut Meter) -> Rep {
        m.begin_phase(Phase::Setup);
        let (scenario, reg, mut grid) = stand_up(&self.scenario_json, telemetry, m);
        let WorkloadDecl::ReplicationSoak { rounds, file_size, round_gap_ns, drain_rounds } =
            scenario.workload
        else {
            unreachable!("push_soak generates a replication_soak scenario");
        };
        let round_gap = SimDuration::from_nanos(round_gap_ns);
        let names = scenario.topology.site_names();
        let horizon = grid.chaos_state().schedule().horizon();
        let setup_s = m.end_phase();

        m.begin_phase(Phase::Measured);
        let (mut attempted, mut failed, mut published, mut recoveries) = (0u64, 0u64, 0u64, 0u64);
        for round in 0..rounds {
            for (i, name) in names.iter().enumerate() {
                // Alternate publishers each round; a crashed GDMP server
                // publishes nothing.
                if (round + i) % 2 != 0 || grid.chaos_state().is_down(name) {
                    continue;
                }
                let lfn = format!("{name}_r{round}.dat");
                let data = Bytes::from(vec![((i + round) % 251) as u8; file_size as usize]);
                attempted += 1;
                published += 1;
                if m.call(Call::Publish, || grid.publish_file(name, &lfn, data, "flat")).is_err() {
                    failed += 1;
                }
            }
            m.call(Call::Advance, || grid.advance(round_gap));
            let (n, bad) = drain(&mut grid, m, &names, true);
            attempted += n;
            failed += bad;
            m.call(Call::SampleSeries, || sample_grid_series(&grid, &reg));
            m.call(Call::Advance, || grid.advance(round_gap));
        }
        // Let every scheduled fault fire and heal, then drain to quiescence.
        let now = grid.now();
        if horizon > now {
            m.call(Call::Advance, || grid.advance(horizon - now + SimDuration::from_secs(1)));
        }
        for _ in 0..drain_rounds {
            attempted += 1;
            recoveries += 1;
            m.call(Call::RunRecovery, || grid.run_recovery());
            let (n, bad) = drain(&mut grid, m, &names, false);
            attempted += n;
            failed += bad;
            m.call(Call::Advance, || grid.advance(SimDuration::from_secs(30)));
            m.call(Call::SampleSeries, || sample_grid_series(&grid, &reg));
            let quiescent = grid.chaos_state().pending_restarts() == 0
                && names.iter().all(|n| {
                    let s = grid.site(n).expect("site exists");
                    s.import_queue.is_empty() && s.journal.is_empty()
                });
            if quiescent {
                break;
            }
        }
        let measured_s = m.end_phase();
        let final_clock_ns = grid.now().nanos();

        let mut errors = Vec::new();
        let (report, export, check_s) = check_phase(&mut grid, &reg, m, &mut errors);
        // Replicas that never converged count as failed work.
        failed += report.violations.len() as u64;
        let configs = scenario.topology.site_configs();
        let mut end = EndState::collect(&mut grid, &configs, &reg, m.spans.is_some());
        let want_replicas = published * (SITES as u64 - 1);
        if end.replicas != want_replicas {
            errors.push(format!("{} replicas installed, expected {want_replicas}", end.replicas));
        }
        end.export_len = export.len();
        end.published = published;
        end.published_bytes = published * file_size;
        end.file_size = file_size;

        let sim = SimOutcome {
            payload_bytes: end.replicated_bytes,
            busy_ns: grid.reports.iter().map(|r| r.total_time().nanos()).sum(),
            fetch_ns: grid.reports.iter().map(|r| r.total_time().nanos()).collect(),
            counts: [
                ("published", published),
                ("replicated", end.replicas),
                ("recoveries", recoveries),
                ("attempts", end.attempts),
                ("replicas_checked", report.replicas_checked as u64),
                ("final_clock_ns", final_clock_ns),
            ]
            .into(),
            export_digest: export_digest(telemetry, &export),
        };
        Rep { setup_s, measured_s, check_s, attempted, failed, sim, errors, end }
    }
}

/// One pass of `replicate_pending` over the sites (live ones only while
/// faults are still firing). A retryable failure defers a file inside the
/// call; only a hard error fails the op. Returns `(ops, failed ops)`.
fn drain(grid: &mut Grid, m: &mut Meter, names: &[String], skip_down: bool) -> (u64, u64) {
    let (mut ops, mut failed) = (0, 0);
    for name in names {
        if skip_down && grid.chaos_state().is_down(name) {
            continue;
        }
        ops += 1;
        if m.call(Call::ReplicatePending, || grid.replicate_pending(name)).is_err() {
            failed += 1;
        }
    }
    (ops, failed)
}
