//! `grid_mix`: the read-heavy control plane at the scale ROADMAP names.
//!
//! The committed `grid_at_scale_200` shape — Tier-0/1/2, 201 sites,
//! federation on, classic tape, 8 KB files, two seeded files per site —
//! under a 70 % Zipf(0.9) lookup / 20 % publish / 10 % fetch mix. It loads
//! `gsi` (the O(sites²) `trust_all`), `replica-catalog` (central LDAP on
//! the publish path, LRC/RLI ladder on lookups), selection and the
//! telemetry registry; payloads are 8 KB, so the byte-handling layers do
//! next to nothing. The loop below is `run_grid_scenario`'s, op for op,
//! re-stated over the public `Grid` API so each op can be timed.

use gdmp::prelude::*;
use gdmp_workloads::scenario::{Scenario, WorkloadDecl};
use gdmp_workloads::{GridSoakSpec, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    check_phase, export_digest, mix, stand_up, EndState, LookupTally, Rep, SimOutcome, Workload,
};
use crate::meter::{Call, Meter, Phase};

/// Rounds × ops per round of one repetition. Publish and lookup latency
/// grow as the catalog fills, so the op count is fixed, not timed.
pub const ROUNDS: usize = 12;
pub const OPS_PER_ROUND: usize = 250;

pub struct GridMix {
    /// The only input the program under test receives.
    pub scenario_json: String,
}

impl GridMix {
    pub fn new(seed: u64) -> GridMix {
        let spec = GridSoakSpec {
            rounds: ROUNDS,
            ops_per_round: OPS_PER_ROUND,
            // 8 KB nominal; the seed moves it by up to ±3 %.
            file_size: 8192 * (970 + mix(seed, 10) as usize % 61) / 1000,
            seed: mix(seed, 1),
            ..GridSoakSpec::at_scale(200)
        };
        GridMix { scenario_json: Scenario::grid_soak(&spec).to_json_pretty() }
    }
}

fn file_name(f: usize) -> String {
    format!("file{f:05}.dat")
}

impl Workload for GridMix {
    fn rep(&self, telemetry: bool, m: &mut Meter) -> Rep {
        // ---- setup: text → parsed, built, seeded, warmed grid ----------
        m.begin_phase(Phase::Setup);
        let (scenario, reg, mut grid) = stand_up(&self.scenario_json, telemetry, m);
        let WorkloadDecl::GridSoak {
            files_per_site,
            rounds,
            ops_per_round,
            zipf_alpha,
            file_size,
            round_gap_ns,
        } = scenario.workload
        else {
            unreachable!("grid_mix generates a grid_soak scenario");
        };
        let names = scenario.topology.site_names();
        let sites = names.len();
        let total_files = sites * files_per_site;
        for f in 0..total_files {
            let (lfn, data) = (file_name(f), Bytes::from(vec![7u8; file_size]));
            m.call(Call::Publish, || grid.publish_file(&names[f % sites], &lfn, data, "flat"))
                .expect("seeding a healthy grid");
        }
        m.call(Call::Advance, || grid.advance(SimDuration::from_secs(65)));
        let setup_s = m.end_phase();

        // ---- measured: the op stream --------------------------------
        m.begin_phase(Phase::Measured);
        let zipf = Zipf::new(total_files, zipf_alpha);
        let mut rng = StdRng::seed_from_u64(0x9A1D_50AC ^ scenario.seed);
        let mut published = total_files;
        let mut tally = LookupTally::default();
        let (mut lookups, mut publishes, mut fetches, mut index_hits, mut failed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for _round in 0..rounds {
            m.call(Call::Advance, || grid.advance(SimDuration::from_nanos(round_gap_ns)));
            for _op in 0..ops_per_round {
                let requester = &names[rng.gen_range(0..sites)];
                let roll: u32 = rng.gen_range(0..100);
                if roll < 70 {
                    let lfn = file_name(zipf.sample(&mut rng));
                    lookups += 1;
                    match m.call(Call::Lookup, || grid.lookup_replicas(requester, &lfn)) {
                        Ok(r) => {
                            tally.add(&r);
                            if matches!(r.via, LookupVia::Local | LookupVia::Rli) {
                                index_hits += 1;
                            }
                        }
                        Err(_) => failed += 1,
                    }
                } else if roll < 90 {
                    let lfn = file_name(published);
                    published += 1;
                    publishes += 1;
                    let data = Bytes::from(vec![7u8; file_size]);
                    if m.call(Call::Publish, || grid.publish_file(requester, &lfn, data, "flat"))
                        .is_err()
                    {
                        failed += 1;
                    }
                } else {
                    let lfn = file_name(zipf.sample(&mut rng));
                    fetches += 1;
                    // Pulling a replica the site already holds is a no-op
                    // success, exactly as in `run_grid_scenario`.
                    match m.call(Call::Replicate, || grid.replicate(requester, &lfn)) {
                        Ok(_) | Err(GdmpError::AlreadyReplicated { .. }) => {}
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        let measured_s = m.end_phase();
        let final_clock_ns = grid.now().nanos();

        // ---- check: invariant sweep + telemetry export ----------------
        let mut errors = Vec::new();
        let (_, export, check_s) = check_phase(&mut grid, &reg, m, &mut errors);
        let attempted = (rounds * ops_per_round) as u64;
        if lookups + publishes + fetches != attempted {
            errors.push("op count drifted from rounds x ops_per_round".to_string());
        }
        let configs = scenario.topology.site_configs();
        let mut end = EndState::collect(&mut grid, &configs, &reg, m.spans.is_some());
        if end.wrong_answers != 0 {
            errors.push(format!("federation gave {} wrong answers", end.wrong_answers));
        }
        end.export_len = export.len();
        end.lookups = tally;
        end.published = (total_files as u64) + publishes;
        end.published_bytes = end.published * file_size as u64;
        end.file_size = file_size as u64;

        let sim = SimOutcome {
            payload_bytes: end.replicated_bytes,
            busy_ns: grid.reports.iter().map(|r| r.total_time().nanos()).sum(),
            fetch_ns: grid.reports.iter().map(|r| r.total_time().nanos()).collect(),
            counts: [
                ("lookups", lookups),
                ("publishes", publishes),
                ("fetches", fetches),
                ("index_hits", index_hits),
                ("fallbacks", tally.fallbacks),
                ("scatters", tally.scatters),
                ("confirms", tally.confirms),
                ("false_positives", tally.false_positives),
                ("replicas", end.replicas),
                ("final_clock_ns", final_clock_ns),
            ]
            .into(),
            export_digest: export_digest(telemetry, &export),
        };
        Rep { setup_s, measured_s, check_s, attempted, failed, sim, errors, end }
    }
}
