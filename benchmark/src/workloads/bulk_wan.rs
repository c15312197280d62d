//! `bulk_wan`: the paper's §6 case through the whole stack.
//!
//! `cern` → `anl` over the 45 Mb/s, 125 ms production profile with its
//! eight background flows; files of about 1/10/25/50/100 MB under three
//! GridFTP configurations, one fresh grid per configuration. Each file is
//! published at `cern`, replicated to `anl` and compared byte for byte.
//! The data plane — `gridftp` CRC/block/store, `mass-storage` pool byte
//! handling, the `simnet` engine — does nearly all the work; `gsi`, the
//! catalog and federation do almost none: the mirror image of `grid_mix`.

use gdmp::prelude::*;

use super::{
    check_phase, mix, payload, plain_scenario, stand_up, EndState, Rep, SimOutcome, Workload,
};
use crate::meter::{Call, Meter, Phase};
use crate::stats::{fnv1a, FNV_OFFSET};

const MB: u64 = 1_000_000;
/// The paper's Figure 5/6 file sizes. The seed moves each by up to ±3 %.
pub const NOMINAL_MB: [u64; 5] = [1, 10, 25, 50, 100];
/// `(streams, socket buffer)`: the untuned 64 KB buffer at one and eight
/// streams, and one stream with the tuned 1 MB buffer — the three corners
/// of the paper's Figure 5/6 grid that its shape claims rest on. The full
/// six-configuration grid costs 11 s a repetition on a 2-core host (CRC
/// over 1.1 GB, three times), more than a run has.
pub const CONFIGS: [(u32, u64); 3] = [(1, 64 * 1024), (8, 64 * 1024), (1, 1024 * 1024)];

pub struct BulkWan {
    pub scenario_json: String,
    /// `(lfn, payload, crc32)`, shared by every configuration's grid.
    files: Vec<(String, Bytes, u32)>,
}

impl BulkWan {
    pub fn new(seed: u64) -> BulkWan {
        let files = NOMINAL_MB
            .iter()
            .enumerate()
            .map(|(i, mb)| {
                let jitter = mix(seed, 30 + i as u64) % 60_001; // 0..=60 000 ppm
                let len = mb * MB * (970_000 + jitter) / 1_000_000;
                let data = payload(mix(seed, 40 + i as u64), len as usize);
                let crc = gdmp_gridftp::crc::crc32(&data);
                (format!("run{mb:03}.dat"), Bytes::from(data), crc)
            })
            .collect();
        let scenario = plain_scenario(
            "bulk-wan",
            mix(seed, 3),
            &[("cern", "cern.ch", 0xCE12), ("anl", "anl.gov", 0xA121)],
        );
        BulkWan { scenario_json: scenario.to_json_pretty(), files }
    }
}

impl Workload for BulkWan {
    fn rep(&self, telemetry: bool, m: &mut Meter) -> Rep {
        let (mut setup_s, mut measured_s, mut check_s) = (0.0, 0.0, 0.0);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut errors = Vec::new();
        let mut sim = SimOutcome::default();
        let mut end = EndState::default();
        let mut export_digest = FNV_OFFSET;
        // Sim Mb/s of (config, file), for the shape assertions.
        let mut mbps = vec![vec![0.0f64; self.files.len()]; CONFIGS.len()];

        for (c, &(streams, buffer)) in CONFIGS.iter().enumerate() {
            m.begin_phase(Phase::Setup);
            let (scenario, reg, mut grid) = stand_up(&self.scenario_json, telemetry, m);
            grid.params = TransferConfig { streams, buffer, ..grid.params };
            setup_s += m.end_phase();

            m.begin_phase(Phase::Measured);
            for (f, (lfn, data, _)) in self.files.iter().enumerate() {
                attempted += 2;
                let data = data.clone();
                if m.call(Call::Publish, || grid.publish_file("cern", lfn, data, "flat")).is_err() {
                    failed += 1;
                }
                match m.call(Call::Replicate, || grid.replicate("anl", lfn)) {
                    Ok(r) => mbps[c][f] = r.effective_mbps(),
                    Err(_) => failed += 1,
                }
            }
            measured_s += m.end_phase();

            let (_, export, config_check_s) = check_phase(&mut grid, &reg, m, &mut errors);
            check_s += config_check_s;
            for (lfn, data, crc) in &self.files {
                let installed = grid.site("anl").expect("anl exists").storage.pool.peek(lfn);
                let catalogued = grid.catalog.info(lfn).map(|i| i.meta.crc32);
                if installed.as_ref().map(Bytes::as_slice) != Some(data.as_slice())
                    || catalogued.ok() != Some(*crc)
                {
                    errors.push(format!("{lfn} at anl differs from cern's ({streams} streams)"));
                }
            }
            sim.busy_ns += grid.reports.iter().map(|r| r.total_time().nanos()).sum::<u64>();
            sim.fetch_ns.extend(grid.reports.iter().map(|r| r.total_time().nanos()));
            export_digest = fnv1a(export_digest, export.as_bytes());
            *sim.counts.entry("final_clock_ns").or_default() += grid.now().nanos();

            // Per-grid end states add up; the registry kept is the last
            // grid's, with every earlier grid's metrics merged in.
            let configs = scenario.topology.site_configs();
            let one = EndState::collect(&mut grid, &configs, &reg, m.spans.is_some());
            one.registry.merge_metrics_from(&end.registry);
            end.registry = one.registry;
            end.export_len += export.len();
            end.sites = one.sites;
            end.site_names = one.site_names;
            end.gridmap_entries = one.gridmap_entries;
            end.catalog_files = one.catalog_files;
            if end.storage.is_empty() {
                end.storage = one.storage;
            } else {
                for (sum, s) in end.storage.iter_mut().zip(one.storage) {
                    sum.disk_hits += s.disk_hits;
                    sum.stage_requests += s.stage_requests;
                    sum.archive_cost_units += s.archive_cost_units;
                    sum.evictions += s.evictions;
                }
            }
            end.rpc_total += one.rpc_total;
            end.transfers.extend(one.transfers);
            end.replicas += one.replicas;
            end.attempts += one.attempts;
            end.replicated_bytes += one.replicated_bytes;
            end.stage_ns.extend(one.stage_ns);
        }

        // EXPERIMENTS.md's shape: tuning the buffer beats the untuned
        // single stream, and untuned throughput rises with streams.
        let big = self.files.len() - 1;
        if mbps[2][big] <= mbps[0][big] {
            errors.push("tuned 1-stream is not faster than untuned 1-stream at 100 MB".to_string());
        }
        if mbps[1][big] <= mbps[0][big] {
            errors.push("untuned 100 MB throughput does not rise from 1 to 8 streams".to_string());
        }

        let file_bytes: u64 = self.files.iter().map(|f| f.1.len() as u64).sum();
        end.published = (self.files.len() * CONFIGS.len()) as u64;
        end.published_bytes = file_bytes * CONFIGS.len() as u64;
        end.file_size = file_bytes / self.files.len() as u64;
        sim.payload_bytes = end.replicated_bytes;
        sim.counts.insert("replicas", end.replicas);
        sim.counts.insert("attempts", end.attempts);
        sim.export_digest = telemetry.then_some(export_digest);
        Rep { setup_s, measured_s, check_s, attempted, failed, sim, errors, end }
    }
}
