//! `object_analysis`: §5, sparse object sets instead of files.
//!
//! A population of 100 000 events (Tag/AOD/ESD, about 2 000 events per
//! file, sizes scaled 0.01) is built at `cern`; analysis sessions with
//! seed-derived cascades run round-robin over three remote sites. Tag
//! files are replicated whole; the AOD and ESD steps ask for
//! `file_level_cover` (what file replication would ship) and then
//! `object_replicate` the surviving objects only. The only workload that
//! loads `objectstore` and `gdmp::objrep`; its setup is the population
//! build, so `setup_s` means something else here than in `grid_mix`.

use gdmp::prelude::*;
use gdmp::ObjectReplicationConfig;
use gdmp_objectstore::{LogicalOid, ObjectKind};
use gdmp_workloads::{CascadeSpec, Placement, Population};

use super::{
    check_phase, export_digest, mix, plain_scenario, stand_up, EndState, Rep, SimOutcome, Transfer,
    Workload,
};
use crate::meter::{Call, Meter, Phase};

/// Populate and cover are super-linear in the event count, so it is fixed.
pub const EVENTS: u64 = 100_000;
pub const SESSIONS: usize = 3;
const REMOTES: [&str; 3] = ["caltech", "fnal", "lyon"];
const KINDS: &[ObjectKind] = &[ObjectKind::Tag, ObjectKind::Aod, ObjectKind::Esd];

pub struct ObjectAnalysis {
    pub scenario_json: String,
    cascade_seeds: Vec<u64>,
    /// Events per database file: 2 000, moved by the seed by up to ±3 %
    /// (so file sizes, and with them the tag-file transfer times, follow
    /// the seed; the event count, which the cost is super-linear in, does
    /// not).
    events_per_file: u64,
}

impl ObjectAnalysis {
    pub fn new(seed: u64) -> ObjectAnalysis {
        let scenario = plain_scenario(
            "object-analysis",
            mix(seed, 4),
            &[
                ("cern", "cern.ch", 1),
                (REMOTES[0], "caltech.edu", 2),
                (REMOTES[1], "fnal.gov", 3),
                (REMOTES[2], "in2p3.fr", 4),
            ],
        );
        ObjectAnalysis {
            scenario_json: scenario.to_json_pretty(),
            cascade_seeds: (0..SESSIONS).map(|s| mix(seed, 50 + s as u64)).collect(),
            events_per_file: 2_000 * (970 + mix(seed, 60) % 61) / 1000,
        }
    }

    fn population(&self) -> Population {
        Population {
            events: EVENTS,
            kinds: KINDS,
            placement: Placement::ByKindChunks { events_per_file: self.events_per_file },
            size_scale: 0.01,
        }
    }
}

impl Workload for ObjectAnalysis {
    fn rep(&self, telemetry: bool, m: &mut Meter) -> Rep {
        m.begin_phase(Phase::Setup);
        let (scenario, reg, mut grid) = stand_up(&self.scenario_json, telemetry, m);
        let population = self.population();
        let files = m
            .call(Call::Populate, || population.build(&mut grid, "cern"))
            .expect("population builds on a healthy grid");
        let setup_s = m.end_phase();

        m.begin_phase(Phase::Measured);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut sim = SimOutcome::default();
        let mut end_objects = super::ObjectTally::default();
        let mut chunk_transfers: Vec<Transfer> = Vec::new();
        let mut requested: Vec<(&str, Vec<LogicalOid>)> = Vec::new();
        for (session, &cascade_seed) in self.cascade_seeds.iter().enumerate() {
            let dst = REMOTES[session % REMOTES.len()];
            let steps =
                m.call(Call::Cascade, || CascadeSpec::canonical(EVENTS, cascade_seed).run());
            // Tag files are small and read densely: replicate them whole.
            for f in files.iter().filter(|f| f.starts_with("tag.")) {
                attempted += 1;
                match m.call(Call::Replicate, || grid.replicate(dst, f)) {
                    Ok(_) | Err(GdmpError::AlreadyReplicated { .. }) => {}
                    Err(_) => failed += 1,
                }
            }
            // The AOD and ESD steps need objects of the surviving events
            // only, where whole files would be mostly ballast.
            for step in &steps[1..3] {
                attempted += 2;
                let cover = m.call(Call::FileCover, || grid.file_level_cover(&step.reads));
                end_objects.cover_bytes += cover.total_bytes;
                let cfg = ObjectReplicationConfig::default();
                match m.call(Call::ObjectReplicate, || grid.object_replicate(dst, &step.reads, cfg))
                {
                    Ok(r) => {
                        end_objects.objects_moved += r.objects_moved as u64;
                        end_objects.bytes_moved += r.bytes_moved;
                        sim.payload_bytes += r.bytes_moved;
                        sim.busy_ns += r.makespan.nanos();
                        sim.fetch_ns.push(r.makespan.nanos());
                        if m.spans.is_some() {
                            chunk_transfers.extend(chunk_sessions(&mut grid, dst, &r.chunk_files));
                        }
                    }
                    Err(_) => failed += 1,
                }
                requested.push((dst, step.reads.clone()));
            }
            end_objects.probe_reads = steps[1].reads.clone();
        }
        let measured_s = m.end_phase();
        let final_clock_ns = grid.now().nanos();

        let mut errors = Vec::new();
        let (_, export, check_s) = check_phase(&mut grid, &reg, m, &mut errors);
        for (dst, reads) in &requested {
            let fed = &mut grid.site_mut(dst).expect("remote site exists").federation;
            let unreadable = reads.iter().filter(|o| fed.get(**o).is_err()).count();
            if unreadable > 0 {
                errors.push(format!("{unreadable} requested objects unreadable at {dst}"));
            }
        }

        let configs = scenario.topology.site_configs();
        let mut end = EndState::collect(&mut grid, &configs, &reg, m.spans.is_some());
        end.transfers.extend(chunk_transfers);
        end.export_len = export.len();
        end.published = files.len() as u64;
        end.published_bytes = population.total_bytes();
        end.file_size = population.total_bytes() / files.len() as u64;
        end_objects.objects = grid.object_view.object_count();
        end_objects.files = grid.object_view.file_count();
        end_objects.population = Some(population);
        end.objects = end_objects;

        sim.payload_bytes += end.replicated_bytes;
        sim.busy_ns += grid.reports.iter().map(|r| r.total_time().nanos()).sum::<u64>();
        sim.fetch_ns.extend(grid.reports.iter().map(|r| r.total_time().nanos()));
        sim.counts = [
            ("tag_replicas", end.replicas),
            ("objects_moved", end.objects.objects_moved),
            ("object_bytes_moved", end.objects.bytes_moved),
            ("cover_bytes", end.objects.cover_bytes),
            ("final_clock_ns", final_clock_ns),
        ]
        .into();
        sim.export_digest = export_digest(telemetry, &export);
        Rep { setup_s, measured_s, check_s, attempted, failed, sim, errors, end }
    }
}

/// The GridFTP sessions one `object_replicate` ran: one per extraction
/// chunk, sized as the catalog records it, from the source its name
/// carries (`objx.<seq>.<source>.to.<dst>.<i>.db`).
fn chunk_sessions(grid: &mut Grid, dst: &str, chunk_files: &[String]) -> Vec<Transfer> {
    chunk_files
        .iter()
        .map(|name| {
            let source = name.split('.').nth(2).expect("extraction file names carry the source");
            let bytes = grid.catalog.info(name).expect("chunk is catalogued").meta.size;
            Transfer {
                profile: grid.profile_between(source, dst),
                bytes,
                streams: grid.params.streams,
                buffer: grid.params.buffer,
            }
        })
        .collect()
}
