//! The four workloads and what one repetition of any of them yields.

pub mod bulk_wan;
pub mod grid_mix;
pub mod object_analysis;
pub mod push_soak;

use std::collections::BTreeMap;

use gdmp::invariants::check_grid;
use gdmp::prelude::*;
use gdmp_objectstore::LogicalOid;
use gdmp_telemetry::FieldValue;
use gdmp_workloads::scenario::{
    Control, Faults, Links, PolicyDecl, ProfileDecl, Scenario, SiteDecl, StorageDecl,
    TelemetryDecl, Topology, WorkloadDecl,
};
use gdmp_workloads::Population;

use crate::assemble::{assemble, live_registry};
use crate::meter::{Call, Meter, Phase};
use crate::stats::{fnv1a, FNV_OFFSET};

pub const NAMES: [&str; 4] = ["grid_mix", "push_soak", "bulk_wan", "object_analysis"];

/// One workload with its inputs already generated from the seed.
pub trait Workload {
    /// One repetition on fresh state: setup, the op stream, the checks.
    /// `telemetry` chooses a live registry or `Registry::disabled()`.
    fn rep(&self, telemetry: bool, m: &mut Meter) -> Rep;
}

/// The tail percentile `op_tail_us` reports for a workload: one that
/// keeps at least ten samples beyond it over the three repetitions every
/// run makes (9 000, ~900, 90 and ~490 ops), and that sits inside a
/// cluster of like ops rather than on the edge between two, where the
/// nearest rank jumps from run to run:
///
/// * `grid_mix` p95 — the slowest tenth are the fetches and p95 is the
///   median fetch (p99, the slow end of the fetches, does not repeat
///   within a tenth on a shared host);
/// * `push_soak` p90 — a busy `replicate_pending` pass;
/// * `bulk_wan` p85 — the slowest fifth are the 100 MB ops, p80 is the
///   edge between them and the 50 MB ones, p85 is a 100 MB publish;
/// * `object_analysis` p95 — the slowest 7 % are the cover and
///   object-replication calls, p95 is an AOD `object_replicate`.
pub fn tail_pct(name: &str) -> f64 {
    match name {
        "push_soak" => 90.0,
        "bulk_wan" => 85.0,
        _ => 95.0,
    }
}

/// The sizes that fix a workload's op count, for the printed header.
pub fn sizes(name: &str) -> String {
    match name {
        "grid_mix" => {
            format!("201 sites, {} rounds x {} ops", grid_mix::ROUNDS, grid_mix::OPS_PER_ROUND)
        }
        "push_soak" => format!(
            "{} sites, {} rounds, ~{} KB files",
            push_soak::SITES,
            push_soak::ROUNDS,
            push_soak::FILE_SIZE / 1024
        ),
        "bulk_wan" => {
            format!("files of ~{:?} MB x {} configs", bulk_wan::NOMINAL_MB, bulk_wan::CONFIGS.len())
        }
        _ => format!("{} events, {} sessions", object_analysis::EVENTS, object_analysis::SESSIONS),
    }
}

/// Generate `name`'s inputs from `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "grid_mix" => Box::new(grid_mix::GridMix::new(seed)),
        "push_soak" => Box::new(push_soak::PushSoak::new(seed)),
        "bulk_wan" => Box::new(bulk_wan::BulkWan::new(seed)),
        "object_analysis" => Box::new(object_analysis::ObjectAnalysis::new(seed)),
        _ => return None,
    })
}

/// SplitMix64 step: the benchmark's own seed derivation, so that one
/// `--seed` gives every workload its own independent input stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one repetition produced.
pub struct Rep {
    pub setup_s: f64,
    pub measured_s: f64,
    pub check_s: f64,
    /// Ops attempted, and those that ended in an error the workload does
    /// not declare benign (plus replicas unconverged at drain end).
    pub attempted: u64,
    pub failed: u64,
    pub sim: SimOutcome,
    /// Correctness checks that did not hold; empty on a good repetition.
    pub errors: Vec<String>,
    pub end: EndState,
}

/// The deterministic, sim-clock side of a repetition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimOutcome {
    /// Payload bytes installed by replication.
    pub payload_bytes: u64,
    /// Summed `ReplicationReport::total_time` / objrep `makespan`, ns.
    pub busy_ns: u64,
    /// Sim latency of each installed replica (request → installed), ns.
    pub fetch_ns: Vec<u64>,
    /// Outcome counts, final sim clock included.
    pub counts: BTreeMap<&'static str, u64>,
    /// FNV-1a of the telemetry export; `None` when telemetry is disabled.
    pub export_digest: Option<u64>,
}

impl SimOutcome {
    /// Hash of the outcome counts and sim timings (no telemetry export):
    /// comparable between live and telemetry-disabled repetitions.
    pub fn counts_digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.payload_bytes.to_le_bytes());
        h = fnv1a(h, &self.busy_ns.to_le_bytes());
        for ns in &self.fetch_ns {
            h = fnv1a(h, &ns.to_le_bytes());
        }
        for (k, v) in &self.counts {
            h = fnv1a(fnv1a(h, k.as_bytes()), &v.to_le_bytes());
        }
        h
    }

    /// `sim_digest`: the telemetry export and the outcome counts together.
    pub fn digest(&self) -> u64 {
        fnv1a(self.counts_digest(), &self.export_digest.unwrap_or(0).to_le_bytes())
    }
}

/// One simulated GridFTP session the workload ran.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    pub profile: WanProfile,
    pub bytes: u64,
    pub streams: u32,
    pub buffer: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct LookupTally {
    pub lookups: u64,
    /// Lookups the central catalog answered (federation off).
    pub central: u64,
    pub confirms: u64,
    pub false_positives: u64,
    pub fallbacks: u64,
    pub scatters: u64,
}

impl LookupTally {
    pub fn add(&mut self, r: &LookupResult) {
        self.lookups += 1;
        self.confirms += u64::from(r.confirms);
        self.false_positives += u64::from(r.false_positives);
        match r.via {
            LookupVia::Fallback => self.fallbacks += 1,
            LookupVia::Scatter => self.scatters += 1,
            LookupVia::Central => self.central += 1,
            LookupVia::Local | LookupVia::Rli => {}
        }
    }
}

/// One site's storage at the end of a repetition.
#[derive(Debug, Clone)]
pub struct SiteStorage {
    pub config: StorageConfig,
    pub pool_capacity: u64,
    pub disk_hits: u64,
    pub stage_requests: u64,
    pub archive_cost_units: u64,
    pub evictions: u64,
}

#[derive(Debug, Clone, Default)]
pub struct ObjectTally {
    pub objects: usize,
    pub files: usize,
    pub objects_moved: u64,
    pub bytes_moved: u64,
    /// What file-level replication would have shipped for the same sets.
    pub cover_bytes: u64,
    /// The population behind the run and one session's object set, for
    /// the standalone `ObjectCopier::extract` probe.
    pub population: Option<Population>,
    pub probe_reads: Vec<LogicalOid>,
}

/// What the probes need to know about the state a repetition ended in.
/// Collected outside the timed phases.
#[derive(Default)]
pub struct EndState {
    pub registry: Registry,
    pub export_len: usize,
    pub sites: usize,
    pub gridmap_entries: usize,
    pub catalog_files: usize,
    pub site_names: Vec<String>,
    pub rpc_total: u64,
    pub storage: Vec<SiteStorage>,
    /// Every simulated session, from the run's own `transfer` spans and
    /// object-replication chunk files (traced run only).
    pub transfers: Vec<Transfer>,
    pub lookups: LookupTally,
    pub wrong_answers: u64,
    pub replicas: u64,
    pub attempts: u64,
    pub replicated_bytes: u64,
    /// Sim staging latency of every replication that staged, ns.
    pub stage_ns: Vec<u64>,
    pub published: u64,
    pub published_bytes: u64,
    /// Typical payload size, for the storage probes.
    pub file_size: u64,
    pub objects: ObjectTally,
}

impl EndState {
    /// The parts every workload shares, read off the finished grid.
    pub fn collect(
        grid: &mut Grid,
        configs: &[SiteConfig],
        registry: &Registry,
        want_transfers: bool,
    ) -> EndState {
        let mut end = EndState {
            registry: registry.clone(),
            site_names: configs.iter().map(|c| c.name.clone()).collect(),
            sites: grid.site_count(),
            catalog_files: grid.catalog.list().expect("central catalog lists").len(),
            rpc_total: grid.rpc_count,
            ..EndState::default()
        };
        for cfg in configs {
            let site = grid.site(&cfg.name).expect("configured site exists");
            end.gridmap_entries += site.gridmap.len();
            end.storage.push(SiteStorage {
                config: cfg.storage.clone(),
                pool_capacity: cfg.pool_capacity,
                disk_hits: site.storage.stats.disk_hits,
                stage_requests: site.storage.stats.stage_requests,
                archive_cost_units: site.storage.stats.archive_cost_units,
                evictions: site.storage.pool.stats.evictions,
            });
        }
        for r in &grid.reports {
            end.replicas += 1;
            end.attempts += u64::from(r.attempts);
            end.replicated_bytes += r.bytes;
            if r.staged {
                end.stage_ns.push(r.stage_latency.nanos());
            }
        }
        end.wrong_answers = grid.federation().map_or(0, |f| f.stats.wrong_answers);
        if want_transfers {
            end.transfers = file_transfers(grid, registry);
        }
        end
    }
}

/// Every GridFTP session `Grid::replicate` simulated, recovered from the
/// run's own telemetry: each `transfer` span names its source and the
/// bytes it asked for, and its root `replicate` span names the
/// destination.
fn file_transfers(grid: &Grid, registry: &Registry) -> Vec<Transfer> {
    let spans = registry.spans();
    let field = |s: &gdmp_telemetry::SpanRecord, key: &str| {
        s.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let mut out = Vec::new();
    for s in spans.iter().filter(|s| s.name == "transfer") {
        // Walk up to the enclosing `replicate` span for the destination.
        let mut up = s.parent;
        let dst = loop {
            let p = &spans[up.expect("transfer span sits under replicate").0 as usize - 1];
            if p.name == "replicate" {
                break field(p, "dst");
            }
            up = p.parent;
        };
        let (Some(FieldValue::Str(src)), Some(FieldValue::Str(dst)), Some(FieldValue::U64(bytes))) =
            (field(s, "source"), dst, field(s, "bytes_requested"))
        else {
            panic!("transfer span without source/dst/bytes_requested: {s:?}");
        };
        out.push(Transfer {
            profile: grid.profile_between(&src, &dst),
            bytes: bytes.max(1),
            streams: grid.params.streams,
            buffer: grid.params.buffer,
        });
    }
    out
}

/// The first steps of every repetition's setup: scenario text → parsed
/// `Scenario` → telemetry sink → built grid.
pub fn stand_up(scenario_json: &str, telemetry: bool, m: &mut Meter) -> (Scenario, Registry, Grid) {
    let scenario = m
        .call(Call::Parse, || Scenario::from_json_str(scenario_json))
        .expect("generated scenario is valid");
    let reg = if telemetry { live_registry(&scenario) } else { Registry::disabled() };
    let grid = m.call(Call::Build, || assemble(&scenario, reg.clone()));
    (scenario, reg, grid)
}

/// The check phase every repetition ends with: the `check_grid` sweep and
/// the telemetry export. Returns the invariant report, the export, and the
/// phase's host seconds; a dirty sweep is also pushed onto `errors`.
pub fn check_phase(
    grid: &mut Grid,
    reg: &Registry,
    m: &mut Meter,
    errors: &mut Vec<String>,
) -> (gdmp::InvariantReport, String, f64) {
    m.begin_phase(Phase::Check);
    let report = m.call(Call::CheckGrid, || check_grid(grid));
    let export = m.call(Call::Export, || reg.export_json_lines());
    let check_s = m.end_phase();
    if !report.is_clean() {
        let first = report.violations.first().map_or(String::new(), ToString::to_string);
        errors.push(format!("check_grid: {} violations, first: {first}", report.violations.len()));
    }
    (report, export, check_s)
}

/// `SimOutcome::export_digest` of an export (`None` with telemetry off).
pub fn export_digest(telemetry: bool, export: &str) -> Option<u64> {
    telemetry.then(|| fnv1a(FNV_OFFSET, export.as_bytes()))
}

/// A healthy grid of explicitly named classic-tape sites `(name, org,
/// key_seed)` on the production WAN profile: no federation, no recovery
/// strategy, no faults. For the workloads that run their own op stream and
/// take only the grid description from the scenario text.
pub fn plain_scenario(name: &str, seed: u64, sites: &[(&str, &str, u64)]) -> Scenario {
    Scenario {
        name: name.to_string(),
        seed,
        topology: Topology::Explicit {
            sites: sites
                .iter()
                .map(|&(name, org, key_seed)| SiteDecl {
                    name: name.to_string(),
                    org: org.to_string(),
                    key_seed,
                    pool_capacity: None,
                    storage: StorageDecl::ClassicTape,
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
            collection: name.to_string(),
            recovery: false,
            breaker: false,
            federation: false,
            fetch_policy: PolicyDecl::Default,
            trust_all: true,
            full_mesh_subscriptions: false,
        },
        telemetry: TelemetryDecl {
            recorder_capacity: None,
            timeseries_bucket_ns: None,
            timeseries_after_build: false,
        },
        faults: Faults::None,
        // The schema wants a workload; the driver runs its own op stream,
        // so this one is only there to satisfy the parser.
        workload: WorkloadDecl::Fetch {
            size: 0,
            lfn: "unused".to_string(),
            dst: sites[1].0.to_string(),
            sources: vec![sites[0].0.to_string()],
            t0_ns: 0,
            settle_ns: 0,
        },
    }
}

/// `seed`-filled payload of `len` bytes (xorshift words; fast enough that
/// generating 100 MB is small beside publishing it).
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = mix(seed, 0x5EED) | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}
