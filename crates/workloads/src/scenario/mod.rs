//! Declarative scenario DSL: one JSON file describes a whole experiment —
//! sites (with per-site storage backends), WAN links, fault timelines, and
//! the workload mix — and compiles deterministically into a
//! [`gdmp::GridBuilder`], its fault schedule and one of the workload loops
//! in [`run_scenario`]. The committed files under `scenarios/` are the
//! presets ([`Scenario::preset`]): every experiment of `figures`, of the
//! `BENCH_*.json` baselines and of the tests is a preset, or a preset with
//! a field changed — a fetch policy or crash ([`Scenario::with_policy`],
//! [`Scenario::with_striped_policy`], [`Scenario::with_fastest_source_crash`]),
//! or the pub `seed` and `faults`.
//!
//! Parsing is strict: unknown fields, malformed values, and dangling site
//! references are rejected with actionable errors naming the offending
//! field and what was expected — a typo in a scenario file fails loudly
//! instead of silently running a different experiment.

mod codec;
mod compile;
mod run;

pub use run::{
    run_catalog_scenario, run_fetch_scenario, run_grid_scenario, run_scenario, run_soak_scenario,
    CatalogSoakOutcome, FetchOutcome, GridSoakOutcome, ScenarioOutcome, SoakOutcome,
};

use std::fmt;

use gdmp::chaos::{ChaosPlan, FaultEvent, FaultSchedule};
use gdmp::prelude::*;
use gdmp_simnet::link::LinkSpec;
use serde::{DeError, Deserialize, Value};
use std::result::Result;

use crate::grid::GridSoakSpec;

/// Why a scenario failed to load, parse, validate, or run.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// The file could not be read.
    Io { path: String, message: String },
    /// The text is not JSON.
    Parse(String),
    /// The JSON does not match the schema (unknown field, wrong type,
    /// out-of-range value). The message names the field and the fix.
    Schema(String),
    /// A section references something that does not exist (a site name,
    /// a workload/topology shape mismatch).
    Reference(String),
    /// The scenario is well-formed but the requested runner cannot
    /// execute it (e.g. a fetch runner handed a soak workload).
    Workload(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario `{path}`: {message}")
            }
            ScenarioError::Parse(m) => write!(f, "scenario is not valid JSON: {m}"),
            ScenarioError::Schema(m) => write!(f, "scenario schema error: {m}"),
            ScenarioError::Reference(m) => write!(f, "scenario reference error: {m}"),
            ScenarioError::Workload(m) => write!(f, "scenario workload error: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

/// One declarative experiment: everything [`run_scenario`] needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (also the default output label).
    pub name: String,
    /// The one seed: retry jitter, the seeded chaos plan, and the
    /// workload's RNG streams are all derived from it.
    pub seed: u64,
    pub topology: Topology,
    pub links: Links,
    pub control: Control,
    pub telemetry: TelemetryDecl,
    pub faults: Faults,
    pub workload: WorkloadDecl,
}

/// The site set. Generated shapes name sites exactly like the hard-coded
/// workloads did, so a generated topology replays their runs bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Every site spelled out.
    Explicit { sites: Vec<SiteDecl> },
    /// `count` sites named `{prefix}{i}` (zero-padded to `pad` digits when
    /// `pad > 0`), org `{name}.grid`, key seeds `key_seed_base + i`.
    Flat { count: usize, prefix: String, pad: usize, key_seed_base: u64, storage: StorageDecl },
    /// The Tier-0/1/2 LHC shape of [`crate::grid`]: one `t0-core`, `tier1`
    /// regions `t1-rNN`, and `tier2_per_tier1` leaves `t2-rNN-sNN` each.
    Tiered { tier1: usize, tier2_per_tier1: usize, key_seed_base: u64, storage: StorageDecl },
}

/// One explicitly declared site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDecl {
    pub name: String,
    pub org: String,
    pub key_seed: u64,
    /// Disk pool bytes; `None` keeps the [`SiteConfig::named`] default.
    pub pool_capacity: Option<u64>,
    /// Archive tier behind the pool, selected per site.
    pub storage: StorageDecl,
}

/// Per-site archive medium selection — the scenario-schema face of
/// [`StorageConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum StorageDecl {
    /// [`StorageConfig::classic_tape`], the historical default.
    ClassicTape,
    Tape {
        mount_ms: u64,
        seek_bytes_per_sec: u64,
        stream_bytes_per_sec: u64,
        drives: usize,
        tape_capacity: u64,
    },
    DiskArray {
        capacity: u64,
        op_latency_us: u64,
        stream_bytes_per_sec: u64,
    },
    ObjectStore {
        rtt_us: u64,
        stream_bytes_per_sec: u64,
        cost_per_request: u64,
        cost_per_mib: u64,
    },
}

impl StorageDecl {
    pub fn to_config(&self) -> StorageConfig {
        match *self {
            StorageDecl::ClassicTape => StorageConfig::classic_tape(),
            StorageDecl::Tape {
                mount_ms,
                seek_bytes_per_sec,
                stream_bytes_per_sec,
                drives,
                tape_capacity,
            } => StorageConfig::Tape(TapeSpec {
                mount_time: SimDuration::from_millis(mount_ms),
                seek_bytes_per_sec,
                stream_bytes_per_sec,
                drives,
                tape_capacity,
            }),
            StorageDecl::DiskArray { capacity, op_latency_us, stream_bytes_per_sec } => {
                StorageConfig::DiskArray(DiskArraySpec {
                    capacity,
                    op_latency: SimDuration::from_micros(op_latency_us),
                    stream_bytes_per_sec,
                })
            }
            StorageDecl::ObjectStore {
                rtt_us,
                stream_bytes_per_sec,
                cost_per_request,
                cost_per_mib,
            } => StorageConfig::ObjectStore(ObjectStoreSpec {
                rtt: SimDuration::from_micros(rtt_us),
                stream_bytes_per_sec,
                cost_per_request,
                cost_per_mib,
            }),
        }
    }
}

/// The WAN fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Links {
    /// Profile for every pair without an explicit edge.
    pub default: ProfileDecl,
    /// Inert, always 1, never read from or written to a file: the field is
    /// spelled only by `benchmark/`, frozen in this PR (see ROADMAP).
    pub workers: usize,
    /// Per-pair overrides, installed in both directions at build time.
    pub edges: Vec<EdgeDecl>,
    /// Tier-0↔1 / Tier-1↔2 overlay for [`Topology::Tiered`], installed
    /// after build in region order.
    pub tiered: Option<TieredLinks>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ProfileDecl {
    /// [`WanProfile::cern_anl_production`].
    CernAnlProduction,
    /// [`WanProfile::clean`] over one [`LinkSpec`].
    Clean { rate_bps: u64, one_way_us: u64, queue: usize },
}

impl ProfileDecl {
    pub fn to_profile(&self) -> WanProfile {
        match *self {
            ProfileDecl::CernAnlProduction => WanProfile::cern_anl_production(),
            ProfileDecl::Clean { rate_bps, one_way_us, queue } => WanProfile::clean(LinkSpec {
                rate_bps,
                propagation: SimDuration::from_micros(one_way_us),
                queue_capacity: queue,
            }),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDecl {
    pub a: String,
    pub b: String,
    pub profile: ProfileDecl,
}

#[derive(Debug, Clone, PartialEq)]
pub struct TieredLinks {
    pub backbone: ProfileDecl,
    pub regional: ProfileDecl,
}

/// Grid-level switches that map one-to-one onto [`gdmp::GridBuilder`]
/// calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Control {
    /// Replica-catalog collection name.
    pub collection: String,
    /// Install `BackoffRetry(scenario.seed)` as the recovery strategy.
    pub recovery: bool,
    /// Arm the default circuit breaker.
    pub breaker: bool,
    /// Federate the replica catalog with `FederationConfig::default()`.
    pub federation: bool,
    pub fetch_policy: PolicyDecl,
    pub trust_all: bool,
    /// Build-time full-mesh subscriptions (everyone consumes everyone).
    pub full_mesh_subscriptions: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum PolicyDecl {
    /// Leave the grid's default policy untouched.
    Default,
    Single,
    Multi {
        max_sources: usize,
        min_chunk: u64,
    },
}

impl PolicyDecl {
    /// The policy to install, or `None` for [`PolicyDecl::Default`].
    pub fn to_policy(&self) -> Option<FetchPolicy> {
        match *self {
            PolicyDecl::Default => None,
            PolicyDecl::Single => Some(FetchPolicy::SingleSource),
            PolicyDecl::Multi { max_sources, min_chunk } => {
                Some(FetchPolicy::MultiSource { max_sources, min_chunk })
            }
        }
    }
}

/// How the run's registry is created and when its time-series switch on.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDecl {
    /// Flight-recorder ring size; `None` uses `Registry::new()`.
    pub recorder_capacity: Option<usize>,
    /// Sim-time series bucket width; `None` leaves time-series off.
    pub timeseries_bucket_ns: Option<u64>,
    /// Enable the series after `build()` instead of before (the fetch
    /// scenario excludes build-time traffic from its timeline).
    pub timeseries_after_build: bool,
}

/// The fault plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Faults {
    /// No schedule installed at all.
    None,
    /// An empty schedule installed (the chaos-inertness contract).
    Empty,
    /// A [`gdmp::ChaosPlan`] derived from the scenario seed; with
    /// `catalog_chaos` it also crashes RLI nodes, loses updates, and
    /// delays catalog answers.
    Seeded { catalog_chaos: Option<CatalogChaosDecl> },
    /// Explicit events at absolute sim times.
    Timeline { events: Vec<TimelineEvent> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogChaosDecl {
    pub crashes: usize,
    pub losses: usize,
    pub delays: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    pub at_ns: u64,
    pub event: EventDecl,
}

/// The scenario-schema face of [`gdmp::FaultEvent`] (the subset with a
/// stable declarative shape).
#[derive(Debug, Clone, PartialEq)]
pub enum EventDecl {
    SiteDown { site: String },
    SiteUp { site: String },
    LinkDown { from: String, to: String, both_ways: bool },
    LinkUp { from: String, to: String, both_ways: bool },
}

impl EventDecl {
    fn to_event(&self) -> FaultEvent {
        match self {
            EventDecl::SiteDown { site } => FaultEvent::SiteDown { site: site.clone() },
            EventDecl::SiteUp { site } => FaultEvent::SiteUp { site: site.clone() },
            EventDecl::LinkDown { from, to, both_ways } => {
                FaultEvent::LinkDown { from: from.clone(), to: to.clone(), both_ways: *both_ways }
            }
            EventDecl::LinkUp { from, to, both_ways } => {
                FaultEvent::LinkUp { from: from.clone(), to: to.clone(), both_ways: *both_ways }
            }
        }
    }
}

/// What the experiment actually does once the grid stands.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadDecl {
    /// One measured fetch (the `fetch*` presets): seed replicas at every
    /// source, park the clock at `t0_ns`, measure one replicate into
    /// `dst`. With a fault timeline, advance `settle_ns` afterwards and
    /// run recovery before the invariant sweep.
    Fetch { size: u64, lfn: String, dst: String, sources: Vec<String>, t0_ns: u64, settle_ns: u64 },
    /// The publish/replicate chaos soak (`soak_quick`): alternating
    /// publishers on a full mesh, then heal, drain and sweep the
    /// invariants.
    ReplicationSoak { rounds: usize, file_size: u64, round_gap_ns: u64, drain_rounds: usize },
    /// The federated-catalog lookup soak (`catalog_*`): one owner per
    /// file, Zipf lookups under the fault plan, never a wrong answer.
    CatalogSoak {
        files_per_site: usize,
        lookup_rounds: usize,
        lookups_per_round: usize,
        zipf_alpha: f64,
        file_size: u64,
        round_gap_ns: u64,
    },
    /// The Tier-0/1/2 control-plane mix of [`crate::grid`] (`grid_*`).
    GridSoak {
        files_per_site: usize,
        rounds: usize,
        ops_per_round: usize,
        zipf_alpha: f64,
        file_size: usize,
        round_gap_ns: u64,
    },
}

impl WorkloadDecl {
    /// Short kind label (`"fetch"`, `"replication_soak"`, ...).
    pub fn kind(&self) -> &'static str {
        codec::kind_name(self, &WorkloadDecl::kinds())
    }
}

// ---------------------------------------------------------------------------
// Topology expansion
// ---------------------------------------------------------------------------

impl Topology {
    /// Deterministic site names, in declaration/generation order.
    pub fn site_names(&self) -> Vec<String> {
        match self {
            Topology::Explicit { sites } => sites.iter().map(|s| s.name.clone()).collect(),
            Topology::Flat { count, prefix, pad, .. } => {
                (0..*count).map(|i| flat_name(prefix, *pad, i)).collect()
            }
            Topology::Tiered { tier1, tier2_per_tier1, .. } => {
                let mut names = Vec::with_capacity(1 + tier1 + tier1 * tier2_per_tier1);
                names.push("t0-core".to_string());
                for r in 0..*tier1 {
                    names.push(format!("t1-r{r:02}"));
                    for s in 0..*tier2_per_tier1 {
                        names.push(format!("t2-r{r:02}-s{s:02}"));
                    }
                }
                names
            }
        }
    }

    /// The [`SiteConfig`]s the builder is fed, in the same order.
    pub fn site_configs(&self) -> Vec<SiteConfig> {
        match self {
            Topology::Explicit { sites } => sites
                .iter()
                .map(|s| {
                    let mut cfg = SiteConfig::named(&s.name, &s.org, s.key_seed)
                        .with_storage(s.storage.to_config());
                    if let Some(pool) = s.pool_capacity {
                        cfg = cfg.with_pool(pool);
                    }
                    cfg
                })
                .collect(),
            Topology::Flat { count, prefix, pad, key_seed_base, storage } => (0..*count)
                .map(|i| {
                    let name = flat_name(prefix, *pad, i);
                    SiteConfig::named(&name, &format!("{name}.grid"), key_seed_base + i as u64)
                        .with_storage(storage.to_config())
                })
                .collect(),
            Topology::Tiered { key_seed_base, storage, .. } => self
                .site_names()
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    SiteConfig::named(name, &format!("{name}.grid"), key_seed_base + i as u64)
                        .with_storage(storage.to_config())
                })
                .collect(),
        }
    }
}

fn flat_name(prefix: &str, pad: usize, i: usize) -> String {
    if pad == 0 {
        format!("{prefix}{i}")
    } else {
        format!("{prefix}{i:0pad$}")
    }
}

// ---------------------------------------------------------------------------
// Presets: the committed `scenarios/*.json` files
// ---------------------------------------------------------------------------

/// Every committed scenario file, by file stem, compiled in.
const PRESETS: [(&str, &str); 8] = [
    ("catalog_full", include_str!("../../../../scenarios/catalog_full.json")),
    ("catalog_quick", include_str!("../../../../scenarios/catalog_quick.json")),
    ("fetch", include_str!("../../../../scenarios/fetch.json")),
    ("fetch_striped_crash", include_str!("../../../../scenarios/fetch_striped_crash.json")),
    ("grid_at_scale_200", include_str!("../../../../scenarios/grid_at_scale_200.json")),
    ("grid_full", include_str!("../../../../scenarios/grid_full.json")),
    ("grid_quick", include_str!("../../../../scenarios/grid_quick.json")),
    ("soak_quick", include_str!("../../../../scenarios/soak_quick.json")),
];

impl Scenario {
    /// The committed experiment `scenarios/<name>.json`, parsed and
    /// validated; a sweep loads one and changes a field.
    pub fn preset(name: &str) -> Result<Scenario, ScenarioError> {
        let (_, text) = PRESETS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
            let names: Vec<&str> = PRESETS.iter().map(|(n, _)| *n).collect();
            ScenarioError::Reference(format!(
                "unknown preset `{name}` (accepted presets: {})",
                names.join(", ")
            ))
        })?;
        Self::from_json_str(text)
    }

    /// The Tier-0/1/2 control-plane soak at the shape `spec` describes:
    /// `grid_quick`, `grid_full` and `grid_at_scale_200` are this at
    /// [`GridSoakSpec::quick`], [`GridSoakSpec::full`] and
    /// [`GridSoakSpec::at_scale`]`(200)`. `benchmark/` builds its
    /// `grid_mix` input through it.
    pub fn grid_soak(spec: &GridSoakSpec) -> Scenario {
        Scenario {
            name: "grid-soak".to_string(),
            seed: spec.seed,
            topology: Topology::Tiered {
                tier1: spec.tier1,
                tier2_per_tier1: spec.tier2_per_tier1,
                key_seed_base: 700,
                storage: StorageDecl::ClassicTape,
            },
            links: Links {
                default: ProfileDecl::CernAnlProduction,
                workers: 1,
                edges: Vec::new(),
                tiered: Some(TieredLinks {
                    backbone: ProfileDecl::Clean {
                        rate_bps: 155_000_000,
                        one_way_us: 25_000,
                        queue: 256,
                    },
                    regional: ProfileDecl::Clean {
                        rate_bps: 100_000_000,
                        one_way_us: 5_000,
                        queue: 128,
                    },
                }),
            },
            control: Control {
                collection: "grid-soak".to_string(),
                recovery: true,
                breaker: true,
                federation: true,
                fetch_policy: PolicyDecl::Default,
                trust_all: true,
                full_mesh_subscriptions: false,
            },
            telemetry: TelemetryDecl {
                recorder_capacity: Some(16384),
                timeseries_bucket_ns: None,
                timeseries_after_build: false,
            },
            faults: Faults::None,
            workload: WorkloadDecl::GridSoak {
                files_per_site: spec.files_per_site,
                rounds: spec.rounds,
                ops_per_round: spec.ops_per_round,
                zipf_alpha: spec.zipf_alpha,
                file_size: spec.file_size,
                round_gap_ns: spec.round_gap.nanos(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep mutators: variants of a loaded preset
// ---------------------------------------------------------------------------

impl Scenario {
    /// Replace the installed fetch policy (for the `figures fetch` sweep).
    pub fn with_policy(mut self, policy: FetchPolicy) -> Scenario {
        self.control.fetch_policy = match policy {
            FetchPolicy::SingleSource => PolicyDecl::Single,
            FetchPolicy::MultiSource { max_sources, min_chunk } => {
                PolicyDecl::Multi { max_sources, min_chunk }
            }
        };
        self
    }

    /// The canonical mid-fetch crash: the first source dies 3 s into the
    /// measured window and restarts 600 s later (the `figures fetch` crash
    /// variant; the `fetch_striped_crash` preset is `fetch` with this and
    /// [`Scenario::with_striped_policy`]).
    pub fn with_fastest_source_crash(mut self) -> Result<Scenario, ScenarioError> {
        let WorkloadDecl::Fetch { sources, t0_ns, .. } = &self.workload else {
            return Err(wrong_workload("fetch", &self.workload));
        };
        let fastest = sources
            .first()
            .ok_or_else(|| {
                ScenarioError::Reference("fetch workload has no sources to crash".to_string())
            })?
            .clone();
        self.faults = Faults::Timeline {
            events: vec![
                TimelineEvent {
                    at_ns: t0_ns + SimDuration::from_secs(3).nanos(),
                    event: EventDecl::SiteDown { site: fastest.clone() },
                },
                TimelineEvent {
                    at_ns: t0_ns + SimDuration::from_secs(600).nanos(),
                    event: EventDecl::SiteUp { site: fastest },
                },
            ],
        };
        Ok(self)
    }

    /// The striped multi-source policy used across the figures: three
    /// sources in 2 MB chunks. The chunk quantum keeps the per-source
    /// queues balanceable (fine-grained work stealing) while staying cheap:
    /// only the first chunk per source pays session setup and TCP
    /// slow-start — later chunks ride the warm data channels.
    pub fn with_striped_policy(self) -> Scenario {
        self.with_policy(FetchPolicy::MultiSource { max_sources: 3, min_chunk: 2 * crate::MB })
    }
}

fn not_positive(path: &str, field: &str) -> ScenarioError {
    ScenarioError::Schema(format!("{path}.{field} must be a positive integer, got 0"))
}

fn wrong_workload(want: &str, got: &WorkloadDecl) -> ScenarioError {
    ScenarioError::Workload(format!(
        "this runner needs a `{want}` workload, but the scenario declares `{}`",
        got.kind()
    ))
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

impl Scenario {
    /// Cross-reference checks over a structurally valid scenario. Every
    /// failure names what is wrong and what would fix it.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let names = self.topology.site_names();
        let known = |n: &str| names.iter().any(|k| k == n);
        let known_list = || {
            let shown: Vec<&str> = names.iter().take(8).map(String::as_str).collect();
            let more = if names.len() > 8 { ", ..." } else { "" };
            format!("{}{}", shown.join(", "), more)
        };
        if names.is_empty() {
            return Err(ScenarioError::Reference("topology declares no sites".to_string()));
        }
        {
            let mut seen = std::collections::BTreeSet::new();
            for n in &names {
                if !seen.insert(n) {
                    return Err(ScenarioError::Reference(format!(
                        "topology declares site `{n}` more than once"
                    )));
                }
            }
        }
        if self.links.workers != 1 {
            return Err(ScenarioError::Schema(
                "links.workers must be 1: the simulator has one engine".to_string(),
            ));
        }
        for (i, e) in self.links.edges.iter().enumerate() {
            for end in [&e.a, &e.b] {
                if !known(end) {
                    return Err(ScenarioError::Reference(format!(
                        "links.edges[{i}] references site `{end}` which is not in the \
                         topology (known sites: {})",
                        known_list()
                    )));
                }
            }
        }
        // Zero rates, drives and queue depths panic inside the model.
        let storages: Vec<(String, &StorageDecl)> = match &self.topology {
            Topology::Explicit { sites } => sites
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("topology.sites[{i}].storage"), &s.storage))
                .collect(),
            Topology::Flat { storage, .. } | Topology::Tiered { storage, .. } => {
                vec![("topology.storage".to_string(), storage)]
            }
        };
        for (path, storage) in storages {
            let zero = match *storage {
                StorageDecl::Tape { drives: 0, .. } => "drives",
                StorageDecl::Tape { seek_bytes_per_sec: 0, .. } => "seek_bytes_per_sec",
                StorageDecl::Tape { stream_bytes_per_sec: 0, .. }
                | StorageDecl::DiskArray { stream_bytes_per_sec: 0, .. }
                | StorageDecl::ObjectStore { stream_bytes_per_sec: 0, .. } => {
                    "stream_bytes_per_sec"
                }
                _ => continue,
            };
            return Err(not_positive(&path, zero));
        }
        let edges = self.links.edges.iter().enumerate();
        let tiered = self
            .links
            .tiered
            .iter()
            .flat_map(|t| [("backbone", &t.backbone), ("regional", &t.regional)]);
        let profiles = std::iter::once(("links.default".to_string(), &self.links.default))
            .chain(edges.map(|(i, e)| (format!("links.edges[{i}].profile"), &e.profile)))
            .chain(tiered.map(|(tier, p)| (format!("links.tiered.{tier}"), p)));
        for (path, profile) in profiles {
            let zero = match *profile {
                ProfileDecl::Clean { rate_bps: 0, .. } => "rate_bps",
                ProfileDecl::Clean { queue: 0, .. } => "queue",
                _ => continue,
            };
            return Err(not_positive(&path, zero));
        }
        if self.links.tiered.is_some() && !matches!(self.topology, Topology::Tiered { .. }) {
            return Err(ScenarioError::Reference(
                "links.tiered requires the `tiered` topology (it wires t0↔t1 and t1↔t2 \
                 pairs that only exist there)"
                    .to_string(),
            ));
        }
        if let Faults::Timeline { events } = &self.faults {
            for (i, ev) in events.iter().enumerate() {
                let sites: Vec<&String> = match &ev.event {
                    EventDecl::SiteDown { site } | EventDecl::SiteUp { site } => vec![site],
                    EventDecl::LinkDown { from, to, .. } | EventDecl::LinkUp { from, to, .. } => {
                        vec![from, to]
                    }
                };
                for s in sites {
                    if !known(s) {
                        return Err(ScenarioError::Reference(format!(
                            "faults.events[{i}] references site `{s}` which is not in the \
                             topology (known sites: {})",
                            known_list()
                        )));
                    }
                }
            }
        }
        if let Faults::Seeded { catalog_chaos: Some(_) } = &self.faults {
            if !self.control.federation {
                return Err(ScenarioError::Reference(
                    "faults.catalog_chaos targets RLI nodes, which only exist with \
                     control.federation = true"
                        .to_string(),
                ));
            }
        }
        match &self.workload {
            WorkloadDecl::Fetch { dst, sources, .. } => {
                if sources.is_empty() {
                    return Err(ScenarioError::Reference(
                        "workload.sources must name at least one source site".to_string(),
                    ));
                }
                for s in sources.iter().chain(std::iter::once(dst)) {
                    if !known(s) {
                        return Err(ScenarioError::Reference(format!(
                            "workload references site `{s}` which is not in the topology \
                             (known sites: {})",
                            known_list()
                        )));
                    }
                }
                if sources.iter().any(|s| s == dst) {
                    return Err(ScenarioError::Reference(format!(
                        "workload.dst `{dst}` also appears in workload.sources; a site \
                         cannot fetch from itself"
                    )));
                }
            }
            WorkloadDecl::CatalogSoak { zipf_alpha, .. }
            | WorkloadDecl::GridSoak { zipf_alpha, .. } => {
                if !zipf_alpha.is_finite() || *zipf_alpha <= 0.0 {
                    return Err(ScenarioError::Schema(format!(
                        "workload.zipf_alpha must be a finite positive number, got {zipf_alpha}"
                    )));
                }
                if matches!(self.workload, WorkloadDecl::CatalogSoak { .. })
                    && !self.control.federation
                {
                    return Err(ScenarioError::Reference(
                        "a catalog_soak workload exercises the federation ladder; set \
                         control.federation = true"
                            .to_string(),
                    ));
                }
            }
            WorkloadDecl::ReplicationSoak { .. } => {}
        }
        Ok(())
    }

    /// Compile the fault section into the schedule the builder installs,
    /// plus its debug rendering (empty for [`Faults::None`]).
    pub(crate) fn fault_schedule(&self, names: &[String]) -> (Option<FaultSchedule>, String) {
        match &self.faults {
            Faults::None => (None, String::new()),
            Faults::Empty => (Some(FaultSchedule::new()), String::new()),
            Faults::Seeded { catalog_chaos } => {
                let mut plan = ChaosPlan::new(self.seed, names);
                if let Some(c) = catalog_chaos {
                    // The RLI topology is a pure function of the site set,
                    // so a throwaway federation names the chaos targets.
                    let rli_nodes = FederatedCatalog::new(names).node_names();
                    plan = plan.with_catalog_chaos(
                        &rli_nodes,
                        c.crashes as u32,
                        c.losses as u32,
                        c.delays as u32,
                    );
                }
                let schedule = plan.schedule();
                let debug = format!("{schedule}");
                (Some(schedule), debug)
            }
            Faults::Timeline { events } => {
                let mut schedule = FaultSchedule::new();
                for ev in events {
                    schedule.push(
                        SimTime::ZERO + SimDuration::from_nanos(ev.at_ns),
                        ev.event.to_event(),
                    );
                }
                (Some(schedule), String::new())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loading and saving
// ---------------------------------------------------------------------------

impl Scenario {
    /// Read, parse, and validate a scenario file.
    pub fn load(path: &str) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io { path: path.to_string(), message: e.to_string() })?;
        Self::from_json_str(&text)
    }

    /// Parse and validate scenario JSON.
    pub fn from_json_str(text: &str) -> Result<Scenario, ScenarioError> {
        let value: Value = json_parse(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        let scenario = codec::read(&value)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Canonical pretty-printed JSON; `from_json_str` of this text yields
    /// an identical scenario (the round-trip contract).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization is infallible")
    }
}

/// Parse raw JSON text into a [`Value`] (the shim's `from_str` needs a
/// `Deserialize` target, and `Value` itself is the target here).
fn json_parse(text: &str) -> Result<Value, DeError> {
    struct Raw(Value);
    impl Deserialize for Raw {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            Ok(Raw(v.clone()))
        }
    }
    serde_json::from_str::<Raw>(text).map(|r| r.0).map_err(DeError::custom)
}

#[cfg(test)]
mod props;
#[cfg(test)]
mod tests;
