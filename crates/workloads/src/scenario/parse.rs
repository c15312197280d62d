//! Strict structural parsing of scenario JSON. Every object is checked
//! against its allowed field set — an unknown key is an error naming the
//! key, the section, and the accepted fields — and every value is
//! type-checked with its JSON path in the message.

use serde::Value;

use super::{
    CatalogChaosDecl, Control, EdgeDecl, EventDecl, Faults, Links, PolicyDecl, ProfileDecl,
    Scenario, ScenarioError, SiteDecl, StorageDecl, TelemetryDecl, TieredLinks, TimelineEvent,
    Topology, WorkloadDecl,
};

type Fields = [(String, Value)];

fn obj<'v>(v: &'v Value, ctx: &str) -> Result<&'v Fields, ScenarioError> {
    match v {
        Value::Object(fields) => Ok(fields),
        other => Err(ScenarioError::Schema(format!(
            "{ctx} must be a JSON object, got {}",
            kind_of(other)
        ))),
    }
}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) | Value::UInt(_) => "integer",
        Value::Float(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Reject any key outside `allowed`, naming the section and the schema.
fn reject_unknown(fields: &Fields, allowed: &[&str], ctx: &str) -> Result<(), ScenarioError> {
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::Schema(format!(
                "unknown field `{key}` in {ctx} (accepted fields: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn get<'v>(fields: &'v Fields, key: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require<'v>(fields: &'v Fields, key: &str, ctx: &str) -> Result<&'v Value, ScenarioError> {
    get(fields, key)
        .ok_or_else(|| ScenarioError::Schema(format!("missing required field `{key}` in {ctx}")))
}

fn str_field(fields: &Fields, key: &str, ctx: &str) -> Result<String, ScenarioError> {
    match require(fields, key, ctx)? {
        Value::String(s) => Ok(s.clone()),
        other => Err(type_err(key, ctx, "string", other)),
    }
}

fn u64_field(fields: &Fields, key: &str, ctx: &str) -> Result<u64, ScenarioError> {
    u64_value(require(fields, key, ctx)?, key, ctx)
}

fn u64_value(v: &Value, key: &str, ctx: &str) -> Result<u64, ScenarioError> {
    match v {
        Value::UInt(n) => Ok(*n),
        Value::Int(n) if *n >= 0 => Ok(*n as u64),
        other => Err(type_err(key, ctx, "non-negative integer", other)),
    }
}

fn usize_field(fields: &Fields, key: &str, ctx: &str) -> Result<usize, ScenarioError> {
    Ok(u64_field(fields, key, ctx)? as usize)
}

fn f64_field(fields: &Fields, key: &str, ctx: &str) -> Result<f64, ScenarioError> {
    match require(fields, key, ctx)? {
        Value::Float(f) => Ok(*f),
        Value::UInt(n) => Ok(*n as f64),
        Value::Int(n) => Ok(*n as f64),
        other => Err(type_err(key, ctx, "number", other)),
    }
}

/// Optional field: absent or `null` both mean "not set".
fn opt<'v>(fields: &'v Fields, key: &str) -> Option<&'v Value> {
    match get(fields, key) {
        None | Some(Value::Null) => None,
        Some(v) => Some(v),
    }
}

fn type_err(key: &str, ctx: &str, want: &str, got: &Value) -> ScenarioError {
    ScenarioError::Schema(format!("field `{key}` in {ctx} must be a {want}, got {}", kind_of(got)))
}

/// Every tagged union in the schema uses a `kind` discriminator.
fn kind_field<'v>(
    fields: &'v Fields,
    ctx: &str,
    accepted: &[&str],
) -> Result<&'v str, ScenarioError> {
    match require(fields, "kind", ctx)? {
        Value::String(s) => {
            if accepted.contains(&s.as_str()) {
                Ok(s)
            } else {
                Err(ScenarioError::Schema(format!(
                    "unknown kind `{s}` in {ctx} (accepted kinds: {})",
                    accepted.join(", ")
                )))
            }
        }
        other => Err(type_err("kind", ctx, "string", other)),
    }
}

pub(super) fn scenario(v: &Value) -> Result<Scenario, ScenarioError> {
    let fields = obj(v, "the scenario")?;
    reject_unknown(
        fields,
        &["name", "seed", "topology", "links", "control", "telemetry", "faults", "workload"],
        "the scenario",
    )?;
    Ok(Scenario {
        name: str_field(fields, "name", "the scenario")?,
        seed: u64_field(fields, "seed", "the scenario")?,
        topology: topology(require(fields, "topology", "the scenario")?)?,
        links: links(require(fields, "links", "the scenario")?)?,
        control: control(require(fields, "control", "the scenario")?)?,
        telemetry: telemetry(require(fields, "telemetry", "the scenario")?)?,
        faults: faults(require(fields, "faults", "the scenario")?)?,
        workload: workload(require(fields, "workload", "the scenario")?)?,
    })
}

fn topology(v: &Value) -> Result<Topology, ScenarioError> {
    let ctx = "`topology`";
    let fields = obj(v, ctx)?;
    match kind_field(fields, ctx, &["explicit", "flat", "tiered"])? {
        "explicit" => {
            reject_unknown(fields, &["kind", "sites"], ctx)?;
            let sites = match require(fields, "sites", ctx)? {
                Value::Array(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, s)| site_decl(s, i))
                    .collect::<Result<Vec<_>, _>>()?,
                other => return Err(type_err("sites", ctx, "array", other)),
            };
            Ok(Topology::Explicit { sites })
        }
        "flat" => {
            reject_unknown(
                fields,
                &["kind", "count", "prefix", "pad", "key_seed_base", "storage"],
                ctx,
            )?;
            Ok(Topology::Flat {
                count: usize_field(fields, "count", ctx)?,
                prefix: str_field(fields, "prefix", ctx)?,
                pad: match opt(fields, "pad") {
                    Some(v) => u64_value(v, "pad", ctx)? as usize,
                    None => 0,
                },
                key_seed_base: u64_field(fields, "key_seed_base", ctx)?,
                storage: storage_or_default(fields, ctx)?,
            })
        }
        "tiered" => {
            reject_unknown(
                fields,
                &["kind", "tier1", "tier2_per_tier1", "key_seed_base", "storage"],
                ctx,
            )?;
            Ok(Topology::Tiered {
                tier1: usize_field(fields, "tier1", ctx)?,
                tier2_per_tier1: usize_field(fields, "tier2_per_tier1", ctx)?,
                key_seed_base: u64_field(fields, "key_seed_base", ctx)?,
                storage: storage_or_default(fields, ctx)?,
            })
        }
        _ => unreachable!("kind_field filters"),
    }
}

fn site_decl(v: &Value, i: usize) -> Result<SiteDecl, ScenarioError> {
    let ctx = format!("`topology.sites[{i}]`");
    let fields = obj(v, &ctx)?;
    reject_unknown(fields, &["name", "org", "key_seed", "pool_capacity", "storage"], &ctx)?;
    Ok(SiteDecl {
        name: str_field(fields, "name", &ctx)?,
        org: str_field(fields, "org", &ctx)?,
        key_seed: u64_field(fields, "key_seed", &ctx)?,
        pool_capacity: match opt(fields, "pool_capacity") {
            Some(v) => Some(u64_value(v, "pool_capacity", &ctx)?),
            None => None,
        },
        storage: storage_or_default(fields, &ctx)?,
    })
}

fn storage_or_default(fields: &Fields, ctx: &str) -> Result<StorageDecl, ScenarioError> {
    match opt(fields, "storage") {
        Some(v) => storage(v, ctx),
        None => Ok(StorageDecl::ClassicTape),
    }
}

fn storage(v: &Value, parent: &str) -> Result<StorageDecl, ScenarioError> {
    let ctx = format!("{parent}.storage");
    let fields = obj(v, &ctx)?;
    match kind_field(fields, &ctx, &["classic_tape", "tape", "disk_array", "object_store"])? {
        "classic_tape" => {
            reject_unknown(fields, &["kind"], &ctx)?;
            Ok(StorageDecl::ClassicTape)
        }
        "tape" => {
            reject_unknown(
                fields,
                &[
                    "kind",
                    "mount_ms",
                    "seek_bytes_per_sec",
                    "stream_bytes_per_sec",
                    "drives",
                    "tape_capacity",
                ],
                &ctx,
            )?;
            Ok(StorageDecl::Tape {
                mount_ms: u64_field(fields, "mount_ms", &ctx)?,
                seek_bytes_per_sec: u64_field(fields, "seek_bytes_per_sec", &ctx)?,
                stream_bytes_per_sec: u64_field(fields, "stream_bytes_per_sec", &ctx)?,
                drives: usize_field(fields, "drives", &ctx)?,
                tape_capacity: u64_field(fields, "tape_capacity", &ctx)?,
            })
        }
        "disk_array" => {
            reject_unknown(
                fields,
                &["kind", "capacity", "op_latency_us", "stream_bytes_per_sec"],
                &ctx,
            )?;
            Ok(StorageDecl::DiskArray {
                capacity: u64_field(fields, "capacity", &ctx)?,
                op_latency_us: u64_field(fields, "op_latency_us", &ctx)?,
                stream_bytes_per_sec: u64_field(fields, "stream_bytes_per_sec", &ctx)?,
            })
        }
        "object_store" => {
            reject_unknown(
                fields,
                &["kind", "rtt_us", "stream_bytes_per_sec", "cost_per_request", "cost_per_mib"],
                &ctx,
            )?;
            Ok(StorageDecl::ObjectStore {
                rtt_us: u64_field(fields, "rtt_us", &ctx)?,
                stream_bytes_per_sec: u64_field(fields, "stream_bytes_per_sec", &ctx)?,
                cost_per_request: u64_field(fields, "cost_per_request", &ctx)?,
                cost_per_mib: u64_field(fields, "cost_per_mib", &ctx)?,
            })
        }
        _ => unreachable!("kind_field filters"),
    }
}

fn links(v: &Value) -> Result<Links, ScenarioError> {
    let ctx = "`links`";
    let fields = obj(v, ctx)?;
    reject_unknown(fields, &["default", "edges", "tiered"], ctx)?;
    let edges = match opt(fields, "edges") {
        Some(Value::Array(items)) => {
            items.iter().enumerate().map(|(i, e)| edge(e, i)).collect::<Result<Vec<_>, _>>()?
        }
        Some(other) => return Err(type_err("edges", ctx, "array", other)),
        None => Vec::new(),
    };
    Ok(Links {
        default: profile(require(fields, "default", ctx)?, "`links.default`")?,
        workers: 1,
        edges,
        tiered: match opt(fields, "tiered") {
            Some(v) => Some(tiered_links(v)?),
            None => None,
        },
    })
}

fn edge(v: &Value, i: usize) -> Result<EdgeDecl, ScenarioError> {
    let ctx = format!("`links.edges[{i}]`");
    let fields = obj(v, &ctx)?;
    reject_unknown(fields, &["a", "b", "profile"], &ctx)?;
    Ok(EdgeDecl {
        a: str_field(fields, "a", &ctx)?,
        b: str_field(fields, "b", &ctx)?,
        profile: profile(require(fields, "profile", &ctx)?, &format!("{ctx}.profile"))?,
    })
}

fn tiered_links(v: &Value) -> Result<TieredLinks, ScenarioError> {
    let ctx = "`links.tiered`";
    let fields = obj(v, ctx)?;
    reject_unknown(fields, &["backbone", "regional"], ctx)?;
    Ok(TieredLinks {
        backbone: profile(require(fields, "backbone", ctx)?, "`links.tiered.backbone`")?,
        regional: profile(require(fields, "regional", ctx)?, "`links.tiered.regional`")?,
    })
}

fn profile(v: &Value, ctx: &str) -> Result<ProfileDecl, ScenarioError> {
    let fields = obj(v, ctx)?;
    match kind_field(fields, ctx, &["cern_anl_production", "clean"])? {
        "cern_anl_production" => {
            reject_unknown(fields, &["kind"], ctx)?;
            Ok(ProfileDecl::CernAnlProduction)
        }
        "clean" => {
            reject_unknown(fields, &["kind", "rate_bps", "one_way_us", "queue"], ctx)?;
            Ok(ProfileDecl::Clean {
                rate_bps: u64_field(fields, "rate_bps", ctx)?,
                one_way_us: u64_field(fields, "one_way_us", ctx)?,
                queue: usize_field(fields, "queue", ctx)?,
            })
        }
        _ => unreachable!("kind_field filters"),
    }
}

fn control(v: &Value) -> Result<Control, ScenarioError> {
    let ctx = "`control`";
    let fields = obj(v, ctx)?;
    reject_unknown(
        fields,
        &[
            "collection",
            "recovery",
            "breaker",
            "federation",
            "fetch_policy",
            "trust_all",
            "full_mesh_subscriptions",
        ],
        ctx,
    )?;
    let flag = |key: &str, default: bool| -> Result<bool, ScenarioError> {
        match opt(fields, key) {
            Some(Value::Bool(b)) => Ok(*b),
            Some(other) => Err(type_err(key, ctx, "bool", other)),
            None => Ok(default),
        }
    };
    Ok(Control {
        collection: str_field(fields, "collection", ctx)?,
        recovery: flag("recovery", true)?,
        breaker: flag("breaker", true)?,
        federation: flag("federation", false)?,
        fetch_policy: match opt(fields, "fetch_policy") {
            Some(v) => policy(v)?,
            None => PolicyDecl::Default,
        },
        trust_all: flag("trust_all", true)?,
        full_mesh_subscriptions: flag("full_mesh_subscriptions", false)?,
    })
}

fn policy(v: &Value) -> Result<PolicyDecl, ScenarioError> {
    let ctx = "`control.fetch_policy`";
    let fields = obj(v, ctx)?;
    match kind_field(fields, ctx, &["default", "single", "multi"])? {
        "default" => {
            reject_unknown(fields, &["kind"], ctx)?;
            Ok(PolicyDecl::Default)
        }
        "single" => {
            reject_unknown(fields, &["kind"], ctx)?;
            Ok(PolicyDecl::Single)
        }
        "multi" => {
            reject_unknown(fields, &["kind", "max_sources", "min_chunk"], ctx)?;
            Ok(PolicyDecl::Multi {
                max_sources: usize_field(fields, "max_sources", ctx)?,
                min_chunk: u64_field(fields, "min_chunk", ctx)?,
            })
        }
        _ => unreachable!("kind_field filters"),
    }
}

fn telemetry(v: &Value) -> Result<TelemetryDecl, ScenarioError> {
    let ctx = "`telemetry`";
    let fields = obj(v, ctx)?;
    reject_unknown(
        fields,
        &["recorder_capacity", "timeseries_bucket_ns", "timeseries_after_build"],
        ctx,
    )?;
    Ok(TelemetryDecl {
        recorder_capacity: match opt(fields, "recorder_capacity") {
            Some(v) => Some(u64_value(v, "recorder_capacity", ctx)? as usize),
            None => None,
        },
        timeseries_bucket_ns: match opt(fields, "timeseries_bucket_ns") {
            Some(v) => Some(u64_value(v, "timeseries_bucket_ns", ctx)?),
            None => None,
        },
        timeseries_after_build: match opt(fields, "timeseries_after_build") {
            Some(Value::Bool(b)) => *b,
            Some(other) => return Err(type_err("timeseries_after_build", ctx, "bool", other)),
            None => false,
        },
    })
}

fn faults(v: &Value) -> Result<Faults, ScenarioError> {
    let ctx = "`faults`";
    let fields = obj(v, ctx)?;
    match kind_field(fields, ctx, &["none", "empty", "seeded", "timeline"])? {
        "none" => {
            reject_unknown(fields, &["kind"], ctx)?;
            Ok(Faults::None)
        }
        "empty" => {
            reject_unknown(fields, &["kind"], ctx)?;
            Ok(Faults::Empty)
        }
        "seeded" => {
            reject_unknown(fields, &["kind", "catalog_chaos"], ctx)?;
            let catalog_chaos = match opt(fields, "catalog_chaos") {
                Some(v) => {
                    let cctx = "`faults.catalog_chaos`";
                    let cf = obj(v, cctx)?;
                    reject_unknown(cf, &["crashes", "losses", "delays"], cctx)?;
                    Some(CatalogChaosDecl {
                        crashes: usize_field(cf, "crashes", cctx)?,
                        losses: usize_field(cf, "losses", cctx)?,
                        delays: usize_field(cf, "delays", cctx)?,
                    })
                }
                None => None,
            };
            Ok(Faults::Seeded { catalog_chaos })
        }
        "timeline" => {
            reject_unknown(fields, &["kind", "events"], ctx)?;
            let events = match require(fields, "events", ctx)? {
                Value::Array(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, e)| timeline_event(e, i))
                    .collect::<Result<Vec<_>, _>>()?,
                other => return Err(type_err("events", ctx, "array", other)),
            };
            Ok(Faults::Timeline { events })
        }
        _ => unreachable!("kind_field filters"),
    }
}

fn timeline_event(v: &Value, i: usize) -> Result<TimelineEvent, ScenarioError> {
    let ctx = format!("`faults.events[{i}]`");
    let fields = obj(v, &ctx)?;
    let at_ns = u64_field(fields, "at_ns", &ctx)?;
    let event = match kind_field(fields, &ctx, &["site_down", "site_up", "link_down", "link_up"])? {
        "site_down" => {
            reject_unknown(fields, &["at_ns", "kind", "site"], &ctx)?;
            EventDecl::SiteDown { site: str_field(fields, "site", &ctx)? }
        }
        "site_up" => {
            reject_unknown(fields, &["at_ns", "kind", "site"], &ctx)?;
            EventDecl::SiteUp { site: str_field(fields, "site", &ctx)? }
        }
        dir @ ("link_down" | "link_up") => {
            reject_unknown(fields, &["at_ns", "kind", "from", "to", "both_ways"], &ctx)?;
            let from = str_field(fields, "from", &ctx)?;
            let to = str_field(fields, "to", &ctx)?;
            let both_ways = match opt(fields, "both_ways") {
                Some(Value::Bool(b)) => *b,
                Some(other) => return Err(type_err("both_ways", &ctx, "bool", other)),
                None => false,
            };
            if dir == "link_down" {
                EventDecl::LinkDown { from, to, both_ways }
            } else {
                EventDecl::LinkUp { from, to, both_ways }
            }
        }
        _ => unreachable!("kind_field filters"),
    };
    Ok(TimelineEvent { at_ns, event })
}

fn workload(v: &Value) -> Result<WorkloadDecl, ScenarioError> {
    let ctx = "`workload`";
    let fields = obj(v, ctx)?;
    match kind_field(fields, ctx, &["fetch", "replication_soak", "catalog_soak", "grid_soak"])? {
        "fetch" => {
            reject_unknown(
                fields,
                &["kind", "size", "lfn", "dst", "sources", "t0_ns", "settle_ns"],
                ctx,
            )?;
            let sources = match require(fields, "sources", ctx)? {
                Value::Array(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, s)| match s {
                        Value::String(s) => Ok(s.clone()),
                        other => Err(type_err(&format!("sources[{i}]"), ctx, "string", other)),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                other => return Err(type_err("sources", ctx, "array", other)),
            };
            Ok(WorkloadDecl::Fetch {
                size: u64_field(fields, "size", ctx)?,
                lfn: str_field(fields, "lfn", ctx)?,
                dst: str_field(fields, "dst", ctx)?,
                sources,
                t0_ns: u64_field(fields, "t0_ns", ctx)?,
                settle_ns: u64_field(fields, "settle_ns", ctx)?,
            })
        }
        "replication_soak" => {
            reject_unknown(
                fields,
                &["kind", "rounds", "file_size", "round_gap_ns", "drain_rounds"],
                ctx,
            )?;
            Ok(WorkloadDecl::ReplicationSoak {
                rounds: usize_field(fields, "rounds", ctx)?,
                file_size: u64_field(fields, "file_size", ctx)?,
                round_gap_ns: u64_field(fields, "round_gap_ns", ctx)?,
                drain_rounds: usize_field(fields, "drain_rounds", ctx)?,
            })
        }
        "catalog_soak" => {
            reject_unknown(
                fields,
                &[
                    "kind",
                    "files_per_site",
                    "lookup_rounds",
                    "lookups_per_round",
                    "zipf_alpha",
                    "file_size",
                    "round_gap_ns",
                ],
                ctx,
            )?;
            Ok(WorkloadDecl::CatalogSoak {
                files_per_site: usize_field(fields, "files_per_site", ctx)?,
                lookup_rounds: usize_field(fields, "lookup_rounds", ctx)?,
                lookups_per_round: usize_field(fields, "lookups_per_round", ctx)?,
                zipf_alpha: f64_field(fields, "zipf_alpha", ctx)?,
                file_size: u64_field(fields, "file_size", ctx)?,
                round_gap_ns: u64_field(fields, "round_gap_ns", ctx)?,
            })
        }
        "grid_soak" => {
            reject_unknown(
                fields,
                &[
                    "kind",
                    "files_per_site",
                    "rounds",
                    "ops_per_round",
                    "zipf_alpha",
                    "file_size",
                    "round_gap_ns",
                ],
                ctx,
            )?;
            Ok(WorkloadDecl::GridSoak {
                files_per_site: usize_field(fields, "files_per_site", ctx)?,
                rounds: usize_field(fields, "rounds", ctx)?,
                ops_per_round: usize_field(fields, "ops_per_round", ctx)?,
                zipf_alpha: f64_field(fields, "zipf_alpha", ctx)?,
                file_size: usize_field(fields, "file_size", ctx)?,
                round_gap_ns: u64_field(fields, "round_gap_ns", ctx)?,
            })
        }
        _ => unreachable!("kind_field filters"),
    }
}
