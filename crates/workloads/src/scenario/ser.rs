//! Canonical serialization of a [`Scenario`] to the shim's [`Value`]
//! tree. Field order here is the schema's declaration order, optional
//! fields are omitted when unset, and parsing the output reproduces the
//! scenario exactly (the round-trip contract the tests pin).

use serde::Value;

use super::{
    Control, EdgeDecl, EventDecl, Faults, Links, PolicyDecl, ProfileDecl, Scenario, SiteDecl,
    StorageDecl, TelemetryDecl, TieredLinks, Topology, WorkloadDecl,
};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn u(n: u64) -> Value {
    Value::UInt(n)
}

pub(super) fn scenario(sc: &Scenario) -> Value {
    obj(vec![
        ("name", s(&sc.name)),
        ("seed", u(sc.seed)),
        ("topology", topology(&sc.topology)),
        ("links", links(&sc.links)),
        ("control", control(&sc.control)),
        ("telemetry", telemetry(&sc.telemetry)),
        ("faults", faults(&sc.faults)),
        ("workload", workload(&sc.workload)),
    ])
}

fn topology(t: &Topology) -> Value {
    match t {
        Topology::Explicit { sites } => obj(vec![
            ("kind", s("explicit")),
            ("sites", Value::Array(sites.iter().map(site).collect())),
        ]),
        Topology::Flat { count, prefix, pad, key_seed_base, storage } => obj(vec![
            ("kind", s("flat")),
            ("count", u(*count as u64)),
            ("prefix", s(prefix)),
            ("pad", u(*pad as u64)),
            ("key_seed_base", u(*key_seed_base)),
            ("storage", storage_decl(storage)),
        ]),
        Topology::Tiered { tier1, tier2_per_tier1, key_seed_base, storage } => obj(vec![
            ("kind", s("tiered")),
            ("tier1", u(*tier1 as u64)),
            ("tier2_per_tier1", u(*tier2_per_tier1 as u64)),
            ("key_seed_base", u(*key_seed_base)),
            ("storage", storage_decl(storage)),
        ]),
    }
}

fn site(decl: &SiteDecl) -> Value {
    let mut fields =
        vec![("name", s(&decl.name)), ("org", s(&decl.org)), ("key_seed", u(decl.key_seed))];
    if let Some(pool) = decl.pool_capacity {
        fields.push(("pool_capacity", u(pool)));
    }
    fields.push(("storage", storage_decl(&decl.storage)));
    obj(fields)
}

fn storage_decl(decl: &StorageDecl) -> Value {
    match *decl {
        StorageDecl::ClassicTape => obj(vec![("kind", s("classic_tape"))]),
        StorageDecl::Tape {
            mount_ms,
            seek_bytes_per_sec,
            stream_bytes_per_sec,
            drives,
            tape_capacity,
        } => obj(vec![
            ("kind", s("tape")),
            ("mount_ms", u(mount_ms)),
            ("seek_bytes_per_sec", u(seek_bytes_per_sec)),
            ("stream_bytes_per_sec", u(stream_bytes_per_sec)),
            ("drives", u(drives as u64)),
            ("tape_capacity", u(tape_capacity)),
        ]),
        StorageDecl::DiskArray { capacity, op_latency_us, stream_bytes_per_sec } => obj(vec![
            ("kind", s("disk_array")),
            ("capacity", u(capacity)),
            ("op_latency_us", u(op_latency_us)),
            ("stream_bytes_per_sec", u(stream_bytes_per_sec)),
        ]),
        StorageDecl::ObjectStore {
            rtt_us,
            stream_bytes_per_sec,
            cost_per_request,
            cost_per_mib,
        } => obj(vec![
            ("kind", s("object_store")),
            ("rtt_us", u(rtt_us)),
            ("stream_bytes_per_sec", u(stream_bytes_per_sec)),
            ("cost_per_request", u(cost_per_request)),
            ("cost_per_mib", u(cost_per_mib)),
        ]),
    }
}

fn links(l: &Links) -> Value {
    let mut fields = vec![
        ("default", profile(&l.default)),
        ("edges", Value::Array(l.edges.iter().map(edge).collect())),
    ];
    if let Some(t) = &l.tiered {
        fields.push(("tiered", tiered(t)));
    }
    obj(fields)
}

fn edge(e: &EdgeDecl) -> Value {
    obj(vec![("a", s(&e.a)), ("b", s(&e.b)), ("profile", profile(&e.profile))])
}

fn tiered(t: &TieredLinks) -> Value {
    obj(vec![("backbone", profile(&t.backbone)), ("regional", profile(&t.regional))])
}

fn profile(p: &ProfileDecl) -> Value {
    match *p {
        ProfileDecl::CernAnlProduction => obj(vec![("kind", s("cern_anl_production"))]),
        ProfileDecl::Clean { rate_bps, one_way_us, queue } => obj(vec![
            ("kind", s("clean")),
            ("rate_bps", u(rate_bps)),
            ("one_way_us", u(one_way_us)),
            ("queue", u(queue as u64)),
        ]),
    }
}

fn control(c: &Control) -> Value {
    obj(vec![
        ("collection", s(&c.collection)),
        ("recovery", Value::Bool(c.recovery)),
        ("breaker", Value::Bool(c.breaker)),
        ("federation", Value::Bool(c.federation)),
        ("fetch_policy", policy(&c.fetch_policy)),
        ("trust_all", Value::Bool(c.trust_all)),
        ("full_mesh_subscriptions", Value::Bool(c.full_mesh_subscriptions)),
    ])
}

fn policy(p: &PolicyDecl) -> Value {
    match *p {
        PolicyDecl::Default => obj(vec![("kind", s("default"))]),
        PolicyDecl::Single => obj(vec![("kind", s("single"))]),
        PolicyDecl::Multi { max_sources, min_chunk } => obj(vec![
            ("kind", s("multi")),
            ("max_sources", u(max_sources as u64)),
            ("min_chunk", u(min_chunk)),
        ]),
    }
}

fn telemetry(t: &TelemetryDecl) -> Value {
    let mut fields = Vec::new();
    if let Some(cap) = t.recorder_capacity {
        fields.push(("recorder_capacity", u(cap as u64)));
    }
    if let Some(bucket) = t.timeseries_bucket_ns {
        fields.push(("timeseries_bucket_ns", u(bucket)));
    }
    fields.push(("timeseries_after_build", Value::Bool(t.timeseries_after_build)));
    obj(fields)
}

fn faults(f: &Faults) -> Value {
    match f {
        Faults::None => obj(vec![("kind", s("none"))]),
        Faults::Empty => obj(vec![("kind", s("empty"))]),
        Faults::Seeded { catalog_chaos } => {
            let mut fields = vec![("kind", s("seeded"))];
            if let Some(c) = catalog_chaos {
                fields.push((
                    "catalog_chaos",
                    obj(vec![
                        ("crashes", u(c.crashes as u64)),
                        ("losses", u(c.losses as u64)),
                        ("delays", u(c.delays as u64)),
                    ]),
                ));
            }
            obj(fields)
        }
        Faults::Timeline { events } => obj(vec![
            ("kind", s("timeline")),
            (
                "events",
                Value::Array(
                    events
                        .iter()
                        .map(|ev| {
                            let mut fields = vec![("at_ns", u(ev.at_ns))];
                            match &ev.event {
                                EventDecl::SiteDown { site } => {
                                    fields.push(("kind", s("site_down")));
                                    fields.push(("site", s(site)));
                                }
                                EventDecl::SiteUp { site } => {
                                    fields.push(("kind", s("site_up")));
                                    fields.push(("site", s(site)));
                                }
                                EventDecl::LinkDown { from, to, both_ways } => {
                                    fields.push(("kind", s("link_down")));
                                    fields.push(("from", s(from)));
                                    fields.push(("to", s(to)));
                                    fields.push(("both_ways", Value::Bool(*both_ways)));
                                }
                                EventDecl::LinkUp { from, to, both_ways } => {
                                    fields.push(("kind", s("link_up")));
                                    fields.push(("from", s(from)));
                                    fields.push(("to", s(to)));
                                    fields.push(("both_ways", Value::Bool(*both_ways)));
                                }
                            }
                            obj(fields)
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn workload(w: &WorkloadDecl) -> Value {
    match w {
        WorkloadDecl::Fetch { size, lfn, dst, sources, t0_ns, settle_ns } => obj(vec![
            ("kind", s("fetch")),
            ("size", u(*size)),
            ("lfn", s(lfn)),
            ("dst", s(dst)),
            ("sources", Value::Array(sources.iter().map(|src| s(src)).collect())),
            ("t0_ns", u(*t0_ns)),
            ("settle_ns", u(*settle_ns)),
        ]),
        WorkloadDecl::ReplicationSoak { rounds, file_size, round_gap_ns, drain_rounds } => {
            obj(vec![
                ("kind", s("replication_soak")),
                ("rounds", u(*rounds as u64)),
                ("file_size", u(*file_size)),
                ("round_gap_ns", u(*round_gap_ns)),
                ("drain_rounds", u(*drain_rounds as u64)),
            ])
        }
        WorkloadDecl::CatalogSoak {
            files_per_site,
            lookup_rounds,
            lookups_per_round,
            zipf_alpha,
            file_size,
            round_gap_ns,
        } => obj(vec![
            ("kind", s("catalog_soak")),
            ("files_per_site", u(*files_per_site as u64)),
            ("lookup_rounds", u(*lookup_rounds as u64)),
            ("lookups_per_round", u(*lookups_per_round as u64)),
            ("zipf_alpha", Value::Float(*zipf_alpha)),
            ("file_size", u(*file_size)),
            ("round_gap_ns", u(*round_gap_ns)),
        ]),
        WorkloadDecl::GridSoak {
            files_per_site,
            rounds,
            ops_per_round,
            zipf_alpha,
            file_size,
            round_gap_ns,
        } => obj(vec![
            ("kind", s("grid_soak")),
            ("files_per_site", u(*files_per_site as u64)),
            ("rounds", u(*rounds as u64)),
            ("ops_per_round", u(*ops_per_round as u64)),
            ("zipf_alpha", Value::Float(*zipf_alpha)),
            ("file_size", u(*file_size as u64)),
            ("round_gap_ns", u(*round_gap_ns)),
        ]),
    }
}
