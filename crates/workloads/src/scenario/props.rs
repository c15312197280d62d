//! Generated scenarios: a strategy over valid `Scenario`s reaching shapes
//! no committed preset has (explicit pools, every archive and workload
//! kind, link events, the `none`/`empty` faults, the `single` policy), and
//! the file-format properties over them: the round trip is exact, the
//! writer is canonical, and deleting a required key or renaming any key
//! fails with a schema error that quotes it.

use proptest::prelude::*;

use super::*;

fn opt<S: Strategy + 'static>(s: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn storage() -> impl Strategy<Value = StorageDecl> {
    prop_oneof![
        Just(StorageDecl::ClassicTape),
        (any::<u64>(), 1..=u64::MAX, 1..=u64::MAX, 1usize..=16, any::<u64>()).prop_map(
            |(mount_ms, seek_bytes_per_sec, stream_bytes_per_sec, drives, tape_capacity)| {
                StorageDecl::Tape {
                    mount_ms,
                    seek_bytes_per_sec,
                    stream_bytes_per_sec,
                    drives,
                    tape_capacity,
                }
            }
        ),
        (any::<u64>(), any::<u64>(), 1..=u64::MAX).prop_map(
            |(capacity, op_latency_us, stream_bytes_per_sec)| StorageDecl::DiskArray {
                capacity,
                op_latency_us,
                stream_bytes_per_sec,
            }
        ),
        (any::<u64>(), 1..=u64::MAX, any::<u64>(), any::<u64>()).prop_map(
            |(rtt_us, stream_bytes_per_sec, cost_per_request, cost_per_mib)| {
                StorageDecl::ObjectStore {
                    rtt_us,
                    stream_bytes_per_sec,
                    cost_per_request,
                    cost_per_mib,
                }
            }
        ),
    ]
}

fn profile() -> impl Strategy<Value = ProfileDecl> {
    prop_oneof![
        Just(ProfileDecl::CernAnlProduction),
        (1..=u64::MAX, any::<u64>(), 1usize..=1024).prop_map(|(rate_bps, one_way_us, queue)| {
            ProfileDecl::Clean { rate_bps, one_way_us, queue }
        }),
    ]
}

fn topology() -> impl Strategy<Value = Topology> {
    let site = (any::<u64>(), opt(any::<u64>()), storage());
    prop_oneof![
        prop::collection::vec(site, 2..6).prop_map(|sites| Topology::Explicit {
            sites: sites
                .into_iter()
                .enumerate()
                .map(|(i, (key_seed, pool_capacity, storage))| SiteDecl {
                    name: format!("site-{i}"),
                    org: format!("site-{i}.org"),
                    key_seed,
                    pool_capacity,
                    storage,
                })
                .collect(),
        }),
        (2usize..6, "[a-z]{1,4}", 0usize..4, 0u64..1_000_000, storage()).prop_map(
            |(count, prefix, pad, key_seed_base, storage)| Topology::Flat {
                count,
                prefix,
                pad,
                key_seed_base,
                storage,
            }
        ),
        (1usize..4, 0usize..3, 0u64..1_000_000, storage()).prop_map(
            |(tier1, tier2_per_tier1, key_seed_base, storage)| Topology::Tiered {
                tier1,
                tier2_per_tier1,
                key_seed_base,
                storage,
            }
        ),
    ]
}

fn links(names: Vec<String>, tiered: bool) -> impl Strategy<Value = Links> {
    let n = names.len();
    let edge = (0..n, 0..n, profile()).prop_map(move |(a, b, profile)| EdgeDecl {
        a: names[a].clone(),
        b: names[b].clone(),
        profile,
    });
    let overlay = (profile(), profile())
        .prop_map(|(backbone, regional)| Some(TieredLinks { backbone, regional }));
    let overlay =
        if tiered { prop_oneof![Just(None), overlay].boxed() } else { Just(None).boxed() };
    (profile(), prop::collection::vec(edge, 0..3), overlay)
        .prop_map(|(default, edges, tiered)| Links { default, workers: 1, edges, tiered })
}

fn control() -> impl Strategy<Value = Control> {
    let policy = prop_oneof![
        Just(PolicyDecl::Default),
        Just(PolicyDecl::Single),
        (1usize..8, any::<u64>())
            .prop_map(|(max_sources, min_chunk)| PolicyDecl::Multi { max_sources, min_chunk }),
    ];
    let flags = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    ("[a-z-]{1,8}", flags, policy).prop_map(
        |(collection, (recovery, breaker, federation, trust_all, mesh), fetch_policy)| Control {
            collection,
            recovery,
            breaker,
            federation,
            fetch_policy,
            trust_all,
            full_mesh_subscriptions: mesh,
        },
    )
}

fn telemetry() -> impl Strategy<Value = TelemetryDecl> {
    (opt(any::<usize>()), opt(any::<u64>()), any::<bool>()).prop_map(
        |(recorder_capacity, timeseries_bucket_ns, timeseries_after_build)| TelemetryDecl {
            recorder_capacity,
            timeseries_bucket_ns,
            timeseries_after_build,
        },
    )
}

fn faults(names: Vec<String>) -> impl Strategy<Value = Faults> {
    let n = names.len();
    let event = (any::<u64>(), 0usize..4, 0..n, 0..n, any::<bool>()).prop_map(
        move |(at_ns, kind, a, b, both_ways)| {
            let (from, to) = (names[a].clone(), names[b].clone());
            let event = match kind {
                0 => EventDecl::SiteDown { site: from },
                1 => EventDecl::SiteUp { site: from },
                2 => EventDecl::LinkDown { from, to, both_ways },
                _ => EventDecl::LinkUp { from, to, both_ways },
            };
            TimelineEvent { at_ns, event }
        },
    );
    let chaos = (any::<usize>(), any::<usize>(), any::<usize>())
        .prop_map(|(crashes, losses, delays)| CatalogChaosDecl { crashes, losses, delays });
    prop_oneof![
        Just(Faults::None),
        Just(Faults::Empty),
        opt(chaos).prop_map(|catalog_chaos| Faults::Seeded { catalog_chaos }),
        prop::collection::vec(event, 0..4).prop_map(|events| Faults::Timeline { events }),
    ]
}

fn workload(names: Vec<String>) -> impl Strategy<Value = WorkloadDecl> {
    let n = names.len();
    let fetch = (any::<u64>(), "[ -~]{0,12}", 0..n, 1..n, any::<u64>(), any::<u64>()).prop_map(
        move |(size, lfn, dst, count, t0_ns, settle_ns)| WorkloadDecl::Fetch {
            size,
            lfn,
            dst: names[dst].clone(),
            sources: (1..=count).map(|k| names[(dst + k) % n].clone()).collect(),
            t0_ns,
            settle_ns,
        },
    );
    prop_oneof![
        fetch,
        (any::<usize>(), any::<u64>(), any::<u64>(), any::<usize>()).prop_map(
            |(rounds, file_size, round_gap_ns, drain_rounds)| WorkloadDecl::ReplicationSoak {
                rounds,
                file_size,
                round_gap_ns,
                drain_rounds,
            }
        ),
        (any::<usize>(), any::<usize>(), any::<usize>(), 0.1f64..3.0, any::<u64>(), any::<u64>())
            .prop_map(
                |(files_per_site, lookup_rounds, lookups_per_round, zipf_alpha, file_size, gap)| {
                    WorkloadDecl::CatalogSoak {
                        files_per_site,
                        lookup_rounds,
                        lookups_per_round,
                        zipf_alpha,
                        file_size,
                        round_gap_ns: gap,
                    }
                }
            ),
        (any::<usize>(), any::<usize>(), any::<usize>(), 0.1f64..3.0, any::<usize>(), any::<u64>())
            .prop_map(
                |(files_per_site, rounds, ops_per_round, zipf_alpha, file_size, round_gap_ns)| {
                    WorkloadDecl::GridSoak {
                        files_per_site,
                        rounds,
                        ops_per_round,
                        zipf_alpha,
                        file_size,
                        round_gap_ns,
                    }
                }
            ),
    ]
}

/// A scenario that passes `validate`.
fn scenario() -> impl Strategy<Value = Scenario> {
    topology()
        .prop_flat_map(|topology| {
            let names = topology.site_names();
            let tiered = matches!(topology, Topology::Tiered { .. });
            (
                (Just(topology), "[ -~]{0,12}", any::<u64>()),
                links(names.clone(), tiered),
                control(),
                telemetry(),
                faults(names.clone()),
                workload(names),
            )
        })
        .prop_map(|((topology, name, seed), links, mut control, telemetry, faults, workload)| {
            // Catalog chaos and the catalog soak need the federation.
            control.federation |= matches!(faults, Faults::Seeded { catalog_chaos: Some(_) })
                || matches!(workload, WorkloadDecl::CatalogSoak { .. });
            Scenario { name, seed, topology, links, control, telemetry, faults, workload }
        })
}

/// Keys a document may leave out.
const OPTIONAL: [&str; 16] = [
    "pad",
    "storage",
    "pool_capacity",
    "edges",
    "tiered",
    "recovery",
    "breaker",
    "federation",
    "fetch_policy",
    "trust_all",
    "full_mesh_subscriptions",
    "recorder_capacity",
    "timeseries_bucket_ns",
    "timeseries_after_build",
    "catalog_chaos",
    "both_ways",
];

/// For every key in `doc`: the key, `doc` without it, and `doc` with it
/// renamed to `{key}_x`. `rebuild` puts an edited `doc` back into its
/// enclosing document.
fn key_edits(doc: &Value, rebuild: &dyn Fn(Value) -> Value, out: &mut Vec<(String, Value, Value)>) {
    match doc {
        Value::Object(fields) => {
            for (i, (key, child)) in fields.iter().enumerate() {
                let mut deleted = fields.clone();
                deleted.remove(i);
                let mut renamed = fields.clone();
                renamed[i].0 = format!("{key}_x");
                out.push((
                    key.clone(),
                    rebuild(Value::Object(deleted)),
                    rebuild(Value::Object(renamed)),
                ));
                let put = |edited: Value| {
                    let mut fields = fields.clone();
                    fields[i].1 = edited;
                    rebuild(Value::Object(fields))
                };
                key_edits(child, &put, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                let put = |edited: Value| {
                    let mut items = items.clone();
                    items[i] = edited;
                    rebuild(Value::Array(items))
                };
                key_edits(child, &put, out);
            }
        }
        _ => {}
    }
}

/// The schema error `doc` fails to load with.
fn schema_error(doc: Value) -> Result<String, TestCaseError> {
    struct Doc(Value);
    impl serde::Serialize for Doc {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let text = serde_json::to_string(&Doc(doc)).expect("a value renders");
    match Scenario::from_json_str(&text) {
        Err(ScenarioError::Schema(message)) => Ok(message),
        other => Err(TestCaseError::fail(format!("want a schema error, got {other:?}\n{text}"))),
    }
}

proptest! {
    #[test]
    fn generated_scenarios_round_trip(s in scenario()) {
        let text = s.to_json_pretty();
        let back = Scenario::from_json_str(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_json_pretty(), text.clone(), "the writer is not canonical");

        let mut edits = Vec::new();
        key_edits(&json_parse(&text).unwrap(), &|doc| doc, &mut edits);
        for (key, deleted, renamed) in edits {
            if !OPTIONAL.contains(&key.as_str()) {
                let message = schema_error(deleted)?;
                let want = format!("missing required field `{key}`");
                prop_assert!(message.contains(&want), "deleting `{}`: {}", key, message);
            }
            let message = schema_error(renamed)?;
            prop_assert!(
                message.contains(&format!("`{key}_x`")) || message.contains(&format!("`{key}`")),
                "renaming `{}`: {}",
                key,
                message
            );
        }
    }
}

/// The strategy reaches every shape the presets leave out.
#[test]
fn generator_reaches_what_no_preset_does() {
    let mut seen = std::collections::BTreeSet::new();
    let strategy = scenario();
    for case in 0..64 {
        let s =
            strategy.generate(&mut TestRng::deterministic("generated_scenarios_round_trip", case));
        if let Topology::Explicit { sites } = &s.topology {
            for site in sites {
                if site.pool_capacity.is_some() {
                    seen.insert("pool_capacity");
                }
                seen.insert(match site.storage {
                    StorageDecl::ClassicTape => "classic_tape",
                    StorageDecl::Tape { .. } => "tape",
                    StorageDecl::DiskArray { .. } => "disk_array",
                    StorageDecl::ObjectStore { .. } => "object_store",
                });
            }
        }
        let faults = match &s.faults {
            Faults::None => "none",
            Faults::Empty => "empty",
            Faults::Seeded { .. } => "seeded",
            Faults::Timeline { events } => {
                if events.iter().any(|ev| {
                    matches!(ev.event, EventDecl::LinkDown { .. } | EventDecl::LinkUp { .. })
                }) {
                    seen.insert("link event");
                }
                "timeline"
            }
        };
        seen.insert(faults);
        if s.control.fetch_policy == PolicyDecl::Single {
            seen.insert("single");
        }
        seen.insert(s.workload.kind());
    }
    let want = [
        "pool_capacity",
        "classic_tape",
        "tape",
        "disk_array",
        "object_store",
        "none",
        "empty",
        "seeded",
        "timeline",
        "link event",
        "single",
        "fetch",
        "replication_soak",
        "catalog_soak",
        "grid_soak",
    ];
    let missing: Vec<&str> = want.into_iter().filter(|w| !seen.contains(w)).collect();
    assert!(missing.is_empty(), "the generator never produced {missing:?}");
}
