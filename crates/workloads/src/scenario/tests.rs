//! Scenario-DSL contract tests: round-trip fidelity, strict rejection of
//! malformed input, byte-identity of DSL-driven runs against the builtin
//! constructors, and the committed `scenarios/` files staying in lockstep
//! with the code.

use super::*;

use crate::catalog::CatalogSoakSpec;
use crate::grid::GridSoakSpec;
use crate::soak::{ChaosMode, SoakSpec};

/// Every committed scenario file and the builtin that generates it.
fn committed() -> Vec<(&'static str, Scenario)> {
    vec![
        ("fetch.json", Scenario::fetch(&FetchSpec::default())),
        (
            "fetch_striped_crash.json",
            Scenario::fetch(&FetchSpec {
                policy: striped_policy(),
                crash_fastest: true,
                ..FetchSpec::default()
            }),
        ),
        (
            "soak_quick.json",
            Scenario::replication_soak(&SoakSpec::quick(ChaosMode::Seeded(0xC0FFEE))),
        ),
        (
            "catalog_quick.json",
            Scenario::catalog_soak(&CatalogSoakSpec::quick(ChaosMode::Seeded(0xFEDCA7))),
        ),
        (
            "catalog_full.json",
            Scenario::catalog_soak(&CatalogSoakSpec::full(ChaosMode::Seeded(0xFEDCA7))),
        ),
        ("grid_quick.json", Scenario::grid_soak(&GridSoakSpec::quick())),
        ("grid_full.json", Scenario::grid_soak(&GridSoakSpec::full())),
        ("grid_at_scale_200.json", Scenario::grid_soak(&GridSoakSpec::at_scale(200))),
    ]
}

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

// -----------------------------------------------------------------------
// Round-trip fidelity
// -----------------------------------------------------------------------

#[test]
fn every_builtin_round_trips_through_json() {
    for (name, scenario) in committed() {
        let text = scenario.to_json_pretty();
        let back = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{name}: canonical JSON failed to re-parse: {e}"));
        assert_eq!(back, scenario, "{name}: parse(serialize(s)) != s");
        // Serialization is canonical: a second trip is textually identical.
        assert_eq!(back.to_json_pretty(), text, "{name}: serialization is not canonical");
    }
}

#[test]
fn committed_files_match_builtins() {
    let dir = scenarios_dir();
    if std::env::var("GDMP_WRITE_SCENARIOS").is_ok() {
        std::fs::create_dir_all(&dir).expect("create scenarios dir");
        for (name, scenario) in committed() {
            let mut text = scenario.to_json_pretty();
            text.push('\n');
            std::fs::write(dir.join(name), text).expect("write scenario file");
        }
    }
    for (name, scenario) in committed() {
        let path = dir.join(name);
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(regenerate with GDMP_WRITE_SCENARIOS=1 cargo test -p gdmp-workloads)",
                path.display()
            )
        });
        let mut expected = scenario.to_json_pretty();
        expected.push('\n');
        assert_eq!(
            on_disk, expected,
            "{name} is stale; regenerate with GDMP_WRITE_SCENARIOS=1 cargo test -p gdmp-workloads"
        );
        // And the file must load as exactly the builtin.
        let loaded = Scenario::load(path.to_str().unwrap()).expect("committed file loads");
        assert_eq!(loaded, scenario, "{name} loads to something other than its builtin");
    }
}

// -----------------------------------------------------------------------
// Strictness: unknown fields, unknown kinds, dangling references
// -----------------------------------------------------------------------

#[test]
fn unknown_top_level_field_is_rejected_with_context() {
    let mut text = Scenario::fetch(&FetchSpec::default()).to_json_pretty();
    text = text.replacen("\"name\"", "\"naem\"", 1);
    let err = Scenario::from_json_str(&text).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, ScenarioError::Schema(_)), "want Schema error, got {err:?}");
    assert!(msg.contains("naem"), "error must name the offending field: {msg}");
    assert!(msg.contains("accepted fields"), "error must list what is accepted: {msg}");
}

#[test]
fn unknown_nested_field_is_rejected_with_context() {
    let mut text = Scenario::fetch(&FetchSpec::default()).to_json_pretty();
    text = text.replacen("\"edges\"", "\"egdes\"", 1);
    let err = Scenario::from_json_str(&text).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("egdes"), "error must name the typo: {msg}");
    assert!(msg.contains("links"), "error must locate the section: {msg}");
}

#[test]
fn retired_workers_knob_is_rejected() {
    // Files written before the parallel engine was deleted carry the key.
    let mut text = Scenario::fetch(&FetchSpec::default()).to_json_pretty();
    text = text.replacen("\"edges\"", "\"workers\": 1, \"edges\"", 1);
    let msg = Scenario::from_json_str(&text).unwrap_err().to_string();
    assert!(msg.contains("unknown field `workers` in `links`"), "{msg}");
    assert!(msg.contains("accepted fields: default, edges, tiered"), "{msg}");

    let mut built = Scenario::fetch(&FetchSpec::default());
    built.links.workers = 2;
    let err = built.validate().unwrap_err();
    assert!(matches!(err, ScenarioError::Schema(_)), "want Schema error, got {err:?}");
}

#[test]
fn unknown_kind_is_rejected_with_accepted_list() {
    let mut text = Scenario::fetch(&FetchSpec::default()).to_json_pretty();
    text = text.replacen("\"classic_tape\"", "\"classic_tap\"", 1);
    let err = Scenario::from_json_str(&text).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("classic_tap"), "error must quote the bad kind: {msg}");
    assert!(msg.contains("accepted kinds"), "error must list valid kinds: {msg}");
}

#[test]
fn malformed_json_is_a_parse_error() {
    let err = Scenario::from_json_str("{ not json").unwrap_err();
    assert!(matches!(err, ScenarioError::Parse(_)), "got {err:?}");
}

#[test]
fn dangling_edge_reference_is_rejected() {
    let mut scenario = Scenario::fetch(&FetchSpec::default());
    scenario.links.edges[0].a = "cernn".to_string();
    let err = Scenario::from_json_str(&scenario.to_json_pretty()).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, ScenarioError::Reference(_)), "got {err:?}");
    assert!(msg.contains("cernn"), "error must name the dangling site: {msg}");
    assert!(msg.contains("known sites"), "error must list known sites: {msg}");
}

#[test]
fn dangling_fault_target_is_rejected() {
    let mut scenario = Scenario::fetch(&FetchSpec { crash_fastest: true, ..FetchSpec::default() });
    if let Faults::Timeline { events } = &mut scenario.faults {
        events[0].event = EventDecl::SiteDown { site: "atlantis".to_string() };
    }
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("atlantis"), "{err}");
}

#[test]
fn fetch_from_itself_is_rejected() {
    let mut scenario = Scenario::fetch(&FetchSpec::default());
    if let WorkloadDecl::Fetch { sources, .. } = &mut scenario.workload {
        sources.push(FETCH_DST.to_string());
    }
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("cannot fetch from itself"), "{err}");
}

#[test]
fn catalog_chaos_without_federation_is_rejected() {
    let mut scenario = Scenario::catalog_soak(&CatalogSoakSpec::quick(ChaosMode::Seeded(1)));
    scenario.control.federation = false;
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("federation"), "{err}");
}

#[test]
fn tiered_links_require_tiered_topology() {
    let mut scenario = Scenario::grid_soak(&GridSoakSpec::quick());
    scenario.topology = Topology::Flat {
        count: 4,
        prefix: "site".to_string(),
        pad: 0,
        key_seed_base: 0,
        storage: StorageDecl::ClassicTape,
    };
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("tiered"), "{err}");
}

#[test]
fn wrong_workload_for_runner_is_rejected() {
    let scenario = Scenario::replication_soak(&SoakSpec::quick(ChaosMode::Off));
    let err = run_fetch_scenario(&scenario).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fetch") && msg.contains("replication_soak"), "{msg}");
}

// -----------------------------------------------------------------------
// Byte-identity: a scenario that went through JSON replays the builtin
// run exactly — same trace, same telemetry export, byte for byte.
// -----------------------------------------------------------------------

#[test]
fn fetch_scenario_from_json_replays_byte_identically() {
    let spec = FetchSpec { policy: striped_policy(), crash_fastest: true, ..FetchSpec::default() };
    let direct = crate::fetch::run_fetch(&spec);
    let parsed = Scenario::from_json_str(&Scenario::fetch(&spec).to_json_pretty()).unwrap();
    let replayed = run_fetch_scenario(&parsed).unwrap();
    assert_eq!(replayed.elapsed, direct.elapsed);
    assert_eq!(replayed.per_source_bytes, direct.per_source_bytes);
    assert_eq!(replayed.ranges_reassigned, direct.ranges_reassigned);
    assert_eq!(
        replayed.registry.export_json_lines(),
        direct.registry.export_json_lines(),
        "JSON round-trip must not change a single exported byte"
    );
}

#[test]
fn soak_scenario_from_json_replays_byte_identically() {
    let spec = SoakSpec::quick(ChaosMode::Seeded(0xC0FFEE));
    let direct = crate::soak::run_soak(&spec);
    let parsed =
        Scenario::from_json_str(&Scenario::replication_soak(&spec).to_json_pretty()).unwrap();
    let replayed = run_soak_scenario(&parsed).unwrap();
    assert_eq!(replayed.trace, direct.trace);
    assert_eq!(replayed.final_clock_ns, direct.final_clock_ns);
    assert_eq!(replayed.schedule_debug, direct.schedule_debug);
    assert_eq!(
        replayed.registry.export_json_lines(),
        direct.registry.export_json_lines(),
        "JSON round-trip must not change a single exported byte"
    );
}

#[test]
fn catalog_scenario_from_json_replays_byte_identically() {
    let spec = CatalogSoakSpec::quick(ChaosMode::Seeded(0xFEDCA7));
    let direct = crate::catalog::run_catalog_soak(&spec);
    let parsed = Scenario::from_json_str(&Scenario::catalog_soak(&spec).to_json_pretty()).unwrap();
    let replayed = run_catalog_scenario(&parsed).unwrap();
    assert_eq!(replayed.trace, direct.trace);
    assert_eq!(replayed.final_clock_ns, direct.final_clock_ns);
    assert_eq!(replayed.stats, direct.stats);
    assert_eq!(
        replayed.registry.export_json_lines(),
        direct.registry.export_json_lines(),
        "JSON round-trip must not change a single exported byte"
    );
}

#[test]
fn grid_scenario_from_json_replays_byte_identically() {
    let spec = GridSoakSpec::quick();
    let direct = crate::grid::run_grid_soak(&spec);
    let parsed = Scenario::from_json_str(&Scenario::grid_soak(&spec).to_json_pretty()).unwrap();
    let replayed = run_grid_scenario(&parsed).unwrap();
    assert_eq!(replayed.trace, direct.trace);
    assert_eq!(replayed.final_clock_ns, direct.final_clock_ns);
    assert_eq!(replayed.lookups, direct.lookups);
    assert_eq!(
        replayed.registry.export_json_lines(),
        direct.registry.export_json_lines(),
        "JSON round-trip must not change a single exported byte"
    );
}

// -----------------------------------------------------------------------
// Spec inversion and the generic dispatcher
// -----------------------------------------------------------------------

#[test]
fn spec_inversion_recovers_the_original_spec() {
    let soak = SoakSpec::quick(ChaosMode::Seeded(0xC0FFEE));
    let s = Scenario::replication_soak(&soak);
    let back = s.soak_spec().unwrap();
    assert_eq!(back.sites, soak.sites);
    assert_eq!(back.rounds, soak.rounds);
    assert_eq!(back.chaos, soak.chaos);

    let cat = CatalogSoakSpec::full(ChaosMode::EmptySchedule);
    let back = Scenario::catalog_soak(&cat).catalog_spec().unwrap();
    assert_eq!(back.sites, cat.sites);
    assert_eq!(back.chaos, ChaosMode::EmptySchedule);

    let grid = GridSoakSpec::full();
    let back = Scenario::grid_soak(&grid).grid_spec().unwrap();
    assert_eq!(back.site_count(), grid.site_count());
    assert_eq!(back.seed, grid.seed);

    let fetch = FetchSpec { crash_fastest: true, ..FetchSpec::default() };
    let back = Scenario::fetch(&fetch).fetch_spec().unwrap();
    assert_eq!(back.size, fetch.size);
    assert!(back.crash_fastest);
    assert_eq!(back.seed, fetch.seed);
}

#[test]
fn run_scenario_dispatches_on_workload_kind() {
    let out = run_scenario(&Scenario::replication_soak(&SoakSpec::quick(ChaosMode::Off))).unwrap();
    assert!(matches!(out, ScenarioOutcome::ReplicationSoak(_)));
    let out = run_scenario(&Scenario::fetch(&FetchSpec::default())).unwrap();
    assert!(matches!(out, ScenarioOutcome::Fetch(_)));
}

#[test]
fn fetch_sweep_mutators_match_spec_flags() {
    let base = Scenario::fetch(&FetchSpec::default());
    let crashed = base.clone().with_striped_policy().with_fastest_source_crash().unwrap();
    let twin = Scenario::fetch(&FetchSpec {
        policy: striped_policy(),
        crash_fastest: true,
        ..FetchSpec::default()
    });
    assert_eq!(crashed, twin, "mutators must reproduce the builtin crash scenario exactly");
}
