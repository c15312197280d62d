//! Scenario-DSL contract tests: the preset table, round-trip fidelity,
//! strict rejection of malformed input, the sweep mutators, and what each
//! runner does on its presets.

use super::*;

fn preset(name: &str) -> Scenario {
    Scenario::preset(name).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Preset `name` with its seed and faults replaced.
fn variant(name: &str, seed: u64, faults: Faults) -> Scenario {
    Scenario { seed, faults, ..preset(name) }
}

// -----------------------------------------------------------------------
// The preset table and round-trip fidelity
// -----------------------------------------------------------------------

#[test]
fn preset_table_lists_exactly_the_committed_files() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("scenarios/ is readable")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    files.sort();
    let names: Vec<&str> = PRESETS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, files);
}

#[test]
fn unknown_preset_lists_the_accepted_names() {
    let err = Scenario::preset("soak").unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, ScenarioError::Reference(_)), "want Reference error, got {err:?}");
    assert!(msg.contains("`soak`"), "error must quote the bad name: {msg}");
    assert!(msg.contains("accepted presets: catalog_full, "), "{msg}");
    assert!(msg.contains("soak_quick"), "{msg}");
}

/// Every built-in preset survives a JSON round trip, and its committed
/// file is already in the canonical form `to_json_pretty` writes.
#[test]
fn every_builtin_round_trips_through_json() {
    for (name, text) in PRESETS {
        let scenario = preset(name);
        let canonical = scenario.to_json_pretty();
        let back = Scenario::from_json_str(&canonical)
            .unwrap_or_else(|e| panic!("{name}: canonical JSON failed to re-parse: {e}"));
        assert_eq!(back, scenario, "{name}: parse(serialize(s)) != s");
        assert_eq!(back.to_json_pretty(), canonical, "{name}: serialization is not canonical");
        assert_eq!(text, canonical + "\n", "{name}: the committed file is not canonical");
    }
}

// -----------------------------------------------------------------------
// Strictness: unknown fields, unknown kinds, dangling references
// -----------------------------------------------------------------------

#[test]
fn unknown_top_level_field_is_rejected_with_context() {
    let mut text = preset("fetch").to_json_pretty();
    text = text.replacen("\"name\"", "\"naem\"", 1);
    let err = Scenario::from_json_str(&text).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, ScenarioError::Schema(_)), "want Schema error, got {err:?}");
    assert!(msg.contains("naem"), "error must name the offending field: {msg}");
    assert!(msg.contains("accepted fields"), "error must list what is accepted: {msg}");
}

#[test]
fn unknown_nested_field_is_rejected_with_context() {
    let mut text = preset("fetch").to_json_pretty();
    text = text.replacen("\"edges\"", "\"egdes\"", 1);
    let err = Scenario::from_json_str(&text).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("egdes"), "error must name the typo: {msg}");
    assert!(msg.contains("links"), "error must locate the section: {msg}");
}

#[test]
fn retired_workers_knob_is_rejected() {
    // Files written before the parallel engine was deleted carry the key.
    let mut text = preset("fetch").to_json_pretty();
    text = text.replacen("\"edges\"", "\"workers\": 1, \"edges\"", 1);
    let msg = Scenario::from_json_str(&text).unwrap_err().to_string();
    assert!(msg.contains("unknown field `workers` in `links`"), "{msg}");
    assert!(msg.contains("accepted fields: default, edges, tiered"), "{msg}");

    let mut built = preset("fetch");
    built.links.workers = 2;
    let err = built.validate().unwrap_err();
    assert!(matches!(err, ScenarioError::Schema(_)), "want Schema error, got {err:?}");
}

#[test]
fn unknown_kind_is_rejected_with_accepted_list() {
    let mut text = preset("fetch").to_json_pretty();
    text = text.replacen("\"classic_tape\"", "\"classic_tap\"", 1);
    let err = Scenario::from_json_str(&text).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("classic_tap"), "error must quote the bad kind: {msg}");
    assert!(msg.contains("accepted kinds"), "error must list valid kinds: {msg}");
}

#[test]
fn duplicate_keys_are_rejected() {
    let text = preset("fetch").to_json_pretty().replacen(
        "\"seed\": 65148,",
        "\"seed\": 65148, \"seed\": 1,",
        1,
    );
    let err = Scenario::from_json_str(&text).unwrap_err();
    assert_eq!(err.to_string(), "scenario schema error: duplicate field `seed` in the scenario");

    let text = preset("fetch").to_json_pretty().replacen(
        "\"queue\": 256",
        "\"queue\": 256, \"queue\": 1",
        1,
    );
    let err = Scenario::from_json_str(&text).unwrap_err();
    assert_eq!(
        err.to_string(),
        "scenario schema error: duplicate field `queue` in `links.default`"
    );
}

/// The text of the error `s` fails to load with.
fn load_error(s: &Scenario) -> String {
    Scenario::from_json_str(&s.to_json_pretty()).unwrap_err().to_string()
}

fn tape(drives: usize, seek_bytes_per_sec: u64, stream_bytes_per_sec: u64) -> StorageDecl {
    StorageDecl::Tape {
        mount_ms: 1,
        seek_bytes_per_sec,
        stream_bytes_per_sec,
        drives,
        tape_capacity: 1 << 30,
    }
}

#[test]
fn tape_without_drives_is_rejected() {
    let mut scenario = preset("soak_quick");
    let Topology::Flat { storage, .. } = &mut scenario.topology else { unreachable!() };
    *storage = tape(0, 1, 1);
    assert_eq!(
        load_error(&scenario),
        "scenario schema error: topology.storage.drives must be a positive integer, got 0"
    );
}

#[test]
fn clean_profile_without_rate_is_rejected() {
    let mut scenario = preset("fetch");
    let ProfileDecl::Clean { rate_bps, .. } = &mut scenario.links.edges[1].profile else {
        unreachable!()
    };
    *rate_bps = 0;
    assert_eq!(
        load_error(&scenario),
        "scenario schema error: links.edges[1].profile.rate_bps must be a positive integer, got 0"
    );
}

#[test]
fn clean_profile_without_queue_is_rejected() {
    let mut scenario = preset("grid_quick");
    let ProfileDecl::Clean { queue, .. } = &mut scenario.links.tiered.as_mut().unwrap().regional
    else {
        unreachable!()
    };
    *queue = 0;
    assert_eq!(
        load_error(&scenario),
        "scenario schema error: links.tiered.regional.queue must be a positive integer, got 0"
    );
}

#[test]
fn archive_without_stream_rate_is_rejected() {
    let zero_rate = [
        tape(1, 1, 0),
        tape(1, 0, 1),
        StorageDecl::DiskArray { capacity: 1 << 30, op_latency_us: 1, stream_bytes_per_sec: 0 },
        StorageDecl::ObjectStore {
            rtt_us: 1,
            stream_bytes_per_sec: 0,
            cost_per_request: 1,
            cost_per_mib: 1,
        },
    ];
    for (storage, field) in zero_rate.into_iter().zip([
        "stream_bytes_per_sec",
        "seek_bytes_per_sec",
        "stream_bytes_per_sec",
        "stream_bytes_per_sec",
    ]) {
        let mut scenario = preset("fetch");
        let Topology::Explicit { sites } = &mut scenario.topology else { unreachable!() };
        sites[2].storage = storage;
        assert_eq!(
            load_error(&scenario),
            format!(
                "scenario schema error: topology.sites[2].storage.{field} must be a positive \
                 integer, got 0"
            )
        );
    }
}

#[test]
fn malformed_json_is_a_parse_error() {
    let err = Scenario::from_json_str("{ not json").unwrap_err();
    assert!(matches!(err, ScenarioError::Parse(_)), "got {err:?}");
}

#[test]
fn dangling_edge_reference_is_rejected() {
    let mut scenario = preset("fetch");
    scenario.links.edges[0].a = "cernn".to_string();
    let err = Scenario::from_json_str(&scenario.to_json_pretty()).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, ScenarioError::Reference(_)), "got {err:?}");
    assert!(msg.contains("cernn"), "error must name the dangling site: {msg}");
    assert!(msg.contains("known sites"), "error must list known sites: {msg}");
}

#[test]
fn dangling_fault_target_is_rejected() {
    let mut scenario = preset("fetch_striped_crash");
    if let Faults::Timeline { events } = &mut scenario.faults {
        events[0].event = EventDecl::SiteDown { site: "atlantis".to_string() };
    }
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("atlantis"), "{err}");
}

#[test]
fn fetch_from_itself_is_rejected() {
    let mut scenario = preset("fetch");
    if let WorkloadDecl::Fetch { sources, .. } = &mut scenario.workload {
        sources.push("lyon".to_string());
    }
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("cannot fetch from itself"), "{err}");
}

#[test]
fn catalog_chaos_without_federation_is_rejected() {
    let mut scenario = preset("catalog_quick");
    scenario.control.federation = false;
    let err = scenario.validate().unwrap_err();
    assert!(err.to_string().contains("federation"), "{err}");
}

#[test]
fn tiered_links_require_tiered_topology() {
    let mut scenario = preset("grid_quick");
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
    let scenario = preset("soak_quick");
    let err = run_fetch_scenario(&scenario).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fetch") && msg.contains("replication_soak"), "{msg}");
}

// -----------------------------------------------------------------------
// The generic dispatcher and the sweep mutators
// -----------------------------------------------------------------------

#[test]
fn run_scenario_dispatches_on_workload_kind() {
    let out = run_scenario(&preset("soak_quick")).unwrap();
    assert!(matches!(out, ScenarioOutcome::ReplicationSoak(_)));
    let out = run_scenario(&preset("fetch")).unwrap();
    assert!(matches!(out, ScenarioOutcome::Fetch(_)));
}

#[test]
fn fetch_sweep_mutators_match_spec_flags() {
    let crashed = preset("fetch").with_striped_policy().with_fastest_source_crash().unwrap();
    assert_eq!(
        crashed,
        preset("fetch_striped_crash"),
        "the mutators must reproduce the crash preset exactly"
    );
}

// -----------------------------------------------------------------------
// The runners on their presets
// -----------------------------------------------------------------------

mod fetch {
    use super::*;

    #[test]
    fn multi_source_beats_single_source_on_asymmetric_paths() {
        let single = run_fetch_scenario(&preset("fetch")).unwrap();
        let multi = run_fetch_scenario(&preset("fetch").with_striped_policy()).unwrap();
        assert!(single.converged && multi.converged);
        let speedup = multi.agg_mbps / single.agg_mbps;
        assert!(
            speedup >= 1.5,
            "striping must aggregate asymmetric paths: {:.1} vs {:.1} Mb/s ({speedup:.2}x)",
            multi.agg_mbps,
            single.agg_mbps
        );
        // Every source contributed in the striped run.
        assert!(multi.per_source_bytes.iter().all(|(_, b)| *b > 0), "{:?}", multi.per_source_bytes);
    }

    #[test]
    fn crashed_source_reassigns_ranges_and_converges() {
        let scenario = preset("fetch_striped_crash");
        let WorkloadDecl::Fetch { size, .. } = scenario.workload else { unreachable!() };
        let out = run_fetch_scenario(&scenario).unwrap();
        assert!(out.converged, "grid must converge after the crash heals");
        assert!(out.plan_rebuilds >= 1, "the crash must force a plan rebuild");
        assert!(out.ranges_reassigned >= 1, "the dead source's ranges must move");
        let cern = out.per_source_bytes.iter().find(|(s, _)| s == "cern").unwrap().1;
        assert!(cern < size, "the crashed source cannot have delivered everything");
    }

    #[test]
    fn fetch_runs_are_deterministic() {
        let scenario = preset("fetch_striped_crash");
        let a = run_fetch_scenario(&scenario).unwrap();
        let b = run_fetch_scenario(&scenario).unwrap();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.per_source_bytes, b.per_source_bytes);
        assert_eq!(a.ranges_reassigned, b.ranges_reassigned);
        assert_eq!(a.registry.export_json_lines(), b.registry.export_json_lines());
    }
}

mod soak {
    use super::*;

    #[test]
    fn soak_without_chaos_converges() {
        let out = run_soak_scenario(&variant("soak_quick", 0, Faults::None)).unwrap();
        assert!(out.converged(), "{:?}", out.report.violations);
        assert!(out.published > 0);
        assert!(out.replicated >= out.published * 2, "full mesh fan-out");
        assert!(out.schedule_debug.is_empty());
    }

    #[test]
    fn empty_schedule_matches_off_exactly() {
        let off = run_soak_scenario(&variant("soak_quick", 0, Faults::None)).unwrap();
        let empty = run_soak_scenario(&variant("soak_quick", 0, Faults::Empty)).unwrap();
        assert_eq!(off.trace, empty.trace);
        assert_eq!(off.final_clock_ns, empty.final_clock_ns);
        assert_eq!(off.published, empty.published);
        assert_eq!(off.replicated, empty.replicated);
        assert_eq!(
            off.registry.export_json_lines(),
            empty.registry.export_json_lines(),
            "an installed-but-empty schedule must be byte-identical to no schedule"
        );
    }
}

mod catalog {
    use super::*;

    #[test]
    fn catalog_soak_without_chaos_answers_everything() {
        let out = run_catalog_scenario(&variant("catalog_quick", 0, Faults::None)).unwrap();
        assert!(out.converged(), "{:?}", out.report.violations);
        assert!(out.never_wrong());
        assert_eq!(out.failed, 0, "no faults, no honest misses");
        assert_eq!(out.answered, out.lookups);
        assert!(out.via_rli > 0, "warm index should serve hits: {out:?}");
        assert!(out.schedule_debug.is_empty());
    }

    #[test]
    fn empty_schedule_matches_off_exactly() {
        let off = run_catalog_scenario(&variant("catalog_quick", 0, Faults::None)).unwrap();
        let empty = run_catalog_scenario(&variant("catalog_quick", 0, Faults::Empty)).unwrap();
        assert_eq!(off.trace, empty.trace);
        assert_eq!(off.final_clock_ns, empty.final_clock_ns);
        assert_eq!(off.answered, empty.answered);
        assert_eq!(off.stats, empty.stats);
        assert_eq!(
            off.registry.export_json_lines(),
            empty.registry.export_json_lines(),
            "an installed-but-empty schedule must be byte-identical to no schedule"
        );
    }

    #[test]
    fn seeded_catalog_chaos_is_never_wrong_and_deterministic() {
        let a = run_catalog_scenario(&preset("catalog_quick")).unwrap();
        let b = run_catalog_scenario(&preset("catalog_quick")).unwrap();
        assert!(a.never_wrong(), "wrong answers under the preset's seed: {:?}", a.stats);
        assert!(a.converged(), "{:?}", a.report.violations);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.final_clock_ns, b.final_clock_ns);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.registry.export_json_lines(),
            b.registry.export_json_lines(),
            "same seed must replay byte-identically"
        );
    }
}
