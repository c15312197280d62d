//! The strict reader's error texts, pinned. Each case is a committed
//! preset with one edit applied to its canonical JSON; the exact message
//! `Scenario::from_json_str` returns (or `ok` when the edit is accepted)
//! is part of the file-format contract.

use gdmp_workloads::scenario::Scenario;

/// (preset, text to find, replacement, expected outcome).
const CASES: &[(&str, &str, &str, &str)] = &[
    // An unknown field in every section.
    (
        "fetch",
        "\"name\"",
        "\"naem\"",
        "scenario schema error: unknown field `naem` in the scenario (accepted fields: name, \
         seed, topology, links, control, telemetry, faults, workload)",
    ),
    (
        "fetch",
        "\"sites\"",
        "\"sitez\"",
        "scenario schema error: unknown field `sitez` in `topology` (accepted fields: kind, \
         sites)",
    ),
    (
        "fetch",
        "\"key_seed\": 23",
        "\"key_sed\": 23",
        "scenario schema error: unknown field `key_sed` in `topology.sites[0]` (accepted \
         fields: name, org, key_seed, pool_capacity, storage)",
    ),
    (
        "soak_quick",
        "\"kind\": \"classic_tape\"",
        "\"kind\": \"classic_tape\", \"drives\": 2",
        "scenario schema error: unknown field `drives` in `topology`.storage (accepted \
         fields: kind)",
    ),
    (
        "fetch",
        "\"edges\"",
        "\"egdes\"",
        "scenario schema error: unknown field `egdes` in `links` (accepted fields: default, \
         edges, tiered)",
    ),
    (
        "fetch",
        "\"a\": \"cern\"",
        "\"from\": \"cern\"",
        "scenario schema error: unknown field `from` in `links.edges[0]` (accepted fields: a, \
         b, profile)",
    ),
    (
        "fetch",
        "\"queue\": 256",
        "\"queu\": 256",
        "scenario schema error: unknown field `queu` in `links.default` (accepted fields: \
         kind, rate_bps, one_way_us, queue)",
    ),
    (
        "grid_quick",
        "\"backbone\"",
        "\"backbon\"",
        "scenario schema error: unknown field `backbon` in `links.tiered` (accepted fields: \
         backbone, regional)",
    ),
    (
        "fetch",
        "\"breaker\"",
        "\"braker\"",
        "scenario schema error: unknown field `braker` in `control` (accepted fields: \
         collection, recovery, breaker, federation, fetch_policy, trust_all, \
         full_mesh_subscriptions)",
    ),
    (
        "fetch_striped_crash",
        "\"min_chunk\"",
        "\"min_chnk\"",
        "scenario schema error: unknown field `min_chnk` in `control.fetch_policy` (accepted \
         fields: kind, max_sources, min_chunk)",
    ),
    (
        "fetch",
        "\"timeseries_after_build\"",
        "\"timeseries_after\"",
        "scenario schema error: unknown field `timeseries_after` in `telemetry` (accepted \
         fields: recorder_capacity, timeseries_bucket_ns, timeseries_after_build)",
    ),
    (
        "soak_quick",
        "\"kind\": \"seeded\"",
        "\"kind\": \"seeded\", \"events\": []",
        "scenario schema error: unknown field `events` in `faults` (accepted fields: kind, \
         catalog_chaos)",
    ),
    (
        "catalog_quick",
        "\"crashes\"",
        "\"crashs\"",
        "scenario schema error: unknown field `crashs` in `faults.catalog_chaos` (accepted \
         fields: crashes, losses, delays)",
    ),
    (
        "fetch_striped_crash",
        "\"site\": \"cern\"",
        "\"sit\": \"cern\"",
        "scenario schema error: unknown field `sit` in `faults.events[0]` (accepted fields: \
         at_ns, kind, site)",
    ),
    (
        "fetch",
        "\"lfn\"",
        "\"lfnn\"",
        "scenario schema error: unknown field `lfnn` in `workload` (accepted fields: kind, \
         size, lfn, dst, sources, t0_ns, settle_ns)",
    ),
    // An unknown kind in every tagged union.
    (
        "fetch",
        "\"kind\": \"explicit\"",
        "\"kind\": \"explict\"",
        "scenario schema error: unknown kind `explict` in `topology` (accepted kinds: \
         explicit, flat, tiered)",
    ),
    (
        "fetch",
        "\"classic_tape\"",
        "\"classic_tap\"",
        "scenario schema error: unknown kind `classic_tap` in `topology.sites[0]`.storage \
         (accepted kinds: classic_tape, tape, disk_array, object_store)",
    ),
    (
        "fetch",
        "\"kind\": \"clean\",\n          \"rate_bps\": 20000000",
        "\"kind\": \"dirty\",\n          \"rate_bps\": 20000000",
        "scenario schema error: unknown kind `dirty` in `links.edges[0]`.profile (accepted \
         kinds: cern_anl_production, clean)",
    ),
    (
        "fetch",
        "\"kind\": \"single\"",
        "\"kind\": \"singel\"",
        "scenario schema error: unknown kind `singel` in `control.fetch_policy` (accepted \
         kinds: default, single, multi)",
    ),
    (
        "soak_quick",
        "\"kind\": \"seeded\"",
        "\"kind\": \"seedd\"",
        "scenario schema error: unknown kind `seedd` in `faults` (accepted kinds: none, \
         empty, seeded, timeline)",
    ),
    (
        "fetch_striped_crash",
        "\"kind\": \"site_down\"",
        "\"kind\": \"site_dwn\"",
        "scenario schema error: unknown kind `site_dwn` in `faults.events[0]` (accepted \
         kinds: site_down, site_up, link_down, link_up)",
    ),
    (
        "fetch",
        "\"kind\": \"fetch\"",
        "\"kind\": \"fetchh\"",
        "scenario schema error: unknown kind `fetchh` in `workload` (accepted kinds: fetch, \
         replication_soak, catalog_soak, grid_soak)",
    ),
    // Missing required fields.
    (
        "fetch",
        "\"org\": \"lyon.fr\",",
        "",
        "scenario schema error: missing required field `org` in `topology.sites[0]`",
    ),
    (
        "soak_quick",
        "\"count\": 5,",
        "",
        "scenario schema error: missing required field `count` in `topology`",
    ),
    (
        "fetch_striped_crash",
        "\"at_ns\": 1003000000000,",
        "",
        "scenario schema error: missing required field `at_ns` in `faults.events[0]`",
    ),
    // Wrong types.
    (
        "fetch",
        "\"seed\": 65148",
        "\"seed\": \"65148\"",
        "scenario schema error: field `seed` in the scenario must be a non-negative integer, \
         got string",
    ),
    (
        "fetch",
        "\"key_seed\": 23",
        "\"key_seed\": -23",
        "scenario schema error: field `key_seed` in `topology.sites[0]` must be a \
         non-negative integer, got integer",
    ),
    (
        "fetch",
        "\"rate_bps\": 1000000000",
        "\"rate_bps\": 1e9",
        "scenario schema error: field `rate_bps` in `links.default` must be a non-negative \
         integer, got number",
    ),
    (
        "fetch",
        "\"recovery\": true",
        "\"recovery\": 1",
        "scenario schema error: field `recovery` in `control` must be a bool, got integer",
    ),
    ("catalog_quick", "\"zipf_alpha\": 0.9", "\"zipf_alpha\": 1", "ok"),
    (
        "soak_quick",
        "\"edges\": []",
        "\"edges\": {}",
        "scenario schema error: field `edges` in `links` must be a array, got object",
    ),
    // `null`, array elements and timeline events.
    ("soak_quick", "\"recorder_capacity\": 8192", "\"recorder_capacity\": null", "ok"),
    (
        "fetch",
        "\"name\": \"fetch\"",
        "\"name\": null",
        "scenario schema error: field `name` in the scenario must be a string, got null",
    ),
    (
        "fetch",
        "\"sources\": [",
        "\"sources\": [7, ",
        "scenario schema error: field `sources[0]` in `workload` must be a string, got integer",
    ),
    (
        "fetch_striped_crash",
        "\"kind\": \"site_down\",",
        "",
        "scenario schema error: missing required field `kind` in `faults.events[0]`",
    ),
];

#[test]
fn malformed_presets_fail_with_their_pinned_messages() {
    let mut mismatches = Vec::new();
    for (i, (preset, find, replace, want)) in CASES.iter().enumerate() {
        let canonical = Scenario::preset(preset).unwrap().to_json_pretty();
        assert!(canonical.contains(find), "case {i}: `{find}` is not in {preset}");
        let text = canonical.replacen(find, replace, 1);
        let got = match Scenario::from_json_str(&text) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        if got != *want {
            mismatches.push(format!("case {i} ({preset}: {find} -> {replace}):\n  {got}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
