//! `figures chaos --scenario F` sweeps its five modes over F itself: a
//! soak file with its own sites, archives and links reports that grid's
//! runs, mode by mode, not those of a flat classic-tape grid of the same
//! size on the production WAN profile.

use std::process::Command;

use gdmp_workloads::scenario::{
    run_soak_scenario, Faults, ProfileDecl, Scenario, SiteDecl, StorageDecl, Topology,
};

/// `soak_quick`'s workload on three explicit sites with object-store
/// archives, all pairs on a clean 1 Gb/s link.
fn explicit_soak() -> Scenario {
    let object_store = StorageDecl::ObjectStore {
        rtt_us: 20_000,
        stream_bytes_per_sec: 50_000_000,
        cost_per_request: 1,
        cost_per_mib: 2,
    };
    let site = |name: &str, key_seed| SiteDecl {
        name: name.to_string(),
        org: format!("{name}.org"),
        key_seed,
        pool_capacity: None,
        storage: object_store.clone(),
    };
    let mut scenario = Scenario::preset("soak_quick").unwrap();
    scenario.name = "explicit-soak".to_string();
    scenario.topology =
        Topology::Explicit { sites: vec![site("alpha", 1), site("beta", 2), site("gamma", 3)] };
    scenario.links.default =
        ProfileDecl::Clean { rate_bps: 1_000_000_000, one_way_us: 1_000, queue: 256 };
    scenario
}

/// The `(mode, final_s)` pairs of the chaos table `figures` prints for
/// the scenario file at `path`.
fn figures_chaos(path: &std::path::Path) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["chaos", "--json", "--scenario"])
        .arg(path)
        .output()
        .expect("figures runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let field = |line: &str, key: &str| -> String {
        let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
        rest[..rest.find([',', '}']).unwrap()].trim_matches('"').to_string()
    };
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("{\"record\":\"row\""))
        .map(|l| (field(l, "mode"), field(l, "final_s").parse().unwrap()))
        .collect()
}

#[test]
fn chaos_scenario_sweeps_the_files_own_grid() {
    let scenario = explicit_soak();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("explicit_soak.json");
    std::fs::write(&path, scenario.to_json_pretty()).unwrap();

    let seeded = || Faults::Seeded { catalog_chaos: None };
    let modes = [
        ("off", 0, Faults::None),
        ("empty", 0, Faults::Empty),
        ("seed=11", 11, seeded()),
        ("seed=42", 42, seeded()),
        ("seed=1337", 1337, seeded()),
    ];
    let want: Vec<(String, f64)> = modes
        .into_iter()
        .map(|(mode, seed, faults)| {
            let out = run_soak_scenario(&Scenario { seed, faults, ..scenario.clone() }).unwrap();
            (mode.to_string(), out.final_clock_ns as f64 / 1e9)
        })
        .collect();
    assert_eq!(figures_chaos(&path), want);
}
