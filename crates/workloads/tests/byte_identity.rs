//! Same-seed byte-identity across the interned-id control plane: the
//! interning refactor moved every hot-path map to id keys, and this suite
//! pins the observable contract — same scenario + seed ⇒ identical traces,
//! final clocks, and telemetry exports, and the chaos inertness contract
//! (off == installed-but-empty) survives unchanged. Strings exist only at
//! export boundaries, so nothing in the output may shift by a byte.

use gdmp_workloads::scenario::{
    run_catalog_scenario, run_grid_scenario, run_soak_scenario, Faults, Scenario,
};

fn preset(name: &str) -> Scenario {
    Scenario::preset(name).unwrap()
}

#[test]
fn grid_soak_full_scale_replays_byte_identically() {
    let a = run_grid_scenario(&preset("grid_full")).unwrap();
    let b = run_grid_scenario(&preset("grid_full")).unwrap();
    assert_eq!(a.sites, 105);
    assert_eq!(a.trace, b.trace, "event traces diverged");
    assert_eq!(a.final_clock_ns, b.final_clock_ns, "clocks diverged");
    assert_eq!(
        a.registry.export_json_lines(),
        b.registry.export_json_lines(),
        "telemetry exports diverged"
    );
}

#[test]
fn grid_soak_seed_changes_the_traffic_but_stays_never_wrong() {
    let base = run_grid_scenario(&preset("grid_quick")).unwrap();
    let other = run_grid_scenario(&Scenario { seed: 0xF00D, ..preset("grid_quick") }).unwrap();
    assert_ne!(
        (base.lookups, base.publishes, base.fetches),
        (other.lookups, other.publishes, other.fetches),
        "different seeds should draw a different op mix"
    );
    assert_eq!(base.wrong_answers, 0);
    assert_eq!(other.wrong_answers, 0);
}

#[test]
fn catalog_soak_same_seed_export_is_byte_identical() {
    let scenario = Scenario { seed: 0x1D5, ..preset("catalog_quick") };
    let a = run_catalog_scenario(&scenario).unwrap();
    let b = run_catalog_scenario(&scenario).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_clock_ns, b.final_clock_ns);
    assert_eq!(a.registry.export_json_lines(), b.registry.export_json_lines());
}

#[test]
fn chaos_inertness_contract_survives_interning() {
    // An installed-but-empty schedule must cost exactly nothing: the
    // id-keyed chaos state may not perturb a single timestamp or counter.
    let soak = |faults| run_soak_scenario(&Scenario { seed: 0, faults, ..preset("soak_quick") });
    let off = soak(Faults::None).unwrap();
    let empty = soak(Faults::Empty).unwrap();
    assert!(off.converged(), "{:?}", off.report.violations);
    assert!(off.schedule_debug.is_empty() && empty.schedule_debug.is_empty());
    assert_eq!(off.published, empty.published);
    assert_eq!(off.replicated, empty.replicated);
    assert_eq!(off.final_clock_ns, empty.final_clock_ns);
    assert_eq!(off.trace, empty.trace);
    assert_eq!(
        off.registry.export_json_lines(),
        empty.registry.export_json_lines(),
        "an installed-but-empty schedule must be byte-identical to no schedule"
    );
}
