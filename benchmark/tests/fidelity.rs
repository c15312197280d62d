//! The benchmark measures the path users run, not a look-alike: feeding
//! the generated scenario JSON to `gdmp_workloads::run_scenario` yields
//! the same op counts, ladder splits, final sim clock and telemetry
//! export as the driver's timed loop.

use gdmp_benchmark::meter::Meter;
use gdmp_benchmark::stats::{fnv1a, FNV_OFFSET};
use gdmp_benchmark::workloads::grid_mix::GridMix;
use gdmp_benchmark::workloads::push_soak::PushSoak;
use gdmp_benchmark::workloads::Workload;
use gdmp_workloads::scenario::{run_scenario, Scenario, ScenarioOutcome};

fn export_digest(reg: &gdmp_telemetry::Registry) -> Option<u64> {
    Some(fnv1a(FNV_OFFSET, reg.export_json_lines().as_bytes()))
}

#[test]
fn grid_mix_driver_matches_run_scenario() {
    let w = GridMix::new(7);
    let rep = w.rep(true, &mut Meter::new(false));
    assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    let scenario = Scenario::from_json_str(&w.scenario_json).unwrap();
    let ScenarioOutcome::GridSoak(out) = run_scenario(&scenario).unwrap() else {
        panic!("grid_mix generates a grid_soak scenario");
    };
    let c = &rep.sim.counts;
    assert_eq!(c["lookups"], out.lookups);
    assert_eq!(c["publishes"], out.publishes);
    assert_eq!(c["fetches"], out.fetches);
    assert_eq!(c["index_hits"], out.index_hits);
    assert_eq!(c["fallbacks"], out.fallbacks);
    assert_eq!(c["scatters"], out.scatters);
    assert_eq!(c["confirms"], out.confirms);
    assert_eq!(c["false_positives"], out.false_positives);
    assert_eq!(c["final_clock_ns"], out.final_clock_ns);
    assert_eq!(out.wrong_answers, 0);
    assert_eq!(rep.attempted, out.lookups + out.publishes + out.fetches);
    // `run_grid_scenario` stops before the invariant sweep, which is
    // read-only, so the exports agree byte for byte.
    assert_eq!(rep.sim.export_digest, export_digest(&out.registry));
}

#[test]
fn push_soak_driver_matches_run_scenario() {
    let w = PushSoak::new(7);
    let rep = w.rep(true, &mut Meter::new(false));
    assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    assert_eq!(rep.failed, 0);
    let scenario = Scenario::from_json_str(&w.scenario_json).unwrap();
    let ScenarioOutcome::ReplicationSoak(out) = run_scenario(&scenario).unwrap() else {
        panic!("push_soak generates a replication_soak scenario");
    };
    assert!(out.converged(), "{:?}", out.report.violations);
    let c = &rep.sim.counts;
    assert_eq!(c["published"], out.published as u64);
    assert_eq!(c["replicated"], out.replicated as u64);
    assert_eq!(c["replicas_checked"], out.report.replicas_checked as u64);
    assert_eq!(c["final_clock_ns"], out.final_clock_ns);
    assert_eq!(rep.sim.export_digest, export_digest(&out.registry));
}
