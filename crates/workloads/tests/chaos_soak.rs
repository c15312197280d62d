//! The convergence soak: seeded chaos against a 5-site grid.
//!
//! Three fixed seeds (the `ci.sh --full` set) must each converge —
//! every invariant clean after faults heal and queues drain — and the same
//! seed must reproduce the identical event trace twice.

use gdmp_workloads::scenario::{run_soak_scenario, Scenario};
use gdmp_workloads::SoakOutcome;

/// The `soak_quick` preset (5 sites, seeded faults) at `seed`.
fn soak(seed: u64) -> SoakOutcome {
    run_soak_scenario(&Scenario { seed, ..Scenario::preset("soak_quick").unwrap() }).unwrap()
}

/// The smoke-test seeds. Each derived plan contains site crashes, link
/// flaps, a partition, and RPC drops (ChaosPlan defaults).
const SEEDS: [u64; 3] = [11, 42, 1337];

#[test]
fn seeded_soaks_converge() {
    for seed in SEEDS {
        let out = soak(seed);
        // A failing run must name its seed so it can be replayed.
        out.report.assert_clean(&format!("seed={seed}"));
        assert!(out.published > 0, "seed={seed}: nothing published");
        assert!(
            out.replicated >= out.published,
            "seed={seed}: full-mesh fan-out should replicate each file several times"
        );
        for kind in ["SiteDown", "SiteUp", "LinkDown", "Partition", "Heal"] {
            assert!(
                out.schedule_debug.contains(kind),
                "seed={seed}: plan lacks {kind}:\n{}",
                out.schedule_debug
            );
        }
    }
}

#[test]
fn same_seed_reproduces_identical_trace() {
    let a = soak(42);
    let b = soak(42);
    assert_eq!(a.schedule_debug, b.schedule_debug, "derived schedules differ");
    assert_eq!(a.final_clock_ns, b.final_clock_ns, "clocks diverged");
    assert_eq!(a.trace, b.trace, "event traces diverged");
    assert_eq!(
        a.registry.export_json_lines(),
        b.registry.export_json_lines(),
        "telemetry exports diverged"
    );
}

#[test]
fn chaos_run_exercises_the_failure_path() {
    let out = soak(42);
    let reg = &out.registry;
    // The schedule fired.
    let chaos_events: u64 = reg
        .metrics_snapshot()
        .iter()
        .filter(|(name, _, _)| name == "chaos_events")
        .map(|(_, _, v)| match v {
            gdmp_telemetry::MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum();
    assert!(chaos_events > 0, "no chaos events applied");
    // Recovery machinery left its fingerprints: at least one of the
    // failure-path counters moved (which ones depends on fault timing).
    let failure_counters: u64 = reg
        .metrics_snapshot()
        .iter()
        .filter(|(name, _, _)| {
            [
                "rpc_failures",
                "source_unreachable",
                "notices_journaled",
                "notices_replayed",
                "resync_repairs",
                "replications_deferred",
                "recovery_verdicts",
                "backoff_waits",
                "breaker_trips",
            ]
            .contains(&name.as_str())
        })
        .map(|(_, _, v)| match v {
            gdmp_telemetry::MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum();
    assert!(failure_counters > 0, "chaos run never touched the failure path");
}
