//! Scenario → grid assembly over the public `gdmp` API.
//!
//! `gdmp_workloads::scenario` keeps its own assembly private, so the
//! driver repeats it here, step for step, to be able to time the build on
//! its own and to choose the telemetry sink. The fidelity tests pin the
//! two against each other: the same scenario through
//! `gdmp_workloads::run_scenario` must give the same counts, clock and
//! telemetry export.

use gdmp::prelude::*;
use gdmp_workloads::scenario::{Faults, Scenario, Topology};

/// A live registry as the scenario's `telemetry` section describes it.
pub fn live_registry(scenario: &Scenario) -> Registry {
    let registry = match scenario.telemetry.recorder_capacity {
        Some(capacity) => Registry::with_recorder_capacity(capacity),
        None => Registry::new(),
    };
    if let Some(bucket) = scenario.telemetry.timeseries_bucket_ns {
        assert!(
            !scenario.telemetry.timeseries_after_build,
            "the benchmark's scenarios enable time-series before build"
        );
        registry.enable_timeseries(bucket);
    }
    registry
}

/// Build the grid `scenario` describes with `registry` as its telemetry
/// sink (pass `Registry::disabled()` to measure the run without one).
pub fn assemble(scenario: &Scenario, registry: Registry) -> Grid {
    let names = scenario.topology.site_names();
    let mut builder = Grid::builder(&scenario.control.collection)
        .telemetry_sink(registry)
        .default_profile(scenario.links.default.to_profile().with_workers(scenario.links.workers));
    for edge in &scenario.links.edges {
        builder = builder.profile(&edge.a, &edge.b, edge.profile.to_profile());
    }
    if scenario.control.recovery {
        builder = builder.recovery(Box::new(BackoffRetry::new(scenario.seed)));
    }
    if scenario.control.breaker {
        builder = builder.breaker(BreakerConfig::default());
    }
    if let Some(policy) = scenario.control.fetch_policy.to_policy() {
        builder = builder.fetch_policy(policy);
    }
    if scenario.control.federation {
        builder = builder.federation(FederationConfig::default());
    }
    for cfg in scenario.topology.site_configs() {
        builder = builder.site(cfg);
    }
    if scenario.control.trust_all {
        builder = builder.trust_all();
    }
    if scenario.control.full_mesh_subscriptions {
        for a in &names {
            for b in &names {
                if a != b {
                    builder = builder.subscription(a, b);
                }
            }
        }
    }
    match &scenario.faults {
        Faults::None => {}
        Faults::Seeded { catalog_chaos: None } => {
            builder = builder.fault_schedule(ChaosPlan::new(scenario.seed, &names).schedule());
        }
        other => panic!("the benchmark generates no scenario with faults {other:?}"),
    }
    let mut grid = builder.build();

    if let Some(tiered) = &scenario.links.tiered {
        let Topology::Tiered { tier1, tier2_per_tier1, .. } = &scenario.topology else {
            unreachable!("Scenario::validate rejects tiered links on other topologies");
        };
        let t0 = &names[0];
        for r in 0..*tier1 {
            let t1 = &names[1 + r * (1 + tier2_per_tier1)];
            grid.set_profile(t0, t1, tiered.backbone.to_profile());
            grid.set_profile(t1, t0, tiered.backbone.to_profile());
            for s in 0..*tier2_per_tier1 {
                let t2 = &names[1 + r * (1 + tier2_per_tier1) + 1 + s];
                grid.set_profile(t1, t2, tiered.regional.to_profile());
                grid.set_profile(t2, t1, tiered.regional.to_profile());
            }
        }
    }
    grid
}
