//! Scenario → grid compilation: one deterministic assembly path shared by
//! every scenario-driven runner. The compiled result is a built [`Grid`],
//! its [`Registry`], the ordered site names, and the installed fault
//! schedule's debug rendering.

use gdmp::prelude::*;
use gdmp::recovery::BackoffRetry;
use std::result::Result;

use super::{Scenario, ScenarioError, Topology};

pub(super) struct Compiled {
    pub grid: Grid,
    pub registry: Registry,
    pub names: Vec<String>,
    pub schedule_debug: String,
}

/// Validate and build. The builder application order is fixed by
/// [`gdmp::GridBuilder::build`]; the only order-sensitive steps here are
/// time-series enablement relative to `build()` and the post-build tiered
/// overlay.
pub(super) fn assemble(scenario: &Scenario) -> Result<Compiled, ScenarioError> {
    scenario.validate()?;
    let names = scenario.topology.site_names();

    let registry = match scenario.telemetry.recorder_capacity {
        Some(capacity) => Registry::with_recorder_capacity(capacity),
        None => Registry::new(),
    };
    if let Some(bucket) = scenario.telemetry.timeseries_bucket_ns {
        if !scenario.telemetry.timeseries_after_build {
            registry.enable_timeseries(bucket);
        }
    }

    let mut builder = Grid::builder(&scenario.control.collection)
        .telemetry_sink(registry.clone())
        .default_profile(scenario.links.default.to_profile());
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
    let (schedule, schedule_debug) = scenario.fault_schedule(&names);
    if let Some(schedule) = schedule {
        builder = builder.fault_schedule(schedule);
    }
    let mut grid = builder.build();

    // Tiered overlay after build, in region order.
    if let Some(tiered) = &scenario.links.tiered {
        let Topology::Tiered { tier1, tier2_per_tier1, .. } = &scenario.topology else {
            unreachable!("validate() rejects tiered links on non-tiered topologies");
        };
        let t0 = &names[0];
        for r in 0..*tier1 {
            let t1 = names[1 + r * (1 + tier2_per_tier1)].clone();
            grid.set_profile(t0, &t1, tiered.backbone.to_profile());
            grid.set_profile(&t1, t0, tiered.backbone.to_profile());
            for s in 0..*tier2_per_tier1 {
                let t2 = &names[1 + r * (1 + tier2_per_tier1) + 1 + s];
                grid.set_profile(&t1, t2, tiered.regional.to_profile());
                grid.set_profile(t2, &t1, tiered.regional.to_profile());
            }
        }
    }

    if let Some(bucket) = scenario.telemetry.timeseries_bucket_ns {
        if scenario.telemetry.timeseries_after_build {
            registry.enable_timeseries(bucket);
        }
    }

    Ok(Compiled { grid, registry, names, schedule_debug })
}

/// Chaos faults excluded: the horizon of the installed schedule, used by
/// the soak drain phases.
pub(super) fn fault_horizon(grid: &Grid) -> SimTime {
    grid.chaos_state().schedule().horizon()
}
