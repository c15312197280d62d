//! Fluent construction for [`Grid`]: every knob that accreted across the
//! telemetry, fast-forward, chaos, and multi-source work — WAN profiles,
//! fault schedules, recovery strategy, circuit breaker, fetch policy,
//! telemetry sink — set in one place, in one expression.
//!
//! ```
//! use gdmp::prelude::*;
//!
//! let mut grid = Grid::builder("cms")
//!     .site(SiteConfig::named("cern", "CERN", 0xCE12))
//!     .site(SiteConfig::named("anl", "ANL", 0xA121))
//!     .trust_all()
//!     .default_profile(WanProfile::cern_anl_production())
//!     .fetch_policy(FetchPolicy::multi_source())
//!     .build();
//! grid.subscribe("anl", "cern").unwrap();
//! ```
//!
//! The pre-builder mutators (`Grid::enable_telemetry`, `set_telemetry`,
//! `set_breaker`, `set_recovery`, `set_fault_schedule`) were deprecated in
//! 0.6 and removed in 0.8 — the builder is the only way to configure these
//! at construction time (see DESIGN.md §12.4 for the migration table). The
//! one mid-run door left open is [`Grid::inject_fault_schedule`], for
//! chaos timelines whose event times depend on the running experiment's
//! clock.

use gdmp_gridftp::sim::WanProfile;
use gdmp_telemetry::Registry;

use crate::chaos::FaultSchedule;
use crate::grid::Grid;
use crate::recovery::{BreakerConfig, CircuitBreaker, RecoveryStrategy};
use crate::schedule::FetchPolicy;
use crate::site::SiteConfig;
use gdmp_replica_catalog::federation::FederationConfig;

/// Builder for [`Grid`]; obtain one with [`Grid::builder`].
#[derive(Default)]
pub struct GridBuilder {
    collection: String,
    sites: Vec<SiteConfig>,
    trusts: Vec<(String, String)>,
    trust_all: bool,
    subscriptions: Vec<(String, String)>,
    default_profile: Option<WanProfile>,
    profiles: Vec<(String, String, WanProfile)>,
    telemetry: Option<Option<Registry>>,
    fetch: Option<FetchPolicy>,
    recovery: Option<Box<dyn RecoveryStrategy>>,
    breaker: Option<BreakerConfig>,
    federation: bool,
    chaos: Option<FaultSchedule>,
}

impl Grid {
    /// Start building a grid whose replica catalog uses `collection`.
    pub fn builder(collection: &str) -> GridBuilder {
        GridBuilder { collection: collection.to_string(), ..GridBuilder::default() }
    }
}

impl GridBuilder {
    /// Add a site (order is preserved; sites are addressable by name).
    pub fn site(mut self, cfg: SiteConfig) -> Self {
        self.sites.push(cfg);
        self
    }

    /// Allow `caller` to invoke all operations on `callee`
    /// (directed, like [`Grid::trust`]).
    pub fn trust(mut self, callee: &str, caller: &str) -> Self {
        self.trusts.push((callee.to_string(), caller.to_string()));
        self
    }

    /// Mutual full trust between every pair of sites.
    pub fn trust_all(mut self) -> Self {
        self.trust_all = true;
        self
    }

    /// Subscribe `subscriber` to `producer`'s publications at build time.
    /// Note this issues the Subscribe RPC during [`GridBuilder::build`],
    /// charging control round trips on the fresh grid's clock exactly as a
    /// manual [`Grid::subscribe`] call would.
    pub fn subscription(mut self, subscriber: &str, producer: &str) -> Self {
        self.subscriptions.push((subscriber.to_string(), producer.to_string()));
        self
    }

    /// WAN profile for site pairs without an explicit one.
    pub fn default_profile(mut self, profile: WanProfile) -> Self {
        self.default_profile = Some(profile);
        self
    }

    /// WAN profile for one site pair (installed in both directions, like
    /// [`Grid::set_profile`]).
    pub fn profile(mut self, a: &str, b: &str, profile: WanProfile) -> Self {
        self.profiles.push((a.to_string(), b.to_string(), profile));
        self
    }

    /// Switch on telemetry with a fresh registry; read it back from
    /// [`Grid::telemetry`] after `build()`.
    pub fn telemetry(mut self) -> Self {
        self.telemetry = Some(None);
        self
    }

    /// Attach an externally created telemetry registry (e.g. one shared
    /// across several grids for merged metrics).
    pub fn telemetry_sink(mut self, reg: Registry) -> Self {
        self.telemetry = Some(Some(reg));
        self
    }

    /// Single- vs multi-source fetching for [`Grid::replicate`].
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch = Some(policy);
        self
    }

    /// Pluggable error-recovery strategy for the Data Mover.
    pub fn recovery(mut self, strategy: Box<dyn RecoveryStrategy>) -> Self {
        self.recovery = Some(strategy);
        self
    }

    /// Arm the Data Mover's per-source circuit breaker.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Federate the replica catalog: per-site authoritative LRCs feeding a
    /// soft-state RLI tree. Lookups and replication source discovery then
    /// route through [`Grid::lookup_replicas`]'s degradation ladder. The
    /// federation's geometry is fixed; the argument carries no setting.
    pub fn federation(mut self, _geometry: FederationConfig) -> Self {
        self.federation = true;
        self
    }

    /// Install a grid-level fault timeline (site crashes, link cuts,
    /// partitions). An empty schedule is behaviourally inert.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Assemble the grid. Telemetry is attached before sites are added so
    /// every site inherits the registry; trust edges and subscriptions are
    /// wired after all sites exist; the fault schedule is installed last,
    /// so build-time subscriptions complete before any fault can fire.
    pub fn build(self) -> Grid {
        let mut grid = Grid::new(&self.collection);
        if let Some(sink) = self.telemetry {
            grid.attach_telemetry(sink.unwrap_or_else(Registry::new));
        }
        if let Some(profile) = self.default_profile {
            grid.set_default_profile(profile);
        }
        for (a, b, profile) in self.profiles {
            grid.set_profile(&a, &b, profile);
        }
        for cfg in self.sites {
            grid.add_site(cfg);
        }
        if self.trust_all {
            grid.trust_all();
        }
        for (callee, caller) in self.trusts {
            grid.trust(&callee, &caller);
        }
        if self.federation {
            grid.enable_federation();
        }
        for (subscriber, producer) in self.subscriptions {
            grid.subscribe(&subscriber, &producer)
                .expect("build-time subscription failed; subscribe manually to handle errors");
        }
        if let Some(policy) = self.fetch {
            grid.set_fetch_policy(policy);
        }
        if let Some(strategy) = self.recovery {
            grid.recovery = strategy;
        }
        if let Some(config) = self.breaker {
            grid.breaker = CircuitBreaker::new(config);
        }
        if let Some(schedule) = self.chaos {
            grid.inject_fault_schedule(schedule);
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::BackoffRetry;

    #[test]
    fn builder_assembles_a_working_grid() {
        let mut g = Grid::builder("test")
            .site(SiteConfig::named("cern", "CERN", 1))
            .site(SiteConfig::named("anl", "ANL", 2))
            .trust_all()
            .telemetry()
            .fetch_policy(FetchPolicy::multi_source())
            .recovery(Box::new(BackoffRetry::new(0xB0FF)))
            .breaker(BreakerConfig::default())
            .fault_schedule(FaultSchedule::default())
            .build();
        assert!(g.telemetry().is_enabled());
        assert_eq!(g.fetch_policy(), FetchPolicy::multi_source());
        g.subscribe("anl", "cern").unwrap();
        let meta =
            g.publish_file("cern", "f.dat", bytes::Bytes::from(vec![7u8; 4096]), "flat").unwrap();
        assert_eq!(meta.size, 4096);
    }

    #[test]
    fn builder_subscription_matches_manual_subscribe() {
        let build = |via_builder: bool| {
            let mut b = Grid::builder("test")
                .site(SiteConfig::named("cern", "CERN", 1))
                .site(SiteConfig::named("anl", "ANL", 2))
                .trust_all();
            if via_builder {
                b = b.subscription("anl", "cern");
            }
            let mut g = b.build();
            if !via_builder {
                g.subscribe("anl", "cern").unwrap();
            }
            g
        };
        let a = build(true);
        let b = build(false);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.rpc_count, b.rpc_count);
    }
}
