//! # gdmp-workloads — synthetic workload generators
//!
//! The paper's evaluation inputs, reproducible at laptop scale:
//!
//! * [`cascade`] — the Section 5.1 physics analysis cascade (10⁹ → 10⁴
//!   events, 100 B → 1 MB objects, scaled);
//! * [`population`] — event-store population with object→file placement
//!   policies (clustered, mixed, striped);
//! * [`transfer`] — the Figure 5/6 parameter grids;
//! * [`zipf`] — Zipf access sampling for cache workloads;
//! * [`scenario`] — the declarative scenario DSL: a strict JSON schema
//!   describing sites, storage, links, faults, and workload, and the
//!   runners of its four workloads — the multi-source fetch, the seeded
//!   replication chaos soak, the federated-catalog soak and the Tier-0/1/2
//!   grid soak. The committed `scenarios/*.json` files are its presets;
//! * [`grid`] — the Tier-0/1/2 soak's shape generator;
//! * [`fanout`] — many independent CERN→site pushes in one network, the
//!   multi-link event-count fixture of the simnet baseline;
//! * [`observe`] — grid-level time-series sampling (tape staging backlog,
//!   replica disk-hit rate) for the scenario drivers.

pub mod cascade;
pub mod fanout;
pub mod grid;
pub mod observe;
pub mod population;
pub mod scenario;
pub mod transfer;
pub mod zipf;

pub use cascade::{CascadeSpec, CascadeStep, StepResult};
pub use fanout::{run_fanout, FanoutOutcome};
pub use grid::GridSoakSpec;
pub use population::{Placement, Population};
pub use scenario::{
    run_scenario, CatalogSoakOutcome, FetchOutcome, GridSoakOutcome, Scenario, ScenarioError,
    ScenarioOutcome, SoakOutcome,
};
pub use transfer::{FigureSweep, MB};
pub use zipf::Zipf;
