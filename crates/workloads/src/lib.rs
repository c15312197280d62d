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
//! * [`soak`] — seeded chaos soak: replication under crashes, link cuts,
//!   and partitions, checked against grid-wide invariants;
//! * [`catalog`] — federated-catalog soak: Zipf lookups on 100+ sites
//!   under RLI crashes, update losses, and catalog delays — the
//!   never-wrong contract checked every round;
//! * [`fetch`] — the multi-source fetch scenario: striped pulls over
//!   asymmetric WAN paths, with and without a mid-transfer source crash;
//! * [`fanout`] — many independent CERN→site pushes in one network, the
//!   multi-link event-count fixture of the simnet baseline;
//! * [`observe`] — grid-level time-series sampling (tape staging backlog,
//!   replica disk-hit rate) for the scenario drivers;
//! * [`scenario`] — the declarative scenario DSL: a strict JSON schema
//!   describing sites, storage, links, faults, and workload, compiled
//!   into the exact grids the runners above build — same seed, same
//!   bytes.

pub mod cascade;
pub mod catalog;
pub mod fanout;
pub mod fetch;
pub mod grid;
pub mod observe;
pub mod population;
pub mod scenario;
pub mod soak;
pub mod transfer;
pub mod zipf;

pub use cascade::{CascadeSpec, CascadeStep, StepResult};
pub use catalog::{run_catalog_soak, CatalogSoakOutcome, CatalogSoakSpec};
pub use fanout::{run_fanout, FanoutOutcome, FanoutSpec};
pub use fetch::{run_fetch, striped_policy, FetchOutcome, FetchSpec};
pub use grid::{run_grid_soak, GridSoakOutcome, GridSoakSpec};
pub use population::{Placement, Population};
pub use scenario::{run_scenario, Scenario, ScenarioError, ScenarioOutcome};
pub use soak::{run_soak, ChaosMode, SoakOutcome, SoakSpec};
pub use transfer::{FigureSweep, MB};
pub use zipf::Zipf;
