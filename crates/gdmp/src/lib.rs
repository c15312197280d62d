//! # gdmp — the Grid Data Management Pilot (the paper's contribution)
//!
//! A faithful reproduction of GDMP 2.0's architecture (Figure 4):
//!
//! * **Request Manager** ([`message`], [`grid::Grid::rpc`]) — limited RPC
//!   between sites, every call GSI-authenticated and gridmap-authorized;
//! * **Replica Catalog Service** — the central catalog wrapper lives in
//!   `gdmp-replica-catalog`; the [`grid::Grid`] owns the shared instance;
//! * **Data Mover** ([`grid::Grid::replicate`]) — one pipeline over a
//!   [`schedule`] plan: source selection, staging, space reservation,
//!   parallel GridFTP transfer (simulated WAN) with restart-on-failure and
//!   CRC verification, then per-file-type post-processing ([`plugins`]);
//! * **Storage Manager** — the disk-pool/tape staging integration of
//!   `gdmp-mass-storage`, triggered by `PrepareFile` requests;
//! * **producer/consumer replication** — subscribe, publish, notify,
//!   import/export catalogs, and catalog-based failure recovery;
//! * **object replication** ([`objrep`]) — Section 5's copier-based
//!   object-granularity replication with copy/transfer pipelining;
//! * **consistency policies** ([`consistency`]) — associated-file closure
//!   so navigation survives replication (Section 2.1).

pub mod builder;
pub mod chaos;
pub mod consistency;
pub mod error;
pub mod failure;
pub mod grid;
pub mod invariants;
mod lookup;
pub mod message;
mod mover;
pub mod objrep;
pub mod plugins;
mod publish;
pub mod recovery;
mod rpc;
pub mod schedule;
pub mod selection;
mod session;
pub mod site;

pub use builder::GridBuilder;
pub use chaos::{ChaosPlan, ChaosState, FaultEvent, FaultSchedule};
pub use consistency::{associated_closure, ConsistencyPolicy};
pub use error::{GdmpError, Result};
pub use failure::{FaultPlan, FaultState, Verdict};
pub use grid::{Grid, LookupResult, LookupVia, ReplicationReport, TransferConfig};
pub use invariants::{check_grid, InvariantReport, Violation};
pub use message::{FileNotice, Request, Response};
pub use objrep::{ObjectReplicationConfig, ObjectReplicationReport};
pub use plugins::{
    FileTypePlugin, FlatFilePlugin, ObjectivityPlugin, OraclePlugin, PluginRegistry,
};
pub use recovery::{
    BackoffRetry, BreakerConfig, CircuitBreaker, CorruptionAverse, FailoverRetry, FailureCtx,
    FailureKind, RecoveryAction, RecoveryStrategy, SimpleRetry,
};
pub use schedule::{Assignment, FetchPolicy, MultiSourcePlan, PlanExecution};
pub use selection::{estimate_sources, SourceEstimate};
pub use site::{Site, SiteConfig};

// The archive and its media (Section 4.4): re-exported so scenario files
// and per-site storage selection need only the `gdmp` crate.
pub use gdmp_mass_storage::backend::{
    BackendError, BackendStats, CostUnits, DiskArraySpec, ObjectStoreSpec, OpReceipt, StorageConfig,
};
pub use gdmp_mass_storage::tape::TapeSpec;

/// One import for the types nearly every test, example, and benchmark
/// reaches for: the grid and its builder, site configs, WAN profiles,
/// fetch policies, recovery strategies, errors, and sim time.
pub mod prelude {
    pub use crate::builder::GridBuilder;
    pub use crate::chaos::{ChaosPlan, FaultSchedule};
    pub use crate::error::{FailureKind, GdmpError, Result};
    pub use crate::grid::{Grid, LookupResult, LookupVia, ReplicationReport, TransferConfig};
    pub use crate::recovery::{BackoffRetry, BreakerConfig, RecoveryStrategy, SimpleRetry};
    pub use crate::schedule::{FetchPolicy, MultiSourcePlan};
    pub use crate::site::SiteConfig;
    pub use bytes::Bytes;
    pub use gdmp_gridftp::sim::WanProfile;
    pub use gdmp_mass_storage::backend::{DiskArraySpec, ObjectStoreSpec, StorageConfig};
    pub use gdmp_mass_storage::tape::TapeSpec;
    pub use gdmp_replica_catalog::federation::{
        FederatedCatalog, FederationConfig, FederationStats,
    };
    pub use gdmp_simnet::time::{SimDuration, SimTime};
    pub use gdmp_telemetry::Registry;
}
