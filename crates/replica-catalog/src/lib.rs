//! # gdmp-replica-catalog — Globus Replica Catalog and GDMP catalog service
//!
//! Reproduces Section 3.1 and Section 4.2 of the paper:
//!
//! * [`ldap`] — the simulated LDAP directory the catalog is stored in
//!   (DN tree, multi-valued attributes, scoped search, RFC 2254 filters);
//! * [`catalog`] — the Globus Replica Catalog objects: collections,
//!   locations, logical file entries, and `locate` (all physical replicas
//!   of a logical file — "the heart of the system");
//! * [`service`] — GDMP's high-level wrapper: unique global namespace,
//!   auto-created entries, sanity checks, metadata filters;
//! * [`federation`] — the successor design the central catalog grew into:
//!   per-site authoritative LRCs feeding a soft-state RLI tree with
//!   bloom-compressed summaries, TTL expiry, and bounded-staleness
//!   never-wrong lookup planning.

pub mod catalog;
pub mod federation;
pub mod ldap;
pub mod service;

pub use catalog::{CatalogError, PhysicalLocation, ReplicaCatalog};
pub use federation::{
    BloomFilter, FederatedCatalog, FederationConfig, FederationFaults, FederationStats, LookupPlan,
    NoFaults,
};
pub use ldap::{Directory, Filter, LdapDn, LdapError, Scope};
pub use service::{FileMeta, ReplicaCatalogService, ReplicaInfo};
