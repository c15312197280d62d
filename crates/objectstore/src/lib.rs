//! # gdmp-objectstore — the Objectivity-style object persistency substrate
//!
//! GDMP 1.2 replicated Objectivity database files; Section 5 of the paper
//! replicates *objects* by extracting them into fresh files. This crate is
//! the object store both modes rest on:
//!
//! * [`model`] — logical vs physical object identity, HEP object kinds
//!   (tag/AOD/ESD/raw with the paper's size tiers), associations;
//! * [`database`] — database files (containers of objects) with a binary
//!   image codec: the byte streams GridFTP actually ships;
//! * [`federation`] — the per-site persistency layer: attach/detach
//!   (GDMP's post-processing step), object lookup, navigation that fails
//!   when an associated file is missing (Section 2.1);
//! * [`copier`] — the object copier tool with its CPU/disk cost model
//!   (Sections 5.2–5.3);
//! * [`catalog`] — Figure 1's catalog chain: tag catalog and the global
//!   object→file location table with collective lookup;
//! * [`mod@recluster`] — the \[Holt98\] trace-driven reclustering the paper says
//!   fed into the object replication prototype.

pub mod catalog;
pub mod copier;
pub mod database;
pub mod federation;
pub mod model;
pub mod recluster;
pub mod schema;

pub use catalog::{FileCover, ObjectFileCatalog, TagCatalog};
pub use copier::{CopierSpec, CopyStats, ObjectCopier};
pub use database::{CodecError, Container, DatabaseFile};
pub use federation::{FedError, Federation};
pub use model::{
    standard_assocs, synth_fill, synth_payload, Association, FreshObject, LogicalOid, ObjectKind,
    Oid, StoredObject,
};
pub use recluster::{evaluate as recluster_evaluate, recluster, ReclusterGain, Trace};
pub use schema::{FieldType, SchemaError, SchemaRegistry, TypeDescriptor};
