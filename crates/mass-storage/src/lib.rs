//! # gdmp-mass-storage — simulated site storage (Section 4.4)
//!
//! Each GDMP site owns a **disk pool** ("a data transfer cache for the
//! Grid") in front of a **Mass Storage System** (an HPSS-style tape
//! library). GDMP triggers explicit file-stage requests between the two
//! through an HRM-style API, pays mount/seek/stream latencies for tape
//! access, and reserves disk space before transfers
//! (`allocate_storage(datasize)`). [`HierarchicalStorage`] over an
//! [`Archive`] is the staging model: each request either hits the pool or
//! pays the archive's stage latency. The archive is one store on one of
//! three media — a tape library, a nearline disk array or a remote object
//! store — and only the latency and cost of its operations differ
//! ([`backend`]).
//!
//! All latencies are [`gdmp_simnet::time::SimDuration`] values returned to
//! the caller; this crate never sleeps or reads a real clock.

pub mod backend;
pub mod hrm;
pub mod pool;
pub mod tape;

pub use backend::{
    Archive, BackendError, BackendStats, CostUnits, DiskArraySpec, ObjectStoreSpec, OpReceipt,
    StorageConfig,
};
pub use hrm::{HierarchicalStorage, HrmError, Residence, StageOutcome};
pub use pool::{DiskPool, EvictionPolicy, PoolError, Reservation};
pub use tape::TapeSpec;
