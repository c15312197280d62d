//! # gdmp-mass-storage — simulated site storage (Section 4.4)
//!
//! Each GDMP site owns a **disk pool** ("a data transfer cache for the
//! Grid") in front of a **Mass Storage System** (an HPSS-style tape
//! library). GDMP triggers explicit file-stage requests between the two
//! through an HRM-style API, pays mount/seek/stream latencies for tape
//! access, and reserves disk space before transfers
//! (`allocate_storage(datasize)`). [`HierarchicalStorage`] over a
//! [`TapeLibrary`] (or another [`StorageBackend`]) is the staging model:
//! each request either hits the pool or pays the archive's stage latency.
//!
//! All latencies are [`gdmp_simnet::time::SimDuration`] values returned to
//! the caller; this crate never sleeps or reads a real clock.

pub mod backend;
pub mod hrm;
pub mod pool;
pub mod tape;

pub use backend::{
    BackendError, BackendStats, CostUnits, DiskArrayBackend, DiskArraySpec, ObjectStoreBackend,
    ObjectStoreSpec, OpReceipt, StorageBackend, StorageConfig, TapeBackend,
};
pub use hrm::{HierarchicalStorage, HrmError, Residence, StageOutcome};
pub use pool::{DiskPool, EvictionPolicy, PoolError, Reservation};
pub use tape::{TapeError, TapeLibrary, TapeSpec};
