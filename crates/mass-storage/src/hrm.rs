//! The Hierarchical Resource Manager plug-in interface (Section 4.4).
//!
//! GDMP interfaces to Mass Storage Systems through HRM \[Bern00\]: a uniform
//! API over "disk pool in front of an archive tier". A file request either
//! hits the disk cache or triggers an explicit stage from the archive into
//! the pool; GDMP starts the WAN transfer only once the file is on disk.
//!
//! The core owns the staging rules, the disk cache, and the statistics;
//! the archive tier is one [`Archive`] on a tape library, a nearline disk
//! array or a remote object store (see [`crate::backend`]).

use bytes::Bytes;
use gdmp_simnet::time::SimDuration;
use gdmp_telemetry::Registry;

use crate::backend::{Archive, BackendError, StorageConfig};
use crate::pool::{DiskPool, EvictionPolicy, PoolError};
use crate::tape::TapeSpec;

/// Where a requested file was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residence {
    /// Already in the disk pool — no staging cost.
    DiskHit,
    /// Staged from the archive tier into the pool.
    StagedFromTape,
}

/// Outcome of a file request.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    pub residence: Residence,
    /// Latency paid before the file was readable on disk.
    pub latency: SimDuration,
    pub data: Bytes,
}

/// HRM errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HrmError {
    Pool(PoolError),
    Backend(BackendError),
    /// Neither on disk nor in the archive.
    Unknown(String),
}

impl std::fmt::Display for HrmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HrmError::Pool(e) => write!(f, "disk pool: {e}"),
            HrmError::Backend(e) => write!(f, "archive: {e}"),
            HrmError::Unknown(n) => write!(f, "file unknown to the MSS: {n}"),
        }
    }
}

impl std::error::Error for HrmError {}

impl From<PoolError> for HrmError {
    fn from(e: PoolError) -> Self {
        HrmError::Pool(e)
    }
}

impl From<BackendError> for HrmError {
    fn from(e: BackendError) -> Self {
        HrmError::Backend(e)
    }
}

/// HRM statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HrmStats {
    pub disk_hits: u64,
    pub stage_requests: u64,
    pub total_stage_latency_ns: u64,
    /// Cost units charged by the archive across all operations.
    pub archive_cost_units: u64,
}

/// Disk pool + archive under a single staging API.
#[derive(Debug)]
pub struct HierarchicalStorage {
    pub pool: DiskPool,
    /// The archive tier (tape library unless configured otherwise).
    pub archive: Archive,
    pub stats: HrmStats,
    /// Telemetry sink; disabled (no-op) unless attached.
    telemetry: Registry,
}

impl HierarchicalStorage {
    /// The historical constructor: disk pool in front of a tape library.
    pub fn new(pool_capacity: u64, policy: EvictionPolicy, tape_spec: TapeSpec) -> Self {
        Self::with_config(pool_capacity, policy, &StorageConfig::Tape(tape_spec))
    }

    /// Disk pool in front of the archive a [`StorageConfig`] describes.
    pub fn with_config(pool_capacity: u64, policy: EvictionPolicy, config: &StorageConfig) -> Self {
        HierarchicalStorage {
            pool: DiskPool::new(pool_capacity, policy),
            archive: config.build(),
            stats: HrmStats::default(),
            telemetry: Registry::default(),
        }
    }

    /// Attach a telemetry registry; staging requests will record hit/stage
    /// counters and a staging-latency histogram into it.
    pub fn set_telemetry(&mut self, reg: Registry) {
        self.telemetry = reg;
    }

    /// Store a new file on disk; when `archive` is set it is also written
    /// through to the archive tier (so eviction from the pool is safe).
    /// Returns the archival latency (zero for disk-only files).
    pub fn store(
        &mut self,
        name: &str,
        data: Bytes,
        archive: bool,
    ) -> Result<SimDuration, HrmError> {
        self.pool.put(name, data.clone())?;
        if archive {
            let receipt = self.archive.store(name, data)?;
            self.stats.archive_cost_units += receipt.cost;
            Ok(receipt.latency)
        } else {
            Ok(SimDuration::ZERO)
        }
    }

    /// `file stage request`: make `name` resident on disk, staging from
    /// the archive if needed, and report the latency paid.
    pub fn request(&mut self, name: &str) -> Result<StageOutcome, HrmError> {
        if let Some(data) = self.pool.get(name) {
            self.stats.disk_hits += 1;
            self.telemetry.counter_add("hrm_requests", &[("residence", "disk")], 1);
            return Ok(StageOutcome {
                residence: Residence::DiskHit,
                latency: SimDuration::ZERO,
                data,
            });
        }
        if !self.archive.contains(name) {
            return Err(HrmError::Unknown(name.to_string()));
        }
        let (data, receipt) = self.archive.fetch(name)?;
        let latency = receipt.latency;
        // Staging requires pool space: evict per policy (the pool "cache").
        self.pool.put(name, data.clone())?;
        self.stats.stage_requests += 1;
        self.stats.total_stage_latency_ns += latency.nanos();
        self.stats.archive_cost_units += receipt.cost;
        self.telemetry.counter_add("hrm_requests", &[("residence", "tape")], 1);
        self.telemetry.observe("hrm_stage_latency_ns", &[], latency.nanos());
        Ok(StageOutcome { residence: Residence::StagedFromTape, latency, data })
    }

    /// Is the file known at all (disk or archive)?
    pub fn knows(&self, name: &str) -> bool {
        self.pool.contains(name) || self.archive.contains(name)
    }

    /// Is the file currently resident on disk (no staging needed)?
    pub fn on_disk(&self, name: &str) -> bool {
        self.pool.contains(name)
    }

    /// Is the file held by the archive tier (staging would succeed)?
    pub fn archived(&self, name: &str) -> bool {
        self.archive.contains(name)
    }

    /// Files in the archive but not currently disk-resident: the staging
    /// backlog a sweep of requests would have to pay for. This is what the
    /// `tape_stage_backlog` time-series samples.
    pub fn stage_backlog(&self) -> usize {
        self.archive.file_names().iter().filter(|n| !self.pool.contains(n)).count()
    }

    /// Drop a file everywhere.
    pub fn purge(&mut self, name: &str) -> Result<(), HrmError> {
        let mut found = false;
        if self.pool.contains(name) {
            self.pool.remove(name)?;
            found = true;
        }
        if self.archive.contains(name) {
            self.archive.evict(name)?;
            found = true;
        }
        if found {
            Ok(())
        } else {
            Err(HrmError::Unknown(name.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DiskArraySpec, ObjectStoreSpec};

    fn tape_config() -> StorageConfig {
        StorageConfig::Tape(TapeSpec {
            mount_time: SimDuration::from_secs(60),
            seek_bytes_per_sec: 100_000_000,
            stream_bytes_per_sec: 10_000_000,
            drives: 1,
            tape_capacity: 1 << 30,
        })
    }

    fn hrm(pool: u64) -> HierarchicalStorage {
        HierarchicalStorage::with_config(pool, EvictionPolicy::Lru, &tape_config())
    }

    #[test]
    fn disk_hit_is_free() {
        let mut h = hrm(1000);
        h.store("a", Bytes::from(vec![0u8; 100]), true).unwrap();
        let o = h.request("a").unwrap();
        assert_eq!(o.residence, Residence::DiskHit);
        assert_eq!(o.latency, SimDuration::ZERO);
        assert_eq!(h.stats.disk_hits, 1);
    }

    #[test]
    fn evicted_file_stages_back_from_tape() {
        let mut h = hrm(250);
        h.store("a", Bytes::from(vec![1u8; 100]), true).unwrap();
        h.store("b", Bytes::from(vec![2u8; 100]), true).unwrap();
        h.store("c", Bytes::from(vec![3u8; 100]), true).unwrap(); // evicts a
        assert!(!h.on_disk("a"));
        assert!(h.knows("a"));
        let o = h.request("a").unwrap();
        assert_eq!(o.residence, Residence::StagedFromTape);
        // Single drive, single tape: no mount, but seek + stream are paid.
        assert!(o.latency > SimDuration::ZERO, "staging latency expected");
        assert_eq!(o.data[0], 1);
        assert!(h.on_disk("a"));
    }

    #[test]
    fn non_archived_file_is_lost_on_eviction() {
        let mut h = hrm(250);
        h.store("volatile", Bytes::from(vec![9u8; 100]), false).unwrap();
        h.store("b", Bytes::from(vec![0u8; 100]), false).unwrap();
        h.store("c", Bytes::from(vec![0u8; 100]), false).unwrap();
        h.store("d", Bytes::from(vec![0u8; 100]), false).unwrap(); // evicts volatile
        assert!(matches!(h.request("volatile"), Err(HrmError::Unknown(_))));
    }

    #[test]
    fn purge_removes_everywhere() {
        let mut h = hrm(1000);
        h.store("a", Bytes::from(vec![0u8; 10]), true).unwrap();
        h.purge("a").unwrap();
        assert!(!h.knows("a"));
        assert!(matches!(h.purge("a"), Err(HrmError::Unknown(_))));
    }

    #[test]
    fn stage_latency_accumulates_in_stats() {
        let mut h = hrm(150);
        h.store("a", Bytes::from(vec![0u8; 100]), true).unwrap();
        h.store("b", Bytes::from(vec![0u8; 100]), true).unwrap(); // evicts a
        h.request("a").unwrap(); // stage
        assert_eq!(h.stats.stage_requests, 1);
        assert!(h.stats.total_stage_latency_ns > 0);
        assert!(h.stats.archive_cost_units > 0, "archive ops must charge cost units");
    }

    #[test]
    fn staging_works_identically_over_every_adapter() {
        // The HRM's staging behaviour (evict → request → stage back) is
        // medium-independent; only the latency/cost numbers differ.
        for config in [
            tape_config(),
            StorageConfig::DiskArray(DiskArraySpec::commodity()),
            StorageConfig::ObjectStore(ObjectStoreSpec::remote()),
        ] {
            let mut h = HierarchicalStorage::with_config(250, EvictionPolicy::Lru, &config);
            h.store("a", Bytes::from(vec![1u8; 100]), true).unwrap();
            h.store("b", Bytes::from(vec![2u8; 100]), true).unwrap();
            h.store("c", Bytes::from(vec![3u8; 100]), true).unwrap(); // evicts a
            assert!(!h.on_disk("a"), "{}: a should be evicted", config.kind());
            let o = h.request("a").unwrap();
            assert_eq!(o.residence, Residence::StagedFromTape, "{}", config.kind());
            assert!(o.latency > SimDuration::ZERO, "{}", config.kind());
            assert_eq!(h.stage_backlog(), 1, "{}: b or c left in archive only", config.kind());
        }
    }
}
