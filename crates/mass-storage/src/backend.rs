//! The archive tier behind a site's disk pool: one [`Archive`], three
//! media.
//!
//! GDMP (Section 4.4) reaches HPSS at SLAC, Castor at CERN and Enstore at
//! FNAL through one HRM interface; only the cost of an operation differs.
//! So does this module: [`Archive`] owns the archived files, the capacity
//! accounting, the uniform errors and the [`BackendStats`], and asks its
//! medium, picked by [`StorageConfig`], only what each store and fetch
//! costs:
//!
//! * **tape** — the robot library ([`crate::tape`]): mount + seek + stream
//!   latencies over a fixed number of drives with LRU dismount; 100 cost
//!   units per mount paid plus 1 per MiB streamed;
//! * **disk array** — a bounded nearline array: fixed per-op latency plus
//!   a streaming rate, 1 unit per op, and writes past its capacity are
//!   refused with [`BackendError::Full`];
//! * **object store** — an unbounded remote store: every request pays a
//!   round trip plus streaming, and costs per request plus per MiB.
//!
//! ## The latency/cost contract
//!
//! Every store and fetch returns an [`OpReceipt`]. Both fields are **pure
//! functions of the operation sequence**: no wall clocks, no ambient
//! randomness, so same ops ⇒ same receipts, byte for byte (the
//! conformance suite pins them for every medium). Latency is sim-time the
//! caller charges to its clock; `cost` is an abstract integer tally
//! (mounts, requests, shipped megabytes) that policy layers can budget
//! against without floating-point drift.

use std::collections::HashMap;

use bytes::Bytes;
use gdmp_simnet::time::SimDuration;

use crate::tape::{Slot, TapeDrives, TapeSpec};

/// Abstract, deterministic cost units (see the module docs).
pub type CostUnits = u64;

const MIB: u64 = 1024 * 1024;

/// Whole mebibytes touched by an operation, rounded up (1 minimum for a
/// non-empty payload), so per-byte pricing stays integral.
pub(crate) fn mib_ceil(bytes: u64) -> u64 {
    bytes.div_ceil(MIB)
}

/// What one store or fetch charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpReceipt {
    /// Sim-time the operation took; the caller charges its clock.
    pub latency: SimDuration,
    /// Abstract cost units (see the module docs).
    pub cost: CostUnits,
}

/// Archive errors, the same on every medium.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    NoSuchFile(String),
    AlreadyStored(String),
    /// A bounded medium was asked to absorb more than its free space.
    Full {
        name: String,
        size: u64,
        free: u64,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::NoSuchFile(n) => write!(f, "not in the archive: {n}"),
            BackendError::AlreadyStored(n) => write!(f, "already archived: {n}"),
            BackendError::Full { name, size, free } => {
                write!(f, "archive full: {name} needs {size} B, {free} B free")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Operation counters of an [`Archive`]. `mounts` is zero for media
/// without removable volumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    pub stores: u64,
    pub fetches: u64,
    pub evictions: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub mounts: u64,
    /// Total cost units charged across all operations.
    pub cost_units: CostUnits,
}

/// Declarative pick of an archive medium — what a scenario file's
/// per-site `storage` stanza compiles into and [`SiteConfig`] carries.
///
/// [`SiteConfig`]: https://docs.rs/gdmp (the `gdmp` crate's site config)
#[derive(Debug, Clone)]
pub enum StorageConfig {
    /// Robot tape library ([`TapeSpec`]); the default everywhere.
    Tape(TapeSpec),
    /// Bounded nearline disk array.
    DiskArray(DiskArraySpec),
    /// Unbounded remote object store.
    ObjectStore(ObjectStoreSpec),
}

impl StorageConfig {
    /// The historical default: a classic tape library.
    pub fn classic_tape() -> Self {
        StorageConfig::Tape(TapeSpec::classic())
    }

    /// Short medium name this config builds (`"tape"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            StorageConfig::Tape(_) => "tape",
            StorageConfig::DiskArray(_) => "disk_array",
            StorageConfig::ObjectStore(_) => "object_store",
        }
    }

    /// An empty archive on this medium.
    pub fn build(&self) -> Archive {
        let medium = match self {
            StorageConfig::Tape(spec) => Medium::Tape(TapeDrives::new(*spec)),
            StorageConfig::DiskArray(spec) => Medium::DiskArray(*spec),
            StorageConfig::ObjectStore(spec) => Medium::ObjectStore(*spec),
        };
        Archive {
            kind: self.kind(),
            medium,
            files: HashMap::new(),
            used: 0,
            stats: BackendStats::default(),
        }
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig::classic_tape()
    }
}

/// Physical shape of a nearline disk array.
#[derive(Debug, Clone, Copy)]
pub struct DiskArraySpec {
    /// Total capacity in bytes; stores past it return [`BackendError::Full`].
    pub capacity: u64,
    /// Fixed per-operation latency (controller + head positioning).
    pub op_latency: SimDuration,
    /// Streaming read/write rate, bytes per second.
    pub stream_bytes_per_sec: u64,
}

impl DiskArraySpec {
    /// A commodity RAID shelf: 200 GiB, 5 ms per op, 80 MB/s streaming.
    pub fn commodity() -> Self {
        DiskArraySpec {
            capacity: 200 * 1024 * MIB,
            op_latency: SimDuration::from_millis(5),
            stream_bytes_per_sec: 80_000_000,
        }
    }

    /// Every op pays the fixed latency plus the streaming time; cost is 1
    /// unit per op (spindles are cheap, the op slots are the scarce
    /// resource).
    fn receipt(&self, size: u64) -> OpReceipt {
        let latency =
            self.op_latency + SimDuration::serialization(size, self.stream_bytes_per_sec * 8);
        OpReceipt { latency, cost: 1 }
    }
}

/// Shape of an object-store-like remote archive.
#[derive(Debug, Clone, Copy)]
pub struct ObjectStoreSpec {
    /// Round trip paid by every request before any byte moves.
    pub rtt: SimDuration,
    /// Streaming transfer rate, bytes per second.
    pub stream_bytes_per_sec: u64,
    /// Cost units per request (PUT/GET/DELETE alike).
    pub cost_per_request: CostUnits,
    /// Cost units per MiB moved (rounded up per operation).
    pub cost_per_mib: CostUnits,
}

impl ObjectStoreSpec {
    /// A WAN-remote store: 80 ms RTT, 50 MB/s, 10 units/request + 2/MiB.
    pub fn remote() -> Self {
        ObjectStoreSpec {
            rtt: SimDuration::from_millis(80),
            stream_bytes_per_sec: 50_000_000,
            cost_per_request: 10,
            cost_per_mib: 2,
        }
    }

    /// Every request pays the round trip plus streaming; cost is
    /// per-request plus per-MiB (the cloud-bill model).
    fn receipt(&self, size: u64) -> OpReceipt {
        let latency = self.rtt + SimDuration::serialization(size, self.stream_bytes_per_sec * 8);
        OpReceipt { latency, cost: self.cost_per_request + self.cost_per_mib * mib_ceil(size) }
    }
}

/// What an archive medium is, and so what its operations cost.
#[derive(Debug)]
pub(crate) enum Medium {
    Tape(TapeDrives),
    DiskArray(DiskArraySpec),
    ObjectStore(ObjectStoreSpec),
}

impl Medium {
    /// Receipt for writing `size` bytes; on tape, also where they land.
    fn write(&mut self, size: u64) -> (OpReceipt, Option<Slot>) {
        match self {
            Medium::Tape(drives) => {
                let (receipt, slot) = drives.write(size);
                (receipt, Some(slot))
            }
            Medium::DiskArray(spec) => (spec.receipt(size), None),
            Medium::ObjectStore(spec) => (spec.receipt(size), None),
        }
    }

    /// Receipt for reading a file back.
    fn read(&mut self, file: &Entry) -> OpReceipt {
        let size = file.data.len() as u64;
        match self {
            Medium::Tape(drives) => {
                drives.read(file.slot.expect("every file on tape has a slot"), size)
            }
            Medium::DiskArray(spec) => spec.receipt(size),
            Medium::ObjectStore(spec) => spec.receipt(size),
        }
    }
}

/// An archived file: its bytes and, on tape, where they sit.
#[derive(Debug)]
struct Entry {
    data: Bytes,
    slot: Option<Slot>,
}

/// The archive tier behind a site's disk pool: the archived files, their
/// capacity accounting and counters, priced by one medium (see the module
/// docs). Built by [`StorageConfig::build`].
#[derive(Debug)]
pub struct Archive {
    kind: &'static str,
    pub(crate) medium: Medium,
    files: HashMap<String, Entry>,
    /// Bytes held; bounds stores only on a medium with a capacity.
    used: u64,
    stats: BackendStats,
}

impl Archive {
    /// Short medium name (`"tape"`, `"disk_array"`, `"object_store"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Write a file into the archive.
    pub fn store(&mut self, name: &str, data: Bytes) -> Result<OpReceipt, BackendError> {
        if self.files.contains_key(name) {
            return Err(BackendError::AlreadyStored(name.to_string()));
        }
        let size = data.len() as u64;
        if let Some(free) = self.free_bytes().filter(|&free| size > free) {
            return Err(BackendError::Full { name: name.to_string(), size, free });
        }
        let (receipt, slot) = self.medium.write(size);
        self.files.insert(name.to_string(), Entry { data, slot });
        self.used += size;
        self.stats.stores += 1;
        self.stats.bytes_written += size;
        self.charge(receipt);
        Ok(receipt)
    }

    /// Read a file back (a stage request from the HRM's point of view).
    pub fn fetch(&mut self, name: &str) -> Result<(Bytes, OpReceipt), BackendError> {
        let file =
            self.files.get(name).ok_or_else(|| BackendError::NoSuchFile(name.to_string()))?;
        let receipt = self.medium.read(file);
        let data = file.data.clone();
        self.stats.fetches += 1;
        self.stats.bytes_read += data.len() as u64;
        self.charge(receipt);
        Ok((data, receipt))
    }

    /// Drop a file from the archive.
    pub fn evict(&mut self, name: &str) -> Result<(), BackendError> {
        let file =
            self.files.remove(name).ok_or_else(|| BackendError::NoSuchFile(name.to_string()))?;
        self.used -= file.data.len() as u64;
        self.stats.evictions += 1;
        Ok(())
    }

    fn charge(&mut self, receipt: OpReceipt) {
        self.stats.cost_units += receipt.cost;
        if let Medium::Tape(drives) = &self.medium {
            self.stats.mounts = drives.mounts;
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Auditor's view of a file's contents: no latency, no cost, no stats
    /// — invariant checks must not perturb the simulation.
    pub fn peek(&self, name: &str) -> Option<Bytes> {
        self.files.get(name).map(|f| f.data.clone())
    }

    /// Archived names, sorted (deterministic iteration for observers).
    pub fn file_names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.files.keys().cloned().collect();
        v.sort();
        v
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Bytes the archive can still absorb; `None` means unbounded (the
    /// robot opens a fresh tape whenever the last one fills).
    pub fn free_bytes(&self) -> Option<u64> {
        match &self.medium {
            Medium::DiskArray(spec) => Some(spec.capacity - self.used),
            Medium::Tape(_) | Medium::ObjectStore(_) => None,
        }
    }

    pub fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_backend_matches_raw_library_latencies() {
        // Classic library, 4 MiB: the store mounts the first tape (60 s +
        // 0.4194304 s streaming, 100 + 4 units); the fetch finds it
        // mounted at offset 0 and pays the streaming alone.
        let mut archive = StorageConfig::classic_tape().build();
        let data = Bytes::from(vec![3u8; 4 * 1024 * 1024]);
        let receipt = archive.store("a", data).unwrap();
        assert_eq!(
            receipt,
            OpReceipt { latency: SimDuration::from_nanos(60_419_430_400), cost: 104 },
            "adapter must not change tape latencies"
        );
        let (_, stage_receipt) = archive.fetch("a").unwrap();
        assert_eq!(
            stage_receipt,
            OpReceipt { latency: SimDuration::from_nanos(419_430_400), cost: 4 }
        );
    }

    #[test]
    fn disk_array_enforces_capacity() {
        let mut b = StorageConfig::DiskArray(DiskArraySpec {
            capacity: 1000,
            op_latency: SimDuration::from_millis(5),
            stream_bytes_per_sec: 1_000_000,
        })
        .build();
        b.store("a", Bytes::from(vec![0u8; 600])).unwrap();
        match b.store("b", Bytes::from(vec![0u8; 600])) {
            Err(BackendError::Full { free, .. }) => assert_eq!(free, 400),
            other => panic!("expected Full, got {other:?}"),
        }
        b.evict("a").unwrap();
        assert_eq!(b.free_bytes(), Some(1000));
        b.store("b", Bytes::from(vec![0u8; 600])).unwrap();
    }

    #[test]
    fn object_store_cost_is_request_plus_bytes() {
        let spec = ObjectStoreSpec::remote();
        let mut b = StorageConfig::ObjectStore(spec).build();
        let r = b.store("x", Bytes::from(vec![0u8; 3 * 1024 * 1024])).unwrap();
        assert_eq!(r.cost, spec.cost_per_request + 3 * spec.cost_per_mib);
        assert!(r.latency >= spec.rtt);
    }

    #[test]
    fn storage_config_builds_the_right_adapter() {
        assert_eq!(StorageConfig::classic_tape().build().kind(), "tape");
        assert_eq!(
            StorageConfig::DiskArray(DiskArraySpec::commodity()).build().kind(),
            "disk_array"
        );
        assert_eq!(
            StorageConfig::ObjectStore(ObjectStoreSpec::remote()).build().kind(),
            "object_store"
        );
    }
}
