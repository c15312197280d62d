//! Simulated tape library (the HPSS-style Mass Storage System).
//!
//! Files live on tapes; reading one costs a mount (if its tape is not in a
//! drive), a seek proportional to the file's position on tape, and a
//! streaming read at tape rate. The latencies are returned to the caller —
//! GDMP's staging behaviour (Section 4.4) is all about when these costs are
//! paid.

use std::collections::HashMap;

use bytes::Bytes;
use gdmp_simnet::time::SimDuration;

/// Physical characteristics of the library.
#[derive(Debug, Clone, Copy)]
pub struct TapeSpec {
    /// Robot fetch + drive load + thread time.
    pub mount_time: SimDuration,
    /// Seek rate along tape, bytes per second of positioning.
    pub seek_bytes_per_sec: u64,
    /// Streaming read/write rate, bytes per second.
    pub stream_bytes_per_sec: u64,
    /// Number of drives (tapes concurrently mounted).
    pub drives: usize,
    /// Capacity of a single tape in bytes.
    pub tape_capacity: u64,
}

impl TapeSpec {
    /// A turn-of-the-century library: 60 s mount, 10 MB/s stream.
    pub fn classic() -> Self {
        TapeSpec {
            mount_time: SimDuration::from_secs(60),
            seek_bytes_per_sec: 100_000_000,
            stream_bytes_per_sec: 10_000_000,
            drives: 2,
            tape_capacity: 50 * 1024 * 1024 * 1024,
        }
    }
}

/// Tape-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    NoSuchFile(String),
    AlreadyArchived(String),
}

impl std::fmt::Display for TapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeError::NoSuchFile(n) => write!(f, "not on tape: {n}"),
            TapeError::AlreadyArchived(n) => write!(f, "already archived: {n}"),
        }
    }
}

impl std::error::Error for TapeError {}

#[derive(Debug, Clone)]
struct TapeFile {
    tape: usize,
    /// Byte offset of the file on its tape (drives seek past this much).
    offset: u64,
    data: Bytes,
}

/// Library statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeStats {
    pub mounts: u64,
    pub reads: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// The library: a set of tapes, a fixed number of drives, an LRU mount
/// policy.
#[derive(Debug, Clone)]
pub struct TapeLibrary {
    spec: TapeSpec,
    files: HashMap<String, TapeFile>,
    /// Write position per tape.
    tape_fill: Vec<u64>,
    /// (tape, last-use tick) for currently mounted tapes.
    mounted: Vec<(usize, u64)>,
    tick: u64,
    pub stats: TapeStats,
}

impl TapeLibrary {
    pub fn new(spec: TapeSpec) -> Self {
        assert!(spec.drives > 0, "library needs at least one drive");
        TapeLibrary {
            spec,
            files: HashMap::new(),
            tape_fill: vec![0],
            mounted: Vec::new(),
            tick: 0,
            stats: TapeStats::default(),
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Archived file names, sorted (deterministic iteration for observers).
    pub fn file_names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.files.keys().cloned().collect();
        v.sort();
        v
    }

    /// Archive a file; returns the write duration (stream rate).
    pub fn archive(&mut self, name: &str, data: Bytes) -> Result<SimDuration, TapeError> {
        if self.files.contains_key(name) {
            return Err(TapeError::AlreadyArchived(name.to_string()));
        }
        let size = data.len() as u64;
        // First tape with room; open a new tape when all are full.
        let tape =
            match self.tape_fill.iter().position(|&fill| fill + size <= self.spec.tape_capacity) {
                Some(t) => t,
                None => {
                    self.tape_fill.push(0);
                    self.tape_fill.len() - 1
                }
            };
        let offset = self.tape_fill[tape];
        self.tape_fill[tape] += size;
        self.stats.bytes_written += size;
        let mount = self.mount(tape);
        self.files.insert(name.to_string(), TapeFile { tape, offset, data });
        Ok(mount + SimDuration::serialization(size, self.spec.stream_bytes_per_sec * 8))
    }

    /// Read a file back; returns the data and the total staging latency
    /// (mount if needed + seek + stream).
    pub fn stage(&mut self, name: &str) -> Result<(Bytes, SimDuration), TapeError> {
        let f =
            self.files.get(name).ok_or_else(|| TapeError::NoSuchFile(name.to_string()))?.clone();
        let mount = self.mount(f.tape);
        let seek =
            SimDuration::from_secs_f64(f.offset as f64 / self.spec.seek_bytes_per_sec as f64);
        let stream =
            SimDuration::serialization(f.data.len() as u64, self.spec.stream_bytes_per_sec * 8);
        self.stats.reads += 1;
        self.stats.bytes_read += f.data.len() as u64;
        Ok((f.data, mount + seek + stream))
    }

    /// Read a file's contents without mounting, seeking, or touching any
    /// statistics — an auditor's view, not a drive operation. Used by
    /// integrity/invariant checks that must not perturb the simulation.
    pub fn peek(&self, name: &str) -> Option<Bytes> {
        self.files.get(name).map(|f| f.data.clone())
    }

    /// Remove a file from the archive.
    pub fn delete(&mut self, name: &str) -> Result<(), TapeError> {
        self.files.remove(name).map(|_| ()).ok_or_else(|| TapeError::NoSuchFile(name.to_string()))
    }

    /// Ensure `tape` is mounted; returns the cost (zero when already in a
    /// drive). The least recently used tape is dismounted when all drives
    /// are busy.
    fn mount(&mut self, tape: usize) -> SimDuration {
        self.tick += 1;
        if let Some(slot) = self.mounted.iter_mut().find(|(t, _)| *t == tape) {
            slot.1 = self.tick;
            return SimDuration::ZERO;
        }
        if self.mounted.len() >= self.spec.drives {
            let lru = self
                .mounted
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(i, _)| i)
                .expect("drives are occupied");
            self.mounted.swap_remove(lru);
        }
        self.mounted.push((tape, self.tick));
        self.stats.mounts += 1;
        self.spec.mount_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TapeLibrary {
        TapeLibrary::new(TapeSpec {
            mount_time: SimDuration::from_secs(60),
            seek_bytes_per_sec: 100_000_000,
            stream_bytes_per_sec: 10_000_000,
            drives: 2,
            tape_capacity: 1000,
        })
    }

    #[test]
    fn archive_and_stage_roundtrip() {
        let mut t = lib();
        t.archive("a", Bytes::from(vec![1u8; 500])).unwrap();
        let (data, latency) = t.stage("a").unwrap();
        assert_eq!(data.len(), 500);
        // Already mounted from the archive write → no mount cost;
        // 500 B at 10 MB/s is tiny, offset 0 → latency well under a second.
        assert!(latency.as_secs_f64() < 1.0, "latency={latency}");
    }

    #[test]
    fn first_stage_pays_mount() {
        let mut t = lib();
        t.archive("a", Bytes::from(vec![1u8; 100])).unwrap();
        t.archive("b", Bytes::from(vec![1u8; 950])).unwrap(); // spills to tape 1
        t.archive("c", Bytes::from(vec![1u8; 950])).unwrap(); // tape 2
                                                              // Drives: 2. Tapes 1 and 2 are mounted now; tape 0 was dismounted.
        let (_, latency) = t.stage("a").unwrap();
        assert!(latency.as_secs_f64() >= 60.0, "expected mount cost, got {latency}");
        // Immediately staging again is cheap.
        let (_, l2) = t.stage("a").unwrap();
        assert!(l2.as_secs_f64() < 1.0);
    }

    #[test]
    fn tapes_spill_when_full() {
        let mut t = lib();
        t.archive("a", Bytes::from(vec![0u8; 600])).unwrap();
        t.archive("b", Bytes::from(vec![0u8; 600])).unwrap();
        assert!(t.contains("a") && t.contains("b"));
        // Second file cannot fit on tape 0 (1000 cap) → two tapes exist.
        assert_eq!(t.tape_fill.len(), 2);
    }

    #[test]
    fn seek_cost_grows_with_offset() {
        let mut t = TapeLibrary::new(TapeSpec {
            mount_time: SimDuration::ZERO,
            seek_bytes_per_sec: 1000, // 1 KB/s positioning: exaggerated
            stream_bytes_per_sec: 1_000_000_000,
            drives: 1,
            tape_capacity: 10_000,
        });
        t.archive("first", Bytes::from(vec![0u8; 1000])).unwrap();
        t.archive("second", Bytes::from(vec![0u8; 1000])).unwrap();
        let (_, l_first) = t.stage("first").unwrap();
        let (_, l_second) = t.stage("second").unwrap();
        assert!(
            l_second.as_secs_f64() > l_first.as_secs_f64() + 0.5,
            "deeper file must seek longer: {l_first} vs {l_second}"
        );
    }

    #[test]
    fn missing_file_errors() {
        let mut t = lib();
        assert!(matches!(t.stage("ghost"), Err(TapeError::NoSuchFile(_))));
        assert!(matches!(t.delete("ghost"), Err(TapeError::NoSuchFile(_))));
    }

    #[test]
    fn duplicate_archive_rejected() {
        let mut t = lib();
        t.archive("a", Bytes::from(vec![0u8; 10])).unwrap();
        assert!(matches!(
            t.archive("a", Bytes::from(vec![0u8; 10])),
            Err(TapeError::AlreadyArchived(_))
        ));
    }

    #[test]
    fn drive_lru_dismount() {
        let mounted_tapes = |t: &TapeLibrary| {
            let mut v: Vec<_> = t.mounted.iter().map(|(tape, _)| *tape).collect();
            v.sort_unstable();
            v
        };
        let mut t = lib();
        t.archive("t0", Bytes::from(vec![0u8; 900])).unwrap(); // tape 0
        t.archive("t1", Bytes::from(vec![0u8; 900])).unwrap(); // tape 1
        t.archive("t2", Bytes::from(vec![0u8; 900])).unwrap(); // tape 2
                                                               // Two drives: most recently used tapes stay mounted.
        assert_eq!(mounted_tapes(&t), vec![1, 2]);
        t.stage("t0").unwrap(); // mounts tape 0, evicting LRU (tape 1)
        assert_eq!(mounted_tapes(&t), vec![0, 2]);
    }

    #[test]
    fn delete_then_stage_fails() {
        let mut t = lib();
        t.archive("a", Bytes::from(vec![0u8; 10])).unwrap();
        t.delete("a").unwrap();
        assert!(t.stage("a").is_err());
    }
}
