//! The tape medium of an [`Archive`] (the HPSS-style Mass Storage System).
//!
//! Files live on tapes; reading one costs a mount (if its tape is not in a
//! drive), a seek proportional to the file's position on tape, and a
//! streaming read at tape rate. The latencies are returned to the caller —
//! GDMP's staging behaviour (Section 4.4) is all about when these costs are
//! paid.
//!
//! [`Archive`]: crate::backend::Archive

use gdmp_simnet::time::SimDuration;

use crate::backend::{mib_ceil, OpReceipt};

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

/// Where a file sits: its tape, and its byte offset on that tape (drives
/// seek past this much).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    tape: usize,
    offset: u64,
}

/// The robot: a set of tapes, a fixed number of drives, an LRU mount
/// policy. Prices each operation at mount + seek + stream latency, and
/// 100 cost units per mount paid plus 1 per MiB streamed.
#[derive(Debug)]
pub(crate) struct TapeDrives {
    spec: TapeSpec,
    /// Write position per tape.
    tape_fill: Vec<u64>,
    /// (tape, last-use tick) for currently mounted tapes.
    mounted: Vec<(usize, u64)>,
    tick: u64,
    /// Mounts paid so far.
    pub(crate) mounts: u64,
}

impl TapeDrives {
    pub(crate) fn new(spec: TapeSpec) -> Self {
        assert!(spec.drives > 0, "library needs at least one drive");
        TapeDrives { spec, tape_fill: vec![0], mounted: Vec::new(), tick: 0, mounts: 0 }
    }

    /// Append `size` bytes to the first tape with room, opening a new tape
    /// when all are full; the write pays any mount plus the stream time.
    pub(crate) fn write(&mut self, size: u64) -> (OpReceipt, Slot) {
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
        (self.receipt(tape, SimDuration::ZERO, size), Slot { tape, offset })
    }

    /// Read `size` bytes back from `slot`: mount if needed + seek + stream.
    pub(crate) fn read(&mut self, slot: Slot, size: u64) -> OpReceipt {
        let seek =
            SimDuration::from_secs_f64(slot.offset as f64 / self.spec.seek_bytes_per_sec as f64);
        self.receipt(slot.tape, seek, size)
    }

    fn receipt(&mut self, tape: usize, seek: SimDuration, size: u64) -> OpReceipt {
        let mounts_before = self.mounts;
        let mount = self.mount(tape);
        let stream = SimDuration::serialization(size, self.spec.stream_bytes_per_sec * 8);
        OpReceipt {
            latency: mount + seek + stream,
            cost: (self.mounts - mounts_before) * 100 + mib_ceil(size),
        }
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
        self.mounts += 1;
        self.spec.mount_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Archive, BackendError, Medium, StorageConfig};
    use bytes::Bytes;

    fn lib() -> Archive {
        StorageConfig::Tape(TapeSpec {
            mount_time: SimDuration::from_secs(60),
            seek_bytes_per_sec: 100_000_000,
            stream_bytes_per_sec: 10_000_000,
            drives: 2,
            tape_capacity: 1000,
        })
        .build()
    }

    fn drives(t: &Archive) -> &TapeDrives {
        match &t.medium {
            Medium::Tape(drives) => drives,
            other => panic!("not a tape archive: {other:?}"),
        }
    }

    #[test]
    fn archive_and_stage_roundtrip() {
        let mut t = lib();
        t.store("a", Bytes::from(vec![1u8; 500])).unwrap();
        let (data, receipt) = t.fetch("a").unwrap();
        let latency = receipt.latency;
        assert_eq!(data.len(), 500);
        // Already mounted from the archive write → no mount cost;
        // 500 B at 10 MB/s is tiny, offset 0 → latency well under a second.
        assert!(latency.as_secs_f64() < 1.0, "latency={latency}");
    }

    #[test]
    fn first_stage_pays_mount() {
        let mut t = lib();
        t.store("a", Bytes::from(vec![1u8; 100])).unwrap();
        t.store("b", Bytes::from(vec![1u8; 950])).unwrap(); // spills to tape 1
        t.store("c", Bytes::from(vec![1u8; 950])).unwrap(); // tape 2
                                                            // Drives: 2. Tapes 1 and 2 are mounted now; tape 0 was dismounted.
        let latency = t.fetch("a").unwrap().1.latency;
        assert!(latency.as_secs_f64() >= 60.0, "expected mount cost, got {latency}");
        // Immediately staging again is cheap.
        let l2 = t.fetch("a").unwrap().1.latency;
        assert!(l2.as_secs_f64() < 1.0);
    }

    #[test]
    fn tapes_spill_when_full() {
        let mut t = lib();
        t.store("a", Bytes::from(vec![0u8; 600])).unwrap();
        t.store("b", Bytes::from(vec![0u8; 600])).unwrap();
        assert!(t.contains("a") && t.contains("b"));
        // Second file cannot fit on tape 0 (1000 cap) → two tapes exist.
        assert_eq!(drives(&t).tape_fill.len(), 2);
    }

    #[test]
    fn seek_cost_grows_with_offset() {
        let mut t = StorageConfig::Tape(TapeSpec {
            mount_time: SimDuration::ZERO,
            seek_bytes_per_sec: 1000, // 1 KB/s positioning: exaggerated
            stream_bytes_per_sec: 1_000_000_000,
            drives: 1,
            tape_capacity: 10_000,
        })
        .build();
        t.store("first", Bytes::from(vec![0u8; 1000])).unwrap();
        t.store("second", Bytes::from(vec![0u8; 1000])).unwrap();
        let l_first = t.fetch("first").unwrap().1.latency;
        let l_second = t.fetch("second").unwrap().1.latency;
        assert!(
            l_second.as_secs_f64() > l_first.as_secs_f64() + 0.5,
            "deeper file must seek longer: {l_first} vs {l_second}"
        );
    }

    #[test]
    fn missing_file_errors() {
        let mut t = lib();
        assert!(matches!(t.fetch("ghost"), Err(BackendError::NoSuchFile(_))));
        assert!(matches!(t.evict("ghost"), Err(BackendError::NoSuchFile(_))));
    }

    #[test]
    fn duplicate_archive_rejected() {
        let mut t = lib();
        t.store("a", Bytes::from(vec![0u8; 10])).unwrap();
        assert!(matches!(
            t.store("a", Bytes::from(vec![0u8; 10])),
            Err(BackendError::AlreadyStored(_))
        ));
    }

    #[test]
    fn drive_lru_dismount() {
        let mounted_tapes = |t: &Archive| {
            let mut v: Vec<_> = drives(t).mounted.iter().map(|(tape, _)| *tape).collect();
            v.sort_unstable();
            v
        };
        let mut t = lib();
        t.store("t0", Bytes::from(vec![0u8; 900])).unwrap(); // tape 0
        t.store("t1", Bytes::from(vec![0u8; 900])).unwrap(); // tape 1
        t.store("t2", Bytes::from(vec![0u8; 900])).unwrap(); // tape 2
                                                             // Two drives: most recently used tapes stay mounted.
        assert_eq!(mounted_tapes(&t), vec![1, 2]);
        t.fetch("t0").unwrap(); // mounts tape 0, evicting LRU (tape 1)
        assert_eq!(mounted_tapes(&t), vec![0, 2]);
    }

    #[test]
    fn delete_then_stage_fails() {
        let mut t = lib();
        t.store("a", Bytes::from(vec![0u8; 10])).unwrap();
        t.evict("a").unwrap();
        assert!(t.fetch("a").is_err());
    }
}
