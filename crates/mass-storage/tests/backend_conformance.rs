//! Shared conformance suite for the archive on every medium.
//!
//! Each test runs against all three media (tape, disk array, object
//! store) through the same driver, so a new medium only has to be added
//! to [`adapters()`] to inherit the whole contract:
//!
//! * store/fetch round-trips preserve bytes;
//! * receipts (latency + cost) are pure functions of the op sequence,
//!   and one fixed sequence per medium is pinned to its exact receipts,
//!   error texts, stats and free space;
//! * errors are uniform (`NoSuchFile`, `AlreadyStored`, `Full`);
//! * stats and capacity accounting balance;
//! * `peek`/`file_names` are side-effect-free observers.

use bytes::Bytes;
use gdmp_mass_storage::backend::{
    BackendError, DiskArraySpec, ObjectStoreSpec, OpReceipt, StorageConfig,
};
use gdmp_mass_storage::hrm::HrmError;
use gdmp_mass_storage::tape::TapeSpec;
use gdmp_simnet::time::SimDuration;

/// Every medium, as its scenario-facing config. The disk array is kept
/// small so the `Full` path is reachable.
fn adapters() -> Vec<StorageConfig> {
    vec![
        StorageConfig::Tape(TapeSpec::classic()),
        StorageConfig::DiskArray(DiskArraySpec {
            capacity: 64 * 1024 * 1024,
            op_latency: SimDuration::from_millis(5),
            stream_bytes_per_sec: 80_000_000,
        }),
        StorageConfig::ObjectStore(ObjectStoreSpec::remote()),
    ]
}

fn payload(tag: u8, len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_add(tag)).collect::<Vec<_>>())
}

#[test]
fn store_fetch_roundtrip_preserves_bytes() {
    for config in adapters() {
        let kind = config.kind();
        let mut b = config.build();
        let data = payload(7, 1 << 20);
        b.store("f1", data.clone()).unwrap();
        assert!(b.contains("f1"), "{kind}");
        let (back, receipt) = b.fetch("f1").unwrap();
        assert_eq!(back, data, "{kind}: fetch must return stored bytes");
        assert!(receipt.latency > SimDuration::ZERO, "{kind}: archive access is never free");
        assert!(receipt.cost > 0, "{kind}: archive access always charges cost units");
    }
}

/// One fixed op sequence on a fresh archive, rendered line by line: each
/// receipt (latency ns, cost units), each error as `HrmError` prints it,
/// then the final stats, names and free space.
fn transcript(config: &StorageConfig) -> String {
    let mut b = config.build();
    let mut out = Vec::new();
    let mut note = |op: String, r: Result<Option<OpReceipt>, BackendError>| {
        out.push(match r {
            Ok(Some(r)) => format!("{op}: {} ns, {} units", r.latency.nanos(), r.cost),
            Ok(None) => format!("{op}: ok"),
            Err(e) => format!("{op}: {}", HrmError::Backend(e)),
        })
    };
    for i in 0..6u8 {
        let name = format!("f{i}");
        note(
            format!("store {name}"),
            b.store(&name, payload(i, 300_000 + i as usize * 70_000)).map(Some),
        );
    }
    for i in [5u8, 3, 2, 0, 3, 1] {
        let name = format!("f{i}");
        note(format!("fetch {name}"), b.fetch(&name).map(|(_, r)| Some(r)));
    }
    note("evict f1".into(), b.evict("f1").map(|()| None));
    note("fetch f1".into(), b.fetch("f1").map(|(_, r)| Some(r)));
    note("store f0".into(), b.store("f0", payload(0, 10)).map(Some));
    note("evict ghost".into(), b.evict("ghost").map(|()| None));
    out.push(format!("{:?}", b.stats()));
    out.push(format!("{:?} free {:?}", b.file_names(), b.free_bytes()));
    out.join("\n")
}

#[test]
fn receipts_are_deterministic_across_twin_instances() {
    // Same op sequence on two fresh instances ⇒ identical receipts and
    // stats, byte for byte. This is the latency/cost purity contract.
    for config in adapters() {
        assert_eq!(transcript(&config), transcript(&config), "{}", config.kind());
    }
    // The exact values, for media small enough that the sequence spills
    // onto four tapes (fetches both hit and miss the two drives) and
    // fills the disk array (its f5 store is refused).
    let tape = StorageConfig::Tape(TapeSpec { tape_capacity: 1_000_000, ..TapeSpec::classic() });
    let disk = StorageConfig::DiskArray(DiskArraySpec {
        capacity: 2_500_000,
        op_latency: SimDuration::from_millis(5),
        stream_bytes_per_sec: 80_000_000,
    });
    let object = StorageConfig::ObjectStore(ObjectStoreSpec::remote());
    for (config, pinned) in [(tape, PINNED_TAPE), (disk, PINNED_DISK), (object, PINNED_OBJECT)] {
        assert_eq!(transcript(&config), pinned.trim(), "{}", config.kind());
    }
}

const PINNED_TAPE: &str = r#"
store f0: 60030000000 ns, 101 units
store f1: 37000000 ns, 1 units
store f2: 60044000000 ns, 101 units
store f3: 51000000 ns, 1 units
store f4: 60058000000 ns, 101 units
store f5: 60065000000 ns, 101 units
fetch f5: 65000000 ns, 1 units
fetch f3: 60055400000 ns, 101 units
fetch f2: 44000000 ns, 1 units
fetch f0: 60030000000 ns, 101 units
fetch f3: 55400000 ns, 1 units
fetch f1: 40000000 ns, 1 units
evict f1: ok
fetch f1: archive: not in the archive: f1
store f0: archive: already archived: f0
evict ghost: archive: not in the archive: ghost
BackendStats { stores: 6, fetches: 6, evictions: 1, bytes_written: 2850000, bytes_read: 2780000, mounts: 6, cost_units: 612 }
["f0", "f2", "f3", "f4", "f5"] free None
"#;
const PINNED_DISK: &str = r#"
store f0: 8750000 ns, 1 units
store f1: 9625000 ns, 1 units
store f2: 10500000 ns, 1 units
store f3: 11375000 ns, 1 units
store f4: 12250000 ns, 1 units
store f5: archive: archive full: f5 needs 650000 B, 300000 B free
fetch f5: archive: not in the archive: f5
fetch f3: 11375000 ns, 1 units
fetch f2: 10500000 ns, 1 units
fetch f0: 8750000 ns, 1 units
fetch f3: 11375000 ns, 1 units
fetch f1: 9625000 ns, 1 units
evict f1: ok
fetch f1: archive: not in the archive: f1
store f0: archive: already archived: f0
evict ghost: archive: not in the archive: ghost
BackendStats { stores: 5, fetches: 5, evictions: 1, bytes_written: 2200000, bytes_read: 2130000, mounts: 0, cost_units: 10 }
["f0", "f2", "f3", "f4"] free Some(670000)
"#;
const PINNED_OBJECT: &str = r#"
store f0: 86000000 ns, 12 units
store f1: 87400000 ns, 12 units
store f2: 88800000 ns, 12 units
store f3: 90200000 ns, 12 units
store f4: 91600000 ns, 12 units
store f5: 93000000 ns, 12 units
fetch f5: 93000000 ns, 12 units
fetch f3: 90200000 ns, 12 units
fetch f2: 88800000 ns, 12 units
fetch f0: 86000000 ns, 12 units
fetch f3: 90200000 ns, 12 units
fetch f1: 87400000 ns, 12 units
evict f1: ok
fetch f1: archive: not in the archive: f1
store f0: archive: already archived: f0
evict ghost: archive: not in the archive: ghost
BackendStats { stores: 6, fetches: 6, evictions: 1, bytes_written: 2850000, bytes_read: 2780000, mounts: 0, cost_units: 144 }
["f0", "f2", "f3", "f4", "f5"] free None
"#;

#[test]
fn errors_are_uniform_across_adapters() {
    for config in adapters() {
        let kind = config.kind();
        let mut b = config.build();
        assert!(
            matches!(b.fetch("ghost"), Err(BackendError::NoSuchFile(_))),
            "{kind}: fetch of an unknown file"
        );
        assert!(
            matches!(b.evict("ghost"), Err(BackendError::NoSuchFile(_))),
            "{kind}: evict of an unknown file"
        );
        b.store("dup", payload(1, 64)).unwrap();
        assert!(
            matches!(b.store("dup", payload(2, 64)), Err(BackendError::AlreadyStored(_))),
            "{kind}: double store is rejected"
        );
        // A failed store must not corrupt the original.
        assert_eq!(b.peek("dup").unwrap(), payload(1, 64), "{kind}");
    }
}

#[test]
fn stats_account_for_every_operation() {
    for config in adapters() {
        let kind = config.kind();
        let mut b = config.build();
        let sizes = [100_000u64, 250_000, 75_000];
        for (i, size) in sizes.iter().enumerate() {
            b.store(&format!("f{i}"), payload(i as u8, *size as usize)).unwrap();
        }
        b.fetch("f0").unwrap();
        b.fetch("f2").unwrap();
        b.evict("f1").unwrap();
        let s = b.stats();
        assert_eq!(s.stores, 3, "{kind}");
        assert_eq!(s.fetches, 2, "{kind}");
        assert_eq!(s.evictions, 1, "{kind}");
        assert_eq!(s.bytes_written, sizes.iter().sum::<u64>(), "{kind}");
        assert_eq!(s.bytes_read, sizes[0] + sizes[2], "{kind}");
        assert!(s.cost_units > 0, "{kind}");
        assert_eq!(b.len(), 2, "{kind}");
        assert_eq!(b.file_names(), vec!["f0".to_string(), "f2".to_string()], "{kind}: sorted");
    }
}

#[test]
fn peek_and_file_names_never_perturb_state() {
    for config in adapters() {
        let kind = config.kind();
        let mut b = config.build();
        b.store("f", payload(9, 4096)).unwrap();
        let stats_before = b.stats();
        let free_before = b.free_bytes();
        assert_eq!(b.peek("f").unwrap(), payload(9, 4096), "{kind}");
        assert!(b.peek("nope").is_none(), "{kind}");
        let _ = b.file_names();
        let _ = b.contains("f");
        assert_eq!(b.stats(), stats_before, "{kind}: observers must not touch stats");
        assert_eq!(b.free_bytes(), free_before, "{kind}: observers must not touch capacity");
    }
}

#[test]
fn capacity_accounting_balances_through_store_evict_cycles() {
    for config in adapters() {
        let kind = config.kind();
        let mut b = config.build();
        let initial_free = b.free_bytes();
        b.store("a", payload(1, 10_000)).unwrap();
        b.store("b", payload(2, 20_000)).unwrap();
        if let Some(free) = b.free_bytes() {
            assert_eq!(free, initial_free.unwrap() - 30_000, "{kind}");
        }
        b.evict("a").unwrap();
        b.evict("b").unwrap();
        assert_eq!(b.free_bytes(), initial_free, "{kind}: evict returns all space");
        assert!(b.is_empty(), "{kind}");
    }
}

#[test]
fn bounded_backend_reports_full_with_exact_free_space() {
    let mut b = StorageConfig::DiskArray(DiskArraySpec {
        capacity: 50_000,
        op_latency: SimDuration::from_millis(1),
        stream_bytes_per_sec: 1_000_000,
    })
    .build();
    b.store("a", payload(0, 30_000)).unwrap();
    match b.store("big", payload(0, 30_000)) {
        Err(BackendError::Full { name, size, free }) => {
            assert_eq!(name, "big");
            assert_eq!(size, 30_000);
            assert_eq!(free, 20_000);
        }
        other => panic!("expected Full, got {other:?}"),
    }
    // Rejected store must not consume space or bump store stats.
    assert_eq!(b.free_bytes(), Some(20_000));
    assert_eq!(b.stats().stores, 1);
}

#[test]
fn larger_payloads_never_cost_less() {
    // Latency and cost must be monotone in payload size on a fresh
    // instance (no adapter may discount bigger transfers).
    for config in adapters() {
        let kind = config.kind();
        let mut small = config.build();
        let mut large = config.build();
        let r_small = small.store("f", payload(0, 1 << 20)).unwrap();
        let r_large = large.store("f", payload(0, 8 << 20)).unwrap();
        assert!(r_large.latency >= r_small.latency, "{kind}: latency monotone in size");
        assert!(r_large.cost >= r_small.cost, "{kind}: cost monotone in size");
    }
}
