//! Full-stack integration: real-TCP GridFTP moving object-database images
//! between sites, with attach, catalog registration, and analysis — the
//! protocol crates and the object store working together outside the
//! simulated grid.

use gdmp_gridftp::client::{ClientConfig, GridFtpClient};
use gdmp_gridftp::crc::crc32;
use gdmp_gridftp::server::{GridFtpServer, ServerConfig};
use gdmp_gridftp::store::MemStore;
use gdmp_integration_tests::TestPki;
use gdmp_objectstore::{
    standard_assocs, synth_payload, Federation, LogicalOid, ObjectKind, StoredObject,
};
use gdmp_replica_catalog::service::{FileMeta, ReplicaCatalogService};

fn populated_federation(events: u64) -> Federation {
    let mut fed = Federation::new("cern");
    fed.create_database("events.db").unwrap();
    for e in 0..events {
        let logical = LogicalOid::new(e, ObjectKind::Aod);
        fed.store(
            "events.db",
            (e % 4) as u32,
            StoredObject {
                logical,
                version: 1,
                payload: synth_payload(logical, 1, 256),
                assocs: standard_assocs(logical),
            },
        )
        .unwrap();
    }
    fed
}

/// The full production flow over real sockets: export a database file,
/// serve it with GridFTP, fetch it with 4 parallel streams, verify the
/// CRC, attach it at the destination, register the replica, navigate.
#[test]
fn database_file_replication_over_real_tcp() {
    let pki = TestPki::new();
    let src_fed = populated_federation(100);
    let image = src_fed.export("events.db").unwrap();
    let expected_crc = crc32(&image);

    // Source site: the image sits in the GridFTP-served store.
    let store = MemStore::with(&[("events.db", image.clone())]);
    let server = GridFtpServer::start(
        store,
        ServerConfig {
            credential: pki.host.clone(),
            ca_public: pki.ca.public_key(),
            now: 100,
            block_size: 16 * 1024,
            require_auth: true,
        },
    )
    .unwrap();

    // Destination: authenticate with the user proxy, fetch in parallel.
    let mut client = GridFtpClient::connect(
        server.addr(),
        ClientConfig {
            credential: pki.user_proxy.clone(),
            ca_public: pki.ca.public_key(),
            now: 100,
            parallelism: 4,
            buffer: 1024 * 1024,
            block_size: 16 * 1024,
            nonce: 77,
        },
    )
    .unwrap();
    let (data, report) = client.get("events.db").unwrap();
    assert_eq!(report.crc32, expected_crc);
    assert_eq!(report.channels, 4);

    // Post-processing at the destination: attach and register.
    let mut dst_fed = Federation::new("anl");
    let name = dst_fed.attach(data).unwrap();
    assert_eq!(name, "events.db");
    assert_eq!(dst_fed.object_count(), 100);

    let mut catalog = ReplicaCatalogService::new("GDMP", "cms").unwrap();
    catalog
        .publish(
            Some("events.db"),
            "cern",
            "gsiftp://cern.ch/data",
            &FileMeta {
                size: image.len() as u64,
                modified: 0,
                crc32: expected_crc,
                file_type: "objectivity".into(),
            },
        )
        .unwrap();
    catalog.add_replica("events.db", "anl", "gsiftp://anl.gov/data").unwrap();
    assert_eq!(catalog.locate("events.db").unwrap().len(), 2);

    // The replicated objects are readable and identical to the source.
    let obj = dst_fed.get(LogicalOid::new(42, ObjectKind::Aod)).unwrap();
    assert_eq!(obj.payload, synth_payload(LogicalOid::new(42, ObjectKind::Aod), 1, 256));
}

/// The object-copier flow over real sockets: extract a sparse selection,
/// ship the extraction file by GridFTP, attach it, and verify navigation
/// fails exactly for the objects that stayed behind.
#[test]
fn object_extraction_over_real_tcp() {
    let pki = TestPki::new();
    let mut src_fed = populated_federation(200);
    let wanted: Vec<_> =
        (0..200).step_by(10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let copier = gdmp_objectstore::ObjectCopier::new(gdmp_objectstore::CopierSpec::classic());
    let (chunks, stats) = copier.extract(&mut src_fed, &wanted, "sel").unwrap();
    assert_eq!(stats.objects_copied, 20);
    assert_eq!(chunks.len(), 1);
    let image = chunks[0].encode();

    let store = MemStore::new();
    store.put(&chunks[0].name, image.clone());
    let server = GridFtpServer::start(
        store,
        ServerConfig {
            credential: pki.host.clone(),
            ca_public: pki.ca.public_key(),
            now: 100,
            block_size: 8 * 1024,
            require_auth: true,
        },
    )
    .unwrap();
    let mut client = GridFtpClient::connect(
        server.addr(),
        ClientConfig {
            credential: pki.user_proxy.clone(),
            ca_public: pki.ca.public_key(),
            now: 100,
            parallelism: 2,
            buffer: 256 * 1024,
            block_size: 8 * 1024,
            nonce: 99,
        },
    )
    .unwrap();
    let (data, _) = client.get(&chunks[0].name).unwrap();

    let mut dst_fed = Federation::new("caltech");
    dst_fed.attach(data).unwrap();
    assert!(dst_fed.contains(LogicalOid::new(190, ObjectKind::Aod)));
    assert!(!dst_fed.contains(LogicalOid::new(191, ObjectKind::Aod)));
    assert_eq!(dst_fed.object_count(), 20);
}

/// Mass storage + GridFTP: a file staged from tape is served through the
/// real protocol.
#[test]
fn staged_file_served_over_tcp() {
    use gdmp_mass_storage::{EvictionPolicy, HierarchicalStorage, TapeSpec};

    let pki = TestPki::new();
    let mut hrm = HierarchicalStorage::new(1_000, EvictionPolicy::Lru, TapeSpec::classic());
    let payload = bytes::Bytes::from(vec![9u8; 800]);
    hrm.store("cold.dat", payload.clone(), true).unwrap();
    // Force eviction, then stage back.
    hrm.store("filler.dat", bytes::Bytes::from(vec![0u8; 900]), false).unwrap();
    assert!(!hrm.on_disk("cold.dat"));
    let outcome = hrm.request("cold.dat").unwrap();
    assert!(outcome.latency.nanos() > 0);

    let store = MemStore::new();
    store.put("cold.dat", outcome.data);
    let server = GridFtpServer::start(
        store,
        ServerConfig {
            credential: pki.host.clone(),
            ca_public: pki.ca.public_key(),
            now: 100,
            block_size: 4096,
            require_auth: true,
        },
    )
    .unwrap();
    let mut client = GridFtpClient::connect(
        server.addr(),
        ClientConfig {
            credential: pki.user_proxy,
            ca_public: pki.ca.public_key(),
            now: 100,
            parallelism: 1,
            buffer: 64 * 1024,
            block_size: 4096,
            nonce: 3,
        },
    )
    .unwrap();
    let (data, _) = client.get("cold.dat").unwrap();
    assert_eq!(data, payload);
}
