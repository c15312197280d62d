//! Fault-injection scenarios for the chaos layer: RPC behaviour under
//! crashes and cuts, catalog recovery that dies partway, journal replay,
//! and clean rollback of transfers interrupted by severed paths.

use bytes::Bytes;
use gdmp::chaos::{FaultEvent, FaultSchedule};
use gdmp::invariants::check_grid;
use gdmp::{GdmpError, Grid, ObjectReplicationConfig, SiteConfig};
use gdmp_objectstore::{standard_assocs, synth_payload, LogicalOid, ObjectKind, StoredObject};
use gdmp_simnet::time::{SimDuration, SimTime};

fn three_site_grid() -> Grid {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 11));
    grid.add_site(SiteConfig::named("anl", "anl.gov", 12));
    grid.add_site(SiteConfig::named("lyon", "in2p3.fr", 13));
    grid.trust_all();
    grid
}

/// The same grid with a fault timeline known up front, through the
/// builder (the only construction-time door since the 0.8 setter removal).
fn three_site_grid_with_schedule(schedule: FaultSchedule) -> Grid {
    Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .fault_schedule(schedule)
        .build()
}

fn t(secs: u64) -> SimTime {
    SimTime(secs * 1_000_000_000)
}

/// `events` AOD objects of 512 bytes in a new database file at `site`.
fn store_events(grid: &mut Grid, site: &str, file: &str, events: std::ops::Range<u64>) {
    let fed = &mut grid.site_mut(site).unwrap().federation;
    fed.create_database(file).unwrap();
    for e in events {
        let logical = LogicalOid::new(e, ObjectKind::Aod);
        let payload = synth_payload(logical, 1, 512);
        let object =
            StoredObject { logical, version: 1, payload, assocs: standard_assocs(logical) };
        fed.store(file, 0, object).unwrap();
    }
}

#[test]
fn rpc_to_down_site_fails_retryably() {
    let mut grid = three_site_grid_with_schedule(
        FaultSchedule::new()
            .at(t(0), FaultEvent::SiteDown { site: "cern".into() })
            .at(t(100), FaultEvent::SiteUp { site: "cern".into() }),
    );
    let err = grid.ping("anl", "cern").unwrap_err();
    assert!(matches!(&err, GdmpError::SiteUnreachable(s) if s == "cern"), "{err}");
    assert!(err.is_retryable());
    // Past the repair time the same ping succeeds (recovery runs on
    // advance).
    grid.advance(SimDuration::from_secs(200));
    grid.ping("anl", "cern").unwrap();
}

#[test]
fn link_cut_is_directional() {
    let mut grid = three_site_grid_with_schedule(FaultSchedule::new().at(
        t(0),
        FaultEvent::LinkDown { from: "anl".into(), to: "cern".into(), both_ways: false },
    ));
    // An RPC needs both directions; either endpoint sees the cut.
    assert!(grid.ping("anl", "cern").is_err());
    assert!(grid.ping("cern", "anl").is_err());
    // A third site is unaffected.
    grid.ping("lyon", "cern").unwrap();
}

#[test]
fn recover_catalog_mid_failure_leaves_no_partial_state() {
    let mut grid = three_site_grid();
    grid.subscribe("anl", "cern").unwrap();
    for i in 0..3 {
        let lfn = format!("run{i}.dat");
        grid.publish_file("cern", &lfn, Bytes::from(vec![i as u8; 4096]), "flat").unwrap();
    }
    // The subscriber lost its import queue (crash) and resyncs — but the
    // very first GetCatalog of the recovery dies on the wire.
    grid.site_mut("anl").unwrap().crash();
    grid.inject_fault_schedule(
        FaultSchedule::new()
            .at(t(0), FaultEvent::RpcDrop { from: "anl".into(), to: "cern".into(), nth: 1 }),
    );
    let err = grid.recover_catalog("anl", "cern").unwrap_err();
    assert!(err.is_retryable(), "a dropped recovery RPC must be retryable: {err}");
    // Half-done recovery registered nothing: the queue is exactly as
    // empty as before the attempt.
    assert!(grid.site("anl").unwrap().import_queue.is_empty(), "partial registrations leaked");
    // The second attempt sees a healed wire and recovers everything.
    let added = grid.recover_catalog("anl", "cern").unwrap();
    assert_eq!(added, 3);
    assert_eq!(grid.site("anl").unwrap().import_queue.len(), 3);
    // Draining the queue replicates all three files; re-running recovery
    // finds nothing left to do.
    assert_eq!(grid.replicate_pending("anl").unwrap().len(), 3);
    assert_eq!(grid.recover_catalog("anl", "cern").unwrap(), 0);
}

#[test]
fn recover_catalog_against_down_producer_fails_then_succeeds() {
    let mut grid = three_site_grid();
    grid.subscribe("anl", "cern").unwrap();
    grid.publish_file("cern", "a.dat", Bytes::from(vec![1u8; 1024]), "flat").unwrap();
    grid.site_mut("anl").unwrap().crash();
    grid.inject_fault_schedule(
        FaultSchedule::new()
            .at(t(0), FaultEvent::SiteDown { site: "cern".into() })
            .at(t(60), FaultEvent::SiteUp { site: "cern".into() }),
    );
    assert!(grid.recover_catalog("anl", "cern").is_err());
    assert!(grid.site("anl").unwrap().import_queue.is_empty());
    grid.advance(SimDuration::from_secs(120));
    assert_eq!(grid.recover_catalog("anl", "cern").unwrap(), 1);
}

#[test]
fn restart_resync_requeues_lost_imports_automatically() {
    let mut grid = three_site_grid();
    grid.subscribe("anl", "cern").unwrap();
    grid.publish_file("cern", "a.dat", Bytes::from(vec![1u8; 1024]), "flat").unwrap();
    assert_eq!(grid.site("anl").unwrap().import_queue.len(), 1);
    // anl crashes (queue lost) and restarts; the grid's recovery pass
    // resyncs it from its subscribed producer without manual help.
    grid.inject_fault_schedule(
        FaultSchedule::new()
            .at(t(1), FaultEvent::SiteDown { site: "anl".into() })
            .at(t(30), FaultEvent::SiteUp { site: "anl".into() }),
    );
    grid.advance(SimDuration::from_secs(60));
    assert_eq!(grid.site("anl").unwrap().import_queue.len(), 1, "resync re-enqueued the file");
    assert_eq!(grid.replicate_pending("anl").unwrap().len(), 1);
}

#[test]
fn notify_to_unreachable_subscriber_is_journaled_and_replayed() {
    let mut grid = three_site_grid();
    grid.subscribe("anl", "cern").unwrap();
    grid.inject_fault_schedule(
        FaultSchedule::new()
            .at(t(0), FaultEvent::SiteDown { site: "anl".into() })
            .at(t(60), FaultEvent::SiteUp { site: "anl".into() }),
    );
    // Publishing while the subscriber is down parks the notice in the
    // producer's durable journal instead of failing the publish.
    grid.publish_file("cern", "a.dat", Bytes::from(vec![1u8; 1024]), "flat").unwrap();
    assert_eq!(grid.site("cern").unwrap().journal.len(), 1);
    assert!(grid.site("anl").unwrap().import_queue.is_empty());
    // Once anl is back, the recovery pass replays the notification.
    grid.advance(SimDuration::from_secs(120));
    assert!(grid.site("cern").unwrap().journal.is_empty(), "journal drained");
    assert_eq!(grid.site("anl").unwrap().import_queue.len(), 1);
    assert_eq!(grid.replicate_pending("anl").unwrap().len(), 1);
}

#[test]
fn transfer_severed_mid_flight_fails_over_cleanly() {
    // An unreachable-aware strategy: dead paths fail over instead of
    // burning the whole retry budget on one source.
    let mut grid = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .recovery(Box::new(gdmp::BackoffRetry::new(7)))
        .build();
    // Two replicas of the same file: cern (origin) and lyon.
    grid.publish_file("cern", "big.dat", Bytes::from(vec![9u8; 8 * 1024 * 1024]), "flat").unwrap();
    grid.replicate("lyon", "big.dat").unwrap();
    // The cheapest path dies one second into the transfer; the Data Mover
    // must fail over to the surviving replica.
    grid.inject_fault_schedule(FaultSchedule::new().at(
        grid.now() + SimDuration::from_secs(1),
        FaultEvent::LinkDown { from: "cern".into(), to: "anl".into(), both_ways: true },
    ));
    let report = grid.replicate("anl", "big.dat").unwrap();
    assert_eq!(report.from, "lyon", "failed over to the surviving source");
    // No leaked pins, reservations, or half-registered entries anywhere.
    let inv = check_grid(&mut grid);
    assert!(inv.is_clean(), "{:?}", inv.violations);
}

#[test]
fn all_sources_down_is_a_clean_retryable_failure() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "a.dat", Bytes::from(vec![1u8; 1024 * 1024]), "flat").unwrap();
    grid.inject_fault_schedule(
        FaultSchedule::new().at(t(0), FaultEvent::SiteDown { site: "cern".into() }),
    );
    let err = grid.replicate("anl", "a.dat").unwrap_err();
    assert!(err.is_retryable(), "{err}");
    // The failed attempt leaked nothing at the destination.
    let anl = grid.site("anl").unwrap();
    assert_eq!(anl.storage.pool.reserved(), 0);
    assert!(anl.storage.pool.pinned_files().is_empty());
}

/// A source that crashes and comes back inside a backoff wait has lost its
/// pool pins (`Site::crash`); the retry the restarted source then serves
/// must pin the file again instead of failing at the final unpin.
#[test]
fn source_restart_during_backoff_wait_repins_for_the_retry() {
    let mut grid = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .trust_all()
        .recovery(Box::new(gdmp::BackoffRetry::new(7)))
        .build();
    grid.publish_file("cern", "big.dat", Bytes::from(vec![9u8; 8 * 1024 * 1024]), "flat").unwrap();
    // The only source dies one second into the transfer and is back 50 ms
    // later — inside the first backoff wait (250 ms ± 25 %), so the crash
    // and the restart are both applied when the retry starts.
    let down = grid.now() + SimDuration::from_secs(1);
    grid.inject_fault_schedule(
        FaultSchedule::new()
            .at(down, FaultEvent::SiteDown { site: "cern".into() })
            .at(down + SimDuration::from_millis(50), FaultEvent::SiteUp { site: "cern".into() }),
    );
    let report = grid.replicate("anl", "big.dat").unwrap();
    assert_eq!(report.from, "cern");
    assert_eq!(report.attempts, 2, "severed once, then served by the restarted source");
    assert!(grid.site("cern").unwrap().storage.pool.pinned_files().is_empty());
    // The restarted site's resync runs on the next advance.
    grid.advance(SimDuration::from_secs(1));
    let inv = check_grid(&mut grid);
    assert!(inv.is_clean(), "{:?}", inv.violations);
}

/// A crashed destination is what a replication reports, before any
/// attempt is made against a healthy source.
#[test]
fn a_down_destination_is_blamed_not_the_source() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "a.dat", Bytes::from(vec![1u8; 64 * 1024]), "flat").unwrap();
    grid.inject_fault_schedule(
        FaultSchedule::new().at(t(0), FaultEvent::SiteDown { site: "lyon".into() }),
    );
    let before = grid.now();
    let err = grid.replicate("lyon", "a.dat").unwrap_err();
    assert!(matches!(&err, GdmpError::SiteUnreachable(s) if s == "lyon"), "{err}");
    assert!(err.is_retryable());
    assert_eq!(grid.now(), before, "no attempt spent sim time");
}

/// A crashed source serves no objects: with its only holder down, an
/// object replication fails retryably and moves nothing.
#[test]
fn a_crashed_source_serves_no_objects() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "bulk.db", 0..40);
    grid.publish_database("cern", "bulk.db").unwrap();
    grid.inject_fault_schedule(
        FaultSchedule::new().at(t(0), FaultEvent::SiteDown { site: "cern".into() }),
    );
    let wanted: Vec<_> = (0..40).step_by(2).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let err =
        grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap_err();
    assert!(matches!(&err, GdmpError::SiteUnreachable(s) if s == "cern"), "{err}");
    assert!(err.is_retryable());
    let anl = grid.site("anl").unwrap();
    assert!(wanted.iter().all(|&o| !anl.federation.contains(o)), "no object moved");
}

/// Of two holders of a file, the one that is down is passed over.
#[test]
fn object_replication_fails_over_to_a_live_holder() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "bulk.db", 0..40);
    grid.publish_database("cern", "bulk.db").unwrap();
    grid.replicate("lyon", "bulk.db").unwrap();
    grid.inject_fault_schedule(
        FaultSchedule::new().at(t(0), FaultEvent::SiteDown { site: "cern".into() }),
    );
    let wanted: Vec<_> = (0..40).step_by(2).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let report = grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap();
    assert_eq!(report.sources, vec!["lyon".to_string()]);
    assert_eq!(report.objects_moved, wanted.len());
}
