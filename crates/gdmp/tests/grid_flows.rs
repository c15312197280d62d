//! End-to-end GDMP flows on an assembled grid: the scenarios of
//! Sections 4 and 5 run against the simulated WAN, storage, and security
//! substrates.

use bytes::Bytes;
use gdmp::{
    check_grid, ConsistencyPolicy, FaultPlan, GdmpError, Grid, ObjectReplicationConfig, Request,
    SiteConfig,
};
use gdmp_gridftp::crc::crc32;
use gdmp_objectstore::{standard_assocs, synth_payload, LogicalOid, ObjectKind, StoredObject};
use gdmp_replica_catalog::federation::FederationConfig;

const MB: u64 = 1024 * 1024;

fn three_site_grid() -> Grid {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 11));
    grid.add_site(SiteConfig::named("anl", "anl.gov", 12));
    grid.add_site(SiteConfig::named("lyon", "in2p3.fr", 13));
    grid.trust_all();
    grid
}

/// The same grid with a recovery strategy, through the builder (the only
/// door since the 0.8 removal of `Grid::set_recovery`).
fn three_site_grid_with_recovery(strategy: Box<dyn gdmp::RecoveryStrategy>) -> Grid {
    Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .recovery(strategy)
        .build()
}

fn flat(bytes: usize, tag: u8) -> Bytes {
    Bytes::from(vec![tag; bytes])
}

fn store_events(
    grid: &mut Grid,
    site: &str,
    file: &str,
    events: std::ops::Range<u64>,
    kind: ObjectKind,
    payload: usize,
) {
    let fed = &mut grid.site_mut(site).unwrap().federation;
    fed.create_database(file).unwrap();
    for e in events {
        let logical = LogicalOid::new(e, kind);
        fed.store(
            file,
            0,
            StoredObject {
                logical,
                version: 1,
                payload: synth_payload(logical, 1, payload),
                assocs: standard_assocs(logical),
            },
        )
        .unwrap();
    }
}

#[test]
fn publish_subscribe_notify_replicate() {
    let mut grid = three_site_grid();
    grid.subscribe("anl", "cern").unwrap();
    grid.publish_file("cern", "run1.dat", flat(2 * MB as usize, 7), "flat").unwrap();

    // The subscriber was notified.
    assert_eq!(grid.site("anl").unwrap().import_queue.len(), 1);
    assert!(grid.site("lyon").unwrap().import_queue.is_empty(), "lyon did not subscribe");

    // Consumer pulls everything pending.
    let reports = grid.replicate_pending("anl").unwrap();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.lfn, "run1.dat");
    assert_eq!(r.from, "cern");
    assert_eq!(r.bytes, 2 * MB);
    assert_eq!(r.attempts, 1);

    // File is on ANL disk, catalog shows two replicas, queue drained.
    assert!(grid.site("anl").unwrap().storage.on_disk("run1.dat"));
    assert_eq!(grid.catalog.locate("run1.dat").unwrap().len(), 2);
    assert!(grid.site("anl").unwrap().import_queue.is_empty());

    // The clock advanced by a plausible amount (2 MB over a contended
    // 45 Mb/s path takes at least a second).
    assert!(grid.now().as_secs_f64() > 1.0);
}

#[test]
fn replication_requires_authorization() {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 11));
    grid.add_site(SiteConfig::named("anl", "anl.gov", 12));
    // No trust established: subscribe must be refused by the gridmap.
    let err = grid.subscribe("anl", "cern").unwrap_err();
    assert!(matches!(err, GdmpError::Authorization(_)));
}

#[test]
fn data_mover_retries_after_dropped_connection() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "big.dat", flat(4 * MB as usize, 1), "flat").unwrap();
    grid.inject_fault("big.dat", FaultPlan::drop_once_at(0.6));

    let r = grid.replicate("anl", "big.dat").unwrap();
    assert_eq!(r.attempts, 2, "one abort, one clean attempt");
    // Restart: only the missing 40% was re-sent, so total bytes moved is
    // 60% + 40% = 100%, not 160%.
    assert_eq!(r.bytes_moved, 4 * MB);
    assert!(grid.site("anl").unwrap().storage.on_disk("big.dat"));
}

#[test]
fn data_mover_refetches_on_crc_failure() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "frail.dat", flat(MB as usize, 2), "flat").unwrap();
    grid.inject_fault("frail.dat", FaultPlan::corrupt_first(2));

    let r = grid.replicate("anl", "frail.dat").unwrap();
    assert_eq!(r.attempts, 3);
    // Corruption forces whole-file refetches: 3 × 1 MB crossed the wire.
    assert_eq!(r.bytes_moved, 3 * MB);
    // Delivered data is nonetheless correct.
    let data = grid.site("anl").unwrap().storage.pool.peek("frail.dat").unwrap();
    assert_eq!(crc32(&data), crc32(&flat(MB as usize, 2)));
}

#[test]
fn a_corrupt_attempt_discards_only_its_own_range() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "half.dat", flat(4 * MB as usize, 8), "flat").unwrap();
    grid.inject_fault(
        "half.dat",
        FaultPlan { abort_attempts: 1, abort_fraction: 0.5, corrupt_attempts: 1 },
    );
    let r = grid.replicate("anl", "half.dat").unwrap();
    assert_eq!(r.attempts, 3);
    // Half the file lands before the abort; the restart marker survives the
    // CRC failure of the second half, which alone is pulled again: 1.5x.
    assert_eq!(r.bytes_moved, 6 * MB);
    let data = grid.site("anl").unwrap().storage.pool.peek("half.dat").unwrap();
    assert_eq!(crc32(&data), crc32(&flat(4 * MB as usize, 8)));
}

#[test]
fn transfer_fails_when_retry_budget_exhausted() {
    let mut grid = three_site_grid_with_recovery(Box::new(gdmp::SimpleRetry { max_attempts: 3 }));
    grid.publish_file("cern", "cursed.dat", flat(MB as usize, 3), "flat").unwrap();
    grid.inject_fault(
        "cursed.dat",
        FaultPlan { abort_attempts: 10, abort_fraction: 0.0, corrupt_attempts: 0 },
    );
    let err = grid.replicate("anl", "cursed.dat").unwrap_err();
    assert!(matches!(err, GdmpError::TransferFailed { attempts: 3, .. }));
    // Source file must not be left pinned after failure.
    assert!(!grid.site("cern").unwrap().storage.pool.is_pinned("cursed.dat"));
}

#[test]
fn staging_from_tape_charges_latency() {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 11).with_pool(3 * MB));
    grid.add_site(SiteConfig::named("anl", "anl.gov", 12));
    grid.trust_all();
    // Publish two files; the second evicts the first from CERN's 3 MB pool.
    grid.publish_file("cern", "old.dat", flat(2 * MB as usize, 1), "flat").unwrap();
    grid.publish_file("cern", "new.dat", flat(2 * MB as usize, 2), "flat").unwrap();
    assert!(!grid.site("cern").unwrap().storage.on_disk("old.dat"));

    let r = grid.replicate("anl", "old.dat").unwrap();
    assert!(r.staged, "source had to stage from tape");
    assert!(
        r.stage_latency.as_secs_f64() >= 0.2,
        "tape staging should cost real time, got {}",
        r.stage_latency
    );

    // A second consumer now gets a disk hit at CERN (file restaged).
    let r2 = grid.replicate("lyon", "old.dat");
    assert!(r2.is_err(), "lyon is not part of this grid");
}

#[test]
fn replica_selection_prefers_disk_resident_source() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "pop.dat", flat(MB as usize, 9), "flat").unwrap();
    grid.replicate("anl", "pop.dat").unwrap();
    // Evict the file from CERN's disk (simulate pressure) so ANL becomes
    // the cheap source for Lyon.
    grid.site_mut("cern").unwrap().storage.pool.remove("pop.dat").unwrap();
    let r = grid.replicate("lyon", "pop.dat").unwrap();
    assert_eq!(r.from, "anl", "selection should pick the disk-resident replica");
    assert!(!r.staged);
}

#[test]
fn duplicate_replication_rejected() {
    let mut grid = three_site_grid();
    grid.publish_file("cern", "once.dat", flat(1000, 1), "flat").unwrap();
    grid.replicate("anl", "once.dat").unwrap();
    assert!(matches!(grid.replicate("anl", "once.dat"), Err(GdmpError::AlreadyReplicated { .. })));
}

#[test]
fn catalog_recovery_after_missed_notifications() {
    let mut grid = three_site_grid();
    // lyon subscribes *after* two files were published (missed notices).
    grid.publish_file("cern", "a.dat", flat(1000, 1), "flat").unwrap();
    grid.publish_file("cern", "b.dat", flat(1000, 2), "flat").unwrap();
    grid.subscribe("lyon", "cern").unwrap();
    assert!(grid.site("lyon").unwrap().import_queue.is_empty());

    // Failure recovery: fetch cern's export catalog.
    let added = grid.recover_catalog("lyon", "cern").unwrap();
    assert_eq!(added, 2);
    let reports = grid.replicate_pending("lyon").unwrap();
    assert_eq!(reports.len(), 2);
    // Second recovery adds nothing.
    assert_eq!(grid.recover_catalog("lyon", "cern").unwrap(), 0);
}

#[test]
fn objectivity_file_attaches_at_destination() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "events.db", 0..50, ObjectKind::Aod, 512);
    grid.publish_database("cern", "events.db").unwrap();
    grid.replicate("anl", "events.db").unwrap();

    // Post-processing attached the database: objects are navigable at ANL.
    let anl = grid.site_mut("anl").unwrap();
    assert!(anl.federation.is_attached("events.db"));
    let obj = anl.federation.get(LogicalOid::new(17, ObjectKind::Aod)).unwrap();
    assert_eq!(obj.logical.event, 17);
}

#[test]
fn associated_closure_policy_keeps_navigation_alive() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "aod.db", 0..10, ObjectKind::Aod, 128);
    store_events(&mut grid, "cern", "esd.db", 0..10, ObjectKind::Esd, 512);
    grid.publish_database("cern", "aod.db").unwrap();
    grid.publish_database("cern", "esd.db").unwrap();

    // FileOnly: navigation at the destination breaks.
    grid.replicate_with_policy("anl", "aod.db", ConsistencyPolicy::FileOnly).unwrap();
    {
        let anl = grid.site_mut("anl").unwrap();
        assert!(anl.federation.navigate(LogicalOid::new(3, ObjectKind::Aod), "esd").is_err());
    }

    // AssociatedClosure to a fresh site: both files arrive, navigation works.
    let reports =
        grid.replicate_with_policy("lyon", "aod.db", ConsistencyPolicy::AssociatedClosure).unwrap();
    assert_eq!(reports.len(), 2, "closure must drag esd.db along");
    let lyon = grid.site_mut("lyon").unwrap();
    let esd = lyon.federation.navigate(LogicalOid::new(3, ObjectKind::Aod), "esd").unwrap();
    assert_eq!(esd.logical, LogicalOid::new(3, ObjectKind::Esd));
}

#[test]
fn object_replication_moves_exactly_the_selection() {
    let mut grid = three_site_grid();
    // 200 AOD objects at CERN in one file.
    store_events(&mut grid, "cern", "bulk.db", 0..200, ObjectKind::Aod, 1024);
    grid.publish_database("cern", "bulk.db").unwrap();

    // The physicist wants every 10th event at ANL.
    let wanted: Vec<_> =
        (0..200).step_by(10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let before = grid.now();
    let report = grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap();
    assert_eq!(report.objects_moved, 20);
    assert_eq!(report.already_present, 0);
    assert_eq!(report.sources, vec!["cern".to_string()]);
    assert!(grid.now() > before, "pipeline time must be charged");

    // Exactly the selection is usable at ANL.
    let anl = grid.site_mut("anl").unwrap();
    assert!(anl.federation.contains(LogicalOid::new(10, ObjectKind::Aod)));
    assert!(!anl.federation.contains(LogicalOid::new(11, ObjectKind::Aod)));

    // Object replication shipped far fewer bytes than whole-file
    // replication would have (20 of 200 objects).
    let file_bytes = grid.catalog.info("bulk.db").unwrap().meta.size;
    assert!(
        report.bytes_moved < file_bytes / 5,
        "object replication moved {} of a {}-byte file",
        report.bytes_moved,
        file_bytes
    );
}

#[test]
fn object_replication_chunks_are_first_class_replicas() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "bulk.db", 0..50, ObjectKind::Aod, 1024);
    grid.publish_database("cern", "bulk.db").unwrap();
    let wanted: Vec<_> = (0..10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let report = grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap();
    assert!(!report.chunk_files.is_empty());
    // The extraction file is registered in the replica catalog at ANL...
    let locs = grid.catalog.locate(&report.chunk_files[0]).unwrap();
    assert_eq!(locs.len(), 1);
    assert_eq!(locs[0].location, "anl");
    // ...and the global view can serve future object requests from it:
    // replicating the same objects to Lyon pulls from ANL's chunk.
    let r2 = grid.object_replicate("lyon", &wanted, ObjectReplicationConfig::default()).unwrap();
    assert_eq!(r2.sources, vec!["anl".to_string()]);
}

#[test]
fn object_replication_skips_objects_already_present() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "bulk.db", 0..30, ObjectKind::Aod, 256);
    grid.publish_database("cern", "bulk.db").unwrap();
    let first: Vec<_> = (0..10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    grid.object_replicate("anl", &first, ObjectReplicationConfig::default()).unwrap();
    // Second request overlaps: only the new objects move.
    let second: Vec<_> = (5..15).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let r = grid.object_replicate("anl", &second, ObjectReplicationConfig::default()).unwrap();
    assert_eq!(r.already_present, 5);
    assert_eq!(r.objects_moved, 5);
}

#[test]
fn extraction_files_reach_the_destination_lrc_under_federation() {
    let mut grid = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .federation(FederationConfig::default())
        .build();
    store_events(&mut grid, "cern", "bulk.db", 0..50, ObjectKind::Aod, 1024);
    grid.publish_database("cern", "bulk.db").unwrap();
    let wanted: Vec<_> = (0..10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let report = grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap();
    // The extraction file is registered where every replica is: the
    // federated lookup from a third site confirms it at anl's LRC.
    let found = grid.lookup_replicas("lyon", &report.chunk_files[0]).unwrap();
    assert_eq!(found.holders, vec!["anl".to_string()]);
    check_grid(&mut grid).assert_clean("federated object replication");
}

#[test]
fn a_corrupt_source_copy_fails_the_crc_and_installs_nothing() {
    let mut grid = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .trust_all()
        .federation(FederationConfig::default())
        .telemetry()
        .build();
    grid.publish_file("cern", "run1.dat", flat(64, 7), "flat").unwrap();
    // Bad disks at cern: the pool copy no longer matches the published CRC.
    let cern = grid.site_mut("cern").unwrap();
    cern.storage.pool.remove("run1.dat").unwrap();
    cern.storage.pool.put("run1.dat", flat(64, 8)).unwrap();

    let err = grid.replicate("anl", "run1.dat").unwrap_err();
    assert!(matches!(err, GdmpError::IntegrityFailure { ref lfn } if lfn == "run1.dat"), "{err}");
    // Nothing reached anl: not its pool, not the catalog, not its LRC.
    assert!(grid.site("anl").unwrap().storage.pool.peek("run1.dat").is_none());
    assert!(grid.site("anl").unwrap().export_catalog.is_empty());
    assert!(grid.catalog.site_files("anl").unwrap_or_default().is_empty());
    assert!(!grid.federation().unwrap().lrc_holds("anl", "run1.dat"));
    // The verify span says so, and no breaker closed on cern's behalf.
    let export = grid.telemetry().export_json_lines();
    let verify = export.lines().find(|l| l.contains("\"crc_verify\"")).expect("a crc_verify span");
    assert!(verify.contains("\"passed\":false"), "{verify}");
    assert!(!export.contains("breaker_open"), "a failed verify records no breaker success");
}

#[test]
fn object_replication_unknown_objects_error() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "bulk.db", 0..5, ObjectKind::Aod, 64);
    grid.publish_database("cern", "bulk.db").unwrap();
    let wanted = vec![LogicalOid::new(999, ObjectKind::Aod)];
    assert!(matches!(
        grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()),
        Err(GdmpError::ObjectsUnavailable(1))
    ));
}

#[test]
fn pipelining_beats_sequential_copy_then_send() {
    let mut grid_a = three_site_grid();
    let mut grid_b = three_site_grid();
    for g in [&mut grid_a, &mut grid_b] {
        store_events(g, "cern", "bulk.db", 0..300, ObjectKind::Aod, 2048);
        g.publish_database("cern", "bulk.db").unwrap();
    }
    let wanted: Vec<_> = (0..300).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    // Small chunks so the pipeline has stages to overlap; slow copier so
    // copy time is comparable to transfer time.
    let copier = gdmp_objectstore::CopierSpec {
        bytes_per_sec: 1_000_000,
        per_object_ns: 20_000,
        max_file_bytes: 128 * 1024,
    };
    let piped = grid_a
        .object_replicate("anl", &wanted, ObjectReplicationConfig { copier, pipelined: true })
        .unwrap();
    let sequential = grid_b
        .object_replicate("anl", &wanted, ObjectReplicationConfig { copier, pipelined: false })
        .unwrap();
    assert!(
        piped.makespan < sequential.makespan,
        "pipelined {} should beat sequential {}",
        piped.makespan,
        sequential.makespan
    );
}

#[test]
fn file_level_cover_ships_more_bytes_for_sparse_selections() {
    let mut grid = three_site_grid();
    // 10 files × 100 objects.
    for f in 0..10u64 {
        let name = format!("chunk{f}.db");
        store_events(&mut grid, "cern", &name, f * 100..(f + 1) * 100, ObjectKind::Aod, 1024);
        grid.publish_database("cern", &name).unwrap();
    }
    // Sparse selection: every 50th object → touches every file.
    let wanted: Vec<_> =
        (0..1000).step_by(50).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let cover = grid.file_level_cover(&wanted);
    assert!(cover.uncovered.is_empty());
    let objrep = grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap();
    assert!(
        cover.total_bytes > 10 * objrep.bytes_moved,
        "file-level cover {} bytes vs object-level {} bytes",
        cover.total_bytes,
        objrep.bytes_moved
    );
}

/// A second request whose densest sources are a first round's extraction
/// files: the source assignment, and with it every byte moved, is pinned
/// to what the string-keyed scan assigned (values from commit 8a033fc).
#[test]
fn extraction_files_are_the_densest_sources_of_a_later_request() {
    let mut grid = three_site_grid();
    for f in 0..4u64 {
        let name = format!("chunk{f}.db");
        store_events(&mut grid, "cern", &name, f * 100..(f + 1) * 100, ObjectKind::Aod, 512);
        grid.publish_database("cern", &name).unwrap();
    }
    let aods = |events: &mut dyn Iterator<Item = u64>| -> Vec<LogicalOid> {
        events.map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect()
    };
    let first = aods(&mut (0..400).step_by(4));
    let r1 = grid.object_replicate("anl", &first, ObjectReplicationConfig::default()).unwrap();
    assert_eq!(r1.sources, vec!["cern".to_string()]);
    assert_eq!(r1.chunk_files, vec!["objx.1.cern.to.anl.0.db".to_string()]);
    assert_eq!((r1.objects_moved, r1.bytes_moved), (100, 54_764));

    // Every 8th event lives both in a CERN file (1 in 8 of it wanted) and
    // in ANL's extraction file (1 in 2 wanted): ANL serves those; the odd
    // events only CERN has.
    let second = aods(&mut (0..400).step_by(8).chain((1..400).step_by(40)));
    let r2 = grid.object_replicate("lyon", &second, ObjectReplicationConfig::default()).unwrap();
    assert_eq!(r2.sources, vec!["anl".to_string(), "cern".to_string()]);
    assert_eq!(
        r2.chunk_files,
        vec!["objx.2.anl.to.lyon.0.db".to_string(), "objx.2.cern.to.lyon.0.db".to_string()]
    );
    assert_eq!((r2.objects_moved, r2.bytes_moved), (60, 32_949));
}

/// Landing at another site re-records nothing: the global view lists each
/// object of a whole-file replica once, however many sites hold the file.
#[test]
fn whole_file_replicas_are_recorded_once_in_the_object_view() {
    let mut grid = three_site_grid();
    grid.add_site(SiteConfig::named("fnal", "fnal.gov", 14));
    grid.trust_all();
    store_events(&mut grid, "cern", "ev.db", 0..40, ObjectKind::Aod, 128);
    grid.publish_database("cern", "ev.db").unwrap();
    let index_bytes = |grid: &mut Grid| {
        let idx = grid.publish_object_view_index("cern").unwrap();
        grid.catalog.info(&idx).unwrap().meta.size
    };
    let before = index_bytes(&mut grid);
    for dst in ["anl", "lyon", "fnal"] {
        grid.replicate(dst, "ev.db").unwrap();
    }
    assert_eq!(grid.object_view.objects_in("ev.db").len(), 40);
    assert_eq!(index_bytes(&mut grid), before);
}

/// Files the replica catalog does not know are priced at a quarter of
/// `u64::MAX` each; a cover made of several saturates instead of wrapping.
#[test]
fn file_level_cover_saturates_over_uncatalogued_files() {
    let mut grid = three_site_grid();
    let wanted: Vec<_> = (0..5).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    for (i, o) in wanted.iter().enumerate() {
        grid.object_view.record_file(&format!("ghost{i}.db"), &[*o]);
    }
    let cover = grid.file_level_cover(&wanted);
    assert_eq!(cover.files.len(), 5);
    assert_eq!(cover.total_bytes, u64::MAX);
}

#[test]
fn rpc_round_trips_advance_the_clock() {
    let mut grid = three_site_grid();
    let t0 = grid.now();
    grid.rpc("anl", "cern", Request::Echo("hi".into())).unwrap();
    let elapsed = grid.now().since(t0);
    // One RTT on the default CERN↔ANL profile is 125 ms.
    assert!((0.1..0.2).contains(&elapsed.as_secs_f64()), "elapsed {elapsed}");
    assert_eq!(grid.rpc_count, 1);
}

#[test]
fn multi_hop_dissemination_across_three_sites() {
    let mut grid = three_site_grid();
    grid.subscribe("anl", "cern").unwrap();
    grid.subscribe("lyon", "anl").unwrap();
    grid.publish_file("cern", "cascade.dat", flat(MB as usize, 5), "flat").unwrap();
    grid.replicate_pending("anl").unwrap();
    // ANL republishes nothing automatically (no re-publish semantics), but
    // Lyon can pull from either replica; selection picks the cheaper one.
    let r = grid.replicate("lyon", "cascade.dat").unwrap();
    assert!(["cern", "anl"].contains(&r.from.as_str()));
    assert_eq!(grid.catalog.locate("cascade.dat").unwrap().len(), 3);
}

#[test]
fn failover_strategy_switches_to_healthy_replica() {
    let mut grid = three_site_grid_with_recovery(Box::new(gdmp::FailoverRetry {
        attempts_per_source: 2,
        max_total_attempts: 10,
    }));
    grid.publish_file("cern", "flaky.dat", flat(MB as usize, 4), "flat").unwrap();
    grid.replicate("anl", "flaky.dat").unwrap();
    // Selection ranks anl first (name tie-break); its path to lyon is
    // permanently broken for this file, while cern stays healthy.
    grid.inject_fault_at(
        "flaky.dat",
        "anl",
        FaultPlan { abort_attempts: 100, abort_fraction: 0.0, corrupt_attempts: 0 },
    );
    let r = grid.replicate("lyon", "flaky.dat").unwrap();
    assert_eq!(r.from, "cern", "should have failed over to the healthy replica");
    assert!(r.attempts >= 3, "attempts: {}", r.attempts);
    assert!(grid.site("lyon").unwrap().storage.on_disk("flaky.dat"));
    // Neither source is left pinned.
    assert!(!grid.site("cern").unwrap().storage.pool.is_pinned("flaky.dat"));
    assert!(!grid.site("anl").unwrap().storage.pool.is_pinned("flaky.dat"));
}

#[test]
fn failover_preserves_partial_progress_across_sources() {
    let mut grid = three_site_grid_with_recovery(Box::new(gdmp::FailoverRetry {
        attempts_per_source: 1,
        max_total_attempts: 5,
    }));
    grid.publish_file("cern", "partial.dat", flat(4 * MB as usize, 5), "flat").unwrap();
    grid.replicate("anl", "partial.dat").unwrap();
    // The preferred source (anl) delivers 75% then dies, every time.
    grid.inject_fault_at(
        "partial.dat",
        "anl",
        FaultPlan { abort_attempts: 100, abort_fraction: 0.75, corrupt_attempts: 0 },
    );
    let r = grid.replicate("lyon", "partial.dat").unwrap();
    assert_eq!(r.from, "cern");
    // Restart across sources: 75% from anl + 25% from cern = 100%, no
    // duplicated bytes.
    assert_eq!(r.bytes_moved, 4 * MB, "bytes_moved {} should equal file size", r.bytes_moved);
    assert_eq!(r.attempts, 2);
}

#[test]
fn corruption_averse_strategy_flees_bad_disk() {
    let mut grid =
        three_site_grid_with_recovery(Box::new(gdmp::CorruptionAverse { max_total_attempts: 6 }));
    grid.publish_file("cern", "bitrot.dat", flat(MB as usize, 6), "flat").unwrap();
    grid.replicate("anl", "bitrot.dat").unwrap();
    // The preferred source (anl) persistently corrupts in flight.
    grid.inject_fault_at("bitrot.dat", "anl", FaultPlan::corrupt_first(100));
    let r = grid.replicate("lyon", "bitrot.dat").unwrap();
    assert_eq!(r.from, "cern");
    assert_eq!(r.attempts, 2, "one corrupt attempt, one clean after failover");
}

#[test]
fn failover_gives_up_when_all_sources_broken() {
    let mut grid = three_site_grid_with_recovery(Box::new(gdmp::FailoverRetry {
        attempts_per_source: 1,
        max_total_attempts: 10,
    }));
    grid.publish_file("cern", "doomed.dat", flat(1000, 7), "flat").unwrap();
    grid.replicate("anl", "doomed.dat").unwrap();
    grid.inject_fault_at(
        "doomed.dat",
        "cern",
        FaultPlan { abort_attempts: 100, abort_fraction: 0.0, corrupt_attempts: 0 },
    );
    grid.inject_fault_at(
        "doomed.dat",
        "anl",
        FaultPlan { abort_attempts: 100, abort_fraction: 0.0, corrupt_attempts: 0 },
    );
    let err = grid.replicate("lyon", "doomed.dat").unwrap_err();
    assert!(matches!(err, GdmpError::TransferFailed { .. }));
}

#[test]
fn object_view_index_files_replicate_like_any_file() {
    let mut grid = three_site_grid();
    store_events(&mut grid, "cern", "ev.db", 0..40, ObjectKind::Aod, 128);
    store_events(&mut grid, "cern", "esd.db", 0..25, ObjectKind::Esd, 256);
    grid.publish_database("cern", "ev.db").unwrap();
    grid.publish_database("cern", "esd.db").unwrap();

    // CERN publishes the global view as an index file; ANL replicates it
    // with ordinary file replication and rebuilds the view from it.
    let idx = grid.publish_object_view_index("cern").unwrap();
    assert!(grid.load_object_view_index("anl", &idx).is_err(), "anl holds no copy yet");
    grid.replicate("anl", &idx).unwrap();
    let rebuilt = grid.load_object_view_index("anl", &idx).unwrap();
    assert_eq!(rebuilt.file_count(), 2);
    assert_eq!(
        rebuilt.files_of(LogicalOid::new(7, ObjectKind::Aod)),
        vec!["ev.db"],
        "rebuilt view must locate objects"
    );
    // The rebuilt view is the global one: every file with every object.
    let view = grid.object_view.snapshot();
    assert_eq!(view.iter().map(|(_, objects)| objects.len()).collect::<Vec<_>>(), [25, 40]);
    assert_eq!(rebuilt.snapshot(), view);
    // The index file itself is a first-class catalog citizen.
    assert_eq!(grid.catalog.locate(&idx).unwrap().len(), 2);
}

#[test]
fn pre_processing_installs_schema_before_attach() {
    use gdmp::FetchPolicy;
    use gdmp_objectstore::{FieldType, TypeDescriptor};
    for policy in
        [FetchPolicy::SingleSource, FetchPolicy::MultiSource { max_sources: 2, min_chunk: 64 }]
    {
        let mut grid = three_site_grid();
        grid.add_site(SiteConfig::named("fnal", "fnal.gov", 14));
        grid.trust_all();
        grid.set_fetch_policy(policy);
        // CERN upgrades its AOD class to version 2 before producing data.
        grid.site_mut("cern")
            .unwrap()
            .federation
            .schema
            .register(TypeDescriptor::new(
                "aod",
                2,
                &[("event", FieldType::U64), ("btag", FieldType::F64)],
            ))
            .unwrap();
        store_events(&mut grid, "cern", "v2.db", 0..10, ObjectKind::Aod, 64);
        grid.publish_database("cern", "v2.db").unwrap();

        // A bare attach at ANL (schema v1) would fail...
        let image = grid.site("cern").unwrap().federation.export("v2.db").unwrap();
        {
            let mut scratch = gdmp_objectstore::Federation::new("scratch");
            let err = scratch.attach(image).unwrap_err();
            assert!(matches!(err, gdmp_objectstore::FedError::Schema(_)));
        }

        // ...but GDMP's pre-processing step imports the schema first: from
        // the one holder, and then — striped, under `MultiSource` — from two.
        for dst in ["anl", "lyon"] {
            grid.replicate(dst, "v2.db").unwrap_or_else(|e| panic!("{policy:?} to {dst}: {e:?}"));
            let site = grid.site(dst).unwrap();
            assert!(site.federation.is_attached("v2.db"));
            assert_eq!(site.federation.schema.version_of("aod"), Some(2));
        }

        // Object replication carries the schema too.
        let wanted: Vec<_> = (0..5).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
        grid.object_replicate("fnal", &wanted, ObjectReplicationConfig::default()).unwrap();
        assert_eq!(grid.site("fnal").unwrap().federation.schema.version_of("aod"), Some(2));
    }
}

#[test]
fn striped_retry_refuses_a_crashed_source() {
    use gdmp::{FaultEvent, FaultSchedule, FetchPolicy};
    use gdmp_simnet::time::SimDuration;
    use gdmp_telemetry::FieldValue;

    let mut grid = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .telemetry()
        .recovery(Box::new(gdmp::FailoverRetry { attempts_per_source: 3, max_total_attempts: 20 }))
        .build();
    grid.publish_file("cern", "hot.dat", flat(8 * MB as usize, 9), "flat").unwrap();
    grid.replicate("anl", "hot.dat").unwrap();
    grid.set_fetch_policy(FetchPolicy::MultiSource { max_sources: 2, min_chunk: 512 * 1024 });
    // anl crashes 1.5 s into the striped fetch and stays down.
    let t0 = grid.now();
    let crash = t0 + SimDuration::from_millis(1500);
    grid.inject_fault_schedule(
        FaultSchedule::new().at(crash, FaultEvent::SiteDown { site: "anl".into() }),
    );
    let report = grid.replicate("lyon", "hot.dat").unwrap();
    assert_eq!(report.from, "cern");
    assert!(grid.site("lyon").unwrap().storage.on_disk("hot.dat"));

    let reg = grid.telemetry();
    let field = |s: &gdmp_telemetry::SpanRecord, key: &str| {
        s.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let mut landed_before_crash = 0;
    for s in reg.spans().iter().filter(|s| {
        s.name == "transfer"
            && s.start_ns >= t0.nanos()
            && field(s, "source") == Some(FieldValue::Str("anl".into()))
    }) {
        let clean = field(s, "outcome") == Some(FieldValue::Str("clean".into()));
        if s.start_ns >= crash.nanos() {
            assert!(!clean, "a pull from the crashed anl landed: {s:?}");
        } else if clean {
            let Some(FieldValue::U64(n)) = field(s, "bytes_requested") else { panic!("{s:?}") };
            landed_before_crash += n;
        } else if let Some(FieldValue::U64(n)) = field(s, "bytes_salvaged") {
            landed_before_crash += n;
        }
    }
    let from_anl = reg.counter_value("transfer_bytes", &[("src", "anl"), ("dst", "lyon")]);
    assert!(
        from_anl <= landed_before_crash,
        "anl delivered {from_anl} B, but only {landed_before_crash} B before its crash"
    );
}
