//! Pinned state of every path that registers a new replica or is refused
//! by a cut path: publish with a notice journaled for a crashed
//! subscriber, the import drain, restart recovery, a striped replication,
//! an object replication with the federated catalog off, and federated
//! lookups that reach every rung of the ladder. One FNV-1a digest folds
//! each site's export catalog, import queue and journal, the central
//! catalog's per-site files, every LRC, the clock, the RPC count and the
//! whole telemetry export, so a change that moves any of them fails here.

use bytes::Bytes;
use gdmp::chaos::{FaultEvent, FaultSchedule};
use gdmp::prelude::*;
use gdmp::{LookupVia, ObjectReplicationConfig};
use gdmp_objectstore::{standard_assocs, synth_payload, LogicalOid, ObjectKind, StoredObject};

const KB: usize = 1024;

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn secs(s: u64) -> SimTime {
    SimTime(s * 1_000_000_000)
}

/// Everything a registration writes, in a fixed order.
fn fold(grid: &mut Grid, into: &mut String) {
    for name in grid.site_names() {
        let site = grid.site(&name).unwrap();
        into.push_str(&format!(
            "{name}\nexport {:?}\nimport {:?}\njournal {:?}\n",
            site.export_catalog, site.import_queue, site.journal
        ));
        let files = grid.catalog.site_files(&name).unwrap_or_default();
        into.push_str(&format!("catalog {files:?}\n"));
        if let Some(lrc) = grid.federation().and_then(|fed| fed.lrc(&name)) {
            into.push_str(&format!("lrc {:?}\n", lrc.files()));
        }
    }
    into.push_str(&format!("clock {} rpcs {}\n", grid.now().nanos(), grid.rpc_count));
    into.push_str(&grid.telemetry().export_json_lines());
}

fn store_events(grid: &mut Grid, site: &str, file: &str, events: std::ops::Range<u64>) {
    let fed = &mut grid.site_mut(site).unwrap().federation;
    fed.create_database(file).unwrap();
    for e in events {
        let logical = LogicalOid::new(e, ObjectKind::Aod);
        let object = StoredObject {
            logical,
            version: 1,
            payload: synth_payload(logical, 1, 512),
            assocs: standard_assocs(logical),
        };
        fed.store(file, 0, object).unwrap();
    }
}

/// Central catalog only: publish, journal, drain, recover, stripe, and
/// extract objects.
fn central_run(into: &mut String) {
    let schedule = FaultSchedule::new()
        .at(secs(1), FaultEvent::SiteDown { site: "lyon".into() })
        .at(
            secs(1),
            FaultEvent::LinkDown { from: "anl".into(), to: "ral".into(), both_ways: false },
        )
        .at(secs(20), FaultEvent::LinkUp { from: "anl".into(), to: "ral".into(), both_ways: false })
        .at(secs(30), FaultEvent::SiteUp { site: "lyon".into() });
    let mut g = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .site(SiteConfig::named("ral", "ral.ac.uk", 14))
        .trust_all()
        .recovery(Box::new(BackoffRetry::new(0x5EED)))
        .fault_schedule(schedule)
        .telemetry()
        .build();
    g.subscribe("anl", "cern").unwrap();
    g.subscribe("lyon", "cern").unwrap();
    g.advance(SimDuration::from_secs(2));

    // lyon is down: its notice is journaled, anl's is delivered.
    g.publish_file("cern", "run1.dat", Bytes::from(vec![1u8; 64 * KB]), "flat").unwrap();
    g.publish_file("cern", "run2.dat", Bytes::from(vec![2u8; 96 * KB]), "flat").unwrap();
    assert_eq!(g.site("cern").unwrap().journal.len(), 2, "both notices for lyon journaled");
    assert_eq!(g.replicate_pending("anl").unwrap().len(), 2);

    // Refusals while the faults hold: a crashed caller, a crashed callee,
    // a cut link, and a fetch towards the crashed site.
    for (from, to) in [("lyon", "cern"), ("cern", "lyon"), ("anl", "ral"), ("ral", "anl")] {
        into.push_str(&format!("ping {from} {to} {:?}\n", g.ping(from, to)));
    }
    into.push_str(&format!("to lyon {:?}\n", g.replicate("lyon", "run1.dat")));

    // lyon restarts: the journal replays, then an explicit resync finds
    // nothing left to enqueue, and the drain pulls both files.
    g.advance(SimDuration::from_secs(30));
    assert!(g.site("cern").unwrap().journal.is_empty(), "journal replayed after SiteUp");
    g.recover_catalog("lyon", "cern").unwrap();
    into.push_str(&format!("drain {:?}\n", g.replicate_pending("lyon")));

    // A striped pull from three holders.
    g.set_fetch_policy(FetchPolicy::MultiSource { max_sources: 3, min_chunk: 16 * KB as u64 });
    let striped = g.replicate("ral", "run2.dat").unwrap();
    into.push_str(&format!("striped {striped:?}\n"));
    g.set_fetch_policy(FetchPolicy::SingleSource);

    // Object extraction with the federated catalog off.
    store_events(&mut g, "cern", "bulk.db", 0..40);
    g.publish_database("cern", "bulk.db").unwrap();
    let wanted: Vec<_> = (0..40).step_by(4).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let objrep = g.object_replicate("ral", &wanted, ObjectReplicationConfig::default()).unwrap();
    into.push_str(&format!("objrep {objrep:?}\n"));
    let central = g.lookup_replicas("anl", "run1.dat").unwrap();
    assert_eq!(central.via, LookupVia::Central);
    into.push_str(&format!("lookup {central:?}\n"));
    fold(&mut g, into);
}

/// The federated catalog: one lookup per rung of the ladder, then one
/// that denies everywhere and one that meets an unreachable LRC.
fn federated_run(into: &mut String) {
    let names: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
    let root = gdmp_replica_catalog::FederatedCatalog::new(&names).root_name().to_string();
    let schedule = FaultSchedule::new()
        .at(secs(100), FaultEvent::RliDown { node: root.clone() })
        .at(secs(200), FaultEvent::RliUp { node: root })
        .at(secs(300), FaultEvent::SiteDown { site: "s5".into() });
    let mut b = Grid::builder("cms");
    for (i, name) in names.iter().enumerate() {
        b = b.site(SiteConfig::named(name, &format!("{name}.org"), 40 + i as u64));
    }
    let mut g = b
        .trust_all()
        .recovery(Box::new(BackoffRetry::new(0xFED)))
        .breaker(BreakerConfig::default())
        .federation(FederationConfig::default())
        .fault_schedule(schedule)
        .telemetry()
        .build();
    g.publish_file("s0", "run.dat", Bytes::from(vec![7u8; 4 * KB]), "flat").unwrap();
    let mut vias = Vec::new();
    let mut look = |g: &mut Grid, from: &str, lfn: &str, into: &mut String| {
        let r = g.lookup_replicas(from, lfn);
        into.push_str(&format!("lookup {from} {lfn} {r:?}\n"));
        if let Ok(r) = r {
            vias.push(r.via);
        }
    };
    look(&mut g, "s0", "run.dat", into); // own LRC
    look(&mut g, "s1", "run.dat", into); // cold index: fan-out
    g.advance(SimDuration::from_secs(65));
    look(&mut g, "s2", "run.dat", into); // warm index: RLI hint
    g.replicate("s3", "run.dat").unwrap();
    g.advance(SimDuration::from_secs(60));
    look(&mut g, "s4", "run.dat", into); // root RLI down: scatter
    look(&mut g, "s4", "ghost.dat", into); // every LRC denies it
    g.advance(SimDuration::from_secs(200));
    look(&mut g, "s1", "ghost.dat", into); // s5 is down: retryable miss
    assert_eq!(
        vias,
        vec![LookupVia::Local, LookupVia::Fallback, LookupVia::Rli, LookupVia::Scatter],
        "every rung reached"
    );
    fold(&mut g, into);
}

/// A crashed destination, refused before any attempt, then the default
/// retry budget against a crashed source, which fails with its prologue's
/// refusal.
fn refused_run(into: &mut String) {
    let schedule = FaultSchedule::new()
        .at(secs(1), FaultEvent::SiteDown { site: "anl".into() })
        .at(secs(5), FaultEvent::SiteDown { site: "cern".into() });
    let mut g = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .fault_schedule(schedule)
        .telemetry()
        .build();
    g.publish_file("cern", "x.dat", Bytes::from(vec![3u8; 8 * KB]), "flat").unwrap();
    g.advance(SimDuration::from_secs(2));
    into.push_str(&format!("to anl {:?}\n", g.replicate("anl", "x.dat")));
    g.advance(SimDuration::from_secs(4));
    into.push_str(&format!("to lyon {:?}\n", g.replicate("lyon", "x.dat")));
    fold(&mut g, into);
}

#[test]
fn registration_and_refusal_paths_are_pinned() {
    let mut text = String::new();
    central_run(&mut text);
    refused_run(&mut text);
    federated_run(&mut text);
    assert_eq!(format!("{:#018x}", fnv1a(&text)), "0x50800a4786c0189c", "{text}");
}
