//! End-to-end federated catalog flows: lookups walk the degradation
//! ladder against the live grid (real RPCs, chaos, breaker, backoff), and
//! replication routes source discovery through confirmed LRC answers.

use bytes::Bytes;
use gdmp::chaos::{FaultEvent, FaultSchedule};
use gdmp::prelude::*;
use gdmp::{check_grid, LookupVia};

const KB: usize = 1024;

fn fed_builder(n: usize) -> GridBuilder {
    let mut b = Grid::builder("cms");
    for i in 0..n {
        b = b.site(SiteConfig::named(&format!("s{i}"), &format!("s{i}.org"), 40 + i as u64));
    }
    b.trust_all()
        .recovery(Box::new(BackoffRetry::new(0xFED)))
        .breaker(BreakerConfig::default())
        .federation(FederationConfig::default())
}

#[test]
fn cold_index_lookup_falls_back_and_still_finds_the_holder() {
    let mut grid = fed_builder(6).build();
    grid.publish_file("s0", "run.dat", Bytes::from(vec![7u8; 4 * KB]), "flat").unwrap();
    // No soft-state round has run: the RLI has no summaries, so the
    // ladder's bounded fan-out must find the holder the index forgot.
    let r = grid.lookup_replicas("s1", "run.dat").unwrap();
    assert_eq!(r.holders, vec!["s0".to_string()]);
    assert_eq!(r.via, LookupVia::Fallback);
    assert!(!r.degraded);
    assert!(r.confirms >= 1, "fan-out pays confirm RPCs");
    assert_eq!(grid.federation().unwrap().stats.wrong_answers, 0);
}

#[test]
fn warm_index_lookup_is_an_rli_hit_confirmed_at_the_lrc() {
    let mut grid = fed_builder(6).build();
    grid.publish_file("s0", "run.dat", Bytes::from(vec![7u8; 4 * KB]), "flat").unwrap();
    // Two update periods: the leaf (= root here) now summarizes s0.
    grid.advance(SimDuration::from_secs(65));
    let r = grid.lookup_replicas("s1", "run.dat").unwrap();
    assert_eq!(r.holders, vec!["s0".to_string()]);
    assert_eq!(r.via, LookupVia::Rli);
    assert_eq!(r.confirms, 1, "one hint, one confirm RPC");
    assert!(r.staleness_ns > 0, "soft state has nonzero age");
    assert!(r.staleness_ns <= gdmp_replica_catalog::federation::STALENESS_BOUND.nanos());
}

#[test]
fn holder_answers_its_own_lookup_locally_for_free() {
    let mut grid = fed_builder(4).build();
    grid.publish_file("s2", "run.dat", Bytes::from(vec![7u8; KB]), "flat").unwrap();
    let before = grid.now();
    let r = grid.lookup_replicas("s2", "run.dat").unwrap();
    assert_eq!(r.via, LookupVia::Local);
    assert_eq!(r.holders, vec!["s2".to_string()]);
    assert_eq!(r.confirms, 0);
    assert_eq!(grid.now(), before, "own-LRC answers cost no sim time");
}

#[test]
fn lookup_survives_an_rli_outage_via_direct_scatter() {
    let root = {
        // The topology is deterministic: learn the root's name from a
        // throwaway federation over the same site set.
        let names: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
        gdmp_replica_catalog::FederatedCatalog::new(&names).root_name().to_string()
    };
    let schedule = FaultSchedule::new()
        .at(SimTime(1_000_000_000), FaultEvent::RliDown { node: root.clone() })
        .at(SimTime(100_000_000_000), FaultEvent::RliUp { node: root });
    let mut grid = fed_builder(6).fault_schedule(schedule).build();
    grid.publish_file("s0", "run.dat", Bytes::from(vec![7u8; 4 * KB]), "flat").unwrap();

    // t=40s: the only RLI node is dead. The index cannot speak for anyone,
    // so the ladder scatters to the authoritative LRCs — degraded, correct.
    grid.advance(SimDuration::from_secs(40));
    let r = grid.lookup_replicas("s1", "run.dat").unwrap();
    assert_eq!(r.holders, vec!["s0".to_string()]);
    assert_eq!(r.via, LookupVia::Scatter);
    assert!(r.degraded);

    // t=160s: the node restarted and fresh soft state flowed in; the fast
    // path is back.
    grid.advance(SimDuration::from_secs(120));
    let r = grid.lookup_replicas("s1", "run.dat").unwrap();
    assert_eq!(r.via, LookupVia::Rli);
    assert_eq!(r.holders, vec!["s0".to_string()]);

    assert_eq!(grid.federation().unwrap().stats.wrong_answers, 0);
    check_grid(&mut grid).assert_clean("rli outage flow");
}

#[test]
fn replication_routes_source_discovery_through_the_federation() {
    let mut grid = fed_builder(4).build();
    grid.publish_file("s0", "big.dat", Bytes::from(vec![9u8; 64 * KB]), "flat").unwrap();
    grid.advance(SimDuration::from_secs(35));
    let report = grid.replicate("s3", "big.dat").unwrap();
    assert_eq!(report.from, "s0");
    // The destination's LRC is authoritative for the new copy at once.
    assert!(grid.federation().unwrap().lrc_holds("s3", "big.dat"));
    // After the next soft-state round the index hints both copies.
    grid.advance(SimDuration::from_secs(65));
    let r = grid.lookup_replicas("s1", "big.dat").unwrap();
    assert_eq!(r.holders.len(), 2, "both copies confirmed: {:?}", r.holders);
    check_grid(&mut grid).assert_clean("federated replicate");
}

#[test]
fn unknown_file_is_not_published_once_every_lrc_denied_it() {
    let mut grid = fed_builder(4).build();
    grid.publish_file("s0", "real.dat", Bytes::from(vec![1u8; KB]), "flat").unwrap();
    let err = grid.lookup_replicas("s1", "ghost.dat").unwrap_err();
    assert!(matches!(err, GdmpError::NotPublished(_)), "{err}");
}

#[test]
fn without_federation_lookup_is_a_central_catalog_query() {
    let mut grid = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .trust_all()
        .build();
    grid.publish_file("cern", "run.dat", Bytes::from(vec![7u8; KB]), "flat").unwrap();
    let r = grid.lookup_replicas("anl", "run.dat").unwrap();
    assert_eq!(r.via, LookupVia::Central);
    assert_eq!(r.holders, vec!["cern".to_string()]);
    assert_eq!(r.confirms, 0);
}

#[test]
fn lookup_telemetry_counts_the_ladder() {
    let mut grid = fed_builder(6).telemetry().build();
    grid.publish_file("s0", "run.dat", Bytes::from(vec![7u8; KB]), "flat").unwrap();
    grid.lookup_replicas("s1", "run.dat").unwrap(); // cold: fallback
    grid.advance(SimDuration::from_secs(65));
    grid.lookup_replicas("s1", "run.dat").unwrap(); // warm: rli hit
    let reg = grid.telemetry();
    let export = reg.export_json_lines();
    assert!(export.contains("lrc_lookups"), "{export}");
    assert!(export.contains("rli_hits"), "{export}");
    assert!(export.contains("lookup_fallbacks"), "{export}");
    assert!(export.contains("soft_state_updates"), "{export}");
    assert!(export.contains("catalog_staleness"), "{export}");
}
