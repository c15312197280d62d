//! The gridmap contract of `Grid::trust_all`, `Grid::trust` and per-site
//! `GridMap::{add, remove}`, pinned at the level a caller sees it: for every
//! site × every DN × every `Operation`, the exact `authorize` outcome (local
//! account or error text), plus each site's `gridmap.len()`, folded into
//! one FNV-1a digest. The grid is the `grid_quick` preset's sites plus two
//! that share another site's DN, explicit trust edges and per-site edits on
//! both sides of `trust_all`, a site added after it, a renamed identity and
//! a second `trust_all`.
//!
//! A second test checks that an edit on one site's gridmap changes only
//! that site's decisions.

use gdmp::{Grid, SiteConfig};
use gdmp_gsi::{CredentialChain, DistinguishedName, KeyPair, Operation};
use gdmp_workloads::scenario::Scenario;

fn fnv1a(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn dn_of(grid: &Grid, site: &str) -> DistinguishedName {
    grid.site(site).unwrap().identity().clone()
}

fn foreign() -> DistinguishedName {
    DistinguishedName::user("evil.org", "eve")
}

fn visitor() -> DistinguishedName {
    DistinguishedName::user("cern.ch", "visitor")
}

/// Every site's current DN, the extra DNs, and one foreign DN, each once.
fn universe(grid: &Grid, extra: &[DistinguishedName]) -> Vec<DistinguishedName> {
    let sites = grid.site_names_iter().map(|s| grid.site(s).unwrap().identity().clone());
    let mut dns: Vec<DistinguishedName> = Vec::new();
    for dn in sites.chain(extra.iter().cloned()).chain([foreign()]) {
        if !dns.contains(&dn) {
            dns.push(dn);
        }
    }
    dns
}

/// One line per site (its `len`) and per (site, DN, op) decision.
fn decisions(grid: &Grid, dns: &[DistinguishedName]) -> Vec<String> {
    let mut out = Vec::new();
    for site in grid.site_names_iter() {
        let map = &grid.site(site).unwrap().gridmap;
        out.push(format!("{site} len={}", map.len()));
        for dn in dns {
            for op in Operation::ALL {
                let outcome = match map.authorize(dn, op) {
                    Ok(user) => format!("Ok({user})"),
                    Err(e) => format!("Err({e})"),
                };
                out.push(format!("{site} {dn} {op:?} {outcome}"));
            }
        }
    }
    out
}

fn quick_grid() -> Grid {
    let mut grid = Grid::new("grid-soak");
    for cfg in Scenario::preset("grid_quick").unwrap().topology.site_configs() {
        grid.add_site(cfg);
    }
    // Two sites sharing another site's DN: one sorts first, one last.
    grid.add_site(SiteConfig::named("a-twin", "t0-core.grid", 900));
    grid.add_site(SiteConfig::named("zz-twin", "t1-r00.grid", 901));
    grid
}

#[test]
fn gridmap_decisions_match_the_pinned_digest() {
    let mut grid = quick_grid();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let record = |grid: &Grid, extra: &[DistinguishedName], hash: &mut u64| {
        for line in decisions(grid, &universe(grid, extra)) {
            fnv1a(hash, &line);
            fnv1a(hash, "\n");
        }
    };

    // Before `trust_all`: explicit edges (one a self edge), a restricted
    // grant to a VO member, a foreign grant and a removal.
    grid.trust("t1-r00", "t2-r00-s00");
    grid.trust("t1-r01", "t1-r01");
    let core = dn_of(&grid, "t0-core");
    grid.site_mut("t2-r01-s01").unwrap().gridmap.add(
        core.clone(),
        "restricted",
        &[Operation::Subscribe],
    );
    grid.site_mut("t0-core").unwrap().gridmap.add(visitor(), "visitor", &[Operation::FetchCatalog]);
    grid.trust("t2-r01-s02", "t1-r01");
    let t1 = dn_of(&grid, "t1-r01");
    assert!(grid.site_mut("t2-r01-s02").unwrap().gridmap.remove(&t1));
    record(&grid, &[visitor()], &mut hash);

    grid.trust_all();
    // The site's own DN stays unmapped unless trusted explicitly.
    let t2 = grid.site("t2-r00-s00").unwrap();
    assert!(t2.gridmap.authorize(t2.identity(), Operation::Ping).is_err());
    let t1 = grid.site("t1-r01").unwrap();
    assert_eq!(t1.gridmap.authorize(t1.identity(), Operation::Admin), Ok("t1-r01_svc"));
    // `trust_all` overwrites the restricted grant and undoes the removal.
    let t2 = grid.site("t2-r01-s01").unwrap();
    assert_eq!(t2.gridmap.authorize(&core, Operation::Publish), Ok("t0-core_svc"));
    record(&grid, &[visitor()], &mut hash);

    // After `trust_all`: explicit edges, a restricted grant, removals, and
    // a late site that is in nobody's map.
    grid.trust("t2-r02-s03", "t1-r02");
    grid.trust("t2-r00-s01", "t2-r00-s01");
    let s00 = dn_of(&grid, "t2-r02-s00");
    grid.site_mut("t1-r02").unwrap().gridmap.add(
        s00,
        "t2_ro",
        &[Operation::FetchCatalog, Operation::Ping],
    );
    let map = &mut grid.site_mut("t2-r00-s02").unwrap().gridmap;
    assert!(map.remove(&core));
    assert!(!map.remove(&core));
    assert!(!map.remove(&foreign()));
    let own = dn_of(&grid, "t2-r00-s03");
    assert!(!grid.site_mut("t2-r00-s03").unwrap().gridmap.remove(&own));
    grid.add_site(SiteConfig::named("late", "late.grid", 950));
    assert_eq!(grid.site("late").unwrap().gridmap.len(), 0);
    record(&grid, &[visitor()], &mut hash);
    grid.trust("late", "t0-core");
    grid.trust("t0-core", "late");
    record(&grid, &[visitor()], &mut hash);

    // A site takes a new identity; a second `trust_all` maps the new DN,
    // keeps the old one where the first put it, and overwrites per-pair
    // grants to members again.
    let old = dn_of(&grid, "t2-r02-s02");
    let keys = KeyPair::from_seed(960);
    let renamed = DistinguishedName::host("renamed.grid", "gdmp.renamed.grid");
    let cert = grid.ca.issue(renamed, keys.public, 0, u64::MAX / 2);
    grid.site_mut("t2-r02-s02").unwrap().set_credential(CredentialChain::end_entity(cert, keys));
    grid.trust_all();
    record(&grid, &[visitor(), old.clone()], &mut hash);
    let map = &mut grid.site_mut("t1-r00").unwrap().gridmap;
    assert!(map.remove(&old));
    map.add(foreign(), "eve", &[]);
    record(&grid, &[visitor(), old], &mut hash);

    assert_eq!(format!("{hash:#018x}"), "0xe41b7ed8ebefa699");
}

#[test]
fn an_edit_on_one_site_changes_only_that_sites_decisions() {
    let mut grid = quick_grid();
    grid.trust_all();
    let dns = universe(&grid, &[visitor()]);
    let before = decisions(&grid, &dns);

    let core = dn_of(&grid, "t0-core");
    assert!(grid.site_mut("t1-r01").unwrap().gridmap.remove(&core));
    grid.site_mut("t1-r02").unwrap().gridmap.add(
        core.clone(),
        "core_ro",
        &[Operation::FetchCatalog],
    );
    let after = decisions(&grid, &dns);

    assert_eq!(before.len(), after.len());
    let changed: Vec<(&String, &String)> =
        before.iter().zip(&after).filter(|(b, a)| b != a).collect();
    // t1-r01: its len and six ops; t1-r02: the new account on FetchCatalog
    // and Ping (granted to any mapped DN), a denial on the other four.
    assert!(changed.iter().all(|(b, _)| b.starts_with("t1-r01 ") || b.starts_with("t1-r02 ")));
    let on = |site: &str| changed.iter().filter(|(b, _)| b.starts_with(site)).count();
    assert_eq!((on("t1-r01 "), on("t1-r02 ")), (1 + 6, 6));
    let t1 = &grid.site("t1-r02").unwrap().gridmap;
    assert_eq!(t1.authorize(&core, Operation::FetchCatalog), Ok("core_ro"));
    assert_eq!(t1.len(), grid.site("t2-r00-s00").unwrap().gridmap.len());
    assert_eq!(
        grid.site("t1-r01").unwrap().gridmap.len() + 1,
        grid.site("t2-r00-s00").unwrap().gridmap.len()
    );
}
