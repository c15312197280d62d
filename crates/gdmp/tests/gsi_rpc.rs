//! The grid-level GSI contract of `Grid::rpc`: which credential defects
//! refuse an RPC, with which exact error text, and that a refused RPC
//! charges neither the clock nor `rpc_count`. When both sites hold bad
//! credentials, the caller's defect is the one reported.

use gdmp::{GdmpError, Grid, SiteConfig};
use gdmp_gsi::{CertificateAuthority, CredentialChain, DistinguishedName, KeyPair};
use gdmp_simnet::time::{SimDuration, SimTime};

const CERN_SEED: u64 = 11;
const ANL_SEED: u64 = 12;

/// One control round trip on the default CERN↔ANL profile.
const RTT_NS: u64 = 125_000_000;

fn two_site_grid() -> Grid {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", CERN_SEED));
    grid.add_site(SiteConfig::named("anl", "anl.gov", ANL_SEED));
    grid.trust_all();
    grid
}

/// The host credential a site is built with (same DN, same keys, same CA),
/// rebuilt here so a test can delegate proxies from it.
fn host_credential(grid: &Grid, org: &str, key_seed: u64) -> CredentialChain {
    let keys = KeyPair::from_seed(key_seed);
    let dn = DistinguishedName::host(org, &format!("gdmp.{org}"));
    CredentialChain::end_entity(grid.ca.issue(dn, keys.public, 0, u64::MAX / 2), keys)
}

/// A proxy of cern's host credential valid over `[from, from + lifetime]`
/// grid seconds.
fn cern_proxy(grid: &Grid, seed: u64, from: u64, lifetime: u64) -> CredentialChain {
    host_credential(grid, "cern.ch", CERN_SEED).delegate(seed, from, lifetime, 1).unwrap()
}

fn install(grid: &mut Grid, site: &str, cred: CredentialChain) {
    grid.site_mut(site).unwrap().set_credential(cred);
}

/// Ping `from → to`, expecting a GSI refusal; returns its text.
fn refused(grid: &mut Grid, from: &str, to: &str) -> String {
    let err = grid.ping(from, to).unwrap_err();
    assert!(matches!(err, GdmpError::Security(_)), "{err}");
    err.to_string()
}

/// Ping both ways `rounds` times, expecting success.
fn ping_both_ways(grid: &mut Grid, rounds: usize) {
    for _ in 0..rounds {
        grid.ping("anl", "cern").unwrap();
        grid.ping("cern", "anl").unwrap();
    }
}

const EXPIRED_101: &str =
    "security: credential rejected: proxy validation: expired (now=101, to=100)";
const BAD_SIGNATURE: &str =
    "security: credential rejected: proxy validation: signature check failed";
const CHALLENGE_FAILED: &str = "security: peer failed proof-of-possession challenge";

#[test]
fn short_lived_proxy_serves_until_valid_to_then_every_rpc_fails() {
    let mut grid = two_site_grid();
    let proxy = cern_proxy(&grid, 21, 0, 100);
    install(&mut grid, "cern", proxy);
    ping_both_ways(&mut grid, 3);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(6 * RTT_NS), 6));

    // Grid second 100 is the proxy's last valid second.
    grid.advance(SimDuration::from_millis(99_500));
    assert_eq!(grid.now(), SimTime(100_250_000_000));
    grid.ping("anl", "cern").unwrap();
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(100_375_000_000), 7));

    grid.advance(SimDuration::from_secs(1));
    for _ in 0..3 {
        assert_eq!(refused(&mut grid, "anl", "cern"), EXPIRED_101);
        assert_eq!(refused(&mut grid, "cern", "anl"), EXPIRED_101);
    }
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(101_375_000_000), 7));
}

#[test]
fn renewed_proxy_is_accepted_after_expiry() {
    let mut grid = two_site_grid();
    let proxy = cern_proxy(&grid, 21, 0, 100);
    install(&mut grid, "cern", proxy);
    ping_both_ways(&mut grid, 1);
    grid.advance(SimDuration::from_secs(101));
    assert_eq!(refused(&mut grid, "anl", "cern"), EXPIRED_101);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(101_250_000_000), 2));

    let renewed = cern_proxy(&grid, 22, 101, 43_200);
    install(&mut grid, "cern", renewed);
    ping_both_ways(&mut grid, 2);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(101_250_000_000 + 4 * RTT_NS), 6));
}

#[test]
fn subject_tampered_without_resigning_is_rejected() {
    let mut grid = two_site_grid();
    ping_both_ways(&mut grid, 1);
    let mut forged = host_credential(&grid, "cern.ch", CERN_SEED);
    forged.chain[0].subject = DistinguishedName::host("cern.ch", "gdmp.evil.ch");
    install(&mut grid, "cern", forged);
    assert_eq!(refused(&mut grid, "anl", "cern"), BAD_SIGNATURE);
    assert_eq!(refused(&mut grid, "cern", "anl"), BAD_SIGNATURE);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(2 * RTT_NS), 2));
}

#[test]
fn swapped_leaf_keys_fail_the_challenge() {
    let mut grid = two_site_grid();
    ping_both_ways(&mut grid, 1);
    let mut stolen = host_credential(&grid, "cern.ch", CERN_SEED);
    stolen.leaf_keys = KeyPair::from_seed(99);
    install(&mut grid, "cern", stolen);
    assert_eq!(refused(&mut grid, "anl", "cern"), CHALLENGE_FAILED);
    assert_eq!(refused(&mut grid, "cern", "anl"), CHALLENGE_FAILED);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(2 * RTT_NS), 2));
}

#[test]
fn foreign_ca_rejects_every_site_until_restored() {
    let mut grid = two_site_grid();
    ping_both_ways(&mut grid, 2);
    let trusted = grid.ca.clone();
    grid.ca = CertificateAuthority::new(
        DistinguishedName::user("evil.org", "Evil CA"),
        99,
        0,
        u64::MAX / 2,
    );
    assert_eq!(refused(&mut grid, "anl", "cern"), BAD_SIGNATURE);
    assert_eq!(refused(&mut grid, "cern", "anl"), BAD_SIGNATURE);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(4 * RTT_NS), 4));

    grid.ca = trusted;
    ping_both_ways(&mut grid, 1);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(6 * RTT_NS), 6));
}

#[test]
fn two_defects_report_the_callers_error() {
    let mut grid = two_site_grid();
    let proxy = cern_proxy(&grid, 21, 0, 100);
    install(&mut grid, "cern", proxy);
    ping_both_ways(&mut grid, 1);
    grid.advance(SimDuration::from_secs(101));
    let mut stolen = host_credential(&grid, "anl.gov", ANL_SEED);
    stolen.leaf_keys = KeyPair::from_seed(98);
    install(&mut grid, "anl", stolen);
    // cern is expired and anl cannot answer a challenge: whichever site
    // calls, its own defect is the one reported.
    assert_eq!(refused(&mut grid, "cern", "anl"), EXPIRED_101);
    assert_eq!(refused(&mut grid, "anl", "cern"), CHALLENGE_FAILED);
    assert_eq!((grid.now(), grid.rpc_count), (SimTime(101_250_000_000), 2));
}
