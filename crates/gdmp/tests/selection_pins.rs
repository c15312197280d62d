//! Pinned outputs of replica selection. Each case records the exact bits
//! of every candidate's `predicted_bps` and `est_transfer` from
//! `estimate_sources`, so a change to the throughput predictor that moves
//! one float fails here with the case named. A striped `MultiSource`
//! replication pins what the ranking drives downstream: its report and an
//! FNV-1a digest of the whole telemetry export.

use bytes::Bytes;
use gdmp::prelude::*;
use gdmp::selection::estimate_sources;
use gdmp_simnet::link::LinkSpec;

const MB: usize = 1024 * 1024;

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// cern, anl and lyon on the default production profile, fully trusted,
/// with a live registry.
fn grid() -> Grid {
    Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 11))
        .site(SiteConfig::named("anl", "anl.gov", 12))
        .site(SiteConfig::named("lyon", "in2p3.fr", 13))
        .trust_all()
        .telemetry()
        .build()
}

/// `(site, on_disk, predicted_bps bits, est_transfer nanos)` for every
/// ranked source of `lfn` as seen from `dst`, cheapest first.
fn ranking(grid: &Grid, dst: &str, lfn: &str) -> Vec<(String, bool, u64, u64)> {
    let info = grid.catalog.clone().info(lfn).unwrap();
    estimate_sources(grid, dst, &info)
        .unwrap()
        .into_iter()
        .map(|e| (e.site, e.on_disk, e.predicted_bps.to_bits(), e.est_transfer.nanos()))
        .collect()
}

fn row(site: &str, on_disk: bool, bps: u64, transfer_ns: u64) -> (String, bool, u64, u64) {
    (site.to_string(), on_disk, bps, transfer_ns)
}

#[test]
fn disk_source_against_tape_source() {
    let mut g = grid();
    g.publish_file("cern", "x.dat", Bytes::from(vec![1u8; 4 * MB]), "flat").unwrap();
    g.replicate("anl", "x.dat").unwrap();
    g.site_mut("cern").unwrap().storage.pool.remove("x.dat").unwrap();
    assert_eq!(
        ranking(&g, "lyon", "x.dat"),
        vec![
            row("anl", true, 4714314674282168320, 2236962133),
            row("cern", false, 4714314674282168320, 2236962133),
        ],
        "disk against tape"
    );
}

#[test]
fn clean_profile_against_production_profile() {
    let mut g = grid();
    g.set_profile("anl", "lyon", WanProfile::clean(LinkSpec::cern_anl()));
    g.publish_file("cern", "x.dat", Bytes::from(vec![2u8; 4 * MB]), "flat").unwrap();
    g.replicate("anl", "x.dat").unwrap();
    assert_eq!(
        ranking(&g, "lyon", "x.dat"),
        vec![
            row("anl", true, 4721308607616909312, 745654044),
            row("cern", true, 4714314674282168320, 2236962133),
        ],
        "clean against production"
    );
}

#[test]
fn before_and_after_an_observed_throughput() {
    let mut g = grid();
    g.publish_file("cern", "x.dat", Bytes::from(vec![3u8; 4 * MB]), "flat").unwrap();
    g.replicate("anl", "x.dat").unwrap();
    let before = ranking(&g, "lyon", "x.dat");
    g.note_observed_throughput("cern", "lyon", 30_000_000.0);
    let after = ranking(&g, "lyon", "x.dat");
    assert_eq!(
        (before, after),
        (
            vec![
                row("anl", true, 4714314674282168320, 2236962133),
                row("cern", true, 4714314674282168320, 2236962133),
            ],
            vec![
                row("cern", true, 4717811640949538816, 1278264076),
                row("anl", true, 4714314674282168320, 2236962133),
            ],
        ),
        "before and after an observation"
    );
}

#[test]
fn striped_replication_report_and_export() {
    let mut g = grid();
    g.publish_file("cern", "hot.dat", Bytes::from(vec![4u8; 8 * MB]), "flat").unwrap();
    g.replicate("anl", "hot.dat").unwrap();
    g.set_fetch_policy(FetchPolicy::MultiSource { max_sources: 2, min_chunk: 512 * 1024 });
    let report = g.replicate("lyon", "hot.dat").unwrap();
    assert_eq!(
        (format!("{report:?}"), format!("{:#018x}", fnv1a(&g.telemetry().export_json_lines()))),
        (
            "ReplicationReport { lfn: \"hot.dat\", from: \"anl\", to: \"lyon\", bytes: 8388608, \
             bytes_moved: 8388608, attempts: 16, staged: false, stage_latency: SimDuration(0), \
             data_time: SimDuration(14017415410), setup_time: SimDuration(2000000000), \
             started_at: SimTime(11253687308), finished_at: SimTime(19513395013) }"
                .to_string(),
            "0xc45de59be090df9b".to_string()
        ),
        "striped replication"
    );
}
