//! Replica selection (Section 4.2: "replica selection based on cost
//! functions, which is part of planned future work", with \[VTF01\]'s early
//! ideas).
//!
//! When several sites hold a replica, GDMP should fetch from the cheapest.
//! Each candidate source is ranked by its storage state (disk hit vs tape
//! stage) plus a predicted transfer time. The throughput prediction is
//! Vazhkudai-style \[VTF01\]: the closed-form share estimate
//! (window-limited per-stream throughput capped by an equal share of the
//! link), blended with the observed throughput EWMA for the `(src, dst)`
//! pair once a transfer has been observed on it. With an empty history
//! the prediction is exactly the closed form, so default-path behaviour
//! is unchanged until real observations accumulate.

use gdmp_gridftp::sim::WanProfile;
use gdmp_replica_catalog::service::ReplicaInfo;
use gdmp_simnet::analytic::window_limited_bps;
use gdmp_simnet::time::SimDuration;

use crate::error::Result;
use crate::grid::{Grid, TransferConfig};

/// Weight of the observed EWMA in the blend. Observed throughput reflects
/// real contention and slow-start amortization the closed form cannot
/// see, so it dominates.
const HISTORY_WEIGHT: f64 = 0.75;

/// Predicted sustained throughput in bits/s (≥ 1.0) of a transfer over
/// `profile` with `params`, given the pair's observed EWMA if any.
fn predict_bps(profile: &WanProfile, params: TransferConfig, observed: Option<f64>) -> f64 {
    let rate = profile.link.rate_bps;
    let streams = params.streams;
    let per_stream = window_limited_bps(params.buffer, profile.rtt(), rate);
    let fair_share =
        rate as f64 / f64::from(profile.background_flows + streams).max(1.0) * f64::from(streams);
    let analytic = (per_stream * f64::from(streams)).min(fair_share).max(1.0);
    match observed {
        Some(observed) => (observed * HISTORY_WEIGHT + analytic * (1.0 - HISTORY_WEIGHT)).max(1.0),
        None => analytic,
    }
}

/// Cost estimate for fetching from one candidate source.
#[derive(Debug, Clone)]
pub struct SourceEstimate {
    pub site: String,
    /// File already disk-resident there?
    pub on_disk: bool,
    /// Predicted staging latency when not on disk.
    pub est_stage: SimDuration,
    /// Predicted transfer time over the path profile.
    pub est_transfer: SimDuration,
    /// The predicted throughput, bits/s (drives multi-source range
    /// splitting).
    pub predicted_bps: f64,
}

impl SourceEstimate {
    /// Total predicted cost.
    pub fn cost(&self) -> SimDuration {
        self.est_stage + self.est_transfer
    }
}

/// Rank all current replicas of a file as sources for `dst`, cheapest
/// first. Deterministic: ties break on site name.
pub fn estimate_sources(grid: &Grid, dst: &str, info: &ReplicaInfo) -> Result<Vec<SourceEstimate>> {
    let mut out = Vec::new();
    for replica in &info.replicas {
        let src = &replica.location;
        if src == dst {
            continue;
        }
        let Ok(site) = grid.site(src) else { continue };
        let on_disk = site.storage.on_disk(&info.lfn);
        let est_stage = if on_disk {
            SimDuration::ZERO
        } else if site.storage.archive.contains(&info.lfn) {
            // Mount + stream at tape rate (seek unknowable remotely).
            SimDuration::from_secs(60)
                + SimDuration::from_secs_f64(info.meta.size as f64 / 10_000_000.0)
        } else {
            continue; // catalog says replica exists but site lost it: skip
        };
        let profile = grid.profile_between(src, dst);
        let bps = predict_bps(&profile, grid.params, grid.observed_bps(src, dst));
        let est_transfer = SimDuration::from_secs_f64(info.meta.size as f64 * 8.0 / bps);
        out.push(SourceEstimate {
            site: src.clone(),
            on_disk,
            est_stage,
            est_transfer,
            predicted_bps: bps,
        });
    }
    out.sort_by(|a, b| a.cost().cmp(&b.cost()).then_with(|| a.site.cmp(&b.site)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::site::SiteConfig;
    use bytes::Bytes;

    fn grid() -> Grid {
        let mut g = Grid::new("cms");
        g.add_site(SiteConfig::named("cern", "cern.ch", 1));
        g.add_site(SiteConfig::named("anl", "anl.gov", 2));
        g.add_site(SiteConfig::named("lyon", "in2p3.fr", 3));
        g.trust_all();
        g
    }

    #[test]
    fn ranks_disk_resident_before_tape_resident() {
        let mut g = grid();
        g.publish_file("cern", "x.dat", Bytes::from(vec![0u8; 1024]), "flat").unwrap();
        g.replicate("anl", "x.dat").unwrap();
        // Evict cern's disk copy; the file survives on cern tape.
        g.site_mut("cern").unwrap().storage.pool.remove("x.dat").unwrap();
        assert!(g.site("cern").unwrap().storage.archive.contains("x.dat"));
        let info = g.catalog.info("x.dat").unwrap();
        let ranked = estimate_sources(&g, "lyon", &info).unwrap();
        assert_eq!(ranked[0].site, "anl", "disk-resident replica must rank first");
        assert!(ranked[0].on_disk);
        assert_eq!(ranked[1].site, "cern");
        assert!(!ranked[1].on_disk);
        assert!(ranked[1].est_stage > SimDuration::ZERO);
        assert!(ranked[0].cost() < ranked[1].cost());
    }

    #[test]
    fn destination_is_never_a_source() {
        let mut g = grid();
        g.publish_file("cern", "x.dat", Bytes::from(vec![0u8; 64]), "flat").unwrap();
        g.replicate("anl", "x.dat").unwrap();
        let info = g.catalog.info("x.dat").unwrap();
        let ranked = estimate_sources(&g, "anl", &info).unwrap();
        assert!(ranked.iter().all(|e| e.site != "anl"));
    }

    #[test]
    fn lost_replicas_are_skipped() {
        let mut g = grid();
        g.publish_file("cern", "x.dat", Bytes::from(vec![0u8; 64]), "flat").unwrap();
        g.replicate("anl", "x.dat").unwrap();
        // anl loses the file entirely (disk only — never archived there).
        g.site_mut("anl").unwrap().storage.pool.remove("x.dat").unwrap();
        let info = g.catalog.info("x.dat").unwrap();
        let ranked = estimate_sources(&g, "lyon", &info).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].site, "cern");
    }

    #[test]
    fn transfer_estimate_scales_with_size() {
        let mut g = grid();
        g.publish_file("cern", "small.dat", Bytes::from(vec![0u8; 1024]), "flat").unwrap();
        g.publish_file("cern", "big.dat", Bytes::from(vec![0u8; 8 * 1024 * 1024]), "flat").unwrap();
        let small =
            estimate_sources(&g, "anl", &g.catalog.clone().info("small.dat").unwrap()).unwrap();
        let big = estimate_sources(&g, "anl", &g.catalog.clone().info("big.dat").unwrap()).unwrap();
        assert!(big[0].est_transfer > small[0].est_transfer * 100);
    }

    #[test]
    fn history_model_without_history_matches_analytic_exactly() {
        let mut g = grid();
        g.publish_file("cern", "x.dat", Bytes::from(vec![0u8; 4 * 1024 * 1024]), "flat").unwrap();
        let info = g.catalog.info("x.dat").unwrap();
        let ranked = estimate_sources(&g, "anl", &info).unwrap();
        // No observation yet: the closed-form share estimate, unblended.
        let profile = g.profile_between("cern", "anl");
        let (rate, streams) = (profile.link.rate_bps, f64::from(g.params.streams));
        let per_stream = window_limited_bps(g.params.buffer, profile.rtt(), rate);
        let fair_share =
            rate as f64 / (f64::from(profile.background_flows) + streams).max(1.0) * streams;
        let analytic = (per_stream * streams).min(fair_share).max(1.0);
        assert_eq!(ranked[0].predicted_bps.to_bits(), analytic.to_bits());
        assert_eq!(
            ranked[0].est_transfer,
            SimDuration::from_secs_f64(4.0 * 8.0 * 1048576.0 / analytic)
        );
    }

    #[test]
    fn history_model_prefers_observed_fast_pair() {
        let mut g = grid();
        g.publish_file("cern", "x.dat", Bytes::from(vec![0u8; 4 * 1024 * 1024]), "flat").unwrap();
        g.replicate("anl", "x.dat").unwrap();
        let info = g.catalog.info("x.dat").unwrap();
        // Symmetric analytics: anl wins only on the name tie-break.
        let before = estimate_sources(&g, "lyon", &info).unwrap();
        assert_eq!(before[0].site, "anl");
        // Feed a glowing observation for cern -> lyon: history now ranks it
        // first despite the identical analytic share.
        g.note_observed_throughput("cern", "lyon", 500_000_000.0);
        let after = estimate_sources(&g, "lyon", &info).unwrap();
        assert_eq!(after[0].site, "cern", "observed fast pair must outrank the tie-break");
        assert!(after[0].predicted_bps > before[0].predicted_bps);
    }
}
