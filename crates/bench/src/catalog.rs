//! The federated-catalog lookup scenario shared by the catalog baseline
//! ([`crate::baselines`]) and the `figures catalog` subcommand.
//!
//! One point = one grid at a given scale answering a fixed deterministic
//! lookup mix, either against the central catalog alone (`central`) or
//! through the LRC/RLI federation (`federated`). Everything except the
//! wall-clock ops/sec is pure sim-time and reproduces bit for bit.

use std::time::Instant;

use bytes::Bytes;
use gdmp::prelude::*;
use gdmp_simnet::time::SimDuration;

/// Scales every baseline point runs at (the acceptance asks for 10, 50,
/// and 100+ sites).
pub const CATALOG_SITES: [usize; 3] = [10, 50, 100];

/// Lookups per point; fixed so the counters are comparable across runs.
pub const CATALOG_LOOKUPS: usize = 300;

const FILES_PER_SITE: usize = 2;

/// One measured (scale, mode) cell.
#[derive(Debug, Clone)]
pub struct CatalogBenchPoint {
    pub sites: usize,
    /// `central` or `federated`.
    pub mode: &'static str,
    pub lookups: u64,
    /// Confirm RPC round trips paid (federated only; central pays none).
    pub confirms: u64,
    pub rli_hits: u64,
    pub fallbacks: u64,
    pub scatters: u64,
    pub false_positives: u64,
    /// The contract: zero, always.
    pub wrong_answers: u64,
    /// Final sim clock after the lookup mix, nanoseconds (deterministic).
    pub final_clock_ns: u64,
    /// Wall-clock lookups/sec — host-dependent, informational only.
    pub wall_ops_per_sec: f64,
}

fn site_name(i: usize) -> String {
    format!("site{i:03}")
}

/// Run one point: publish a small population, warm the index, then answer
/// [`CATALOG_LOOKUPS`] deterministic queries.
pub fn run_catalog_bench(sites: usize, federated: bool) -> CatalogBenchPoint {
    let names: Vec<String> = (0..sites).map(site_name).collect();
    let mut builder = Grid::builder("bench-catalog")
        .default_profile(WanProfile::cern_anl_production())
        .recovery(Box::new(BackoffRetry::new(0)))
        .breaker(BreakerConfig::default());
    if federated {
        builder = builder.federation(FederationConfig::default());
    }
    for (i, name) in names.iter().enumerate() {
        builder = builder.site(SiteConfig::named(name, &format!("{name}.grid"), 900 + i as u64));
    }
    let mut grid = builder.trust_all().build();

    let total_files = sites * FILES_PER_SITE;
    for f in 0..total_files {
        let owner = &names[f % sites];
        grid.publish_file(owner, &format!("file{f:04}.dat"), Bytes::from(vec![1u8; 1024]), "flat")
            .expect("publish");
    }
    // Two soft-state rounds: the RLI tree summarizes every LRC.
    grid.advance(SimDuration::from_secs(65));

    let mut point = CatalogBenchPoint {
        sites,
        mode: if federated { "federated" } else { "central" },
        lookups: 0,
        confirms: 0,
        rli_hits: 0,
        fallbacks: 0,
        scatters: 0,
        false_positives: 0,
        wrong_answers: 0,
        final_clock_ns: 0,
        wall_ops_per_sec: 0.0,
    };
    let t0 = Instant::now();
    for i in 0..CATALOG_LOOKUPS {
        // A fixed pseudo-uniform mix: deterministic, covers the whole
        // population, requester never the trivial owner every time.
        let requester = &names[(i * 31) % sites];
        let lfn = format!("file{:04}.dat", (i * 7919) % total_files);
        let r = grid.lookup_replicas(requester, &lfn).expect("healthy grid answers");
        point.lookups += 1;
        point.confirms += u64::from(r.confirms);
        match r.via {
            LookupVia::Rli | LookupVia::Local => point.rli_hits += 1,
            LookupVia::Fallback => point.fallbacks += 1,
            LookupVia::Scatter => point.scatters += 1,
            LookupVia::Central => {}
        }
        point.false_positives += u64::from(r.false_positives);
    }
    let wall = t0.elapsed().as_secs_f64();
    point.wall_ops_per_sec = point.lookups as f64 / wall.max(1e-9);
    point.final_clock_ns = grid.now().nanos();
    if let Some(fed) = grid.federation() {
        point.wrong_answers = fed.stats.wrong_answers;
    }
    point
}

/// Every (scale, mode) cell of the baseline grid.
pub fn run_catalog_grid() -> Vec<CatalogBenchPoint> {
    let mut points = Vec::new();
    for &sites in &CATALOG_SITES {
        points.push(run_catalog_bench(sites, false));
        points.push(run_catalog_bench(sites, true));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federated_point_is_deterministic_and_never_wrong() {
        let a = run_catalog_bench(10, true);
        let b = run_catalog_bench(10, true);
        assert_eq!(a.lookups, CATALOG_LOOKUPS as u64);
        assert_eq!(a.wrong_answers, 0);
        assert!(a.rli_hits > 0, "warm index should serve hits");
        assert_eq!(a.confirms, b.confirms);
        assert_eq!(a.rli_hits, b.rli_hits);
        assert_eq!(a.final_clock_ns, b.final_clock_ns);
    }

    #[test]
    fn central_point_pays_no_confirm_rpcs() {
        let p = run_catalog_bench(10, false);
        assert_eq!(p.mode, "central");
        assert_eq!(p.confirms, 0);
        assert_eq!(p.wrong_answers, 0);
        assert_eq!(p.lookups, CATALOG_LOOKUPS as u64);
    }
}
