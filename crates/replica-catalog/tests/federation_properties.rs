//! Property tests for the federated catalog: the bloom filter honors its
//! configured false-positive bound, and soft state converges — once
//! updates stop flowing and TTLs elapse, the RLI tree's claims equal the
//! union of LRC contents for arbitrary publish/delete interleavings.

use proptest::prelude::*;

use gdmp_replica_catalog::federation::{BloomFilter, FederatedCatalog, NoFaults};
use gdmp_simnet::time::SimTime;

fn t(secs: u64) -> SimTime {
    SimTime(secs * 1_000_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fill a bloom filter to its configured capacity, then probe with
    /// items that were never inserted: the observed false-positive rate
    /// must stay under the configured bound (with slack for sampling
    /// noise — the geometry is derived for exactly this bound).
    #[test]
    fn bloom_fp_rate_stays_under_configured_bound(
        capacity in 32usize..512,
        seed in 0u64..1000,
    ) {
        let fp_rate = 0.01;
        let mut bloom = BloomFilter::for_capacity(capacity, fp_rate);
        for i in 0..capacity {
            bloom.insert(&format!("member-{seed}-{i}"));
        }
        // No false negatives, ever.
        for i in 0..capacity {
            prop_assert!(bloom.contains(&format!("member-{seed}-{i}")));
        }
        let probes = 4000usize;
        let fps = (0..probes)
            .filter(|i| bloom.contains(&format!("absent-{seed}-{i}")))
            .count();
        let observed = fps as f64 / probes as f64;
        // 3x slack over the design bound absorbs sampling noise on 4000
        // probes while still catching a broken geometry (which lands at
        // 10-100x the bound).
        prop_assert!(
            observed <= fp_rate * 3.0,
            "fp rate {observed} exceeds bound {fp_rate} (capacity {capacity})"
        );
    }

    /// Soft-state convergence: apply an arbitrary interleaving of
    /// publishes and deletes across sites, let updates flow until every
    /// pre-existing summary has expired and been refreshed, then check
    /// the root index against ground truth:
    ///   * every file some LRC still holds MUST be claimed (no false
    ///     negatives — blooms only over-approximate);
    ///   * every root claim for a probe file nobody holds is a bloom
    ///     false positive, so sampled absent probes stay near the bound.
    #[test]
    fn soft_state_converges_to_lrc_union(
        ops in proptest::collection::vec((0usize..8, 0usize..12, any::<bool>()), 1..64),
    ) {
        let sites: Vec<String> = (0..8).map(|i| format!("site{i}")).collect();
        let mut fed = FederatedCatalog::new(&sites);
        // Interleave mutations with update rounds so stale summaries of
        // since-deleted files exist mid-run.
        let mut clock = 0u64;
        for (k, (site, file, publish)) in ops.iter().enumerate() {
            let lfn = format!("lfn{file}");
            if *publish {
                fed.publish(&sites[*site], &lfn);
            } else {
                fed.remove(&sites[*site], &lfn);
            }
            if k % 5 == 4 {
                clock += 30;
                fed.tick(t(clock), &mut NoFaults);
            }
        }
        // Quiesce: mutations stop; run enough rounds that every summary
        // written above has expired (ttl 120 s) and been replaced by one
        // reflecting final LRC state.
        let quiesce_until = clock + 300;
        while clock < quiesce_until {
            clock += 30;
            fed.tick(t(clock), &mut NoFaults);
        }
        let now = t(clock);
        let truth = fed.ground_truth();
        for file in 0..12 {
            let lfn = format!("lfn{file}");
            if truth.contains(&lfn) {
                prop_assert!(
                    fed.root_may_hold(&lfn, now),
                    "root index lost a held file after convergence: {lfn}"
                );
            }
        }
        // Deleted-everywhere files may only survive as bloom noise: probe
        // many never-published names and demand the FP character, not
        // certainty (the 12-name space is too small to bound tightly).
        let fps = (0..2000)
            .filter(|i| fed.root_may_hold(&format!("never-published-{i}"), now))
            .count();
        prop_assert!(
            (fps as f64 / 2000.0) <= 0.03,
            "root index claims far too many absent files: {fps}/2000"
        );
    }

    /// Crash/recover any subset of sites mid-run: after journal replay
    /// and quiescence the index still converges to ground truth.
    #[test]
    fn convergence_survives_lrc_crashes(
        ops in proptest::collection::vec((0usize..6, 0usize..10, any::<bool>()), 1..40),
        crash_mask in 0u8..64,
    ) {
        let sites: Vec<String> = (0..6).map(|i| format!("site{i}")).collect();
        let mut fed = FederatedCatalog::new(&sites);
        let mut clock = 0u64;
        for (k, (site, file, publish)) in ops.iter().enumerate() {
            let lfn = format!("lfn{file}");
            if *publish {
                fed.publish(&sites[*site], &lfn);
            } else {
                fed.remove(&sites[*site], &lfn);
            }
            if k == ops.len() / 2 {
                for (i, site) in sites.iter().enumerate() {
                    if crash_mask & (1 << i) != 0 {
                        fed.crash_lrc(site);
                        fed.recover_lrc(site);
                    }
                }
            }
            if k % 4 == 3 {
                clock += 30;
                fed.tick(t(clock), &mut NoFaults);
            }
        }
        let quiesce_until = clock + 300;
        while clock < quiesce_until {
            clock += 30;
            fed.tick(t(clock), &mut NoFaults);
        }
        let now = t(clock);
        for lfn in fed.ground_truth() {
            prop_assert!(
                fed.root_may_hold(&lfn, now),
                "index lost {lfn} after crash/recover cycles"
            );
        }
    }
}
