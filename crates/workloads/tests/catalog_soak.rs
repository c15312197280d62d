//! The acceptance shape of the federated-catalog soak: 100+ sites (a
//! multi-tier RLI tree), seeded RLI crashes, soft-state update losses,
//! catalog delays, and the base site/link/partition chaos — across
//! several seeds, the federation never returns a wrong answer, lookups
//! complete via the degradation ladder, and the same seed replays byte
//! for byte.

use gdmp_workloads::scenario::{run_catalog_scenario, Scenario};
use gdmp_workloads::CatalogSoakOutcome;

/// The `catalog_full` preset (108 sites, seeded RLI and site chaos) at `seed`.
fn full(seed: u64) -> CatalogSoakOutcome {
    run_catalog_scenario(&Scenario { seed, ..Scenario::preset("catalog_full").unwrap() }).unwrap()
}

#[test]
fn hundred_site_catalog_soak_is_never_wrong_across_seeds() {
    for seed in [0xA11CE, 0xB0B, 0x05EE_DCA7] {
        let out = full(seed);
        assert!(out.never_wrong(), "seed {seed:#x}: wrong answers: {:?}", out.stats);
        assert!(
            out.converged(),
            "seed {seed:#x}: {:?}\nschedule:\n{}",
            out.report.violations,
            out.schedule_debug
        );
        assert!(out.answered > 0, "seed {seed:#x}: no lookup ever completed");
        // The post-heal sweep answered every surviving file, so honest
        // misses are bounded by the chaotic phase's lookup count.
        assert!(out.answered + out.failed == out.lookups, "seed {seed:#x}: lost lookups");
    }
}

#[test]
fn hundred_site_same_seed_replays_byte_identically() {
    let a = full(0xD15C);
    let b = full(0xD15C);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_clock_ns, b.final_clock_ns);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.registry.export_json_lines(), b.registry.export_json_lines());
}

#[test]
fn hundred_site_ladder_visits_the_slow_rungs_under_chaos() {
    // Across seeds the degradation ladder should actually be exercised:
    // warm RLI hits dominate, but dead subtrees force scatters or
    // fan-out fallbacks somewhere.
    let mut slow_rungs = 0usize;
    let mut degraded = 0usize;
    for seed in [0xA11CE, 0xB0B, 0x05EE_DCA7, 0xD15C] {
        let out = full(seed);
        assert!(out.via_rli + out.via_local > 0, "seed {seed:#x}: index never hit");
        slow_rungs += out.via_fallback + out.via_scatter;
        degraded += out.degraded_answers;
    }
    assert!(slow_rungs > 0, "no seed ever fell off the fast path");
    assert!(degraded > 0, "no seed ever answered through a dead subtree");
}
