//! Pinned outcomes of every preset (`scenarios/*.json`) and of the five
//! `figures chaos` modes over `soak_quick`. Each pin is the outcome's
//! deterministic counts, its final sim clock (the measured fetch's elapsed
//! time for a fetch) and an FNV-1a digest of the telemetry export, so any
//! change that moves a byte of what a scenario produces fails here with the
//! case named.

use gdmp_workloads::scenario::{run_scenario, Faults, Scenario, ScenarioOutcome};

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One line of counts, the final clock and the export digest.
fn pin(out: &ScenarioOutcome) -> String {
    match out {
        ScenarioOutcome::Fetch(f) => format!(
            "per_source {:?} reassigned {} rebuilds {} converged {} elapsed_ns {} \
             export {:#018x}",
            f.per_source_bytes,
            f.ranges_reassigned,
            f.plan_rebuilds,
            f.converged,
            f.elapsed.nanos(),
            fnv1a(&f.registry.export_json_lines())
        ),
        ScenarioOutcome::ReplicationSoak(s) => format!(
            "published {} replicated {} violations {} clock_ns {} export {:#018x}",
            s.published,
            s.replicated,
            s.report.violations.len(),
            s.final_clock_ns,
            fnv1a(&s.registry.export_json_lines())
        ),
        ScenarioOutcome::CatalogSoak(c) => format!(
            "published {} lookups {} answered {} failed {} ladder {}/{}/{}/{} degraded {} \
             wrong {} violations {} clock_ns {} export {:#018x}",
            c.published,
            c.lookups,
            c.answered,
            c.failed,
            c.via_local,
            c.via_rli,
            c.via_fallback,
            c.via_scatter,
            c.degraded_answers,
            c.stats.wrong_answers,
            c.report.violations.len(),
            c.final_clock_ns,
            fnv1a(&c.registry.export_json_lines())
        ),
        ScenarioOutcome::GridSoak(g) => format!(
            "sites {} ops {}/{}/{} ladder {}/{}/{} confirms {} fps {} wrong {} clock_ns {} \
             export {:#018x}",
            g.sites,
            g.lookups,
            g.publishes,
            g.fetches,
            g.index_hits,
            g.fallbacks,
            g.scatters,
            g.confirms,
            g.false_positives,
            g.wrong_answers,
            g.final_clock_ns,
            fnv1a(&g.registry.export_json_lines())
        ),
    }
}

#[test]
fn committed_scenarios_replay_their_pins() {
    let pins = [
        (
            "fetch",
            "per_source [(\"cern\", 50331648), (\"fnal\", 0), (\"kek\", 0)] \
             reassigned 0 rebuilds 0 converged true elapsed_ns 21997275200 export \
             0xc5d5d194a2c58212",
        ),
        (
            "fetch_striped_crash",
            "per_source [(\"cern\", 3013482), (\"fnal\", 28863228), (\"kek\", \
             18454938)] reassigned 4 rebuilds 1 converged true elapsed_ns 24189832000 \
             export 0x9ec3217ce49ac9ae",
        ),
        (
            "soak_quick",
            "published 9 replicated 36 violations 0 clock_ns 549545584786 export \
             0x5b562258500bd33b",
        ),
        (
            "catalog_quick",
            "published 48 lookups 108 answered 99 failed 9 ladder 1/38/0/12 degraded \
             17 wrong 0 violations 0 clock_ns 502135298141 export 0x1769c3b4a4d0ae4d",
        ),
        (
            "catalog_full",
            "published 216 lookups 359 answered 357 failed 2 ladder 1/140/0/0 \
             degraded 0 wrong 0 violations 0 clock_ns 524734120953 export \
             0xbbd2f39333bda547",
        ),
        (
            "grid_quick",
            "sites 16 ops 48/19/5 ladder 48/0/0 confirms 53 fps 0 wrong 0 clock_ns \
             168976515863 export 0x4a31f45d3cb58328",
        ),
        (
            "grid_full",
            "sites 105 ops 134/37/21 ladder 134/0/0 confirms 175 fps 0 wrong 0 \
             clock_ns 245908139991 export 0x86924886704b24e5",
        ),
        (
            "grid_at_scale_200",
            "sites 201 ops 134/37/21 ladder 134/0/0 confirms 165 fps 0 wrong 0 \
             clock_ns 246174631668 export 0x825403e9939f77bd",
        ),
    ];
    for (name, want) in pins {
        let out = run_scenario(&Scenario::preset(name).unwrap()).unwrap();
        assert_eq!(pin(&out), want, "{name}");
    }
}

#[test]
fn figures_chaos_sweep_replays_its_pins() {
    let pins = [
        (
            "off",
            0,
            Faults::None,
            "published 10 replicated 40 violations 0 clock_ns 359115761400 export \
             0x5103e55cb1ae31d0",
        ),
        (
            "empty",
            0,
            Faults::Empty,
            "published 10 replicated 40 violations 0 clock_ns 359115761400 export \
             0x5103e55cb1ae31d0",
        ),
        (
            "seed=11",
            11,
            Faults::Seeded { catalog_chaos: None },
            "published 9 replicated 36 violations 0 clock_ns 664056867547 export \
             0xdc3c7dbb84982bdf",
        ),
        (
            "seed=42",
            42,
            Faults::Seeded { catalog_chaos: None },
            "published 8 replicated 32 violations 0 clock_ns 474731415409 export \
             0x7cd9877d94cc9374",
        ),
        (
            "seed=1337",
            1337,
            Faults::Seeded { catalog_chaos: None },
            "published 10 replicated 40 violations 0 clock_ns 487234533460 export \
             0xdb7b59ee7bef4bcc",
        ),
    ];
    for (label, seed, faults, want) in pins {
        let scenario = Scenario { seed, faults, ..Scenario::preset("soak_quick").unwrap() };
        assert_eq!(pin(&run_scenario(&scenario).unwrap()), want, "{label}");
    }
}
