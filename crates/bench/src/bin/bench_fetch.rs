//! Tracked baseline for the multi-source fetch scheduler: single-source vs
//! striped multi-source pulls of the same hot file over asymmetric WAN
//! paths, with and without a mid-transfer source crash.
//!
//! ```text
//! cargo run -p gdmp-bench --release --bin bench_fetch            # writes BENCH_fetch.json
//! cargo run -p gdmp-bench --release --bin bench_fetch -- out.json
//! cargo run -p gdmp-bench --release --bin bench_fetch -- --scenario scenarios/fetch.json
//! ```
//!
//! The JSON is the committed baseline (`BENCH_fetch.json` at the repo
//! root). Everything in it is sim-time and therefore deterministic: the
//! per-mode goodput, the per-source byte split, the reassignment counters,
//! and the striping speedup must not regress. `--scenario <file>` swaps
//! the builtin fetch grid for a scenario file (the three modes then vary
//! policy and crash around that base); without it the output is the
//! committed baseline, byte for byte.

use gdmp::FetchPolicy;
use gdmp_bench::cli::ScenarioArgs;
use gdmp_bench::compare::round3;
use gdmp_workloads::fetch::{FetchOutcome, FetchSpec};
use gdmp_workloads::scenario::{run_fetch_scenario, ProfileDecl, WorkloadDecl};
use gdmp_workloads::{Scenario, MB};

#[derive(serde::Serialize)]
struct SourceShare {
    site: String,
    bytes: u64,
    share_pct: f64,
}

#[derive(serde::Serialize)]
struct Mode {
    name: &'static str,
    /// Sim-time of the measured fetch, seconds.
    elapsed_s: f64,
    /// Aggregate goodput of the measured fetch.
    mbps: f64,
    sources: Vec<SourceShare>,
    ranges_reassigned: u64,
    plan_rebuilds: u64,
    /// Invariant sweep after driving the run to convergence.
    converged: bool,
}

#[derive(serde::Serialize)]
struct Baseline {
    schema: &'static str,
    file_mb: u64,
    /// Source→consumer path rates, Mb/s, in workload source order (the
    /// builtin scenario: cern, fnal, kek — fastest first).
    path_mbps: Vec<u64>,
    modes: Vec<Mode>,
    /// multi / single aggregate goodput — the headline number (must stay
    /// ≥ 1.5 on this topology).
    striping_speedup: f64,
}

fn mode(name: &'static str, out: &FetchOutcome) -> Mode {
    let total: u64 = out.per_source_bytes.iter().map(|(_, b)| b).sum();
    Mode {
        name,
        elapsed_s: round3(out.elapsed.as_secs_f64()),
        mbps: round3(out.agg_mbps),
        sources: out
            .per_source_bytes
            .iter()
            .map(|(site, bytes)| SourceShare {
                site: site.clone(),
                bytes: *bytes,
                share_pct: (*bytes as f64 / total.max(1) as f64 * 1e3).round() / 10.0,
            })
            .collect(),
        ranges_reassigned: out.ranges_reassigned,
        plan_rebuilds: out.plan_rebuilds,
        converged: out.converged,
    }
}

/// Rate of each source→dst path, Mb/s, from the scenario's explicit edges
/// (falling back to the default profile where no edge overrides the pair).
fn path_rates(scenario: &Scenario) -> Vec<u64> {
    let WorkloadDecl::Fetch { sources, dst, .. } = &scenario.workload else {
        return Vec::new();
    };
    let rate_of = |p: &ProfileDecl| p.to_profile().link.rate_bps / 1_000_000;
    sources
        .iter()
        .map(|src| {
            scenario
                .links
                .edges
                .iter()
                .find(|e| (&e.a == src && &e.b == dst) || (&e.a == dst && &e.b == src))
                .map_or_else(|| rate_of(&scenario.links.default), |e| rate_of(&e.profile))
        })
        .collect()
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, positional) = ScenarioArgs::parse(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let out = positional.first().cloned().unwrap_or_else(|| "BENCH_fetch.json".into());
    let base = args
        .base_scenario(|| Scenario::fetch(&FetchSpec::default()))
        .and_then(|b| Ok((b.fetch_spec()?, b)))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let (spec, base) = base;
    let run = |s: &Scenario| {
        run_fetch_scenario(s).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    let single = run(&base.clone().with_policy(FetchPolicy::SingleSource));
    let multi = run(&base.clone().with_striped_policy());
    let crash =
        run(&base.clone().with_striped_policy().with_fastest_source_crash().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }));
    let baseline = Baseline {
        schema: "gdmp-bench-fetch/1",
        file_mb: spec.size / MB,
        path_mbps: path_rates(&base),
        modes: vec![mode("single", &single), mode("multi", &multi), mode("multi_crash", &crash)],
        striping_speedup: round3(multi.agg_mbps / single.agg_mbps),
    };
    for m in &baseline.modes {
        let shares: Vec<String> =
            m.sources.iter().map(|s| format!("{} {:>4.1}%", s.site, s.share_pct)).collect();
        println!(
            "{:>12}: {:>6.2} Mb/s in {:>5.1} s   [{}]   reassigned {} rebuilds {} converged {}",
            m.name,
            m.mbps,
            m.elapsed_s,
            shares.join(", "),
            m.ranges_reassigned,
            m.plan_rebuilds,
            m.converged,
        );
    }
    println!(
        "{:>12}: striping speedup {:.2}x over the best single path",
        "total", baseline.striping_speedup
    );
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&out, json + "\n").expect("baseline written");
    println!("wrote {out}");
}
