//! The committed layer baselines, `BENCH_<name>.json` at the repo root:
//! the §6 Figure 5/6 fidelity sweeps (`simnet`), the striped fetch
//! (`fetch`), the catalog ladder (`catalog`) and the Tier-0/1/2 soak
//! (`grid`).
//!
//! Each baseline is rendered by one function, [`render`], that both
//! writes and checks it: `bench_compare --write` stores its text, and
//! `bench_compare` holds the committed file to that text byte for byte.
//! Every value is a deterministic model output — no wall time, no host
//! field — so there is nothing to hold within a tolerance. Pretty JSON
//! puts one field per line, so the first differing line names the field
//! that moved.
//!
//! [`render`] also refuses a baseline that breaks a contract the
//! baselines promise (`CONTRACTS` below); a model change that breaks one
//! can neither pass the check nor be written.

use std::path::Path;

use gdmp::FetchPolicy;
use gdmp_gridftp::sim::WanProfile;
use gdmp_simnet::LinkSpec;
use gdmp_workloads::fanout::{run_fanout, BYTES_PER_SITE};
use gdmp_workloads::scenario::{run_fetch_scenario, ProfileDecl, WorkloadDecl};
use gdmp_workloads::{FetchOutcome, FigureSweep, Scenario, ScenarioError, MB};
use serde::Serialize;

use crate::catalog::{run_catalog_grid, CATALOG_LOOKUPS};
use crate::figures::fig_sweep_on;
use crate::grid::{grid_soak_points, run_control_plane_grid, GRID_OPS};

/// Every baseline, in the order `bench_compare` checks them.
pub const BASELINES: [&str; 4] = ["simnet", "fetch", "catalog", "grid"];

/// The committed file of baseline `name`.
pub fn file_name(name: &str) -> String {
    format!("BENCH_{name}.json")
}

/// Run baseline `name`'s model and print it as the committed file's text
/// (`to_string_pretty` plus a final newline). Errors on an unknown name
/// and on a broken contract.
pub fn render(name: &str) -> Result<String, String> {
    match name {
        "simnet" => finish(name, &simnet()),
        "fetch" => finish(name, &fetch().map_err(|e| format!("{}: {e}", file_name(name)))?),
        "catalog" => finish(name, &catalog()),
        "grid" => finish(name, &grid()),
        other => Err(format!("unknown baseline `{other}` (known: {})", BASELINES.join(", "))),
    }
}

/// Hold the committed file at `path` to the `rendered` text of baseline
/// `file`. The error names the file and the first line that differs.
pub fn check_file(file: &str, path: &Path, rendered: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path).map_err(|e| {
        format!("{file}:1: cannot read the committed file ({e}); `bench_compare --write` writes it")
    })?;
    compare(file, &committed, rendered)
}

fn compare(file: &str, committed: &str, rendered: &str) -> Result<(), String> {
    if committed == rendered {
        return Ok(());
    }
    let (mut c, mut r) = (committed.lines(), rendered.lines());
    for n in 1.. {
        match (c.next(), r.next()) {
            (None, None) => {
                return Err(format!("{file}:{n}: the committed file differs only in line endings"))
            }
            (a, b) if a == b => {}
            (a, b) => {
                return Err(format!(
                    "{file}:{n}: committed {} but the model renders {}",
                    shown(a),
                    shown(b)
                ))
            }
        }
    }
    unreachable!("the line counter is unbounded")
}

fn shown(line: Option<&str>) -> String {
    line.map_or_else(|| "end of file".to_string(), |l| format!("`{}`", l.trim()))
}

/// (field, rule, holds): a contract checked on every rendered line that
/// holds the field.
type Contract = (&'static str, &'static str, fn(f64) -> bool);

/// The contracts the baselines promise.
const CONTRACTS: [Contract; 4] = [
    // Fast-forwarding stays within 2 % of the packet-exact throughput.
    ("throughput_delta_pct", "≤ 2", |v| v <= 2.0),
    ("max_throughput_delta_pct", "≤ 2", |v| v <= 2.0),
    // Striping beats the best single path on the asymmetric topology.
    ("striping_speedup", "≥ 1.5", |v| v >= 1.5),
    // The federation's never-wrong contract, in every catalog and soak point.
    ("wrong_answers", "= 0", |v| v == 0.0),
];

fn finish<T: Serialize>(name: &str, shape: &T) -> Result<String, String> {
    let text = serde_json::to_string_pretty(shape).expect("baseline serializes") + "\n";
    for (i, line) in text.lines().enumerate() {
        let Some((key, value)) = line.trim().trim_end_matches(',').split_once(": ") else {
            continue;
        };
        for (field, rule, holds) in CONTRACTS {
            if key.trim_matches('"') == field && !value.parse().is_ok_and(holds) {
                return Err(format!(
                    "{}:{}: `{}` breaks the contract {field} {rule}",
                    file_name(name),
                    i + 1,
                    line.trim()
                ));
            }
        }
    }
    Ok(text)
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

// ---- simnet: fast-forwarding (`Auto`) vs packet-exact runs ---------------

#[derive(Serialize)]
struct SimnetBaseline {
    schema: &'static str,
    scenarios: Vec<SimnetScenario>,
    sweeps: Vec<SimnetSweep>,
    fanout: SimnetFanout,
}

#[derive(Serialize)]
struct SimnetScenario {
    name: &'static str,
    profile: &'static str,
    file_mb: u64,
    streams: u32,
    buffer_kb: u64,
    exact: ModeStats,
    auto: ModeStats,
    /// exact events / auto events (≥ 10 when steady state dominates; 1.0
    /// where the lossless-fit gate correctly refuses to engage).
    event_reduction: f64,
    /// |auto − exact| / exact × 100 over the rounded throughputs.
    throughput_delta_pct: f64,
}

#[derive(Serialize)]
struct ModeStats {
    events_processed: u64,
    events_skipped: u64,
    mbps: f64,
}

#[derive(Serialize)]
struct SimnetSweep {
    name: &'static str,
    points: usize,
    max_throughput_delta_pct: f64,
}

/// The fan-out run packet-exact: the one multi-link network of the
/// baseline, so any reordered tie between links moves its event count.
#[derive(Serialize)]
struct SimnetFanout {
    sites: u32,
    bytes_per_site: u64,
    events_processed: u64,
}

/// Site pairs in the fan-out.
const FANOUT_SITES: u32 = 8;

fn simnet() -> SimnetBaseline {
    let dedicated = ("cern_anl_dedicated", WanProfile::clean(LinkSpec::cern_anl()));
    let production = ("cern_anl_production", WanProfile::cern_anl_production());
    SimnetBaseline {
        schema: "gdmp-bench-simnet/3",
        scenarios: vec![
            // The headline scenario: tuned bulk transfer on the uncontended
            // CERN↔ANL path — steady state almost throughout.
            simnet_scenario("tuned_bulk", dedicated, 100, 1, 1024),
            // Contended variants: untuned fits losslessly (fast-forwards);
            // tuned oversubscribes the queue, so the gate keeps it exact.
            simnet_scenario("untuned_bulk", production, 100, 1, 64),
            simnet_scenario("tuned_parallel", production, 100, 4, 1024),
        ],
        sweeps: vec![
            simnet_sweep("figure5_untuned", FigureSweep::figure5()),
            simnet_sweep("figure6_tuned", FigureSweep::figure6()),
        ],
        fanout: SimnetFanout {
            sites: FANOUT_SITES,
            bytes_per_site: BYTES_PER_SITE,
            events_processed: run_fanout(FANOUT_SITES).events_processed,
        },
    }
}

fn simnet_mode(profile: &WanProfile, file_mb: u64, streams: u32, buffer_kb: u64) -> ModeStats {
    let r = profile.simulate_transfer(file_mb * MB, streams, buffer_kb * 1024);
    ModeStats {
        events_processed: r.events_processed,
        events_skipped: r.events_skipped,
        mbps: round3(r.throughput_mbps()),
    }
}

fn simnet_scenario(
    name: &'static str,
    (profile_name, profile): (&'static str, WanProfile),
    file_mb: u64,
    streams: u32,
    buffer_kb: u64,
) -> SimnetScenario {
    let exact = simnet_mode(&profile.exact(), file_mb, streams, buffer_kb);
    let auto = simnet_mode(&profile, file_mb, streams, buffer_kb);
    let reduction = exact.events_processed as f64 / auto.events_processed.max(1) as f64;
    let delta = (auto.mbps - exact.mbps).abs() / exact.mbps * 100.0;
    SimnetScenario {
        name,
        profile: profile_name,
        file_mb,
        streams,
        buffer_kb,
        exact,
        auto,
        event_reduction: (reduction * 10.0).round() / 10.0,
        throughput_delta_pct: round3(delta),
    }
}

fn simnet_sweep(name: &'static str, sweep: FigureSweep) -> SimnetSweep {
    let profile = WanProfile::cern_anl_production();
    let exact_rows = fig_sweep_on(&sweep, profile.exact());
    let auto_rows = fig_sweep_on(&sweep, profile);
    let max_delta = exact_rows
        .iter()
        .zip(&auto_rows)
        .map(|(e, a)| (a.mbps - e.mbps).abs() / e.mbps * 100.0)
        .fold(0.0f64, f64::max);
    SimnetSweep { name, points: exact_rows.len(), max_throughput_delta_pct: round3(max_delta) }
}

// ---- fetch: single-source vs striped multi-source -------------------------

/// The three fetch modes over one base scenario — single-source, striped,
/// and striped with the fastest source crashing mid-transfer — in that
/// order. Shared by the fetch baseline and `figures fetch`.
pub fn fetch_modes(base: &Scenario) -> Result<[FetchOutcome; 3], ScenarioError> {
    let crash = base.clone().with_striped_policy().with_fastest_source_crash()?;
    Ok([
        run_fetch_scenario(&base.clone().with_policy(FetchPolicy::SingleSource))?,
        run_fetch_scenario(&base.clone().with_striped_policy())?,
        run_fetch_scenario(&crash)?,
    ])
}

#[derive(Serialize)]
struct FetchBaseline {
    schema: &'static str,
    file_mb: u64,
    /// Source→consumer path rates, Mb/s, in workload source order
    /// (cern, fnal, kek — fastest first).
    path_mbps: Vec<u64>,
    modes: Vec<FetchMode>,
    /// multi / single aggregate goodput — the headline number.
    striping_speedup: f64,
}

#[derive(Serialize)]
struct FetchMode {
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

#[derive(Serialize)]
struct SourceShare {
    site: String,
    bytes: u64,
    share_pct: f64,
}

fn fetch() -> Result<FetchBaseline, ScenarioError> {
    let base = Scenario::preset("fetch")?;
    let WorkloadDecl::Fetch { size, .. } = base.workload else {
        unreachable!("the fetch preset declares a fetch workload");
    };
    let [single, multi, crash] = fetch_modes(&base)?;
    Ok(FetchBaseline {
        schema: "gdmp-bench-fetch/1",
        file_mb: size / MB,
        path_mbps: path_rates(&base),
        modes: vec![
            fetch_mode("single", &single),
            fetch_mode("multi", &multi),
            fetch_mode("multi_crash", &crash),
        ],
        striping_speedup: round3(multi.agg_mbps / single.agg_mbps),
    })
}

fn fetch_mode(name: &'static str, out: &FetchOutcome) -> FetchMode {
    let total: u64 = out.per_source_bytes.iter().map(|(_, b)| b).sum();
    FetchMode {
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

// ---- catalog: central vs federated lookups --------------------------------

#[derive(Serialize)]
struct CatalogBaseline {
    schema: &'static str,
    lookups_per_point: usize,
    points: Vec<CatalogPoint>,
}

#[derive(Serialize)]
struct CatalogPoint {
    sites: usize,
    mode: &'static str,
    lookups: u64,
    confirms: u64,
    rli_hits: u64,
    fallbacks: u64,
    scatters: u64,
    false_positives: u64,
    wrong_answers: u64,
    /// Final sim clock, seconds.
    final_clock_s: f64,
}

fn catalog() -> CatalogBaseline {
    let points = run_catalog_grid()
        .into_iter()
        .map(|p| CatalogPoint {
            sites: p.sites,
            mode: p.mode,
            lookups: p.lookups,
            confirms: p.confirms,
            rli_hits: p.rli_hits,
            fallbacks: p.fallbacks,
            scatters: p.scatters,
            false_positives: p.false_positives,
            wrong_answers: p.wrong_answers,
            final_clock_s: round3(p.final_clock_ns as f64 / 1e9),
        })
        .collect();
    CatalogBaseline { schema: "gdmp-bench-catalog/1", lookups_per_point: CATALOG_LOOKUPS, points }
}

// ---- grid: interned control-plane probes and the tiered soak -------------

#[derive(Serialize)]
struct GridBaseline {
    schema: &'static str,
    ops_per_point: usize,
    control_plane: Vec<GridControlPlane>,
    soak: Vec<GridSoak>,
}

#[derive(Serialize)]
struct GridControlPlane {
    sites: usize,
    ops: u64,
    /// Fold of every probe answer.
    checksum: u64,
}

#[derive(Serialize)]
struct GridSoak {
    sites: usize,
    lookups: u64,
    publishes: u64,
    fetches: u64,
    index_hits: u64,
    fallbacks: u64,
    scatters: u64,
    confirms: u64,
    false_positives: u64,
    wrong_answers: u64,
    replica_hit_rate: f64,
    /// Final sim clock, seconds.
    final_clock_s: f64,
}

fn grid() -> GridBaseline {
    let control_plane = run_control_plane_grid()
        .into_iter()
        .map(|p| GridControlPlane { sites: p.sites, ops: p.ops, checksum: p.checksum })
        .collect();
    let soak = grid_soak_points()
        .into_iter()
        .map(|p| GridSoak {
            sites: p.sites,
            lookups: p.lookups,
            publishes: p.publishes,
            fetches: p.fetches,
            index_hits: p.index_hits,
            fallbacks: p.fallbacks,
            scatters: p.scatters,
            confirms: p.confirms,
            false_positives: p.false_positives,
            wrong_answers: p.wrong_answers,
            replica_hit_rate: round3(p.replica_hit_rate),
            final_clock_s: round3(p.final_clock_ns as f64 / 1e9),
        })
        .collect();
    GridBaseline { schema: "gdmp-bench-grid/1", ops_per_point: GRID_OPS, control_plane, soak }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The committed file stands in for the model's rendering: the checks
    // under test compare text, and the real models are slow in debug.
    const SIMNET: &str = include_str!("../../../BENCH_simnet.json");

    #[test]
    fn the_same_text_passes() {
        assert_eq!(compare("BENCH_simnet.json", SIMNET, SIMNET), Ok(()));
    }

    #[test]
    fn a_changed_value_names_its_line() {
        let moved = SIMNET.replacen(
            "\"throughput_delta_pct\": 0.12\n",
            "\"throughput_delta_pct\": 0.13\n",
            1,
        );
        assert_eq!(
            compare("BENCH_simnet.json", SIMNET, &moved),
            Err("BENCH_simnet.json:21: committed `\"throughput_delta_pct\": 0.12` but the model \
                 renders `\"throughput_delta_pct\": 0.13`"
                .to_string())
        );
    }

    #[test]
    fn a_deleted_scenario_names_its_line() {
        // A committed file that lost a scenario the model still runs.
        let start = SIMNET.find("    {\n      \"name\": \"untuned_bulk\"").unwrap();
        let end = SIMNET.find("    {\n      \"name\": \"tuned_parallel\"").unwrap();
        let short = format!("{}{}", &SIMNET[..start], &SIMNET[end..]);
        assert_eq!(
            compare("BENCH_simnet.json", &short, SIMNET),
            Err("BENCH_simnet.json:24: committed `\"name\": \"tuned_parallel\",` but the model \
                 renders `\"name\": \"untuned_bulk\",`"
                .to_string())
        );
    }

    #[test]
    fn a_truncated_file_names_its_end() {
        let cut = &SIMNET[..SIMNET.find("  \"fanout\"").unwrap()];
        let err = compare("BENCH_simnet.json", cut, SIMNET).unwrap_err();
        assert!(
            err.contains("committed end of file but the model renders `\"fanout\": {`"),
            "{err}"
        );
    }

    #[test]
    fn a_missing_file_names_the_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir/BENCH_grid.json");
        let err = check_file("BENCH_grid.json", &path, "{}\n").unwrap_err();
        assert!(err.starts_with("BENCH_grid.json:1: cannot read the committed file"), "{err}");
    }

    #[test]
    fn a_broken_contract_is_refused_with_its_line() {
        let mut shape = CatalogBaseline {
            schema: "gdmp-bench-catalog/1",
            lookups_per_point: CATALOG_LOOKUPS,
            points: vec![CatalogPoint {
                sites: 10,
                mode: "federated",
                lookups: 300,
                confirms: 240,
                rli_hits: 300,
                fallbacks: 0,
                scatters: 0,
                false_positives: 0,
                wrong_answers: 0,
                final_clock_s: 95.0,
            }],
        };
        assert!(finish("catalog", &shape).is_ok());
        shape.points[0].wrong_answers = 1;
        assert_eq!(
            finish("catalog", &shape),
            Err("BENCH_catalog.json:14: `\"wrong_answers\": 1,` breaks the contract \
                 wrong_answers = 0"
                .to_string())
        );

        // The ±1 pp band this check replaced accepted 2.69 against 1.695.
        let sweep =
            SimnetSweep { name: "figure5_untuned", points: 40, max_throughput_delta_pct: 2.69 };
        let err = finish("simnet", &sweep).unwrap_err();
        assert!(err.starts_with("BENCH_simnet.json:4: "), "{err}");
        assert!(err.ends_with("breaks the contract max_throughput_delta_pct ≤ 2"), "{err}");

        #[derive(Serialize)]
        struct Speedup {
            striping_speedup: f64,
        }
        assert!(finish("fetch", &Speedup { striping_speedup: 1.5 }).is_ok());
        let err = finish("fetch", &Speedup { striping_speedup: 1.49 }).unwrap_err();
        assert!(err.starts_with("BENCH_fetch.json:2: "), "{err}");
    }

    #[test]
    fn an_unknown_baseline_is_an_error() {
        assert!(render("e2e").unwrap_err().contains("known: simnet, fetch, catalog, grid"));
    }
}
