//! The perf-regression gate behind `ci.sh --full`: re-run the
//! deterministic metrics of the committed `BENCH_simnet.json`,
//! `BENCH_fetch.json`, `BENCH_catalog.json`, and `BENCH_grid.json`
//! baselines and fail on drift beyond per-metric tolerance bands.
//!
//! Wall-clock fields (`wall_ms`, `events_per_sec`, the wall-derived
//! `speedup`s) move with the host and are **excluded** from the gate; the
//! event counts, throughputs, source splits, and fidelity deltas are pure
//! sim-time and must reproduce. The fetch baseline is checked exactly
//! (floats at the 3-decimal rounding `bench_fetch` writes); the other
//! baselines keep tolerances, configurable via env:
//!
//! | env                    | default | applied to                         |
//! |------------------------|---------|------------------------------------|
//! | `GDMP_TOL_MBPS_PCT`    | 5       | throughputs and elapsed times      |
//! | `GDMP_TOL_EVENTS_PCT`  | 10      | event/byte/retry counts            |
//! | `GDMP_TOL_SPEEDUP_PCT` | 10      | event reduction                    |
//! | `GDMP_TOL_DELTA_ABS`   | 1       | fidelity deltas (percentage points)|

use gdmp_gridftp::sim::WanProfile;
use gdmp_simnet::LinkSpec;
use gdmp_workloads::fetch::{run_fetch, striped_policy, FetchSpec, FETCH_SOURCES};
use gdmp_workloads::{run_fanout, FanoutSpec, FigureSweep, MB};

use crate::figures::fig_sweep_on;

// ---- tolerance bands -----------------------------------------------------

/// Per-metric tolerance bands (percentages and absolute percentage
/// points), read once from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    pub mbps_pct: f64,
    pub events_pct: f64,
    pub speedup_pct: f64,
    pub delta_abs: f64,
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances { mbps_pct: 5.0, events_pct: 10.0, speedup_pct: 10.0, delta_abs: 1.0 }
    }
}

impl Tolerances {
    pub fn from_env() -> Self {
        let d = Tolerances::default();
        Tolerances {
            mbps_pct: env_f64("GDMP_TOL_MBPS_PCT", d.mbps_pct),
            events_pct: env_f64("GDMP_TOL_EVENTS_PCT", d.events_pct),
            speedup_pct: env_f64("GDMP_TOL_SPEEDUP_PCT", d.speedup_pct),
            delta_abs: env_f64("GDMP_TOL_DELTA_ABS", d.delta_abs),
        }
    }
}

// ---- the gate ------------------------------------------------------------

/// Accumulates comparisons; a non-empty `violations` fails the gate.
/// `skipped` records checks that could not run on this host (informational,
/// never a failure).
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: usize,
    pub violations: Vec<String>,
    pub skipped: Vec<String>,
}

impl Gate {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Relative check: `actual` within `tol_pct`% of `baseline`. A zero
    /// baseline demands a zero actual (counters that were silent must stay
    /// silent).
    pub fn within_pct(&mut self, what: &str, baseline: f64, actual: f64, tol_pct: f64) {
        self.checks += 1;
        let drift_pct = if baseline == 0.0 {
            if actual == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (actual - baseline).abs() / baseline.abs() * 100.0
        };
        if drift_pct > tol_pct {
            self.violations.push(format!(
                "{what}: {actual} vs baseline {baseline} ({drift_pct:.2}% drift > {tol_pct}%)"
            ));
        }
    }

    /// Absolute check, in the metric's own unit.
    pub fn within_abs(&mut self, what: &str, baseline: f64, actual: f64, tol_abs: f64) {
        self.checks += 1;
        let drift = (actual - baseline).abs();
        if drift > tol_abs {
            self.violations.push(format!(
                "{what}: {actual} vs baseline {baseline} (|Δ| {drift:.3} > {tol_abs})"
            ));
        }
    }

    /// Exact check for categorical fields (names, booleans, counts that
    /// define the baseline's shape).
    pub fn exact<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, baseline: T, actual: T) {
        self.checks += 1;
        if baseline != actual {
            self.violations.push(format!("{what}: {actual:?} vs baseline {baseline:?}"));
        }
    }
}

// ---- baseline mirrors (deserialization only) -----------------------------

#[derive(serde::Deserialize)]
struct FetchShare {
    site: String,
    bytes: u64,
}

#[derive(serde::Deserialize)]
struct FetchMode {
    name: String,
    elapsed_s: f64,
    mbps: f64,
    sources: Vec<FetchShare>,
    ranges_reassigned: u64,
    plan_rebuilds: u64,
    converged: bool,
}

#[derive(serde::Deserialize)]
struct FetchBaseline {
    schema: String,
    modes: Vec<FetchMode>,
    striping_speedup: f64,
}

#[derive(serde::Deserialize)]
struct SimnetModeStats {
    events_processed: u64,
    events_skipped: u64,
    mbps: f64,
}

#[derive(serde::Deserialize)]
struct SimnetScenario {
    name: String,
    file_mb: u64,
    streams: u32,
    buffer_kb: u64,
    exact: SimnetModeStats,
    auto: SimnetModeStats,
    event_reduction: f64,
    throughput_delta_pct: f64,
}

#[derive(serde::Deserialize)]
struct SimnetSweep {
    name: String,
    points: u64,
    max_throughput_delta_pct: f64,
}

#[derive(serde::Deserialize)]
struct SimnetFanout {
    sites: u32,
    bytes_per_site: u64,
    events_processed: u64,
}

#[derive(serde::Deserialize)]
struct SimnetBaseline {
    schema: String,
    scenarios: Vec<SimnetScenario>,
    sweeps: Vec<SimnetSweep>,
    fanout: SimnetFanout,
}

#[derive(serde::Deserialize)]
struct CatalogPoint {
    sites: usize,
    mode: String,
    lookups: u64,
    confirms: u64,
    rli_hits: u64,
    fallbacks: u64,
    scatters: u64,
    false_positives: u64,
    wrong_answers: u64,
    final_clock_s: f64,
}

#[derive(serde::Deserialize)]
struct CatalogBaseline {
    schema: String,
    points: Vec<CatalogPoint>,
}

#[derive(serde::Deserialize)]
struct GridControlPlanePoint {
    sites: usize,
    ops: u64,
    checksum: u64,
}

#[derive(serde::Deserialize)]
struct GridSoakBaselinePoint {
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
    final_clock_s: f64,
}

#[derive(serde::Deserialize)]
struct GridBaseline {
    schema: String,
    ops_per_point: u64,
    control_plane: Vec<GridControlPlanePoint>,
    soak: Vec<GridSoakBaselinePoint>,
}

// ---- fetch comparison ----------------------------------------------------

/// The 3-decimal rounding `BENCH_fetch.json` stores its floats at.
pub fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Re-run the three fetch modes and check their deterministic metrics
/// exactly against the committed `BENCH_fetch.json` contents.
pub fn compare_fetch(baseline_json: &str) -> Result<Gate, String> {
    let base: FetchBaseline =
        serde_json::from_str(baseline_json).map_err(|e| format!("BENCH_fetch.json: {e}"))?;
    let mut gate = Gate::default();
    gate.exact("fetch.schema", "gdmp-bench-fetch/1".to_string(), base.schema);

    let spec = FetchSpec::default();
    let runs = [
        ("single", run_fetch(&spec)),
        ("multi", run_fetch(&FetchSpec { policy: striped_policy(), ..spec.clone() })),
        (
            "multi_crash",
            run_fetch(&FetchSpec { policy: striped_policy(), crash_fastest: true, ..spec.clone() }),
        ),
    ];
    gate.exact("fetch.modes.len", base.modes.len(), runs.len());
    let mut single_mbps = 0.0;
    let mut multi_mbps = 0.0;
    for (b, (name, out)) in base.modes.iter().zip(&runs) {
        match *name {
            "single" => single_mbps = out.agg_mbps,
            "multi" => multi_mbps = out.agg_mbps,
            _ => {}
        }
        let p = format!("fetch.{name}");
        gate.exact(&format!("{p}.name"), b.name.clone(), name.to_string());
        gate.exact(&format!("{p}.mbps"), b.mbps, round3(out.agg_mbps));
        gate.exact(&format!("{p}.elapsed_s"), b.elapsed_s, round3(out.elapsed.as_secs_f64()));
        for site in FETCH_SOURCES {
            let base_bytes = b.sources.iter().find(|s| s.site == site).map_or(0, |s| s.bytes);
            let actual_bytes =
                out.per_source_bytes.iter().find(|(s, _)| s == site).map_or(0, |(_, n)| *n);
            gate.exact(&format!("{p}.bytes[{site}]"), base_bytes, actual_bytes);
        }
        gate.exact(&format!("{p}.ranges_reassigned"), b.ranges_reassigned, out.ranges_reassigned);
        gate.exact(&format!("{p}.plan_rebuilds"), b.plan_rebuilds, out.plan_rebuilds);
        gate.exact(&format!("{p}.converged"), b.converged, out.converged);
    }
    gate.exact(
        "fetch.striping_speedup",
        base.striping_speedup,
        round3(multi_mbps / single_mbps.max(1e-9)),
    );
    Ok(gate)
}

// ---- catalog comparison --------------------------------------------------

/// Re-run the catalog lookup grid and gate its deterministic metrics
/// against the committed `BENCH_catalog.json`. The wall-clock ops/sec in
/// the baseline is informational and not compared; the lookup mix, the
/// ladder counters, and the final sim clock are exact sim-time and must
/// reproduce. `wrong_answers` is held to literal zero — it is the
/// federation's correctness contract, not a perf number.
pub fn compare_catalog(baseline_json: &str, tol: &Tolerances) -> Result<Gate, String> {
    let base: CatalogBaseline =
        serde_json::from_str(baseline_json).map_err(|e| format!("BENCH_catalog.json: {e}"))?;
    let mut gate = Gate::default();
    gate.exact("catalog.schema", "gdmp-bench-catalog/1".to_string(), base.schema);

    let actual = crate::catalog::run_catalog_grid();
    gate.exact("catalog.points.len", base.points.len(), actual.len());
    for (b, a) in base.points.iter().zip(&actual) {
        let p = format!("catalog.{}x{}", b.sites, b.mode);
        gate.exact(&format!("{p}.sites"), b.sites, a.sites);
        gate.exact(&format!("{p}.mode"), b.mode.clone(), a.mode.to_string());
        gate.exact(&format!("{p}.lookups"), b.lookups, a.lookups);
        gate.exact(&format!("{p}.wrong_answers"), 0u64, a.wrong_answers);
        gate.exact(&format!("{p}.baseline_wrong_answers"), 0u64, b.wrong_answers);
        gate.within_pct(
            &format!("{p}.confirms"),
            b.confirms as f64,
            a.confirms as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.rli_hits"),
            b.rli_hits as f64,
            a.rli_hits as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.fallbacks"),
            b.fallbacks as f64,
            a.fallbacks as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.scatters"),
            b.scatters as f64,
            a.scatters as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.false_positives"),
            b.false_positives as f64,
            a.false_positives as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.final_clock_s"),
            b.final_clock_s,
            a.final_clock_ns as f64 / 1e9,
            tol.mbps_pct,
        );
    }
    Ok(gate)
}

// ---- grid comparison -----------------------------------------------------

/// Re-run the interned control-plane probe race and the Tier-0/1/2 grid
/// soak and gate their deterministic metrics against the committed
/// `BENCH_grid.json`. The checksums and op counts are exact by
/// construction; the soak's ladder split and final clock are pure
/// sim-time. Every wall-derived field (`*_ops_per_sec`, `*_wall_s`,
/// `speedup`) is host-dependent and **excluded** — the ≥2× acceptance bar
/// is enforced where the wall clock is actually measured, in `bench_grid`.
pub fn compare_grid(baseline_json: &str, tol: &Tolerances) -> Result<Gate, String> {
    let base: GridBaseline =
        serde_json::from_str(baseline_json).map_err(|e| format!("BENCH_grid.json: {e}"))?;
    let mut gate = Gate::default();
    gate.exact("grid.schema", "gdmp-bench-grid/1".to_string(), base.schema);
    gate.exact("grid.ops_per_point", crate::grid::GRID_OPS as u64, base.ops_per_point);

    let control = crate::grid::run_control_plane_grid();
    gate.exact("grid.control_plane.len", base.control_plane.len(), control.len());
    for (b, a) in base.control_plane.iter().zip(&control) {
        let p = format!("grid.control_plane.{}", b.sites);
        gate.exact(&format!("{p}.sites"), b.sites, a.sites);
        gate.exact(&format!("{p}.ops"), b.ops, a.ops);
        gate.exact(&format!("{p}.checksum"), b.checksum, a.checksum);
    }
    gate.skipped.push(
        "grid.control_plane.speedup: wall-derived, enforced at baseline-write time by bench_grid"
            .to_string(),
    );

    let soak = crate::grid::run_grid_soak_points();
    gate.exact("grid.soak.len", base.soak.len(), soak.len());
    for (b, a) in base.soak.iter().zip(&soak) {
        let p = format!("grid.soak.{}", b.sites);
        gate.exact(&format!("{p}.sites"), b.sites, a.sites);
        gate.exact(&format!("{p}.lookups"), b.lookups, a.lookups);
        gate.exact(&format!("{p}.publishes"), b.publishes, a.publishes);
        gate.exact(&format!("{p}.fetches"), b.fetches, a.fetches);
        gate.exact(&format!("{p}.wrong_answers"), 0u64, a.wrong_answers);
        gate.exact(&format!("{p}.baseline_wrong_answers"), 0u64, b.wrong_answers);
        gate.within_pct(
            &format!("{p}.index_hits"),
            b.index_hits as f64,
            a.index_hits as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.fallbacks"),
            b.fallbacks as f64,
            a.fallbacks as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.scatters"),
            b.scatters as f64,
            a.scatters as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.confirms"),
            b.confirms as f64,
            a.confirms as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.false_positives"),
            b.false_positives as f64,
            a.false_positives as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.final_clock_s"),
            b.final_clock_s,
            a.final_clock_ns as f64 / 1e9,
            tol.mbps_pct,
        );
    }
    Ok(gate)
}

// ---- simnet comparison ---------------------------------------------------

fn profile_for(scenario: &str) -> WanProfile {
    // The bench_simnet scenarios pick their profile by name; mirror that
    // here so the gate re-runs exactly what the baseline ran.
    match scenario {
        "tuned_bulk" => WanProfile::clean(LinkSpec::cern_anl()),
        _ => WanProfile::cern_anl_production(),
    }
}

/// Re-run the simnet scenarios and figure sweeps and gate the sim-time
/// metrics against the committed `BENCH_simnet.json` contents. Wall times
/// and events/sec are host-dependent and not compared.
pub fn compare_simnet(baseline_json: &str, tol: &Tolerances) -> Result<Gate, String> {
    let base: SimnetBaseline =
        serde_json::from_str(baseline_json).map_err(|e| format!("BENCH_simnet.json: {e}"))?;
    let mut gate = Gate::default();
    gate.exact("simnet.schema", "gdmp-bench-simnet/3".to_string(), base.schema);

    for s in &base.scenarios {
        let p = format!("simnet.{}", s.name);
        let profile = profile_for(&s.name);
        let bytes = s.file_mb * MB;
        let exact = profile.exact().simulate_transfer(bytes, s.streams, s.buffer_kb * 1024);
        let auto = profile.simulate_transfer(bytes, s.streams, s.buffer_kb * 1024);
        gate.within_pct(
            &format!("{p}.exact.events_processed"),
            s.exact.events_processed as f64,
            exact.events_processed as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.auto.events_processed"),
            s.auto.events_processed as f64,
            auto.events_processed as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.auto.events_skipped"),
            s.auto.events_skipped as f64,
            auto.events_skipped as f64,
            tol.events_pct,
        );
        gate.within_pct(
            &format!("{p}.exact.mbps"),
            s.exact.mbps,
            exact.throughput_mbps(),
            tol.mbps_pct,
        );
        gate.within_pct(
            &format!("{p}.auto.mbps"),
            s.auto.mbps,
            auto.throughput_mbps(),
            tol.mbps_pct,
        );
        let reduction = exact.events_processed as f64 / auto.events_processed.max(1) as f64;
        gate.within_pct(
            &format!("{p}.event_reduction"),
            s.event_reduction,
            reduction,
            tol.speedup_pct,
        );
        let delta = (auto.throughput_mbps() - exact.throughput_mbps()).abs()
            / exact.throughput_mbps()
            * 100.0;
        gate.within_abs(
            &format!("{p}.throughput_delta_pct"),
            s.throughput_delta_pct,
            delta,
            tol.delta_abs,
        );
    }

    for sw in &base.sweeps {
        let p = format!("simnet.{}", sw.name);
        let grid = match sw.name.as_str() {
            "figure5_untuned" => FigureSweep::figure5(),
            "figure6_tuned" => FigureSweep::figure6(),
            other => {
                gate.violations.push(format!("{p}: unknown sweep {other:?} in baseline"));
                continue;
            }
        };
        let profile = WanProfile::cern_anl_production();
        let exact_rows = fig_sweep_on(&grid, profile.exact());
        let auto_rows = fig_sweep_on(&grid, profile);
        gate.exact(&format!("{p}.points"), sw.points as usize, exact_rows.len());
        let max_delta = exact_rows
            .iter()
            .zip(&auto_rows)
            .map(|(e, a)| (a.mbps - e.mbps).abs() / e.mbps * 100.0)
            .fold(0.0f64, f64::max);
        gate.within_abs(
            &format!("{p}.max_throughput_delta_pct"),
            sw.max_throughput_delta_pct,
            max_delta,
            tol.delta_abs,
        );
    }

    // The fan-out is the only committed event count over a multi-link
    // network: any reordered tie between events of different links moves it.
    let spec = FanoutSpec {
        sites: base.fanout.sites,
        bytes_per_site: base.fanout.bytes_per_site,
        ..FanoutSpec::bench_default()
    };
    gate.exact(
        "simnet.fanout.events_processed",
        base.fanout.events_processed,
        run_fanout(&spec).events_processed,
    );
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_within_tolerance_and_fails_outside() {
        let mut g = Gate::default();
        g.within_pct("a", 100.0, 104.0, 5.0);
        g.within_pct("b", 0.0, 0.0, 5.0);
        g.within_abs("c", 1.0, 1.5, 1.0);
        g.exact("d", true, true);
        assert!(g.passed(), "{:?}", g.violations);
        assert_eq!(g.checks, 4);

        g.within_pct("e", 100.0, 106.0, 5.0);
        g.within_pct("f", 0.0, 1.0, 5.0);
        g.within_abs("g", 1.0, 2.5, 1.0);
        g.exact("h", true, false);
        assert_eq!(g.violations.len(), 4);
        assert!(!g.passed());
    }

    #[test]
    fn malformed_baseline_is_an_error_not_a_pass() {
        let tol = Tolerances::default();
        assert!(compare_fetch("{not json").is_err());
        assert!(compare_simnet("{\"schema\": 3}", &tol).is_err());
        assert!(compare_catalog("[]", &tol).is_err());
        assert!(compare_grid("{\"schema\": \"gdmp-bench-grid/1\"}", &tol).is_err());
    }
}
