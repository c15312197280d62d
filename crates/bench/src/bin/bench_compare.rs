//! Perf-regression gate: re-run the deterministic bench metrics and diff
//! them against the committed baselines.
//!
//! ```text
//! cargo run -p gdmp-bench --release --bin bench_compare                 # ./BENCH_*.json
//! cargo run -p gdmp-bench --release --bin bench_compare -- <dir>        # baselines in <dir>
//! ```
//!
//! Exits non-zero when any metric drifts: the fetch metrics at all, the
//! others outside their tolerance band (see `gdmp_bench::compare` for the
//! bands and the `GDMP_TOL_*` overrides).
//! Wall-clock fields in the baselines are informational and not gated.

use std::path::Path;
use std::process::ExitCode;

use gdmp_bench::compare::{
    compare_catalog, compare_fetch, compare_grid, compare_simnet, Gate, Tolerances,
};

fn load(dir: &Path, name: &str) -> Result<String, String> {
    let path = dir.join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn report(what: &str, gate: &Gate) -> bool {
    if gate.passed() {
        println!("PASS {what}: {} checks", gate.checks);
    } else {
        println!("FAIL {what}: {} of {} checks drifted", gate.violations.len(), gate.checks);
        for v in &gate.violations {
            println!("  - {v}");
        }
    }
    for s in &gate.skipped {
        println!("  skipped: {s}");
    }
    gate.passed()
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let dir = Path::new(&dir);
    let tol = Tolerances::from_env();
    println!(
        "tolerances: mbps {}% events {}% speedup {}% delta ±{} pp",
        tol.mbps_pct, tol.events_pct, tol.speedup_pct, tol.delta_abs
    );

    let mut ok = true;
    match load(dir, "BENCH_fetch.json").and_then(|json| compare_fetch(&json)) {
        Ok(gate) => ok &= report("fetch", &gate),
        Err(e) => {
            println!("FAIL fetch: {e}");
            ok = false;
        }
    }
    match load(dir, "BENCH_simnet.json").and_then(|json| compare_simnet(&json, &tol)) {
        Ok(gate) => ok &= report("simnet", &gate),
        Err(e) => {
            println!("FAIL simnet: {e}");
            ok = false;
        }
    }
    match load(dir, "BENCH_catalog.json").and_then(|json| compare_catalog(&json, &tol)) {
        Ok(gate) => ok &= report("catalog", &gate),
        Err(e) => {
            println!("FAIL catalog: {e}");
            ok = false;
        }
    }
    match load(dir, "BENCH_grid.json").and_then(|json| compare_grid(&json, &tol)) {
        Ok(gate) => ok &= report("grid", &gate),
        Err(e) => {
            println!("FAIL grid: {e}");
            ok = false;
        }
    }
    if ok {
        println!("bench-compare: all baselines reproduce");
        ExitCode::SUCCESS
    } else {
        println!("bench-compare: baseline drift detected (re-baseline deliberately with bench_fetch / bench_simnet / bench_catalog / bench_grid)");
        ExitCode::FAILURE
    }
}
