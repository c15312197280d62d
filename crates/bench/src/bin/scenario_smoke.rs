//! Scenario smoke for the CI gate (part of `ci.sh`'s default gate;
//! release build, < 10 s): every committed `scenarios/`
//! file must load and validate, and the quick ones must replay twice with
//! held invariants (convergence, never-wrong) and byte-identical
//! telemetry exports — the determinism contract end to end, from JSON on
//! disk to exported bytes.

use gdmp_workloads::scenario::{run_scenario, ScenarioOutcome};
use gdmp_workloads::Scenario;

/// Invariant sweep + the run's telemetry export for byte comparison.
fn check(name: &str, out: &ScenarioOutcome) -> String {
    match out {
        ScenarioOutcome::Fetch(f) => {
            assert!(f.converged, "{name}: fetch run did not converge");
            f.registry.export_json_lines()
        }
        ScenarioOutcome::ReplicationSoak(s) => {
            assert!(s.converged(), "{name}: soak violations {:?}", s.report.violations);
            s.registry.export_json_lines()
        }
        ScenarioOutcome::CatalogSoak(c) => {
            assert!(c.never_wrong(), "{name}: wrong answers {:?}", c.stats);
            assert!(c.converged(), "{name}: catalog violations {:?}", c.report.violations);
            c.registry.export_json_lines()
        }
        ScenarioOutcome::GridSoak(g) => {
            assert_eq!(g.wrong_answers, 0, "{name}: grid soak returned wrong answers");
            g.registry.export_json_lines()
        }
    }
}

fn main() {
    let t0 = std::time::Instant::now();
    let dir = std::path::Path::new("scenarios");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("run from the repo root: scenarios/ not found")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "scenarios/ holds no scenario files");

    for path in &files {
        let p = path.to_str().expect("utf-8 path");
        let scenario = Scenario::load(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        println!(
            "loaded   {p}: {} sites, workload {}, seed {:#x}",
            scenario.topology.site_names().len(),
            scenario.workload.kind(),
            scenario.seed
        );
    }

    // Replay the quick shapes twice each; full/at_scale stay load-only so
    // the smoke holds its <10 s budget.
    for name in ["fetch.json", "soak_quick.json", "catalog_quick.json", "grid_quick.json"] {
        let p = format!("scenarios/{name}");
        let scenario = Scenario::load(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let a = run_scenario(&scenario).unwrap_or_else(|e| panic!("{p}: {e}"));
        let b = run_scenario(&scenario).unwrap_or_else(|e| panic!("{p}: {e}"));
        let ea = check(name, &a);
        let eb = check(name, &b);
        assert_eq!(ea, eb, "{p}: same scenario, different exported bytes");
        println!("replayed {p}: invariants held, {} export bytes, byte-identical", ea.len());
    }
    println!("scenario smoke OK in {:.2} s", t0.elapsed().as_secs_f64());
}
