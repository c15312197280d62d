//! Causal-tracing smoke: one striped fetch must yield, per replication, a
//! single connected span tree whose critical path exactly partitions the
//! end-to-end latency, and the whole telemetry export must be
//! byte-identical across same-seed runs. This is the test behind
//! `ci.sh --full`.

use std::sync::OnceLock;

use gdmp_telemetry::analysis::{breakdown, critical_path, trace_is_connected, trace_roots};
use gdmp_telemetry::{SpanId, TraceId};
use gdmp_workloads::scenario::{run_fetch_scenario, Scenario};
use gdmp_workloads::FetchOutcome;

/// The `fetch` preset, striped over its three sources.
fn striped() -> FetchOutcome {
    run_fetch_scenario(&Scenario::preset("fetch").unwrap().with_striped_policy()).unwrap()
}

/// One shared run: the scenario is deterministic, so every test can read
/// the same outcome (and the smoke stays well under its time budget).
fn shared_run() -> &'static FetchOutcome {
    static RUN: OnceLock<FetchOutcome> = OnceLock::new();
    RUN.get_or_init(striped)
}

#[test]
fn striped_fetch_builds_connected_trace_trees() {
    let out = shared_run();
    let spans = out.registry.spans();
    assert!(!spans.is_empty(), "a traced fetch must record spans");
    // Every span carries a trace id and every trace hangs off one root.
    assert!(spans.iter().all(|s| s.trace != TraceId::NONE));
    let roots = trace_roots(&spans);
    let replicate_roots: Vec<SpanId> = roots
        .iter()
        .copied()
        .filter(|&id| spans.iter().any(|s| s.id == id && s.name == "replicate"))
        .collect();
    // Two seeding replications plus the measured striped fetch.
    assert_eq!(replicate_roots.len(), 3, "roots: {roots:?}");
    for root in replicate_roots {
        assert!(trace_is_connected(&spans, root), "trace of {root:?} must be one tree");
    }
}

#[test]
fn critical_path_partitions_the_measured_fetch() {
    let out = shared_run();
    let spans = out.registry.spans();
    // The measured fetch is the last replicate root (seeding came first).
    let root = *trace_roots(&spans)
        .iter()
        .rfind(|&&id| spans.iter().any(|s| s.id == id && s.name == "replicate"))
        .expect("measured fetch root");
    let root_rec = spans.iter().find(|s| s.id == root).unwrap();
    let segments = critical_path(&spans, root);
    assert!(!segments.is_empty());
    // Exact partition: contiguous coverage of the root interval.
    assert_eq!(segments.first().unwrap().start_ns, root_rec.start_ns);
    assert_eq!(segments.last().unwrap().end_ns, root_rec.end_ns.unwrap());
    for pair in segments.windows(2) {
        assert_eq!(pair[0].end_ns, pair[1].start_ns, "segments must be contiguous");
    }
    let total: u64 = segments.iter().map(|s| s.duration_ns()).sum();
    assert_eq!(
        total,
        root_rec.duration_ns().unwrap(),
        "critical-path segments must sum to the end-to-end latency"
    );
    // The striped fetch's tree is non-trivial: selection, per-chunk
    // transfers, and the gridftp sub-spans all show up on the path.
    let names: Vec<String> = breakdown(&segments).into_iter().map(|(n, _)| n).collect();
    assert!(names.len() >= 3, "want >= 3 distinct segments, got {names:?}");
    assert!(names.iter().any(|n| n == "transfer_steady"), "{names:?}");
    let tree_size = spans.iter().filter(|s| s.trace == root_rec.trace).count();
    assert!(tree_size >= 10, "striped fetch should record a deep tree, got {tree_size}");
}

#[test]
fn same_seed_runs_export_identical_traces_and_series() {
    let a = shared_run();
    let b = striped();
    assert_eq!(a.registry.spans(), b.registry.spans());
    assert_eq!(
        a.registry.export_json_lines(),
        b.registry.export_json_lines(),
        "same-seed exports (spans, metrics, time-series) must be byte-identical"
    );
    // The fetch scenario records real time-series, not just spans.
    let series = a.registry.timeseries_snapshot();
    assert!(series.iter().any(|s| s.name == "link_bytes"));
    assert!(series.iter().any(|s| s.name == "fetch_bytes"));
}
