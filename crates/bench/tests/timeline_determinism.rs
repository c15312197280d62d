//! Satellite of the observability issue: same-seed runs must render
//! byte-identical timeline artifacts (the TSV is the committed-figure
//! format, so any nondeterminism here would churn diffs).

use gdmp_bench::{render_timeline, timeline_tsv};
use gdmp_workloads::scenario::{run_fetch_scenario, Scenario};

#[test]
fn same_seed_striped_fetch_renders_identical_timelines() {
    let scenario = Scenario::preset("fetch").unwrap().with_striped_policy();
    let a = run_fetch_scenario(&scenario).unwrap();
    let b = run_fetch_scenario(&scenario).unwrap();
    let tsv_a = timeline_tsv(&a.registry);
    assert_eq!(tsv_a, timeline_tsv(&b.registry), "TSV must be byte-identical across runs");
    assert_eq!(render_timeline(&a.registry, 64), render_timeline(&b.registry, 64));
    // And the TSV is non-trivial: a header plus dense rows, with the
    // measured fetch's per-link traffic present as columns.
    let header = tsv_a.lines().next().expect("non-empty TSV");
    assert!(header.contains("link_bytes{dst=lyon,src=cern}"), "{header}");
    assert!(header.contains("fetch_bytes{dst=lyon}"), "{header}");
    assert!(tsv_a.lines().count() > 10);
}
