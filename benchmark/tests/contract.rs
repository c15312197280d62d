//! `BENCHMARK.json` and the code agree on the workloads and on every
//! metric's name and unit, in order.

use gdmp_benchmark::workloads::NAMES;
use gdmp_benchmark::{END_TO_END, PER_LAYER};

/// `"name": "<name>"` entries of the JSON array under `key`, in order,
/// each with the `"unit"` that follows it (if the entry has one).
fn entries(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key}"));
    let body = &spec[start..start + spec[start..].find(']').unwrap()];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let value = |field: &str| {
                entry
                    .split(&format!("\"{field}\": \""))
                    .nth(1)
                    .map_or("", |r| r.split('"').next().unwrap())
            };
            (value("name").to_string(), value("unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repo root");
    let names: Vec<String> = entries(&spec, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, NAMES);
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(entries(&spec, "end_to_end"), table(&END_TO_END));
    assert_eq!(entries(&spec, "per_layer"), table(&PER_LAYER));
}
