//! Micro-benchmark for the disabled-registry fast path: every call on a
//! `Registry::disabled()` must cost one branch — no allocation, no lock.
//! The allocation-freedom itself is asserted by the
//! `tests/disabled_allocation.rs` counting-allocator test; this bench
//! bounds the *time* overhead so a regression to "cheap but measurable"
//! still shows up in `cargo bench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gdmp_telemetry::Registry;

fn bench_disabled(c: &mut Criterion) {
    let mut g = c.benchmark_group("disabled_registry");
    let reg = Registry::disabled();
    let sp = reg.span_start("warm", 0);
    g.bench_function("span_start", |b| b.iter(|| reg.span_start(black_box("replicate"), 42)));
    g.bench_function("span_note_str", |b| {
        b.iter(|| reg.span_note(black_box(sp), "lfn", black_box("higgs.0001.root")))
    });
    g.bench_function("counter_add", |b| {
        b.iter(|| reg.counter_add(black_box("transfer_bytes"), &[("src", "cern")], 1024))
    });
    g.bench_function("observe", |b| b.iter(|| reg.observe(black_box("latency_ns"), &[], 77)));
    g.bench_function("record_str", |b| b.iter(|| reg.record(0, "evt", black_box("detail"))));
    g.bench_function("series_add", |b| {
        b.iter(|| reg.series_add(black_box("link_bytes"), &[("link", "a-b")], 5, 64))
    });
    g.finish();

    // Reference point: the same calls on an enabled registry, so the
    // report shows the disabled path orders of magnitude below it.
    let mut g = c.benchmark_group("enabled_registry");
    // Per-call benches: enough calls per sample to rise above the timer.
    g.sample_size(200_000);
    let reg = Registry::new();
    g.bench_function("counter_add", |b| {
        b.iter(|| reg.counter_add(black_box("transfer_bytes"), &[("src", "cern")], 1024))
    });
    // The same call on a registry holding about as many series as one
    // whole-stack benchmark repetition leaves (1 206), and a call with two
    // labels given out of canonical order.
    let full = Registry::new();
    let ids: Vec<String> = (0..400).map(|i| i.to_string()).collect();
    for id in &ids {
        for name in ["simnet_packets_transmitted", "simnet_bytes_transmitted", "simnet_link_drops"]
        {
            full.counter_add(name, &[("link", id)], 1);
        }
    }
    for kind in ["Echo", "Fetch", "Publish", "Lookup", "Subscribe"] {
        full.counter_add("rpc_total", &[("kind", kind)], 1);
    }
    full.counter_add("transfer_bytes", &[("src", "cern"), ("dst", "anl")], 1);
    g.bench_function("counter_add_1200_series", |b| {
        b.iter(|| full.counter_add(black_box("simnet_bytes_transmitted"), &[("link", "217")], 1024))
    });
    g.bench_function("counter_add_two_labels", |b| {
        b.iter(|| {
            full.counter_add(black_box("transfer_bytes"), &[("src", "cern"), ("dst", "anl")], 1024)
        })
    });
    // What a span costs with telemetry on, storage growth included: one
    // iteration fills a fresh registry with about as many spans as one
    // repetition of the whole-stack benchmark records. 1e9 / (elem/s) is
    // ns per span.
    const SPANS: u64 = 10_000;
    let fill = |reg: &Registry| {
        for i in 0..SPANS {
            let sp = reg.span_start(black_box("transfer"), i);
            reg.span_note(sp, "source", black_box("cern"));
            reg.span_note(sp, "attempt", i);
            reg.span_end(sp, i + 1);
        }
    };
    g.sample_size(10);
    g.throughput(Throughput::Elements(SPANS));
    g.bench_function("span_with_two_notes", |b| {
        b.iter(|| {
            let reg = Registry::new();
            fill(&reg);
            reg
        })
    });
    g.bench_function("span_export", |b| {
        let reg = Registry::new();
        fill(&reg);
        b.iter(|| reg.export_json_lines())
    });
    g.finish();
}

criterion_group!(benches, bench_disabled);
criterion_main!(benches);
