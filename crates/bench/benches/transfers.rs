//! Transfer-level benches: reduced-size figure points and the design
//! ablations called out in DESIGN.md §6. Criterion measures the *simulator*
//! cost; the printed simulated throughputs are the scientific output (see
//! the `figures` binary for the full-size versions).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use gdmp_gridftp::sim::{SessionCache, WanProfile};
use gdmp_simnet::link::LinkSpec;
use gdmp_simnet::network::{FlowSpec, Network};
use gdmp_simnet::time::{SimDuration, SimTime};

const MB: u64 = 1024 * 1024;

/// Reduced Figure-5/6 points: cost of simulating a 5 MB transfer at
/// several stream counts and both buffer settings. Each point owns one
/// cache and every iteration moves one more byte, so an iteration misses
/// the session memo but continues from the recipe's cross-traffic warm-up.
/// The report counts the warm-up's events too, which an iteration does not
/// dispatch, so this group reports time per transfer only.
fn bench_fig_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_transfer_5MB");
    let profile = WanProfile::cern_anl_production();
    for &streams in &[1u32, 4, 8] {
        for &(label, buffer) in &[("untuned64k", 64 * 1024u64), ("tuned1M", MB)] {
            let mut cache = SessionCache::default();
            let mut bytes = 5 * MB;
            let mut next = move |n| {
                bytes += 1;
                cache.session(&profile, black_box(bytes), n, buffer, false).report
            };
            next(streams);
            g.bench_with_input(BenchmarkId::new(label, streams), &streams, |b, &n| {
                b.iter(|| next(n))
            });
        }
    }
    g.finish();
}

/// The same points on a fresh cache per iteration: every iteration
/// simulates its warm-up.
fn bench_cold_recipe(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_transfer_5MB_cold_recipe");
    let profile = WanProfile::cern_anl_production();
    let cold = |n| {
        SessionCache::default().session(&profile, black_box(5 * MB), n, 64 * 1024, false).report
    };
    for &streams in &[1u32, 8] {
        g.throughput(Throughput::Elements(cold(streams).events_processed));
        g.bench_with_input(BenchmarkId::new("untuned64k", streams), &streams, |b, &n| {
            b.iter(|| cold(n))
        });
    }
    g.finish();
}

/// Ablation: staggered vs simultaneous parallel-stream opens.
fn bench_ablate_stagger(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_stagger");
    for &(label, stagger_ms) in &[("simultaneous", 0u64), ("staggered137ms", 137)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut profile = WanProfile::cern_anl_production();
                profile.stream_stagger = SimDuration::from_millis(stagger_ms);
                profile.simulate_transfer(black_box(5 * MB), 6, 64 * 1024)
            })
        });
    }
    g.finish();
}

/// Ablation: drop-tail queue depth at the bottleneck (BDP fractions).
fn bench_ablate_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_queue_depth");
    for &q in &[64usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| {
                let mut spec = LinkSpec::cern_anl();
                spec.queue_capacity = q;
                let mut net = Network::single_link(spec);
                net.add_flow(FlowSpec::transfer(5 * MB, MB).open_at(SimTime::ZERO));
                net.run()
            })
        });
    }
    g.finish();
}

/// Raw event-processing rate of the discrete-event engine.
fn bench_engine_rate(c: &mut Criterion) {
    c.bench_function("des_events_per_5MB_transfer", |b| {
        b.iter(|| {
            let mut net = Network::single_link(LinkSpec::cern_anl());
            net.add_flow(FlowSpec::transfer(5 * MB, 256 * 1024));
            net.run();
            net.events_processed()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_fig_points, bench_cold_recipe, bench_ablate_stagger, bench_ablate_queue, bench_engine_rate
}
criterion_main!(benches);
