//! Grid-level benches: replication pipelines, warm authenticated RPC, and
//! the remaining DESIGN.md ablations (copier pipelining, eviction policy,
//! association closure).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use bytes::Bytes;
use gdmp::{Grid, ObjectReplicationConfig, SiteConfig};
use gdmp_mass_storage::pool::{DiskPool, EvictionPolicy};
use gdmp_objectstore::{CopierSpec, LogicalOid, ObjectKind};
use gdmp_workloads::Population;

fn two_site_grid() -> Grid {
    let mut g = Grid::new("cms");
    g.add_site(SiteConfig::named("cern", "cern.ch", 1));
    g.add_site(SiteConfig::named("anl", "anl.gov", 2));
    g.trust_all();
    g
}

fn bench_file_replication(c: &mut Criterion) {
    c.bench_function("replicate_2MB_flat_file", |b| {
        b.iter_with_setup(
            || {
                let mut g = two_site_grid();
                g.publish_file("cern", "f.dat", Bytes::from(vec![1u8; 2 << 20]), "flat").unwrap();
                g
            },
            |mut g| {
                g.replicate("anl", "f.dat").unwrap();
                g
            },
        )
    });
}

/// Steady-state authenticated RPC: one `Grid::ping` between two trusted
/// sites whose credentials have already been through a handshake.
fn bench_rpc_ping_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("rpc_ping_warm");
    // A ping costs microseconds: time enough of them to see it.
    g.sample_size(200_000);
    g.bench_function("ping", |b| {
        let mut grid = two_site_grid();
        grid.ping("anl", "cern").unwrap();
        b.iter(|| grid.ping(black_box("anl"), black_box("cern")).unwrap())
    });
    g.finish();
}

/// Ablation: pipelined vs sequential copier/transfer overlap.
fn bench_ablate_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_pipeline");
    for &(label, pipelined) in &[("pipelined", true), ("sequential", false)] {
        g.bench_function(label, |b| {
            b.iter_with_setup(
                || {
                    let mut grid = two_site_grid();
                    Population::aod(1_000, 100).scaled(0.05).build(&mut grid, "cern").unwrap();
                    grid
                },
                |mut grid| {
                    let wanted: Vec<_> = (0..1_000)
                        .step_by(3)
                        .map(|e| LogicalOid::new(e, ObjectKind::Aod))
                        .collect();
                    let cfg = ObjectReplicationConfig {
                        copier: CopierSpec {
                            bytes_per_sec: 2_000_000,
                            per_object_ns: 20_000,
                            max_file_bytes: 64 * 1024,
                        },
                        pipelined,
                    };
                    let r = grid.object_replicate("anl", &wanted, cfg).unwrap();
                    black_box(r.makespan);
                    grid
                },
            )
        });
    }
    g.finish();
}

/// Ablation: disk-pool eviction policy under a Zipf-ish scan workload.
fn bench_ablate_eviction(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_eviction");
    for &(label, policy) in &[("lru", EvictionPolicy::Lru), ("fifo", EvictionPolicy::Fifo)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &policy, |b, &policy| {
            b.iter(|| {
                let mut pool = DiskPool::new(64 * 1024, policy);
                // 128 files of 1 KB into a 64 KB pool, with re-touches of a
                // hot head.
                for i in 0..128u64 {
                    let name = format!("f{i}");
                    pool.put(&name, Bytes::from(vec![0u8; 1024])).unwrap();
                    for h in 0..4 {
                        let hot = format!("f{}", (i / 8) * 8 + h % 4);
                        let _ = pool.get(&hot);
                    }
                }
                black_box(pool.stats.evictions)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_file_replication, bench_rpc_ping_warm, bench_ablate_pipeline, bench_ablate_eviction
}
criterion_main!(benches);
