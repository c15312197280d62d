//! Interner micro-benches: the hot-path probe primitives behind the
//! interned-id control plane, head-to-head with the string-keyed maps
//! they replaced (DESIGN.md §16 records the grid-scale ratios). `figures
//! grid` times the composed interned probe mix; this isolates the
//! per-probe costs (owned-tuple key allocation vs `try_id` + id-tuple
//! hash).

use std::collections::BTreeMap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gdmp_intern::{SiteId, Symbol, SymbolTable};

const SCALES: [usize; 3] = [50, 100, 200];

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("site{i:03}")).collect()
}

/// One lookup round: every (ring-neighbour) pair probed once.
fn bench_pair_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("pair_lookup");
    for &n in &SCALES {
        let site_names = names(n);

        // Before: owned `(String, String)` keys, a fresh tuple per probe.
        let string_map: BTreeMap<(String, String), u64> = (0..n)
            .map(|i| ((site_names[i].clone(), site_names[(i + 1) % n].clone()), i as u64))
            .collect();
        g.bench_with_input(BenchmarkId::new("string_keyed", n), &n, |b, _| {
            b.iter(|| {
                let mut sum = 0u64;
                for i in 0..n {
                    let a: &str = &site_names[i];
                    let z: &str = &site_names[(i + 1) % n];
                    sum += string_map
                        .get(&(black_box(a).to_string(), black_box(z).to_string()))
                        .copied()
                        .unwrap_or(0);
                }
                sum
            })
        });

        // After: intern once at the boundary, probe with `Copy` id tuples.
        let mut table: SymbolTable<SiteId> = SymbolTable::new();
        for name in &site_names {
            table.intern(name);
        }
        let id_map: std::collections::HashMap<(SiteId, SiteId), u64> = (0..n)
            .map(|i| {
                let a = table.try_id(&site_names[i]).unwrap();
                let z = table.try_id(&site_names[(i + 1) % n]).unwrap();
                ((a, z), i as u64)
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("interned", n), &n, |b, _| {
            b.iter(|| {
                let mut sum = 0u64;
                for i in 0..n {
                    let a = table.try_id(black_box(&site_names[i])).unwrap();
                    let z = table.try_id(black_box(&site_names[(i + 1) % n])).unwrap();
                    sum += id_map.get(&(a, z)).copied().unwrap_or(0);
                }
                sum
            })
        });
    }
    g.finish();
}

/// The roster sweep: what `advance` used to pay per tick (clone every
/// name) vs iterating the interned roster in place.
fn bench_roster_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("roster_sweep");
    for &n in &SCALES {
        let site_names = names(n);
        let roster: BTreeMap<String, usize> =
            site_names.iter().enumerate().map(|(i, s)| (s.clone(), i)).collect();
        g.bench_with_input(BenchmarkId::new("clone_names", n), &n, |b, _| {
            b.iter(|| {
                let cloned: Vec<String> = roster.keys().cloned().collect();
                cloned.iter().map(|s| s.len() as u64).sum::<u64>()
            })
        });

        let mut table: SymbolTable<SiteId> = SymbolTable::new();
        for name in &site_names {
            table.intern(name);
        }
        let ids: Vec<SiteId> = (0..n as u32).map(SiteId::from_index).collect();
        g.bench_with_input(BenchmarkId::new("id_slice", n), &n, |b, _| {
            b.iter(|| ids.iter().map(|&id| table.resolve(black_box(id)).len() as u64).sum::<u64>())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pair_lookup, bench_roster_sweep);
criterion_main!(benches);
