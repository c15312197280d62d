//! Event-queue micro-benchmarks: the engine's flat 4-ary heap +
//! hierarchical timer wheel (`gdmp_simnet::engine::EventQueue`) against a
//! plain `std::collections::BinaryHeap`, on the TCP simulator's actual
//! event mix: a steady band of near-future data/ACK events plus RTO
//! timers parked ~1 s out, re-armed on ACK arrival with lazy cancellation
//! — stale generations accumulate until the clock reaches them, exactly
//! the population the wheel keeps out of the comparison structure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gdmp_simnet::engine::EventQueue;
use gdmp_simnet::time::SimTime;

const FLOWS: u64 = 64;
const OPS: u64 = 40_000;
const RTO_NS: u64 = 1_000_000_000;

/// Deterministic per-op jitter: an LCG, so both queues see the same mix.
#[inline]
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The simulator's churn pattern: pop the next event, schedule one near
/// successor (µs ahead), and every 4th op re-arm a far RTO timer (the old
/// generation stays parked, as under lazy cancellation).
fn churn_indexed() -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 0x9E3779B97F4A7C15u64;
    for f in 0..FLOWS {
        q.schedule(SimTime(1 + f), f);
        q.schedule(SimTime(RTO_NS + f * 1000), f | 1 << 32);
    }
    let mut acc = 0u64;
    for op in 0..OPS {
        let (t, ev) = q.pop().expect("queue never drains");
        acc = acc.wrapping_add(t.nanos() ^ ev);
        let jitter = lcg(&mut rng) % 50_000;
        q.schedule(SimTime(t.nanos() + 1_000 + jitter), ev);
        if op % 4 == 0 {
            q.schedule(SimTime(t.nanos() + RTO_NS + jitter), ev | 1 << 33);
        }
    }
    acc
}

/// The identical churn on `BinaryHeap<Reverse<(at, seq, payload)>>`: the
/// same `(at, seq)` key in the standard library's structure.
fn churn_binary_heap() -> u64 {
    let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |q: &mut BinaryHeap<Reverse<(u64, u64, u64)>>, at: u64, ev: u64| {
        q.push(Reverse((at, seq, ev)));
        seq += 1;
    };
    let mut rng = 0x9E3779B97F4A7C15u64;
    for f in 0..FLOWS {
        push(&mut q, 1 + f, f);
        push(&mut q, RTO_NS + f * 1000, f | 1 << 32);
    }
    let mut acc = 0u64;
    for op in 0..OPS {
        let Reverse((t, _, ev)) = q.pop().expect("queue never drains");
        acc = acc.wrapping_add(t ^ ev);
        let jitter = lcg(&mut rng) % 50_000;
        push(&mut q, t + 1_000 + jitter, ev);
        if op % 4 == 0 {
            push(&mut q, t + RTO_NS + jitter, ev | 1 << 33);
        }
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("indexed_heap_plus_wheel", |b| b.iter(|| black_box(churn_indexed())));
    g.bench_function("std_binary_heap_narrow_key", |b| b.iter(|| black_box(churn_binary_heap())));
    g.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
