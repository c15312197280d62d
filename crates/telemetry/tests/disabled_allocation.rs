//! The disabled-registry contract, asserted with a counting allocator:
//! every telemetry call on `Registry::disabled()` performs **zero** heap
//! allocation (and, trivially, zero locking — a disabled registry holds no
//! mutex). Library types hold a registry unconditionally, so this is what
//! keeps telemetry free for every caller that never opts in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gdmp_telemetry::Registry;

thread_local! {
    /// Allocations made by this thread. Per thread, because the harness
    /// runs the tests of this file side by side and each must count only
    /// its own; const-initialised and without a destructor, so that
    /// reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no further side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

#[test]
fn disabled_registry_calls_do_not_allocate() {
    let reg = Registry::disabled();
    let span = reg.span_start("warmup", 0);
    // One pass outside the measured window to fault in any lazy statics.
    reg.span_note(span, "lfn", "warm.dat");
    reg.record(0, "warm", "warm");

    let count = allocations_during(|| {
        for i in 0..100u64 {
            let sp = reg.span_start("replicate", i);
            // `&str` fields are the sharp edge: converting to an owned
            // FieldValue allocates, so the conversion must be gated
            // behind the enabled check.
            reg.span_note(sp, "lfn", "higgs.0001.root");
            reg.span_note(sp, "attempt", i);
            reg.span_end(sp, i + 1);
            reg.counter_add("transfer_bytes", &[("src", "cern"), ("dst", "anl")], 1 << 20);
            reg.gauge_set("queue_depth", &[("site", "anl")], 3);
            reg.observe("stage_latency_ns", &[], 250_000_000);
            reg.record(i, "crc", "ok");
            reg.series_add("link_bytes", &[("link", "cern-anl")], i, 64);
            reg.series_set("breaker_open", &[("src", "cern")], i, 1);
        }
    });
    assert_eq!(count, 0, "disabled-registry telemetry calls must be allocation-free");
}

#[test]
fn disabled_registry_reads_do_not_allocate() {
    let reg = Registry::disabled();
    let count = allocations_during(|| {
        assert!(!reg.is_enabled());
        assert!(reg.metric("transfer_bytes", &[]).is_none());
        assert_eq!(reg.counter_value("transfer_bytes", &[]), 0);
        assert_eq!(reg.timeseries_bucket_ns(), None);
    });
    assert_eq!(count, 0);
}
