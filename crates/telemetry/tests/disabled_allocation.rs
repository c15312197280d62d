//! The disabled-registry contract, asserted with a counting allocator:
//! every telemetry call on `Registry::disabled()` performs **zero** heap
//! allocation (and, trivially, zero locking — a disabled registry holds no
//! mutex). Library types hold a registry unconditionally, so this is what
//! keeps telemetry free for every caller that never opts in.

mod counting_alloc;

use counting_alloc::allocations_during;
use gdmp_telemetry::Registry;

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
