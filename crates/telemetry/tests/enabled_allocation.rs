//! The enabled-registry contract, asserted with a counting allocator: a
//! metric or time-series write to a series that already exists, and a
//! counter read, perform **zero** heap allocation — whatever order the
//! labels come in and however many other series the registry holds. Only
//! a series' first write allocates (its owned name and labels).

mod counting_alloc;

use counting_alloc::allocations_during;
use gdmp_telemetry::Registry;

/// An enabled registry with time-series on and about as many series as a
/// whole-stack benchmark repetition leaves behind.
fn filled_registry() -> (Registry, Vec<String>) {
    let reg = Registry::new();
    reg.enable_timeseries(1_000_000);
    let links: Vec<String> = (0..400).map(|i| i.to_string()).collect();
    for link in &links {
        let labels = [("link", link.as_str())];
        reg.counter_add("simnet_packets_transmitted", &labels, 1);
        reg.counter_add("simnet_bytes_transmitted", &labels, 1);
        reg.gauge_set("simnet_queue_max_depth", &labels, 1);
    }
    (reg, links)
}

#[test]
fn writes_to_existing_series_do_not_allocate() {
    let (reg, links) = filled_registry();
    let two = [("src", "cern"), ("dst", "anl")];
    let swapped = [("dst", "anl"), ("src", "cern")];
    // First writes: these allocate, outside the measured window.
    reg.counter_add("transfer_bytes", &two, 1);
    reg.gauge_set("queue_depth", &[("site", "anl")], 3);
    reg.observe("stage_latency_ns", &[], 250_000_000);
    reg.series_add("link_bytes", &[("link", "cern-anl")], 0, 64);
    reg.series_set("breaker_open", &[("src", "cern")], 0, 1);

    let count = allocations_during(|| {
        for i in 0..100u64 {
            reg.counter_add("transfer_bytes", &two, 1 << 20);
            // Out-of-order labels are sorted on the stack.
            reg.counter_add("transfer_bytes", &swapped, 1);
            reg.counter_add("simnet_bytes_transmitted", &[("link", &links[i as usize])], 9);
            reg.gauge_set("queue_depth", &[("site", "anl")], i as i64);
            reg.observe("stage_latency_ns", &[], 250_000_000 + i);
            // The same sim-time bucket: an existing point is updated.
            reg.series_add("link_bytes", &[("link", "cern-anl")], i, 64);
            reg.series_set("breaker_open", &[("src", "cern")], i, (i % 2) as i64);
            assert!(reg.counter_value("transfer_bytes", &swapped) > 0);
        }
    });
    assert_eq!(count, 0, "writes to existing series must be allocation-free");
    assert_eq!(reg.counter_value("transfer_bytes", &two), 1 + 100 * ((1 << 20) + 1));
    assert_eq!(reg.counter_value("simnet_bytes_transmitted", &[("link", "7")]), 10);
}

#[test]
fn only_a_series_first_write_allocates() {
    let (reg, _) = filled_registry();
    let first = allocations_during(|| reg.counter_add("rpc_total", &[("kind", "Echo")], 1));
    assert!(first > 0, "a new series owns its name and labels");
    let again = allocations_during(|| reg.counter_add("rpc_total", &[("kind", "Echo")], 1));
    assert_eq!(again, 0);
    let missing = allocations_during(|| {
        assert_eq!(reg.counter_value("rpc_total", &[("kind", "Fetch")]), 0);
    });
    assert_eq!(missing, 0, "reading an absent series creates nothing");
}
