//! Whole-stack benchmark for the GDMP reproduction.
//!
//! Four workloads drive `gdmp::Grid` and `gdmp_workloads` through their
//! public APIs only: every layer is measured from outside, by timing the
//! driver's own calls and by probing a lower layer's public functions
//! with the arguments the workload produced. See `README.md` for the
//! metric definitions and how to run, trace and check.

pub mod assemble;
pub mod meter;
pub mod probes;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;

/// `(name, unit)` of the end-to-end metrics, in `BENCHMARK.json` order.
/// Two clocks, always named: `sim_*` metrics are on the simulated grid's
/// clock, everything else is host time.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mbps", "Mb/s"),
    ("sim_fetch_p50_s", "sim_s"),
];

/// `(name, unit)` of the per-layer metrics (layer = crate), in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 91] = [
    ("workloads.parse_us", "us"),
    ("workloads.populate_s", "s"),
    ("workloads.cascade_us", "us"),
    ("workloads.gen_share", "ratio"),
    ("gdmp.build_s", "s"),
    ("gdmp.publish.count", "count"),
    ("gdmp.publish.busy_s", "s"),
    ("gdmp.publish.p50_us", "us"),
    ("gdmp.lookup.count", "count"),
    ("gdmp.lookup.busy_s", "s"),
    ("gdmp.lookup.p50_us", "us"),
    ("gdmp.replicate.count", "count"),
    ("gdmp.replicate.busy_s", "s"),
    ("gdmp.replicate.p50_us", "us"),
    ("gdmp.replicate_pending.count", "count"),
    ("gdmp.replicate_pending.busy_s", "s"),
    ("gdmp.replicate_pending.p50_us", "us"),
    ("gdmp.object_replicate.count", "count"),
    ("gdmp.object_replicate.busy_s", "s"),
    ("gdmp.object_replicate.p50_us", "us"),
    ("gdmp.file_cover.count", "count"),
    ("gdmp.file_cover.busy_s", "s"),
    ("gdmp.file_cover.p50_us", "us"),
    ("gdmp.advance.count", "count"),
    ("gdmp.advance.busy_s", "s"),
    ("gdmp.run_recovery.count", "count"),
    ("gdmp.run_recovery.busy_s", "s"),
    ("gdmp.check_grid_s", "s"),
    ("gdmp.rpc_total", "count"),
    ("gdmp.attempts_per_replica", "ratio"),
    ("gdmp.deferred", "count"),
    ("gdmp.breaker_trips", "count"),
    ("gdmp.backoff_waits", "count"),
    ("gdmp.self_share", "ratio"),
    ("gsi.gridmap_entries", "count"),
    ("gsi.establish_us", "us"),
    ("gsi.authorize_ns", "ns"),
    ("gsi.est_share", "ratio"),
    ("replica-catalog.entries", "count"),
    ("replica-catalog.central_publish_us", "us"),
    ("replica-catalog.central_add_replica_us", "us"),
    ("replica-catalog.central_locate_us", "us"),
    ("replica-catalog.lrc_lookups", "count"),
    ("replica-catalog.rli_hits", "count"),
    ("replica-catalog.confirms_per_lookup", "ratio"),
    ("replica-catalog.false_positive_share", "ratio"),
    ("replica-catalog.fallback_share", "ratio"),
    ("replica-catalog.scatter_share", "ratio"),
    ("replica-catalog.soft_state_updates", "count"),
    ("replica-catalog.wrong_answers", "count"),
    ("replica-catalog.est_share", "ratio"),
    ("simnet.events_processed", "count"),
    ("simnet.events_skipped", "count"),
    ("simnet.skip_share", "ratio"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.link_drops", "count"),
    ("simnet.timeouts", "count"),
    ("simnet.est_share", "ratio"),
    ("gridftp.sessions", "count"),
    ("gridftp.bytes", "count"),
    ("gridftp.sim_transfer_us_p50", "us"),
    ("gridftp.sim_transfer_us_p90", "us"),
    ("gridftp.payload_event_share", "ratio"),
    ("gridftp.crc_mb_per_s", "MB/s"),
    ("gridftp.retransmitted_segments", "count"),
    ("gridftp.est_share", "ratio"),
    ("mass-storage.requests", "count"),
    ("mass-storage.disk_hits", "count"),
    ("mass-storage.stage_requests", "count"),
    ("mass-storage.hit_share", "ratio"),
    ("mass-storage.evictions", "count"),
    ("mass-storage.archive_cost_units", "count"),
    ("mass-storage.store_us_per_mb", "us/MB"),
    ("mass-storage.request_us", "us"),
    ("mass-storage.sim_stage_s_p50", "sim_s"),
    ("objectstore.objects", "count"),
    ("objectstore.files", "count"),
    ("objectstore.extract_us_per_kobj", "us"),
    ("objectstore.objects_moved", "count"),
    ("objectstore.bytes_moved", "count"),
    ("objectstore.ballast_ratio", "ratio"),
    ("objectstore.est_share", "ratio"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_mb", "MB"),
    ("telemetry.series", "count"),
    ("telemetry.spans", "count"),
    ("telemetry.overhead_share", "ratio"),
    ("intern.symbols", "count"),
    ("intern.try_id_ns", "ns"),
    ("driver.trace_overhead_pct", "%"),
    ("driver.unattributed_share", "ratio"),
];
