//! Pinned outputs of `Grid::replicate`. Each single-source case pins the
//! replication's report (or error) Debug text, the final sim clock and an
//! FNV-1a digest of the whole telemetry export, so a change to the Data
//! Mover that moves a default-path byte fails here with the case named.
//! The three striped-fetch modes of `BENCH_fetch.json` pin only the model:
//! report, per-source bytes, reassignment counters and elapsed time.

use bytes::Bytes;
use gdmp::prelude::*;
use gdmp::{FailoverRetry, FaultEvent, FaultPlan};
use gdmp_workloads::scenario::{run_fetch_scenario, Scenario};

const MB: usize = 1024 * 1024;

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// cern, anl and lyon on the default production profile, fully trusted,
/// with a live registry recording time-series.
fn grid(configure: impl FnOnce(GridBuilder) -> GridBuilder) -> Grid {
    let reg = Registry::new();
    reg.enable_timeseries(250_000_000);
    configure(
        Grid::builder("cms")
            .site(SiteConfig::named("cern", "cern.ch", 11))
            .site(SiteConfig::named("anl", "anl.gov", 12))
            .site(SiteConfig::named("lyon", "in2p3.fr", 13))
            .trust_all()
            .telemetry_sink(reg),
    )
    .build()
}

fn publish(grid: &mut Grid, lfn: &str, mb: usize, tag: u8) {
    grid.publish_file("cern", lfn, Bytes::from(vec![tag; mb * MB]), "flat").unwrap();
}

/// The last replication's outcome, the final clock and the export digest.
fn pin(grid: &Grid, outcome: Result<ReplicationReport>) -> (String, u64, u64) {
    let text = match outcome {
        Ok(report) => format!("{report:?}"),
        Err(e) => format!("Err({e:?})"),
    };
    (text, grid.now().nanos(), fnv1a(&grid.telemetry().export_json_lines()))
}

fn check(case: &str, actual: (String, u64, u64), report: &str, clock_ns: u64, digest: u64) {
    let (text, clock, hash) = actual;
    assert_eq!(
        (text.as_str(), clock, format!("{hash:#018x}")),
        (report, clock_ns, format!("{digest:#018x}")),
        "{case}"
    );
}

#[test]
fn clean() {
    let mut g = grid(|b| b);
    publish(&mut g, "clean.dat", 4, 1);
    let r = g.replicate("anl", "clean.dat");
    check(
        "clean",
        pin(&g, r),
        "ReplicationReport { lfn: \"clean.dat\", from: \"cern\", to: \"anl\", bytes: 4194304, \
         bytes_moved: 4194304, attempts: 1, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(7000110345), setup_time: SimDuration(1000000000), \
         started_at: SimTime(0), finished_at: SimTime(8126110345) }",
        8126110345,
        0x32dcfbdcd70c6522,
    );
}

#[test]
fn drop_once() {
    let mut g = grid(|b| b);
    publish(&mut g, "drop.dat", 4, 2);
    g.inject_fault("drop.dat", FaultPlan::drop_once_at(0.6));
    let r = g.replicate("anl", "drop.dat");
    check(
        "drop_once_at(0.6)",
        pin(&g, r),
        "ReplicationReport { lfn: \"drop.dat\", from: \"cern\", to: \"anl\", bytes: 4194304, \
         bytes_moved: 4194304, attempts: 2, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(5850971602), setup_time: SimDuration(2000000000), \
         started_at: SimTime(0), finished_at: SimTime(7976971602) }",
        7976971602,
        0x8b1c51b28fab4886,
    );
}

#[test]
fn corrupt_twice() {
    let mut g = grid(|b| b);
    publish(&mut g, "frail.dat", 1, 3);
    g.inject_fault("frail.dat", FaultPlan::corrupt_first(2));
    let r = g.replicate("anl", "frail.dat");
    check(
        "corrupt_first(2)",
        pin(&g, r),
        "ReplicationReport { lfn: \"frail.dat\", from: \"cern\", to: \"anl\", bytes: 1048576, \
         bytes_moved: 3145728, attempts: 3, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(4398249450), setup_time: SimDuration(3000000000), \
         started_at: SimTime(0), finished_at: SimTime(7524249450) }",
        7524249450,
        0xf2173aadcad32321,
    );
}

#[test]
fn failover_keeps_partial_progress() {
    let mut g = grid(|b| {
        b.recovery(Box::new(FailoverRetry { attempts_per_source: 1, max_total_attempts: 5 }))
    });
    publish(&mut g, "partial.dat", 4, 4);
    g.replicate("anl", "partial.dat").unwrap();
    g.inject_fault_at(
        "partial.dat",
        "anl",
        FaultPlan { abort_attempts: 100, abort_fraction: 0.75, corrupt_attempts: 0 },
    );
    let r = g.replicate("lyon", "partial.dat");
    check(
        "anl 75 % -> cern",
        pin(&g, r),
        "ReplicationReport { lfn: \"partial.dat\", from: \"cern\", to: \"lyon\", \
         bytes: 4194304, bytes_moved: 4194304, attempts: 2, staged: false, \
         stage_latency: SimDuration(0), data_time: SimDuration(6716165909), \
         setup_time: SimDuration(2000000000), started_at: SimTime(8126110345), \
         finished_at: SimTime(17093276254) }",
        17093276254,
        0x38765e4ee856929c,
    );
}

#[test]
fn every_source_broken() {
    let mut g = grid(|b| {
        b.recovery(Box::new(FailoverRetry { attempts_per_source: 1, max_total_attempts: 10 }))
    });
    publish(&mut g, "doomed.dat", 1, 5);
    g.replicate("anl", "doomed.dat").unwrap();
    let broken = FaultPlan { abort_attempts: 100, abort_fraction: 0.0, corrupt_attempts: 0 };
    g.inject_fault_at("doomed.dat", "cern", broken);
    g.inject_fault_at("doomed.dat", "anl", broken);
    let r = g.replicate("lyon", "doomed.dat");
    check(
        "all sources broken",
        pin(&g, r),
        "Err(TransferFailed { lfn: \"doomed.dat\", attempts: 2, \
         last_error: \"retry budget exhausted\" })",
        4842083150,
        0x17f63c0de242e877,
    );
}

#[test]
fn prologue_failure_then_retry() {
    let mut g = grid(|b| b);
    publish(&mut g, "prep.dat", 2, 6);
    // The PrepareFile RPC is the next anl -> cern call: dropped once.
    let now = g.now();
    g.inject_fault_schedule(
        FaultSchedule::new()
            .at(now, FaultEvent::RpcDrop { from: "anl".into(), to: "cern".into(), nth: 1 }),
    );
    let r = g.replicate("anl", "prep.dat");
    check(
        "prologue failure then retry",
        pin(&g, r),
        "ReplicationReport { lfn: \"prep.dat\", from: \"cern\", to: \"anl\", bytes: 2097152, \
         bytes_moved: 2097152, attempts: 2, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(1722064904), setup_time: SimDuration(1000000000), \
         started_at: SimTime(0), finished_at: SimTime(2973064904) }",
        2973064904,
        0x72d608ed869685e2,
    );
}

#[test]
fn backoff_breaker_and_a_sever_mid_transfer() {
    let mut g = grid(|b| {
        b.recovery(Box::new(BackoffRetry::new(7)))
            .breaker(BreakerConfig { threshold: 1, cooldown: SimDuration::from_secs(30) })
    });
    publish(&mut g, "a.dat", 4, 7);
    g.replicate("anl", "a.dat").unwrap();
    // anl ranks first for lyon; its path dies two seconds into the data.
    let t = g.now() + SimDuration::from_secs(3);
    g.inject_fault_schedule(
        FaultSchedule::new()
            .at(t, FaultEvent::LinkDown { from: "anl".into(), to: "lyon".into(), both_ways: true })
            .at(
                t + SimDuration::from_secs(60),
                FaultEvent::LinkUp { from: "anl".into(), to: "lyon".into(), both_ways: true },
            ),
    );
    let first = g.replicate("lyon", "a.dat");
    check(
        "sever, then failover",
        pin(&g, first),
        "ReplicationReport { lfn: \"a.dat\", from: \"cern\", to: \"lyon\", bytes: 4194304, \
         bytes_moved: 4194304, attempts: 2, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(8061554507), setup_time: SimDuration(2000000000), \
         started_at: SimTime(8126110345), finished_at: SimTime(18438664852) }",
        18438664852,
        0xe3cb7ff4a6ab18ec,
    );
    // The tripped breaker skips anl for the next file.
    publish(&mut g, "b.dat", 2, 8);
    g.replicate("anl", "b.dat").unwrap();
    let r = g.replicate("lyon", "b.dat");
    check(
        "breaker skip",
        pin(&g, r),
        "ReplicationReport { lfn: \"b.dat\", from: \"cern\", to: \"lyon\", bytes: 2097152, \
         bytes_moved: 2097152, attempts: 1, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(1722064904), setup_time: SimDuration(1000000000), \
         started_at: SimTime(21286729756), finished_at: SimTime(24134794660) }",
        24134794660,
        0xba073d718cae962f,
    );
}

#[test]
fn source_restarts_inside_a_backoff_wait() {
    let mut g = grid(|b| b.recovery(Box::new(BackoffRetry::new(7))));
    publish(&mut g, "r.dat", 4, 9);
    // cern crashes mid-transfer and is back before the first backoff ends.
    let t = g.now() + SimDuration::from_secs(3);
    g.inject_fault_schedule(
        FaultSchedule::new()
            .at(t, FaultEvent::SiteDown { site: "cern".into() })
            .at(t + SimDuration::from_millis(100), FaultEvent::SiteUp { site: "cern".into() }),
    );
    let r = g.replicate("anl", "r.dat");
    check(
        "restart inside a backoff wait",
        pin(&g, r),
        "ReplicationReport { lfn: \"r.dat\", from: \"cern\", to: \"anl\", bytes: 4194304, \
         bytes_moved: 4194304, attempts: 2, staged: false, stage_latency: SimDuration(0), \
         data_time: SimDuration(8061554507), setup_time: SimDuration(2000000000), \
         started_at: SimTime(0), finished_at: SimTime(10400197270) }",
        10400197270,
        0x34efe5ba6308953d,
    );
}

/// The striped model of `BENCH_fetch.json`: report, per-source bytes,
/// `ranges_reassigned`, `plan_rebuilds` and elapsed time.
fn fetch_model(scenario: Scenario) -> String {
    let out = run_fetch_scenario(&scenario).unwrap();
    format!(
        "{:?} {:?} {} {} {:?}",
        out.report, out.per_source_bytes, out.ranges_reassigned, out.plan_rebuilds, out.elapsed
    )
}

#[test]
fn fetch_modes() {
    let single = Scenario::preset("fetch").unwrap();
    let multi = single.clone().with_striped_policy();
    let crash = multi.clone().with_fastest_source_crash().unwrap();
    assert_eq!(
        fetch_model(single),
        "ReplicationReport { lfn: \"hot_aod.dat\", from: \"cern\", to: \"lyon\", \
         bytes: 50331648, bytes_moved: 50331648, attempts: 1, staged: false, \
         stage_latency: SimDuration(0), data_time: SimDuration(21636275200), \
         setup_time: SimDuration(320000000), started_at: SimTime(1000000000000), \
         finished_at: SimTime(1021997275200) } [(\"cern\", 50331648), (\"fnal\", 0), (\"kek\", \
         0)] 0 0 SimDuration(21997275200)",
        "single"
    );
    assert_eq!(
        fetch_model(multi),
        "ReplicationReport { lfn: \"hot_aod.dat\", from: \"cern\", to: \"lyon\", \
         bytes: 50331648, bytes_moved: 50331648, attempts: 25, staged: false, \
         stage_latency: SimDuration(0), data_time: SimDuration(37457509131), \
         setup_time: SimDuration(1840000000), started_at: SimTime(1000000000000), \
         finished_at: SimTime(1013563764800) } [(\"cern\", 26843546), (\"fnal\", 14680064), \
         (\"kek\", 8808038)] 2 0 SimDuration(13563764800)",
        "multi"
    );
    assert_eq!(
        fetch_model(crash),
        "ReplicationReport { lfn: \"hot_aod.dat\", from: \"fnal\", to: \"lyon\", \
         bytes: 50331648, bytes_moved: 50331648, attempts: 28, staged: false, \
         stage_latency: SimDuration(0), data_time: SimDuration(48624897994), \
         setup_time: SimDuration(1840000000), started_at: SimTime(1000000000000), \
         finished_at: SimTime(1024189832000) } [(\"cern\", 3013482), (\"fnal\", 28863228), \
         (\"kek\", 18454938)] 4 1 SimDuration(24189832000)",
        "multi_crash"
    );
}
