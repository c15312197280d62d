//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics from spans, the run's own telemetry, and probes).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gdmp_telemetry::MetricValue;

use crate::meter::{Call, Meter, Phase};
use crate::probes::{self, Sink};
use crate::span::self_time_by_name;
use crate::stats::{
    fnv1a, median, percentile_sorted, samples_beyond, tail_is_reportable, FNV_OFFSET,
};
use crate::workloads::{by_name, mix, tail_pct, Rep};
use crate::{END_TO_END, PER_LAYER};

/// Fewest repetitions any run reports a median over.
pub const MIN_REPS: usize = 3;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub sim_digest: u64,
    pub reps: usize,
    /// `(setup_s, measured_s, check_s)` of every repetition, in run order.
    pub rep_seconds: Vec<(f64, f64, f64)>,
    /// Failed correctness checks, for the human-readable part.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result the benchmark contract asks for.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn wall_s(rep: &Rep) -> f64 {
    rep.setup_s + rep.measured_s + rep.check_s
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Untraced run: repetitions on fresh state until `seconds` are used up
/// (never fewer than [`MIN_REPS`]), medians across them.
///
/// Repetition `k` runs on inputs generated from its own sub-seed
/// `mix(seed, k)`: how much work an op stream holds depends on the draw
/// (which files are fetched over which links, how the faults fall), and
/// one run averages that over several draws instead of reporting one.
/// The sim-clock metrics and `sim_digest` cover the first [`MIN_REPS`]
/// repetitions only, which every run makes however fast the host is, so
/// they are a function of the seed alone.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    loop {
        let rep_started = Instant::now();
        let w = by_name(name, mix(seed, reps.len() as u64)).expect("a workload from NAMES");
        let mut m = Meter::new(false);
        let mut rep = w.rep(true, &mut m);
        latencies.extend(m.op_latencies());
        // Only the numbers outlive the repetition, so `peak_rss_mb` is one
        // repetition's footprint, not the sum of all of them.
        rep.end = Default::default();
        reps.push(rep);
        let next_would_end = started.elapsed() + rep_started.elapsed();
        if reps.len() >= MIN_REPS && next_would_end.as_secs_f64() > seconds {
            break;
        }
    }

    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.clone()).collect();
    latencies.sort_unstable();
    let tail_pct = tail_pct(name);
    if !tail_is_reportable(latencies.len(), tail_pct) {
        errors.push(format!(
            "p{tail_pct} of {} ops leaves {} samples beyond, fewer than ten",
            latencies.len(),
            samples_beyond(latencies.len(), tail_pct)
        ));
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let fixed = &reps[..MIN_REPS];
    let sim_bytes: u64 = fixed.iter().map(|r| r.sim.payload_bytes).sum();
    let sim_busy_ns: u64 = fixed.iter().map(|r| r.sim.busy_ns).sum();
    let mut fetch_ns: Vec<u64> =
        fixed.iter().flat_map(|r| r.sim.fetch_ns.iter().copied()).collect();
    fetch_ns.sort_unstable();
    let values = [
        med(&|r| r.setup_s),
        med(&|r| r.attempted as f64 / r.measured_s),
        percentile_sorted(&latencies, 50.0) as f64 / 1e3,
        percentile_sorted(&latencies, tail_pct) as f64 / 1e3,
        med(&wall_s),
        peak_rss_mb(),
        sim_bytes as f64 * 8.0 / (sim_busy_ns as f64 / 1e9) / 1e6,
        percentile_sorted(&fetch_ns, 50.0) as f64 / 1e9,
    ];
    Outcome {
        correct: errors.is_empty(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect(),
        sim_digest: fixed.iter().fold(FNV_OFFSET, |h, r| fnv1a(h, &r.sim.digest().to_le_bytes())),
        reps: reps.len(),
        rep_seconds: reps.iter().map(|r| (r.setup_s, r.measured_s, r.check_s)).collect(),
        errors,
    }
}

/// Sum of a counter over all its label sets.
fn counter_sum(snapshot: &[(String, String, MetricValue)], name: &str) -> f64 {
    snapshot
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum::<u64>() as f64
}

/// Traced run: cycles of {plain, traced, telemetry-off} repetitions of
/// one input set for about 70 % of `seconds`, then the probes on the
/// state the last traced repetition ended in. Spans go to `trace_path`
/// once, at the end.
pub fn traced(name: &str, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    // Every repetition here repeats the untraced run's first sub-seed.
    let w = by_name(name, mix(seed, 0)).expect("a workload from NAMES");
    let started = Instant::now();
    let budget = seconds * 0.7;
    let (mut plain, mut off) = (Vec::new(), Vec::new());
    let mut last: Option<(Meter, Rep)> = None;
    let mut others: Vec<(bool, Rep)> = Vec::new();
    loop {
        let cycle_started = Instant::now();
        for (telemetry, spans) in [(true, false), (true, true), (false, false)] {
            let mut m = Meter::new(spans);
            let rep = w.rep(telemetry, &mut m);
            match (telemetry, spans) {
                (true, false) => plain.push(wall_s(&rep)),
                (false, _) => off.push(wall_s(&rep)),
                (true, true) => {}
            }
            if spans {
                if let Some((_, old)) = last.replace((m, rep)) {
                    others.push((true, Rep { end: Default::default(), ..old }));
                }
            } else {
                others.push((telemetry, Rep { end: Default::default(), ..rep }));
            }
        }
        let next_would_end = started.elapsed() + cycle_started.elapsed();
        if next_would_end.as_secs_f64() > budget {
            break;
        }
    }
    let (m, rep) = last.expect("at least one traced repetition");
    // Every repetition here ran the same inputs: its own checks hold, the
    // outcome counts agree across all of them, and `sim_digest` (which
    // covers the telemetry export) across the live ones.
    let mut errors = rep.errors.clone();
    for (live, other) in &others {
        errors.extend(other.errors.iter().cloned());
        if other.sim.counts_digest() != rep.sim.counts_digest() {
            errors.push("outcome counts differ between repetitions of one seed".to_string());
        }
        if *live && other.sim.digest() != rep.sim.digest() {
            errors.push("sim_digest differs between repetitions of one seed".to_string());
        }
    }

    let end = &rep.end;
    let reg = &end.registry.metrics_snapshot();
    let wall = wall_s(&rep);
    let mut sink = Sink::default();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- workloads + gdmp: the driver's own spans ----------------------
    let mean_us = |c: Call| ratio(m.busy_all(c) as f64 / 1e3, m.calls(c) as f64);
    out.insert("workloads.parse_us", mean_us(Call::Parse));
    out.insert("workloads.populate_s", m.busy_all(Call::Populate) as f64 / 1e9);
    out.insert("workloads.cascade_us", mean_us(Call::Cascade));
    let in_calls: u64 = m.samples.iter().filter(|s| s.phase == Phase::Measured).map(|s| s.ns).sum();
    out.insert("workloads.gen_share", (1.0 - in_calls as f64 / 1e9 / rep.measured_s).max(0.0));
    out.insert("gdmp.build_s", m.busy_all(Call::Build) as f64 / 1e9);
    for (call, count, busy, p50) in [
        (Call::Publish, "gdmp.publish.count", "gdmp.publish.busy_s", "gdmp.publish.p50_us"),
        (Call::Lookup, "gdmp.lookup.count", "gdmp.lookup.busy_s", "gdmp.lookup.p50_us"),
        (Call::Replicate, "gdmp.replicate.count", "gdmp.replicate.busy_s", "gdmp.replicate.p50_us"),
        (
            Call::ReplicatePending,
            "gdmp.replicate_pending.count",
            "gdmp.replicate_pending.busy_s",
            "gdmp.replicate_pending.p50_us",
        ),
        (
            Call::ObjectReplicate,
            "gdmp.object_replicate.count",
            "gdmp.object_replicate.busy_s",
            "gdmp.object_replicate.p50_us",
        ),
        (
            Call::FileCover,
            "gdmp.file_cover.count",
            "gdmp.file_cover.busy_s",
            "gdmp.file_cover.p50_us",
        ),
        (Call::Advance, "gdmp.advance.count", "gdmp.advance.busy_s", ""),
        (Call::RunRecovery, "gdmp.run_recovery.count", "gdmp.run_recovery.busy_s", ""),
    ] {
        let (n, ns) = m.busy(call, Phase::Measured);
        out.insert(count, n as f64);
        out.insert(busy, ns as f64 / 1e9);
        if !p50.is_empty() {
            let mut v: Vec<u64> = m
                .samples
                .iter()
                .filter(|s| s.call == call && s.phase == Phase::Measured)
                .map(|s| s.ns)
                .collect();
            v.sort_unstable();
            out.insert(
                p50,
                if v.is_empty() { 0.0 } else { percentile_sorted(&v, 50.0) as f64 / 1e3 },
            );
        }
    }
    out.insert("gdmp.check_grid_s", m.busy_all(Call::CheckGrid) as f64 / 1e9);
    out.insert("gdmp.rpc_total", end.rpc_total as f64);
    out.insert("gdmp.attempts_per_replica", ratio(end.attempts as f64, end.replicas as f64));
    out.insert("gdmp.deferred", counter_sum(reg, "replications_deferred"));
    out.insert("gdmp.breaker_trips", counter_sum(reg, "breaker_trips"));
    out.insert("gdmp.backoff_waits", counter_sum(reg, "backoff_waits"));

    // ---- gsi ------------------------------------------------------------
    let gsi = probes::gsi(end, &mut sink);
    let gsi_est_s = end.rpc_total as f64 * (gsi.establish_us + gsi.authorize_ns / 1e3) / 1e6;
    out.insert("gsi.gridmap_entries", end.gridmap_entries as f64);
    out.insert("gsi.establish_us", gsi.establish_us);
    out.insert("gsi.authorize_ns", gsi.authorize_ns);
    out.insert("gsi.est_share", gsi_est_s / wall);

    // ---- replica-catalog ------------------------------------------------
    let cat = probes::catalog(end, &mut sink);
    let l = end.lookups;
    // The central catalog is read once per replication (`catalog.info`)
    // and once per lookup that the federation does not answer.
    let replicate_calls = m.calls(Call::Replicate);
    let locates = (l.central + replicate_calls.max(end.replicas)) as f64;
    let cat_est_s = cat.fill_discount
        * (end.published as f64 * cat.publish_us
            + end.replicas as f64 * cat.add_replica_us
            + locates * cat.locate_us)
        / 1e6;
    out.insert("replica-catalog.entries", end.catalog_files as f64);
    out.insert("replica-catalog.central_publish_us", cat.publish_us);
    out.insert("replica-catalog.central_add_replica_us", cat.add_replica_us);
    out.insert("replica-catalog.central_locate_us", cat.locate_us);
    out.insert("replica-catalog.lrc_lookups", counter_sum(reg, "lrc_lookups"));
    out.insert("replica-catalog.rli_hits", counter_sum(reg, "rli_hits"));
    out.insert("replica-catalog.confirms_per_lookup", ratio(l.confirms as f64, l.lookups as f64));
    out.insert(
        "replica-catalog.false_positive_share",
        ratio(l.false_positives as f64, l.confirms as f64),
    );
    out.insert("replica-catalog.fallback_share", ratio(l.fallbacks as f64, l.lookups as f64));
    out.insert("replica-catalog.scatter_share", ratio(l.scatters as f64, l.lookups as f64));
    out.insert("replica-catalog.soft_state_updates", counter_sum(reg, "soft_state_updates"));
    out.insert("replica-catalog.wrong_answers", end.wrong_answers as f64);
    out.insert("replica-catalog.est_share", cat_est_s / wall);

    // ---- simnet + gridftp: replay of every session the run simulated ----
    let replay = probes::replay(&end.transfers, &mut sink);
    let events = counter_sum(reg, "simnet_events_processed");
    let skipped = counter_sum(reg, "simnet_events_skipped");
    if replay.events_processed as f64 != events {
        errors.push(format!(
            "gridftp replay processed {} events, the run's counter says {events}",
            replay.events_processed
        ));
    }
    let ns_per_event = ratio(replay.busy_ns as f64, replay.events_processed as f64);
    out.insert("simnet.events_processed", events);
    out.insert("simnet.events_skipped", skipped);
    out.insert("simnet.skip_share", ratio(skipped, events + skipped));
    out.insert("simnet.ns_per_event", ns_per_event);
    out.insert("simnet.link_drops", counter_sum(reg, "simnet_link_drops"));
    out.insert("simnet.timeouts", counter_sum(reg, "simnet_timeouts"));
    out.insert("simnet.est_share", events * ns_per_event / 1e9 / wall);

    let crc = probes::crc_mb_per_s(&mut sink);
    // One CRC pass when a file is published or a replica verified, and
    // one more over every copy in the `check_grid` sweep.
    let crc_s = 2.0 * (end.published_bytes + end.replicated_bytes) as f64 / 1e6 / crc;
    let gridftp_est_s = replay.busy_ns as f64 / 1e9 + crc_s;
    out.insert("gridftp.sessions", counter_sum(reg, "gridftp_sessions"));
    out.insert("gridftp.bytes", counter_sum(reg, "gridftp_bytes"));
    out.insert("gridftp.sim_transfer_us_p50", replay.p(50.0));
    out.insert("gridftp.sim_transfer_us_p90", replay.p(90.0));
    out.insert(
        "gridftp.payload_event_share",
        1.0 - ratio(replay.idle_events as f64, replay.events_processed as f64).min(1.0),
    );
    out.insert("gridftp.crc_mb_per_s", crc);
    out.insert(
        "gridftp.retransmitted_segments",
        counter_sum(reg, "gridftp_retransmitted_segments"),
    );
    out.insert("gridftp.est_share", gridftp_est_s / wall);

    // ---- mass-storage ---------------------------------------------------
    let storage = probes::storage(end, &mut sink);
    let hits: u64 = end.storage.iter().map(|s| s.disk_hits).sum();
    let stages: u64 = end.storage.iter().map(|s| s.stage_requests).sum();
    let storage_est_s = ((end.published_bytes + end.replicated_bytes) as f64 / 1e6
        * storage.store_us_per_mb
        + (hits + stages) as f64 * storage.request_us)
        / 1e6;
    let mut stage_ns = end.stage_ns.clone();
    stage_ns.sort_unstable();
    out.insert("mass-storage.requests", (hits + stages) as f64);
    out.insert("mass-storage.disk_hits", hits as f64);
    out.insert("mass-storage.stage_requests", stages as f64);
    out.insert("mass-storage.hit_share", ratio(hits as f64, (hits + stages) as f64));
    out.insert(
        "mass-storage.evictions",
        end.storage.iter().map(|s| s.evictions).sum::<u64>() as f64,
    );
    out.insert(
        "mass-storage.archive_cost_units",
        end.storage.iter().map(|s| s.archive_cost_units).sum::<u64>() as f64,
    );
    out.insert("mass-storage.store_us_per_mb", storage.store_us_per_mb);
    out.insert("mass-storage.request_us", storage.request_us);
    out.insert(
        "mass-storage.sim_stage_s_p50",
        if stage_ns.is_empty() { 0.0 } else { percentile_sorted(&stage_ns, 50.0) as f64 / 1e9 },
    );

    // ---- objectstore ----------------------------------------------------
    let o = &end.objects;
    let objects = probes::objects(end, &mut sink);
    let covers = m.calls(Call::FileCover) as f64;
    let objects_est_s = (o.objects_moved as f64 / 1e3 * objects.extract_us_per_kobj
        + covers * objects.cover_us)
        / 1e6;
    out.insert("objectstore.objects", o.objects as f64);
    out.insert("objectstore.files", o.files as f64);
    out.insert("objectstore.extract_us_per_kobj", objects.extract_us_per_kobj);
    out.insert("objectstore.objects_moved", o.objects_moved as f64);
    out.insert("objectstore.bytes_moved", o.bytes_moved as f64);
    out.insert("objectstore.ballast_ratio", ratio(o.cover_bytes as f64, o.bytes_moved as f64));
    out.insert("objectstore.est_share", objects_est_s / wall);

    // ---- telemetry, intern ----------------------------------------------
    out.insert("telemetry.export_s", m.busy_all(Call::Export) as f64 / 1e9);
    out.insert("telemetry.export_mb", end.export_len as f64 / 1e6);
    out.insert("telemetry.series", reg.len() as f64);
    out.insert("telemetry.spans", end.registry.spans().len() as f64);
    out.insert("telemetry.overhead_share", (median(&plain) - median(&off)) / median(&plain));
    let intern = probes::intern(end, &mut sink);
    out.insert("intern.symbols", intern.symbols as f64);
    out.insert("intern.try_id_ns", intern.try_id_ns);

    // ---- what is left: gdmp's own share, and the driver's ---------------
    let gdmp_busy_s = m
        .samples
        .iter()
        .filter(|s| s.call.span_name().starts_with("gdmp."))
        .map(|s| s.ns)
        .sum::<u64>() as f64
        / 1e9;
    let lower_s = gsi_est_s + cat_est_s + gridftp_est_s + storage_est_s + objects_est_s;
    out.insert("gdmp.self_share", (gdmp_busy_s - lower_s) / wall);
    // Tracing adds one recorder enter/exit pair per span and nothing else.
    // The traced-minus-untraced wall difference is that cost too, but on a
    // shared host two repetitions of the same inputs differ by ±10 %, far
    // more than the recorder costs, so the cost is measured directly.
    let recorder = m.spans.as_ref().expect("traced repetition has spans");
    let recorder_s = recorder.spans().len() as f64 * probes::span_cost_ns(&mut sink) / 1e9;
    out.insert("driver.trace_overhead_pct", recorder_s / wall * 100.0);
    let self_ns = self_time_by_name(recorder.spans());
    let driver_self: u64 =
        self_ns.iter().filter(|(n, _)| n.starts_with("driver.")).map(|(_, ns)| ns).sum();
    out.insert("driver.unattributed_share", driver_self as f64 / 1e9 / wall);
    sink.finish();

    if let Err(e) = write_trace(recorder, trace_path) {
        errors.push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v =
                *out.get(name).unwrap_or_else(|| panic!("per-layer metric {name} not computed"));
            (name, v, unit)
        })
        .collect();
    Outcome {
        correct: errors.is_empty(),
        attempted: rep.attempted,
        failed: rep.failed,
        metrics,
        sim_digest: rep.sim.digest(),
        reps: plain.len() * 3,
        rep_seconds: Vec::new(),
        errors,
    }
}

fn write_trace(recorder: &crate::span::SpanRecorder, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    recorder.write_jsonl(&mut file)?;
    file.flush()
}
