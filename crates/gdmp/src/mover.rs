//! The Data Mover (Section 4.3): one pipeline for every fetch. Select and
//! rank the sources, plan the byte ranges, run a prologue per member, run
//! attempts, verify, install (DESIGN §12). A single-source fetch is the
//! plan with one member pulling the whole remaining range, the other
//! ranked sources on standby; a striped fetch is the same plan with k
//! members. Every attempt goes through [`Grid::attempt`], every failure
//! through [`Grid::handle_failure`].

use bytes::Bytes;
use gdmp_gridftp::crc::crc32;
use gdmp_replica_catalog::service::ReplicaInfo;
use gdmp_simnet::time::{SimDuration, SimTime};
use gdmp_telemetry::Registry;

use crate::error::{GdmpError, Result};
use crate::failure::{FaultPlan, FaultState, Verdict};
use crate::grid::{Grid, ReplicationReport};
use crate::message::{FileNotice, Request, Response};
use crate::plugins::PluginCtx;
use crate::recovery::{FailureCtx, FailureKind, RecoveryAction};
use crate::schedule::{FetchPolicy, MultiSourcePlan, PlanExecution};
use crate::selection::SourceEstimate;

/// One replication in flight: its plan and what its report accumulates.
struct Fetch<'a> {
    dst: &'a str,
    lfn: &'a str,
    info: &'a ReplicaInfo,
    reg: &'a Registry,
    exec: PlanExecution,
    /// Start of the data phase, once the initial members are prepared.
    /// Member timelines count from here.
    base: Option<SimTime>,
    /// Per member: its handle on the file once its prologue pinned it,
    /// kept after it leaves (the ranges it landed stay valid).
    held: Vec<Option<Bytes>>,
    /// Per member: whether it already had an attempt of any kind, so that
    /// a cold session on it is a reconnect.
    tried: Vec<bool>,
    /// Per member: whether its data channels are open (the next pull is
    /// warm: no handshake, no slow-start).
    warm: Vec<bool>,
    /// The member whose clean attempt completed the file.
    finisher: Option<usize>,
    /// Failures so far, prologues' and attempts' (`attempts_total`).
    failures: u32,
    /// The report as it accumulates; `attempts` counts prologue failures
    /// plus transfer attempts.
    report: ReplicationReport,
}

impl Fetch<'_> {
    fn name(&self, idx: usize) -> String {
        self.exec.sources()[idx].name.clone()
    }
}

/// How one transfer attempt ended. `burned` is the time it took on its
/// member's timeline (setup plus data phase).
enum Attempt {
    Clean { burned: SimDuration },
    Failed { kind: FailureKind, salvaged: u64, burned: SimDuration },
}

impl Grid {
    /// Inject a fault plan for a file's future transfers from any source.
    pub fn inject_fault(&mut self, lfn: &str, plan: FaultPlan) {
        let lfn = self.lfns.intern(lfn);
        self.faults.insert((lfn, None), FaultState::new(plan));
    }

    /// Inject a fault plan for transfers of `lfn` sourced from `site` only
    /// (models a flaky path or bad disks at one replica).
    pub fn inject_fault_at(&mut self, lfn: &str, site: &str, plan: FaultPlan) {
        let lfn = self.lfns.intern(lfn);
        let site = self.intern_site(site);
        self.faults.insert((lfn, Some(site)), FaultState::new(plan));
    }

    /// The next injected-fault verdict for a transfer of `lfn` from
    /// `source`. Probes are allocation-free: an lfn or site never named by
    /// an injection is not interned, so unknown names short-circuit clean.
    fn fault_verdict(&mut self, lfn: &str, source: &str) -> Verdict {
        if self.faults.is_empty() {
            return Verdict::Clean;
        }
        let Some(lfn) = self.lfns.try_id(lfn) else { return Verdict::Clean };
        if let Some(site) = self.site_ids.try_id(source) {
            if let Some(state) = self.faults.get_mut(&(lfn, Some(site))) {
                return state.next_verdict();
            }
        }
        match self.faults.get_mut(&(lfn, None)) {
            Some(state) => state.next_verdict(),
            None => Verdict::Clean,
        }
    }

    /// One failure against `source` at `at`: feed the circuit breaker and
    /// ask the recovery strategy for a verdict. Returns it with the backoff
    /// to serve before a retry (zero otherwise); the caller serves it on
    /// whichever clock the failure ran on.
    pub(crate) fn handle_failure(
        &mut self,
        source: &str,
        at: SimTime,
        ctx: &FailureCtx,
        reg: &Registry,
    ) -> (RecoveryAction, SimDuration) {
        if self.breaker.record_failure(source, at) {
            reg.counter_add("breaker_trips", &[("src", source)], 1);
            reg.series_set("breaker_open", &[("src", source)], at.nanos(), 1);
            reg.record(
                at.nanos(),
                "breaker_open",
                format!("{source}: circuit opened after consecutive failures"),
            );
        }
        let action = self.recovery.decide(ctx);
        let verdict_label = match action {
            RecoveryAction::RetrySameSource => "retry_same_source",
            RecoveryAction::FailoverToNextSource => "failover",
            RecoveryAction::GiveUp => "give_up",
        };
        reg.counter_add("recovery_verdicts", &[("action", verdict_label)], 1);
        let wait = match action {
            RecoveryAction::RetrySameSource => self.recovery.backoff(ctx),
            _ => SimDuration::ZERO,
        };
        if wait > SimDuration::ZERO {
            let backoff_span = reg.span_start("backoff", at.nanos());
            reg.span_note(backoff_span, "src", source);
            reg.span_end(backoff_span, (at + wait).nanos());
            reg.counter_add("backoff_waits", &[("src", source)], 1);
            reg.observe("backoff_wait_ns", &[], wait.nanos());
        }
        (action, wait)
    }

    /// Unpin a file at a source, tolerating the pin having vanished (a
    /// crash clears all pins, so a failover after a source crash must not
    /// turn the bookkeeping cleanup into a second error).
    fn unpin_quiet(&mut self, site: &str, lfn: &str) {
        if let Ok(s) = self.site_mut(site) {
            let _ = s.storage.pool.unpin(lfn);
        }
    }

    /// Replicate `lfn` to `dst` from the best available sources, running
    /// the full GDMP pipeline: source selection → staging → space
    /// allocation → parallel WAN transfer with restart/retry → CRC
    /// verification → post-processing → catalog registration. On repeated
    /// failure the installed [`crate::RecoveryStrategy`] may fail over to the
    /// next-cheapest replica; GridFTP restart markers stay valid across
    /// sources (every replica has identical content), so progress carries
    /// over.
    pub fn replicate(&mut self, dst: &str, lfn: &str) -> Result<ReplicationReport> {
        let started_at = self.clock;
        let info = self.catalog.info(lfn).map_err(|_| GdmpError::NotPublished(lfn.to_string()))?;
        if info.replicas.iter().any(|r| r.location == dst) {
            return Err(GdmpError::AlreadyReplicated {
                lfn: lfn.to_string(),
                site: dst.to_string(),
            });
        }
        if !self.has_site(dst) {
            return Err(GdmpError::NoSuchSite(dst.to_string()));
        }
        self.refuse_down_destination(dst)?;
        // When the federation is live, source discovery routes through the
        // lookup ladder: every candidate is confirmed against its
        // authoritative LRC, so the flow never pulls from a site whose copy
        // is stale catalog fiction. An unreachable-catalog error surfaces as
        // retryable and defers to `replicate_pending` like any other outage.
        let info = if self.federation.is_some() {
            let lookup = self.lookup_replicas(dst, lfn)?;
            let mut filtered = info;
            filtered.replicas.retain(|r| lookup.holders.contains(&r.location));
            if filtered.replicas.is_empty() {
                return Err(GdmpError::NotPublished(lfn.to_string()));
            }
            filtered
        } else {
            info
        };
        let reg = self.telemetry.clone();
        let root = reg.span_start("replicate", started_at.nanos());
        reg.span_note(root, "lfn", lfn);
        reg.span_note(root, "dst", dst);
        let result = self.fetch_replica(dst, lfn, &info, started_at, &reg);
        match &result {
            Ok(r) => {
                reg.span_note(root, "src", r.from.as_str());
                reg.span_note(root, "attempts", u64::from(r.attempts));
                reg.span_note(root, "bytes_moved", r.bytes_moved);
                reg.counter_add("replications_total", &[("result", "ok")], 1);
                reg.observe("replicate_duration_ns", &[], r.total_time().nanos());
                reg.record(
                    self.clock.nanos(),
                    "replicated",
                    format!("{lfn} {} -> {dst} ({} B)", r.from, r.bytes),
                );
            }
            Err(e) => {
                reg.span_note(root, "error", e.to_string());
                reg.counter_add("replications_total", &[("result", "failed")], 1);
                reg.record(self.clock.nanos(), "replicate_failed", format!("{lfn} -> {dst}: {e}"));
            }
        }
        // Scope-close: this also ends any child span an error path leaked.
        reg.span_end(root, self.clock.nanos());
        result
    }

    /// The pipeline body of [`Grid::replicate`]; the caller owns the root
    /// telemetry span and outcome accounting.
    fn fetch_replica(
        &mut self,
        dst: &str,
        lfn: &str,
        info: &ReplicaInfo,
        started_at: SimTime,
        reg: &Registry,
    ) -> Result<ReplicationReport> {
        let estimates = self.select_sources(dst, lfn, info, reg)?;
        let size = info.meta.size;
        let (members, quantum) = match self.fetch {
            FetchPolicy::SingleSource => (1, size),
            FetchPolicy::MultiSource { max_sources, min_chunk } => (max_sources, min_chunk),
        };
        // The plan's members then standbys are the ranked estimates, in order.
        let plan = MultiSourcePlan::build(lfn, size, &estimates, members, quantum);
        let mut exec = PlanExecution::new(plan);
        exec.set_predictions(&estimates.iter().map(|e| e.predicted_bps).collect::<Vec<_>>());
        let report = ReplicationReport {
            lfn: lfn.to_string(),
            to: dst.to_string(),
            bytes: size,
            started_at,
            ..ReplicationReport::default()
        };
        let mut f = Fetch {
            dst,
            lfn,
            info,
            reg,
            exec,
            base: None,
            held: Vec::new(),
            tried: Vec::new(),
            warm: Vec::new(),
            finisher: None,
            failures: 0,
            report,
        };
        let outcome = self.run_plan(&mut f);

        // The data phase took as long as the slowest member's timeline.
        if let Some(base) = f.base {
            self.clock = self.clock.max(base + f.exec.finish_elapsed());
        }
        for (s, held) in f.exec.sources().iter().zip(&f.held) {
            if s.alive && held.is_some() {
                self.unpin_quiet(&s.name, lfn);
            }
        }
        if f.exec.ranges_reassigned > 0 {
            reg.counter_add("ranges_reassigned", &[("dst", dst)], f.exec.ranges_reassigned);
        }
        if f.exec.plan_rebuilds > 0 {
            reg.counter_add("plan_rebuilds", &[("dst", dst)], f.exec.plan_rebuilds);
        }
        outcome?;

        // The fetch of record is the largest contributor still in the plan;
        // per-source byte counts live in the telemetry counters.
        let mut report = f.report;
        report.from = f
            .exec
            .sources()
            .iter()
            .filter(|s| s.alive)
            .max_by(|a, b| a.bytes_fetched.cmp(&b.bytes_fetched).then_with(|| b.name.cmp(&a.name)))
            .map(|s| s.name.clone())
            .expect("a complete plan has a live member");
        // Every replica holds identical content (publication CRC), and each
        // credited range stays valid after its source left. A copy that
        // fails the check closes no breaker and installs nothing.
        let data = f.exec.assemble(&f.held);
        let crc_span = reg.span_start("crc_verify", self.clock.nanos());
        self.clock += SimDuration::from_millis(1); // CRC pass
        let passed = crc32(&data) == info.meta.crc32;
        reg.span_note(crc_span, "passed", passed);
        reg.span_end(crc_span, self.clock.nanos());
        if !passed {
            reg.counter_add("crc_failures", &[("src", report.from.as_str()), ("dst", dst)], 1);
            return Err(GdmpError::IntegrityFailure { lfn: lfn.to_string() });
        }
        if let Some(idx) = f.finisher {
            let source = f.exec.sources()[idx].name.as_str();
            self.breaker.record_success(source);
            reg.series_set("breaker_open", &[("src", source)], self.clock.nanos(), 0);
        }

        self.install_replica(dst, lfn, info, &report.from, &data, reg)?;

        report.finished_at = self.clock;
        self.reports.push(report.clone());
        Ok(report)
    }

    /// Replica selection: rank the sources by estimated cost, then skip
    /// those whose circuit breaker is open — unless every candidate is
    /// open, in which case probing the cheapest beats failing without
    /// trying.
    fn select_sources(
        &mut self,
        dst: &str,
        lfn: &str,
        info: &ReplicaInfo,
        reg: &Registry,
    ) -> Result<Vec<SourceEstimate>> {
        let select_span = reg.span_start("select_source", self.clock.nanos());
        let mut estimates = crate::selection::estimate_sources(self, dst, info)?;
        reg.span_note(select_span, "candidates", estimates.len() as u64);
        if let Some(best) = estimates.first() {
            reg.span_note(select_span, "best", best.site.as_str());
        }
        for e in &estimates {
            reg.span_note(select_span, e.site.as_str(), e.predicted_bps as u64);
        }
        reg.span_end(select_span, self.clock.nanos());
        if estimates.is_empty() {
            return Err(GdmpError::NotPublished(lfn.to_string()));
        }
        if self.breaker.any_open(self.clock) {
            let now = self.clock;
            let healthy = estimates.iter().filter(|e| !self.breaker.is_open(&e.site, now)).count();
            if healthy > 0 && healthy < estimates.len() {
                reg.counter_add("breaker_skips", &[], (estimates.len() - healthy) as u64);
                let breaker = &self.breaker;
                estimates.retain(|e| !breaker.is_open(&e.site, now));
            }
        }
        Ok(estimates)
    }

    /// Drive the plan until the file is complete (`Ok`) or the fetch fails.
    /// Members run concurrently on private timelines anchored at the start
    /// of the data phase; the member furthest behind moves next.
    fn run_plan(&mut self, f: &mut Fetch) -> Result<()> {
        loop {
            // Initial members in rank order, then any promoted standby.
            while f.held.len() < f.exec.sources().len() {
                let idx = f.held.len();
                f.held.push(None);
                f.tried.push(false);
                f.warm.push(false);
                self.prologue(f, idx)?;
            }
            let base = *f.base.get_or_insert(self.clock);
            while f.exec.steal_for_idle() {}
            let Some((idx, chunk)) = f.exec.next_chunk() else {
                debug_assert!(f.exec.is_complete(), "a stuck plan fails where a member leaves");
                return Ok(());
            };
            let at = base + f.exec.sources()[idx].elapsed;
            match self.attempt(f, idx, chunk, at)? {
                Attempt::Clean { burned } => {
                    f.exec.chunk_succeeded(idx, chunk, burned);
                    f.warm[idx] = true;
                    if f.exec.is_complete() {
                        // Its breaker closes once the file verifies.
                        f.finisher = Some(idx);
                    } else {
                        let source = f.exec.sources()[idx].name.as_str();
                        self.breaker.record_success(source);
                        let end = (at + burned).nanos();
                        f.reg.series_set("breaker_open", &[("src", source)], end, 0);
                    }
                }
                Attempt::Failed { kind, salvaged, burned } => {
                    f.warm[idx] = false;
                    let failure = (kind, salvaged, burned);
                    if let Some(wait) = self.fail(f, idx, failure, at + burned, None)? {
                        f.exec.charge(idx, wait);
                    }
                }
            }
        }
    }

    /// Make member `idx` ready to serve: reachability, `PrepareFile`
    /// (staging from tape if needed), the file type's pre-processing, and
    /// a pin for the duration. A promoted standby starts where the leaver
    /// stopped. A retryable failure is a failure of the member, decided
    /// like any attempt's.
    fn prologue(&mut self, f: &mut Fetch, idx: usize) -> Result<()> {
        let source = f.name(idx);
        let (dst, lfn, reg) = (f.dst, f.lfn, f.reg);
        // The data phase's members keep their timelines in step with the
        // grid clock while a prologue runs on it.
        let sync = |grid: &mut Grid, f: &mut Fetch| {
            if let Some(base) = f.base {
                let at = base + f.exec.sources()[idx].elapsed;
                grid.clock = grid.clock.max(at);
                f.exec.charge(idx, grid.clock.since(at));
            }
        };
        sync(self, f);
        while let Some(e) = self.prepare_file(f, &source)? {
            f.report.attempts += 1;
            f.tried[idx] = true;
            reg.counter_add("source_unreachable", &[("src", source.as_str())], 1);
            let failure = (FailureKind::Unreachable, 0, SimDuration::ZERO);
            match self.fail(f, idx, failure, self.clock, Some(&e))? {
                Some(wait) => self.clock += wait,
                None => return Ok(()),
            }
        }
        if f.info.meta.file_type == "objectivity" {
            let pre_span = reg.span_start("preprocess", self.clock.nanos());
            reg.span_note(pre_span, "step", "schema_import");
            self.import_schema(&source, dst)?;
            reg.span_end(pre_span, self.clock.nanos());
        }
        // The handle keeps the bytes for reassembly even if this source
        // later crashes or leaves.
        let pool = &mut self.site_mut(&source)?.storage.pool;
        pool.pin(lfn)?;
        f.held[idx] = Some(pool.peek(lfn).expect("pinned file is resident"));
        sync(self, f);
        Ok(())
    }

    /// The prologue's network half: ask the source, over one RPC, to make
    /// the file disk-resident. The RPC costs one RTT; the rest is staging
    /// latency. `Ok(Some(e))` is a retryable failure — source down, path
    /// cut — with no pin held yet.
    fn prepare_file(&mut self, f: &mut Fetch, source: &str) -> Result<Option<GdmpError>> {
        let (dst, reg) = (f.dst, f.reg);
        if let Some((_, refused)) = self.refusal(dst, source, true) {
            // A crashed source is named; any other refusal is the data
            // path from it cut.
            return Ok(Some(match refused {
                GdmpError::SiteUnreachable(site) if site == source => {
                    GdmpError::SiteUnreachable(site)
                }
                _ => GdmpError::LinkDown { from: source.to_string(), to: dst.to_string() },
            }));
        }
        let stage_span = reg.span_start("staging", self.clock.nanos());
        reg.span_note(stage_span, "source", source);
        let before = self.clock;
        let rtt = self.profile_between(dst, source).rtt();
        let outcome = match self.rpc(dst, source, Request::PrepareFile { lfn: f.lfn.to_string() }) {
            Ok(Response::FileReady { was_staged, .. }) => {
                let staged_for = self.clock.since(before).nanos().saturating_sub(rtt.nanos());
                f.report.stage_latency = f.report.stage_latency + SimDuration(staged_for);
                f.report.staged |= was_staged;
                reg.span_note(stage_span, "was_staged", was_staged);
                reg.observe("stage_latency_ns", &[], staged_for);
                Ok(None)
            }
            Ok(other) => panic!("PrepareFile returned {other:?}"),
            Err(e) if e.is_retryable() => {
                reg.span_note(stage_span, "error", e.to_string());
                Ok(Some(e))
            }
            Err(e) => Err(e),
        };
        reg.span_end(stage_span, self.clock.nanos());
        outcome
    }

    /// One attempt: member `idx` pulls `chunk`, starting at `at` on its
    /// timeline. The only way the Data Mover moves bytes: catch the grid
    /// clock up to `at`, apply due faults, refuse a severed path, run the
    /// session, then cut it short if a scheduled fault severs the path in
    /// flight, or fail it as the injected fault plan says.
    fn attempt(
        &mut self,
        f: &mut Fetch,
        idx: usize,
        chunk: (u64, u64),
        at: SimTime,
    ) -> Result<Attempt> {
        let (dst, lfn, reg) = (f.dst, f.lfn, f.reg);
        let source = f.exec.sources()[idx].name.as_str();
        let bytes = chunk.1 - chunk.0;
        self.clock = self.clock.max(at);
        f.report.attempts += 1;
        let reconnect = std::mem::replace(&mut f.tried[idx], true);
        // A fault may have fired during a backoff wait or a prior attempt: a
        // path already severed fails the attempt before any byte moves
        // (connection refused).
        if self.refusal(source, dst, false).is_some() {
            reg.counter_add("source_unreachable", &[("src", source)], 1);
            let detail = format!("{lfn}: {source} -> {dst} unreachable");
            reg.record(at.nanos(), "transfer_blocked", detail);
            let burned = SimDuration::ZERO;
            return Ok(Attempt::Failed { kind: FailureKind::Unreachable, salvaged: 0, burned });
        }
        // A source that crashed and restarted lost its pins with the crash:
        // pin again, so the file stays put while the restarted source serves.
        let pool = &mut self.site_mut(source)?.storage.pool;
        if !pool.is_pinned(lfn) {
            pool.pin(lfn)?;
        }
        let xfer_span = reg.span_start("transfer", at.nanos());
        reg.span_note(xfer_span, "source", source);
        reg.span_note(xfer_span, "attempt", u64::from(f.report.attempts));
        reg.span_note(xfer_span, "bytes_requested", bytes);
        // The first pull on a member pays GridFTP session setup and TCP
        // slow-start; later chunks reuse the established data channels
        // (warm windows, no handshake). A failure forces a reconnect.
        let warm = f.warm[idx];
        let profile = self.profile_between(source, dst);
        let report = self.session(&profile, bytes, warm, reg);
        let setup = if warm { SimDuration::ZERO } else { report.setup_time };
        f.report.setup_time = f.report.setup_time + setup;
        let pair_labels = [("src", source), ("dst", dst)];
        reg.counter_add("transfer_retransmits", &pair_labels, report.retransmitted_segments);
        // Does a scheduled fault sever this path while the attempt is in
        // flight? The connection dies at that instant; restart markers keep
        // what had arrived.
        let data_start = at + setup;
        let cut_at = if self.chaos.is_active() {
            self.chaos.first_cut_in_window(source, dst, at, data_start + report.data_time)
        } else {
            None
        };
        let (kind, got, burned) = match cut_at {
            Some(cut) => {
                let data_ns = report.data_time.nanos().max(1);
                let elapsed = cut.nanos().saturating_sub(data_start.nanos()).min(data_ns);
                let got = (bytes as f64 * (elapsed as f64 / data_ns as f64)) as u64;
                (Some(FailureKind::Unreachable), got, SimDuration::from_nanos(elapsed))
            }
            None => match self.fault_verdict(lfn, source) {
                Verdict::Clean => (None, bytes, report.data_time),
                Verdict::Abort { fraction } => {
                    let partial =
                        SimDuration::from_secs_f64(report.data_time.as_secs_f64() * fraction);
                    (Some(FailureKind::Aborted), (bytes as f64 * fraction) as u64, partial)
                }
                // The whole attempt crossed the wire; the CRC catches it and
                // its range is pulled again.
                Verdict::Corrupt => (Some(FailureKind::Corrupted), bytes, report.data_time),
            },
        };
        let end = data_start + burned;
        f.report.data_time = f.report.data_time + burned;
        // A failed attempt's restart marker never covers its whole range; a
        // corrupt one keeps nothing.
        let salvaged = match kind {
            None => bytes,
            Some(FailureKind::Corrupted) => 0,
            Some(_) => got.min(bytes - 1),
        };
        f.report.bytes_moved += if kind == Some(FailureKind::Corrupted) { bytes } else { salvaged };
        if kind == Some(FailureKind::Corrupted) {
            reg.counter_add("crc_failures", &pair_labels, 1);
        } else {
            // The per-link utilisation and per-destination fetch-throughput
            // time-series (no-ops unless the registry keeps time-series).
            reg.counter_add("transfer_bytes", &pair_labels, salvaged);
            reg.series_add("link_bytes", &pair_labels, end.nanos(), salvaged);
            reg.series_add("fetch_bytes", &[("dst", dst)], end.nanos(), salvaged);
            if kind.is_some() {
                reg.counter_add("restart_events", &pair_labels, 1);
            }
        }
        let (streams, buffer) = (self.params.streams, self.params.buffer);
        profile.trace_transfer(reg, at.nanos(), setup, burned, streams, buffer, warm, reconnect);
        let outcome = match kind {
            None => "clean",
            Some(FailureKind::Unreachable) => "severed",
            Some(FailureKind::Aborted) => "aborted",
            Some(FailureKind::Corrupted) => "corrupt",
        };
        reg.span_note(xfer_span, "outcome", outcome);
        if kind.is_some_and(|k| k != FailureKind::Corrupted) {
            reg.span_note(xfer_span, "bytes_salvaged", salvaged);
        }
        reg.span_end(xfer_span, end.nanos());
        let burned = setup + burned;
        let Some(kind) = kind else {
            if self.fetch != FetchPolicy::SingleSource {
                // Striped grids learn link throughput; the default path stays
                // bit-stable run over run by never touching the history.
                let bps = bytes as f64 * 8.0 / report.data_time.as_secs_f64().max(1e-9);
                let ewma = self.note_observed_throughput(source, dst, bps);
                reg.gauge_set("source_throughput_ewma", &pair_labels, ewma as i64);
            }
            return Ok(Attempt::Clean { burned });
        };
        let (what, detail) = match kind {
            FailureKind::Unreachable => (
                "transfer_severed",
                format!("{lfn} from {source}: path died mid-flight, {salvaged} B salvaged"),
            ),
            FailureKind::Aborted => {
                ("transfer_abort", format!("{lfn} from {source}: {salvaged} of {bytes} B salvaged"))
            }
            FailureKind::Corrupted => (
                "crc_failure",
                format!("{lfn} from {source}: attempt {} discarded", f.report.attempts),
            ),
        };
        reg.record(end.nanos(), what, detail);
        Ok(Attempt::Failed { kind, salvaged, burned })
    }

    /// Member `idx` failed at `end`, `burned` into its timeline with
    /// `salvaged` bytes landed (`cause`: its prologue's error): the breaker
    /// and the recovery strategy decide. `Some(wait)` retries the member
    /// after the backoff, which the caller serves on the clock the failure
    /// ran on; `None` means it left the plan. A give-up, or a leave with no
    /// one left to take over, fails the fetch.
    fn fail(
        &mut self,
        f: &mut Fetch,
        idx: usize,
        (kind, salvaged, burned): (FailureKind, u64, SimDuration),
        end: SimTime,
        cause: Option<&GdmpError>,
    ) -> Result<Option<SimDuration>> {
        f.failures += 1;
        let members = f.exec.sources();
        let live = members.iter().filter(|s| s.alive).count() as u32;
        let ctx = FailureCtx {
            attempts_on_source: members[idx].attempts_on_source + 1,
            attempts_total: f.failures,
            sources_tried: members.len() as u32 - live + 1,
            sources_remaining: live - 1 + f.exec.standbys() as u32,
            kind,
        };
        let source = members[idx].name.clone();
        let (action, wait) = self.handle_failure(&source, end, &ctx, f.reg);
        f.exec.chunk_failed(idx, salvaged, burned);
        let fallback = match action {
            RecoveryAction::RetrySameSource => return Ok(Some(wait)),
            RecoveryAction::GiveUp => "retry budget exhausted",
            RecoveryAction::FailoverToNextSource => {
                // It leaves no earlier than the grid clock, which a prologue
                // runs on: a standby taking over starts from there.
                let left = f.base.map(|base| base + f.exec.sources()[idx].elapsed);
                f.exec.source_died(idx, left.map_or(SimDuration::ZERO, |t| self.clock.since(t)));
                if f.held[idx].is_some() {
                    self.unpin_quiet(&source, f.lfn);
                }
                let attempts = f.report.attempts;
                let detail = format!("{}: leaving {source} after {attempts} attempts", f.lfn);
                f.reg.record(end.nanos(), "failover", detail);
                if !f.exec.is_stuck() {
                    return Ok(None);
                }
                "no alternate sources left"
            }
        };
        Err(GdmpError::TransferFailed {
            lfn: f.lfn.to_string(),
            attempts: f.report.attempts,
            last_error: cause.map_or_else(|| fallback.to_string(), ToString::to_string),
        })
    }

    /// Deliver verified bytes to the destination: space reservation,
    /// file-type post-processing, replica registration, and import-queue
    /// cleanup.
    fn install_replica(
        &mut self,
        dst: &str,
        lfn: &str,
        info: &ReplicaInfo,
        origin: &str,
        data: &Bytes,
        reg: &Registry,
    ) -> Result<()> {
        let size = info.meta.size;
        {
            let reserve_span = reg.span_start("space_reserve", self.clock.nanos());
            reg.span_note(reserve_span, "bytes", size);
            let dst_site = self.site_mut(dst)?;
            let reservation = dst_site.storage.pool.allocate(size)?;
            dst_site.storage.pool.put_reserved(reservation, lfn, data.clone())?;
            reg.span_end(reserve_span, self.clock.nanos());
        }

        // Post-processing per file type (attach to federation, ...).
        {
            let post_span = reg.span_start("post_process", self.clock.nanos());
            reg.span_note(post_span, "file_type", info.meta.file_type.as_str());
            self.post_process(dst, lfn, &info.meta.file_type, data)?;
            reg.span_end(post_span, self.clock.nanos());
        }

        // Make the new replica visible to the grid.
        let register_span = reg.span_start("catalog_register", self.clock.nanos());
        let notice = FileNotice {
            lfn: lfn.to_string(),
            meta: info.meta.clone(),
            origin: origin.to_string(),
        };
        self.register_replica(dst, notice, false)?;
        let import_queue = &mut self.site_mut(dst)?.import_queue;
        import_queue.retain(|n| n.lfn != lfn);
        let depth = import_queue.len() as i64;
        reg.gauge_set("site_import_queue_depth", &[("site", dst)], depth);
        reg.series_set("site_import_queue_depth", &[("site", dst)], self.clock.nanos(), depth);
        reg.span_end(register_span, self.clock.nanos());
        Ok(())
    }

    /// Pre-processing (Section 4.1, file-type specific): files of an
    /// Objectivity source attach only where the source's schema is known,
    /// so it is installed at the destination before anything lands.
    pub(crate) fn import_schema(&mut self, source: &str, dst: &str) -> Result<()> {
        let src_schema = self.site(source)?.federation.schema.clone();
        self.site_mut(dst)?.federation.schema.import_from(&src_schema);
        Ok(())
    }

    fn post_process(&mut self, dst: &str, lfn: &str, file_type: &str, data: &Bytes) -> Result<()> {
        let mut discovered = Vec::new();
        {
            let slot = self.site_slot(dst).expect("checked above");
            let site = &mut self.sites[slot];
            // Split borrows: plugins and federation are separate fields.
            let plugins = std::mem::take(&mut site.plugins);
            let result = {
                let mut ctx = PluginCtx {
                    federation: &mut site.federation,
                    discovered_objects: &mut discovered,
                };
                plugins.for_type(file_type).post_process(&mut ctx, lfn, data)
            };
            site.plugins = plugins;
            result?;
        }
        for (file, objects) in discovered {
            self.object_view.record_file(&file, &objects);
        }
        Ok(())
    }
}
