//! Scenario-driven runners, one workload loop per [`WorkloadDecl`] kind,
//! and what each run produces. Every run is deterministic: no wall
//! clocks, no ambient randomness, so the same scenario yields the same
//! trace, final clock and telemetry export, byte for byte — a failing run
//! replays from its file and seed.

use bytes::Bytes;
use gdmp::invariants::{check_grid, InvariantReport};
use gdmp::prelude::*;
use gdmp_replica_catalog::FederationStats;
use gdmp_telemetry::{MetricValue, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::result::Result;

use super::compile::{assemble, fault_horizon};
use super::{Faults, Scenario, ScenarioError, WorkloadDecl};
use crate::zipf::Zipf;

/// Everything one fetch run produced.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The measured replication report for the hot file.
    pub report: ReplicationReport,
    /// Wall (sim) time of the measured fetch.
    pub elapsed: SimDuration,
    /// Aggregate goodput of the measured fetch, Mb/s.
    pub agg_mbps: f64,
    /// Bytes credited per source, `(site, bytes)`, every source listed.
    pub per_source_bytes: Vec<(String, u64)>,
    /// Ranges moved between sources (reassignments + work steals).
    pub ranges_reassigned: u64,
    /// Plan rebuilds forced by source deaths.
    pub plan_rebuilds: u64,
    /// Invariant sweep after the run was driven to convergence.
    pub converged: bool,
    /// The run's telemetry registry, for deeper assertions.
    pub registry: Registry,
}

/// Everything a replication soak produced, sufficient for convergence
/// assertions and same-seed determinism comparisons.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Files published across all rounds.
    pub published: usize,
    /// Replication reports completed (including retried/deferred ones).
    pub replicated: usize,
    /// Final sim clock in nanoseconds.
    pub final_clock_ns: u64,
    /// Debug rendering of the installed fault schedule (empty unless the
    /// faults are `seeded`).
    pub schedule_debug: String,
    /// Deterministic event trace: flight-recorder events as
    /// `t_ns kind detail` lines.
    pub trace: Vec<String>,
    /// The invariant sweep over the final grid state.
    pub report: InvariantReport,
    /// The run's telemetry registry (counters for retries, backoff waits,
    /// breaker trips, replayed notices, resync repairs, ...).
    pub registry: Registry,
}

impl SoakOutcome {
    pub fn converged(&self) -> bool {
        self.report.is_clean()
    }
}

/// Everything one catalog soak produced.
#[derive(Debug, Clone)]
pub struct CatalogSoakOutcome {
    /// Files published (sites down at publish time skip their turn).
    pub published: usize,
    /// Lookups attempted / answered with confirmed holders.
    pub lookups: usize,
    pub answered: usize,
    /// Lookups that failed honestly (every reachable LRC denied, or the
    /// ladder ran out of reachable LRCs). Nonzero only under chaos.
    pub failed: usize,
    /// Answers per ladder rung, keyed by [`gdmp::LookupVia::label`] order:
    /// local, rli, fallback, scatter.
    pub via_local: usize,
    pub via_rli: usize,
    pub via_fallback: usize,
    pub via_scatter: usize,
    /// Answers produced while part of the index was dead.
    pub degraded_answers: usize,
    /// The federation's own counters (wrong_answers is the contract).
    pub stats: FederationStats,
    pub final_clock_ns: u64,
    pub schedule_debug: String,
    pub trace: Vec<String>,
    pub report: InvariantReport,
    pub registry: Registry,
}

impl CatalogSoakOutcome {
    pub fn converged(&self) -> bool {
        self.report.is_clean()
    }

    /// The never-wrong contract, directly.
    pub fn never_wrong(&self) -> bool {
        self.stats.wrong_answers == 0
    }
}

/// Counters and artifacts of one grid soak. Every field except `registry`
/// is deterministic for a given scenario.
#[derive(Debug)]
pub struct GridSoakOutcome {
    pub sites: usize,
    pub lookups: u64,
    pub publishes: u64,
    pub fetches: u64,
    /// Lookups answered by the requester's own LRC or a confirmed RLI hint.
    pub index_hits: u64,
    pub fallbacks: u64,
    pub scatters: u64,
    pub confirms: u64,
    pub false_positives: u64,
    /// The federation's correctness contract: must be zero.
    pub wrong_answers: u64,
    pub final_clock_ns: u64,
    /// Telemetry events formatted `"{t_ns} {kind} {detail:?}"`.
    pub trace: Vec<String>,
    pub registry: Registry,
}

impl GridSoakOutcome {
    /// Fraction of lookups the index answered without fan-out or scatter.
    pub fn replica_hit_rate(&self) -> f64 {
        self.index_hits as f64 / (self.lookups as f64).max(1.0)
    }
}

/// What [`run_scenario`] produced, by workload kind.
#[derive(Debug)]
pub enum ScenarioOutcome {
    Fetch(FetchOutcome),
    ReplicationSoak(SoakOutcome),
    CatalogSoak(CatalogSoakOutcome),
    GridSoak(GridSoakOutcome),
}

/// Run whatever workload the scenario declares.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
    match &scenario.workload {
        WorkloadDecl::Fetch { .. } => run_fetch_scenario(scenario).map(ScenarioOutcome::Fetch),
        WorkloadDecl::ReplicationSoak { .. } => {
            run_soak_scenario(scenario).map(ScenarioOutcome::ReplicationSoak)
        }
        WorkloadDecl::CatalogSoak { .. } => {
            run_catalog_scenario(scenario).map(ScenarioOutcome::CatalogSoak)
        }
        WorkloadDecl::GridSoak { .. } => run_grid_scenario(scenario).map(ScenarioOutcome::GridSoak),
    }
}

fn counter_sum(reg: &Registry, name: &str, label_frags: &[&str]) -> u64 {
    reg.metrics_snapshot()
        .iter()
        .filter(|(n, labels, _)| n == name && label_frags.iter().all(|f| labels.contains(f)))
        .map(|(_, _, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

fn trace_of(reg: &Registry) -> Vec<String> {
    reg.recent_events().iter().map(|e| format!("{} {} {:?}", e.t_ns, e.kind, e.detail)).collect()
}

/// The measured fetch: one hot file with a replica at every source, one
/// consumer. With a fault timeline the run is driven to convergence after
/// the measured fetch (restart, resync) before the invariant sweep.
pub fn run_fetch_scenario(scenario: &Scenario) -> Result<FetchOutcome, ScenarioError> {
    let WorkloadDecl::Fetch { size, lfn, dst, sources, t0_ns, settle_ns } = &scenario.workload
    else {
        return Err(ScenarioError::Workload(format!(
            "run_fetch_scenario needs a `fetch` workload, got `{}`",
            scenario.workload.kind()
        )));
    };
    let t0 = SimTime::ZERO + SimDuration::from_nanos(*t0_ns);
    let crash = matches!(&scenario.faults, Faults::Timeline { events } if !events.is_empty());

    let compiled = assemble(scenario)?;
    let mut grid = compiled.grid;
    let reg = compiled.registry;

    // Seed: publish at the first source, pre-replicate to the others over
    // the fast paths, then park the clock at exactly t0.
    let fill: Vec<u8> = (0..*size).map(|i| (i % 251) as u8).collect();
    grid.publish_file(&sources[0], lfn, Bytes::from(fill), "flat").expect("publish");
    for src in &sources[1..] {
        grid.replicate(src, lfn).expect("replica seeding");
    }
    assert!(grid.now() < t0, "seeding must finish before the measured fetch");
    grid.advance(t0.since(grid.now()));

    // The measured fetch.
    let before = reg.metrics_snapshot();
    let report = grid.replicate(dst, lfn).expect("measured fetch");
    let elapsed = report.total_time();
    let agg_mbps = report.effective_mbps();

    // Per-source attribution: transfer_bytes counters on the source→dst
    // edges that grew during the measured fetch (seeding traffic went to
    // the other sources and is excluded by the dst label).
    let before_bytes = |src: &str| {
        before
            .iter()
            .filter(|(n, labels, _)| {
                n == "transfer_bytes"
                    && labels.contains(&format!("src={src}"))
                    && labels.contains(&format!("dst={dst}"))
            })
            .map(|(_, _, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum::<u64>()
    };
    let per_source_bytes: Vec<(String, u64)> = sources
        .iter()
        .map(|src| {
            let frags = [format!("src={src}"), format!("dst={dst}")];
            let frags: Vec<&str> = frags.iter().map(String::as_str).collect();
            let after = counter_sum(&reg, "transfer_bytes", &frags);
            (src.to_string(), after.saturating_sub(before_bytes(src)))
        })
        .collect();

    // Drive the run to convergence: let any crashed source restart and
    // resync, then sweep the invariants.
    if crash {
        grid.advance(SimDuration::from_nanos(*settle_ns));
        grid.run_recovery();
    }
    let invariants = check_grid(&mut grid);

    Ok(FetchOutcome {
        report,
        elapsed,
        agg_mbps,
        per_source_bytes,
        ranges_reassigned: counter_sum(&reg, "ranges_reassigned", &[]),
        plan_rebuilds: counter_sum(&reg, "plan_rebuilds", &[]),
        converged: invariants.is_clean(),
        registry: reg,
    })
}

/// The replication chaos soak: publish and replicate while the fault plan
/// runs, then let every fault fire and heal, drain the queues, and sweep
/// the invariants of `gdmp::invariants`.
pub fn run_soak_scenario(scenario: &Scenario) -> Result<SoakOutcome, ScenarioError> {
    let WorkloadDecl::ReplicationSoak { rounds, file_size, round_gap_ns, drain_rounds } =
        &scenario.workload
    else {
        return Err(ScenarioError::Workload(format!(
            "run_soak_scenario needs a `replication_soak` workload, got `{}`",
            scenario.workload.kind()
        )));
    };
    let round_gap = SimDuration::from_nanos(*round_gap_ns);

    let compiled = assemble(scenario)?;
    let mut grid = compiled.grid;
    let reg = compiled.registry;
    let names = compiled.names;
    let horizon = fault_horizon(&grid);

    let mut published = 0usize;
    let mut replicated = 0usize;
    for round in 0..*rounds {
        for (i, name) in names.iter().enumerate() {
            // Alternate publishers each round; a crashed GDMP server
            // publishes nothing.
            if (round + i) % 2 != 0 || grid.chaos_state().is_down(name) {
                continue;
            }
            let lfn = format!("{name}_r{round}.dat");
            let fill = ((i + round) % 251) as u8;
            let data = Bytes::from(vec![fill; *file_size as usize]);
            grid.publish_file(name, &lfn, data, "flat").expect("publish on a live site");
            published += 1;
        }
        grid.advance(round_gap);
        for name in &names {
            if grid.chaos_state().is_down(name) {
                continue;
            }
            let reports = grid.replicate_pending(name).expect("only retryable failures deferred");
            replicated += reports.len();
        }
        crate::observe::sample_grid_series(&grid, &reg);
        grid.advance(round_gap);
    }

    // Let every scheduled fault fire and heal.
    let now = grid.now();
    if horizon > now {
        grid.advance(horizon - now + SimDuration::from_secs(1));
    }

    // Drain: replay journals, resync restarted sites, retry deferred
    // replications until the grid is quiescent (or the budget runs out).
    for _ in 0..*drain_rounds {
        grid.run_recovery();
        for name in &names {
            let reports = grid.replicate_pending(name).expect("only retryable failures deferred");
            replicated += reports.len();
        }
        grid.advance(SimDuration::from_secs(30));
        crate::observe::sample_grid_series(&grid, &reg);
        let quiescent = grid.chaos_state().pending_restarts() == 0
            && names.iter().all(|n| {
                let s = grid.site(n).expect("site exists");
                s.import_queue.is_empty() && s.journal.is_empty()
            });
        if quiescent {
            break;
        }
    }

    let report = check_grid(&mut grid);
    Ok(SoakOutcome {
        published,
        replicated,
        final_clock_ns: grid.now().nanos(),
        schedule_debug: compiled.schedule_debug,
        trace: trace_of(&reg),
        report,
        registry: reg,
    })
}

/// The federated-catalog lookup soak: publish a file population, then fire
/// Zipf-skewed lookups at the federation while the fault plan crashes RLI
/// nodes, loses soft-state updates and delays answers. Slower rungs of the
/// degradation ladder are fine; a wrong answer panics mid-soak.
pub fn run_catalog_scenario(scenario: &Scenario) -> Result<CatalogSoakOutcome, ScenarioError> {
    let WorkloadDecl::CatalogSoak {
        files_per_site,
        lookup_rounds,
        lookups_per_round,
        zipf_alpha,
        file_size,
        round_gap_ns,
    } = &scenario.workload
    else {
        return Err(ScenarioError::Workload(format!(
            "run_catalog_scenario needs a `catalog_soak` workload, got `{}`",
            scenario.workload.kind()
        )));
    };
    let round_gap = SimDuration::from_nanos(*round_gap_ns);
    let sites = scenario.topology.site_names().len();

    let compiled = assemble(scenario)?;
    let mut grid = compiled.grid;
    let reg = compiled.registry;
    let names = compiled.names;
    let horizon = fault_horizon(&grid);
    let file_name = |f: usize| format!("file{f:04}.dat");

    // Publish phase: every file has exactly one owner, owner i holding
    // files i, i+sites, i+2*sites, ... A site that is down when its turn
    // comes publishes nothing (exactly like the replication soak).
    let total_files = sites * files_per_site;
    let mut published = 0usize;
    for f in 0..total_files {
        let owner = &names[f % sites];
        if grid.chaos_state().is_down(owner) {
            continue;
        }
        let fill = (f % 251) as u8;
        grid.publish_file(
            owner,
            &file_name(f),
            Bytes::from(vec![fill; *file_size as usize]),
            "flat",
        )
        .expect("publish on a live site");
        published += 1;
    }

    // Lookup phase: Zipf-skewed queries from rotating requesters while
    // the fault plan does its worst. The one inviolable check runs every
    // round: the federation has never returned a wrong answer.
    let zipf = Zipf::new(total_files.max(1), *zipf_alpha);
    let mut rng = StdRng::seed_from_u64(0x0CA7_A106 ^ scenario.seed);
    let mut lookups = 0usize;
    let mut answered = 0usize;
    let mut failed = 0usize;
    let (mut via_local, mut via_rli, mut via_fallback, mut via_scatter) = (0, 0, 0, 0);
    let mut degraded_answers = 0usize;
    for _round in 0..*lookup_rounds {
        grid.advance(round_gap);
        for _ in 0..*lookups_per_round {
            let requester = &names[rng.gen_range(0..sites)];
            if grid.chaos_state().is_down(requester) {
                continue;
            }
            let lfn = file_name(zipf.sample(&mut rng));
            lookups += 1;
            match grid.lookup_replicas(requester, &lfn) {
                Ok(r) => {
                    answered += 1;
                    match r.via {
                        LookupVia::Local => via_local += 1,
                        LookupVia::Rli => via_rli += 1,
                        LookupVia::Fallback => via_fallback += 1,
                        LookupVia::Scatter => via_scatter += 1,
                        LookupVia::Central => unreachable!("federation is on"),
                    }
                    if r.degraded {
                        degraded_answers += 1;
                    }
                }
                // Honest misses only: the owner's LRC was dead or cut off
                // (retryable), or it was never published because the owner
                // was down at publish time.
                Err(GdmpError::SiteUnreachable(_)) | Err(GdmpError::NotPublished(_)) => failed += 1,
                Err(e) => panic!("unexpected lookup error: {e}"),
            }
        }
        let stats = &grid.federation().expect("federation on").stats;
        assert_eq!(stats.wrong_answers, 0, "federation returned a wrong answer mid-soak");
    }

    // Heal and quiesce: run past the fault horizon, then drain restarts.
    let now = grid.now();
    if horizon > now {
        grid.advance(horizon - now + SimDuration::from_secs(1));
    }
    for _ in 0..20 {
        grid.run_recovery();
        grid.advance(SimDuration::from_secs(30));
        if grid.chaos_state().pending_restarts() == 0 {
            break;
        }
    }

    // Post-heal sweep: with every fault healed and fresh soft state
    // flowed, every published file must be findable again — the ladder
    // always completes once the grid is whole.
    for f in 0..total_files {
        let lfn = file_name(f);
        if grid.catalog.locate(&lfn).map(|l| l.is_empty()).unwrap_or(true) {
            continue; // owner was down at publish time; never existed
        }
        let requester = &names[(f * 7) % sites];
        lookups += 1;
        match grid.lookup_replicas(requester, &lfn) {
            Ok(_) => answered += 1,
            Err(e) => panic!("post-heal lookup of {lfn} failed: {e}"),
        }
    }

    let report = check_grid(&mut grid);
    let stats = grid.federation().expect("federation on").stats.clone();
    Ok(CatalogSoakOutcome {
        published,
        lookups,
        answered,
        failed,
        via_local,
        via_rli,
        via_fallback,
        via_scatter,
        degraded_answers,
        stats,
        final_clock_ns: grid.now().nanos(),
        schedule_debug: compiled.schedule_debug,
        trace: trace_of(&reg),
        report,
        registry: reg,
    })
}

/// The Tier-0/1/2 control-plane mix (see [`crate::grid`]): seed a file
/// population round-robin, then a 70/20/10 Zipf lookup/publish/fetch mix
/// from random requesters.
pub fn run_grid_scenario(scenario: &Scenario) -> Result<GridSoakOutcome, ScenarioError> {
    let WorkloadDecl::GridSoak {
        files_per_site,
        rounds,
        ops_per_round,
        zipf_alpha,
        file_size,
        round_gap_ns,
    } = &scenario.workload
    else {
        return Err(ScenarioError::Workload(format!(
            "run_grid_scenario needs a `grid_soak` workload, got `{}`",
            scenario.workload.kind()
        )));
    };
    let round_gap = SimDuration::from_nanos(*round_gap_ns);

    let compiled = assemble(scenario)?;
    let mut grid = compiled.grid;
    let reg = compiled.registry;
    let names = compiled.names;
    let sites = names.len();
    let file_name = |f: usize| format!("file{f:05}.dat");

    // Seed the population round-robin across all tiers, then let two
    // soft-state rounds warm the RLI tree.
    let total_files = sites * files_per_site;
    for f in 0..total_files {
        let owner = &names[f % sites];
        grid.publish_file(owner, &file_name(f), Bytes::from(vec![7u8; *file_size]), "flat")
            .expect("seeding a healthy grid");
    }
    grid.advance(SimDuration::from_secs(65));

    let mut out = GridSoakOutcome {
        sites,
        lookups: 0,
        publishes: 0,
        fetches: 0,
        index_hits: 0,
        fallbacks: 0,
        scatters: 0,
        confirms: 0,
        false_positives: 0,
        wrong_answers: 0,
        final_clock_ns: 0,
        trace: Vec::new(),
        registry: reg.clone(),
    };

    let zipf = Zipf::new(total_files, *zipf_alpha);
    let mut rng = StdRng::seed_from_u64(0x9A1D_50AC ^ scenario.seed);
    let mut published = total_files;

    for _round in 0..*rounds {
        grid.advance(round_gap);
        for _op in 0..*ops_per_round {
            let requester = names[rng.gen_range(0..sites)].clone();
            let roll: u32 = rng.gen_range(0..100);
            if roll < 70 {
                // Zipf lookup: hot files dominate, exactly like the
                // web-caching access patterns the paper cites.
                let lfn = file_name(zipf.sample(&mut rng));
                let r = grid.lookup_replicas(&requester, &lfn).expect("healthy grid answers");
                out.lookups += 1;
                out.confirms += u64::from(r.confirms);
                out.false_positives += u64::from(r.false_positives);
                match r.via {
                    LookupVia::Local | LookupVia::Rli => out.index_hits += 1,
                    LookupVia::Fallback => out.fallbacks += 1,
                    LookupVia::Scatter => out.scatters += 1,
                    LookupVia::Central => {}
                }
            } else if roll < 90 {
                // Publish a brand-new file at the chosen site.
                let lfn = file_name(published);
                published += 1;
                grid.publish_file(&requester, &lfn, Bytes::from(vec![7u8; *file_size]), "flat")
                    .expect("publish on a live site");
                out.publishes += 1;
            } else {
                // Fetch (replicate) a hot file to the chosen site; pulling
                // a replica it already holds is a no-op success.
                let lfn = file_name(zipf.sample(&mut rng));
                match grid.replicate(&requester, &lfn) {
                    Ok(_) | Err(GdmpError::AlreadyReplicated { .. }) => out.fetches += 1,
                    Err(e) => panic!("healthy grid fetch failed: {e}"),
                }
            }
        }
    }

    out.final_clock_ns = grid.now().nanos();
    if let Some(fed) = grid.federation() {
        out.wrong_answers = fed.stats.wrong_answers;
    }
    out.trace = trace_of(&reg);
    Ok(out)
}
