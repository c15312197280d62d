//! The multi-source fetch scenario: one hot file, three replicas behind
//! asymmetric WAN paths, one consumer. Shared by `figures fetch`, the
//! committed `BENCH_fetch.json` baseline, the CI fetch smoke, and the
//! integration tests, so they all measure exactly the same grid.
//!
//! Topology (all paths uncontended, rates deliberately asymmetric):
//!
//! ```text
//!   cern  --- 20 Mb/s, 40 ms RTT --->+
//!   fnal  --- 12 Mb/s, 70 ms RTT --->+--> lyon
//!   kek   ---  8 Mb/s, 120 ms RTT -->+
//! ```
//!
//! A single-source fetch is bounded by the best path (20 Mb/s); a striped
//! fetch can draw on the aggregate (~40 Mb/s). With
//! [`FetchSpec::crash_fastest`] the best source dies three sim-seconds
//! into the measured fetch, exercising mid-transfer range reassignment
//! (multi-source) or salvage-and-failover (single-source).

use gdmp::prelude::*;

/// The replicated hot file.
pub const FETCH_LFN: &str = "hot_aod.dat";
/// The consumer site.
pub const FETCH_DST: &str = "lyon";
/// Source sites, fastest path first.
pub const FETCH_SOURCES: [&str; 3] = ["cern", "fnal", "kek"];

/// The measured fetch starts at exactly this sim time; replica seeding
/// happens before it, faults are scheduled relative to it.
pub fn fetch_t0() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(1_000)
}

/// The striped policy the scenario measures. A 2 MB chunk quantum keeps
/// the per-source queues balanceable (fine-grained work stealing) while
/// staying cheap: only the first chunk per source pays session setup and
/// TCP slow-start — later chunks ride the warm data channels.
pub fn striped_policy() -> FetchPolicy {
    FetchPolicy::MultiSource { max_sources: 3, min_chunk: 2 * crate::MB }
}

/// One fetch experiment.
#[derive(Debug, Clone)]
pub struct FetchSpec {
    /// Bytes of the hot file.
    pub size: u64,
    /// The policy under test.
    pub policy: FetchPolicy,
    /// Crash the fastest source 3 s into the measured fetch (it restarts
    /// 600 s later; the run is then driven to convergence).
    pub crash_fastest: bool,
    /// Jitter seed for the retry strategy.
    pub seed: u64,
}

impl Default for FetchSpec {
    fn default() -> Self {
        FetchSpec {
            size: 48 * crate::MB,
            policy: FetchPolicy::SingleSource,
            crash_fastest: false,
            seed: 0xFE7C,
        }
    }
}

/// Everything one fetch run produced.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    pub spec: FetchSpec,
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

/// Run one fetch experiment. Deterministic: no wall clocks, no ambient
/// randomness; same spec ⇒ identical outcome. A thin wrapper over the
/// scenario DSL: the grid, faults, and workload come from
/// [`crate::scenario::Scenario::fetch`], so a committed `scenarios/`
/// file replays exactly this run.
pub fn run_fetch(spec: &FetchSpec) -> FetchOutcome {
    crate::scenario::run_fetch_scenario(&crate::scenario::Scenario::fetch(spec))
        .expect("builtin fetch scenario is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_source_beats_single_source_on_asymmetric_paths() {
        let single = run_fetch(&FetchSpec::default());
        let multi = run_fetch(&FetchSpec { policy: striped_policy(), ..FetchSpec::default() });
        assert!(single.converged && multi.converged);
        let speedup = multi.agg_mbps / single.agg_mbps;
        assert!(
            speedup >= 1.5,
            "striping must aggregate asymmetric paths: {:.1} vs {:.1} Mb/s ({speedup:.2}x)",
            multi.agg_mbps,
            single.agg_mbps
        );
        // Every source contributed in the striped run.
        assert!(multi.per_source_bytes.iter().all(|(_, b)| *b > 0), "{:?}", multi.per_source_bytes);
    }

    #[test]
    fn crashed_source_reassigns_ranges_and_converges() {
        let out = run_fetch(&FetchSpec {
            policy: striped_policy(),
            crash_fastest: true,
            ..FetchSpec::default()
        });
        assert!(out.converged, "grid must converge after the crash heals");
        assert!(out.plan_rebuilds >= 1, "the crash must force a plan rebuild");
        assert!(out.ranges_reassigned >= 1, "the dead source's ranges must move");
        let cern = out.per_source_bytes.iter().find(|(s, _)| s == "cern").unwrap().1;
        assert!(cern < out.spec.size, "the crashed source cannot have delivered everything");
    }

    #[test]
    fn fetch_runs_are_deterministic() {
        let spec =
            FetchSpec { policy: striped_policy(), crash_fastest: true, ..FetchSpec::default() };
        let a = run_fetch(&spec);
        let b = run_fetch(&spec);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.per_source_bytes, b.per_source_bytes);
        assert_eq!(a.ranges_reassigned, b.ranges_reassigned);
        assert_eq!(a.registry.export_json_lines(), b.registry.export_json_lines());
    }
}
