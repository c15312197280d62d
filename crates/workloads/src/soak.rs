//! Seeded chaos soak: a small grid publishing and replicating while a
//! deterministic fault schedule crashes sites, cuts links, and splits the
//! network — then everything heals, the queues drain, and the invariants
//! of `gdmp::invariants` must hold.
//!
//! The whole run is a pure function of [`SoakSpec`]: same spec (and seed)
//! → identical event trace, identical final clock, identical metrics. A
//! failing run therefore prints its seed, and replaying that seed
//! reproduces the failure byte for byte.

use gdmp::invariants::InvariantReport;
use gdmp_simnet::time::SimDuration;
use gdmp_telemetry::Registry;

/// How much chaos the soak injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// No schedule installed at all — the pre-chaos code path.
    Off,
    /// An empty schedule installed: must behave identically to
    /// [`ChaosMode::Off`] (the inertness contract).
    EmptySchedule,
    /// A full [`gdmp::ChaosPlan`] derived from this seed.
    Seeded(u64),
}

/// Parameters of one soak run.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Number of sites, full-mesh subscribed (the issue asks for 4–6).
    pub sites: usize,
    /// Publish rounds before the drain phase.
    pub rounds: usize,
    /// Size of each published file.
    pub file_size: u64,
    /// Sim time between publish and drain steps within a round.
    pub round_gap: SimDuration,
    /// Max drain iterations after the fault horizon before giving up.
    pub drain_rounds: usize,
    pub chaos: ChaosMode,
}

impl SoakSpec {
    /// A soak sized for CI: 5 sites, 4 rounds, 64 KB files.
    pub fn quick(chaos: ChaosMode) -> Self {
        SoakSpec {
            sites: 5,
            rounds: 4,
            file_size: 64 * 1024,
            round_gap: SimDuration::from_secs(30),
            drain_rounds: 20,
            chaos,
        }
    }
}

/// Everything a soak run produced, sufficient for convergence assertions
/// and same-seed determinism comparisons.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    pub spec_chaos: ChaosMode,
    /// Files published across all rounds.
    pub published: usize,
    /// Replication reports completed (including retried/deferred ones).
    pub replicated: usize,
    /// Final sim clock in nanoseconds.
    pub final_clock_ns: u64,
    /// Debug rendering of the installed fault schedule (empty for
    /// [`ChaosMode::Off`]).
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

/// Run one soak. Deterministic: no wall clocks, no ambient randomness. A
/// thin wrapper over the scenario DSL
/// ([`crate::scenario::Scenario::replication_soak`]), so a committed
/// `scenarios/` file replays exactly this run.
pub fn run_soak(spec: &SoakSpec) -> SoakOutcome {
    crate::scenario::run_soak_scenario(&crate::scenario::Scenario::replication_soak(spec))
        .expect("builtin soak scenario is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_without_chaos_converges() {
        let out = run_soak(&SoakSpec::quick(ChaosMode::Off));
        assert!(out.converged(), "{:?}", out.report.violations);
        assert!(out.published > 0);
        assert!(out.replicated >= out.published * 2, "full mesh fan-out");
        assert!(out.schedule_debug.is_empty());
    }

    #[test]
    fn empty_schedule_matches_off_exactly() {
        let off = run_soak(&SoakSpec::quick(ChaosMode::Off));
        let empty = run_soak(&SoakSpec::quick(ChaosMode::EmptySchedule));
        assert_eq!(off.trace, empty.trace);
        assert_eq!(off.final_clock_ns, empty.final_clock_ns);
        assert_eq!(off.published, empty.published);
        assert_eq!(off.replicated, empty.replicated);
        assert_eq!(
            off.registry.export_json_lines(),
            empty.registry.export_json_lines(),
            "an installed-but-empty schedule must be byte-identical to no schedule"
        );
    }
}
