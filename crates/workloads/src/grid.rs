//! Grid-scale control-plane soak over a Tier-0/1/2 topology.
//!
//! The paper's deployment picture (§1, §6) is the LHC computing model: one
//! Tier-0 core (CERN), a ring of Tier-1 regional centres, and Tier-2 leaf
//! sites hanging off each region. This workload generates that topology at
//! a configurable scale — the `full` spec builds 105 sites and the
//! generator goes well past 200 — enables the LRC/RLI federation, and
//! drives a Zipf-distributed mix of lookup / publish / fetch traffic
//! through the interned-id control plane.
//!
//! Everything is sim-time deterministic: same spec + seed ⇒ identical op
//! counts, ladder splits, final clock, telemetry export, and trace. The
//! wall-clock side is reported by `gdmp-bench`'s `figures grid` human
//! table, not here.

use gdmp_simnet::time::SimDuration;
use gdmp_telemetry::Registry;

/// Topology + traffic shape of one grid-scale soak.
#[derive(Debug, Clone)]
pub struct GridSoakSpec {
    /// Tier-1 regional centres (the Tier-0 core is always exactly one).
    pub tier1: usize,
    /// Tier-2 leaf sites per regional centre.
    pub tier2_per_tier1: usize,
    /// Files seeded on every site before traffic starts.
    pub files_per_site: usize,
    /// Traffic rounds; the sim clock advances [`GridSoakSpec::round_gap`]
    /// between rounds so soft-state propagation interleaves with load.
    pub rounds: usize,
    /// Operations per round (lookup / publish / fetch, Zipf-selected).
    pub ops_per_round: usize,
    /// Zipf exponent over the file population (rank 0 hottest).
    pub zipf_alpha: f64,
    /// Payload size of every seeded and published file, bytes.
    pub file_size: usize,
    /// Sim-time gap between rounds.
    pub round_gap: SimDuration,
    /// Seed for the op mix (requesters, ranks, op kinds).
    pub seed: u64,
}

impl GridSoakSpec {
    /// Small topology (16 sites) that keeps test and smoke runs fast.
    pub fn quick() -> Self {
        GridSoakSpec {
            tier1: 3,
            tier2_per_tier1: 4,
            files_per_site: 2,
            rounds: 3,
            ops_per_round: 24,
            zipf_alpha: 0.9,
            file_size: 8 * 1024,
            round_gap: SimDuration::from_secs(30),
            seed: 0x6D19_50AC,
        }
    }

    /// The acceptance-scale topology: 1 + 8 + 8×12 = 105 sites.
    pub fn full() -> Self {
        GridSoakSpec {
            tier1: 8,
            tier2_per_tier1: 12,
            rounds: 4,
            ops_per_round: 48,
            ..Self::quick()
        }
    }

    /// Scale the leaf fan-out until the topology reaches at least
    /// `total_sites` sites (used by the 200+-site bench points).
    pub fn at_scale(total_sites: usize) -> Self {
        let mut spec = Self::full();
        while spec.site_count() < total_sites {
            spec.tier2_per_tier1 += 1;
        }
        spec
    }

    /// 1 Tier-0 + Tier-1 ring + Tier-2 leaves.
    pub fn site_count(&self) -> usize {
        1 + self.tier1 + self.tier1 * self.tier2_per_tier1
    }

    /// Deterministic site names, Tier-0 first, then each region followed by
    /// its leaves.
    pub fn site_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.site_count());
        names.push(tier0_name());
        for r in 0..self.tier1 {
            names.push(tier1_name(r));
            for s in 0..self.tier2_per_tier1 {
                names.push(tier2_name(r, s));
            }
        }
        names
    }
}

fn tier0_name() -> String {
    "t0-core".to_string()
}

fn tier1_name(region: usize) -> String {
    format!("t1-r{region:02}")
}

fn tier2_name(region: usize, site: usize) -> String {
    format!("t2-r{region:02}-s{site:02}")
}

/// Counters and artifacts of one soak run. Every field except `registry`
/// is deterministic for a given spec.
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

/// Build the tiered grid, seed the Zipf population, run the traffic mix.
/// A thin wrapper over the scenario DSL
/// ([`crate::scenario::Scenario::grid_soak`]), so a committed
/// `scenarios/` file replays exactly this run.
pub fn run_grid_soak(spec: &GridSoakSpec) -> GridSoakOutcome {
    crate::scenario::run_grid_scenario(&crate::scenario::Scenario::grid_soak(spec))
        .expect("builtin grid scenario is always valid")
}

pub(crate) fn file_name(f: usize) -> String {
    format!("file{f:05}.dat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_is_deterministic() {
        let a = run_grid_soak(&GridSoakSpec::quick());
        let b = run_grid_soak(&GridSoakSpec::quick());
        assert_eq!(a.sites, 16);
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.publishes, b.publishes);
        assert_eq!(a.fetches, b.fetches);
        assert_eq!(a.index_hits, b.index_hits);
        assert_eq!(a.confirms, b.confirms);
        assert_eq!(a.final_clock_ns, b.final_clock_ns);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.registry.export_json_lines(), b.registry.export_json_lines());
    }

    #[test]
    fn quick_soak_never_wrong_and_mostly_index_hits() {
        let out = run_grid_soak(&GridSoakSpec::quick());
        assert_eq!(out.wrong_answers, 0);
        assert!(out.lookups > 0 && out.publishes > 0 && out.fetches > 0, "all op kinds exercised");
        assert!(out.replica_hit_rate() > 0.5, "warm index should answer most Zipf lookups");
    }

    #[test]
    fn topology_generator_scales_past_two_hundred_sites() {
        let spec = GridSoakSpec::at_scale(200);
        assert!(spec.site_count() >= 200);
        assert_eq!(spec.site_names().len(), spec.site_count());
        assert_eq!(GridSoakSpec::full().site_count(), 105);
    }
}
