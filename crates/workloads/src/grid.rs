//! Grid-scale control-plane soak over a Tier-0/1/2 topology.
//!
//! The paper's deployment picture (§1, §6) is the LHC computing model: one
//! Tier-0 core (CERN), a ring of Tier-1 regional centres, and Tier-2 leaf
//! sites hanging off each region. The `grid_quick`, `grid_full` (105
//! sites) and `grid_at_scale_200` (201 sites) presets generate that
//! topology, enable the LRC/RLI federation, and drive a Zipf-distributed
//! mix of lookup / publish / fetch traffic through the interned-id control
//! plane ([`crate::scenario::run_grid_scenario`]).
//!
//! Everything is sim-time deterministic: same scenario + seed ⇒ identical
//! op counts, ladder splits, final clock, telemetry export, and trace. The
//! wall-clock side is reported by `gdmp-bench`'s `figures grid` human
//! table, not here.

use gdmp_simnet::time::SimDuration;

/// Topology + traffic shape of one grid-scale soak, turned into a scenario
/// by [`crate::Scenario::grid_soak`].
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
}

#[cfg(test)]
mod tests {
    use super::GridSoakSpec;
    use crate::scenario::{run_grid_scenario, Scenario};

    /// `benchmark/` builds its `grid_mix` input through `Scenario::grid_soak`;
    /// the three specs it starts from must stay the three committed files.
    #[test]
    fn grid_soak_builds_the_grid_presets() {
        for (spec, preset) in [
            (GridSoakSpec::quick(), "grid_quick"),
            (GridSoakSpec::full(), "grid_full"),
            (GridSoakSpec::at_scale(200), "grid_at_scale_200"),
        ] {
            let scenario = Scenario::preset(preset).unwrap();
            assert_eq!(scenario.topology.site_names().len(), spec.site_count(), "{preset}");
            assert_eq!(Scenario::grid_soak(&spec), scenario, "{preset}");
        }
    }

    #[test]
    fn topology_generator_scales_past_two_hundred_sites() {
        let sites = |preset| Scenario::preset(preset).unwrap().topology.site_names().len();
        assert_eq!(sites("grid_full"), 105);
        assert_eq!(sites("grid_at_scale_200"), 201);
    }

    fn quick() -> crate::GridSoakOutcome {
        run_grid_scenario(&Scenario::preset("grid_quick").unwrap()).unwrap()
    }

    #[test]
    fn quick_soak_is_deterministic() {
        let a = quick();
        let b = quick();
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
        let out = quick();
        assert_eq!(out.wrong_answers, 0);
        assert!(out.lookups > 0 && out.publishes > 0 && out.fetches > 0, "all op kinds exercised");
        assert!(out.replica_hit_rate() > 0.5, "warm index should answer most Zipf lookups");
    }
}
