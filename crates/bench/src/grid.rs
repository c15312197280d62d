//! The interned-id control-plane scenario shared by the grid baseline
//! ([`crate::baselines`]) and the `figures grid` subcommand.
//!
//! Two kinds of point:
//!
//! * **Control-plane points** drive a deterministic probe mix (WAN-profile
//!   lookups, observed-throughput history, roster membership, periodic
//!   roster sweeps) through the interned-id [`Grid`] and fold every answer
//!   into a checksum, which the baseline pins.
//! * **Soak points** run the Tier-0/1/2 grid soak presets (`grid_quick`,
//!   `grid_full`, `grid_at_scale_200`) and report their deterministic
//!   ladder split and replica hit rate.
//!
//! Both also time themselves; the wall numbers appear only in the human
//! `figures grid` table, never in a baseline or in `--json` output.

use std::time::Instant;

use gdmp::prelude::*;
use gdmp_workloads::scenario::{run_grid_scenario, Scenario};

/// Scales the control-plane points run at.
pub const GRID_SITES: [usize; 3] = [50, 100, 200];

/// Probes per control-plane point; fixed so checksums are comparable.
pub const GRID_OPS: usize = 400_000;

/// Soak presets: the quick 16-site topology, the 105-site acceptance
/// topology, and a 201-site stretch point.
pub const SOAK_PRESETS: [&str; 3] = ["grid_quick", "grid_full", "grid_at_scale_200"];

/// A grid of `sites` sites with WAN profiles and throughput history on a
/// ring plus a star off site000: enough pairs that probes hit real entries
/// as well as the default-profile fallback.
fn probe_grid(sites: usize) -> (Grid, Vec<String>) {
    let names: Vec<String> = (0..sites).map(|i| format!("site{i:03}")).collect();
    let mut builder = Grid::builder("bench-grid");
    for (i, name) in names.iter().enumerate() {
        builder = builder.site(SiteConfig::named(name, &format!("{name}.grid"), 900 + i as u64));
    }
    let mut grid = builder.trust_all().build();
    let tuned = WanProfile::cern_anl_production();
    for i in 0..sites {
        let (a, ring) = (&names[i], &names[(i + 1) % sites]);
        grid.set_profile(a, ring, tuned);
        grid.note_observed_throughput(a, ring, 1e6 + i as f64);
        if i > 0 {
            grid.set_profile(&names[0], a, tuned);
        }
    }
    (grid, names)
}

fn fold(checksum: &mut u64, v: u64) {
    *checksum = checksum.wrapping_mul(0x100000001B3).wrapping_add(v);
}

/// One measured control-plane point.
#[derive(Debug, Clone)]
pub struct ControlPlanePoint {
    pub sites: usize,
    pub ops: u64,
    /// Deterministic fold of every probe answer.
    pub checksum: u64,
    /// Probes per wall-clock second (host-dependent).
    pub ops_per_sec: f64,
}

/// Run the probe mix at `sites` scale. Each probe is a profile lookup, a
/// history lookup, a membership test and — every 16th — a roster sweep.
pub fn run_control_plane_bench(sites: usize) -> ControlPlanePoint {
    let (grid, names) = probe_grid(sites);
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for i in 0..GRID_OPS {
        let a: &str = &names[(i * 31) % sites];
        let b: &str = &names[(i * 7919 + 1) % sites];
        fold(&mut checksum, grid.profile_between(a, b).link.rate_bps);
        fold(&mut checksum, grid.observed_bps(a, b).map_or(0, |v| v as u64));
        fold(&mut checksum, u64::from(grid.has_site(a)));
        if i % 16 == 0 {
            fold(&mut checksum, grid.site_names_iter().map(|n| n.len() as u64).sum());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    ControlPlanePoint {
        sites,
        ops: GRID_OPS as u64,
        checksum,
        ops_per_sec: GRID_OPS as f64 / wall.max(1e-9),
    }
}

/// Every control-plane scale.
pub fn run_control_plane_grid() -> Vec<ControlPlanePoint> {
    GRID_SITES.iter().map(|&s| run_control_plane_bench(s)).collect()
}

// ---- soak points ----------------------------------------------------------

/// One Tier-0/1/2 soak point: deterministic ladder split plus wall time.
#[derive(Debug, Clone)]
pub struct GridSoakPoint {
    pub sites: usize,
    pub lookups: u64,
    pub publishes: u64,
    pub fetches: u64,
    pub index_hits: u64,
    pub fallbacks: u64,
    pub scatters: u64,
    pub confirms: u64,
    pub false_positives: u64,
    pub wrong_answers: u64,
    pub replica_hit_rate: f64,
    pub final_clock_ns: u64,
    /// Wall seconds for the whole soak (host-dependent).
    pub wall_s: f64,
}

/// Run one soak preset.
pub fn grid_soak_point(preset: &str) -> GridSoakPoint {
    let scenario = Scenario::preset(preset).expect("the grid soak presets are valid");
    let t0 = Instant::now();
    let out = run_grid_scenario(&scenario).expect("a grid soak preset runs");
    let wall = t0.elapsed().as_secs_f64();
    GridSoakPoint {
        sites: out.sites,
        lookups: out.lookups,
        publishes: out.publishes,
        fetches: out.fetches,
        index_hits: out.index_hits,
        fallbacks: out.fallbacks,
        scatters: out.scatters,
        confirms: out.confirms,
        false_positives: out.false_positives,
        wrong_answers: out.wrong_answers,
        replica_hit_rate: out.replica_hit_rate(),
        final_clock_ns: out.final_clock_ns,
        wall_s: wall,
    }
}

/// Every soak preset.
pub fn grid_soak_points() -> Vec<GridSoakPoint> {
    SOAK_PRESETS.iter().map(|p| grid_soak_point(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_plane_checksums_agree_and_reproduce() {
        let a = run_control_plane_bench(10);
        let b = run_control_plane_bench(10);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.ops, GRID_OPS as u64);
    }

    #[test]
    fn soak_point_is_deterministic_and_never_wrong() {
        let a = grid_soak_point("grid_quick");
        let b = grid_soak_point("grid_quick");
        assert_eq!(a.wrong_answers, 0);
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.index_hits, b.index_hits);
        assert_eq!(a.final_clock_ns, b.final_clock_ns);
        assert!(a.replica_hit_rate > 0.0);
    }
}
