//! `Grid::trust_all` grows with the number of sites, not with the number
//! of site pairs: every site joins one shared VO gridmap by reference
//! instead of receiving a private copy of every other site's entry. The
//! guard counts heap allocations (per thread, so nothing else running in
//! the process leaks in) and measures no time.

#[path = "../../telemetry/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use gdmp::{Grid, SiteConfig};

fn trust_all_allocations(sites: usize) -> u64 {
    let mut grid = Grid::new("alloc-probe");
    for i in 0..sites {
        let name = format!("site{i:03}");
        grid.add_site(SiteConfig::named(&name, &format!("{name}.grid"), 100 + i as u64));
    }
    allocations_during(|| grid.trust_all())
}

#[test]
fn trust_all_allocates_linearly_in_sites() {
    let (small, large) = (trust_all_allocations(50), trust_all_allocations(200));
    // Four times the sites: about four times the allocations. A private
    // entry per site pair would be about sixteen times.
    assert!(large <= 5 * small, "trust_all allocations: {small} at 50 sites, {large} at 200");
}
