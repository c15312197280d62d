//! `Population::build` writes each database file once, as the image it
//! publishes, and indexes the objects as views into that image: no
//! per-object payload buffer, file name, second encoding of the file,
//! holder list or association label; what is left per object is its
//! associations' `Vec`. The guard counts heap allocations (per thread, so
//! nothing else running in the process leaks in) and measures no time.

#[path = "../../telemetry/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use gdmp::prelude::*;
use gdmp_objectstore::ObjectKind;
use gdmp_workloads::{Placement, Population};

const KINDS: &[ObjectKind] = &[ObjectKind::Tag, ObjectKind::Aod, ObjectKind::Esd];

#[test]
fn build_allocates_at_most_one_and_a_half_times_per_object() {
    let mut grid = Grid::new("alloc-probe");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 1));
    grid.add_site(SiteConfig::named("anl", "anl.gov", 2));
    grid.trust_all();
    let pop = Population {
        events: 20_000,
        kinds: KINDS,
        placement: Placement::ByKindChunks { events_per_file: 2_000 },
        size_scale: 0.01,
    };
    let objects = pop.events * KINDS.len() as u64;
    let allocations = allocations_during(|| {
        pop.build(&mut grid, "cern").unwrap();
    });
    assert!(
        2 * allocations <= 3 * objects,
        "Population::build made {allocations} allocations for {objects} objects ({:.2} each)",
        allocations as f64 / objects as f64
    );
}
