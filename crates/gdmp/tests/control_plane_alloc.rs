//! The interned-id contract, asserted with a counting allocator: every
//! steady-state control-plane probe — WAN-profile lookup, observed-
//! throughput history, roster membership, roster iteration, chaos flow
//! checks, federated `lrc_holds`, and the interner primitives themselves
//! — performs **zero** heap allocation. Before interning, each of these
//! paths built owned `String`/tuple keys per call; the id-keyed maps make
//! the probes pure hashing.
//!
//! The allocator counts per thread, so neither the test harness's own
//! threads nor anything else running in the process leak into the
//! measured window.

#[path = "../../telemetry/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use gdmp::{Grid, SiteConfig};
use gdmp_intern::{Interner, SiteId, Symbol, SymbolTable};
use gdmp_replica_catalog::FederationConfig;

#[test]
fn steady_state_control_plane_probes_do_not_allocate() {
    // Setup (allocates freely): a federated grid with profiles, history,
    // and a published file.
    let names: Vec<String> = (0..12).map(|i| format!("site{i:03}")).collect();
    let mut builder = Grid::builder("alloc-probe").federation(FederationConfig::default());
    for (i, name) in names.iter().enumerate() {
        builder = builder.site(SiteConfig::named(name, &format!("{name}.grid"), 100 + i as u64));
    }
    let mut grid = builder.trust_all().build();
    grid.note_observed_throughput("site000", "site001", 2.5e7);
    grid.publish_file("site000", "hot.dat", bytes::Bytes::from_static(b"x"), "flat")
        .expect("publish");

    let mut table: SymbolTable<SiteId> = SymbolTable::new();
    let mut raw = Interner::new();
    for name in &names {
        table.intern(name);
        raw.intern(name);
    }

    // Warm pass outside the window: faults in any lazily-built state.
    let mut sink = 0u64;
    let probe_once = |grid: &Grid, sink: &mut u64| {
        for a in &names {
            for b in &names {
                *sink += grid.profile_between(a, b).link.rate_bps;
                *sink += grid.observed_bps(a, b).map_or(0, |v| v as u64);
                *sink += u64::from(grid.chaos_state().can_flow(a, b));
            }
            *sink += u64::from(grid.has_site(a));
            *sink += u64::from(grid.federation().expect("federation on").lrc_holds(a, "hot.dat"));
            *sink += u64::from(table.try_id(a).expect("interned").index());
            *sink += raw.try_id(a).expect("interned") as u64;
        }
        *sink += grid.site_names_iter().map(|n| n.len() as u64).sum::<u64>();
        for id in (0..names.len() as u32).map(SiteId::from_index) {
            *sink += table.resolve(id).len() as u64;
        }
    };
    probe_once(&grid, &mut sink);

    let count = allocations_during(|| {
        for _ in 0..50 {
            probe_once(&grid, &mut sink);
        }
    });
    assert!(sink > 0, "probes folded real answers");
    assert_eq!(count, 0, "steady-state control-plane probes must be allocation-free");
}
