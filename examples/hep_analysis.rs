//! The Section 5 story end-to-end: a physics analysis cascade whose later
//! steps are served by object replication.
//!
//! ```text
//! cargo run -p gdmp-examples --release --bin hep_analysis
//! ```

use gdmp::{Grid, ObjectReplicationConfig, SiteConfig};
use gdmp_objectstore::ObjectKind;
use gdmp_workloads::{CascadeSpec, Placement, Population};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 1));
    grid.add_site(SiteConfig::named("caltech", "caltech.edu", 2));
    grid.trust_all();

    // CERN hosts the experiment's data: tags, AODs and ESDs for 20 000
    // events (sizes scaled 100× down so the demo runs in memory).
    const KINDS: &[ObjectKind] = &[ObjectKind::Tag, ObjectKind::Aod, ObjectKind::Esd];
    let population = Population {
        events: 20_000,
        kinds: KINDS,
        placement: Placement::ByKindChunks { events_per_file: 2_000 },
        size_scale: 0.01,
    };
    let files = population.build(&mut grid, "cern")?;
    println!(
        "cern hosts {} events in {} files ({} objects, ~{} KB payload)",
        20_000,
        files.len(),
        grid.object_view.object_count(),
        population.total_bytes() / 1024
    );

    // The producer publishes the global object→file view as an index file
    // (Section 5.2), replicated on demand like any other file.
    let index = grid.publish_object_view_index("cern")?;
    println!("cern publishes the object view as {index}");

    // A physicist at Caltech runs the selection cascade. Tag files are
    // small: replicate them whole (file replication is fine there).
    for f in files.iter().filter(|f| f.starts_with("tag.")) {
        grid.replicate("caltech", f)?;
    }
    println!("tag files replicated to caltech (file-level: cheap, dense reads)");

    // The cascade narrows the event set step by step.
    let cascade = CascadeSpec::canonical(20_000, 0xC0FFEE);
    let steps = cascade.run();
    for (i, s) in steps.iter().enumerate() {
        println!(
            "step {}: {} events enter, reading {} objects ({} KB)",
            i + 1,
            s.entered,
            s.kind.name(),
            s.bytes_read() / 1024
        );
    }

    // Steps 2 and 3 need AOD/ESD objects for the *surviving* events only —
    // the sparse sets where file replication would ship mostly ballast.
    for s in &steps[1..3] {
        let cover = grid.file_level_cover(&s.reads);
        let report =
            grid.object_replicate("caltech", &s.reads, ObjectReplicationConfig::default())?;
        println!(
            "{}-step: object replication moved {} objects / {} KB in {:.1}s \
             (file replication would ship {} KB — {:.0}× more)",
            s.kind.name(),
            report.objects_moved,
            report.bytes_moved / 1024,
            report.makespan.as_secs_f64(),
            cover.total_bytes / 1024,
            cover.total_bytes as f64 / report.bytes_moved.max(1) as f64
        );
    }

    // The analysis at Caltech now navigates its local federation.
    let esd_step = &steps[2];
    let caltech = grid.site_mut("caltech")?;
    let mut readable = 0;
    for oid in &esd_step.reads {
        if caltech.federation.get(*oid).is_ok() {
            readable += 1;
        }
    }
    println!(
        "caltech analysis: {}/{} {} objects readable locally; grid clock {}",
        readable,
        esd_step.reads.len(),
        esd_step.kind.name(),
        grid.now()
    );
    assert_eq!(readable, esd_step.reads.len());

    // A site that joins late bootstraps its view of where the produced
    // objects live from the replicated index file, not from CERN's
    // catalogue.
    grid.add_site(SiteConfig::named("fnal", "fnal.gov", 3));
    grid.trust_all();
    grid.replicate("fnal", &index)?;
    let view = grid.load_object_view_index("fnal", &index)?;
    println!(
        "fnal joins late: its view from {index} locates {} objects in {} files",
        view.object_count(),
        view.file_count()
    );
    assert_eq!(view.file_count(), files.len());
    Ok(())
}
