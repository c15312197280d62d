//! Event-store population: filling a site's federation with event objects
//! under a chosen object→file placement policy.
//!
//! Section 5.1: "a smart initial placement of similar objects together in
//! the same files can raise the probability [that whole files match a
//! selection], but not by very much." The placement policies let the
//! benches quantify exactly that.

use std::iter::StepBy;
use std::ops::Range;

use gdmp::{Grid, Result};
use gdmp_objectstore::{FreshObject, LogicalOid, ObjectKind};

/// How objects are clustered into database files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One kind per file, consecutive event ranges (the natural layout of
    /// production: files of N raw events, files of N ESD events, ...).
    ByKindChunks { events_per_file: u64 },
    /// All kinds of an event range together in one file.
    MixedEvents { events_per_file: u64 },
    /// Events striped across files (worst case for selections with event
    /// locality): event e of kind k goes to file `e % files`.
    Striped { files: u64 },
}

/// One file of a population: its objects are, kind by kind, the objects of
/// `kinds` for `events`, ascending.
struct FileLayout<'a> {
    name: String,
    kinds: &'a [ObjectKind],
    events: StepBy<Range<u64>>,
}

/// Scale factor for object sizes (1.0 = the paper's nominal tiers; benches
/// usually run at 0.01–0.1 to stay in memory).
#[derive(Debug, Clone, Copy)]
pub struct Population {
    pub events: u64,
    pub kinds: &'static [ObjectKind],
    pub placement: Placement,
    pub size_scale: f64,
}

impl Population {
    /// AOD-only population, the common Section 5 scenario.
    pub fn aod(events: u64, events_per_file: u64) -> Self {
        const KINDS: &[ObjectKind] = &[ObjectKind::Aod];
        Population {
            events,
            kinds: KINDS,
            placement: Placement::ByKindChunks { events_per_file },
            size_scale: 1.0,
        }
    }

    pub fn scaled(mut self, scale: f64) -> Self {
        self.size_scale = scale;
        self
    }

    fn object_size(&self, kind: ObjectKind) -> usize {
        ((kind.nominal_size() as f64 * self.size_scale) as usize).max(16)
    }

    /// Which file (name) an object belongs to under the placement policy.
    pub fn file_for(&self, event: u64, kind: ObjectKind) -> String {
        let n = match self.placement {
            Placement::ByKindChunks { events_per_file }
            | Placement::MixedEvents { events_per_file } => event / events_per_file,
            Placement::Striped { files } => event % files,
        };
        self.file_name(kind, n)
    }

    /// The name of file number `n` (of kind `kind`'s files, where files
    /// hold one kind).
    fn file_name(&self, kind: ObjectKind, n: u64) -> String {
        match self.placement {
            Placement::ByKindChunks { .. } => format!("{}.{n:05}.db", kind.name()),
            Placement::MixedEvents { .. } => format!("events.{n:05}.db"),
            Placement::Striped { .. } => format!("stripe.{n:05}.db"),
        }
    }

    /// Every file in the order an object-by-object fill (kind by kind,
    /// events ascending) first touches it.
    fn layout(&self) -> Vec<FileLayout<'_>> {
        let n = self.events;
        let chunk = |c: u64, per: u64| (c * per..(n.min((c + 1) * per))).step_by(1);
        let file = |name, kinds, events| FileLayout { name, kinds, events };
        match self.placement {
            Placement::ByKindChunks { events_per_file } => self
                .kinds
                .iter()
                .flat_map(|kind| {
                    (0..n.div_ceil(events_per_file)).map(move |c| {
                        let name = self.file_name(*kind, c);
                        file(name, std::slice::from_ref(kind), chunk(c, events_per_file))
                    })
                })
                .collect(),
            _ if self.kinds.is_empty() => Vec::new(),
            Placement::MixedEvents { events_per_file } => (0..n.div_ceil(events_per_file))
                .map(|c| {
                    file(self.file_name(self.kinds[0], c), self.kinds, chunk(c, events_per_file))
                })
                .collect(),
            Placement::Striped { files } => (0..files.min(n))
                .map(|j| {
                    file(
                        self.file_name(self.kinds[0], j),
                        self.kinds,
                        (j..n).step_by(files as usize),
                    )
                })
                .collect(),
        }
    }

    /// Materialize the population in `site`'s federation and publish every
    /// file to the grid. Each file is produced whole, as the image that is
    /// published; objects are stored in the order of an object-by-object
    /// fill (kind by kind, events ascending). Returns the published file
    /// names.
    pub fn build(&self, grid: &mut Grid, site: &str) -> Result<Vec<String>> {
        let layout = self.layout();
        let mut files = Vec::with_capacity(layout.len());
        {
            let fed = &mut grid.site_mut(site)?.federation;
            let mut objects = Vec::new();
            for FileLayout { name, kinds, events } in layout {
                objects.clear();
                for &kind in kinds {
                    let len = self.object_size(kind);
                    objects.extend(events.clone().map(|event| FreshObject {
                        logical: LogicalOid::new(event, kind),
                        version: 1,
                        len,
                    }));
                }
                fed.produce(&name, &objects)?;
                files.push(name);
            }
        }
        for f in &files {
            grid.publish_database(site, f)?;
        }
        // Sample the post-publication storage state (staging backlog, hit
        // rate) into any enabled time-series.
        let reg = grid.telemetry().clone();
        crate::observe::sample_grid_series(grid, &reg);
        Ok(files)
    }

    /// Total payload bytes of the population.
    pub fn total_bytes(&self) -> u64 {
        self.kinds.iter().map(|&k| self.events * self.object_size(k) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdmp::SiteConfig;

    fn grid() -> Grid {
        let mut g = Grid::new("cms");
        g.add_site(SiteConfig::named("cern", "cern.ch", 1));
        g.add_site(SiteConfig::named("anl", "anl.gov", 2));
        g.trust_all();
        g
    }

    #[test]
    fn by_kind_chunks_groups_ranges() {
        let p = Population::aod(100, 25).scaled(0.01);
        assert_eq!(p.file_for(0, ObjectKind::Aod), "aod.00000.db");
        assert_eq!(p.file_for(24, ObjectKind::Aod), "aod.00000.db");
        assert_eq!(p.file_for(25, ObjectKind::Aod), "aod.00001.db");
        assert_eq!(p.file_for(99, ObjectKind::Aod), "aod.00003.db");
    }

    #[test]
    fn striped_spreads_neighbours() {
        let p = Population {
            events: 100,
            kinds: &[ObjectKind::Aod],
            placement: Placement::Striped { files: 7 },
            size_scale: 0.01,
        };
        assert_ne!(p.file_for(0, ObjectKind::Aod), p.file_for(1, ObjectKind::Aod));
        assert_eq!(p.file_for(0, ObjectKind::Aod), p.file_for(7, ObjectKind::Aod));
    }

    #[test]
    fn build_publishes_everything() {
        let mut g = grid();
        let p = Population::aod(100, 25).scaled(0.01);
        let files = p.build(&mut g, "cern").unwrap();
        assert_eq!(files.len(), 4);
        for f in &files {
            assert_eq!(g.catalog.locate(f).unwrap().len(), 1);
            assert!(g.site("cern").unwrap().federation.is_attached(f));
        }
        // Every object is resolvable through the global view.
        assert_eq!(g.object_view.object_count(), 100);
    }

    #[test]
    fn mixed_placement_couples_kinds_per_file() {
        const KINDS: &[ObjectKind] = &[ObjectKind::Aod, ObjectKind::Esd];
        let p = Population {
            events: 10,
            kinds: KINDS,
            placement: Placement::MixedEvents { events_per_file: 5 },
            size_scale: 0.001,
        };
        let mut g = grid();
        let files = p.build(&mut g, "cern").unwrap();
        assert_eq!(files.len(), 2);
        // File 0 holds both the AOD and ESD of event 0 → navigation works
        // locally.
        let fed = &mut g.site_mut("cern").unwrap().federation;
        let esd = fed.navigate(LogicalOid::new(0, ObjectKind::Aod), "esd").unwrap();
        assert_eq!(esd.logical.kind, ObjectKind::Esd);
    }

    #[test]
    fn total_bytes_scales() {
        let p = Population::aod(1000, 100);
        let scaled = Population::aod(1000, 100).scaled(0.1);
        assert!(p.total_bytes() > 9 * scaled.total_bytes());
    }
}
