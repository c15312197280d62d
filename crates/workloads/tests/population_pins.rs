//! Pinned outcome of `Population::build` under each placement policy. One
//! FNV-1a digest per placement folds every published file's name, its
//! `FileMeta` (size, CRC, type) and exported image, every object as read
//! back through the federation (physical `Oid`, version, payload,
//! associations, the file the index resolves it to), the files the global
//! object view names as its holders, and the error a second build on the
//! same site returns. A change to how a population is laid into files,
//! encoded or published fails here with the placement named.

use gdmp::prelude::*;
use gdmp_objectstore::ObjectKind;
use gdmp_workloads::{Placement, Population};

const KINDS: &[ObjectKind] = &[ObjectKind::Tag, ObjectKind::Aod, ObjectKind::Esd];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

fn population(placement: Placement) -> Population {
    Population { events: 2_001, kinds: KINDS, placement, size_scale: 0.01 }
}

fn digest(placement: Placement) -> u64 {
    let mut grid = Grid::new("cms");
    grid.add_site(SiteConfig::named("cern", "cern.ch", 1));
    grid.add_site(SiteConfig::named("anl", "anl.gov", 2));
    grid.trust_all();
    let pop = population(placement);
    let files = pop.build(&mut grid, "cern").unwrap();

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let site = grid.site("cern").unwrap();
    assert_eq!(site.export_catalog.len(), files.len());
    for (file, notice) in files.iter().zip(&site.export_catalog) {
        assert_eq!(&notice.lfn, file);
        let meta = &notice.meta;
        fnv1a(
            &mut h,
            format!("{file} {} {:08x} {}\n", meta.size, meta.crc32, meta.file_type).as_bytes(),
        );
        let image = site.federation.export(file).unwrap();
        assert_eq!(image.len() as u64, meta.size);
        fnv1a(&mut h, &image);
    }

    let mut objects = Vec::new();
    for file in site.federation.files() {
        for (oid, obj) in site.federation.file(&file).unwrap().iter() {
            fnv1a(
                &mut h,
                format!("{file} {oid} {} {} v{}\n", obj.logical, obj.payload.len(), obj.version)
                    .as_bytes(),
            );
            fnv1a(&mut h, &obj.payload);
            fnv1a(&mut h, format!("{:?}\n", obj.assocs).as_bytes());
            objects.push(obj.logical);
        }
    }
    assert_eq!(objects.len() as u64, pop.events * KINDS.len() as u64);

    let fed = &mut grid.site_mut("cern").unwrap().federation;
    for &logical in &objects {
        let file = fed.file_of(logical).unwrap().to_string();
        let obj = fed.get(logical).unwrap();
        fnv1a(
            &mut h,
            format!("{logical} in {file} v{} {}\n", obj.version, obj.payload.len()).as_bytes(),
        );
    }
    for &logical in &objects {
        let holders = grid.object_view.files_of(logical);
        fnv1a(&mut h, format!("{logical} held by {holders:?}\n").as_bytes());
    }

    let again = pop.build(&mut grid, "cern").unwrap_err();
    fnv1a(&mut h, format!("second build: {again}\n").as_bytes());
    h
}

#[test]
fn by_kind_chunks_population_is_pinned() {
    assert_eq!(digest(Placement::ByKindChunks { events_per_file: 500 }), 0x65e0_37d2_0eaf_d811);
}

#[test]
fn mixed_events_population_is_pinned() {
    assert_eq!(digest(Placement::MixedEvents { events_per_file: 400 }), 0xc47b_1c30_0d86_340b);
}

#[test]
fn striped_population_is_pinned() {
    assert_eq!(digest(Placement::Striped { files: 7 }), 0x7a9f_6072_4093_608b);
}
