//! Component micro-benchmarks: the building blocks' raw performance.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bytes::Bytes;
use gdmp::{Grid, SiteConfig};
use gdmp_gridftp::block::{partition, Reassembler};
use gdmp_gridftp::crc::{crc32, Crc32};
use gdmp_objectstore::{
    synth_payload, CopierSpec, DatabaseFile, Federation, FreshObject, LogicalOid, ObjectCopier,
    ObjectFileCatalog, ObjectKind, StoredObject,
};
use gdmp_replica_catalog::ldap::attrs;
use gdmp_replica_catalog::service::{FileMeta, ReplicaCatalogService};
use gdmp_replica_catalog::{Directory, Filter, LdapDn, ReplicaCatalog, Scope};
use gdmp_workloads::{Placement, Population};

/// The file sizes of `grid_mix`, `push_soak` and `bulk_wan`, each through
/// both CRC kernels. `portable` feeds `update` 112 bytes at a time: below
/// the 128-byte threshold of the carry-less-multiply kernel, so the
/// slice-by-16 walk does all the work on any host (the kernel itself is
/// private to the crate).
fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let data: Vec<u8> = (0..64usize << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    for (name, len) in [("8KiB", 8 << 10), ("256KiB", 256 << 10), ("64MiB", 64 << 20)] {
        let data = &data[..len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("portable/{name}"), |b| {
            b.iter(|| {
                let mut crc = Crc32::new();
                black_box(data).chunks(112).for_each(|piece| crc.update(piece));
                crc.finalize()
            })
        });
        g.bench_function(format!("dispatched/{name}"), |b| b.iter(|| crc32(black_box(data))));
    }
    g.finish();
}

fn bench_blocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("extended_block_mode");
    let data = Bytes::from(vec![7u8; 1 << 20]);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("partition_4ch_64k", |b| b.iter(|| partition(black_box(&data), 64 * 1024, 4)));
    g.bench_function("reassemble_4ch_64k", |b| {
        let parts = partition(&data, 64 * 1024, 4);
        b.iter(|| {
            let mut r = Reassembler::new(data.len() as u64, 4);
            for p in &parts {
                for blk in p {
                    r.accept(blk).unwrap();
                }
            }
            assert!(r.is_complete());
        })
    });
    g.finish();
}

fn bench_catalog(c: &mut Criterion) {
    let mut g = c.benchmark_group("replica_catalog");
    g.bench_function("publish", |b| {
        b.iter_with_setup(
            || ReplicaCatalogService::new("GDMP", "cms").unwrap(),
            |mut svc| {
                for i in 0..100 {
                    let meta =
                        FileMeta { size: i, modified: 0, crc32: 0, file_type: "flat".into() };
                    svc.publish(Some(&format!("f{i}.db")), "cern", "u://x", &meta).unwrap();
                }
                svc
            },
        )
    });
    g.bench_function("locate_among_1000", |b| {
        let mut rc = ReplicaCatalog::new("GDMP");
        rc.create_collection("cms").unwrap();
        let names: Vec<String> = (0..1000).map(|i| format!("f{i}.db")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        rc.add_filenames("cms", &refs).unwrap();
        rc.create_location("cms", "cern", "u://cern").unwrap();
        rc.location_add_filenames("cms", "cern", &refs).unwrap();
        b.iter(|| rc.locate("cms", black_box("f500.db")).unwrap())
    });
    // The search underneath `locate`: answered from the equality index on
    // `filename`, hits borrowed from the directory.
    g.bench_function("search_filename_among_1000", |b| {
        let mut dir = Directory::new();
        let base = LdapDn::ROOT.child("lc", "cms");
        dir.add(base.clone(), attrs(&[("objectclass", "GlobusReplicaCollection")])).unwrap();
        for i in 0..1000 {
            let name = format!("f{i}.db");
            let entry = attrs(&[("objectclass", "GlobusReplicaLocation"), ("filename", &name)]);
            dir.add(base.child("loc", &format!("site{i}")), entry).unwrap();
        }
        let f = Filter::parse("(&(objectclass=GlobusReplicaLocation)(filename=f500.db))").unwrap();
        b.iter(|| {
            let hits = dir.search(black_box(&base), Scope::OneLevel, &f);
            hits.first().map(|hit| hit.dn.depth())
        })
    });
    g.bench_function("filter_parse_eval", |b| {
        let f = Filter::parse("(&(objectclass=GlobusFile)(!(size=10))(name=f*))").unwrap();
        let entry = attrs(&[("objectclass", "GlobusFile"), ("size", "42"), ("name", "f500.db")]);
        b.iter(|| black_box(&f).matches(black_box(&entry)))
    });
    g.finish();
}

fn bench_objectstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("objectstore");
    let build = || {
        let mut fed = Federation::new("bench");
        fed.create_database("d.db").unwrap();
        for e in 0..2_000u64 {
            let logical = LogicalOid::new(e, ObjectKind::Aod);
            fed.store(
                "d.db",
                (e % 8) as u32,
                StoredObject {
                    logical,
                    version: 1,
                    payload: synth_payload(logical, 1, 512),
                    assocs: vec![],
                },
            )
            .unwrap();
        }
        fed
    };
    g.bench_function("copier_extract_500_of_2000", |b| {
        let mut fed = build();
        let wanted: Vec<_> =
            (0..2_000).step_by(4).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
        let copier = ObjectCopier::new(CopierSpec::classic());
        b.iter(|| copier.extract(&mut fed, black_box(&wanted), "x").unwrap())
    });
    g.bench_function("codec_roundtrip_2000_objects", |b| {
        let fed = build();
        let image = fed.export("d.db").unwrap();
        b.iter(|| DatabaseFile::decode(black_box(image.clone())).unwrap())
    });
    // A produced file's replica landing at a second federation: GDMP's
    // post-processing attach decodes the image and indexes its objects.
    g.bench_function("attach_replica_2000", |b| {
        let objects: Vec<FreshObject> = (0..2_000)
            .map(|e| FreshObject {
                logical: LogicalOid::new(e, ObjectKind::Aod),
                version: 1,
                len: 512,
            })
            .collect();
        let mut cern = Federation::new("cern");
        cern.produce("d.db", &objects).unwrap();
        let image = cern.export("d.db").unwrap();
        b.iter_with_setup(
            || Federation::new("fnal"),
            |mut fnal| fnal.attach(black_box(image.clone())).unwrap(),
        )
    });
    // A population at `object_analysis`'s shape, a fifth of its events:
    // tag, AOD and ESD, 2 000 events per file, sizes scaled 0.01, built
    // and published at one site.
    g.bench_function("populate_3x20k", |b| {
        const KINDS: &[ObjectKind] = &[ObjectKind::Tag, ObjectKind::Aod, ObjectKind::Esd];
        let population = Population {
            events: 20_000,
            kinds: KINDS,
            placement: Placement::ByKindChunks { events_per_file: 2_000 },
            size_scale: 0.01,
        };
        let grid = || {
            let mut grid = Grid::new("bench");
            grid.add_site(SiteConfig::named("cern", "cern.ch", 1));
            grid
        };
        b.iter_with_setup(grid, |mut grid| population.build(&mut grid, "cern").unwrap())
    });
    g.finish();
}

/// The object location plane at the whole-stack benchmark's shape
/// (`object_analysis`): 150 files × 2 000 objects, a request of ~16 700
/// objects spread over 50 of them, half of it also in an extraction file.
fn bench_object_view(c: &mut Criterion) {
    let mut g = c.benchmark_group("object_view");
    let files: Vec<(String, Vec<LogicalOid>)> = (0..150u64)
        .map(|f| {
            let objects =
                (f * 2_000..(f + 1) * 2_000).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
            (format!("aod.{f:04}.db"), objects)
        })
        .collect();
    let record = || {
        let mut view = ObjectFileCatalog::new();
        for (name, objects) in &files {
            view.record_file(name, objects);
        }
        view
    };
    // Recording the population's files into a fresh view (and dropping it).
    g.bench_function("record_150x2000", |b| b.iter(&record));
    let mut view = record();
    let every = |n: usize| -> Vec<LogicalOid> {
        (0..100_000).step_by(n).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect()
    };
    view.record_file("objx.1.cern.to.fnal.0.db", &every(12));
    let wanted = every(6);
    g.bench_function("object_cover", |b| {
        b.iter(|| view.greedy_file_cover(black_box(&wanted), |_| 1 << 20))
    });
    g.bench_function("object_assign", |b| b.iter(|| view.densest_sources(black_box(&wanted))));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_crc, bench_blocks, bench_catalog, bench_objectstore, bench_object_view
}
criterion_main!(benches);
