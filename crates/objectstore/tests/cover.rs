//! The index-driven cover and source assignment against the scans they
//! replaced, kept here as oracles, and their work bound.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use gdmp_objectstore::{FileCover, LogicalOid, ObjectFileCatalog, ObjectKind};

type FileTable = BTreeMap<String, Vec<LogicalOid>>;

fn lo(event: u64) -> LogicalOid {
    LogicalOid::new(event, ObjectKind::Aod)
}

/// The greedy cover as it was before the catalog became an index: every
/// round scans every file against the uncovered set.
fn reference_cover(
    by_file: &FileTable,
    wanted: &[LogicalOid],
    bytes_of: impl Fn(&str) -> u64,
) -> FileCover {
    let mut uncovered: BTreeSet<LogicalOid> = wanted.iter().copied().collect();
    let mut chosen = Vec::new();
    let mut total_bytes = 0u64;
    while !uncovered.is_empty() {
        let best = by_file
            .iter()
            .filter_map(|(f, objs)| {
                let gain = objs.iter().filter(|o| uncovered.contains(o)).count();
                (gain > 0).then(|| (f.clone(), gain, bytes_of(f).max(1)))
            })
            .max_by(|(fa, ga, sa), (fb, gb, sb)| {
                let x = (*ga as u128 * *sb as u128).cmp(&(*gb as u128 * *sa as u128));
                x.then_with(|| fb.cmp(fa))
            });
        let Some((f, _, size)) = best else { break };
        for o in &by_file[&f] {
            uncovered.remove(o);
        }
        total_bytes += size;
        chosen.push(f);
    }
    FileCover { files: chosen, uncovered: uncovered.into_iter().collect(), total_bytes }
}

/// The densest-source assignment as `object_replicate` used to compute it:
/// each candidate file scanned against the wanted set.
fn reference_sources(by_file: &FileTable, wanted: &[LogicalOid]) -> FileTable {
    let wanted_set: BTreeSet<LogicalOid> = wanted.iter().copied().collect();
    let density = |f: &str| {
        let objs = &by_file[f];
        (objs.iter().filter(|o| wanted_set.contains(o)).count(), objs.len().max(1))
    };
    let mut per_file = FileTable::new();
    for &o in wanted {
        let best =
            by_file.iter().filter(|(_, objs)| objs.contains(&o)).map(|(f, _)| f).max_by(|a, b| {
                let ((ga, ta), (gb, tb)) = (density(a), density(b));
                (ga * tb).cmp(&(gb * ta)).then_with(|| b.cmp(a))
            });
        if let Some(f) = best {
            per_file.entry(f.clone()).or_default().push(o);
        }
    }
    per_file
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Objects held by 1–4 files (as extraction files make them), sizes
    /// from four classes so ratios tie, files recorded in an order that is
    /// not name order, duplicate and unresolvable wanted objects: cover
    /// and assignment equal the oracles', order included.
    #[test]
    fn cover_and_assignment_match_the_scans(
        size_class in proptest::collection::vec(1u64..5, 2..12),
        holders in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..5), 1..60),
        wanted in proptest::collection::vec(0u64..80, 0..50),
    ) {
        // "f10.db" < "f2.db": name order differs from recording order.
        let name = |f: usize| format!("f{}.db", f % size_class.len());
        let bytes_of = |f: &str| {
            let index: usize = f[1..f.len() - 3].parse().unwrap();
            size_class[index] * 100
        };
        let mut by_file = FileTable::new();
        let mut catalog = ObjectFileCatalog::new();
        for (event, files) in holders.iter().enumerate() {
            for &f in files {
                let objs = by_file.entry(name(f)).or_default();
                if !objs.contains(&lo(event as u64)) {
                    objs.push(lo(event as u64));
                }
                catalog.record_file(&name(f), &[lo(event as u64)]);
            }
        }
        let wanted: Vec<LogicalOid> = wanted.into_iter().map(lo).collect();

        let cover = catalog.greedy_file_cover(&wanted, bytes_of);
        let expect = reference_cover(&by_file, &wanted, bytes_of);
        prop_assert_eq!(cover.files, expect.files);
        prop_assert_eq!(cover.uncovered, expect.uncovered);
        prop_assert_eq!(cover.total_bytes, expect.total_bytes);

        let (per_file, unresolved) = catalog.densest_sources(&wanted);
        let per_file: FileTable = per_file.into_iter().map(|(f, o)| (f.to_string(), o)).collect();
        prop_assert_eq!(per_file, reference_sources(&by_file, &wanted));
        let in_no_file: Vec<LogicalOid> =
            wanted.iter().copied().filter(|o| o.event >= holders.len() as u64).collect();
        prop_assert_eq!(unresolved, in_no_file);
    }
}

/// The cover's work is sized by the request: of 1 010 files, only the ten
/// holding a wanted object are ever priced, each once.
#[test]
fn cover_prices_only_the_files_holding_wanted_objects() {
    let mut catalog = ObjectFileCatalog::new();
    for f in 0..1_000u64 {
        let objects: Vec<_> = (0..20).map(|i| lo(1_000_000 + f * 20 + i)).collect();
        catalog.record_file(&format!("other{f}.db"), &objects);
    }
    for f in 0..10u64 {
        let objects: Vec<_> = (0..20).map(|i| lo(f * 20 + i)).collect();
        catalog.record_file(&format!("wanted{f}.db"), &objects);
    }
    let wanted: Vec<_> = (0..200).step_by(3).map(lo).collect();
    let priced = RefCell::new(Vec::new());
    let cover = catalog.greedy_file_cover(&wanted, |f| {
        priced.borrow_mut().push(f.to_string());
        100
    });
    assert!(cover.uncovered.is_empty());
    assert_eq!(cover.files.len(), 10);
    let expect: Vec<String> = (0..10).map(|f| format!("wanted{f}.db")).collect();
    assert_eq!(priced.into_inner(), expect, "each relevant file once, in name order");
}
