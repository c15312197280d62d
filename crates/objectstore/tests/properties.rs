//! Property tests: codec safety, federation invariants, cover completeness,
//! the object view against a set-based oracle.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use proptest::prelude::*;

use gdmp_objectstore::{
    synth_payload, Association, DatabaseFile, Federation, LogicalOid, ObjectFileCatalog,
    ObjectKind, StoredObject,
};

fn arb_kind() -> impl Strategy<Value = ObjectKind> {
    prop_oneof![
        Just(ObjectKind::Tag),
        Just(ObjectKind::Aod),
        Just(ObjectKind::Esd),
        Just(ObjectKind::Raw),
    ]
}

fn arb_object() -> impl Strategy<Value = StoredObject> {
    (
        0u64..10_000,
        arb_kind(),
        1u32..4,
        0usize..512,
        proptest::collection::vec((".*", 0u64..100, arb_kind()), 0..3),
    )
        .prop_map(|(event, kind, version, plen, assocs)| {
            let logical = LogicalOid::new(event, kind);
            StoredObject {
                logical,
                version,
                payload: synth_payload(logical, version, plen),
                assocs: assocs
                    .into_iter()
                    .map(|(label, ev, k)| Association {
                        label: label.chars().take(40).collect::<String>().into(),
                        target: LogicalOid::new(ev, k),
                    })
                    .collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity for any database content.
    #[test]
    fn codec_roundtrip(
        objects in proptest::collection::vec(arb_object(), 0..40),
        db_id in 0u32..1000,
    ) {
        let mut db = DatabaseFile::new(db_id, "prop.db");
        for (i, o) in objects.iter().enumerate() {
            db.insert((i % 5) as u32, o.clone());
        }
        let back = DatabaseFile::decode(db.encode()).unwrap();
        prop_assert_eq!(db, back);
    }

    /// Decoding arbitrary bytes never panics (errors are fine).
    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = DatabaseFile::decode(Bytes::from(data));
    }

    /// Decoding any mutation of a valid image never panics, and any decode
    /// that succeeds yields a structurally consistent database.
    #[test]
    fn decode_mutated_image(
        objects in proptest::collection::vec(arb_object(), 1..10),
        flips in proptest::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let mut db = DatabaseFile::new(1, "m.db");
        for (i, o) in objects.iter().enumerate() {
            db.insert((i % 2) as u32, o.clone());
        }
        let mut img = db.encode().to_vec();
        for (pos, val) in flips {
            let idx = pos % img.len();
            img[idx] ^= val;
        }
        if let Ok(decoded) = DatabaseFile::decode(Bytes::from(img)) {
            // Whatever decoded must self-agree.
            prop_assert_eq!(decoded.object_count(), decoded.iter().count());
        }
    }

    /// Federation index always resolves to the highest stored version, and
    /// object_count equals the number of distinct logical ids.
    #[test]
    fn federation_tracks_latest_version(
        versions in proptest::collection::vec(1u32..6, 1..12),
    ) {
        let mut fed = Federation::new("f");
        fed.create_database("v.db").unwrap();
        let logical = LogicalOid::new(1, ObjectKind::Aod);
        let mut stored_max = 0;
        for v in versions {
            let obj = StoredObject {
                logical,
                version: v,
                payload: synth_payload(logical, v, 16),
                assocs: vec![],
            };
            match fed.store("v.db", 0, obj) {
                Ok(_) => {
                    prop_assert!(v > stored_max, "store accepted non-increasing version");
                    stored_max = v;
                }
                Err(_) => prop_assert!(v <= stored_max, "store rejected increasing version"),
            }
        }
        prop_assert_eq!(fed.object_count(), 1);
        prop_assert_eq!(fed.get(logical).unwrap().version, stored_max);
    }

    /// Greedy cover always covers everything coverable, and its byte total
    /// is at least the bytes of the wanted objects' own files' minimum.
    #[test]
    fn cover_is_complete(
        assignment in proptest::collection::vec(0usize..8, 1..64),
    ) {
        // Object i lives in file `assignment[i]`.
        let mut cat = ObjectFileCatalog::new();
        let mut per_file: std::collections::BTreeMap<usize, Vec<LogicalOid>> = Default::default();
        for (i, f) in assignment.iter().enumerate() {
            per_file.entry(*f).or_default().push(LogicalOid::new(i as u64, ObjectKind::Aod));
        }
        for (f, objs) in &per_file {
            cat.record_file(&format!("f{f}.db"), objs);
        }
        let wanted: Vec<_> =
            (0..assignment.len()).step_by(2).map(|i| LogicalOid::new(i as u64, ObjectKind::Aod)).collect();
        let cover = cat.greedy_file_cover(&wanted, |_| 100);
        prop_assert!(cover.uncovered.is_empty());
        // Every wanted object is inside some chosen file.
        let chosen: std::collections::BTreeSet<_> = cover.files.iter().cloned().collect();
        for w in &wanted {
            let holds = cat.files_of(*w);
            prop_assert!(holds.iter().any(|f| chosen.contains(*f)));
        }
    }

    /// Detach + attach elsewhere preserves every object and its payload.
    #[test]
    fn migration_preserves_objects(events in proptest::collection::btree_set(0u64..500, 1..30)) {
        let mut src = Federation::new("src");
        src.create_database("d.db").unwrap();
        for &e in &events {
            let logical = LogicalOid::new(e, ObjectKind::Aod);
            src.store("d.db", 0, StoredObject {
                logical,
                version: 1,
                payload: synth_payload(logical, 1, 64),
                assocs: vec![],
            }).unwrap();
        }
        let image = src.detach("d.db").unwrap();
        let mut dst = Federation::new("dst");
        dst.attach(image).unwrap();
        prop_assert_eq!(dst.object_count(), events.len());
        for &e in &events {
            let logical = LogicalOid::new(e, ObjectKind::Aod);
            let obj = dst.get(logical).unwrap();
            prop_assert_eq!(&obj.payload, &synth_payload(logical, 1, 64));
        }
    }

    /// The object view's holder lists against sets of names, through
    /// random records, re-records and forgets of files recorded in an
    /// order that is not their name order: every object passes between
    /// one holder and many and back, and `files_of` keeps name order.
    #[test]
    fn object_view_matches_a_set_oracle(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..6, proptest::collection::vec(0u64..12, 0..8)),
            1..40,
        ),
    ) {
        const NAMES: [&str; 6] = ["m.db", "c.db", "x.db", "a.db", "q.db", "b.db"];
        let aod = |e: u64| LogicalOid::new(e, ObjectKind::Aod);
        let mut view = ObjectFileCatalog::new();
        let mut holders: BTreeMap<LogicalOid, BTreeSet<String>> = BTreeMap::new();
        let mut recorded: BTreeMap<String, Vec<LogicalOid>> = BTreeMap::new();
        for (op, file, events) in ops {
            let name = NAMES[file];
            if op == 0 {
                view.forget_file(name);
                for o in recorded.remove(name).unwrap_or_default() {
                    let files = holders.get_mut(&o).unwrap();
                    files.remove(name);
                    if files.is_empty() {
                        holders.remove(&o);
                    }
                }
            } else {
                let objects: Vec<LogicalOid> = events.iter().map(|&e| aod(e)).collect();
                view.record_file(name, &objects);
                let held = recorded.entry(name.to_string()).or_default();
                for o in objects {
                    if holders.entry(o).or_default().insert(name.to_string()) {
                        held.push(o);
                    }
                }
            }
            for e in 0..12 {
                let want: Vec<&str> =
                    holders.get(&aod(e)).into_iter().flatten().map(String::as_str).collect();
                prop_assert_eq!(view.files_of(aod(e)), want);
            }
            for name in NAMES {
                prop_assert_eq!(
                    view.objects_in(name),
                    recorded.get(name).map_or(&[][..], Vec::as_slice)
                );
            }
            prop_assert_eq!(view.object_count(), holders.len());
            let snapshot: Vec<(String, Vec<LogicalOid>)> = recorded.clone().into_iter().collect();
            prop_assert_eq!(view.snapshot(), snapshot);
        }
    }
}
