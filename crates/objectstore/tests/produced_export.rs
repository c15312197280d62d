//! `Federation::export` of a produced file against the codec. A produced
//! file keeps the image it was written as, and `export` hands that image
//! out instead of encoding the file again; in every state below it must
//! still be byte for byte what `encode_requiring` writes for the file's
//! current schema requirements. Each state starts from a fresh produce,
//! so each of the image's invalidations (a store into the file, a detach,
//! a schema version bump) is tested on its own.

use bytes::Bytes;
use gdmp_objectstore::{
    standard_assocs, synth_payload, Federation, FieldType, FreshObject, LogicalOid, ObjectKind,
    StoredObject, TypeDescriptor,
};

const FILE: &str = "events.00000.db";

fn fresh(event: u64, kind: ObjectKind) -> FreshObject {
    FreshObject { logical: LogicalOid::new(event, kind), version: 1, len: 24 + event as usize }
}

/// A federation that produced one file of AOD and ESD objects.
fn producer() -> Federation {
    let objects: Vec<FreshObject> = (0..40)
        .map(|e| fresh(e, ObjectKind::Aod))
        .chain((0..40).map(|e| fresh(e, ObjectKind::Esd)))
        .collect();
    let mut fed = Federation::new("cern");
    fed.produce(FILE, &objects).unwrap();
    fed
}

/// What the codec writes for `file` as `fed` holds it now.
fn codec(fed: &Federation, file: &str) -> Bytes {
    let db = fed.file(file).unwrap();
    db.encode_requiring(&fed.schema_requirements_of(db))
}

fn assert_export_is_codec(fed: &Federation, state: &str) {
    assert_eq!(fed.export(FILE).unwrap(), codec(fed, FILE), "{state}");
}

#[test]
fn just_produced() {
    let fed = producer();
    assert_export_is_codec(&fed, "just produced");
    // The export is the image the objects are views into.
    let image = fed.export(FILE).unwrap();
    let (_, obj) = fed.file(FILE).unwrap().iter().last().unwrap();
    assert!(image.as_ptr_range().contains(&obj.payload.as_ptr()));
}

#[test]
fn after_a_store_into_the_file() {
    let mut fed = producer();
    fed.export(FILE).unwrap();
    let logical = LogicalOid::new(99, ObjectKind::Aod);
    let obj = StoredObject {
        logical,
        version: 1,
        payload: synth_payload(logical, 1, 8),
        assocs: standard_assocs(logical),
    };
    fed.store(FILE, 0, obj).unwrap();
    assert_export_is_codec(&fed, "after a store");
}

#[test]
fn after_a_schema_version_bump() {
    let mut fed = producer();
    fed.export(FILE).unwrap();
    let aod_v2 = TypeDescriptor::new(
        "aod",
        2,
        &[("event", FieldType::U64), ("payload", FieldType::Blob), ("jets", FieldType::Blob)],
    );
    fed.schema.register(aod_v2).unwrap();
    assert_export_is_codec(&fed, "after a schema bump");
}

#[test]
fn after_a_detach_and_a_new_attach() {
    let mut fed = producer();
    fed.export(FILE).unwrap();
    let image = fed.detach(FILE).unwrap();
    fed.attach(image).unwrap();
    // Attached again under a new database id.
    assert_eq!(fed.file(FILE).unwrap().db_id, 2);
    assert_export_is_codec(&fed, "detached and attached again");
}

#[test]
fn as_a_replica_at_a_second_site() {
    let fed = producer();
    let mut remote = Federation::new("anl");
    remote.produce("tag.00000.db", &[fresh(0, ObjectKind::Tag)]).unwrap();
    remote.attach(fed.export(FILE).unwrap()).unwrap();
    // The replica is homed under the remote federation's own id.
    assert_ne!(remote.file(FILE).unwrap().db_id, fed.file(FILE).unwrap().db_id);
    assert_eq!(remote.export(FILE).unwrap(), codec(&remote, FILE), "replica");
    assert_ne!(remote.export(FILE).unwrap(), fed.export(FILE).unwrap());
}
