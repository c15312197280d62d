//! Attaching a replicated image at a second federation, GDMP's
//! post-processing step (Section 4.1), decodes every object and indexes
//! it. The guard counts heap allocations (per thread, so nothing else
//! running in the process leaks in): the payloads are views into the
//! image, the index hashes without allocating, and one image's association
//! labels share one allocation, so what is left per object is its
//! associations' `Vec`. A label that is not UTF-8 still fails to decode.

#[path = "../../telemetry/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use std::sync::Arc;

use bytes::Bytes;
use counting_alloc::allocations_during;
use gdmp_objectstore::{
    Association, CodecError, DatabaseFile, Federation, FreshObject, LogicalOid, ObjectKind,
    StoredObject,
};

const OBJECTS: u64 = 2_000;
const FILE: &str = "aod.0000.db";

/// The image of a file of `OBJECTS` AOD objects produced at `cern`.
fn produced_image() -> Bytes {
    let objects: Vec<FreshObject> = (0..OBJECTS)
        .map(|e| FreshObject { logical: LogicalOid::new(e, ObjectKind::Aod), version: 1, len: 64 })
        .collect();
    let mut cern = Federation::new("cern");
    cern.produce(FILE, &objects).unwrap();
    cern.export(FILE).unwrap()
}

#[test]
fn attach_allocates_at_most_one_and_a_half_times_per_object() {
    let image = produced_image();
    let mut fnal = Federation::new("fnal");
    let allocations = allocations_during(|| {
        fnal.attach(image.clone()).unwrap();
    });
    assert_eq!(fnal.object_count(), OBJECTS as usize);
    assert!(
        2 * allocations <= 3 * OBJECTS,
        "attach made {allocations} allocations for {OBJECTS} objects ({:.2} each)",
        allocations as f64 / OBJECTS as f64
    );
}

#[test]
fn the_labels_of_one_image_are_one_allocation() {
    let db = DatabaseFile::decode(produced_image()).unwrap();
    let labels: Vec<&Arc<str>> = db.iter().flat_map(|(_, o)| &o.assocs).map(|a| &a.label).collect();
    assert_eq!(labels.len(), OBJECTS as usize);
    assert_eq!(&**labels[0], "esd");
    assert!(labels.iter().all(|l| Arc::ptr_eq(l, labels[0])));
}

#[test]
fn a_label_that_is_not_utf8_fails_to_decode() {
    let logical = LogicalOid::new(1, ObjectKind::Tag);
    let link = |label: &str| Association { label: label.into(), target: logical };
    let mut db = DatabaseFile::new(1, "labels.db");
    db.insert(
        0,
        StoredObject {
            logical,
            version: 1,
            payload: Bytes::new(),
            assocs: vec![link("aod"), link("~~~~")],
        },
    );
    let mut image = db.encode().to_vec();
    let at = image.windows(4).position(|w| w == b"~~~~").unwrap();
    image[at..at + 4].fill(0xff);
    assert_eq!(DatabaseFile::decode(Bytes::from(image)), Err(CodecError::Truncated));
}
