//! The federation: a site's local object persistency layer.
//!
//! An Objectivity-style federation is the per-site catalog of attached
//! database files plus the object lookup that application code navigates
//! through. Two GDMP touch-points live here:
//!
//! * **attach** — the post-processing step that integrates a replicated
//!   file into the local federation's internal catalog (Section 4.1);
//! * **navigation failure** — resolving an association whose target's file
//!   is not attached locally fails, because "the object persistency layer
//!   at the remote site has no awareness of the files in other sites"
//!   (Section 2.1).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use crate::database::{CodecError, DatabaseFile};
use crate::model::{Association, FreshObject, LogicalOid, ObjectKind, Oid, OidMap, StoredObject};
use crate::schema::{SchemaError, SchemaRegistry};

/// Federation-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    Codec(CodecError),
    AlreadyAttached(String),
    NotAttached(String),
    UnknownObject(LogicalOid),
    /// The association exists but its target's file is not attached here —
    /// the paper's broken-navigation scenario.
    NavigationFailed {
        from: LogicalOid,
        label: String,
        target: LogicalOid,
    },
    NoSuchAssociation {
        from: LogicalOid,
        label: String,
    },
    /// Attempt to overwrite an existing (logical, version) pair: objects
    /// are read-only after creation.
    ReadOnlyViolation(LogicalOid),
    /// The file requires schema this federation has not imported yet —
    /// pre-processing (Section 4.1) was skipped.
    Schema(SchemaError),
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::Codec(e) => write!(f, "database image: {e}"),
            FedError::AlreadyAttached(n) => write!(f, "already attached: {n}"),
            FedError::NotAttached(n) => write!(f, "not attached: {n}"),
            FedError::UnknownObject(l) => write!(f, "object not in federation: {l}"),
            FedError::NavigationFailed { from, label, target } => write!(
                f,
                "navigation {from} --{label}--> {target} failed: target's file not attached"
            ),
            FedError::NoSuchAssociation { from, label } => {
                write!(f, "object {from} has no association {label:?}")
            }
            FedError::ReadOnlyViolation(l) => {
                write!(f, "object {l} is read-only; store a new version instead")
            }
            FedError::Schema(e) => write!(f, "schema: {e} (run pre-processing first)"),
        }
    }
}

impl std::error::Error for FedError {}

impl From<CodecError> for FedError {
    fn from(e: CodecError) -> Self {
        FedError::Codec(e)
    }
}

impl From<SchemaError> for FedError {
    fn from(e: SchemaError) -> Self {
        FedError::Schema(e)
    }
}

/// A site's federation of attached database files.
#[derive(Debug, Clone, Default)]
pub struct Federation {
    pub name: String,
    next_db_id: u32,
    /// Attached files by database id — the `db` of every [`Oid`] in them.
    attached: HashMap<u32, DatabaseFile>,
    /// File name → database id, sorted by name.
    db_ids: BTreeMap<String, u32>,
    /// logical → (physical oid, version): highest version wins. The oid's
    /// `db` names the file, so no file name is stored per object.
    index: OidMap<(Oid, u32)>,
    /// The image of each file this federation produced, by file name, until
    /// the file changes or is detached: its objects' payloads are views
    /// into it, and [`export`](Self::export) hands it out while its schema
    /// stamp holds.
    produced: HashMap<String, Bytes>,
    /// The type descriptors this federation knows (attach precondition).
    pub schema: SchemaRegistry,
    /// Reads served through `get`/`navigate` (I/O accounting).
    pub lookups: u64,
}

impl Federation {
    pub fn new(name: &str) -> Self {
        Federation {
            name: name.to_string(),
            next_db_id: 1,
            schema: SchemaRegistry::hep_baseline(),
            ..Default::default()
        }
    }

    // ---- file lifecycle ----------------------------------------------------

    /// Create a fresh, empty database file in this federation.
    pub fn create_database(&mut self, file_name: &str) -> Result<(), FedError> {
        if self.is_attached(file_name) {
            return Err(FedError::AlreadyAttached(file_name.to_string()));
        }
        self.adopt(DatabaseFile::new(0, file_name));
        Ok(())
    }

    /// Produce a new file holding `objects` in container 0, in order: its
    /// image is written once, each payload synthesized in place and
    /// stamped with this federation's next database id and current schema
    /// requirements, then attached like any image, so every object is a
    /// view into it. Objects are checked against [`store`](Self::store)'s
    /// read-only rule as if stored one by one, before the file name, and
    /// nothing is attached when either check fails.
    pub fn produce(&mut self, file_name: &str, objects: &[FreshObject]) -> Result<(), FedError> {
        // Each object against what is stored already and against the
        // objects before it, which cannot repeat it when they come sorted.
        let sorted = objects.windows(2).all(|w| {
            (w[0].logical.kind, w[0].logical.event) < (w[1].logical.kind, w[1].logical.event)
        });
        let mut earlier: OidMap<u32> = OidMap::default();
        for o in objects {
            let newest = earlier.get(&o.logical).or(self.index.get(&o.logical).map(|(_, v)| v));
            if newest.is_some_and(|&v| v >= o.version) {
                return Err(FedError::ReadOnlyViolation(o.logical));
            }
            if !sorted {
                earlier.insert(o.logical, o.version);
            }
        }
        if self.is_attached(file_name) {
            return Err(FedError::AlreadyAttached(file_name.to_string()));
        }
        let required = self.requirements_for(objects.iter().map(|o| o.logical.kind));
        let image = DatabaseFile::produce_image(self.next_db_id, file_name, &required, objects);
        self.attach(image.clone())?;
        self.produced.insert(file_name.to_string(), image);
        Ok(())
    }

    /// Attach a database image produced elsewhere (GDMP post-processing).
    /// The file's objects become navigable locally. Returns the file name.
    pub fn attach(&mut self, image: Bytes) -> Result<String, FedError> {
        let db = DatabaseFile::decode(image)?;
        if self.is_attached(&db.name) {
            return Err(FedError::AlreadyAttached(db.name.clone()));
        }
        // Schema gate: the file's classes must be known here (Section 4.1
        // pre-processing installs them).
        self.schema.satisfies(&db.required_schema)?;
        let name = db.name.clone();
        self.adopt(db);
        Ok(name)
    }

    /// Home a file into this federation's database id space and index its
    /// objects.
    fn adopt(&mut self, mut db: DatabaseFile) {
        db.db_id = self.next_db_id;
        self.next_db_id += 1;
        for (oid, obj) in db.iter() {
            Self::index_insert(&mut self.index, oid, obj);
        }
        self.db_ids.insert(db.name.clone(), db.db_id);
        self.attached.insert(db.db_id, db);
    }

    /// Detach a file (its objects stop being navigable); returns the image.
    pub fn detach(&mut self, file_name: &str) -> Result<Bytes, FedError> {
        let id = self
            .db_ids
            .remove(file_name)
            .ok_or_else(|| FedError::NotAttached(file_name.to_string()))?;
        let mut db = self.attached.remove(&id).expect("named files are attached");
        self.produced.remove(file_name);
        db.required_schema = self.schema_requirements_of(&db);
        let image = db.encode();
        self.reindex();
        Ok(image)
    }

    /// Serialize a file without detaching it — the source-side read GDMP
    /// performs when replicating a (read-only) database file. The image is
    /// stamped with the schema requirements of the kinds it contains. A
    /// file this federation produced and has not changed since is its
    /// image already: that is handed out, as long as the requirements are
    /// still the ones stamped into it.
    pub fn export(&self, file_name: &str) -> Result<Bytes, FedError> {
        let db =
            self.file(file_name).ok_or_else(|| FedError::NotAttached(file_name.to_string()))?;
        let required = self.schema_requirements_of(db);
        match self.produced.get(file_name) {
            // The decoded file carries its image's stamp.
            Some(image) if db.required_schema == required => Ok(image.clone()),
            _ => Ok(db.encode_requiring(&required)),
        }
    }

    /// The `(type, version)` pairs a file needs, per this federation's
    /// current registry.
    pub fn schema_requirements_of(&self, db: &DatabaseFile) -> Vec<(String, u32)> {
        self.requirements_for(db.iter().map(|(_, o)| o.logical.kind))
    }

    /// The `(type, version)` pairs objects of these kinds need, sorted by
    /// type name.
    fn requirements_for(&self, kinds: impl Iterator<Item = ObjectKind>) -> Vec<(String, u32)> {
        let kinds: std::collections::BTreeSet<&'static str> = kinds.map(ObjectKind::name).collect();
        kinds.into_iter().map(|k| (k.to_string(), self.schema.version_of(k).unwrap_or(1))).collect()
    }

    pub fn is_attached(&self, file_name: &str) -> bool {
        self.db_ids.contains_key(file_name)
    }

    /// Attached file names, sorted.
    pub fn files(&self) -> Vec<String> {
        self.db_ids.keys().cloned().collect()
    }

    pub fn file(&self, file_name: &str) -> Option<&DatabaseFile> {
        self.db_ids.get(file_name).map(|id| &self.attached[id])
    }

    // ---- objects -----------------------------------------------------------

    /// Store a new object into an attached file. Read-only rule: the same
    /// (logical, version) may not be stored twice in this federation.
    pub fn store(
        &mut self,
        file_name: &str,
        container: u32,
        obj: StoredObject,
    ) -> Result<Oid, FedError> {
        // Check read-only violation against every attached copy.
        if let Some((_, v)) = self.index.get(&obj.logical) {
            if *v >= obj.version {
                return Err(FedError::ReadOnlyViolation(obj.logical));
            }
        }
        let id = self
            .db_ids
            .get(file_name)
            .ok_or_else(|| FedError::NotAttached(file_name.to_string()))?;
        let db = self.attached.get_mut(id).expect("named files are attached");
        self.produced.remove(file_name);
        let logical = obj.logical;
        let version = obj.version;
        let oid = db.insert(container, obj);
        self.index.insert(logical, (oid, version));
        Ok(oid)
    }

    /// Fetch the (latest version of the) object with this logical id.
    pub fn get(&mut self, logical: LogicalOid) -> Result<&StoredObject, FedError> {
        self.lookups += 1;
        let (oid, _) = self.index.get(&logical).ok_or(FedError::UnknownObject(logical))?;
        Ok(self
            .attached
            .get(&oid.db)
            .and_then(|db| db.get(*oid))
            .expect("index points at attached object"))
    }

    pub fn contains(&self, logical: LogicalOid) -> bool {
        self.index.contains_key(&logical)
    }

    /// Which attached file holds the object.
    pub fn file_of(&self, logical: LogicalOid) -> Option<&str> {
        self.index.get(&logical).map(|(oid, _)| self.attached[&oid.db].name.as_str())
    }

    /// Follow the association `label` from `from`. Fails with
    /// [`FedError::NavigationFailed`] when the target's file is not
    /// attached here — the coupled-files problem of Section 2.1.
    pub fn navigate(&mut self, from: LogicalOid, label: &str) -> Result<&StoredObject, FedError> {
        let assoc: Association = {
            let obj = self.get(from)?;
            obj.assocs
                .iter()
                .find(|a| &*a.label == label)
                .cloned()
                .ok_or_else(|| FedError::NoSuchAssociation { from, label: label.to_string() })?
        };
        if !self.contains(assoc.target) {
            return Err(FedError::NavigationFailed {
                from,
                label: label.to_string(),
                target: assoc.target,
            });
        }
        self.get(assoc.target)
    }

    /// Total objects reachable in this federation.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    fn index_insert(index: &mut OidMap<(Oid, u32)>, oid: Oid, obj: &StoredObject) {
        match index.entry(obj.logical) {
            Entry::Occupied(mut held) if held.get().1 < obj.version => {
                held.insert((oid, obj.version));
            }
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                slot.insert((oid, obj.version));
            }
        }
    }

    /// Rebuild the index, files in name order (the earlier name wins an
    /// equal version).
    fn reindex(&mut self) {
        self.index.clear();
        for id in self.db_ids.values() {
            for (oid, obj) in self.attached[id].iter() {
                Self::index_insert(&mut self.index, oid, obj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{standard_assocs, synth_payload, ObjectKind};

    fn obj(event: u64, kind: ObjectKind) -> StoredObject {
        let logical = LogicalOid::new(event, kind);
        StoredObject {
            logical,
            version: 1,
            payload: synth_payload(logical, 1, kind.nominal_size().min(512)),
            assocs: standard_assocs(logical),
        }
    }

    fn fed_with_aods(events: std::ops::Range<u64>) -> Federation {
        let mut fed = Federation::new("cms");
        fed.create_database("aod.db").unwrap();
        for e in events {
            fed.store("aod.db", 0, obj(e, ObjectKind::Aod)).unwrap();
        }
        fed
    }

    #[test]
    fn store_and_get() {
        let mut fed = fed_with_aods(0..10);
        let o = fed.get(LogicalOid::new(3, ObjectKind::Aod)).unwrap();
        assert_eq!(o.logical.event, 3);
        assert_eq!(fed.object_count(), 10);
        assert!(matches!(
            fed.get(LogicalOid::new(99, ObjectKind::Aod)),
            Err(FedError::UnknownObject(_))
        ));
    }

    #[test]
    fn read_only_rule_blocks_same_version() {
        let mut fed = fed_with_aods(0..1);
        let dup = obj(0, ObjectKind::Aod);
        assert!(matches!(fed.store("aod.db", 0, dup), Err(FedError::ReadOnlyViolation(_))));
        // A newer version is the sanctioned way to change content.
        let mut v2 = obj(0, ObjectKind::Aod);
        v2.version = 2;
        fed.store("aod.db", 0, v2).unwrap();
        assert_eq!(fed.get(LogicalOid::new(0, ObjectKind::Aod)).unwrap().version, 2);
    }

    #[test]
    fn detach_attach_roundtrip_preserves_objects() {
        let mut fed = fed_with_aods(0..5);
        let image = fed.detach("aod.db").unwrap();
        assert_eq!(fed.object_count(), 0);
        let mut other = Federation::new("lyon");
        let name = other.attach(image).unwrap();
        assert_eq!(name, "aod.db");
        assert_eq!(other.object_count(), 5);
        assert_eq!(other.get(LogicalOid::new(4, ObjectKind::Aod)).unwrap().logical.event, 4);
    }

    #[test]
    fn double_attach_rejected() {
        let mut fed = fed_with_aods(0..2);
        let image = fed.export("aod.db").unwrap();
        assert!(matches!(fed.attach(image), Err(FedError::AlreadyAttached(_))));
    }

    #[test]
    fn export_does_not_detach() {
        let fed = fed_with_aods(0..2);
        let img = fed.export("aod.db").unwrap();
        assert!(!img.is_empty());
        assert!(fed.is_attached("aod.db"));
    }

    #[test]
    fn export_stamps_the_schema_without_touching_the_file() {
        // A mixed-kind file: the image must be what encoding a stamped
        // copy gives.
        let mut fed = fed_with_aods(0..3);
        for e in 0..3 {
            fed.store("aod.db", 1, obj(e, ObjectKind::Esd)).unwrap();
        }
        let db = fed.file("aod.db").unwrap();
        assert!(db.required_schema.is_empty());
        let mut stamped = db.clone();
        stamped.required_schema = fed.schema_requirements_of(db);
        assert_eq!(stamped.required_schema.len(), 2);
        assert_eq!(fed.export("aod.db").unwrap(), stamped.encode());
    }

    #[test]
    fn navigation_works_when_both_files_attached() {
        let mut fed = fed_with_aods(0..3);
        fed.create_database("esd.db").unwrap();
        for e in 0..3 {
            fed.store("esd.db", 0, obj(e, ObjectKind::Esd)).unwrap();
        }
        let esd = fed.navigate(LogicalOid::new(1, ObjectKind::Aod), "esd").unwrap();
        assert_eq!(esd.logical, LogicalOid::new(1, ObjectKind::Esd));
    }

    #[test]
    fn navigation_fails_without_associated_file() {
        // The Section 2.1 scenario: AOD file replicated alone; ESD absent.
        let mut fed = fed_with_aods(0..3);
        let err = fed.navigate(LogicalOid::new(1, ObjectKind::Aod), "esd").unwrap_err();
        assert!(matches!(err, FedError::NavigationFailed { .. }));
    }

    #[test]
    fn navigation_unknown_label() {
        let mut fed = fed_with_aods(0..1);
        assert!(matches!(
            fed.navigate(LogicalOid::new(0, ObjectKind::Aod), "bogus"),
            Err(FedError::NoSuchAssociation { .. })
        ));
    }

    #[test]
    fn detach_reindexes_remaining_copies() {
        // Same logical object in two files (replica within a site, e.g.
        // after object replication created an extraction file).
        let mut fed = fed_with_aods(0..1);
        let img = {
            let mut tmp = Federation::new("t");
            tmp.create_database("copy.db").unwrap();
            tmp.store("copy.db", 0, obj(0, ObjectKind::Aod)).unwrap();
            tmp.export("copy.db").unwrap()
        };
        fed.attach(img).unwrap();
        // Still resolvable after dropping either file.
        fed.detach("aod.db").unwrap();
        assert!(fed.contains(LogicalOid::new(0, ObjectKind::Aod)));
        assert_eq!(fed.file_of(LogicalOid::new(0, ObjectKind::Aod)), Some("copy.db"));
    }

    fn fresh(event: u64, kind: ObjectKind, version: u32) -> FreshObject {
        FreshObject { logical: LogicalOid::new(event, kind), version, len: 40 + event as usize }
    }

    #[test]
    fn produce_is_storing_object_by_object() {
        let objects: Vec<FreshObject> = (0..6)
            .map(|e| fresh(e, ObjectKind::Tag, 1))
            .chain((0..6).map(|e| fresh(e, ObjectKind::Aod, 1)))
            .collect();
        let mut produced = fed_with_aods(10..12);
        produced.produce("p.db", &objects).unwrap();
        let mut stored = fed_with_aods(10..12);
        stored.create_database("p.db").unwrap();
        for o in &objects {
            let object = StoredObject {
                logical: o.logical,
                version: o.version,
                payload: synth_payload(o.logical, o.version, o.len),
                assocs: standard_assocs(o.logical),
            };
            stored.store("p.db", 0, object).unwrap();
        }
        let (a, b) = (produced.file("p.db").unwrap(), stored.file("p.db").unwrap());
        assert_eq!((a.db_id, &a.containers), (b.db_id, &b.containers));
        assert_eq!(produced.export("p.db").unwrap(), stored.export("p.db").unwrap());
        assert_eq!(produced.object_count(), stored.object_count());
        for o in &objects {
            assert_eq!(produced.file_of(o.logical), Some("p.db"));
        }
    }

    #[test]
    fn produce_keeps_the_read_only_rule_and_attaches_nothing_on_error() {
        let mut fed = fed_with_aods(0..3);
        let aod = |e| LogicalOid::new(e, ObjectKind::Aod);
        // Against stored objects: the first offender in order is named.
        let stale = [
            fresh(7, ObjectKind::Aod, 1),
            fresh(2, ObjectKind::Aod, 1),
            fresh(1, ObjectKind::Aod, 1),
        ];
        assert_eq!(fed.produce("n.db", &stale), Err(FedError::ReadOnlyViolation(aod(2))));
        // Against the objects before it, sorted or not.
        let repeat = [
            fresh(9, ObjectKind::Aod, 1),
            fresh(8, ObjectKind::Aod, 1),
            fresh(9, ObjectKind::Aod, 1),
        ];
        assert_eq!(fed.produce("n.db", &repeat), Err(FedError::ReadOnlyViolation(aod(9))));
        let older = [fresh(5, ObjectKind::Aod, 2), fresh(5, ObjectKind::Aod, 1)];
        assert_eq!(fed.produce("n.db", &older), Err(FedError::ReadOnlyViolation(aod(5))));
        // The rule is checked before the name, as `store` checks it first.
        assert_eq!(
            fed.produce("aod.db", &[fresh(0, ObjectKind::Aod, 1)]),
            Err(FedError::ReadOnlyViolation(aod(0)))
        );
        assert_eq!(
            fed.produce("aod.db", &[fresh(50, ObjectKind::Aod, 1)]),
            Err(FedError::AlreadyAttached("aod.db".into()))
        );
        assert_eq!((fed.files(), fed.object_count()), (vec!["aod.db".to_string()], 3));
        // A newer version is the sanctioned way, as with `store`.
        fed.produce("n.db", &[fresh(0, ObjectKind::Aod, 2), fresh(1, ObjectKind::Aod, 2)]).unwrap();
        assert_eq!(fed.file_of(aod(0)), Some("n.db"));
        assert_eq!(fed.get(aod(0)).unwrap().version, 2);
    }

    #[test]
    fn create_database_name_collision() {
        let mut fed = Federation::new("x");
        fed.create_database("a.db").unwrap();
        assert!(matches!(fed.create_database("a.db"), Err(FedError::AlreadyAttached(_))));
    }
}
