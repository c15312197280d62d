//! The Globus Replica Catalog (Section 3.1), layered on the LDAP directory.
//!
//! Three object kinds, exactly as the paper describes:
//! * **collection** — a named group of logical file names (datasets are
//!   manipulated as a whole);
//! * **location** — maps a subset of a collection's logical names to a
//!   physical storage URL prefix;
//! * **logical file entry** — optional attribute/value metadata for one
//!   logical file.
//!
//! "The heart of the system": [`ReplicaCatalog::locate`], returning all
//! physical locations of a logical file.

use serde::{Deserialize, Serialize};

use crate::ldap::{attrs, Attributes, Directory, Filter, LdapDn, LdapError, Scope, SearchResult};

/// Catalog-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    Ldap(LdapError),
    NoSuchCollection(String),
    NoSuchLocation(String),
    NoSuchLogicalFile(String),
    NotInCollection(String),
    DuplicateLogicalFile(String),
    InvalidName(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Ldap(e) => write!(f, "directory error: {e}"),
            CatalogError::NoSuchCollection(n) => write!(f, "no such collection: {n}"),
            CatalogError::NoSuchLocation(n) => write!(f, "no such location: {n}"),
            CatalogError::NoSuchLogicalFile(n) => write!(f, "no such logical file: {n}"),
            CatalogError::NotInCollection(n) => write!(f, "file not in collection: {n}"),
            CatalogError::DuplicateLogicalFile(n) => {
                write!(f, "logical file name already registered: {n}")
            }
            CatalogError::InvalidName(n) => write!(f, "invalid name: {n:?}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<LdapError> for CatalogError {
    fn from(e: LdapError) -> Self {
        CatalogError::Ldap(e)
    }
}

/// A physical replica of a logical file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalLocation {
    /// Location (site) name within the collection.
    pub location: String,
    /// Storage URL prefix, e.g. `gsiftp://cern.ch/data`.
    pub url_prefix: String,
    /// Full physical file name: `{url_prefix}/{lfn}`.
    pub pfn: String,
}

/// The replica catalog rooted at `rc={name}` in a directory.
#[derive(Debug, Clone)]
pub struct ReplicaCatalog {
    dir: Directory,
    root: LdapDn,
}

fn class_is(objectclass: &str) -> Filter {
    Filter::Equals("objectclass".into(), objectclass.into())
}

/// The RDN values of search hits: the names of the entries found.
fn names(hits: Vec<SearchResult<'_>>) -> Vec<String> {
    hits.into_iter().filter_map(|hit| hit.dn.rdn().map(|(_, v)| v.to_string())).collect()
}

fn valid_name(n: &str) -> Result<(), CatalogError> {
    if n.is_empty() || n.contains([',', '=', '/', '(', ')']) || n.contains(char::is_whitespace) {
        Err(CatalogError::InvalidName(n.to_string()))
    } else {
        Ok(())
    }
}

impl ReplicaCatalog {
    /// Create a catalog root named `name` in a fresh directory.
    pub fn new(name: &str) -> Self {
        let mut dir = Directory::new();
        let root = LdapDn::ROOT.child("rc", name);
        dir.add(root.clone(), attrs(&[("objectclass", "GlobusReplicaCatalog")]))
            .expect("fresh directory accepts root");
        ReplicaCatalog { dir, root }
    }

    fn collection_dn(&self, collection: &str) -> LdapDn {
        self.root.child("lc", collection)
    }

    fn location_dn(&self, collection: &str, location: &str) -> LdapDn {
        self.collection_dn(collection).child("loc", location)
    }

    fn lfe_dn(&self, collection: &str, lfn: &str) -> LdapDn {
        self.collection_dn(collection).child("lf", lfn)
    }

    fn require_collection(&self, collection: &str) -> Result<LdapDn, CatalogError> {
        let dn = self.collection_dn(collection);
        if self.dir.get(&dn).is_none() {
            return Err(CatalogError::NoSuchCollection(collection.to_string()));
        }
        Ok(dn)
    }

    // ---- collections -----------------------------------------------------

    pub fn create_collection(&mut self, name: &str) -> Result<(), CatalogError> {
        valid_name(name)?;
        self.dir.add(
            self.collection_dn(name),
            attrs(&[("objectclass", "GlobusReplicaCollection"), ("name", name)]),
        )?;
        Ok(())
    }

    /// Delete a collection and all its locations and logical file entries.
    pub fn delete_collection(&mut self, name: &str) -> Result<(), CatalogError> {
        let dn = self.require_collection(name)?;
        self.dir.delete_subtree(&dn)?;
        Ok(())
    }

    pub fn list_collections(&mut self) -> Vec<String> {
        names(self.dir.search(&self.root, Scope::OneLevel, &class_is("GlobusReplicaCollection")))
    }

    pub fn collection_exists(&self, name: &str) -> bool {
        self.dir.get(&self.collection_dn(name)).is_some()
    }

    /// Register logical file names in a collection.
    pub fn add_filenames(&mut self, collection: &str, lfns: &[&str]) -> Result<(), CatalogError> {
        let dn = self.require_collection(collection)?;
        for lfn in lfns {
            valid_name(lfn)?;
        }
        for lfn in lfns {
            self.dir.add_value(&dn, "filename", lfn)?;
        }
        Ok(())
    }

    /// Remove logical file names from a collection (and from every location
    /// in it, keeping the catalog consistent).
    pub fn remove_filenames(
        &mut self,
        collection: &str,
        lfns: &[&str],
    ) -> Result<(), CatalogError> {
        let dn = self.require_collection(collection)?;
        for lfn in lfns {
            self.dir.remove_value(&dn, "filename", lfn)?;
        }
        for loc in self.list_locations(collection)? {
            let ldn = self.location_dn(collection, &loc);
            for lfn in lfns {
                self.dir.remove_value(&ldn, "filename", lfn)?;
            }
        }
        Ok(())
    }

    pub fn list_filenames(&mut self, collection: &str) -> Result<Vec<String>, CatalogError> {
        let dn = self.require_collection(collection)?;
        Ok(self
            .dir
            .get(&dn)
            .and_then(|a| a.get("filename"))
            .map(|v| v.iter().cloned().collect())
            .unwrap_or_default())
    }

    pub fn contains_filename(&self, collection: &str, lfn: &str) -> bool {
        self.dir
            .get(&self.collection_dn(collection))
            .and_then(|a| a.get("filename"))
            .is_some_and(|v| v.contains(lfn))
    }

    // ---- locations -------------------------------------------------------

    pub fn create_location(
        &mut self,
        collection: &str,
        location: &str,
        url_prefix: &str,
    ) -> Result<(), CatalogError> {
        valid_name(location)?;
        self.require_collection(collection)?;
        let mut a = attrs(&[("objectclass", "GlobusReplicaLocation"), ("name", location)]);
        a.insert("url".into(), std::iter::once(url_prefix.to_string()).collect());
        self.dir.add(self.location_dn(collection, location), a)?;
        Ok(())
    }

    pub fn list_locations(&mut self, collection: &str) -> Result<Vec<String>, CatalogError> {
        let dn = self.require_collection(collection)?;
        Ok(names(self.dir.search(&dn, Scope::OneLevel, &class_is("GlobusReplicaLocation"))))
    }

    pub fn location_exists(&self, collection: &str, location: &str) -> bool {
        self.dir.get(&self.location_dn(collection, location)).is_some()
    }

    /// Record that `location` holds replicas of the given (already
    /// registered) logical files.
    pub fn location_add_filenames(
        &mut self,
        collection: &str,
        location: &str,
        lfns: &[&str],
    ) -> Result<(), CatalogError> {
        self.require_collection(collection)?;
        let dn = self.location_dn(collection, location);
        if self.dir.get(&dn).is_none() {
            return Err(CatalogError::NoSuchLocation(location.to_string()));
        }
        for lfn in lfns {
            if !self.contains_filename(collection, lfn) {
                return Err(CatalogError::NotInCollection((*lfn).to_string()));
            }
        }
        for lfn in lfns {
            self.dir.add_value(&dn, "filename", lfn)?;
        }
        Ok(())
    }

    pub fn location_remove_filenames(
        &mut self,
        collection: &str,
        location: &str,
        lfns: &[&str],
    ) -> Result<(), CatalogError> {
        self.require_collection(collection)?;
        let dn = self.location_dn(collection, location);
        if self.dir.get(&dn).is_none() {
            return Err(CatalogError::NoSuchLocation(location.to_string()));
        }
        for lfn in lfns {
            self.dir.remove_value(&dn, "filename", lfn)?;
        }
        Ok(())
    }

    pub fn location_filenames(
        &mut self,
        collection: &str,
        location: &str,
    ) -> Result<Vec<String>, CatalogError> {
        self.require_collection(collection)?;
        let dn = self.location_dn(collection, location);
        let a =
            self.dir.get(&dn).ok_or_else(|| CatalogError::NoSuchLocation(location.to_string()))?;
        Ok(a.get("filename").map(|v| v.iter().cloned().collect()).unwrap_or_default())
    }

    // ---- logical file entries ---------------------------------------------

    /// Create (or error on duplicate) the optional attribute/value entry
    /// for a logical file.
    pub fn create_logical_file_entry(
        &mut self,
        collection: &str,
        lfn: &str,
        attributes: &[(&str, &str)],
    ) -> Result<(), CatalogError> {
        self.require_collection(collection)?;
        if !self.contains_filename(collection, lfn) {
            return Err(CatalogError::NotInCollection(lfn.to_string()));
        }
        let dn = self.lfe_dn(collection, lfn);
        if self.dir.get(&dn).is_some() {
            return Err(CatalogError::DuplicateLogicalFile(lfn.to_string()));
        }
        let mut a: Attributes = attrs(&[("objectclass", "GlobusFile"), ("name", lfn)]);
        for (k, v) in attributes {
            a.entry((*k).to_string()).or_default().insert((*v).to_string());
        }
        self.dir.add(dn, a)?;
        Ok(())
    }

    /// Delete the attribute/value entry of a logical file.
    pub fn delete_logical_file_entry(
        &mut self,
        collection: &str,
        lfn: &str,
    ) -> Result<(), CatalogError> {
        self.require_collection(collection)?;
        self.dir
            .delete(&self.lfe_dn(collection, lfn))
            .map_err(|_| CatalogError::NoSuchLogicalFile(lfn.to_string()))?;
        Ok(())
    }

    pub fn logical_file_attributes(
        &mut self,
        collection: &str,
        lfn: &str,
    ) -> Result<Attributes, CatalogError> {
        self.require_collection(collection)?;
        self.dir
            .get(&self.lfe_dn(collection, lfn))
            .cloned()
            .ok_or_else(|| CatalogError::NoSuchLogicalFile(lfn.to_string()))
    }

    pub fn set_logical_file_attribute(
        &mut self,
        collection: &str,
        lfn: &str,
        attr: &str,
        value: &str,
    ) -> Result<(), CatalogError> {
        self.require_collection(collection)?;
        let dn = self.lfe_dn(collection, lfn);
        if self.dir.get(&dn).is_none() {
            return Err(CatalogError::NoSuchLogicalFile(lfn.to_string()));
        }
        self.dir.replace_values(&dn, attr, &[value])?;
        Ok(())
    }

    /// Search logical file entries of a collection with an LDAP filter.
    pub fn search_logical_files(
        &mut self,
        collection: &str,
        filter: &Filter,
    ) -> Result<Vec<(String, Attributes)>, CatalogError> {
        let dn = self.require_collection(collection)?;
        let combined = Filter::And(vec![class_is("GlobusFile"), filter.clone()]);
        Ok(self
            .dir
            .search(&dn, Scope::OneLevel, &combined)
            .into_iter()
            .filter_map(|r| r.dn.rdn().map(|(_, v)| (v.to_string(), r.attrs.clone())))
            .collect())
    }

    // ---- the heart of the system -------------------------------------------

    /// All physical locations of a logical file: one search for the
    /// collection's location entries that list the name.
    pub fn locate(
        &mut self,
        collection: &str,
        lfn: &str,
    ) -> Result<Vec<PhysicalLocation>, CatalogError> {
        let dn = self.require_collection(collection)?;
        if !self.contains_filename(collection, lfn) {
            return Err(CatalogError::NotInCollection(lfn.to_string()));
        }
        let holds_lfn = Filter::And(vec![
            class_is("GlobusReplicaLocation"),
            Filter::Equals("filename".into(), lfn.into()),
        ]);
        let hits = self.dir.search(&dn, Scope::OneLevel, &holds_lfn);
        Ok(hits
            .into_iter()
            .filter_map(|hit| {
                let (_, location) = hit.dn.rdn()?;
                let url_prefix =
                    hit.attrs.get("url").and_then(|v| v.iter().next()).cloned().unwrap_or_default();
                Some(PhysicalLocation {
                    location: location.to_string(),
                    pfn: format!("{}/{}", url_prefix.trim_end_matches('/'), lfn),
                    url_prefix,
                })
            })
            .collect())
    }

    /// Read-only access to the backing directory (statistics, snapshots).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> ReplicaCatalog {
        let mut rc = ReplicaCatalog::new("GDMP");
        rc.create_collection("higgs").unwrap();
        rc.add_filenames("higgs", &["run1.db", "run2.db", "run3.db"]).unwrap();
        rc.create_location("higgs", "cern", "gsiftp://cern.ch/data").unwrap();
        rc.create_location("higgs", "anl", "gsiftp://anl.gov/store").unwrap();
        rc.location_add_filenames("higgs", "cern", &["run1.db", "run2.db", "run3.db"]).unwrap();
        rc.location_add_filenames("higgs", "anl", &["run2.db"]).unwrap();
        rc
    }

    #[test]
    fn locate_returns_all_replicas() {
        let mut rc = seeded();
        let locs = rc.locate("higgs", "run2.db").unwrap();
        assert_eq!(locs.len(), 2);
        let pfns: Vec<_> = locs.iter().map(|l| l.pfn.as_str()).collect();
        assert!(pfns.contains(&"gsiftp://cern.ch/data/run2.db"));
        assert!(pfns.contains(&"gsiftp://anl.gov/store/run2.db"));
        assert_eq!(rc.locate("higgs", "run1.db").unwrap().len(), 1);
    }

    #[test]
    fn locate_unknown_file_errors() {
        let mut rc = seeded();
        assert!(matches!(rc.locate("higgs", "nope.db"), Err(CatalogError::NotInCollection(_))));
        assert!(matches!(rc.locate("zee", "run1.db"), Err(CatalogError::NoSuchCollection(_))));
    }

    #[test]
    fn location_requires_registered_lfn() {
        let mut rc = seeded();
        assert!(matches!(
            rc.location_add_filenames("higgs", "anl", &["ghost.db"]),
            Err(CatalogError::NotInCollection(_))
        ));
    }

    #[test]
    fn remove_filenames_cascades_to_locations() {
        let mut rc = seeded();
        rc.remove_filenames("higgs", &["run2.db"]).unwrap();
        assert!(!rc.contains_filename("higgs", "run2.db"));
        assert!(!rc.location_filenames("higgs", "anl").unwrap().contains(&"run2.db".to_string()));
        assert!(rc.contains_filename("higgs", "run1.db"));
    }

    #[test]
    fn logical_file_entries_and_search() {
        let mut rc = seeded();
        rc.create_logical_file_entry("higgs", "run1.db", &[("size", "1000"), ("crc32", "abc")])
            .unwrap();
        rc.create_logical_file_entry("higgs", "run2.db", &[("size", "5000")]).unwrap();
        let a = rc.logical_file_attributes("higgs", "run1.db").unwrap();
        assert!(a["size"].contains("1000"));
        let hits =
            rc.search_logical_files("higgs", &Filter::parse("(size=5000)").unwrap()).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "run2.db");
        // Wildcard search over names.
        let all = rc.search_logical_files("higgs", &Filter::parse("(name=run*)").unwrap()).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn duplicate_logical_file_entry_rejected() {
        let mut rc = seeded();
        rc.create_logical_file_entry("higgs", "run1.db", &[]).unwrap();
        assert!(matches!(
            rc.create_logical_file_entry("higgs", "run1.db", &[]),
            Err(CatalogError::DuplicateLogicalFile(_))
        ));
    }

    #[test]
    fn delete_collection_removes_everything() {
        let mut rc = seeded();
        rc.delete_collection("higgs").unwrap();
        assert!(rc.list_collections().is_empty());
        assert!(!rc.collection_exists("higgs"));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut rc = ReplicaCatalog::new("GDMP");
        assert!(matches!(rc.create_collection(""), Err(CatalogError::InvalidName(_))));
        assert!(matches!(rc.create_collection("a,b"), Err(CatalogError::InvalidName(_))));
        rc.create_collection("ok").unwrap();
        assert!(matches!(rc.add_filenames("ok", &["bad name"]), Err(CatalogError::InvalidName(_))));
    }

    #[test]
    fn attribute_update() {
        let mut rc = seeded();
        rc.create_logical_file_entry("higgs", "run1.db", &[("size", "1")]).unwrap();
        rc.set_logical_file_attribute("higgs", "run1.db", "size", "2").unwrap();
        let a = rc.logical_file_attributes("higgs", "run1.db").unwrap();
        assert_eq!(a["size"].iter().next().map(String::as_str), Some("2"));
    }
}
