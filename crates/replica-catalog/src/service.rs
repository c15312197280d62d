//! The GDMP Replica Catalog *service* (Section 4.2): a high-level wrapper
//! over the Globus catalog that adds search filters, sanity checks on input
//! parameters, automatic creation of required entries, a global unique
//! logical-namespace guarantee, and fewer calls per operation.
//!
//! As in the paper, a single central catalog serves all sites ("for
//! simplicity, a central replica catalog and a single LDAP server");
//! GDMP servers share one service instance behind a lock.

use serde::{Deserialize, Serialize};

use crate::catalog::{CatalogError, PhysicalLocation, ReplicaCatalog};
use crate::ldap::{Directory, Filter};

/// Metadata GDMP publishes alongside each logical file (the paper lists
/// file size and modification time-stamp; we add the CRC the Data Mover
/// verifies, and the file type that selects pre/post-processing plugins).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    pub size: u64,
    /// Modification timestamp, simulated seconds.
    pub modified: u64,
    /// CRC-32 of the contents.
    pub crc32: u32,
    /// File type tag: `objectivity`, `flat`, `oracle`, ...
    pub file_type: String,
}

impl FileMeta {
    fn to_attrs(&self) -> Vec<(String, String)> {
        vec![
            ("size".into(), self.size.to_string()),
            ("modified".into(), self.modified.to_string()),
            ("crc32".into(), format!("{:08x}", self.crc32)),
            ("filetype".into(), self.file_type.clone()),
        ]
    }

    fn from_attrs(attrs: &crate::ldap::Attributes) -> Option<FileMeta> {
        let one = |k: &str| attrs.get(k).and_then(|v| v.iter().next()).cloned();
        Some(FileMeta {
            size: one("size")?.parse().ok()?,
            modified: one("modified")?.parse().ok()?,
            crc32: u32::from_str_radix(&one("crc32")?, 16).ok()?,
            file_type: one("filetype")?,
        })
    }
}

/// Everything a consumer site needs to replicate a file: its metadata and
/// all current physical instances.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaInfo {
    pub lfn: String,
    pub meta: FileMeta,
    pub replicas: Vec<PhysicalLocation>,
}

/// High-level catalog service.
#[derive(Debug, Clone)]
pub struct ReplicaCatalogService {
    catalog: ReplicaCatalog,
    collection: String,
    /// Counter backing automatic logical-name generation.
    next_auto: u64,
}

impl ReplicaCatalogService {
    /// Open (and auto-create) the collection in a fresh catalog.
    pub fn new(catalog_name: &str, collection: &str) -> Result<Self, CatalogError> {
        let mut catalog = ReplicaCatalog::new(catalog_name);
        catalog.create_collection(collection)?;
        Ok(ReplicaCatalogService { catalog, collection: collection.to_string(), next_auto: 0 })
    }

    pub fn collection(&self) -> &str {
        &self.collection
    }

    /// Generate a fresh, unique logical file name.
    pub fn generate_lfn(&mut self, hint: &str) -> String {
        loop {
            let candidate = format!("{hint}.{:08}", self.next_auto);
            self.next_auto += 1;
            if !self.catalog.contains_filename(&self.collection, &candidate) {
                return candidate;
            }
        }
    }

    /// Publish a new logical file with its first physical replica.
    ///
    /// * `lfn: None` → a name is generated; `Some(name)` is verified unique
    ///   (the paper: "user-selected logical file names are verified to be
    ///   unique before adding them").
    /// * The site's location entry is auto-created on first use.
    ///
    /// Returns the logical file name actually registered.
    pub fn publish(
        &mut self,
        lfn: Option<&str>,
        site: &str,
        url_prefix: &str,
        meta: &FileMeta,
    ) -> Result<String, CatalogError> {
        let name = match lfn {
            Some(n) => {
                if self.catalog.contains_filename(&self.collection, n) {
                    return Err(CatalogError::DuplicateLogicalFile(n.to_string()));
                }
                n.to_string()
            }
            None => self.generate_lfn("lfn"),
        };
        self.catalog.add_filenames(&self.collection, &[&name])?;
        self.ensure_location(site, url_prefix)?;
        self.catalog.location_add_filenames(&self.collection, site, &[&name])?;
        let attr_pairs = meta.to_attrs();
        let attr_refs: Vec<(&str, &str)> =
            attr_pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        self.catalog.create_logical_file_entry(&self.collection, &name, &attr_refs)?;
        Ok(name)
    }

    /// Register an *additional* replica of an already-published file.
    pub fn add_replica(
        &mut self,
        lfn: &str,
        site: &str,
        url_prefix: &str,
    ) -> Result<(), CatalogError> {
        if !self.catalog.contains_filename(&self.collection, lfn) {
            return Err(CatalogError::NotInCollection(lfn.to_string()));
        }
        self.ensure_location(site, url_prefix)?;
        self.catalog.location_add_filenames(&self.collection, site, &[lfn])
    }

    /// Remove one site's replica; when the last replica goes, the logical
    /// file and its metadata entry are retired too, and the name is free
    /// to be published again.
    pub fn remove_replica(&mut self, lfn: &str, site: &str) -> Result<(), CatalogError> {
        self.catalog.location_remove_filenames(&self.collection, site, &[lfn])?;
        if self.catalog.locate(&self.collection, lfn)?.is_empty() {
            self.catalog.remove_filenames(&self.collection, &[lfn])?;
            // The logical file entry is optional: none to drop is fine.
            match self.catalog.delete_logical_file_entry(&self.collection, lfn) {
                Ok(()) | Err(CatalogError::NoSuchLogicalFile(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// All physical instances of `lfn`.
    pub fn locate(&mut self, lfn: &str) -> Result<Vec<PhysicalLocation>, CatalogError> {
        self.catalog.locate(&self.collection, lfn)
    }

    /// Full replica info for `lfn`.
    pub fn info(&mut self, lfn: &str) -> Result<ReplicaInfo, CatalogError> {
        let replicas = self.catalog.locate(&self.collection, lfn)?;
        let attrs = self.catalog.logical_file_attributes(&self.collection, lfn)?;
        let meta = FileMeta::from_attrs(&attrs)
            .ok_or_else(|| CatalogError::NoSuchLogicalFile(lfn.to_string()))?;
        Ok(ReplicaInfo { lfn: lfn.to_string(), meta, replicas })
    }

    /// Query with an LDAP filter string over metadata; the paper: "users can
    /// specify filters to obtain the exact information that they require".
    pub fn query(&mut self, filter: &str) -> Result<Vec<ReplicaInfo>, CatalogError> {
        let f = Filter::parse(filter)?;
        let hits = self.catalog.search_logical_files(&self.collection, &f)?;
        let mut out = Vec::with_capacity(hits.len());
        for (lfn, attrs) in hits {
            let Some(meta) = FileMeta::from_attrs(&attrs) else { continue };
            let replicas = self.catalog.locate(&self.collection, &lfn)?;
            out.push(ReplicaInfo { lfn, meta, replicas });
        }
        Ok(out)
    }

    /// All logical files currently known.
    pub fn list(&mut self) -> Result<Vec<String>, CatalogError> {
        self.catalog.list_filenames(&self.collection)
    }

    /// Logical files a given site holds.
    pub fn site_files(&mut self, site: &str) -> Result<Vec<String>, CatalogError> {
        self.catalog.location_filenames(&self.collection, site)
    }

    fn ensure_location(&mut self, site: &str, url_prefix: &str) -> Result<(), CatalogError> {
        if !self.catalog.location_exists(&self.collection, site) {
            self.catalog.create_location(&self.collection, site, url_prefix)?;
        }
        Ok(())
    }

    /// Read-only access to the backing directory, for its load counters.
    pub fn directory(&self) -> &Directory {
        self.catalog.directory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(size: u64) -> FileMeta {
        FileMeta { size, modified: 1000, crc32: 0xdead_beef, file_type: "objectivity".into() }
    }

    fn svc() -> ReplicaCatalogService {
        ReplicaCatalogService::new("GDMP", "cms").unwrap()
    }

    #[test]
    fn publish_and_locate() {
        let mut s = svc();
        let lfn = s.publish(Some("run1.db"), "cern", "gsiftp://cern.ch/data", &meta(100)).unwrap();
        assert_eq!(lfn, "run1.db");
        let locs = s.locate("run1.db").unwrap();
        assert_eq!(locs.len(), 1);
        assert_eq!(locs[0].pfn, "gsiftp://cern.ch/data/run1.db");
    }

    #[test]
    fn duplicate_user_name_rejected() {
        let mut s = svc();
        s.publish(Some("x.db"), "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        assert!(matches!(
            s.publish(Some("x.db"), "anl", "gsiftp://anl.gov/d", &meta(1)),
            Err(CatalogError::DuplicateLogicalFile(_))
        ));
    }

    #[test]
    fn auto_generated_names_are_unique() {
        let mut s = svc();
        let a = s.publish(None, "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        let b = s.publish(None, "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.list().unwrap().len(), 2);
    }

    #[test]
    fn add_replica_and_metadata_roundtrip() {
        let mut s = svc();
        s.publish(Some("x.db"), "cern", "gsiftp://cern.ch/d", &meta(42)).unwrap();
        s.add_replica("x.db", "anl", "gsiftp://anl.gov/store").unwrap();
        let info = s.info("x.db").unwrap();
        assert_eq!(info.meta, meta(42));
        assert_eq!(info.replicas.len(), 2);
    }

    #[test]
    fn add_replica_of_unknown_file_fails() {
        let mut s = svc();
        assert!(matches!(
            s.add_replica("ghost.db", "anl", "gsiftp://anl.gov/d"),
            Err(CatalogError::NotInCollection(_))
        ));
    }

    #[test]
    fn query_by_metadata_filter() {
        let mut s = svc();
        s.publish(Some("small.db"), "cern", "gsiftp://cern.ch/d", &meta(10)).unwrap();
        s.publish(Some("big.db"), "cern", "gsiftp://cern.ch/d", &meta(1_000_000)).unwrap();
        let hits = s.query("(size=1000000)").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lfn, "big.db");
        // Wildcard name query returns both.
        assert_eq!(s.query("(name=*.db)").unwrap().len(), 2);
        // Type filter.
        assert_eq!(s.query("(filetype=objectivity)").unwrap().len(), 2);
    }

    #[test]
    fn remove_last_replica_retires_file() {
        let mut s = svc();
        s.publish(Some("x.db"), "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        s.add_replica("x.db", "anl", "gsiftp://anl.gov/d").unwrap();
        s.remove_replica("x.db", "cern").unwrap();
        assert_eq!(s.locate("x.db").unwrap().len(), 1);
        s.remove_replica("x.db", "anl").unwrap();
        assert!(s.locate("x.db").is_err(), "file should be gone from the namespace");
    }

    /// Retiring a file drops its metadata entry, so the name can be
    /// published again and `info` reports the new file, not the old one.
    #[test]
    fn retired_name_can_be_republished() {
        let mut s = svc();
        s.publish(Some("x.db"), "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        s.remove_replica("x.db", "cern").unwrap();
        assert!(matches!(s.info("x.db"), Err(CatalogError::NotInCollection(_))));
        s.publish(Some("x.db"), "anl", "gsiftp://anl.gov/d", &meta(2)).unwrap();
        let info = s.info("x.db").unwrap();
        assert_eq!(info.meta, meta(2));
        assert_eq!(info.replicas.len(), 1);
        assert_eq!(info.replicas[0].location, "anl");
    }

    #[test]
    fn site_files_lists_holdings() {
        let mut s = svc();
        s.publish(Some("a.db"), "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        s.publish(Some("b.db"), "cern", "gsiftp://cern.ch/d", &meta(1)).unwrap();
        s.add_replica("a.db", "anl", "gsiftp://anl.gov/d").unwrap();
        assert_eq!(s.site_files("cern").unwrap().len(), 2);
        assert_eq!(s.site_files("anl").unwrap(), vec!["a.db".to_string()]);
    }
}
