//! Property tests: directory/catalog invariants hold under arbitrary
//! operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gdmp_replica_catalog::ldap::{attrs, Attributes, Directory, Filter, LdapDn, LdapError, Scope};
use gdmp_replica_catalog::{FileMeta, ReplicaCatalogService};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,12}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Publishing any set of names (with duplicates filtered by the service)
    /// keeps the namespace globally unique, and every published file is
    /// locatable at its publishing site.
    #[test]
    fn namespace_stays_unique(names in proptest::collection::vec(name_strategy(), 1..24)) {
        let mut svc = ReplicaCatalogService::new("GDMP", "cms").unwrap();
        let meta = FileMeta { size: 1, modified: 0, crc32: 0, file_type: "flat".into() };
        let mut published = Vec::new();
        for n in &names {
            match svc.publish(Some(n), "cern", "gsiftp://cern.ch/d", &meta) {
                Ok(lfn) => published.push(lfn),
                Err(_) => prop_assert!(published.contains(n), "rejected a non-duplicate name"),
            }
        }
        let mut sorted = published.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), published.len(), "duplicate LFN registered");
        for lfn in &published {
            let locs = svc.locate(lfn).unwrap();
            prop_assert_eq!(locs.len(), 1);
        }
    }

    /// Auto-generated names never collide, even interleaved with
    /// user-chosen names that mimic the generator's format.
    #[test]
    fn autogen_never_collides(k in 1usize..32) {
        let mut svc = ReplicaCatalogService::new("GDMP", "cms").unwrap();
        let meta = FileMeta { size: 1, modified: 0, crc32: 0, file_type: "flat".into() };
        // Squat on the first few generator outputs.
        svc.publish(Some("lfn.00000000"), "cern", "u://x", &meta).unwrap();
        svc.publish(Some("lfn.00000002"), "cern", "u://x", &meta).unwrap();
        let mut seen = std::collections::HashSet::new();
        seen.insert("lfn.00000000".to_string());
        seen.insert("lfn.00000002".to_string());
        for _ in 0..k {
            let lfn = svc.publish(None, "cern", "u://x", &meta).unwrap();
            prop_assert!(seen.insert(lfn), "generator produced a duplicate");
        }
    }

    /// A subtree search never returns entries outside the base, and a Base
    /// search returns at most one entry.
    #[test]
    fn search_respects_scope(leaves in proptest::collection::vec(name_strategy(), 1..16)) {
        let mut d = Directory::new();
        let root = LdapDn::parse("rc=GDMP").unwrap();
        d.add(root.clone(), attrs(&[("objectclass", "root")])).unwrap();
        let a = root.child("lc", "a");
        let b = root.child("lc", "b");
        d.add(a.clone(), attrs(&[("objectclass", "col")])).unwrap();
        d.add(b.clone(), attrs(&[("objectclass", "col")])).unwrap();
        for (i, leaf) in leaves.iter().enumerate() {
            let parent = if i % 2 == 0 { &a } else { &b };
            // Duplicate leaf names under the same parent are rejected; fine.
            let _ = d.add(parent.child("lf", leaf), attrs(&[("objectclass", "file")]));
        }
        for hit in d.search(&a, Scope::Subtree, &Filter::True) {
            prop_assert!(hit.dn.is_under(&a));
        }
        prop_assert!(d.search(&b, Scope::Base, &Filter::True).len() <= 1);
        let one = d.search(&root, Scope::OneLevel, &Filter::True);
        prop_assert_eq!(one.len(), 2);
    }

    /// Filter algebra: `(!(f))` matches exactly the complement of `f` over
    /// any entry set; `(&(f)(!(f)))` matches nothing.
    #[test]
    fn filter_complement(values in proptest::collection::vec(name_strategy(), 1..20)) {
        let f = Filter::parse("(name=a*)").unwrap();
        let not_f = Filter::parse("(!(name=a*))").unwrap();
        let contradiction = Filter::parse("(&(name=a*)(!(name=a*)))").unwrap();
        for v in &values {
            let entry = attrs(&[("name", v)]);
            prop_assert_ne!(f.matches(&entry), not_f.matches(&entry));
            prop_assert!(!contradiction.matches(&entry));
        }
    }

    /// remove_replica is idempotent-safe and retires files exactly when the
    /// last replica disappears.
    #[test]
    fn replica_lifecycle(sites in proptest::collection::hash_set("[a-z]{3,6}", 1..6)) {
        let sites: Vec<String> = sites.into_iter().collect();
        let mut svc = ReplicaCatalogService::new("GDMP", "cms").unwrap();
        let meta = FileMeta { size: 1, modified: 0, crc32: 0, file_type: "flat".into() };
        svc.publish(Some("f.db"), &sites[0], "u://0", &meta).unwrap();
        for (i, s) in sites.iter().enumerate().skip(1) {
            svc.add_replica("f.db", s, &format!("u://{i}")).unwrap();
        }
        prop_assert_eq!(svc.locate("f.db").unwrap().len(), sites.len());
        for (i, s) in sites.iter().enumerate() {
            svc.remove_replica("f.db", s).unwrap();
            let remaining = sites.len() - i - 1;
            if remaining > 0 {
                prop_assert_eq!(svc.locate("f.db").unwrap().len(), remaining);
            } else {
                prop_assert!(svc.locate("f.db").is_err());
            }
        }
    }
}

// ---- indexed search == reference scan -------------------------------------

/// The directory as it was before it had indexes: one map, and a search
/// that looks at every entry. The reference the indexed `Directory` must
/// agree with, operation by operation and hit by hit.
#[derive(Default)]
struct ScanDirectory {
    entries: BTreeMap<LdapDn, Attributes>,
}

impl ScanDirectory {
    fn apply(&mut self, op: &Op) -> Result<usize, LdapError> {
        let missing = |dn: &LdapDn| LdapError::NoSuchEntry(dn.to_string());
        match op {
            Op::Add(dn, attributes) => {
                if self.entries.contains_key(dn) {
                    return Err(LdapError::AlreadyExists(dn.to_string()));
                }
                let parent = dn.parent();
                if !parent.is_root() && !self.entries.contains_key(&parent) {
                    return Err(LdapError::NoSuchParent(parent.to_string()));
                }
                self.entries.insert(dn.clone(), attrs(&as_refs(attributes)));
                Ok(0)
            }
            Op::AddValue(dn, attr, value) => {
                let e = self.entries.get_mut(dn).ok_or_else(|| missing(dn))?;
                e.entry(attr.clone()).or_default().insert(value.clone());
                Ok(0)
            }
            Op::RemoveValue(dn, attr, value) => {
                let e = self.entries.get_mut(dn).ok_or_else(|| missing(dn))?;
                let Some(vals) = e.get_mut(attr) else { return Ok(0) };
                let removed = vals.remove(value);
                if vals.is_empty() {
                    e.remove(attr);
                }
                Ok(usize::from(removed))
            }
            Op::ReplaceValues(dn, attr, values) => {
                let e = self.entries.get_mut(dn).ok_or_else(|| missing(dn))?;
                if values.is_empty() {
                    e.remove(attr);
                } else {
                    e.insert(attr.clone(), values.iter().cloned().collect());
                }
                Ok(0)
            }
            Op::Delete(dn) => {
                if !self.entries.contains_key(dn) {
                    return Err(missing(dn));
                }
                if self.entries.keys().any(|d| d != dn && d.is_under(dn)) {
                    return Err(LdapError::NotLeaf(dn.to_string()));
                }
                self.entries.remove(dn);
                Ok(0)
            }
            Op::DeleteSubtree(dn) => {
                if !self.entries.contains_key(dn) {
                    return Err(missing(dn));
                }
                let before = self.entries.len();
                self.entries.retain(|d, _| !d.is_under(dn));
                Ok(before - self.entries.len())
            }
        }
    }

    fn search(&self, base: &LdapDn, scope: Scope, filter: &Filter) -> Vec<(&LdapDn, &Attributes)> {
        self.entries
            .iter()
            .filter(|(dn, _)| match scope {
                Scope::Base => *dn == base,
                Scope::OneLevel => dn.parent() == *base,
                Scope::Subtree => dn.is_under(base),
            })
            .filter(|(_, attrs)| filter.matches(attrs))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Add(LdapDn, Vec<(String, String)>),
    AddValue(LdapDn, String, String),
    RemoveValue(LdapDn, String, String),
    ReplaceValues(LdapDn, String, Vec<String>),
    Delete(LdapDn),
    DeleteSubtree(LdapDn),
}

fn as_refs(pairs: &[(String, String)]) -> Vec<(&str, &str)> {
    pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

/// The same operation on the indexed directory, results folded to the
/// reference's shape.
fn apply(d: &mut Directory, op: &Op) -> Result<usize, LdapError> {
    match op {
        Op::Add(dn, attributes) => d.add(dn.clone(), attrs(&as_refs(attributes))).map(|()| 0),
        Op::AddValue(dn, attr, value) => d.add_value(dn, attr, value).map(|()| 0),
        Op::RemoveValue(dn, attr, value) => d.remove_value(dn, attr, value).map(usize::from),
        Op::ReplaceValues(dn, attr, values) => {
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            d.replace_values(dn, attr, &values).map(|()| 0)
        }
        Op::Delete(dn) => d.delete(dn).map(|()| 0),
        Op::DeleteSubtree(dn) => d.delete_subtree(dn),
    }
}

/// Names come from a universe of three, so that sequences collide: adds
/// hit existing entries, deletes hit parents, values repeat across entries.
const NAMES: [&str; 3] = ["u", "v", "w"];
/// Two indexed attributes and one that is not.
const ATTRS: [&str; 3] = ["objectclass", "filename", "size"];

/// Every DN of the universe, parents before children: depth 1 to 3,
/// `rc` / `lc` / `lf` by depth.
fn universe() -> Vec<LdapDn> {
    let mut out = Vec::new();
    for a in NAMES {
        let rc = LdapDn::ROOT.child("rc", a);
        out.push(rc.clone());
        for b in NAMES {
            let lc = rc.child("lc", b);
            out.push(lc.clone());
            out.extend(NAMES.iter().map(|c| lc.child("lf", c)));
        }
    }
    out
}

fn dn_strategy() -> impl Strategy<Value = LdapDn> {
    let all = universe();
    (0..all.len()).prop_map(move |i| all[i].clone())
}

fn pick(from: [&'static str; 3]) -> impl Strategy<Value = String> {
    (0usize..3).prop_map(move |i| from[i].to_string())
}

fn attrs_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((pick(ATTRS), pick(NAMES)), 0..4)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (dn_strategy(), attrs_strategy()).prop_map(|(dn, a)| Op::Add(dn, a)),
        (dn_strategy(), pick(ATTRS), pick(NAMES)).prop_map(|(dn, a, v)| Op::AddValue(dn, a, v)),
        (dn_strategy(), pick(ATTRS), pick(NAMES)).prop_map(|(dn, a, v)| Op::RemoveValue(dn, a, v)),
        (dn_strategy(), pick(ATTRS), proptest::collection::vec(pick(NAMES), 0..3))
            .prop_map(|(dn, a, vs)| Op::ReplaceValues(dn, a, vs)),
        dn_strategy().prop_map(Op::Delete),
        dn_strategy().prop_map(Op::DeleteSubtree),
    ]
}

fn eq(attr: &str, value: &str) -> Filter {
    Filter::Equals(attr.into(), value.into())
}

/// Filters that engage an index (a plain `Equals` on an indexed attribute,
/// alone or as a top-level `And` term, held by somebody or by nobody) and
/// filters that must not (everything else).
fn filters() -> Vec<Filter> {
    vec![
        eq("objectclass", "u"),
        eq("filename", "v"),
        eq("filename", "nobody"),
        Filter::And(vec![eq("objectclass", "u"), eq("filename", "v")]),
        Filter::And(vec![eq("size", "w"), eq("filename", "u")]),
        Filter::And(vec![eq("objectclass", "v"), Filter::Not(Box::new(eq("filename", "v")))]),
        Filter::And(vec![eq("objectclass", "w"), eq("filename", "nobody")]),
        eq("size", "u"),
        eq("objectclass", "*"),
        eq("filename", "u*"),
        Filter::And(vec![eq("size", "u"), Filter::Present("filename".into())]),
        Filter::And(vec![eq("filename", "*v"), eq("size", "v")]),
        Filter::And(vec![Filter::And(vec![eq("objectclass", "u")])]),
        Filter::Or(vec![eq("objectclass", "u"), eq("filename", "v")]),
        Filter::Not(Box::new(eq("objectclass", "u"))),
        Filter::Present("filename".into()),
        Filter::True,
    ]
}

/// Every base × scope × filter: the indexed search returns the scan's hits
/// in the scan's order, and never looks at more entries than the scan.
fn assert_searches_agree(
    d: &mut Directory,
    reference: &ScanDirectory,
) -> Result<(), TestCaseError> {
    let mut bases = universe();
    bases.push(LdapDn::ROOT);
    for base in &bases {
        for scope in [Scope::Base, Scope::OneLevel, Scope::Subtree] {
            for filter in filters() {
                let expected = reference.search(base, scope, &filter);
                let before = d.examined;
                let got: Vec<_> =
                    d.search(base, scope, &filter).into_iter().map(|h| (h.dn, h.attrs)).collect();
                prop_assert_eq!(&got, &expected, "base {} {:?} {:?}", base, scope, filter);
                let examined = (d.examined - before) as usize;
                prop_assert!(examined <= reference.entries.len());
                prop_assert!(scope != Scope::Base || examined <= 1);
            }
        }
    }
    Ok(())
}

/// The indexes hold exactly what the entries hold — nothing for a deleted
/// DN, nothing for a removed value. A search answered from an exact index
/// examines its hits and no other entry; a stale member would be examined
/// and then dropped by the filter (or, its entry gone, panic the lookup).
fn assert_indexes_exact(d: &mut Directory) -> Result<(), TestCaseError> {
    let mut looked_at = |base: &LdapDn, scope, filter: &Filter| {
        let before = d.examined;
        let hits = d.search(base, scope, filter).len() as u64;
        (d.examined - before, hits)
    };
    for attr in ["objectclass", "filename"] {
        for value in NAMES {
            let (examined, hits) = looked_at(&LdapDn::ROOT, Scope::Subtree, &eq(attr, value));
            prop_assert_eq!(examined, hits, "stale holder of {}={}", attr, value);
        }
    }
    let mut parents = universe();
    parents.push(LdapDn::ROOT);
    for parent in &parents {
        let (examined, hits) = looked_at(parent, Scope::OneLevel, &Filter::True);
        prop_assert_eq!(examined, hits, "stale child of {}", parent);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random add / add_value / remove_value / replace_values / delete /
    /// delete_subtree sequences on a full tree of random entries: every
    /// operation returns what the reference returns, and every search —
    /// any base, any scope, filters that do and do not engage an index —
    /// equals the reference scan.
    #[test]
    fn indexed_search_equals_reference_scan(
        seeded in proptest::collection::vec(attrs_strategy(), universe().len()),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut d = Directory::new();
        let mut reference = ScanDirectory::default();
        let seeding = universe().into_iter().zip(seeded).map(|(dn, a)| Op::Add(dn, a));
        let ops: Vec<Op> = seeding.chain(ops).collect();
        for (i, op) in ops.iter().enumerate() {
            prop_assert_eq!(apply(&mut d, op), reference.apply(op), "{:?}", op);
            prop_assert_eq!(d.len(), reference.entries.len());
            if i % 16 == 15 {
                assert_searches_agree(&mut d, &reference)?;
                assert_indexes_exact(&mut d)?;
            }
        }
        assert_searches_agree(&mut d, &reference)?;
        assert_indexes_exact(&mut d)?;
        // Emptied, the directory has nothing left to examine anywhere.
        for rc in NAMES {
            let _ = d.delete_subtree(&LdapDn::ROOT.child("rc", rc));
        }
        prop_assert!(d.is_empty());
        let before = d.examined;
        for filter in filters() {
            prop_assert!(d.search(&LdapDn::ROOT, Scope::Subtree, &filter).is_empty());
        }
        prop_assert_eq!(d.examined, before);
    }
}

/// What one `publish` and one `locate` make the directory examine, at the
/// end of a catalog of `files` files spread over 50 locations.
fn examined_per_op(files: usize) -> (u64, u64) {
    const SITES: usize = 50;
    const REPLICAS: u64 = 3;
    let mut svc = ReplicaCatalogService::new("GDMP", "cms").unwrap();
    let meta = FileMeta { size: 1, modified: 0, crc32: 0, file_type: "flat".into() };
    let site = |i: usize| format!("site{:02}", i % SITES);
    for f in 0..files {
        svc.publish(Some(&format!("f{f:04}.db")), &site(f), "u://x", &meta).unwrap();
    }
    svc.add_replica("f0007.db", &site(8), "u://x").unwrap();
    svc.add_replica("f0007.db", &site(9), "u://x").unwrap();

    let before = svc.directory().examined;
    svc.publish(Some("fresh.db"), &site(3), "u://x", &meta).unwrap();
    let publish = svc.directory().examined - before;
    assert!(publish <= 4, "publish examined {publish} entries of {}", svc.directory().len());

    let before = svc.directory().examined;
    assert_eq!(svc.locate("f0007.db").unwrap().len() as u64, REPLICAS);
    let locate = svc.directory().examined - before;
    assert!(locate <= REPLICAS + 2, "locate examined {locate} of {}", svc.directory().len());
    (publish, locate)
}

/// The catalog's hot operations cost what they answer, not what the
/// catalog holds.
#[test]
fn publish_and_locate_cost_is_independent_of_catalog_size() {
    assert_eq!(examined_per_op(200), examined_per_op(2_000));
}
