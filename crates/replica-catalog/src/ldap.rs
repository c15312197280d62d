//! An in-process LDAP-style hierarchical directory.
//!
//! The Globus Replica Catalog of the paper is "an LDAP schema plus a
//! library"; GDMP talked to a central LDAP server at CERN. This module is
//! the simulated server: entries addressed by distinguished names, each
//! holding multi-valued attributes, with scoped searches and RFC 2254-style
//! filters.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// An LDAP distinguished name, leaf-first: `lf=f1,lc=higgs,rc=GDMP`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LdapDn {
    /// Relative DNs, leaf (most specific) first.
    rdns: Vec<(String, String)>,
}

impl LdapDn {
    pub const ROOT: LdapDn = LdapDn { rdns: Vec::new() };

    /// Parse `attr=value,attr=value,...` (leaf first). Empty string = root.
    pub fn parse(s: &str) -> Result<Self, LdapError> {
        if s.trim().is_empty() {
            return Ok(LdapDn::ROOT);
        }
        let mut rdns = Vec::new();
        for part in s.split(',') {
            let (k, v) = part.split_once('=').ok_or_else(|| LdapError::InvalidDn(s.to_string()))?;
            let (k, v) = (k.trim(), v.trim());
            if k.is_empty() || v.is_empty() {
                return Err(LdapError::InvalidDn(s.to_string()));
            }
            rdns.push((k.to_string(), v.to_string()));
        }
        Ok(LdapDn { rdns })
    }

    /// The DN of a child entry: `attr=value` prepended to `self`.
    pub fn child(&self, attr: &str, value: &str) -> LdapDn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push((attr.to_string(), value.to_string()));
        rdns.extend(self.rdns.iter().cloned());
        LdapDn { rdns }
    }

    /// Parent DN (root's parent is root).
    pub fn parent(&self) -> LdapDn {
        LdapDn { rdns: self.rdns.get(1..).unwrap_or(&[]).to_vec() }
    }

    /// The leaf `attr=value` pair.
    pub fn rdn(&self) -> Option<(&str, &str)> {
        self.rdns.first().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    pub fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }

    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// True if `self` is `other` or lies underneath it.
    pub fn is_under(&self, other: &LdapDn) -> bool {
        self.rdns.len() >= other.rdns.len()
            && self.rdns[self.rdns.len() - other.rdns.len()..] == other.rdns[..]
    }

    /// True if `self` lies directly underneath `other`.
    pub fn is_child_of(&self, other: &LdapDn) -> bool {
        self.rdns.len() == other.rdns.len() + 1 && self.is_under(other)
    }
}

impl fmt::Display for LdapDn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.rdns {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// Multi-valued attribute set of one directory entry.
pub type Attributes = BTreeMap<String, BTreeSet<String>>;

/// Build an [`Attributes`] map from `(name, value)` pairs.
pub fn attrs(pairs: &[(&str, &str)]) -> Attributes {
    let mut m = Attributes::new();
    for (k, v) in pairs {
        m.entry((*k).to_string()).or_default().insert((*v).to_string());
    }
    m
}

/// Search scope, as in LDAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The base entry only.
    Base,
    /// Direct children of the base.
    OneLevel,
    /// The base and everything underneath.
    Subtree,
}

/// Directory operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdapError {
    InvalidDn(String),
    NoSuchEntry(String),
    NoSuchParent(String),
    AlreadyExists(String),
    NotLeaf(String),
    BadFilter(String),
}

impl fmt::Display for LdapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdapError::InvalidDn(s) => write!(f, "invalid DN: {s:?}"),
            LdapError::NoSuchEntry(s) => write!(f, "no such entry: {s}"),
            LdapError::NoSuchParent(s) => write!(f, "parent does not exist: {s}"),
            LdapError::AlreadyExists(s) => write!(f, "entry already exists: {s}"),
            LdapError::NotLeaf(s) => write!(f, "entry has children: {s}"),
            LdapError::BadFilter(s) => write!(f, "bad search filter: {s:?}"),
        }
    }
}

impl std::error::Error for LdapError {}

/// An RFC 2254-style search filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// `(attr=value)`, where `value` may contain `*` wildcards.
    Equals(String, String),
    /// `(attr=*)` — attribute presence.
    Present(String),
    And(Vec<Filter>),
    Or(Vec<Filter>),
    Not(Box<Filter>),
    /// Matches everything.
    True,
}

impl Filter {
    /// Parse a filter string such as `(&(objectclass=GlobusFile)(size>=*))`.
    /// Supported: `=`, presence `=*`, `&`, `|`, `!`, and `*` wildcards.
    pub fn parse(s: &str) -> Result<Filter, LdapError> {
        let mut p = Parser { s: s.as_bytes(), pos: 0, src: s };
        let f = p.parse_filter()?;
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(LdapError::BadFilter(s.to_string()));
        }
        Ok(f)
    }

    /// Evaluate against an attribute set.
    pub fn matches(&self, attrs: &Attributes) -> bool {
        match self {
            Filter::True => true,
            Filter::Present(a) => attrs.contains_key(a),
            Filter::Equals(a, pattern) => {
                attrs.get(a).is_some_and(|vals| vals.iter().any(|v| wildcard_match(pattern, v)))
            }
            Filter::And(fs) => fs.iter().all(|f| f.matches(attrs)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(attrs)),
            Filter::Not(f) => !f.matches(attrs),
        }
    }
}

/// Case-sensitive glob match where `*` matches any run of characters.
fn wildcard_match(pattern: &str, value: &str) -> bool {
    fn rec(p: &[u8], v: &[u8]) -> bool {
        match p.first() {
            None => v.is_empty(),
            Some(b'*') => (0..=v.len()).any(|k| rec(&p[1..], &v[k..])),
            Some(&c) => v.first() == Some(&c) && rec(&p[1..], &v[1..]),
        }
    }
    rec(pattern.as_bytes(), value.as_bytes())
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    src: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self) -> LdapError {
        LdapError::BadFilter(self.src.to_string())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), LdapError> {
        self.skip_ws();
        if self.pos < self.s.len() && self.s[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err())
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn parse_filter(&mut self) -> Result<Filter, LdapError> {
        self.expect(b'(')?;
        let f = match self.peek().ok_or_else(|| self.err())? {
            b'&' => {
                self.pos += 1;
                Filter::And(self.parse_list()?)
            }
            b'|' => {
                self.pos += 1;
                Filter::Or(self.parse_list()?)
            }
            b'!' => {
                self.pos += 1;
                Filter::Not(Box::new(self.parse_filter()?))
            }
            _ => self.parse_simple()?,
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn parse_list(&mut self) -> Result<Vec<Filter>, LdapError> {
        let mut out = Vec::new();
        while self.peek() == Some(b'(') {
            out.push(self.parse_filter()?);
        }
        if out.is_empty() {
            return Err(self.err());
        }
        Ok(out)
    }

    fn parse_simple(&mut self) -> Result<Filter, LdapError> {
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos] != b'=' && self.s[self.pos] != b')' {
            self.pos += 1;
        }
        if self.s.get(self.pos) != Some(&b'=') {
            return Err(self.err());
        }
        let attr = self.src[start..self.pos].trim().to_string();
        if attr.is_empty() {
            return Err(self.err());
        }
        self.pos += 1;
        let vstart = self.pos;
        let mut depth_guard = 0usize;
        while self.pos < self.s.len() && self.s[self.pos] != b')' {
            self.pos += 1;
            depth_guard += 1;
            debug_assert!(depth_guard < 1 << 20);
        }
        let value = self.src[vstart..self.pos].to_string();
        if value == "*" {
            Ok(Filter::Present(attr))
        } else {
            Ok(Filter::Equals(attr, value))
        }
    }
}

/// One search hit, borrowed from the directory: a caller that wants an
/// RDN or a single attribute pays for no copy of the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchResult<'a> {
    pub dn: &'a LdapDn,
    pub attrs: &'a Attributes,
}

/// The attributes the directory keeps equality indexes on — the two the
/// replica-catalog schema searches by. A constant of the schema, like the
/// `index` lines of a slapd configuration.
const INDEXED_ATTRS: [&str; 2] = ["objectclass", "filename"];

fn index_slot(attr: &str) -> Option<usize> {
    INDEXED_ATTRS.iter().position(|a| *a == attr)
}

/// A set of entry DNs in DN order. Entries and indexes share the DNs.
type DnSet = BTreeSet<Arc<LdapDn>>;
type Entries = BTreeMap<Arc<LdapDn>, Attributes>;
/// Parent DN (the root included) → its direct children. No empty sets.
type ChildrenIndex = BTreeMap<LdapDn, DnSet>;
/// Per [`INDEXED_ATTRS`] slot: value → entries holding it. No empty sets.
type EqualityIndexes = [BTreeMap<String, DnSet>; INDEXED_ATTRS.len()];

/// The holders of a value no entry has.
static NO_ENTRIES: DnSet = DnSet::new();

/// The directory server.
///
/// Beside the entries it keeps the two kinds of index a directory server
/// has, and [`search`](Directory::search) answers from them: a children
/// index (one-level scope, leaf checks, subtree walks) and equality
/// indexes on the attributes the schema searches by (`objectclass`,
/// `filename`). Every index set iterates in DN order, the order of the
/// entry map, so an indexed search lists its hits exactly as a scan of all
/// entries would.
#[derive(Debug, Default, Clone)]
pub struct Directory {
    entries: Entries,
    children: ChildrenIndex,
    equality: EqualityIndexes,
    /// Modify/add/delete operations served (for load statistics).
    pub write_ops: u64,
    /// Search operations served.
    pub read_ops: u64,
    /// Candidate entries that searches applied scope and filter to, summed
    /// over all searches: what the indexes save shows here.
    pub examined: u64,
}

fn index(slot: &mut BTreeMap<String, DnSet>, value: &str, dn: Arc<LdapDn>) {
    if let Some(holders) = slot.get_mut(value) {
        holders.insert(dn);
    } else {
        slot.insert(value.to_string(), DnSet::from([dn]));
    }
}

fn unindex(slot: &mut BTreeMap<String, DnSet>, value: &str, dn: &LdapDn) {
    let holders = slot.get_mut(value).expect("an entry's indexed value has holders");
    holders.remove(dn);
    if holders.is_empty() {
        slot.remove(value);
    }
}

/// An entry's shared DN and its attributes, for a modify.
fn entry_mut<'a>(
    entries: &'a mut Entries,
    dn: &LdapDn,
) -> Result<(&'a Arc<LdapDn>, &'a mut Attributes), LdapError> {
    entries
        .range_mut::<LdapDn, _>(dn..=dn)
        .next()
        .ok_or_else(|| LdapError::NoSuchEntry(dn.to_string()))
}

/// `base` (when it is an entry) and every entry beneath it, walked through
/// the children index; parents come before their children.
fn subtree<'a>(
    entries: &'a Entries,
    children: &'a ChildrenIndex,
    base: &LdapDn,
) -> Vec<&'a Arc<LdapDn>> {
    let mut out: Vec<_> = entries.get_key_value(base).map(|(dn, _)| dn).into_iter().collect();
    let mut frontier: Vec<_> = children.get(base).into_iter().collect();
    while let Some(kids) = frontier.pop() {
        for dn in kids {
            out.push(dn);
            frontier.extend(children.get(&**dn));
        }
    }
    out
}

/// The fewest entries that can match `filter` according to the equality
/// indexes: the holders of an indexed value it requires, `None` when it
/// requires none (see [`Directory::search`]).
fn required_holders<'a>(equality: &'a EqualityIndexes, filter: &Filter) -> Option<&'a DnSet> {
    let holders = |term: &Filter| -> Option<&'a DnSet> {
        match term {
            Filter::Equals(attr, value) if !value.contains('*') => {
                let slot = index_slot(attr)?;
                Some(equality[slot].get(value).unwrap_or(&NO_ENTRIES))
            }
            _ => None,
        }
    };
    match filter {
        Filter::And(terms) => terms.iter().filter_map(holders).min_by_key(|h| h.len()),
        term => holders(term),
    }
}

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an entry. Its parent must exist (or be the root).
    pub fn add(&mut self, dn: LdapDn, attributes: Attributes) -> Result<(), LdapError> {
        if dn.is_root() {
            return Err(LdapError::InvalidDn("cannot add root".into()));
        }
        if self.entries.contains_key(&dn) {
            return Err(LdapError::AlreadyExists(dn.to_string()));
        }
        let parent = dn.parent();
        if !parent.is_root() && !self.entries.contains_key(&parent) {
            return Err(LdapError::NoSuchParent(parent.to_string()));
        }
        self.write_ops += 1;
        let dn = Arc::new(dn);
        for (slot, attr) in self.equality.iter_mut().zip(INDEXED_ATTRS) {
            for value in attributes.get(attr).into_iter().flatten() {
                index(slot, value, dn.clone());
            }
        }
        self.children.entry(parent).or_default().insert(dn.clone());
        self.entries.insert(dn, attributes);
        Ok(())
    }

    /// Delete a leaf entry.
    pub fn delete(&mut self, dn: &LdapDn) -> Result<(), LdapError> {
        if !self.entries.contains_key(dn) {
            return Err(LdapError::NoSuchEntry(dn.to_string()));
        }
        if self.children.contains_key(dn) {
            return Err(LdapError::NotLeaf(dn.to_string()));
        }
        self.write_ops += 1;
        self.remove_leaf(dn);
        Ok(())
    }

    /// Delete an entry and everything beneath it.
    pub fn delete_subtree(&mut self, dn: &LdapDn) -> Result<usize, LdapError> {
        if !self.entries.contains_key(dn) {
            return Err(LdapError::NoSuchEntry(dn.to_string()));
        }
        let victims: Vec<Arc<LdapDn>> =
            subtree(&self.entries, &self.children, dn).into_iter().cloned().collect();
        // Children first, so that each victim is a leaf when its turn comes.
        for v in victims.iter().rev() {
            self.remove_leaf(v);
        }
        self.write_ops += 1;
        Ok(victims.len())
    }

    /// Drop a childless entry from the entry map and from every index.
    fn remove_leaf(&mut self, dn: &LdapDn) {
        let attributes = self.entries.remove(dn).expect("caller checked the entry exists");
        for (slot, attr) in self.equality.iter_mut().zip(INDEXED_ATTRS) {
            for value in attributes.get(attr).into_iter().flatten() {
                unindex(slot, value, dn);
            }
        }
        let parent = dn.parent();
        let siblings = self.children.get_mut(&parent).expect("an entry is its parent's child");
        siblings.remove(dn);
        if siblings.is_empty() {
            self.children.remove(&parent);
        }
    }

    pub fn get(&self, dn: &LdapDn) -> Option<&Attributes> {
        self.entries.get(dn)
    }

    /// Add a value to a (possibly new) attribute of an existing entry.
    pub fn add_value(&mut self, dn: &LdapDn, attr: &str, value: &str) -> Result<(), LdapError> {
        let (key, e) = entry_mut(&mut self.entries, dn)?;
        self.write_ops += 1;
        e.entry(attr.to_string()).or_default().insert(value.to_string());
        if let Some(slot) = index_slot(attr) {
            index(&mut self.equality[slot], value, key.clone());
        }
        Ok(())
    }

    /// Remove a value; removes the attribute when its last value goes.
    /// Returns whether the value was present.
    pub fn remove_value(
        &mut self,
        dn: &LdapDn,
        attr: &str,
        value: &str,
    ) -> Result<bool, LdapError> {
        let (_, e) = entry_mut(&mut self.entries, dn)?;
        self.write_ops += 1;
        let Some(vals) = e.get_mut(attr) else { return Ok(false) };
        let removed = vals.remove(value);
        if vals.is_empty() {
            e.remove(attr);
        }
        if let (true, Some(slot)) = (removed, index_slot(attr)) {
            unindex(&mut self.equality[slot], value, dn);
        }
        Ok(removed)
    }

    /// Replace all values of an attribute.
    pub fn replace_values(
        &mut self,
        dn: &LdapDn,
        attr: &str,
        values: &[&str],
    ) -> Result<(), LdapError> {
        let (key, e) = entry_mut(&mut self.entries, dn)?;
        self.write_ops += 1;
        let old = if values.is_empty() {
            e.remove(attr)
        } else {
            e.insert(attr.to_string(), values.iter().map(|v| (*v).to_string()).collect())
        };
        if let Some(slot) = index_slot(attr) {
            let slot = &mut self.equality[slot];
            for value in old.iter().flatten() {
                unindex(slot, value, dn);
            }
            for value in values {
                index(slot, value, key.clone());
            }
        }
        Ok(())
    }

    /// Scoped, filtered search; hits come in DN order.
    ///
    /// The candidates are the smallest set an index offers — the base
    /// entry, the base's children, or the holders of a value the filter
    /// requires: it requires one when it is, or has as a top-level `And`
    /// term, a wildcard-free `Equals` on an indexed attribute. Scope and
    /// the *whole* filter are then applied to each candidate, so the
    /// answer, order included, is the one a scan of every entry would give.
    pub fn search(
        &mut self,
        base: &LdapDn,
        scope: Scope,
        filter: &Filter,
    ) -> Vec<SearchResult<'_>> {
        let Directory { entries, children, equality, read_ops, examined, .. } = self;
        let (entries, children, equality) = (&*entries, &*children, &*equality);
        *read_ops += 1;
        let kids = || children.get(base).unwrap_or(&NO_ENTRIES);
        let candidates: Vec<&Arc<LdapDn>> = match (scope, required_holders(equality, filter)) {
            (Scope::Base, _) => entries.get_key_value(base).map(|(dn, _)| dn).into_iter().collect(),
            (Scope::OneLevel, Some(holders)) if holders.len() < kids().len() => {
                holders.iter().collect()
            }
            (Scope::OneLevel, _) => kids().iter().collect(),
            (Scope::Subtree, Some(holders)) => holders.iter().collect(),
            (Scope::Subtree, None) => {
                let mut all = subtree(entries, children, base);
                all.sort_unstable();
                all
            }
        };
        *examined += candidates.len() as u64;
        let in_scope = |dn: &LdapDn| match scope {
            Scope::Base => dn == base,
            Scope::OneLevel => dn.is_child_of(base),
            Scope::Subtree => dn.is_under(base),
        };
        candidates
            .into_iter()
            .filter(|dn| in_scope(dn))
            .map(|dn| SearchResult { dn, attrs: &entries[&**dn] })
            .filter(|hit| filter.matches(hit.attrs))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Directory {
        let mut d = Directory::new();
        d.add(LdapDn::parse("rc=GDMP").unwrap(), attrs(&[("objectclass", "root")])).unwrap();
        d.add(
            LdapDn::parse("lc=higgs,rc=GDMP").unwrap(),
            attrs(&[("objectclass", "GlobusReplicaCollection"), ("name", "higgs")]),
        )
        .unwrap();
        d.add(
            LdapDn::parse("lf=f1,lc=higgs,rc=GDMP").unwrap(),
            attrs(&[("objectclass", "GlobusFile"), ("size", "1048576"), ("name", "f1")]),
        )
        .unwrap();
        d.add(
            LdapDn::parse("lf=f2,lc=higgs,rc=GDMP").unwrap(),
            attrs(&[("objectclass", "GlobusFile"), ("size", "2048"), ("name", "f2")]),
        )
        .unwrap();
        d
    }

    #[test]
    fn dn_parse_and_hierarchy() {
        let dn = LdapDn::parse("lf=f1,lc=higgs,rc=GDMP").unwrap();
        assert_eq!(dn.to_string(), "lf=f1,lc=higgs,rc=GDMP");
        assert_eq!(dn.parent().to_string(), "lc=higgs,rc=GDMP");
        assert_eq!(dn.rdn(), Some(("lf", "f1")));
        assert!(dn.is_under(&LdapDn::parse("rc=GDMP").unwrap()));
        assert!(!LdapDn::parse("rc=GDMP").unwrap().is_under(&dn));
        assert!(dn.is_under(&LdapDn::ROOT));
    }

    #[test]
    fn add_requires_parent() {
        let mut d = Directory::new();
        let err = d.add(LdapDn::parse("lc=x,rc=GDMP").unwrap(), Attributes::new()).unwrap_err();
        assert!(matches!(err, LdapError::NoSuchParent(_)));
    }

    #[test]
    fn add_rejects_duplicates() {
        let mut d = seeded();
        let err = d.add(LdapDn::parse("lc=higgs,rc=GDMP").unwrap(), Attributes::new()).unwrap_err();
        assert!(matches!(err, LdapError::AlreadyExists(_)));
    }

    #[test]
    fn delete_refuses_non_leaf() {
        let mut d = seeded();
        let err = d.delete(&LdapDn::parse("lc=higgs,rc=GDMP").unwrap()).unwrap_err();
        assert!(matches!(err, LdapError::NotLeaf(_)));
        assert!(d.delete(&LdapDn::parse("lf=f1,lc=higgs,rc=GDMP").unwrap()).is_ok());
    }

    #[test]
    fn delete_subtree_counts() {
        let mut d = seeded();
        let n = d.delete_subtree(&LdapDn::parse("lc=higgs,rc=GDMP").unwrap()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn filter_parsing() {
        assert_eq!(Filter::parse("(name=f1)").unwrap(), Filter::Equals("name".into(), "f1".into()));
        assert_eq!(Filter::parse("(name=*)").unwrap(), Filter::Present("name".into()));
        let f = Filter::parse("(&(objectclass=GlobusFile)(!(size=2048)))").unwrap();
        assert!(matches!(f, Filter::And(_)));
        assert!(Filter::parse("name=f1").is_err());
        assert!(Filter::parse("(&)").is_err());
        assert!(Filter::parse("((a=b))").is_err());
    }

    #[test]
    fn search_scopes() {
        let mut d = seeded();
        let base = LdapDn::parse("lc=higgs,rc=GDMP").unwrap();
        assert_eq!(d.search(&base, Scope::Base, &Filter::True).len(), 1);
        assert_eq!(d.search(&base, Scope::OneLevel, &Filter::True).len(), 2);
        assert_eq!(d.search(&base, Scope::Subtree, &Filter::True).len(), 3);
        assert_eq!(d.search(&LdapDn::ROOT, Scope::Subtree, &Filter::True).len(), 4);
    }

    #[test]
    fn search_with_filters() {
        let mut d = seeded();
        let base = LdapDn::parse("rc=GDMP").unwrap();
        let files = Filter::parse("(objectclass=GlobusFile)").unwrap();
        assert_eq!(d.search(&base, Scope::Subtree, &files).len(), 2);
        let big = Filter::parse("(&(objectclass=GlobusFile)(size=1048576))").unwrap();
        let hits = d.search(&base, Scope::Subtree, &big);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn.rdn(), Some(("lf", "f1")));
        let not_f1 = Filter::parse("(&(objectclass=GlobusFile)(!(name=f1)))").unwrap();
        assert_eq!(d.search(&base, Scope::Subtree, &not_f1).len(), 1);
    }

    #[test]
    fn wildcard_matching() {
        assert!(wildcard_match("f*", "f1"));
        assert!(wildcard_match("*.db", "events.db"));
        assert!(wildcard_match("a*b*c", "aXXbYYc"));
        assert!(!wildcard_match("a*b", "ac"));
        assert!(wildcard_match("*", ""));
        assert!(!wildcard_match("", "x"));
    }

    #[test]
    fn attribute_value_lifecycle() {
        let mut d = seeded();
        let dn = LdapDn::parse("lf=f1,lc=higgs,rc=GDMP").unwrap();
        d.add_value(&dn, "location", "cern").unwrap();
        d.add_value(&dn, "location", "anl").unwrap();
        assert_eq!(d.get(&dn).unwrap()["location"].len(), 2);
        assert!(d.remove_value(&dn, "location", "cern").unwrap());
        assert!(!d.remove_value(&dn, "location", "cern").unwrap());
        assert!(d.remove_value(&dn, "location", "anl").unwrap());
        assert!(!d.get(&dn).unwrap().contains_key("location"));
        d.replace_values(&dn, "size", &["9"]).unwrap();
        assert!(d.get(&dn).unwrap()["size"].contains("9"));
    }

    #[test]
    fn ops_counters_track_load() {
        let mut d = seeded();
        let w0 = d.write_ops;
        d.add_value(&LdapDn::parse("lf=f1,lc=higgs,rc=GDMP").unwrap(), "a", "b").unwrap();
        assert_eq!(d.write_ops, w0 + 1);
        let r0 = d.read_ops;
        d.search(&LdapDn::ROOT, Scope::Subtree, &Filter::True);
        assert_eq!(d.read_ops, r0 + 1);
    }
}
