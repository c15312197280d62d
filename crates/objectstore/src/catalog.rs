//! The catalog chain of Figure 1.
//!
//! Mapping the application-level view to storage happens in three steps:
//!
//! 1. **application metadata catalog** ([`TagCatalog`]) — an application
//!    description (a physics selection tag) resolves to a set of object
//!    identifiers;
//! 2. **object-to-file catalog** ([`ObjectFileCatalog`]) — object ids
//!    resolve to the file names that hold them (the "global view" /
//!    "large location table" of \[HoSt00\]);
//! 3. the **file replica catalog** (crate `gdmp-replica-catalog`) — file
//!    names resolve to physical site locations.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use gdmp_intern::Interner;

use crate::model::{LogicalOid, ObjectKind, OidMap};

/// Step 1: named event selections ("the 10⁶ events where the sought-after
/// phenomenon occurred").
#[derive(Debug, Clone, Default)]
pub struct TagCatalog {
    tags: BTreeMap<String, Vec<u64>>,
}

impl TagCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Define (or replace) a selection tag over event numbers.
    pub fn define(&mut self, tag: &str, mut events: Vec<u64>) {
        events.sort_unstable();
        events.dedup();
        self.tags.insert(tag.to_string(), events);
    }

    /// Narrow an existing tag with a predicate, producing a new tag —
    /// one step of the selection cascade (Section 5.1).
    pub fn refine<F: FnMut(u64) -> bool>(
        &mut self,
        from: &str,
        to: &str,
        mut keep: F,
    ) -> Option<usize> {
        let events: Vec<u64> = self.tags.get(from)?.iter().copied().filter(|&e| keep(e)).collect();
        let n = events.len();
        self.tags.insert(to.to_string(), events);
        Some(n)
    }

    pub fn events(&self, tag: &str) -> Option<&[u64]> {
        self.tags.get(tag).map(Vec::as_slice)
    }

    /// "The corresponding set of 10⁶ objects of some type X": the object
    /// ids an analysis step needs, specified up front (Section 5.2).
    pub fn objects(&self, tag: &str, kind: ObjectKind) -> Option<Vec<LogicalOid>> {
        Some(self.tags.get(tag)?.iter().map(|&e| LogicalOid::new(e, kind)).collect())
    }

    pub fn tags(&self) -> Vec<&str> {
        self.tags.keys().map(String::as_str).collect()
    }
}

/// Step 2: the global object→file location table, as an id-keyed
/// bipartite index. File names are interned once; a file's id indexes
/// `by_file`, and every object lists the ids of the files holding it in
/// file-*name* order, so "the first file" and every tie-break are what a
/// name-sorted set would give, whatever order the files were recorded in.
#[derive(Debug, Clone, Default)]
pub struct ObjectFileCatalog {
    names: Interner,
    /// File id → objects recorded for it (`None`: forgotten).
    by_file: Vec<Option<Vec<LogicalOid>>>,
    /// Object → ids of the files holding it.
    by_object: OidMap<Holders>,
    /// Collective lookups served (the scalability-critical operation).
    pub lookups: u64,
}

/// The ids of the files holding one object, in file-name order, never
/// empty: most objects have one holder, kept in place, and a `Vec` is
/// made only from the second on.
#[derive(Debug, Clone)]
enum Holders {
    One(u32),
    /// Two or more.
    Many(Vec<u32>),
}

impl Holders {
    fn as_slice(&self) -> &[u32] {
        match self {
            Holders::One(id) => std::slice::from_ref(id),
            Holders::Many(ids) => ids,
        }
    }

    /// Add file `id`, named `name`, at its place in name order; false if
    /// it holds the object already. Membership is checked by id, so a
    /// re-record resolves no name.
    fn insert(&mut self, id: u32, name: &str, names: &Interner) -> bool {
        if self.as_slice().contains(&id) {
            return false;
        }
        let at = self.as_slice().partition_point(|h| names.resolve(*h) < name);
        match self {
            Holders::One(first) => {
                let mut ids = vec![*first; 2];
                ids[at] = id;
                *self = Holders::Many(ids);
            }
            Holders::Many(ids) => ids.insert(at, id),
        }
        true
    }

    /// Drop file `id`; true when no holder is left.
    fn remove(&mut self, id: u32) -> bool {
        match self {
            Holders::One(only) => *only == id,
            Holders::Many(ids) => {
                ids.retain(|h| *h != id);
                if let &[only] = &ids[..] {
                    *self = Holders::One(only);
                }
                false
            }
        }
    }
}

/// One pass over a request through `by_object`: everything the cover and
/// the source assignment need, sized by the request and not by the catalog.
struct RequestPlan<'a> {
    /// The distinct wanted objects, sorted.
    objects: Vec<LogicalOid>,
    /// The ids of the files holding each of `objects`, in file-name order.
    holders: Vec<&'a [u32]>,
    /// The files holding any of them, in file-name order.
    candidates: Vec<Candidate>,
    /// File id → position in `candidates`.
    slot: HashMap<u32, usize>,
}

struct Candidate {
    file: u32,
    /// The wanted objects this file holds, as indices into `objects`.
    held: Vec<u32>,
}

impl ObjectFileCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `file` holds `objects` (called when a file is produced,
    /// replicated in, or created by the object copier). Idempotent per
    /// (file, object): a replica landing at another site re-records
    /// nothing.
    pub fn record_file(&mut self, file: &str, objects: &[LogicalOid]) {
        let id = self.names.intern(file);
        if id as usize == self.by_file.len() {
            self.by_file.push(None);
        }
        let recorded =
            self.by_file[id as usize].get_or_insert_with(|| Vec::with_capacity(objects.len()));
        for &o in objects {
            let added = match self.by_object.entry(o) {
                Entry::Vacant(slot) => {
                    slot.insert(Holders::One(id));
                    true
                }
                Entry::Occupied(mut holders) => holders.get_mut().insert(id, file, &self.names),
            };
            if added {
                recorded.push(o);
            }
        }
    }

    /// Remove a file (deleted or retired) from the table.
    pub fn forget_file(&mut self, file: &str) {
        let Some(id) = self.names.try_id(file) else { return };
        for o in self.by_file[id as usize].take().unwrap_or_default() {
            if let Entry::Occupied(mut holders) = self.by_object.entry(o) {
                if holders.get_mut().remove(id) {
                    holders.remove();
                }
            }
        }
    }

    fn holders(&self, o: LogicalOid) -> &[u32] {
        self.by_object.get(&o).map_or(&[], Holders::as_slice)
    }

    fn recorded(&self, file: &str) -> Option<&Vec<LogicalOid>> {
        self.by_file[self.names.try_id(file)? as usize].as_ref()
    }

    /// Files holding one object, in name order.
    pub fn files_of(&self, o: LogicalOid) -> Vec<&str> {
        self.holders(o).iter().map(|id| self.names.resolve(*id)).collect()
    }

    /// Objects recorded for one file.
    pub fn objects_in(&self, file: &str) -> &[LogicalOid] {
        self.recorded(file).map_or(&[], Vec::as_slice)
    }

    pub fn file_count(&self) -> usize {
        self.by_file.iter().flatten().count()
    }

    pub fn object_count(&self) -> usize {
        self.by_object.len()
    }

    /// "One single collective lookup operation on the global view"
    /// (Section 5.2): resolve a whole request at once, returning
    /// `(file → objects of the request found in it, unresolved objects)`.
    /// Each object resolves to the first (by name) of the files holding it.
    pub fn collective_lookup(
        &mut self,
        wanted: &[LogicalOid],
    ) -> (BTreeMap<String, Vec<LogicalOid>>, Vec<LogicalOid>) {
        self.lookups += 1;
        let mut per_file: BTreeMap<String, Vec<LogicalOid>> = BTreeMap::new();
        let mut missing = Vec::new();
        for &o in wanted {
            let Some(&first) = self.holders(o).first() else {
                missing.push(o);
                continue;
            };
            let name = self.names.resolve(first);
            match per_file.get_mut(name) {
                Some(found) => found.push(o),
                None => {
                    per_file.insert(name.to_string(), vec![o]);
                }
            }
        }
        (per_file, missing)
    }

    /// Serializable snapshot of the file→objects table, in file-name
    /// order — the contents of the "index files" of Section 5.2, which are
    /// themselves replicated between sites with ordinary file replication.
    pub fn snapshot(&self) -> Vec<(String, Vec<LogicalOid>)> {
        let mut files: Vec<(String, Vec<LogicalOid>)> = (0u32..)
            .zip(&self.by_file)
            .filter_map(|(id, objects)| {
                Some((self.names.resolve(id).to_string(), objects.clone()?))
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    }

    /// Merge a snapshot (from a replicated index file) into this view.
    /// Files already known locally are skipped. Returns files added.
    pub fn merge_snapshot(&mut self, snapshot: &[(String, Vec<LogicalOid>)]) -> usize {
        let mut added = 0;
        for (file, objects) in snapshot {
            if self.recorded(file).is_none() {
                self.record_file(file, objects);
                added += 1;
            }
        }
        added
    }

    /// Rebuild a catalog from a snapshot.
    pub fn from_snapshot(snapshot: &[(String, Vec<LogicalOid>)]) -> Self {
        let mut c = ObjectFileCatalog::new();
        c.merge_snapshot(snapshot);
        c
    }

    fn plan(&self, wanted: &[LogicalOid]) -> RequestPlan<'_> {
        let mut objects = wanted.to_vec();
        objects.sort_unstable();
        objects.dedup();
        let holders: Vec<&[u32]> = objects.iter().map(|o| self.holders(*o)).collect();
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut slot: HashMap<u32, usize> = HashMap::new();
        for (i, files) in (0u32..).zip(&holders) {
            for &file in *files {
                let at = *slot.entry(file).or_insert_with(|| {
                    candidates.push(Candidate { file, held: Vec::new() });
                    candidates.len() - 1
                });
                candidates[at].held.push(i);
            }
        }
        candidates.sort_by_key(|c| self.names.resolve(c.file));
        for (at, c) in candidates.iter().enumerate() {
            slot.insert(c.file, at);
        }
        RequestPlan { objects, holders, candidates, slot }
    }

    /// Greedy minimum-ish file cover: the smallest set of whole files that
    /// together contain every wanted object — what *file-level* replication
    /// would have to ship (Section 5.1's thought experiment). Each round
    /// takes the file covering the most still-uncovered objects per byte,
    /// the smaller name on a tie. `bytes_of` gives a file's size and is
    /// asked once per file holding a wanted object, in name order; the
    /// work is sized by the request, not by the catalog.
    pub fn greedy_file_cover<F: FnMut(&str) -> u64>(
        &self,
        wanted: &[LogicalOid],
        mut bytes_of: F,
    ) -> FileCover {
        let RequestPlan { objects, holders, candidates, slot } = self.plan(wanted);
        let size: Vec<u64> =
            candidates.iter().map(|c| bytes_of(self.names.resolve(c.file)).max(1)).collect();
        // Live counters: the still-uncovered wanted objects each file holds.
        let mut gain: Vec<usize> = candidates.iter().map(|c| c.held.len()).collect();
        let mut covered = vec![false; objects.len()];
        let mut files = Vec::new();
        let mut total_bytes = 0u64;
        loop {
            // Most uncovered objects per byte. Candidates are in name order
            // and `max_by` keeps the last of equals, hence backwards: the
            // smaller name wins a tie.
            let best = (0..candidates.len()).rev().filter(|at| gain[*at] > 0).max_by(|&a, &b| {
                (gain[a] as u128 * size[b] as u128).cmp(&(gain[b] as u128 * size[a] as u128))
            });
            let Some(best) = best else { break }; // the rest exist in no file
            for &i in &candidates[best].held {
                if !std::mem::replace(&mut covered[i as usize], true) {
                    for file in holders[i as usize] {
                        gain[slot[file]] -= 1;
                    }
                }
            }
            total_bytes = total_bytes.saturating_add(size[best]);
            files.push(self.names.resolve(candidates[best].file).to_string());
        }
        let uncovered =
            objects.iter().zip(&covered).filter(|(_, done)| !**done).map(|(o, _)| *o).collect();
        FileCover { files, uncovered, total_bytes }
    }

    /// The collective lookup object replication makes (Section 5.2): every
    /// wanted object is assigned to its *densest* holder — the file with
    /// the largest fraction of its recorded objects wanted, the smaller
    /// name on a tie. Returns `(file → objects to extract from it, in name
    /// order; objects held by no file)`.
    #[allow(clippy::type_complexity)]
    pub fn densest_sources(
        &mut self,
        wanted: &[LogicalOid],
    ) -> (Vec<(Arc<str>, Vec<LogicalOid>)>, Vec<LogicalOid>) {
        self.lookups += 1;
        let RequestPlan { objects, holders, candidates, slot } = self.plan(wanted);
        let density: Vec<(usize, usize)> = candidates
            .iter()
            .map(|c| {
                let recorded = self.by_file[c.file as usize].as_ref().map_or(0, Vec::len);
                (c.held.len(), recorded.max(1))
            })
            .collect();
        // Holders are in name order; backwards, as in the cover's rounds.
        let densest: Vec<Option<usize>> = holders
            .iter()
            .map(|files| {
                files.iter().rev().map(|file| slot[file]).max_by(|&a, &b| {
                    (density[a].0 * density[b].1).cmp(&(density[b].0 * density[a].1))
                })
            })
            .collect();
        let mut assigned: Vec<Vec<LogicalOid>> = vec![Vec::new(); candidates.len()];
        let mut unresolved = Vec::new();
        for &o in wanted {
            let i = objects.binary_search(&o).expect("the plan lists every wanted object");
            match densest[i] {
                Some(at) => assigned[at].push(o),
                None => unresolved.push(o),
            }
        }
        let per_file = candidates
            .iter()
            .zip(assigned)
            .filter(|(_, objects)| !objects.is_empty())
            .map(|(c, objects)| (self.names.resolve_arc(c.file), objects))
            .collect();
        (per_file, unresolved)
    }
}

/// Result of [`ObjectFileCatalog::greedy_file_cover`].
#[derive(Debug, Clone)]
pub struct FileCover {
    pub files: Vec<String>,
    /// Wanted objects not present in any file.
    pub uncovered: Vec<LogicalOid>,
    /// Total bytes of the chosen files (saturating).
    pub total_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lo(e: u64) -> LogicalOid {
        LogicalOid::new(e, ObjectKind::Aod)
    }

    #[test]
    fn tag_define_and_objects() {
        let mut t = TagCatalog::new();
        t.define("hot", vec![5, 1, 3, 3]);
        assert_eq!(t.events("hot").unwrap(), &[1, 3, 5]);
        let objs = t.objects("hot", ObjectKind::Esd).unwrap();
        assert_eq!(objs.len(), 3);
        assert_eq!(objs[0], LogicalOid::new(1, ObjectKind::Esd));
        assert!(t.events("cold").is_none());
    }

    #[test]
    fn cascade_refinement() {
        let mut t = TagCatalog::new();
        t.define("all", (0..1000).collect());
        let n1 = t.refine("all", "step1", |e| e % 10 == 0).unwrap();
        let n2 = t.refine("step1", "step2", |e| e % 100 == 0).unwrap();
        assert_eq!(n1, 100);
        assert_eq!(n2, 10);
        assert_eq!(t.tags().len(), 3);
    }

    #[test]
    fn record_and_lookup() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("a.db", &[lo(0), lo(1)]);
        c.record_file("b.db", &[lo(1), lo(2)]);
        assert_eq!(c.files_of(lo(1)).len(), 2);
        assert_eq!(c.files_of(lo(9)).len(), 0);
        let (per_file, missing) = c.collective_lookup(&[lo(0), lo(2), lo(9)]);
        assert_eq!(per_file.len(), 2);
        assert_eq!(missing, vec![lo(9)]);
        assert_eq!(c.lookups, 1);
    }

    #[test]
    fn forget_file_cleans_both_indexes() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("a.db", &[lo(0), lo(1)]);
        c.record_file("b.db", &[lo(1)]);
        c.forget_file("a.db");
        assert!(c.files_of(lo(0)).is_empty());
        assert_eq!(c.files_of(lo(1)), vec!["b.db"]);
        assert_eq!(c.file_count(), 1);
        assert_eq!(c.object_count(), 1);
    }

    #[test]
    fn record_file_is_idempotent_per_file_and_object() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("a.db", &[lo(0), lo(1)]);
        let once = c.snapshot();
        c.record_file("a.db", &[lo(0), lo(1)]);
        c.record_file("a.db", &[lo(1), lo(2)]);
        assert_eq!(c.objects_in("a.db"), &[lo(0), lo(1), lo(2)]);
        assert_eq!(c.files_of(lo(1)), vec!["a.db"]);
        c.forget_file("a.db");
        c.record_file("a.db", &[lo(0), lo(1)]);
        assert_eq!(c.snapshot(), once);
    }

    #[test]
    fn a_forgotten_name_can_be_recorded_again() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("b.db", &[lo(1)]);
        c.record_file("a.db", &[lo(0), lo(1)]);
        c.forget_file("a.db");
        assert_eq!(c.objects_in("a.db"), &[]);
        c.record_file("a.db", &[lo(1), lo(2)]);
        assert_eq!(c.file_count(), 2);
        assert_eq!(c.objects_in("a.db"), &[lo(1), lo(2)]);
        assert!(c.files_of(lo(0)).is_empty());
        assert_eq!(c.files_of(lo(1)), vec!["a.db", "b.db"], "name order, not recording order");
        assert_eq!(c.collective_lookup(&[lo(1)]).0.keys().next().unwrap(), "a.db");
    }

    #[test]
    fn cover_total_saturates() {
        let mut c = ObjectFileCatalog::new();
        for e in 0..5 {
            c.record_file(&format!("huge{e}.db"), &[lo(e)]);
        }
        let wanted: Vec<_> = (0..5).map(lo).collect();
        let cover = c.greedy_file_cover(&wanted, |_| u64::MAX / 4);
        assert_eq!(cover.files.len(), 5);
        assert_eq!(cover.total_bytes, u64::MAX);
    }

    #[test]
    fn densest_source_wins_and_ties_go_to_the_smaller_name() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("bulk.db", &(0..10).map(lo).collect::<Vec<_>>());
        c.record_file("z-extract.db", &[lo(0), lo(1)]);
        c.record_file("a-extract.db", &[lo(0), lo(1)]);
        let (per_file, unresolved) = c.densest_sources(&[lo(0), lo(1), lo(5), lo(99)]);
        let per_file: Vec<(&str, &[LogicalOid])> =
            per_file.iter().map(|(f, o)| (&**f, o.as_slice())).collect();
        assert_eq!(per_file, vec![("a-extract.db", &[lo(0), lo(1)][..]), ("bulk.db", &[lo(5)])]);
        assert_eq!(unresolved, vec![lo(99)]);
        assert_eq!(c.lookups, 1);
    }

    #[test]
    fn greedy_cover_prefers_dense_files() {
        let mut c = ObjectFileCatalog::new();
        // One fat file holds everything; two lean files hold halves.
        c.record_file("fat.db", &[lo(0), lo(1), lo(2), lo(3)]);
        c.record_file("lean1.db", &[lo(0), lo(1)]);
        c.record_file("lean2.db", &[lo(2), lo(3)]);
        let sizes = |f: &str| match f {
            "fat.db" => 400u64,
            _ => 100,
        };
        // Wanting all 4: two lean files (200 B) beat one fat file (400 B)
        // on gain/byte (2/100 > 4/400 is a tie → either is acceptable, but
        // coverage must be complete and ≤ 400 B).
        let cover = c.greedy_file_cover(&[lo(0), lo(1), lo(2), lo(3)], sizes);
        assert!(cover.uncovered.is_empty());
        assert!(cover.total_bytes <= 400);
        // Wanting only lo(0): a lean file wins on bytes/gain.
        let cover = c.greedy_file_cover(&[lo(0)], sizes);
        assert_eq!(cover.files, vec!["lean1.db".to_string()]);
        assert_eq!(cover.total_bytes, 100);
    }

    #[test]
    fn cover_reports_unresolvable_objects() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("a.db", &[lo(0)]);
        let cover = c.greedy_file_cover(&[lo(0), lo(7)], |_| 10);
        assert_eq!(cover.uncovered, vec![lo(7)]);
        assert_eq!(cover.files, vec!["a.db".to_string()]);
    }

    #[test]
    fn snapshot_roundtrip_and_merge() {
        let mut c = ObjectFileCatalog::new();
        c.record_file("a.db", &[lo(0), lo(1)]);
        c.record_file("b.db", &[lo(2)]);
        let snap = c.snapshot();
        let rebuilt = ObjectFileCatalog::from_snapshot(&snap);
        assert_eq!(rebuilt.snapshot(), snap);
        assert_eq!(rebuilt.file_count(), 2);
        assert_eq!(rebuilt.files_of(lo(1)), vec!["a.db"]);
        // Merge is idempotent and additive.
        let mut other = ObjectFileCatalog::new();
        other.record_file("b.db", &[lo(2)]);
        assert_eq!(other.merge_snapshot(&snap), 1, "only a.db is new");
        assert_eq!(other.merge_snapshot(&snap), 0);
        assert_eq!(other.object_count(), 3);
    }

    #[test]
    fn cover_is_deterministic() {
        let build = || {
            let mut c = ObjectFileCatalog::new();
            c.record_file("x.db", &[lo(0), lo(1)]);
            c.record_file("y.db", &[lo(0), lo(1)]);
            c.greedy_file_cover(&[lo(0), lo(1)], |_| 10).files
        };
        assert_eq!(build(), build());
    }
}
