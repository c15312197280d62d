//! Federated replica catalog: per-site LRCs feeding an RLI tree.
//!
//! The paper's single central LDAP catalog is the metadata bottleneck and
//! single point of failure its successors fixed: the Giggle/EU-DataGrid
//! replica location service splits the catalog into per-site **Local
//! Replica Catalogs** (authoritative, journaled) whose contents flow
//! upward into a tree of **Replica Location Indices** as periodic
//! *soft-state* updates — bloom-filter-compressed membership summaries
//! that expire on a TTL when their source stops refreshing them.
//!
//! The read semantics are **bounded staleness, never wrong**:
//!
//! 1. an RLI hit is only a *hint* — it must be confirmed at the owning
//!    LRC before it counts;
//! 2. a bloom false positive or an expired summary falls through to a
//!    bounded fan-out query over a few LRCs;
//! 3. a dead RLI subtree degrades to direct LRC scatter — every site the
//!    index can no longer speak for is asked directly. Slower, never wrong.
//!
//! This module is pure data structure + sim-time: it decides *what* to ask
//! and records ground truth; the grid layer owns the RPCs, retry hygiene,
//! and fault injection, feeding liveness in through [`FederationFaults`].

use std::collections::{BTreeMap, BTreeSet};

use gdmp_intern::{NameTable, SiteId, Symbol, SymbolTable};
use gdmp_simnet::time::{SimDuration, SimTime};

// ---- bloom filter --------------------------------------------------------

/// A deterministic bloom filter with a fixed geometry, so summaries from
/// different LRCs union bitwise at RLI nodes. Double hashing (FNV-1a plus
/// an avalanche finalizer) derives the `k` probe positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Total bit count (fixed per federation so filters stay unionable).
    m: u64,
    k: u32,
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Size the filter for `capacity` items at target false-positive rate
    /// `fp_rate`: `m = -n ln p / (ln 2)²`, `k = (m/n) ln 2`.
    pub fn for_capacity(capacity: usize, fp_rate: f64) -> BloomFilter {
        let n = capacity.max(1) as f64;
        let p = fp_rate.clamp(1e-9, 0.5);
        let m = (-(n * p.ln()) / (2f64.ln() * 2f64.ln())).ceil().max(64.0) as u64;
        let m = m.next_multiple_of(64);
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        BloomFilter { bits: vec![0; (m / 64) as usize], m, k }
    }

    pub fn insert(&mut self, item: &str) {
        let h1 = fnv1a(item.as_bytes());
        let h2 = avalanche(h1) | 1;
        for i in 0..self.k {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % self.m;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    pub fn contains(&self, item: &str) -> bool {
        let h1 = fnv1a(item.as_bytes());
        let h2 = avalanche(h1) | 1;
        (0..self.k).all(|i| {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % self.m;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Bitwise OR; both filters must share a geometry (same federation).
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert_eq!(self.m, other.m, "bloom geometries differ");
        assert_eq!(self.k, other.k, "bloom geometries differ");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

// ---- geometry ------------------------------------------------------------

/// Cadence of soft-state pushes (LRC → leaf RLI → … → root).
const UPDATE_PERIOD: SimDuration = SimDuration::from_secs(30);
/// TTL on a received summary; an LRC or RLI that stops refreshing
/// vanishes from the index after this long.
const SUMMARY_TTL: SimDuration = SimDuration::from_secs(120);
/// Width of the bounded fan-out query the ladder's middle rung uses.
pub const FALLBACK_FANOUT: usize = 4;
/// Expected files per site — sizes the (shared) bloom geometry.
const BLOOM_CAPACITY: usize = 256;
/// False-positive bound the bloom geometry is derived from.
const BLOOM_FP_RATE: f64 = 0.01;
/// LRC sites per leaf RLI node.
const LEAF_FANOUT: usize = 8;
/// Child RLI nodes per upper-level RLI node.
const TREE_FANOUT: usize = 4;

/// The worst-case age of an index entry a lookup may act on before the
/// ladder falls through: one missed push plus the TTL.
pub const STALENESS_BOUND: SimDuration = SimDuration(UPDATE_PERIOD.0 + SUMMARY_TTL.0);

/// Asks for a federated catalog, whose geometry is the fixed one above: it
/// carries no setting. Built only with `FederationConfig::default()`.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct FederationConfig;

// ---- fault view ----------------------------------------------------------

/// Liveness the federation consults but does not own: the chaos layer
/// (or nothing, for pure-data-structure use) answers whether an RLI node
/// is down and whether a given soft-state push gets lost in flight.
pub trait FederationFaults {
    /// Is this RLI node currently crashed?
    fn rli_down(&self, _node: &str) -> bool {
        false
    }

    /// Should the next soft-state update emitted by `from` (an LRC site or
    /// an RLI node name) be lost? Counted per emission, like RPC drops.
    fn lose_update(&mut self, _from: &str) -> bool {
        false
    }
}

/// The no-fault view: everything up, every update delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FederationFaults for NoFaults {}

// ---- local replica catalog ----------------------------------------------

/// One durable journal entry of an LRC (mirrors the Site notification
/// journal: the in-memory index is volatile, the journal survives a crash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LrcOp {
    Add(String),
    Remove(String),
}

/// Per-site Local Replica Catalog: the *authoritative* record of which
/// logical files the site holds. The live `files` index is volatile and
/// cleared by a crash; the append-only `journal` is durable and replays
/// on restart — the same crash/recovery split the Site state uses.
#[derive(Debug, Clone)]
pub struct Lrc {
    site: String,
    files: BTreeSet<String>,
    journal: Vec<LrcOp>,
    /// Bumped on every mutation; summaries carry the epoch they saw.
    epoch: u64,
    /// True while crashed: the volatile index is gone until recovery.
    down: bool,
}

impl Lrc {
    fn new(site: &str) -> Lrc {
        Lrc {
            site: site.to_string(),
            files: BTreeSet::new(),
            journal: Vec::new(),
            epoch: 0,
            down: false,
        }
    }

    pub fn site(&self) -> &str {
        &self.site
    }

    pub fn holds(&self, lfn: &str) -> bool {
        self.files.contains(lfn)
    }

    pub fn files(&self) -> &BTreeSet<String> {
        &self.files
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn is_down(&self) -> bool {
        self.down
    }

    fn add(&mut self, lfn: &str) -> bool {
        if self.files.insert(lfn.to_string()) {
            self.journal.push(LrcOp::Add(lfn.to_string()));
            self.epoch += 1;
            true
        } else {
            false
        }
    }

    fn remove(&mut self, lfn: &str) -> bool {
        if self.files.remove(lfn) {
            self.journal.push(LrcOp::Remove(lfn.to_string()));
            self.epoch += 1;
            true
        } else {
            false
        }
    }

    /// Crash: the volatile index is lost, the durable journal survives.
    fn crash(&mut self) {
        self.files.clear();
        self.down = true;
    }

    /// Restart: replay the journal to rebuild the index, exactly as the
    /// grid replays Site journals on restart.
    fn recover(&mut self) {
        self.files.clear();
        for op in &self.journal {
            match op {
                LrcOp::Add(lfn) => {
                    self.files.insert(lfn.clone());
                }
                LrcOp::Remove(lfn) => {
                    self.files.remove(lfn);
                }
            }
        }
        self.down = false;
    }
}

// ---- RLI tree ------------------------------------------------------------

/// A soft-state summary one child pushed: a bloom of its (transitive)
/// holdings, with the sim-time it was built and when it expires.
#[derive(Debug, Clone)]
struct Summary {
    bloom: BloomFilter,
    count: u64,
    updated_at: SimTime,
    expires_at: SimTime,
}

/// What a child of an RLI node is: a site's LRC (at leaves) or another
/// RLI node (everywhere above).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Child {
    Site(SiteId),
    Node(usize),
}

/// One Replica Location Index node.
#[derive(Debug, Clone)]
struct RliNode {
    name: String,
    children: Vec<Child>,
    /// Latest unexpired summary per child. A node's children are all
    /// sites (leaves) or all nodes (upper tiers), so the key is the
    /// site id or node index respectively — never mixed.
    summaries: BTreeMap<u32, Summary>,
}

/// The query plan the index produced for one lookup: who to confirm, who
/// to scatter to because the index can no longer speak for them, and how
/// stale the consulted soft state was. Sites are interned ids — resolve
/// them through the federation's [`NameTable`] only at export boundaries.
#[derive(Debug, Clone, Default)]
pub struct LookupPlan {
    /// Candidate holder sites from live RLI descent (hints — unconfirmed).
    pub hints: Vec<SiteId>,
    /// Sites covered by dead RLI subtrees: the index is blind to them, so
    /// the ladder must ask their LRCs directly.
    pub scatter: Vec<SiteId>,
    /// True when any consulted RLI node was down.
    pub degraded: bool,
    /// Age of the oldest summary consulted on the descent, ns.
    pub staleness_ns: u64,
}

/// Counters the federation keeps about itself; `wrong_answers` is the one
/// the federation invariant demands stays zero forever.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FederationStats {
    pub updates_delivered: u64,
    pub updates_lost: u64,
    /// Confirmed lookup results that contradicted ground-truth LRC
    /// contents. Must be zero under any fault schedule.
    pub wrong_answers: u64,
}

// ---- the federated catalog ----------------------------------------------

/// The whole federation: every LRC, the RLI tree, and the soft-state
/// clockwork. Deterministic: identical call sequences produce identical
/// state, bit for bit.
#[derive(Debug, Clone)]
pub struct FederatedCatalog {
    /// Site names interned in sorted order, so `SiteId(i)` walks sites in
    /// name order — the iteration order the string-keyed map used to give.
    site_ids: SymbolTable<SiteId>,
    /// Cached snapshot for allocation-free id → name resolution.
    names: NameTable,
    /// One LRC per site, indexed by `SiteId`.
    lrcs: Vec<Lrc>,
    /// Arena, children strictly before parents; the last node is the root.
    nodes: Vec<RliNode>,
    root: usize,
    /// Leaf RLI arena index per site, indexed by `SiteId`.
    leaf_of: Vec<usize>,
    /// Parent arena index per node (`None` for the root), precomputed so
    /// propagation rounds need no per-node linear scan.
    parent: Vec<Option<usize>>,
    /// Next scheduled soft-state push boundary.
    next_update: SimTime,
    pub stats: FederationStats,
}

impl FederatedCatalog {
    /// Build the federation over `sites` (sorted internally for a stable
    /// topology): sites chunk into leaf RLIs, leaves into upper tiers,
    /// until a single root remains.
    pub fn new(sites: &[String]) -> FederatedCatalog {
        assert!(!sites.is_empty(), "federation needs at least one site");
        let mut sorted: Vec<String> = sites.to_vec();
        sorted.sort();
        sorted.dedup();
        let mut site_ids: SymbolTable<SiteId> = SymbolTable::new();
        let mut lrcs: Vec<Lrc> = Vec::with_capacity(sorted.len());
        for s in &sorted {
            site_ids.intern(s);
            lrcs.push(Lrc::new(s));
        }

        let mut nodes: Vec<RliNode> = Vec::new();
        let mut leaf_of = vec![0usize; sorted.len()];
        // Tier 0: leaves over site chunks.
        let mut tier: Vec<usize> = Vec::new();
        for (i, chunk) in sorted.chunks(LEAF_FANOUT).enumerate() {
            let idx = nodes.len();
            let mut children = Vec::with_capacity(chunk.len());
            for site in chunk {
                let id = site_ids.try_id(site).expect("interned above");
                leaf_of[id.index() as usize] = idx;
                children.push(Child::Site(id));
            }
            nodes.push(RliNode {
                name: format!("rli-leaf-{i}"),
                children,
                summaries: BTreeMap::new(),
            });
            tier.push(idx);
        }
        // Upper tiers until one node remains; that node is the root.
        let mut level = 1usize;
        while tier.len() > 1 {
            let mut next: Vec<usize> = Vec::new();
            for (i, chunk) in tier.chunks(TREE_FANOUT).enumerate() {
                let idx = nodes.len();
                nodes.push(RliNode {
                    name: format!("rli-t{level}-{i}"),
                    children: chunk.iter().map(|&c| Child::Node(c)).collect(),
                    summaries: BTreeMap::new(),
                });
                next.push(idx);
            }
            tier = next;
            level += 1;
        }
        let root = tier[0];
        // A one-tier federation keeps the leaf name; otherwise name the
        // root for what it is.
        if nodes.len() > 1 {
            nodes[root].name = "rli-root".to_string();
        }
        let mut parent = vec![None; nodes.len()];
        for (idx, node) in nodes.iter().enumerate() {
            for child in &node.children {
                if let Child::Node(c) = child {
                    parent[*c] = Some(idx);
                }
            }
        }
        let next_update = SimTime(UPDATE_PERIOD.nanos());
        let names = site_ids.name_table();
        FederatedCatalog {
            site_ids,
            names,
            lrcs,
            nodes,
            root,
            leaf_of,
            parent,
            next_update,
            stats: FederationStats::default(),
        }
    }

    /// Every RLI node name, leaves first, root last (chaos plans target
    /// these).
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.name.clone()).collect()
    }

    pub fn root_name(&self) -> &str {
        &self.nodes[self.root].name
    }

    /// Every federated site name, sorted (export boundary: allocates).
    pub fn sites(&self) -> Vec<String> {
        self.lrcs.iter().map(|l| l.site.clone()).collect()
    }

    /// Number of federated sites; valid ids are `SiteId(0..site_count)`,
    /// in sorted-name order.
    pub fn site_count(&self) -> usize {
        self.lrcs.len()
    }

    /// Allocation-free probe: the interned id of `site`, if federated.
    pub fn try_site_id(&self, site: &str) -> Option<SiteId> {
        self.site_ids.try_id(site)
    }

    /// The name behind an interned site id.
    pub fn site_name(&self, site: SiteId) -> &str {
        self.names.resolve_sym(site)
    }

    /// Cheap snapshot (one refcount bump) of the id → name mapping, for
    /// resolving [`LookupPlan`] ids without borrowing the federation.
    pub fn name_table(&self) -> NameTable {
        self.names.clone()
    }

    pub fn lrc(&self, site: &str) -> Option<&Lrc> {
        self.try_site_id(site).map(|id| &self.lrcs[id.index() as usize])
    }

    /// The authoritative answer: does `site`'s LRC record `lfn`? This *is*
    /// the confirm step of the ladder (the grid pays the RPC, then asks).
    pub fn lrc_holds(&self, site: &str, lfn: &str) -> bool {
        self.try_site_id(site).is_some_and(|id| self.lrcs[id.index() as usize].holds(lfn))
    }

    // ---- mutation --------------------------------------------------------

    /// Record a new replica of `lfn` at `site` (journaled).
    pub fn publish(&mut self, site: &str, lfn: &str) -> bool {
        match self.try_site_id(site) {
            Some(id) => self.lrcs[id.index() as usize].add(lfn),
            None => false,
        }
    }

    /// Remove `site`'s replica of `lfn` (journaled).
    pub fn remove(&mut self, site: &str, lfn: &str) -> bool {
        match self.try_site_id(site) {
            Some(id) => self.lrcs[id.index() as usize].remove(lfn),
            None => false,
        }
    }

    /// Site crash: the LRC's volatile index is lost with it.
    pub fn crash_lrc(&mut self, site: &str) {
        if let Some(id) = self.try_site_id(site) {
            self.lrcs[id.index() as usize].crash();
        }
    }

    /// Site restart: replay the durable journal, restoring the index.
    pub fn recover_lrc(&mut self, site: &str) {
        if let Some(id) = self.try_site_id(site) {
            self.lrcs[id.index() as usize].recover();
        }
    }

    // ---- soft state ------------------------------------------------------

    /// Run every soft-state push whose scheduled boundary has passed.
    /// Summaries are stamped with the *boundary* time, so state depends
    /// only on how far the clock moved, not on when the caller ticked.
    /// Returns `(delivered, lost)` update counts across all rounds.
    pub fn tick(&mut self, now: SimTime, faults: &mut dyn FederationFaults) -> (u64, u64) {
        let (mut delivered, mut lost) = (0, 0);
        while self.next_update <= now {
            let at = self.next_update;
            let (d, l) = self.propagate(at, faults);
            delivered += d;
            lost += l;
            self.next_update += UPDATE_PERIOD;
        }
        self.stats.updates_delivered += delivered;
        self.stats.updates_lost += lost;
        (delivered, lost)
    }

    /// One push round at time `at`: expire stale summaries, then every LRC
    /// pushes to its leaf and every RLI pushes its aggregate to its parent
    /// (children push strictly before parents — the arena is built that
    /// way — so news travels one full path root-ward per round).
    fn propagate(&mut self, at: SimTime, faults: &mut dyn FederationFaults) -> (u64, u64) {
        let ttl = SUMMARY_TTL;
        for node in &mut self.nodes {
            node.summaries.retain(|_, s| s.expires_at > at);
        }
        let (mut delivered, mut lost) = (0u64, 0u64);
        // LRC → leaf pushes, in site (= id) order. No per-round name-list
        // clone: ids iterate the same sorted order the string map gave.
        for i in 0..self.lrcs.len() {
            if self.lrcs[i].down {
                continue; // a crashed site emits nothing
            }
            let leaf = self.leaf_of[i];
            if faults.lose_update(&self.lrcs[i].site) || faults.rli_down(&self.nodes[leaf].name) {
                lost += 1;
                continue;
            }
            let lrc = &self.lrcs[i];
            let mut bloom = BloomFilter::for_capacity(BLOOM_CAPACITY, BLOOM_FP_RATE);
            for lfn in &lrc.files {
                bloom.insert(lfn);
            }
            let count = lrc.files.len() as u64;
            self.nodes[leaf]
                .summaries
                .insert(i as u32, Summary { bloom, count, updated_at: at, expires_at: at + ttl });
            delivered += 1;
        }
        // RLI → parent pushes, children before parents by arena order.
        for idx in 0..self.nodes.len() {
            let Some(parent) = self.parent[idx] else { continue };
            if faults.rli_down(&self.nodes[idx].name) {
                continue; // a crashed index node emits nothing
            }
            if faults.lose_update(&self.nodes[idx].name)
                || faults.rli_down(&self.nodes[parent].name)
            {
                lost += 1;
                continue;
            }
            let mut bloom = BloomFilter::for_capacity(BLOOM_CAPACITY, BLOOM_FP_RATE);
            let mut count = 0u64;
            for s in self.nodes[idx].summaries.values() {
                bloom.union_with(&s.bloom);
                count += s.count;
            }
            self.nodes[parent]
                .summaries
                .insert(idx as u32, Summary { bloom, count, updated_at: at, expires_at: at + ttl });
            delivered += 1;
        }
        (delivered, lost)
    }

    /// Age of the oldest live summary at the root, ns — the staleness a
    /// root-level lookup acts on right now (0 when the root holds nothing).
    pub fn root_staleness_ns(&self, now: SimTime) -> u64 {
        self.nodes[self.root]
            .summaries
            .values()
            .map(|s| now.nanos().saturating_sub(s.updated_at.nanos()))
            .max()
            .unwrap_or(0)
    }

    // ---- lookup planning -------------------------------------------------

    /// Descend the RLI tree for `lfn`: which sites does the index *hint*
    /// hold it, and which sites has a dead subtree made invisible (they
    /// must be scatter-queried instead)? Expired summaries have already
    /// been dropped up to the last tick; descent re-checks against `now`.
    pub fn plan_lookup(
        &self,
        lfn: &str,
        now: SimTime,
        faults: &dyn FederationFaults,
    ) -> LookupPlan {
        let mut plan = LookupPlan::default();
        if faults.rli_down(&self.nodes[self.root].name) {
            // The whole index is gone: full direct-LRC scatter. Ids are
            // dense and sorted, so this is the full site list in name order.
            plan.scatter = (0..self.lrcs.len() as u32).map(SiteId).collect();
            plan.degraded = true;
            return plan;
        }
        self.descend(self.root, lfn, now, faults, &mut plan);
        plan
    }

    fn descend(
        &self,
        idx: usize,
        lfn: &str,
        now: SimTime,
        faults: &dyn FederationFaults,
        plan: &mut LookupPlan,
    ) {
        let node = &self.nodes[idx];
        for child in &node.children {
            match *child {
                Child::Node(child_idx) => {
                    if faults.rli_down(&self.nodes[child_idx].name) {
                        // Dead subtree: the index is blind to every site
                        // under it — schedule them for direct scatter.
                        self.collect_sites(child_idx, &mut plan.scatter);
                        plan.degraded = true;
                        continue;
                    }
                    match node.summaries.get(&(child_idx as u32)) {
                        Some(s) if s.expires_at > now => {
                            plan.staleness_ns = plan
                                .staleness_ns
                                .max(now.nanos().saturating_sub(s.updated_at.nanos()));
                            if s.bloom.contains(lfn) {
                                self.descend(child_idx, lfn, now, faults, plan);
                            }
                        }
                        // No live summary: the subtree never reported (or
                        // its report expired). The fallback rungs cover
                        // the gap.
                        _ => {}
                    }
                }
                Child::Site(site) => match node.summaries.get(&site.index()) {
                    Some(s) if s.expires_at > now => {
                        plan.staleness_ns =
                            plan.staleness_ns.max(now.nanos().saturating_sub(s.updated_at.nanos()));
                        if s.bloom.contains(lfn) {
                            plan.hints.push(site);
                        }
                    }
                    _ => {}
                },
            }
        }
    }

    fn collect_sites(&self, idx: usize, out: &mut Vec<SiteId>) {
        for child in &self.nodes[idx].children {
            match *child {
                Child::Site(site) => out.push(site),
                Child::Node(i) => self.collect_sites(i, out),
            }
        }
    }

    /// Ground-truth audit of one *confirmed* lookup answer: every returned
    /// holder must be present in its LRC. Feeds `stats.wrong_answers`,
    /// which the federation invariant pins at zero.
    pub fn audit_answer(&mut self, lfn: &str, holders: &[String]) {
        let wrong = holders.iter().filter(|s| !self.lrc_holds(s, lfn)).count() as u64;
        self.stats.wrong_answers += wrong;
    }

    /// The union of every LRC's holdings — the ground truth the RLI
    /// converges toward once updates stop and TTLs elapse.
    pub fn ground_truth(&self) -> BTreeSet<String> {
        self.lrcs.iter().flat_map(|l| l.files.iter().cloned()).collect()
    }

    /// Does the root index (transitively) claim `lfn` might exist? Used by
    /// the convergence proptest: after quiescence, root claims must equal
    /// ground truth up to bloom false positives — and for items actually
    /// present, must never be a miss.
    pub fn root_may_hold(&self, lfn: &str, now: SimTime) -> bool {
        let mut plan = LookupPlan::default();
        self.descend(self.root, lfn, now, &NoFaults, &mut plan);
        !plan.hints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("site{i:03}")).collect()
    }

    fn fed(n: usize) -> FederatedCatalog {
        FederatedCatalog::new(&sites(n))
    }

    fn t(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000_000)
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = BloomFilter::for_capacity(100, 0.01);
        for i in 0..100 {
            b.insert(&format!("lfn{i}"));
        }
        for i in 0..100 {
            assert!(b.contains(&format!("lfn{i}")));
        }
    }

    #[test]
    fn bloom_union_covers_both_sides() {
        let mut a = BloomFilter::for_capacity(64, 0.01);
        let mut b = BloomFilter::for_capacity(64, 0.01);
        a.insert("x");
        b.insert("y");
        a.union_with(&b);
        assert!(a.contains("x") && a.contains("y"));
    }

    #[test]
    fn topology_is_a_tree_with_root_last() {
        let f = fed(100);
        // 100 sites / leaf_fanout 8 = 13 leaves; 13/4 = 4 mids; 4/4 = 1 root.
        let names = f.node_names();
        assert_eq!(names.len(), 13 + 4 + 1);
        assert_eq!(f.root_name(), "rli-root");
        // Every site maps to exactly one leaf, and ids round-trip.
        for s in f.sites() {
            let id = f.try_site_id(&s).expect("every site is interned");
            assert_eq!(f.site_name(id), s);
            assert!(f.leaf_of[id.index() as usize] < names.len());
        }
    }

    #[test]
    fn single_leaf_federation_has_one_node() {
        let f = fed(3);
        assert_eq!(f.node_names(), vec!["rli-leaf-0".to_string()]);
        assert_eq!(f.root_name(), "rli-leaf-0");
    }

    #[test]
    fn soft_state_reaches_root_and_lookup_hints() {
        let mut f = fed(20);
        f.publish("site007", "hot.db");
        // One round per tier hop: leaf + mid push in the same round
        // (children push before parents), so one tick suffices.
        f.tick(t(30), &mut NoFaults);
        let plan = f.plan_lookup("hot.db", t(31), &NoFaults);
        assert_eq!(plan.hints, vec![f.try_site_id("site007").unwrap()]);
        assert!(plan.scatter.is_empty());
        assert!(!plan.degraded);
    }

    #[test]
    fn unpublished_file_yields_no_hints() {
        let mut f = fed(20);
        f.publish("site007", "hot.db");
        f.tick(t(30), &mut NoFaults);
        let plan = f.plan_lookup("ghost.db", t(31), &NoFaults);
        // Bloom FP possible but wildly unlikely at this fill; hints must
        // not include non-holders *after confirm*, which is the grid's job.
        for &h in &plan.hints {
            assert!(!f.lrc_holds(f.site_name(h), "ghost.db"));
        }
    }

    #[test]
    fn ttl_expiry_forgets_a_silent_site() {
        let mut f = fed(10);
        f.publish("site003", "a.db");
        f.tick(t(30), &mut NoFaults);
        assert!(!f.plan_lookup("a.db", t(31), &NoFaults).hints.is_empty());
        // The site crashes; it stops refreshing. After TTL (120 s) its
        // summary expires everywhere.
        f.crash_lrc("site003");
        f.tick(t(300), &mut NoFaults);
        let plan = f.plan_lookup("a.db", t(300), &NoFaults);
        assert!(plan.hints.is_empty(), "expired summary must not hint");
    }

    #[test]
    fn lrc_journal_survives_crash_and_replays() {
        let mut f = fed(5);
        f.publish("site001", "a.db");
        f.publish("site001", "b.db");
        f.remove("site001", "a.db");
        f.crash_lrc("site001");
        assert!(!f.lrc_holds("site001", "b.db"), "volatile index lost");
        f.recover_lrc("site001");
        assert!(f.lrc_holds("site001", "b.db"), "journal replay restores");
        assert!(!f.lrc_holds("site001", "a.db"), "removes replay too");
    }

    struct RootDown;
    impl FederationFaults for RootDown {
        fn rli_down(&self, node: &str) -> bool {
            node == "rli-root"
        }
    }

    #[test]
    fn dead_root_degrades_to_full_scatter() {
        let mut f = fed(40);
        f.publish("site020", "x.db");
        f.tick(t(30), &mut NoFaults);
        let plan = f.plan_lookup("x.db", t(31), &RootDown);
        assert!(plan.degraded);
        assert!(plan.hints.is_empty());
        assert_eq!(plan.scatter.len(), 40, "every LRC must be asked directly");
    }

    struct LeafDown(&'static str);
    impl FederationFaults for LeafDown {
        fn rli_down(&self, node: &str) -> bool {
            node == self.0
        }
    }

    #[test]
    fn dead_leaf_scatters_only_its_sites() {
        let mut f = fed(40); // 5 leaves of 8
        f.publish("site001", "x.db");
        f.tick(t(30), &mut NoFaults);
        let plan = f.plan_lookup("x.db", t(31), &LeafDown("rli-leaf-0"));
        assert!(plan.degraded);
        assert_eq!(plan.scatter.len(), 8, "exactly the dead leaf's sites");
        assert!(plan.scatter.contains(&f.try_site_id("site001").unwrap()));
        assert!(plan.hints.is_empty(), "the holder sits under the dead leaf");
    }

    struct LoseAll;
    impl FederationFaults for LoseAll {
        fn lose_update(&mut self, _from: &str) -> bool {
            true
        }
    }

    #[test]
    fn update_loss_leaves_index_stale_not_wrong() {
        let mut f = fed(10);
        f.publish("site002", "x.db");
        f.tick(t(30), &mut LoseAll);
        let plan = f.plan_lookup("x.db", t(31), &NoFaults);
        assert!(plan.hints.is_empty(), "lost updates mean no knowledge, not wrong knowledge");
        // The authoritative record is untouched.
        assert!(f.lrc_holds("site002", "x.db"));
    }

    #[test]
    fn tick_is_boundary_stamped_and_call_pattern_independent() {
        let mut a = fed(10);
        let mut b = fed(10);
        for f in [&mut a, &mut b] {
            f.publish("site004", "x.db");
        }
        // a ticks once late; b ticks in many small steps.
        a.tick(t(95), &mut NoFaults);
        for s in [10, 31, 40, 66, 95] {
            b.tick(t(s), &mut NoFaults);
        }
        let pa = a.plan_lookup("x.db", t(95), &NoFaults);
        let pb = b.plan_lookup("x.db", t(95), &NoFaults);
        assert_eq!(pa.hints, pb.hints);
        assert_eq!(pa.staleness_ns, pb.staleness_ns, "summaries stamp the boundary time");
    }

    #[test]
    fn audit_counts_wrong_answers() {
        let mut f = fed(5);
        f.publish("site000", "x.db");
        f.audit_answer("x.db", &["site000".to_string()]);
        assert_eq!(f.stats.wrong_answers, 0);
        f.audit_answer("x.db", &["site001".to_string()]);
        assert_eq!(f.stats.wrong_answers, 1);
    }

    #[test]
    fn staleness_bound_is_period_plus_ttl() {
        assert_eq!(STALENESS_BOUND, SimDuration::from_secs(150));
    }
}
