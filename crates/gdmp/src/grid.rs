//! The grid orchestrator: sites, the central replica catalog, WAN
//! profiles between sites, the logical clock, and the Data Mover.
//!
//! [`Grid`] plays the role of the network between GDMP servers (Figure 3):
//! every RPC is authenticated (GSI), authorized (gridmap), and charged one
//! control round trip on the clock; every file transfer runs through the
//! packet-level WAN simulation of `gdmp-gridftp` with staging, space
//! reservation, CRC verification, retry and restart exactly as Section 4
//! describes.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use gdmp_gridftp::crc::crc32;
use gdmp_gridftp::sim::{SessionCache, WanProfile};
use gdmp_gsi::cert::CertificateAuthority;
use gdmp_gsi::context::{challenge_legs, SecurityContext};
use gdmp_gsi::gridmap::VoGrants;
use gdmp_gsi::name::DistinguishedName;
use gdmp_intern::{Lfn, NameTable, SiteId, Symbol, SymbolTable};
use gdmp_objectstore::ObjectFileCatalog;
use gdmp_replica_catalog::federation::{
    FederatedCatalog, FederationConfig, FederationFaults, LookupPlan,
};
use gdmp_replica_catalog::service::{FileMeta, ReplicaCatalogService};
use gdmp_simnet::time::{SimDuration, SimTime};
use gdmp_telemetry::Registry;

use crate::chaos::{ChaosState, FaultEvent, FaultSchedule};
use crate::error::{GdmpError, Result};
use crate::failure::FaultState;
use crate::message::{FileNotice, Request, Response};
use crate::recovery::{
    BreakerConfig, CircuitBreaker, FailureCtx, FailureKind, RecoveryAction, RecoveryStrategy,
};
use crate::schedule::FetchPolicy;
use crate::site::{Site, SiteConfig};

/// GridFTP parameters the Data Mover uses for every transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Parallel TCP streams.
    pub streams: u32,
    /// Socket buffer in bytes.
    pub buffer: u64,
    /// Retry budget per file.
    pub max_attempts: u32,
}

impl Default for TransferConfig {
    fn default() -> Self {
        // The paper's findings: a few tuned streams are close to optimal.
        TransferConfig { streams: 4, buffer: 1024 * 1024, max_attempts: 5 }
    }
}

/// Outcome of one file replication.
#[derive(Debug, Clone, Default)]
pub struct ReplicationReport {
    pub lfn: String,
    pub from: String,
    pub to: String,
    pub bytes: u64,
    /// Total bytes that crossed the WAN (> `bytes` when retries re-sent).
    pub bytes_moved: u64,
    pub attempts: u32,
    /// Whether the source had to stage from tape.
    pub staged: bool,
    pub stage_latency: SimDuration,
    /// Cumulative data-phase time across attempts.
    pub data_time: SimDuration,
    /// Control/setup overhead across attempts (RPCs + GridFTP setup).
    pub setup_time: SimDuration,
    pub started_at: SimTime,
    pub finished_at: SimTime,
}

impl ReplicationReport {
    /// End-to-end latency of the replication.
    pub fn total_time(&self) -> SimDuration {
        self.finished_at.since(self.started_at)
    }

    /// Effective throughput in Mb/s over the whole operation.
    pub fn effective_mbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.total_time().as_secs_f64().max(1e-9) / 1e6
    }
}

/// Which rung of the catalog lookup ladder produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupVia {
    /// Federation disabled: the central catalog answered directly.
    Central,
    /// The requester's own LRC already held the file (no RPC needed).
    Local,
    /// An RLI hint confirmed at the owning LRC.
    Rli,
    /// No confirmed hint — the bounded fan-out query found it.
    Fallback,
    /// Direct LRC scatter (dead index subtree, or the fan-out came up
    /// empty): slower, never wrong.
    Scatter,
}

impl LookupVia {
    pub fn label(self) -> &'static str {
        match self {
            LookupVia::Central => "central",
            LookupVia::Local => "local",
            LookupVia::Rli => "rli",
            LookupVia::Fallback => "fallback",
            LookupVia::Scatter => "scatter",
        }
    }
}

/// Outcome of one federated replica lookup: every holder listed has been
/// *confirmed* at its authoritative LRC — never a bare index hint.
#[derive(Debug, Clone)]
pub struct LookupResult {
    pub lfn: String,
    /// Confirmed holder sites, in probe order.
    pub holders: Vec<String>,
    pub via: LookupVia,
    /// Confirm probes issued (RPC round trips paid).
    pub confirms: u32,
    /// Hints whose owning LRC denied holding the file (bloom false
    /// positives or stale summaries).
    pub false_positives: u32,
    /// Probes that never got an answer (site down, link cut, breaker open).
    pub unreachable: u32,
    /// True when a dead RLI subtree degraded part of the lookup.
    pub degraded: bool,
    /// Age of the oldest soft-state summary consulted, ns.
    pub staleness_ns: u64,
}

/// [`FederationFaults`] answered by the grid's live chaos state: RLI
/// crashes and soft-state update losses come off the fault schedule.
struct ChaosFaultView<'a> {
    chaos: &'a mut ChaosState,
}

impl FederationFaults for ChaosFaultView<'_> {
    fn rli_down(&self, node: &str) -> bool {
        self.chaos.is_rli_down(node)
    }

    fn lose_update(&mut self, from: &str) -> bool {
        self.chaos.should_drop_update(from)
    }
}

/// Where a [`Grid::lookup_ladder`] stands: the sites probed so far and the
/// first LRC that never answered, named through the federation's ids.
struct Ladder<'a> {
    from: &'a str,
    lfn: &'a str,
    names: NameTable,
    probed: std::collections::BTreeSet<SiteId>,
    first_unreachable: Option<SiteId>,
}

/// The assembled data grid.
pub struct Grid {
    pub ca: CertificateAuthority,
    pub(crate) clock: SimTime,
    /// The central replica catalog (one LDAP server, as in the paper).
    pub catalog: ReplicaCatalogService,
    /// The federated catalog (per-site LRCs + RLI tree), when enabled:
    /// lookups route through it with bounded-staleness semantics, while
    /// the central catalog above stays authoritative for metadata. `None`
    /// keeps the pre-federation paths bit-identical.
    pub(crate) federation: Option<FederatedCatalog>,
    /// Site storage in insertion order, addressed through `slot`.
    pub(crate) sites: Vec<Site>,
    /// Interned site names. Profiles and faults may name a site before it
    /// is added, so an id's `slot` entry stays `None` until then.
    pub(crate) site_ids: SymbolTable<SiteId>,
    /// `SiteId` index → position in `sites` (`None` until the site exists).
    slot: Vec<Option<usize>>,
    /// Site ids sorted by name — the iteration order the old name-keyed
    /// map gave, so clocks and serialized output stay byte-identical.
    order: Vec<SiteId>,
    /// Interned logical file names (fault and defer keys).
    pub(crate) lfns: SymbolTable<Lfn>,
    /// Directed WAN profiles; missing pairs fall back to the default.
    profiles: HashMap<(SiteId, SiteId), WanProfile>,
    default_profile: WanProfile,
    /// The global object→file view (Section 5.2's "global view of which
    /// objects exist where", maintained by GDMP itself).
    pub object_view: ObjectFileCatalog,
    pub params: TransferConfig,
    /// Faults keyed by `(lfn, site)`; `None` site applies to any source.
    pub(crate) faults: HashMap<(Lfn, Option<SiteId>), FaultState>,
    /// Pluggable error recovery; `None` = SimpleRetry(params.max_attempts).
    pub(crate) recovery: Option<Box<dyn RecoveryStrategy>>,
    /// Grid-level fault timeline (site crashes, link cuts, partitions).
    /// Inert until the builder's `fault_schedule` (or
    /// [`Grid::inject_fault_schedule`]) installs a non-empty one.
    pub(crate) chaos: ChaosState,
    /// Per-source circuit breaker for the Data Mover; disabled by default.
    pub(crate) breaker: CircuitBreaker,
    /// How [`Grid::replicate`] fetches: classic single-source (default) or
    /// striped multi-source pulls.
    pub(crate) fetch: FetchPolicy,
    /// Observed per-link throughput EWMA, bits/s, keyed `(src, dst)`, fed
    /// by clean attempts under `MultiSource` (and [`Grid::note_observed_throughput`]).
    /// `SingleSource` never touches it: the default path stays bit-stable.
    history: HashMap<(SiteId, SiteId), f64>,
    /// Backoff deadlines for deferred `replicate_pending` files, keyed
    /// `(dst, lfn)`: `(next_eligible, consecutive_defers)`.
    defer_state: HashMap<(SiteId, Lfn), (SimTime, u32)>,
    pub reports: Vec<ReplicationReport>,
    nonce_counter: u64,
    /// RPCs issued (Request Manager load).
    pub rpc_count: u64,
    /// Sequence number for object-replication extraction files.
    pub(crate) objrep_seq: u64,
    /// Telemetry sink shared by the grid, its sites, and their storage.
    /// Disabled (every call a no-op) unless the builder's `telemetry()` /
    /// `telemetry_sink(reg)` attached a live registry.
    pub(crate) telemetry: Registry,
    /// Sessions and warm-ups simulated so far (see [`Grid::session`]).
    pub(crate) sessions: SessionCache,
    /// Tests only: start every session on an empty cache.
    #[cfg(test)]
    pub(crate) memo_off: bool,
}

impl Grid {
    /// A fresh grid with its own CA and replica catalog collection.
    pub fn new(collection: &str) -> Grid {
        let ca = CertificateAuthority::new(
            DistinguishedName::user("grid", "GDMP Test Grid CA"),
            0xCA5EED,
            0,
            u64::MAX / 2,
        );
        Grid {
            ca,
            clock: SimTime::ZERO,
            catalog: ReplicaCatalogService::new("GDMP", collection)
                .expect("fresh catalog accepts a collection"),
            federation: None,
            sites: Vec::new(),
            site_ids: SymbolTable::new(),
            slot: Vec::new(),
            order: Vec::new(),
            lfns: SymbolTable::new(),
            profiles: HashMap::new(),
            default_profile: WanProfile::cern_anl_production(),
            object_view: ObjectFileCatalog::new(),
            params: TransferConfig::default(),
            faults: HashMap::new(),
            recovery: None,
            chaos: ChaosState::default(),
            breaker: CircuitBreaker::default(),
            fetch: FetchPolicy::SingleSource,
            history: HashMap::new(),
            defer_state: HashMap::new(),
            reports: Vec::new(),
            nonce_counter: 1,
            rpc_count: 0,
            objrep_seq: 0,
            telemetry: Registry::default(),
            sessions: SessionCache::default(),
            #[cfg(test)]
            memo_off: false,
        }
    }

    // ---- telemetry ----------------------------------------------------

    /// Attach a telemetry registry, propagating it to every existing site
    /// (and their storage). Normally reached through
    /// `Grid::builder(..).telemetry()` / `.telemetry_sink(reg)`; the 0.6
    /// `enable_telemetry`/`set_telemetry` setters were removed in 0.8.
    pub(crate) fn attach_telemetry(&mut self, reg: Registry) {
        for site in &mut self.sites {
            site.set_telemetry(reg.clone());
        }
        self.telemetry = reg;
    }

    /// The grid's telemetry registry (disabled unless enabled explicitly).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    // ---- assembly -----------------------------------------------------

    /// Intern a site name, growing the id → slot map alongside. The site
    /// itself may not exist yet (profiles and faults can name it first).
    pub(crate) fn intern_site(&mut self, name: &str) -> SiteId {
        let id = self.site_ids.intern(name);
        if self.slot.len() <= id.index() as usize {
            self.slot.resize(id.index() as usize + 1, None);
        }
        id
    }

    /// The `sites` index of a site by name, allocation-free.
    pub(crate) fn site_slot(&self, name: &str) -> Option<usize> {
        self.site_ids
            .try_id(name)
            .and_then(|id| self.slot.get(id.index() as usize).copied().flatten())
    }

    pub fn add_site(&mut self, cfg: SiteConfig) {
        let id = self.intern_site(&cfg.name);
        assert!(self.slot[id.index() as usize].is_none(), "site {} already exists", cfg.name);
        let mut site = Site::new(&cfg, &self.ca);
        site.set_telemetry(self.telemetry.clone());
        self.slot[id.index() as usize] = Some(self.sites.len());
        self.sites.push(site);
        // Keep `order` sorted by name (the old map's iteration order).
        let pos =
            self.order.partition_point(|&other| self.site_ids.resolve(other) < cfg.name.as_str());
        self.order.insert(pos, id);
    }

    /// Allow `caller` to invoke all operations on `callee`.
    pub fn trust(&mut self, callee: &str, caller: &str) {
        let caller_id = self.site(caller).expect("caller exists").identity().clone();
        let local_user = format!("{caller}_svc");
        let callee_slot = self.site_slot(callee).expect("callee exists");
        self.sites[callee_slot].gridmap.add_full(caller_id, &local_user);
    }

    /// Mutual full trust between every pair of sites: each site joins
    /// one shared VO gridmap that maps every site's DN to `{site}_svc`.
    pub fn trust_all(&mut self) {
        // In name order, so that of two sites sharing a DN the later one's
        // account wins, as granting pair by pair did.
        let members: Vec<(usize, DistinguishedName, String)> = self
            .order
            .iter()
            .map(|&id| {
                let slot = self.slot[id.index() as usize].expect("ordered sites exist");
                let site = &self.sites[slot];
                (slot, site.identity().clone(), format!("{}_svc", site.name))
            })
            .collect();
        let vo = Arc::new(VoGrants::full(members.iter().map(|(_, dn, user)| (dn, user.as_str()))));
        for (slot, dn, user) in &members {
            self.sites[*slot].gridmap.join(&vo, dn, user);
        }
    }

    pub fn set_profile(&mut self, from: &str, to: &str, profile: WanProfile) {
        let (f, t) = (self.intern_site(from), self.intern_site(to));
        self.profiles.insert((f, t), profile);
        self.profiles.insert((t, f), profile);
    }

    pub fn set_default_profile(&mut self, profile: WanProfile) {
        self.default_profile = profile;
    }

    pub fn profile_between(&self, a: &str, b: &str) -> WanProfile {
        match (self.site_ids.try_id(a), self.site_ids.try_id(b)) {
            (Some(ia), Some(ib)) => {
                self.profiles.get(&(ia, ib)).copied().unwrap_or(self.default_profile)
            }
            _ => self.default_profile,
        }
    }

    pub fn site(&self, name: &str) -> Result<&Site> {
        match self.site_slot(name) {
            Some(i) => Ok(&self.sites[i]),
            None => Err(GdmpError::NoSuchSite(name.to_string())),
        }
    }

    pub fn site_mut(&mut self, name: &str) -> Result<&mut Site> {
        match self.site_slot(name) {
            Some(i) => Ok(&mut self.sites[i]),
            None => Err(GdmpError::NoSuchSite(name.to_string())),
        }
    }

    /// Every site name, sorted (export boundary: allocates one `String`
    /// per site; hot paths use [`Grid::site_names_iter`] or
    /// [`Grid::has_site`] instead).
    pub fn site_names(&self) -> Vec<String> {
        self.order.iter().map(|&id| self.site_ids.resolve(id).to_string()).collect()
    }

    /// Iterate site names in sorted order without materializing a list.
    pub fn site_names_iter(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|&id| self.site_ids.resolve(id))
    }

    /// Whether a site with this name exists, allocation-free.
    pub fn has_site(&self, name: &str) -> bool {
        self.site_slot(name).is_some()
    }

    /// Number of sites in the grid.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    // ---- clock -----------------------------------------------------------

    pub fn now(&self) -> SimTime {
        self.clock
    }

    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
        if self.chaos.is_active() {
            self.run_recovery();
        }
        self.tick_federation();
    }

    pub(crate) fn gsi_now(&self) -> u64 {
        self.clock.as_secs_f64() as u64
    }

    // ---- chaos: grid-level fault timeline ---------------------------------

    /// Install a fault timeline (via `Grid::builder(..).fault_schedule`).
    /// Events fire lazily as the grid's clock passes them — `rpc`,
    /// `replicate`, and `advance` all consult the schedule. An empty
    /// schedule is behaviourally inert: no chaos branch is ever taken.
    pub(crate) fn install_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.chaos.set_schedule(schedule);
    }

    /// Inject a fault timeline into a *running* grid, replacing any
    /// previous schedule. Part of the `inject_*` mid-run chaos family
    /// (with [`Grid::inject_fault`] / [`Grid::inject_fault_at`]): use the
    /// builder's `fault_schedule` for timelines known up front, and this
    /// when the event times depend on the experiment's own clock (for
    /// example "sever the link one second after the transfer starts").
    pub fn inject_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.install_fault_schedule(schedule);
    }

    /// The live fault state: what is down, cut, or partitioned right now.
    pub fn chaos_state(&self) -> &ChaosState {
        &self.chaos
    }

    // ---- the federated catalog --------------------------------------------

    /// Turn on the federated catalog over the current site set: one
    /// authoritative LRC per site plus an RLI tree fed by periodic
    /// soft-state updates. Files already in the central catalog are
    /// backfilled into their LRCs. Call after every site is added (the
    /// builder does this in the right order).
    pub fn enable_federation(&mut self, config: FederationConfig) {
        let names: Vec<String> = self.site_names();
        assert!(!names.is_empty(), "enable federation after adding sites");
        let mut fed = FederatedCatalog::new(&names, config);
        for lfn in self.catalog.list().unwrap_or_default() {
            for loc in self.catalog.locate(&lfn).unwrap_or_default() {
                fed.publish(&loc.location, &lfn);
            }
        }
        self.federation = Some(fed);
    }

    /// The federated catalog, when enabled.
    pub fn federation(&self) -> Option<&FederatedCatalog> {
        self.federation.as_ref()
    }

    /// Run every soft-state push round whose boundary the clock has
    /// passed, with losses and RLI crashes answered by the chaos state,
    /// and publish the staleness gauge. No-op with federation off.
    fn tick_federation(&mut self) {
        let now = self.clock;
        let Grid { federation, chaos, telemetry, .. } = self;
        let Some(fed) = federation.as_mut() else { return };
        let mut view = ChaosFaultView { chaos };
        let (delivered, lost) = fed.tick(now, &mut view);
        if delivered > 0 {
            telemetry.counter_add("soft_state_updates", &[("outcome", "delivered")], delivered);
        }
        if lost > 0 {
            telemetry.counter_add("soft_state_updates", &[("outcome", "lost")], lost);
        }
        let staleness = fed.root_staleness_ns(now) as i64;
        telemetry.gauge_set("catalog_staleness", &[], staleness);
        telemetry.series_set("catalog_staleness", &[], now.nanos(), staleness);
    }

    /// Arm the Data Mover's per-source circuit breaker (via
    /// `Grid::builder(..).breaker`).
    pub(crate) fn arm_breaker(&mut self, config: BreakerConfig) {
        self.breaker = CircuitBreaker::new(config);
    }

    // ---- fetch policy & throughput history -------------------------------

    /// How [`Grid::replicate`] fetches files; [`FetchPolicy::SingleSource`]
    /// unless changed.
    pub fn fetch_policy(&self) -> FetchPolicy {
        self.fetch
    }

    /// Switch between single-source and striped multi-source fetching.
    pub fn set_fetch_policy(&mut self, policy: FetchPolicy) {
        self.fetch = policy;
    }

    /// The observed throughput EWMA for the `src -> dst` link, bits/s, if
    /// any transfer has been measured on it.
    pub fn observed_bps(&self, src: &str, dst: &str) -> Option<f64> {
        match (self.site_ids.try_id(src), self.site_ids.try_id(dst)) {
            (Some(s), Some(d)) => self.history.get(&(s, d)).copied(),
            _ => None,
        }
    }

    /// Fold one throughput observation (bits/s) into the per-link EWMA
    /// (`alpha = 0.3`, per Vazhkudai-style history prediction). Multi-source
    /// fetches call this for every completed chunk; callers with external
    /// measurements (e.g. NWS readings) may seed it directly.
    pub fn note_observed_throughput(&mut self, src: &str, dst: &str, bps: f64) -> f64 {
        let key = (self.intern_site(src), self.intern_site(dst));
        let ewma = match self.history.get(&key) {
            Some(prev) => 0.3 * bps + 0.7 * prev,
            None => bps,
        };
        self.history.insert(key, ewma);
        ewma
    }

    /// Liveness-probe `to` from `from`: one Echo RPC. Works against peers
    /// restricted to any operation set ([`gdmp_gsi::gridmap::Operation::Ping`]
    /// is granted to every mapped identity), so reachability checks never
    /// depend on catalog rights.
    pub fn ping(&mut self, from: &str, to: &str) -> Result<()> {
        match self.rpc(from, to, Request::Echo("ping".to_string()))? {
            Response::Echo(_) => Ok(()),
            other => panic!("Echo returned {other:?}"),
        }
    }

    /// Apply every scheduled fault whose time has come. A site crash wipes
    /// that site's volatile state immediately; restart *resyncs* are
    /// deferred to [`Grid::run_recovery`] — they issue RPCs and must not
    /// run re-entrantly under [`Grid::rpc`].
    pub(crate) fn apply_due_faults(&mut self) {
        let fired = self.chaos.apply_until(self.clock);
        if fired.is_empty() {
            return;
        }
        let reg = self.telemetry.clone();
        for ev in fired {
            let kind = match &ev {
                FaultEvent::SiteDown { site } => {
                    if let Some(i) = self.site_slot(site) {
                        self.sites[i].crash();
                    }
                    // The site's LRC crashes with it: the volatile index is
                    // lost, its durable journal survives for replay.
                    if let Some(fed) = self.federation.as_mut() {
                        fed.crash_lrc(site);
                    }
                    "site_down"
                }
                FaultEvent::SiteUp { site } => {
                    // LRC restart replays the journal (PR 3-style durable
                    // log); site-level catalog resync still runs through
                    // `run_recovery` as before.
                    if let Some(fed) = self.federation.as_mut() {
                        fed.recover_lrc(site);
                    }
                    "site_up"
                }
                FaultEvent::LinkDown { .. } => "link_down",
                FaultEvent::LinkUp { .. } => "link_up",
                FaultEvent::Partition { .. } => "partition",
                FaultEvent::Heal => "heal",
                FaultEvent::RpcDrop { .. } => "rpc_drop",
                FaultEvent::RliDown { .. } => "rli_down",
                FaultEvent::RliUp { .. } => "rli_up",
                FaultEvent::CatalogDelay { .. } => "catalog_delay",
                FaultEvent::UpdateLoss { .. } => "update_loss",
            };
            reg.counter_add("chaos_events", &[("kind", kind)], 1);
            reg.record(self.clock.nanos(), "chaos_event", format!("{ev:?}"));
        }
    }

    /// Drive failure recovery forward: replay journaled notifications whose
    /// subscribers are reachable again (the paper's Request Manager sends
    /// queued messages "as soon as the GDMP server is up again"), and
    /// resync restarted sites — `GetCatalog` from each producer they
    /// subscribe to, re-enqueueing files missing locally. Runs to a bounded
    /// fixed point because replays and resyncs advance the clock, which can
    /// fire further scheduled faults. Called automatically from
    /// [`Grid::advance`] while chaos is active; harmless to call directly.
    /// Returns the number of recovery actions performed.
    pub fn run_recovery(&mut self) -> usize {
        if !self.chaos.is_active() {
            return 0;
        }
        let reg = self.telemetry.clone();
        let mut actions = 0usize;
        for _ in 0..4 {
            self.apply_due_faults();
            let mut progressed = false;

            // 1. Replay journaled notifications, in sorted site order. Ids
            // iterate with one refcount bump per producer name instead of
            // the old per-pass `Vec<String>` clone of every site name.
            let order = self.order.clone();
            for &pid in &order {
                let slot = self.slot[pid.index() as usize].expect("ordered sites exist");
                let producer = self.site_ids.resolve_arc(pid);
                if self.chaos.is_down(&producer) || self.sites[slot].journal.is_empty() {
                    continue;
                }
                let journal = std::mem::take(&mut self.sites[slot].journal);
                let mut kept: Vec<(String, FileNotice)> = Vec::new();
                let mut subscribers: Vec<String> = Vec::new();
                for (sub, _) in &journal {
                    if !subscribers.contains(sub) {
                        subscribers.push(sub.clone());
                    }
                }
                for sub in subscribers {
                    let notices: Vec<FileNotice> =
                        journal.iter().filter(|(s, _)| *s == sub).map(|(_, n)| n.clone()).collect();
                    if !self.chaos.can_rpc(&producer, &sub) {
                        kept.extend(notices.into_iter().map(|n| (sub.clone(), n)));
                        continue;
                    }
                    let count = notices.len();
                    match self.rpc(&producer, &sub, Request::Notify { notices: notices.clone() }) {
                        Ok(_) => {
                            actions += count;
                            progressed = true;
                            reg.counter_add(
                                "notices_replayed",
                                &[("site", &producer)],
                                count as u64,
                            );
                            reg.record(
                                self.clock.nanos(),
                                "journal_replayed",
                                format!("{producer} -> {sub}: {count} notices"),
                            );
                        }
                        Err(_) => {
                            // Still unreachable (or a fault fired mid-call):
                            // keep the entries journaled for the next pass.
                            kept.extend(notices.into_iter().map(|n| (sub.clone(), n)));
                        }
                    }
                }
                let slot = self.slot[pid.index() as usize].expect("ordered sites exist");
                self.sites[slot].journal = kept;
            }

            // 2. Resync restarted sites against their producers.
            for site in self.chaos.take_pending_restarts() {
                if self.chaos.is_down(&site) {
                    // Crashed again before resync ran; the next SiteUp
                    // re-queues it.
                    continue;
                }
                let producers: Vec<String> = match self.site(&site) {
                    Ok(s) => s.subscriptions.iter().cloned().collect(),
                    Err(_) => continue,
                };
                let mut fully_synced = true;
                for producer in producers {
                    if !self.chaos.can_rpc(&site, &producer) {
                        fully_synced = false;
                        continue;
                    }
                    match self.recover_catalog(&site, &producer) {
                        Ok(n) => {
                            actions += 1;
                            progressed = true;
                            if n > 0 {
                                reg.counter_add(
                                    "resync_repairs",
                                    &[("site", site.as_str())],
                                    n as u64,
                                );
                                reg.record(
                                    self.clock.nanos(),
                                    "resync",
                                    format!("{site}: {n} files re-enqueued from {producer}"),
                                );
                            }
                        }
                        Err(e) if e.is_retryable() => fully_synced = false,
                        Err(_) => {}
                    }
                }
                if !fully_synced {
                    self.chaos.defer_restart(site);
                }
            }

            if !progressed {
                break;
            }
        }
        actions
    }

    // ---- request manager (authenticated RPC) ------------------------------

    /// Issue one authenticated, authorized RPC from `from` to `to`,
    /// charging a control round trip plus any server-side storage latency.
    pub fn rpc(&mut self, from: &str, to: &str, req: Request) -> Result<Response> {
        let Some(from_slot) = self.site_slot(from) else {
            return Err(GdmpError::NoSuchSite(from.to_string()));
        };
        let Some(to_slot) = self.site_slot(to) else {
            return Err(GdmpError::NoSuchSite(to.to_string()));
        };
        if self.chaos.is_active() {
            self.apply_due_faults();
            let failure = if !self.chaos.can_rpc(from, to) {
                Some(if self.chaos.is_down(to) {
                    ("site_down", GdmpError::SiteUnreachable(to.to_string()))
                } else if self.chaos.is_down(from) {
                    ("site_down", GdmpError::SiteUnreachable(from.to_string()))
                } else {
                    (
                        "link_down",
                        GdmpError::LinkDown { from: from.to_string(), to: to.to_string() },
                    )
                })
            } else if self.chaos.should_drop_rpc(from, to) {
                Some((
                    "dropped",
                    GdmpError::LinkDown { from: from.to_string(), to: to.to_string() },
                ))
            } else {
                None
            };
            if let Some((reason, e)) = failure {
                // The caller pays the timeout: one control round trip spent
                // learning that nobody answers.
                self.clock += self.profile_between(from, to).rtt();
                self.rpc_count += 1;
                let reg = self.telemetry.clone();
                reg.counter_add("rpc_failures", &[("kind", req.kind()), ("reason", reason)], 1);
                reg.record(
                    self.clock.nanos(),
                    "rpc_failed",
                    format!("{from} -> {to} {}: {e}", req.kind()),
                );
                return Err(e);
            }
        }
        // Mutual authentication between the two site credentials. Each
        // chain is validated in full once per CA key and validity window
        // (the site's memo); every RPC runs both challenge legs under its
        // own nonce.
        self.nonce_counter += 1;
        let nonce = self.nonce_counter;
        let (ca_public, now) = (self.ca.public_key(), self.gsi_now());
        let (caller, callee) = (&self.sites[from_slot], &self.sites[to_slot]);
        if caller.verified_at(ca_public, now) && callee.verified_at(ca_public, now) {
            challenge_legs(caller.credential(), callee.credential(), nonce)?;
        } else {
            SecurityContext::establish(
                caller.credential(),
                callee.credential(),
                ca_public,
                now,
                nonce,
            )?;
            self.sites[from_slot].mark_verified(ca_public);
            self.sites[to_slot].mark_verified(ca_public);
        }
        // One control round trip on the WAN.
        let reg = self.telemetry.clone();
        let span = reg.span_start("rpc", self.clock.nanos());
        reg.span_note(span, "from", from);
        reg.span_note(span, "to", to);
        reg.span_note(span, "kind", req.kind());
        reg.counter_add("rpc_total", &[("kind", req.kind())], 1);
        let rtt = self.profile_between(from, to).rtt();
        self.clock += rtt;
        self.rpc_count += 1;
        // The callee authorizes the identity the handshake authenticated:
        // the caller's end-entity subject.
        let result = if from_slot == to_slot {
            let site = &mut self.sites[to_slot];
            let peer = site.identity().clone();
            site.handle(&peer, req)
        } else {
            let (low, high) = self.sites.split_at_mut(from_slot.max(to_slot));
            let (caller, callee) = if from_slot < to_slot {
                (&low[from_slot], &mut high[0])
            } else {
                (&high[0], &mut low[to_slot])
            };
            callee.handle(caller.identity(), req)
        };
        let (resp, latency) = match result {
            Ok(pair) => pair,
            Err(e) => {
                reg.span_note(span, "error", e.to_string());
                reg.span_end(span, self.clock.nanos());
                return Err(e);
            }
        };
        self.clock += latency;
        reg.span_end(span, self.clock.nanos());
        Ok(resp)
    }

    /// Subscribe `subscriber` to `producer`'s publications (Section 4.1).
    pub fn subscribe(&mut self, subscriber: &str, producer: &str) -> Result<()> {
        let req = Request::Subscribe { subscriber: subscriber.to_string() };
        match self.rpc(subscriber, producer, req)? {
            Response::Ok => {
                // Remember the reverse edge: restart resync needs to know
                // whose catalogs this site should re-fetch.
                self.site_mut(subscriber)?.subscriptions.insert(producer.to_string());
                Ok(())
            }
            other => panic!("subscribe returned {other:?}"),
        }
    }

    // ---- federated lookup --------------------------------------------------

    /// Locate every confirmed replica of `lfn`, as seen from `from`.
    ///
    /// With federation off this is a central-catalog query. With it on,
    /// the lookup walks the degradation ladder — own LRC, RLI hints
    /// (each *confirmed* at the owning LRC before it counts), a bounded
    /// fan-out query when hints miss, and direct LRC scatter when the
    /// index cannot speak for part of the grid. Confirm RPCs pay real
    /// round trips, feed the circuit breaker, and serve backoff via the
    /// installed [`RecoveryStrategy`]. Every returned holder is verified
    /// against authoritative LRC state: slower under faults, never wrong.
    pub fn lookup_replicas(&mut self, from: &str, lfn: &str) -> Result<LookupResult> {
        if !self.has_site(from) {
            return Err(GdmpError::NoSuchSite(from.to_string()));
        }
        if self.federation.is_none() {
            let holders: Vec<String> = self
                .catalog
                .locate(lfn)
                .map_err(|_| GdmpError::NotPublished(lfn.to_string()))?
                .into_iter()
                .map(|l| l.location)
                .collect();
            if holders.is_empty() {
                return Err(GdmpError::NotPublished(lfn.to_string()));
            }
            return Ok(LookupResult {
                lfn: lfn.to_string(),
                holders,
                via: LookupVia::Central,
                confirms: 0,
                false_positives: 0,
                unreachable: 0,
                degraded: false,
                staleness_ns: 0,
            });
        }
        if self.chaos.is_active() {
            self.apply_due_faults();
        }
        // Catch the index up to the clock before consulting it.
        self.tick_federation();
        let reg = self.telemetry.clone();
        reg.counter_add("lrc_lookups", &[("site", from)], 1);
        let span = reg.span_start("lookup", self.clock.nanos());
        reg.span_note(span, "lfn", lfn);
        reg.span_note(span, "from", from);
        let result = self.lookup_ladder(from, lfn, &reg);
        match &result {
            Ok(r) => {
                reg.span_note(span, "via", r.via.label());
                reg.span_note(span, "holders", r.holders.len() as u64);
                reg.span_note(span, "confirms", u64::from(r.confirms));
                if r.staleness_ns > 0 {
                    reg.span_note(span, "staleness_ns", r.staleness_ns);
                }
                reg.counter_add("catalog_lookups", &[("via", r.via.label())], 1);
            }
            Err(e) => {
                reg.span_note(span, "error", e.to_string());
                reg.counter_add("catalog_lookups", &[("via", "failed")], 1);
            }
        }
        reg.span_end(span, self.clock.nanos());
        result
    }

    /// The ladder body of [`Grid::lookup_replicas`] (federation on). Runs
    /// in the federation's interned-id space: probe bookkeeping is `Copy`
    /// ids, and holder names materialize only into the returned result.
    fn lookup_ladder(&mut self, from: &str, lfn: &str, reg: &Registry) -> Result<LookupResult> {
        let now = self.clock;
        let (plan, names, from_id, fanout, total_sites) = {
            let Grid { federation, chaos, .. } = self;
            let fed = federation.as_ref().expect("caller checked federation");
            let view = ChaosFaultView { chaos };
            let plan: LookupPlan = fed.plan_lookup(lfn, now, &view);
            (
                plan,
                fed.name_table(),
                fed.try_site_id(from),
                fed.config().fallback_fanout,
                fed.site_count() as u32,
            )
        };
        let mut result = LookupResult {
            lfn: lfn.to_string(),
            holders: Vec::new(),
            via: LookupVia::Rli,
            confirms: 0,
            false_positives: 0,
            unreachable: 0,
            degraded: plan.degraded,
            staleness_ns: plan.staleness_ns,
        };
        let mut ladder = Ladder {
            from,
            lfn,
            names,
            probed: std::collections::BTreeSet::new(),
            first_unreachable: None,
        };

        // Rung 0: the requester's own LRC, authoritative and free.
        if let Some(id) = from_id {
            ladder.probed.insert(id);
        }
        if self.federation.as_ref().expect("checked").lrc_holds(from, lfn) {
            result.holders.push(from.to_string());
            result.via = LookupVia::Local;
            self.federation.as_mut().expect("checked").audit_answer(lfn, &result.holders);
            return Ok(result);
        }

        // Rung 1: RLI hints, each confirmed at the owning LRC. A denial
        // from a *reachable* LRC is a bloom false positive / stale entry.
        self.probe_rung(&mut ladder, plan.hints.iter().copied(), true, &mut result, reg);
        if !result.holders.is_empty() {
            result.via = LookupVia::Rli;
            reg.counter_add("rli_hits", &[], result.holders.len() as u64);
            self.federation.as_mut().expect("checked").audit_answer(lfn, &result.holders);
            return Ok(result);
        }

        // Rung 2 (degraded): the index is blind to dead subtrees — ask
        // those LRCs directly.
        self.probe_rung(&mut ladder, plan.scatter.iter().copied(), false, &mut result, reg);
        if !result.holders.is_empty() {
            result.via = LookupVia::Scatter;
            self.federation.as_mut().expect("checked").audit_answer(lfn, &result.holders);
            return Ok(result);
        }

        // Rung 3: bounded fan-out over sites nothing has asked yet (bloom
        // false negatives are impossible, but lost/expired summaries make
        // the index forget). Federation ids walk sites in sorted name
        // order, so id iteration replaces the old full name-list clone.
        let fallback: Vec<SiteId> = (0..total_sites)
            .map(SiteId)
            .filter(|id| !ladder.probed.contains(id))
            .take(fanout)
            .collect();
        if !fallback.is_empty() {
            reg.counter_add("lookup_fallbacks", &[], 1);
            self.probe_rung(&mut ladder, fallback, false, &mut result, reg);
        }
        if !result.holders.is_empty() {
            result.via = LookupVia::Fallback;
            self.federation.as_mut().expect("checked").audit_answer(lfn, &result.holders);
            return Ok(result);
        }

        // Rung 4: full LRC scatter — the slowest honest answer there is.
        self.probe_rung(&mut ladder, (0..total_sites).map(SiteId), false, &mut result, reg);
        self.federation.as_mut().expect("checked").audit_answer(lfn, &result.holders);
        if !result.holders.is_empty() {
            result.via = LookupVia::Scatter;
            return Ok(result);
        }
        match ladder.first_unreachable {
            // Some holder may be hiding behind an unreachable LRC: a
            // retryable miss, not a verdict.
            Some(site_id) => {
                Err(GdmpError::SiteUnreachable(ladder.names.resolve_sym(site_id).to_string()))
            }
            None => Err(GdmpError::NotPublished(lfn.to_string())),
        }
    }

    /// One rung of [`Grid::lookup_ladder`]: confirm the file at each site
    /// of `rung` not probed yet, in order, and sort each answer into a
    /// holder, a false positive (counted on the RLI-hint rung only) or an
    /// LRC that never answered.
    fn probe_rung(
        &mut self,
        ladder: &mut Ladder<'_>,
        rung: impl IntoIterator<Item = SiteId>,
        hints: bool,
        result: &mut LookupResult,
        reg: &Registry,
    ) {
        for site_id in rung {
            if !ladder.probed.insert(site_id) {
                continue;
            }
            let site = ladder.names.resolve_sym(site_id);
            match self.confirm_at(ladder.from, site, ladder.lfn, result, reg) {
                Some(true) => result.holders.push(site.to_string()),
                Some(false) if hints => {
                    result.false_positives += 1;
                    reg.counter_add("rli_false_positives", &[], 1);
                }
                Some(false) => {}
                None => {
                    ladder.first_unreachable.get_or_insert(site_id);
                }
            }
        }
    }

    /// Confirm whether `site`'s LRC holds `lfn`, as one authenticated RPC
    /// from `from` with the full retry hygiene: breaker skip, one
    /// backoff-served retry on a retryable failure, chaos-injected
    /// catalog latency. `Some(holds)` on an answer, `None` if the LRC
    /// never answered.
    fn confirm_at(
        &mut self,
        from: &str,
        site: &str,
        lfn: &str,
        result: &mut LookupResult,
        reg: &Registry,
    ) -> Option<bool> {
        if site == from {
            return Some(self.federation.as_ref().expect("checked").lrc_holds(site, lfn));
        }
        if self.breaker.is_open(site, self.clock) {
            reg.counter_add("breaker_skips", &[], 1);
            result.unreachable += 1;
            return None;
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            result.confirms += 1;
            match self.ping(from, site) {
                Ok(()) => {
                    self.breaker.record_success(site);
                    // An overloaded LDAP server answers late: the chaos
                    // schedule's CatalogDelay charges the requester.
                    let extra = self.chaos.catalog_delay(site);
                    if extra > SimDuration::ZERO {
                        self.clock += extra;
                        reg.counter_add("catalog_delays_served", &[("site", site)], 1);
                    }
                    return Some(self.federation.as_ref().expect("checked").lrc_holds(site, lfn));
                }
                Err(e) if e.is_retryable() => {
                    let ctx = FailureCtx {
                        attempts_on_source: attempts,
                        attempts_total: attempts,
                        sources_tried: 1,
                        sources_remaining: 0,
                        kind: FailureKind::Unreachable,
                    };
                    let (action, wait) = self.handle_failure(site, self.clock, &ctx, reg);
                    self.clock += wait;
                    if action == RecoveryAction::RetrySameSource && attempts < 2 {
                        continue;
                    }
                    result.unreachable += 1;
                    return None;
                }
                Err(_) => {
                    result.unreachable += 1;
                    return None;
                }
            }
        }
    }

    // ---- publication -------------------------------------------------------

    /// Publish a file: store it locally (disk + tape), register it in the
    /// replica catalog, and notify all subscribers.
    pub fn publish_file(
        &mut self,
        site_name: &str,
        lfn: &str,
        data: Bytes,
        file_type: &str,
    ) -> Result<FileMeta> {
        let reg = self.telemetry.clone();
        let span = reg.span_start("publish", self.clock.nanos());
        reg.span_note(span, "site", site_name);
        reg.span_note(span, "lfn", lfn);
        reg.span_note(span, "bytes", data.len() as u64);
        let meta = FileMeta {
            size: data.len() as u64,
            modified: self.gsi_now(),
            crc32: crc32(&data),
            file_type: file_type.to_string(),
        };
        let result = (|| {
            let url_prefix = {
                let site = self.site_mut(site_name)?;
                site.storage.store(lfn, data, true)?;
                site.url_prefix.clone()
            };
            self.catalog.publish(Some(lfn), site_name, &url_prefix, &meta)?;
            // The publishing site's LRC is the authoritative federation
            // record; soft state flows to the RLI tree on the next rounds.
            if let Some(fed) = self.federation.as_mut() {
                fed.publish(site_name, lfn);
            }
            let notice = FileNotice {
                lfn: lfn.to_string(),
                meta: meta.clone(),
                origin: site_name.to_string(),
            };
            self.site_mut(site_name)?.export_catalog.push(notice.clone());
            // Notify every subscriber (one RPC each).
            let subscribers: Vec<String> =
                self.site(site_name)?.subscribers.iter().cloned().collect();
            reg.span_note(span, "subscribers", subscribers.len() as u64);
            for sub in subscribers {
                let req = Request::Notify { notices: vec![notice.clone()] };
                match self.rpc(site_name, &sub, req) {
                    Ok(_) => {}
                    Err(e) if e.is_retryable() => {
                        // The paper's Request Manager: queue the message for
                        // the unreachable subscriber and send it on recovery.
                        reg.counter_add("notices_journaled", &[("site", site_name)], 1);
                        reg.record(
                            self.clock.nanos(),
                            "notice_journaled",
                            format!("{lfn} for {sub}: {e}"),
                        );
                        self.site_mut(site_name)?.journal.push((sub, notice.clone()));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(meta)
        })();
        if result.is_ok() {
            reg.counter_add("files_published", &[("site", site_name)], 1);
        }
        reg.span_end(span, self.clock.nanos());
        result
    }

    /// Publish an Objectivity database file straight out of the site's
    /// federation, recording its objects in the global object view.
    pub fn publish_database(&mut self, site_name: &str, file_name: &str) -> Result<FileMeta> {
        let (image, objects) = {
            let site = self.site(site_name)?;
            let image = site.federation.export(file_name)?;
            let objects: Vec<_> = site
                .federation
                .file(file_name)
                .expect("export succeeded")
                .iter()
                .map(|(_, o)| o.logical)
                .collect();
            (image, objects)
        };
        self.object_view.record_file(file_name, &objects);
        self.publish_file(site_name, file_name, image, "objectivity")
    }

    /// Drain the destination's import queue, replicating every notified
    /// file not yet held locally.
    pub fn replicate_pending(&mut self, dst: &str) -> Result<Vec<ReplicationReport>> {
        let mut pending: Vec<FileNotice> = self.site(dst)?.import_queue.clone();
        let dst_id = self.intern_site(dst);
        // Files deferred by an earlier pass sort by their backoff deadline;
        // never-deferred files carry deadline zero and keep FIFO order up
        // front (the sort is stable). A file serving a long backoff thus
        // cannot head-of-line-block fresh work behind it. The sort key is
        // an id-pair probe — no per-notice key allocation.
        pending.sort_by_key(|notice| {
            self.lfns
                .try_id(&notice.lfn)
                .and_then(|lfn| self.defer_state.get(&(dst_id, lfn)))
                .map(|&(deadline, _)| deadline)
                .unwrap_or(SimTime::ZERO)
        });
        let reg = self.telemetry.clone();
        let span = reg.span_start("replicate_pending", self.clock.nanos());
        reg.span_note(span, "dst", dst);
        reg.span_note(span, "pending", pending.len() as u64);
        let mut out = Vec::new();
        let mut deferred: u64 = 0;
        for notice in pending {
            match self.replicate(dst, &notice.lfn) {
                Ok(r) => {
                    self.clear_defer(dst_id, &notice.lfn);
                    out.push(r);
                }
                Err(GdmpError::AlreadyReplicated { .. }) => {
                    self.clear_defer(dst_id, &notice.lfn);
                    self.site_mut(dst)?.import_queue.retain(|n| n.lfn != notice.lfn);
                }
                Err(e) if e.is_retryable() => {
                    // A down source or severed link fails one file, not the
                    // whole drain: the notice stays queued for a later pass,
                    // behind an exponentially growing backoff deadline.
                    deferred += 1;
                    let lfn = self.lfns.intern(&notice.lfn);
                    let entry = self.defer_state.entry((dst_id, lfn)).or_insert((SimTime::ZERO, 0));
                    entry.1 = entry.1.saturating_add(1);
                    let backoff_ns = SimDuration::from_millis(500)
                        .nanos()
                        .saturating_mul(1 << u64::from((entry.1 - 1).min(6)))
                        .min(SimDuration::from_secs(30).nanos());
                    entry.0 = self.clock + SimDuration::from_nanos(backoff_ns);
                    reg.counter_add("replications_deferred", &[("dst", dst)], 1);
                    reg.record(
                        self.clock.nanos(),
                        "replication_deferred",
                        format!("{} -> {dst}: {e}", notice.lfn),
                    );
                }
                Err(e) => {
                    reg.span_end(span, self.clock.nanos());
                    return Err(e);
                }
            }
        }
        if deferred > 0 {
            reg.span_note(span, "deferred", deferred);
        }
        reg.span_note(span, "replicated", out.len() as u64);
        reg.span_end(span, self.clock.nanos());
        Ok(out)
    }

    /// Drop the defer-backoff entry for `(dst, lfn)`, if any. A never-
    /// deferred lfn may not be interned; that means no entry either.
    fn clear_defer(&mut self, dst: SiteId, lfn: &str) {
        if let Some(lfn) = self.lfns.try_id(lfn) {
            self.defer_state.remove(&(dst, lfn));
        }
    }

    /// Failure recovery (Section 4.1): fetch a remote site's catalog and
    /// enqueue everything we miss.
    pub fn recover_catalog(&mut self, dst: &str, from: &str) -> Result<usize> {
        let reg = self.telemetry.clone();
        let span = reg.span_start("recover_catalog", self.clock.nanos());
        reg.span_note(span, "dst", dst);
        reg.span_note(span, "from", from);
        let files = match self.rpc(dst, from, Request::GetCatalog) {
            Ok(Response::Catalog { files }) => files,
            Ok(other) => panic!("GetCatalog returned {other:?}"),
            Err(e) => {
                reg.span_end(span, self.clock.nanos());
                return Err(e);
            }
        };
        let mut added = 0;
        let dst_holdings = self.catalog.site_files(dst).unwrap_or_default();
        let site = self.site_mut(dst)?;
        for notice in files {
            let already_queued = site.import_queue.iter().any(|n| n.lfn == notice.lfn);
            if !dst_holdings.contains(&notice.lfn) && !already_queued {
                site.import_queue.push(notice);
                added += 1;
            }
        }
        reg.span_note(span, "enqueued", added as u64);
        reg.counter_add("catalog_recoveries", &[("dst", dst)], 1);
        reg.span_end(span, self.clock.nanos());
        Ok(added)
    }
}
