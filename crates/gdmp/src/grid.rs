//! The assembled grid: sites, the central replica catalog, WAN profiles,
//! trust, the logical clock, and the state the GDMP components share.
//! [`Grid`] plays the network between GDMP servers (Figure 3); its
//! behaviour lives with the Figure 4 component that owns it: the Request
//! Manager (`rpc.rs`), the federated catalog (`lookup.rs`), publish and
//! replica registration (`publish.rs`), the Data Mover (`mover.rs`) and
//! object replication ([`crate::objrep`]).

use std::collections::HashMap;
use std::sync::Arc;

use gdmp_gridftp::sim::{SessionCache, WanProfile};
use gdmp_gsi::cert::CertificateAuthority;
use gdmp_gsi::gridmap::VoGrants;
use gdmp_gsi::name::DistinguishedName;
use gdmp_intern::{Lfn, SiteId, Symbol, SymbolTable};
use gdmp_objectstore::ObjectFileCatalog;
use gdmp_replica_catalog::federation::FederatedCatalog;
use gdmp_replica_catalog::service::ReplicaCatalogService;
use gdmp_simnet::time::{SimDuration, SimTime};
use gdmp_telemetry::Registry;

use crate::chaos::{ChaosState, FaultSchedule};
use crate::error::{GdmpError, Result};
use crate::failure::FaultState;
use crate::recovery::{CircuitBreaker, RecoveryStrategy, SimpleRetry};
use crate::schedule::FetchPolicy;
use crate::site::{Site, SiteConfig};

/// GridFTP parameters the Data Mover uses for every transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Parallel TCP streams.
    pub streams: u32,
    /// Socket buffer in bytes.
    pub buffer: u64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        // The paper's findings: a few tuned streams are close to optimal.
        TransferConfig { streams: 4, buffer: 1024 * 1024 }
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
    pub(crate) slot: Vec<Option<usize>>,
    /// Site ids sorted by name — the iteration order the old name-keyed
    /// map gave, so clocks and serialized output stay byte-identical.
    pub(crate) order: Vec<SiteId>,
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
    /// Pluggable error recovery; `SimpleRetry { max_attempts: 5 }` unless
    /// the builder installs another strategy.
    pub(crate) recovery: Box<dyn RecoveryStrategy>,
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
    pub(crate) defer_state: HashMap<(SiteId, Lfn), (SimTime, u32)>,
    pub reports: Vec<ReplicationReport>,
    pub(crate) nonce_counter: u64,
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
            recovery: Box::new(SimpleRetry { max_attempts: 5 }),
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
    /// (and their storage), via `Grid::builder(..).telemetry()` or
    /// `.telemetry_sink(reg)`.
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

    /// Inject a fault timeline into a *running* grid, replacing any
    /// previous schedule. Events fire lazily as the clock passes them (every
    /// RPC, transfer and `advance` consults the schedule); an empty one is
    /// inert. Part of the `inject_*` mid-run chaos family
    /// (with [`Grid::inject_fault`] / [`Grid::inject_fault_at`]): use the
    /// builder's `fault_schedule` for timelines known up front, and this
    /// when the event times depend on the experiment's own clock (for
    /// example "sever the link one second after the transfer starts").
    pub fn inject_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.chaos.set_schedule(schedule);
    }

    /// The live fault state: what is down, cut, or partitioned right now.
    pub fn chaos_state(&self) -> &ChaosState {
        &self.chaos
    }

    /// The federated catalog, when enabled.
    pub fn federation(&self) -> Option<&FederatedCatalog> {
        self.federation.as_ref()
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
}
