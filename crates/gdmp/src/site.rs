//! A GDMP site: server state, storage, federation, and request handlers.

use std::collections::BTreeSet;

use gdmp_gsi::cert::{CertificateAuthority, KeyPair};
use gdmp_gsi::gridmap::{GridMap, Operation};
use gdmp_gsi::name::DistinguishedName;
use gdmp_gsi::proxy::CredentialChain;
use gdmp_gsi::GsiTime;
use gdmp_mass_storage::backend::StorageConfig;
use gdmp_mass_storage::hrm::HierarchicalStorage;
use gdmp_mass_storage::pool::EvictionPolicy;
use gdmp_objectstore::{Federation, TagCatalog};
use gdmp_simnet::time::SimDuration;
use gdmp_telemetry::Registry;

use crate::error::{GdmpError, Result};
use crate::message::{FileNotice, Request, Response};
use crate::plugins::PluginRegistry;

/// Static configuration of one site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Short site name (`cern`, `anl`, ...), used everywhere as the id.
    pub name: String,
    /// DNS-ish organization, for the host certificate DN.
    pub org: String,
    /// Disk pool capacity in bytes; the pool evicts least recently used
    /// files first.
    pub pool_capacity: u64,
    /// Archive tier behind the pool (tape library, disk array, object
    /// store); see [`StorageConfig`].
    pub storage: StorageConfig,
    /// Key seed (deterministic certificates).
    pub key_seed: u64,
}

impl SiteConfig {
    /// A roomy default site: 10 GB pool, classic tape library.
    pub fn named(name: &str, org: &str, key_seed: u64) -> Self {
        SiteConfig {
            name: name.to_string(),
            org: org.to_string(),
            pool_capacity: 10 * 1024 * 1024 * 1024,
            storage: StorageConfig::classic_tape(),
            key_seed,
        }
    }

    pub fn with_pool(mut self, bytes: u64) -> Self {
        self.pool_capacity = bytes;
        self
    }

    /// Select the archive medium behind this site's disk pool.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }
}

/// One site's complete server state.
pub struct Site {
    pub name: String,
    /// Physical URL prefix registered in the replica catalog.
    pub url_prefix: String,
    pub federation: Federation,
    pub storage: HierarchicalStorage,
    pub gridmap: GridMap,
    credential: CredentialChain,
    /// `(ca_public, not_before, not_after)`: the CA key under which
    /// `credential`'s chain last passed a full handshake, and the chain's
    /// validity window. Volatile: a crash drops it, and so does replacing
    /// the credential.
    verified: Option<(u64, GsiTime, GsiTime)>,
    /// Sites subscribed to this site's publications.
    pub subscribers: BTreeSet<String>,
    /// Producer sites this site subscribes to (the reverse edge), used by
    /// the restart resync protocol to know whose catalogs to re-fetch.
    /// Durable: survives a crash like the gridmap does.
    pub subscriptions: BTreeSet<String>,
    /// Notifications received and not yet acted upon (import catalog).
    /// Volatile server memory: lost on a crash, rebuilt by resync.
    pub import_queue: Vec<FileNotice>,
    /// Durable journal of notifications that could not be delivered
    /// (`(subscriber, notice)`), replayed when the subscriber is reachable
    /// again — the paper's Request Manager queues messages for failed
    /// sites and sends them on recovery.
    pub journal: Vec<(String, FileNotice)>,
    /// Everything this site has published or replicated (export catalog) —
    /// what `GetCatalog` returns for failure recovery.
    pub export_catalog: Vec<FileNotice>,
    /// Local physics selections.
    pub tags: TagCatalog,
    pub plugins: PluginRegistry,
    /// Telemetry sink (disabled by default; shared with `storage`).
    pub telemetry: Registry,
}

impl Site {
    /// Build a site and its host credential, signed by the grid CA, with
    /// telemetry disabled until [`Site::set_telemetry`].
    pub fn new(cfg: &SiteConfig, ca: &CertificateAuthority) -> Site {
        let keys = KeyPair::from_seed(cfg.key_seed);
        let dn = DistinguishedName::host(&cfg.org, &format!("gdmp.{}", cfg.org));
        let cert = ca.issue(dn, keys.public, 0, u64::MAX / 2);
        let storage =
            HierarchicalStorage::with_config(cfg.pool_capacity, EvictionPolicy::Lru, &cfg.storage);
        Site {
            name: cfg.name.clone(),
            url_prefix: format!("gsiftp://gdmp.{}/data", cfg.org),
            federation: Federation::new(&cfg.name),
            storage,
            gridmap: GridMap::new(),
            credential: CredentialChain::end_entity(cert, keys),
            verified: None,
            subscribers: BTreeSet::new(),
            subscriptions: BTreeSet::new(),
            import_queue: Vec::new(),
            journal: Vec::new(),
            export_catalog: Vec::new(),
            tags: TagCatalog::new(),
            plugins: PluginRegistry::new(),
            telemetry: Registry::default(),
        }
    }

    /// Attach (or replace) the telemetry registry after construction,
    /// propagating it to the storage layer.
    pub fn set_telemetry(&mut self, reg: Registry) {
        self.storage.set_telemetry(reg.clone());
        self.telemetry = reg;
    }

    /// The grid identity of this site's server.
    pub fn identity(&self) -> &DistinguishedName {
        self.credential.identity()
    }

    /// The credential this site's server authenticates with.
    pub fn credential(&self) -> &CredentialChain {
        &self.credential
    }

    /// Install a new credential (a renewed proxy, say). Its chain is
    /// validated in full on the site's next RPC.
    pub fn set_credential(&mut self, credential: CredentialChain) {
        self.credential = credential;
        self.verified = None;
    }

    /// Whether the credential's chain passed a full handshake under
    /// `ca_public` and `now` lies inside its validity window.
    pub(crate) fn verified_at(&self, ca_public: u64, now: GsiTime) -> bool {
        self.verified.is_some_and(|(ca, from, to)| ca == ca_public && from <= now && now <= to)
    }

    /// Record that the credential's chain just passed a full handshake
    /// under `ca_public`.
    pub(crate) fn mark_verified(&mut self, ca_public: u64) {
        let (from, to) = self.credential.validity_window();
        self.verified = Some((ca_public, from, to));
    }

    /// Crash the server process. Volatile state — the import queue, any
    /// transfer pins and the credential memo — is lost; disk, tape, the
    /// export catalog, subscriptions, and the journal survive, the way
    /// durable on-disk state survives a real crash. Restart recovery
    /// rebuilds the rest.
    pub fn crash(&mut self) {
        self.import_queue.clear();
        self.verified = None;
        self.storage.pool.clear_pins();
        self.telemetry.gauge_set("site_import_queue_depth", &[("site", &self.name)], 0);
    }

    /// Authorize a peer for a gridmap operation.
    pub fn authorize(&self, peer: &DistinguishedName, op: Operation) -> Result<()> {
        self.gridmap.authorize(peer, op).map(|_| ()).map_err(GdmpError::Authorization)
    }

    /// Serve one authenticated, authorized request. Returns the response
    /// and any storage latency incurred (the caller charges the clock).
    pub fn handle(
        &mut self,
        peer: &DistinguishedName,
        req: Request,
    ) -> Result<(Response, SimDuration)> {
        self.authorize(peer, req.required_operation())?;
        match req {
            Request::Subscribe { subscriber } => {
                self.subscribers.insert(subscriber);
                Ok((Response::Ok, SimDuration::ZERO))
            }
            Request::Unsubscribe { subscriber } => {
                self.subscribers.remove(&subscriber);
                Ok((Response::Ok, SimDuration::ZERO))
            }
            Request::Notify { notices } => {
                self.telemetry.counter_add(
                    "site_notices_received",
                    &[("site", &self.name)],
                    notices.len() as u64,
                );
                // Journal replays and resyncs can redeliver a notice the
                // queue already holds; keep the import catalog duplicate-free.
                for n in notices {
                    if !self.import_queue.iter().any(|q| q.lfn == n.lfn) {
                        self.import_queue.push(n);
                    }
                }
                self.telemetry.gauge_set(
                    "site_import_queue_depth",
                    &[("site", &self.name)],
                    self.import_queue.len() as i64,
                );
                Ok((Response::Ok, SimDuration::ZERO))
            }
            Request::GetCatalog => {
                Ok((Response::Catalog { files: self.export_catalog.clone() }, SimDuration::ZERO))
            }
            Request::PrepareFile { lfn } => {
                let outcome = self.storage.request(&lfn)?;
                let was_staged =
                    matches!(outcome.residence, gdmp_mass_storage::hrm::Residence::StagedFromTape);
                Ok((
                    Response::FileReady { size: outcome.data.len() as u64, was_staged },
                    outcome.latency,
                ))
            }
            Request::Echo(s) => Ok((Response::Echo(s), SimDuration::ZERO)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultEvent, FaultSchedule};
    use crate::Grid;
    use bytes::Bytes;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new(DistinguishedName::user("grid", "Test CA"), 1, 0, u64::MAX / 2)
    }

    fn peer_site(ca: &CertificateAuthority) -> Site {
        Site::new(&SiteConfig::named("anl", "anl.gov", 7), ca)
    }

    #[test]
    fn handlers_require_authorization() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5), &ca);
        let anl = peer_site(&ca);
        // No gridmap entry for anl yet.
        let err = cern
            .handle(anl.identity(), Request::Subscribe { subscriber: "anl".into() })
            .unwrap_err();
        assert!(matches!(err, GdmpError::Authorization(_)));
        // Grant and retry.
        cern.gridmap.add_full(anl.identity().clone(), "anl_svc");
        cern.handle(anl.identity(), Request::Subscribe { subscriber: "anl".into() }).unwrap();
        assert!(cern.subscribers.contains("anl"));
    }

    #[test]
    fn operation_granularity_enforced() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5), &ca);
        let anl = peer_site(&ca);
        cern.gridmap.add(anl.identity().clone(), "anl_svc", &[Operation::Subscribe]);
        // Subscribe allowed, catalog fetch denied.
        cern.handle(anl.identity(), Request::Subscribe { subscriber: "anl".into() }).unwrap();
        assert!(matches!(
            cern.handle(anl.identity(), Request::GetCatalog),
            Err(GdmpError::Authorization(_))
        ));
    }

    #[test]
    fn prepare_file_reports_staging() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5).with_pool(250), &ca);
        let anl = peer_site(&ca);
        cern.gridmap.add_full(anl.identity().clone(), "anl_svc");
        cern.storage.store("a.db", Bytes::from(vec![0u8; 100]), true).unwrap();
        cern.storage.store("b.db", Bytes::from(vec![0u8; 100]), true).unwrap();
        cern.storage.store("c.db", Bytes::from(vec![0u8; 100]), true).unwrap(); // evicts a
        let (resp, latency) =
            cern.handle(anl.identity(), Request::PrepareFile { lfn: "a.db".into() }).unwrap();
        match resp {
            Response::FileReady { size, was_staged } => {
                assert_eq!(size, 100);
                assert!(was_staged);
                assert!(latency > SimDuration::ZERO);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Second request is a disk hit.
        let (resp, latency) =
            cern.handle(anl.identity(), Request::PrepareFile { lfn: "a.db".into() }).unwrap();
        assert!(matches!(resp, Response::FileReady { was_staged: false, .. }));
        assert_eq!(latency, SimDuration::ZERO);
    }

    #[test]
    fn unsubscribe_stops_membership() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5), &ca);
        let anl = peer_site(&ca);
        cern.gridmap.add_full(anl.identity().clone(), "anl_svc");
        cern.handle(anl.identity(), Request::Subscribe { subscriber: "anl".into() }).unwrap();
        cern.handle(anl.identity(), Request::Unsubscribe { subscriber: "anl".into() }).unwrap();
        assert!(cern.subscribers.is_empty());
    }

    #[test]
    fn duplicate_notices_are_not_requeued() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5), &ca);
        let anl = peer_site(&ca);
        cern.gridmap.add_full(anl.identity().clone(), "anl_svc");
        let notice = FileNotice {
            lfn: "a.db".into(),
            meta: gdmp_replica_catalog::service::FileMeta {
                size: 1,
                modified: 0,
                crc32: 0,
                file_type: "flat".into(),
            },
            origin: "anl".into(),
        };
        let req = Request::Notify { notices: vec![notice.clone(), notice] };
        cern.handle(anl.identity(), req.clone()).unwrap();
        cern.handle(anl.identity(), req).unwrap();
        assert_eq!(cern.import_queue.len(), 1, "replayed notices must not duplicate");
    }

    #[test]
    fn crash_clears_volatile_state_only() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5), &ca);
        let anl = peer_site(&ca);
        cern.gridmap.add_full(anl.identity().clone(), "anl_svc");
        cern.storage.store("a.db", Bytes::from(vec![0u8; 100]), true).unwrap();
        cern.storage.pool.pin("a.db").unwrap();
        let notice = FileNotice {
            lfn: "b.db".into(),
            meta: gdmp_replica_catalog::service::FileMeta {
                size: 1,
                modified: 0,
                crc32: 0,
                file_type: "flat".into(),
            },
            origin: "anl".into(),
        };
        cern.handle(anl.identity(), Request::Notify { notices: vec![notice.clone()] }).unwrap();
        cern.subscriptions.insert("anl".into());
        cern.journal.push(("anl".into(), notice));
        cern.crash();
        assert!(cern.import_queue.is_empty(), "import queue is volatile");
        assert_eq!(cern.storage.pool.pinned_files(), Vec::<String>::new(), "pins are volatile");
        assert!(cern.storage.on_disk("a.db"), "disk contents are durable");
        assert_eq!(cern.subscriptions.len(), 1, "subscriptions are durable");
        assert_eq!(cern.journal.len(), 1, "the journal is durable");
    }

    // ---- the credential memo (`Grid::rpc`'s once-per-chain validation) ----

    fn memo_grid() -> Grid {
        let mut grid = Grid::new("cms");
        grid.add_site(SiteConfig::named("cern", "cern.ch", 5));
        grid.add_site(SiteConfig::named("anl", "anl.gov", 7));
        grid.trust_all();
        grid
    }

    /// Whether `site`'s memo lets its next RPC skip chain validation.
    fn verified(grid: &Grid, site: &str) -> bool {
        grid.site(site).unwrap().verified_at(grid.ca.public_key(), grid.gsi_now())
    }

    /// A proxy of `site`'s credential valid over `[from, from + lifetime]`.
    fn proxy(grid: &Grid, site: &str, from: GsiTime, lifetime: GsiTime) -> CredentialChain {
        grid.site(site).unwrap().credential().delegate(31, from, lifetime, 1).unwrap()
    }

    fn refusal(grid: &mut Grid) -> String {
        grid.ping("anl", "cern").unwrap_err().to_string()
    }

    #[test]
    fn crash_drops_the_memo_and_the_restarted_site_revalidates() {
        let mut grid = memo_grid();
        grid.ping("anl", "cern").unwrap();
        assert!(verified(&grid, "anl") && verified(&grid, "cern"));
        let t = grid.now();
        grid.inject_fault_schedule(
            FaultSchedule::new()
                .at(t, FaultEvent::SiteDown { site: "cern".into() })
                .at(t + SimDuration::from_secs(10), FaultEvent::SiteUp { site: "cern".into() }),
        );
        assert!(matches!(grid.ping("anl", "cern"), Err(GdmpError::SiteUnreachable(_))));
        assert!(!verified(&grid, "cern"), "a crash drops the memo");
        assert!(verified(&grid, "anl"), "the caller's memo is its own");
        grid.advance(SimDuration::from_secs(20));
        assert!(!verified(&grid, "cern"), "restarting does not restore it");
        grid.ping("anl", "cern").unwrap();
        assert!(verified(&grid, "cern"), "the next RPC validated the chain again");
    }

    #[test]
    fn set_credential_drops_the_memo() {
        let mut grid = memo_grid();
        grid.ping("anl", "cern").unwrap();
        let same = grid.site("cern").unwrap().credential().clone();
        grid.site_mut("cern").unwrap().set_credential(same);
        assert!(!verified(&grid, "cern"));
        grid.ping("anl", "cern").unwrap();
        assert!(verified(&grid, "cern"));
        // A replacement that has already expired does not ride on the memo
        // of the credential it replaced.
        grid.advance(SimDuration::from_secs(2));
        let expired = proxy(&grid, "cern", 0, 1);
        grid.site_mut("cern").unwrap().set_credential(expired);
        assert_eq!(
            refusal(&mut grid),
            "security: credential rejected: proxy validation: expired (now=2, to=1)"
        );
    }

    #[test]
    fn a_credential_not_yet_valid_fails_until_its_valid_from() {
        let mut grid = memo_grid();
        grid.ping("anl", "cern").unwrap();
        let early = proxy(&grid, "cern", 100, 1_000);
        grid.site_mut("cern").unwrap().set_credential(early);
        let not_yet = |now: GsiTime| {
            format!(
                "security: credential rejected: proxy validation: not yet valid (now={now}, from=100)"
            )
        };
        assert_eq!(refusal(&mut grid), not_yet(0));
        assert_eq!(refusal(&mut grid), not_yet(0));
        grid.advance(SimDuration::from_secs(50));
        assert_eq!(refusal(&mut grid), not_yet(50));
        grid.advance(SimDuration::from_millis(49_500));
        assert_eq!(refusal(&mut grid), not_yet(99));
        grid.advance(SimDuration::from_millis(500));
        grid.ping("anl", "cern").unwrap();
        assert!(verified(&grid, "cern"));
    }

    #[test]
    fn the_memo_ends_with_the_chains_validity_window() {
        let mut grid = memo_grid();
        let short = proxy(&grid, "cern", 0, 10);
        grid.site_mut("cern").unwrap().set_credential(short);
        grid.ping("anl", "cern").unwrap();
        assert!(verified(&grid, "cern"));
        grid.advance(SimDuration::from_secs(10));
        assert!(verified(&grid, "cern"), "valid_to itself is inside the window");
        grid.advance(SimDuration::from_secs(1));
        assert!(!verified(&grid, "cern"));
        assert!(verified(&grid, "anl"), "anl's host credential is still valid");
        assert_eq!(
            refusal(&mut grid),
            "security: credential rejected: proxy validation: expired (now=11, to=10)"
        );
    }

    #[test]
    fn the_memo_is_keyed_by_the_ca_key() {
        let mut grid = memo_grid();
        grid.ping("anl", "cern").unwrap();
        let trusted = grid.ca.clone();
        grid.ca = CertificateAuthority::new(
            DistinguishedName::user("evil.org", "Evil CA"),
            99,
            0,
            1 << 40,
        );
        assert!(!verified(&grid, "anl") && !verified(&grid, "cern"));
        assert_eq!(
            refusal(&mut grid),
            "security: credential rejected: proxy validation: signature check failed"
        );
        grid.ca = trusted;
        assert!(verified(&grid, "anl") && verified(&grid, "cern"), "validated under this key");
        grid.ping("anl", "cern").unwrap();
    }

    #[test]
    fn echo_works_for_health_checks() {
        let ca = ca();
        let mut cern = Site::new(&SiteConfig::named("cern", "cern.ch", 5), &ca);
        let anl = peer_site(&ca);
        cern.gridmap.add_full(anl.identity().clone(), "anl_svc");
        let (resp, _) = cern.handle(anl.identity(), Request::Echo("ping".into())).unwrap();
        assert_eq!(resp, Response::Echo("ping".into()));
    }
}
