//! Per-layer probes: direct calls into one layer's public functions, on a
//! standalone instance sized like the state the workload ended in, with
//! the arguments the workload produced. Host time only; every result
//! feeds a checksum that is `black_box`ed so the work cannot be elided.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use gdmp::prelude::*;
use gdmp_gsi::{
    CertificateAuthority, CredentialChain, DistinguishedName, GridMap, KeyPair, Operation,
    SecurityContext,
};
use gdmp_intern::Interner;
use gdmp_mass_storage::hrm::HierarchicalStorage;
use gdmp_mass_storage::pool::EvictionPolicy;
use gdmp_objectstore::{CopierSpec, ObjectCopier};
use gdmp_replica_catalog::service::{FileMeta, ReplicaCatalogService};

use crate::stats::{median, percentile_sorted};
use crate::workloads::{EndState, Transfer};

/// Checksum every probe folds its results into.
#[derive(Default)]
pub struct Sink(u64);

impl Sink {
    pub fn eat(&mut self, v: u64) {
        self.0 = self.0.rotate_left(7) ^ v;
    }

    pub fn finish(self) -> u64 {
        black_box(self.0)
    }
}

fn per_call_ns(total: std::time::Duration, calls: usize) -> f64 {
    total.as_nanos() as f64 / calls as f64
}

pub struct Gsi {
    pub establish_us: f64,
    pub authorize_ns: f64,
}

/// `SecurityContext::establish` between two site chains, and
/// `GridMap::authorize` on a gridmap as large as one site's.
pub fn gsi(end: &EndState, sink: &mut Sink) -> Gsi {
    let ca = CertificateAuthority::new(
        DistinguishedName::user("grid", "GDMP Test Grid CA"),
        0xCA5EED,
        0,
        u64::MAX / 2,
    );
    let chain = |org: &str, seed: u64| {
        let keys = KeyPair::from_seed(seed);
        let dn = DistinguishedName::host(org, &format!("gdmp.{org}"));
        CredentialChain::end_entity(ca.issue(dn, keys.public, 0, u64::MAX / 2), keys)
    };
    let (a, b) = (chain("a.grid", 700), chain("b.grid", 701));
    const HANDSHAKES: usize = 2_000;
    let t = Instant::now();
    for nonce in 0..HANDSHAKES as u64 {
        let (i, _) = SecurityContext::establish(&a, &b, ca.public_key(), 1, black_box(nonce))
            .expect("valid chains authenticate");
        sink.eat(i.mic(b"probe"));
    }
    let establish_us = per_call_ns(t.elapsed(), HANDSHAKES) / 1e3;

    let per_site = end.gridmap_entries / end.sites.max(1);
    let dns: Vec<DistinguishedName> = (0..per_site.max(1))
        .map(|i| DistinguishedName::host(&format!("s{i}.grid"), &format!("gdmp.s{i}.grid")))
        .collect();
    let mut map = GridMap::new();
    for dn in &dns {
        map.add_full(dn.clone(), "gdmp");
    }
    assert_eq!(map.len(), per_site.max(1), "gridmap probe is one site's size");
    const CHECKS: usize = 200_000;
    let t = Instant::now();
    for i in 0..CHECKS {
        let user = map.authorize(&dns[i % dns.len()], Operation::Transfer).expect("mapped");
        sink.eat(user.len() as u64);
    }
    Gsi { establish_us, authorize_ns: per_call_ns(t.elapsed(), CHECKS) }
}

pub struct Catalog {
    pub publish_us: f64,
    pub add_replica_us: f64,
    pub locate_us: f64,
    /// Mean publish cost while filling from empty ÷ `publish_us`: below 1
    /// when catalog operations get dearer as entries accumulate, which is
    /// how much a run that grew the catalog paid relative to end-state
    /// prices.
    pub fill_discount: f64,
}

/// The central LDAP catalog filled to the workload's end-state entry
/// count, then timed on a few more publishes, replica adds and locates.
pub fn catalog(end: &EndState, sink: &mut Sink) -> Catalog {
    const CALLS: usize = 64;
    let mut svc = ReplicaCatalogService::new("GDMP", "probe").expect("fresh catalog");
    let meta =
        FileMeta { size: end.file_size, modified: 0, crc32: 0x1234_5678, file_type: "flat".into() };
    let site = |i: usize| &end.site_names[i % end.site_names.len()];
    let url = |i: usize| format!("gsiftp://gdmp.{}.grid/data", site(i));
    let t = Instant::now();
    for f in 0..end.catalog_files {
        svc.publish(Some(&format!("file{f:05}.dat")), site(f), &url(f), &meta).expect("fill");
    }
    let fill_us = per_call_ns(t.elapsed(), end.catalog_files.max(1)) / 1e3;
    assert_eq!(
        svc.list().expect("lists").len(),
        end.catalog_files,
        "catalog probe is end-state size"
    );

    let fresh: Vec<String> = (0..CALLS).map(|i| format!("probe{i:05}.dat")).collect();
    let t = Instant::now();
    for (i, lfn) in fresh.iter().enumerate() {
        let name = svc.publish(Some(lfn), site(i), &url(i), &meta).expect("probe publish");
        sink.eat(name.len() as u64);
    }
    let publish_us = per_call_ns(t.elapsed(), CALLS) / 1e3;

    let t = Instant::now();
    for (i, lfn) in fresh.iter().enumerate() {
        svc.add_replica(lfn, site(i + 1), &url(i + 1)).expect("probe add_replica");
    }
    let add_replica_us = per_call_ns(t.elapsed(), CALLS) / 1e3;

    let t = Instant::now();
    for lfn in &fresh {
        sink.eat(svc.locate(lfn).expect("probe locate").len() as u64);
    }
    let locate_us = per_call_ns(t.elapsed(), CALLS) / 1e3;
    Catalog {
        publish_us,
        add_replica_us,
        locate_us,
        fill_discount: (fill_us / publish_us).min(1.0),
    }
}

pub struct Replay {
    /// Host µs of each session, one entry per session the workload ran,
    /// ascending.
    pub session_us: Vec<u64>,
    pub busy_ns: u64,
    pub events_processed: u64,
    pub events_skipped: u64,
    /// Events of a 1-byte session on each session's profile: the part of
    /// the simulation that is background warm-up rather than payload.
    pub idle_events: u64,
}

impl Replay {
    pub fn p(&self, p: f64) -> f64 {
        if self.session_us.is_empty() {
            return 0.0;
        }
        percentile_sorted(&self.session_us, p) as f64
    }
}

/// Replay every GridFTP session the workload ran through
/// `WanProfile::simulate_transfer`. Identical sessions are simulated once
/// (the simulation is a pure function of its arguments) and weighted by
/// how often the workload ran them.
pub fn replay(transfers: &[Transfer], sink: &mut Sink) -> Replay {
    let mut unique: BTreeMap<String, (Transfer, u64)> = BTreeMap::new();
    for t in transfers {
        let key = format!("{:?}/{}/{}/{}", t.profile, t.bytes, t.streams, t.buffer);
        unique.entry(key).or_insert((*t, 0)).1 += 1;
    }
    let mut out = Replay {
        session_us: Vec::with_capacity(transfers.len()),
        busy_ns: 0,
        events_processed: 0,
        events_skipped: 0,
        idle_events: 0,
    };
    for (t, count) in unique.values() {
        let mut host_ns = Vec::new();
        let mut report;
        loop {
            let start = Instant::now();
            report = t.profile.simulate_transfer(black_box(t.bytes), t.streams, t.buffer);
            host_ns.push(start.elapsed().as_nanos() as f64);
            // Short sessions are timed three times; long ones once.
            if host_ns.len() == 3 || host_ns[0] > 5e6 {
                break;
            }
        }
        let ns = median(&host_ns) as u64;
        sink.eat(report.data_time.nanos());
        let idle = t.profile.simulate_transfer(1, t.streams, t.buffer);
        out.session_us.extend(std::iter::repeat_n(ns / 1_000, *count as usize));
        out.busy_ns += ns * count;
        out.events_processed += report.events_processed * count;
        out.events_skipped += report.events_skipped * count;
        out.idle_events += idle.events_processed * count;
    }
    out.session_us.sort_unstable();
    out
}

/// `gridftp::crc::crc32` throughput, MB/s.
pub fn crc_mb_per_s(sink: &mut Sink) -> f64 {
    let buf = crate::workloads::payload(0xC4C, 4 << 20);
    const PASSES: usize = 8;
    let t = Instant::now();
    for _ in 0..PASSES {
        sink.eat(u64::from(gdmp_gridftp::crc::crc32(black_box(&buf))));
    }
    (buf.len() * PASSES) as f64 / 1e6 / t.elapsed().as_secs_f64()
}

pub struct Storage {
    pub store_us_per_mb: f64,
    pub request_us: f64,
}

/// One standalone `HierarchicalStorage` per backend kind the workload's
/// sites use, holding as many files as a site ended with: archive-backed
/// stores, then a request sweep over all of them (hits and stages as the
/// pool capacity dictates).
pub fn storage(end: &EndState, sink: &mut Sink) -> Storage {
    let files = (((end.published + end.replicas) as usize) / end.sites.max(1)).max(1);
    let data = Bytes::from(crate::workloads::payload(0x570, end.file_size as usize));
    let mut kinds: BTreeMap<&'static str, &crate::workloads::SiteStorage> = BTreeMap::new();
    for s in &end.storage {
        kinds.entry(s.config.kind()).or_insert(s);
    }
    let (mut store_ns, mut request_ns, mut stored, mut requested) = (0u128, 0u128, 0usize, 0usize);
    for site in kinds.values() {
        let mut hrm =
            HierarchicalStorage::with_config(site.pool_capacity, EvictionPolicy::Lru, &site.config);
        let names: Vec<String> = (0..files).map(|f| format!("probe{f:05}.dat")).collect();
        let t = Instant::now();
        for name in &names {
            let latency = hrm.store(name, data.clone(), true).expect("probe store");
            sink.eat(latency.nanos());
        }
        store_ns += t.elapsed().as_nanos();
        assert_eq!(hrm.archive.len(), files, "storage probe holds one site's file count");
        let t = Instant::now();
        for name in &names {
            sink.eat(hrm.request(name).expect("probe request").latency.nanos());
        }
        request_ns += t.elapsed().as_nanos();
        stored += files;
        requested += files;
    }
    let mb = stored as f64 * end.file_size as f64 / 1e6;
    Storage {
        store_us_per_mb: store_ns as f64 / 1e3 / mb,
        request_us: request_ns as f64 / 1e3 / requested as f64,
    }
}

#[derive(Default)]
pub struct Objects {
    /// `ObjectCopier::extract`, µs per 1000 objects.
    pub extract_us_per_kobj: f64,
    /// One `ObjectFileCatalog::greedy_file_cover` call, µs.
    pub cover_us: f64,
}

/// `ObjectCopier::extract` and `greedy_file_cover` of one session's object
/// set on a standalone grid holding the same population. Zero for
/// workloads without an object store.
pub fn objects(end: &EndState, sink: &mut Sink) -> Objects {
    let Some(population) = end.objects.population else {
        return Objects::default();
    };
    let mut grid = Grid::builder("probe").site(SiteConfig::named("cern", "cern.ch", 1)).build();
    population.build(&mut grid, "cern").expect("probe population builds");
    assert_eq!(
        grid.object_view.object_count(),
        end.objects.objects,
        "objectstore probe holds the workload's population"
    );
    let reads = &end.objects.probe_reads;
    let t = Instant::now();
    let cover = grid.object_view.greedy_file_cover(black_box(reads), |_| end.file_size);
    let cover_us = t.elapsed().as_nanos() as f64 / 1e3;
    sink.eat(cover.total_bytes);

    let fed = &mut grid.site_mut("cern").expect("probe site").federation;
    let copier = ObjectCopier::new(CopierSpec::classic());
    let t = Instant::now();
    let (files, stats) = copier.extract(fed, black_box(reads), "probe").expect("probe extract");
    let extract_us = t.elapsed().as_nanos() as f64 / 1e3;
    sink.eat(files.len() as u64 ^ stats.bytes_copied);
    Objects { extract_us_per_kobj: extract_us / (reads.len() as f64 / 1e3), cover_us }
}

/// Host ns of one `SpanRecorder` enter/exit pair.
pub fn span_cost_ns(sink: &mut Sink) -> f64 {
    const PAIRS: usize = 200_000;
    let mut recorder = crate::span::SpanRecorder::default();
    let t = Instant::now();
    for op in 0..PAIRS as u64 {
        let id = recorder.enter("probe.span", black_box(op));
        recorder.exit(id);
    }
    let ns = per_call_ns(t.elapsed(), PAIRS);
    sink.eat(recorder.spans().len() as u64);
    ns
}

pub struct Intern {
    pub symbols: usize,
    pub try_id_ns: f64,
}

/// `Interner::try_id` on a table holding the run's site and file names.
pub fn intern(end: &EndState, sink: &mut Sink) -> Intern {
    let mut names: Vec<String> = end.site_names.clone();
    names.extend((0..end.catalog_files).map(|f| format!("file{f:05}.dat")));
    let mut table = Interner::new();
    for n in &names {
        table.intern(n);
    }
    assert_eq!(table.len(), end.sites + end.catalog_files, "intern probe is end-state size");
    const PROBES: usize = 500_000;
    let t = Instant::now();
    for i in 0..PROBES {
        sink.eat(u64::from(table.try_id(&names[i % names.len()]).expect("interned")));
    }
    Intern { symbols: table.len(), try_id_ns: per_call_ns(t.elapsed(), PROBES) }
}
