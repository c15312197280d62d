//! The Data Mover's one door to the simulator: each distinct GridFTP
//! session is simulated once per grid (DESIGN §10, "Session cache").

use gdmp_gridftp::sim::{SimTransferReport, WanProfile};
use gdmp_telemetry::Registry;

use crate::grid::{Grid, TransferConfig};

impl Grid {
    /// The one place the Data Mover turns a session into a report: the
    /// grid's cache simulates it the first time and replays it after.
    /// `publish` leaves in `reg` what simulating again would have.
    pub(crate) fn session(
        &mut self,
        profile: &WanProfile,
        bytes: u64,
        warm: bool,
        reg: &Registry,
    ) -> SimTransferReport {
        let TransferConfig { streams, buffer } = self.params;
        #[cfg(test)]
        if self.memo_off {
            self.sessions = Default::default();
        }
        let outcome = self.sessions.session(profile, bytes, streams, buffer, warm);
        outcome.publish(reg);
        outcome.report
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use gdmp_objectstore::{standard_assocs, synth_payload, LogicalOid, ObjectKind, StoredObject};
    use gdmp_simnet::link::LinkSpec;
    use gdmp_simnet::time::{SimDuration, SimTime};

    use super::*;
    use crate::chaos::{FaultEvent, FaultSchedule};
    use crate::invariants::check_grid;
    use crate::objrep::ObjectReplicationConfig;
    use crate::recovery::BackoffRetry;
    use crate::schedule::FetchPolicy;
    use crate::site::SiteConfig;

    const MB: usize = 1024 * 1024;

    fn sessions_published(grid: &Grid) -> u64 {
        grid.telemetry()
            .metrics_snapshot()
            .iter()
            .filter(|(name, _, _)| name == "gridftp_sessions")
            .map(|(_, _, v)| match v {
                gdmp_telemetry::MetricValue::Counter(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Drive two fresh grids through `drive`, one keeping its session cache
    /// and one that starts every session on an empty cache: reports, final
    /// clock and telemetry export must not tell them apart. Returns the
    /// caching run's (sessions simulated, sessions published).
    fn hit_equals_simulation(build: impl Fn() -> Grid, drive: impl Fn(&mut Grid)) -> (usize, u64) {
        let run = |memo_off: bool| {
            let mut grid = build();
            grid.memo_off = memo_off;
            drive(&mut grid);
            let inv = check_grid(&mut grid);
            assert!(inv.is_clean(), "{:?}", inv.violations);
            grid
        };
        let (kept, fresh) = (run(false), run(true));
        assert_eq!(format!("{:?}", kept.reports), format!("{:?}", fresh.reports));
        assert_eq!(kept.now(), fresh.now());
        assert_eq!(kept.telemetry().export_json_lines(), fresh.telemetry().export_json_lines());
        assert!(fresh.sessions.len() <= 1, "the reference run keeps nothing");
        (kept.sessions.len(), sessions_published(&kept))
    }

    #[test]
    fn chaos_soak_with_a_severed_transfer_and_a_restart() {
        let build = || {
            Grid::builder("cms")
                .site(SiteConfig::named("cern", "cern.ch", 11))
                .site(SiteConfig::named("anl", "anl.gov", 12))
                .site(SiteConfig::named("lyon", "in2p3.fr", 13))
                .trust_all()
                .telemetry()
                .recovery(Box::new(BackoffRetry::new(7)))
                .subscription("anl", "cern")
                .subscription("lyon", "cern")
                .build()
        };
        let (simulated, published) = hit_equals_simulation(build, |grid| {
            for round in 0..3u8 {
                for f in 0..2u8 {
                    let lfn = format!("run{round}.{f}.dat");
                    grid.publish_file("cern", &lfn, Bytes::from(vec![round; 2 * MB]), "flat")
                        .unwrap();
                }
                if round == 1 {
                    // cern→anl dies one second into the next transfer, and
                    // lyon crashes and restarts while anl drains its queue.
                    let t = grid.now() + SimDuration::from_secs(1);
                    let (from, to) = ("cern".to_string(), "anl".to_string());
                    grid.inject_fault_schedule(
                        FaultSchedule::new()
                            .at(
                                t,
                                FaultEvent::LinkDown {
                                    from: from.clone(),
                                    to: to.clone(),
                                    both_ways: true,
                                },
                            )
                            .at(
                                t + SimDuration::from_secs(2),
                                FaultEvent::SiteDown { site: "lyon".into() },
                            )
                            .at(
                                t + SimDuration::from_secs(4),
                                FaultEvent::LinkUp { from, to, both_ways: true },
                            )
                            .at(
                                t + SimDuration::from_secs(9),
                                FaultEvent::SiteUp { site: "lyon".into() },
                            ),
                    );
                }
                for _ in 0..4 {
                    for dst in ["anl", "lyon"] {
                        // A deferred or failed file stays queued for the next pass.
                        let _ = grid.replicate_pending(dst);
                    }
                    grid.advance(SimDuration::from_secs(30));
                }
            }
            assert_eq!(grid.reports.len(), 12, "every file reached both subscribers");
            assert!(grid.reports.iter().any(|r| r.attempts > 1), "a transfer was severed");
        });
        assert!(published > simulated as u64, "{simulated} simulated of {published} sessions");
    }

    #[test]
    fn striped_fetch_from_three_sources() {
        // The topology of `scenarios/fetch.json`.
        let path = |mbps: u64, one_way_ms: u64| {
            WanProfile::clean(LinkSpec {
                rate_bps: mbps * 1_000_000,
                propagation: SimDuration::from_millis(one_way_ms),
                queue_capacity: 256,
            })
        };
        let build = || {
            Grid::builder("fetch")
                .site(SiteConfig::named("lyon", "lyon.fr", 23))
                .site(SiteConfig::named("cern", "cern.ch", 192))
                .site(SiteConfig::named("fnal", "fnal.gov", 240))
                .site(SiteConfig::named("kek", "kek.jp", 48))
                .trust_all()
                .telemetry()
                .default_profile(path(1_000, 1))
                .profile("cern", "lyon", path(20, 20))
                .profile("fnal", "lyon", path(12, 35))
                .profile("kek", "lyon", path(8, 60))
                .recovery(Box::new(BackoffRetry::new(7)))
                .build()
        };
        let (simulated, _) = hit_equals_simulation(build, |grid| {
            let fill: Vec<u8> = (0..48 * MB).map(|i| (i % 251) as u8).collect();
            grid.publish_file("cern", "hot_aod.dat", Bytes::from(fill), "flat").unwrap();
            grid.replicate("fnal", "hot_aod.dat").unwrap();
            grid.replicate("kek", "hot_aod.dat").unwrap();
            grid.set_fetch_policy(FetchPolicy::MultiSource {
                max_sources: 3,
                min_chunk: 2 * MB as u64,
            });
            let report = grid.replicate("lyon", "hot_aod.dat").unwrap();
            assert!(report.attempts > 3, "striped over several chunks per source");
        });
        // Two seeding pulls, then per source one cold chunk and warm ones
        // that repeat: far fewer sessions than the 24 chunks.
        assert!((5..=12).contains(&simulated), "{simulated} sessions simulated");
    }

    #[test]
    fn object_replication_chunks() {
        let build = || {
            let mut grid = Grid::builder("cms")
                .site(SiteConfig::named("cern", "cern.ch", 11))
                .site(SiteConfig::named("anl", "anl.gov", 12))
                .trust_all()
                .telemetry()
                .build();
            let fed = &mut grid.site_mut("cern").unwrap().federation;
            fed.create_database("bulk.db").unwrap();
            for e in 0..200 {
                let logical = LogicalOid::new(e, ObjectKind::Aod);
                let payload = synth_payload(logical, 1, 1024);
                let object =
                    StoredObject { logical, version: 1, payload, assocs: standard_assocs(logical) };
                fed.store("bulk.db", 0, object).unwrap();
            }
            grid.publish_database("cern", "bulk.db").unwrap();
            grid
        };
        let (_, published) = hit_equals_simulation(build, |grid| {
            let wanted: Vec<_> =
                (0..200).step_by(10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
            let report =
                grid.object_replicate("anl", &wanted, ObjectReplicationConfig::default()).unwrap();
            assert_eq!(report.objects_moved, 20);
        });
        assert!(published >= 1);
    }

    #[test]
    fn whatever_the_simulation_depends_on_is_in_the_key() {
        let mut grid = Grid::builder("cms")
            .site(SiteConfig::named("cern", "cern.ch", 11))
            .site(SiteConfig::named("anl", "anl.gov", 12))
            .trust_all()
            .default_profile(WanProfile::clean(LinkSpec::cern_anl()))
            .build();
        let mut next = 0u8;
        let mut pull = |grid: &mut Grid| {
            next += 1;
            let lfn = format!("f{next}.dat");
            grid.publish_file("cern", &lfn, Bytes::from(vec![next; 8 * MB]), "flat").unwrap();
            let report = grid.replicate("anl", &lfn).unwrap();
            (grid.sessions.len(), report.data_time)
        };
        let first = pull(&mut grid);
        assert_eq!(first.0, 1);
        assert_eq!(pull(&mut grid), first, "an equal session is a hit");

        let slower = WanProfile::clean(LinkSpec { rate_bps: 10_000_000, ..LinkSpec::cern_anl() });
        grid.set_profile("cern", "anl", slower);
        let on_slower = pull(&mut grid);
        assert_eq!(on_slower.0, 2, "a changed profile is a miss");
        assert!(on_slower.1 > first.1);

        grid.params.buffer = 16 * 1024;
        let small_buffer = pull(&mut grid);
        assert_eq!(small_buffer.0, 3, "a changed socket buffer is a miss");
        assert!(small_buffer.1 > on_slower.1);

        grid.set_profile("cern", "anl", slower.exact());
        let exact = pull(&mut grid);
        assert_eq!(exact.0, 4, "the fidelity mode is part of the profile");
        assert_ne!(exact.1, small_buffer.1, "packet-level timing differs from fast-forwarded");
        assert_eq!(grid.now(), grid.reports.last().unwrap().finished_at);
        assert!(grid.now() > SimTime::ZERO);
    }
}
