//! The Request Manager (Figure 4): authenticated, authorized RPC between
//! sites, the one reachability gate chaos answers, subscription, and
//! crash recovery — journal replay and catalog resync once a site is
//! back.

use gdmp_gsi::context::{challenge_legs, SecurityContext};
use gdmp_intern::Symbol;

use crate::chaos::FaultEvent;
use crate::error::{GdmpError, Result};
use crate::grid::Grid;
use crate::message::{FileNotice, Request, Response};

impl Grid {
    /// Issue one authenticated, authorized RPC from `from` to `to`,
    /// charging a control round trip plus any server-side storage latency.
    pub fn rpc(&mut self, from: &str, to: &str, req: Request) -> Result<Response> {
        let from_slot = self.site_slot(from).ok_or_else(|| GdmpError::NoSuchSite(from.into()))?;
        let to_slot = self.site_slot(to).ok_or_else(|| GdmpError::NoSuchSite(to.into()))?;
        let refused = self.refusal(from, to, true).or_else(|| {
            (self.chaos.is_active() && self.chaos.should_drop_rpc(from, to)).then(|| {
                ("dropped", GdmpError::LinkDown { from: from.to_string(), to: to.to_string() })
            })
        });
        if let Some((reason, e)) = refused {
            // The caller pays the timeout: one control round trip spent
            // learning that nobody answers.
            self.clock += self.profile_between(from, to).rtt();
            self.rpc_count += 1;
            let reg = self.telemetry.clone();
            reg.counter_add("rpc_failures", &[("kind", req.kind()), ("reason", reason)], 1);
            let detail = format!("{from} -> {to} {}: {e}", req.kind());
            reg.record(self.clock.nanos(), "rpc_failed", detail);
            return Err(e);
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
        self.clock += self.profile_between(from, to).rtt();
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

    /// The one reachability gate, for RPCs and transfers alike: fire every
    /// fault now due, then refuse the path `from -> to` if chaos has cut it
    /// (in either direction, for a `round_trip`). The refusal is the
    /// `reason` label and error an RPC reports: the callee down, else the
    /// caller down, else the link. `None` while the path is open, and
    /// always under an inert schedule.
    pub(crate) fn refusal(
        &mut self,
        from: &str,
        to: &str,
        round_trip: bool,
    ) -> Option<(&'static str, GdmpError)> {
        if !self.chaos.is_active() {
            return None;
        }
        self.apply_due_faults();
        let open =
            if round_trip { self.chaos.can_rpc(from, to) } else { self.chaos.can_flow(from, to) };
        if open {
            return None;
        }
        Some(match [to, from].into_iter().find(|site| self.chaos.is_down(site)) {
            Some(site) => ("site_down", GdmpError::SiteUnreachable(site.to_string())),
            None => {
                ("link_down", GdmpError::LinkDown { from: from.to_string(), to: to.to_string() })
            }
        })
    }

    /// A transfer towards a crashed `dst` is refused as `dst`'s outage
    /// before any source is tried, so no healthy source is blamed for it
    /// (DESIGN §11). Always `Ok` under an inert schedule.
    pub(crate) fn refuse_down_destination(&mut self, dst: &str) -> Result<()> {
        if !self.chaos.is_active() {
            return Ok(());
        }
        self.apply_due_faults();
        if self.chaos.is_down(dst) {
            return Err(GdmpError::SiteUnreachable(dst.to_string()));
        }
        Ok(())
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
                    let count = notices.len();
                    // A cut path is not tried; a call that fails anyway (a
                    // fault fired mid-call) keeps the entries for the next
                    // pass.
                    let req = Request::Notify { notices: notices.clone() };
                    if !self.chaos.can_rpc(&producer, &sub)
                        || self.rpc(&producer, &sub, req).is_err()
                    {
                        kept.extend(notices.into_iter().map(|n| (sub.clone(), n)));
                        continue;
                    }
                    actions += count;
                    progressed = true;
                    reg.counter_add("notices_replayed", &[("site", &producer)], count as u64);
                    let detail = format!("{producer} -> {sub}: {count} notices");
                    reg.record(self.clock.nanos(), "journal_replayed", detail);
                }
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
