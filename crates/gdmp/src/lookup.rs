//! The Replica Catalog service's federated side (Figure 4): the per-site
//! LRCs and RLI tree switched on over a running grid, their soft-state
//! rounds, and the lookup ladder that confirms every holder it returns
//! at the holder's own LRC.

use std::collections::BTreeSet;

use gdmp_intern::{NameTable, SiteId};
use gdmp_replica_catalog::federation::{
    FederatedCatalog, FederationFaults, LookupPlan, FALLBACK_FANOUT,
};
use gdmp_simnet::time::SimDuration;
use gdmp_telemetry::Registry;

use crate::chaos::ChaosState;
use crate::error::{GdmpError, Result};
use crate::grid::{Grid, LookupResult, LookupVia};
use crate::recovery::{FailureCtx, FailureKind, RecoveryAction};

impl LookupResult {
    /// An answer with no probe paid yet.
    fn new(lfn: &str, via: LookupVia, holders: Vec<String>) -> LookupResult {
        LookupResult {
            lfn: lfn.to_string(),
            holders,
            via,
            confirms: 0,
            false_positives: 0,
            unreachable: 0,
            degraded: false,
            staleness_ns: 0,
        }
    }
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
    probed: BTreeSet<SiteId>,
    first_unreachable: Option<SiteId>,
}

impl Grid {
    /// Turn on the federated catalog over the current site set: one
    /// authoritative LRC per site plus an RLI tree fed by periodic
    /// soft-state updates. Files already in the central catalog are
    /// backfilled into their LRCs. Call after every site is added (the
    /// builder does this in the right order).
    pub fn enable_federation(&mut self) {
        let names: Vec<String> = self.site_names();
        assert!(!names.is_empty(), "enable federation after adding sites");
        let mut fed = FederatedCatalog::new(&names);
        for lfn in self.catalog.list().unwrap_or_default() {
            for loc in self.catalog.locate(&lfn).unwrap_or_default() {
                fed.publish(&loc.location, &lfn);
            }
        }
        self.federation = Some(fed);
    }

    /// Run every soft-state push round whose boundary the clock has
    /// passed, with losses and RLI crashes answered by the chaos state,
    /// and publish the staleness gauge. No-op with federation off.
    pub(crate) fn tick_federation(&mut self) {
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

    /// Locate every confirmed replica of `lfn`, as seen from `from`.
    ///
    /// With federation off this is a central-catalog query. With it on,
    /// the lookup walks the degradation ladder — own LRC, RLI hints
    /// (each *confirmed* at the owning LRC before it counts), a bounded
    /// fan-out query when hints miss, and direct LRC scatter when the
    /// index cannot speak for part of the grid. Confirm RPCs pay real
    /// round trips, feed the circuit breaker, and serve backoff via the
    /// installed [`crate::RecoveryStrategy`]. Every returned holder is
    /// verified against authoritative LRC state: slower under faults,
    /// never wrong.
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
            return Ok(LookupResult::new(lfn, LookupVia::Central, holders));
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
    /// The first rung that confirms a holder answers; the federation
    /// audits that answer, or the empty one after the last rung.
    fn lookup_ladder(&mut self, from: &str, lfn: &str, reg: &Registry) -> Result<LookupResult> {
        let now = self.clock;
        let (plan, names, from_id, total_sites) = {
            let Grid { federation, chaos, .. } = self;
            let fed = federation.as_ref().expect("caller checked federation");
            let view = ChaosFaultView { chaos };
            let plan: LookupPlan = fed.plan_lookup(lfn, now, &view);
            (plan, fed.name_table(), fed.try_site_id(from), fed.site_count() as u32)
        };
        let mut result = LookupResult {
            degraded: plan.degraded,
            staleness_ns: plan.staleness_ns,
            ..LookupResult::new(lfn, LookupVia::Rli, Vec::new())
        };
        let mut ladder =
            Ladder { from, lfn, names, probed: BTreeSet::new(), first_unreachable: None };
        let via = 'ladder: {
            // Rung 0: the requester's own LRC, authoritative and free.
            if let Some(id) = from_id {
                ladder.probed.insert(id);
            }
            if self.federation.as_ref().expect("checked").lrc_holds(from, lfn) {
                result.holders.push(from.to_string());
                break 'ladder LookupVia::Local;
            }

            // Rung 1: RLI hints, each confirmed at the owning LRC. A denial
            // from a *reachable* LRC is a bloom false positive / stale entry.
            self.probe_rung(&mut ladder, plan.hints.iter().copied(), true, &mut result, reg);
            if !result.holders.is_empty() {
                reg.counter_add("rli_hits", &[], result.holders.len() as u64);
                break 'ladder LookupVia::Rli;
            }

            // Rung 2 (degraded): the index is blind to dead subtrees — ask
            // those LRCs directly.
            self.probe_rung(&mut ladder, plan.scatter.iter().copied(), false, &mut result, reg);
            if !result.holders.is_empty() {
                break 'ladder LookupVia::Scatter;
            }

            // Rung 3: bounded fan-out over sites nothing has asked yet (bloom
            // false negatives are impossible, but lost/expired summaries make
            // the index forget). Federation ids walk sites in sorted name
            // order, so id iteration replaces the old full name-list clone.
            let fallback: Vec<SiteId> = (0..total_sites)
                .map(SiteId)
                .filter(|id| !ladder.probed.contains(id))
                .take(FALLBACK_FANOUT)
                .collect();
            if !fallback.is_empty() {
                reg.counter_add("lookup_fallbacks", &[], 1);
                self.probe_rung(&mut ladder, fallback, false, &mut result, reg);
            }
            if !result.holders.is_empty() {
                break 'ladder LookupVia::Fallback;
            }

            // Rung 4: full LRC scatter — the slowest honest answer there is.
            self.probe_rung(&mut ladder, (0..total_sites).map(SiteId), false, &mut result, reg);
            LookupVia::Scatter
        };
        self.federation.as_mut().expect("checked").audit_answer(lfn, &result.holders);
        if !result.holders.is_empty() {
            result.via = via;
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
                Err(e) => {
                    if e.is_retryable() {
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
                    }
                    result.unreachable += 1;
                    return None;
                }
            }
        }
    }
}
