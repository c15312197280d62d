//! The fetch plan behind every replication: split one file's byte ranges
//! across the top-k replicas, keep the other ranked replicas on standby,
//! and re-assign ranges from straggling or failed sources mid-transfer.
//!
//! The paper replicates each file from a single producer, but its own
//! machinery — GridFTP partial transfers and restart markers, the Replica
//! Catalog's one-to-many LFN→PFN mapping — is exactly what is needed to
//! pull one file from several replicas at once (\[VTF01\], \[ABB+01\]).
//! The classic single-source fetch is the same plan with one member: its
//! chunk is the whole remaining range, and failover is a standby taking
//! over the leaver's restart marker.
//!
//! This module is the *pure* half of the Data Mover: [`MultiSourcePlan`]
//! carves `[0, size)` into contiguous per-source assignments proportional
//! to each source's predicted throughput, and [`PlanExecution`] is a
//! deterministic state machine that tracks per-source queues and
//! timelines, credits completed chunks, salvages partial progress when an
//! attempt fails, re-assigns orphaned ranges, promotes standbys, and
//! steals work for idle sources. The side-effectful half — WAN
//! simulation, chaos checks, retry strategies, the circuit breaker —
//! lives in [`Grid::replicate`](crate::grid::Grid::replicate); keeping the
//! range bookkeeping pure makes it property-testable in isolation.

use std::collections::VecDeque;

use bytes::Bytes;
use gdmp_gridftp::ranges::ByteRanges;
use gdmp_simnet::time::SimDuration;

use crate::selection::SourceEstimate;

/// How [`Grid::replicate`](crate::grid::Grid::replicate) fetches a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// The classic GDMP fetch: a one-source plan pulling the whole
    /// remaining range, the other ranked sources standing by for failover.
    #[default]
    SingleSource,
    /// Split the file across the top-k ranked sources and pull byte ranges
    /// in parallel; a one-source plan when only one usable source exists
    /// or the file is too small to split.
    MultiSource {
        /// Upper bound on concurrent sources.
        max_sources: usize,
        /// Smallest range worth a separate pull (and the chunk quantum).
        min_chunk: u64,
    },
}

impl FetchPolicy {
    /// Multi-source with sensible defaults: up to 3 sources, 1 MB chunks.
    pub fn multi_source() -> Self {
        FetchPolicy::MultiSource { max_sources: 3, min_chunk: 1024 * 1024 }
    }
}

/// One contiguous byte range assigned to one source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub source: String,
    /// Half-open `[start, end)`.
    pub start: u64,
    pub end: u64,
}

/// The initial partition of a file across its top-k sources.
#[derive(Debug, Clone)]
pub struct MultiSourcePlan {
    pub lfn: String,
    pub size: u64,
    pub min_chunk: u64,
    /// Disjoint, contiguous, covering `[0, size)`; one entry per source,
    /// ordered by offset (and therefore by selection rank: the cheapest
    /// source gets the first — largest — share).
    pub assignments: Vec<Assignment>,
    /// The other ranked sources, best first: each takes over when the
    /// last live member leaves.
    pub standbys: Vec<String>,
}

impl MultiSourcePlan {
    /// Partition `[0, size)` across the best `max_sources` of `estimates`
    /// (cheapest-first, as returned by
    /// [`estimate_sources`](crate::selection::estimate_sources)),
    /// proportionally to predicted throughput. Every share is at least
    /// `min_chunk`; fewer sources are used when the file is too small to
    /// give each one a meaningful share. A one-source plan pulls the whole
    /// remaining range per attempt; the unpicked sources are standbys.
    pub fn build(
        lfn: &str,
        size: u64,
        estimates: &[SourceEstimate],
        max_sources: usize,
        min_chunk: u64,
    ) -> MultiSourcePlan {
        let min_chunk = min_chunk.max(1);
        let k = max_sources.min(estimates.len()).min((size / min_chunk).max(1) as usize).max(1);
        let picked = &estimates[..k];
        let total_w: f64 = picked.iter().map(|e| e.predicted_bps.max(1.0)).sum();
        let mut bounds = vec![0u64; k + 1];
        bounds[k] = size;
        let mut acc = 0.0;
        for i in 1..k {
            acc += picked[i - 1].predicted_bps.max(1.0);
            let raw = (size as f64 * acc / total_w) as u64;
            // Keep every share at least `min_chunk` on both sides.
            let lo = bounds[i - 1] + min_chunk;
            let hi = size - (k - i) as u64 * min_chunk;
            bounds[i] = raw.clamp(lo, hi);
        }
        let assignments = (0..k)
            .map(|i| Assignment {
                source: picked[i].site.clone(),
                start: bounds[i],
                end: bounds[i + 1],
            })
            .collect();
        let standbys = estimates[k..].iter().map(|e| e.site.clone()).collect();
        let min_chunk = if k == 1 { size.max(1) } else { min_chunk };
        MultiSourcePlan { lfn: lfn.to_string(), size, min_chunk, assignments, standbys }
    }
}

/// Live state of one source during a fetch.
#[derive(Debug, Clone)]
pub struct SourceProgress {
    pub name: String,
    /// Selection's throughput prediction, bits/s.
    pub predicted_bps: f64,
    /// Pending ranges, front first.
    queue: Vec<(u64, u64)>,
    /// This source's busy time since the fetch began (its private
    /// timeline; sources run concurrently in wall-clock terms).
    pub elapsed: SimDuration,
    pub alive: bool,
    /// Failures since this source's last clean chunk.
    pub attempts_on_source: u32,
    /// Bytes credited as completed from this source.
    pub bytes_fetched: u64,
}

impl SourceProgress {
    /// Bytes still queued on this source.
    pub fn pending_bytes(&self) -> u64 {
        self.queue.iter().map(|(s, e)| e - s).sum()
    }

    /// Predicted time to drain the queue from now, by selection's prediction.
    fn predicted_finish(&self) -> SimDuration {
        self.elapsed
            + SimDuration::from_secs_f64(
                self.pending_bytes() as f64 * 8.0 / self.predicted_bps.max(1.0),
            )
    }
}

/// Deterministic execution state of a [`MultiSourcePlan`].
///
/// The driver repeatedly asks for the next chunk ([`PlanExecution::next_chunk`]
/// picks the source whose private timeline is furthest behind — the
/// discrete-event order of concurrent pulls), executes it by whatever
/// means (WAN simulation, a real socket, a test stub), and reports the
/// outcome back. All range arithmetic invariants live here, where they
/// are property-tested: completed ranges stay disjoint, their union plus
/// the pending queues always covers the file, and every completed byte is
/// attributed to exactly one source.
#[derive(Debug, Clone)]
pub struct PlanExecution {
    pub size: u64,
    pub min_chunk: u64,
    /// Members in the order they joined: the plan's sources, then any
    /// promoted standbys.
    sources: Vec<SourceProgress>,
    /// Sources not yet promoted, best first.
    standbys: VecDeque<SourceProgress>,
    completed: ByteRanges,
    /// `(start, end, source index)` attribution of every credited range.
    completed_by: Vec<(u64, u64, usize)>,
    /// Ranges moved between live members (death reassignments + work
    /// steals). A standby's promotion moves none: it replaces the leaver.
    pub ranges_reassigned: u64,
    /// Times the plan was rebuilt because a source died while other
    /// members lived.
    pub plan_rebuilds: u64,
}

impl PlanExecution {
    pub fn new(plan: MultiSourcePlan) -> PlanExecution {
        let source = |name: String, queue: Vec<(u64, u64)>, alive: bool| SourceProgress {
            name,
            predicted_bps: 1.0,
            queue,
            elapsed: SimDuration::ZERO,
            alive,
            attempts_on_source: 0,
            bytes_fetched: 0,
        };
        PlanExecution {
            size: plan.size,
            min_chunk: plan.min_chunk.max(1),
            sources: plan
                .assignments
                .into_iter()
                .map(|a| {
                    let queue = if a.start < a.end { vec![(a.start, a.end)] } else { Vec::new() };
                    source(a.source, queue, true)
                })
                .collect(),
            standbys: plan.standbys.into_iter().map(|s| source(s, Vec::new(), false)).collect(),
            completed: ByteRanges::new(),
            completed_by: Vec::new(),
            ranges_reassigned: 0,
            plan_rebuilds: 0,
        }
    }

    /// Attach throughput predictions (for reassignment targeting); the
    /// slice is matched by order to the members, then the standbys.
    pub fn set_predictions(&mut self, bps: &[f64]) {
        for (s, &p) in self.sources.iter_mut().chain(&mut self.standbys).zip(bps) {
            s.predicted_bps = p.max(1.0);
        }
    }

    /// The members, in the order they joined.
    pub fn sources(&self) -> &[SourceProgress] {
        &self.sources
    }

    /// Standbys not yet promoted.
    pub fn standbys(&self) -> usize {
        self.standbys.len()
    }

    /// Completed coverage of `[0, size)`.
    pub fn completed(&self) -> &ByteRanges {
        &self.completed
    }

    /// `(start, end, source index)` attribution of every credited range.
    pub fn completed_by(&self) -> &[(u64, u64, usize)] {
        &self.completed_by
    }

    pub fn is_complete(&self) -> bool {
        self.completed.is_complete(self.size)
    }

    /// No source can make progress but the file is incomplete — every
    /// member and every standby left. The fetch has failed.
    pub fn is_stuck(&self) -> bool {
        !self.is_complete()
            && self.standbys.is_empty()
            && self.sources.iter().all(|s| !s.alive || s.queue.is_empty())
    }

    /// Wall-clock span of the fetch: the furthest-ahead private timeline.
    pub fn finish_elapsed(&self) -> SimDuration {
        self.sources.iter().map(|s| s.elapsed).max().unwrap_or(SimDuration::ZERO)
    }

    /// The next chunk to pull: the alive source with the shortest private
    /// timeline (ties break on index, i.e. selection rank) pulls up to
    /// `min_chunk` bytes off the front of its queue. Chunks stay
    /// `min_chunk`-quantized even near a range's end — an atomic
    /// whole-tail pull would keep the straggler's last bytes out of reach
    /// of the endgame work-steal.
    pub fn next_chunk(&self) -> Option<(usize, (u64, u64))> {
        let idx = self
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && !s.queue.is_empty())
            .min_by_key(|(i, s)| (s.elapsed, *i))
            .map(|(i, _)| i)?;
        let (start, end) = self.sources[idx].queue[0];
        let chunk_end = end.min(start.saturating_add(self.min_chunk));
        Some((idx, (start, chunk_end)))
    }

    /// Work stealing: an alive source with an empty queue takes the tail
    /// half of the straggler's last pending range (or the whole range
    /// when it is short), but only when the improvement check below says
    /// the move shrinks the plan's makespan. Returns whether anything
    /// moved; call until `false` — the strict-improvement condition makes
    /// the loop terminate (a stolen range never ping-pongs back, because
    /// the reverse move would need the opposite strict inequality).
    pub fn steal_for_idle(&mut self) -> bool {
        let Some(thief) = self
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && s.queue.is_empty())
            .min_by_key(|(i, s)| (s.elapsed, *i))
            .map(|(i, _)| i)
        else {
            return false;
        };
        // Victim: the alive source predicted to finish last.
        let Some(victim) = self
            .sources
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != thief && s.alive && s.pending_bytes() > 0)
            .max_by(|(i, a), (j, b)| a.predicted_finish().cmp(&b.predicted_finish()).then(j.cmp(i)))
            .map(|(i, _)| i)
        else {
            return false;
        };
        let (start, end) = *self.sources[victim].queue.last().expect("victim has pending work");
        let len = end - start;
        let (moved_start, moved_end) =
            if len >= 2 * self.min_chunk { (start + len / 2, end) } else { (start, end) };
        // Only steal if the thief actually finishes the stolen bytes
        // before the victim would have drained its whole queue — an idle
        // slow source grabbing a fast source's tail makes the plan worse.
        let stolen = moved_end - moved_start;
        let thief_finish = self.sources[thief].elapsed
            + SimDuration::from_secs_f64(
                stolen as f64 * 8.0 / self.sources[thief].predicted_bps.max(1.0),
            );
        if thief_finish >= self.sources[victim].predicted_finish() {
            return false;
        }
        if moved_start == start {
            // Move the whole (short) tail range.
            self.sources[victim].queue.pop().expect("checked");
        } else {
            // Split the tail range in half; the thief takes the back half.
            self.sources[victim].queue.last_mut().expect("checked").1 = moved_start;
        }
        self.sources[thief].queue.push((moved_start, moved_end));
        self.ranges_reassigned += 1;
        true
    }

    /// The chunk returned by [`PlanExecution::next_chunk`] landed: credit
    /// it, advance the source's timeline by `busy`, and trim its queue.
    pub fn chunk_succeeded(&mut self, idx: usize, chunk: (u64, u64), busy: SimDuration) {
        self.credit(idx, chunk);
        let s = &mut self.sources[idx];
        s.elapsed = s.elapsed + busy;
        s.attempts_on_source = 0;
    }

    /// An attempt by `idx` failed `busy` into its timeline, with `salvaged`
    /// bytes off its queue front already landed (restart markers keep
    /// them): credit that prefix and count the failure.
    pub fn chunk_failed(&mut self, idx: usize, salvaged: u64, busy: SimDuration) {
        if salvaged > 0 {
            let (start, end) = self.sources[idx].queue[0];
            self.credit(idx, (start, start + salvaged.min(end - start)));
        }
        let s = &mut self.sources[idx];
        s.elapsed = s.elapsed + busy;
        s.attempts_on_source += 1;
    }

    /// Credit `chunk`, taken off the front of `idx`'s queue.
    fn credit(&mut self, idx: usize, chunk: (u64, u64)) {
        let s = &mut self.sources[idx];
        debug_assert_eq!(s.queue[0].0, chunk.0, "chunk must come off the queue front");
        // Defensive: never double-credit.
        if !self.completed.contains(chunk.0) {
            self.completed.insert(chunk.0, chunk.1);
            self.completed_by.push((chunk.0, chunk.1, idx));
            s.bytes_fetched += chunk.1 - chunk.0;
        }
        s.queue[0].0 = chunk.1;
        if s.queue[0].0 >= s.queue[0].1 {
            s.queue.remove(0);
        }
    }

    /// `idx` spends `busy` on its timeline outside any pull (a prologue).
    pub(crate) fn charge(&mut self, idx: usize, busy: SimDuration) {
        let s = &mut self.sources[idx];
        s.elapsed = s.elapsed + busy;
    }

    /// `idx` leaves the plan after another `busy` on its timeline. Its
    /// orphaned ranges go to the live member predicted to finish earliest;
    /// when it was the last live member, the next standby takes over its
    /// timeline and its ranges instead, and its index is returned. Orphans
    /// stay on the leaver when no one is left ([`PlanExecution::is_stuck`]
    /// then reports failure).
    pub fn source_died(&mut self, idx: usize, busy: SimDuration) -> Option<usize> {
        let orphans = std::mem::take(&mut self.sources[idx].queue);
        let elapsed = {
            let s = &mut self.sources[idx];
            s.alive = false;
            s.elapsed = s.elapsed + busy;
            s.elapsed
        };
        if let Some(heir) = self
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .min_by(|(i, a), (j, b)| a.predicted_finish().cmp(&b.predicted_finish()).then(i.cmp(j)))
            .map(|(i, _)| i)
        {
            self.plan_rebuilds += 1;
            self.ranges_reassigned += orphans.len() as u64;
            self.sources[heir].queue.extend(orphans);
            return None;
        }
        let Some(mut next) = self.standbys.pop_front() else {
            // No one is left; keep the orphans on the leaver so accounting
            // still sees the uncovered bytes.
            self.sources[idx].queue = orphans;
            return None;
        };
        next.queue = orphans;
        next.elapsed = elapsed;
        next.alive = true;
        self.sources.push(next);
        Some(self.sources.len() - 1)
    }

    /// The file image of a complete execution; `held[idx]` is source
    /// `idx`'s whole file. A sole contributor's handle is passed on
    /// uncopied; several contributors are copied once, in offset order.
    pub(crate) fn assemble(&self, held: &[Option<Bytes>]) -> Bytes {
        let held = |idx: usize| held[idx].as_ref().expect("credited source was prepared");
        let mut credited = self.completed_by.clone();
        credited.sort_unstable();
        // A gap would shift bytes and leave the install CRC to notice.
        let tiled = credited.iter().try_fold(0, |at, c| (c.0 == at).then_some(c.1));
        debug_assert_eq!(tiled, Some(self.size), "credited ranges must tile [0, size)");
        if let Some(f) = credited.first().filter(|f| credited.iter().all(|c| c.2 == f.2)) {
            return held(f.2).slice(..self.size as usize);
        }
        let mut image = Vec::with_capacity(self.size as usize);
        for &(s, e, idx) in &credited {
            image.extend_from_slice(&held(idx)[s as usize..e as usize]);
        }
        Bytes::from(image)
    }

    /// Invariant check used by tests: completed ranges plus pending queues
    /// exactly cover `[0, size)` with no overlap.
    pub fn coverage_is_exact(&self) -> bool {
        let mut all = self.completed.clone();
        let mut total = self.completed.covered();
        for s in &self.sources {
            for &(a, b) in &s.queue {
                all.insert(a, b);
                total += b - a;
            }
        }
        all.is_complete(self.size) && total == self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SourceEstimate;

    fn est(site: &str, bps: f64) -> SourceEstimate {
        SourceEstimate {
            site: site.to_string(),
            on_disk: true,
            est_stage: SimDuration::ZERO,
            est_transfer: SimDuration::from_secs_f64(1e9 / bps),
            predicted_bps: bps,
        }
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    fn plan_partitions_exactly_and_proportionally() {
        let ests = [est("a", 20e6), est("b", 10e6), est("c", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 40 * MB, &ests, 3, MB);
        assert_eq!(plan.assignments.len(), 3);
        assert_eq!(plan.assignments[0].start, 0);
        assert_eq!(plan.assignments.last().unwrap().end, 40 * MB);
        for w in plan.assignments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "contiguous partition");
        }
        let share0 = plan.assignments[0].end - plan.assignments[0].start;
        let share1 = plan.assignments[1].end - plan.assignments[1].start;
        assert!(share0 > share1, "faster source gets the bigger share");
        for a in &plan.assignments {
            assert!(a.end - a.start >= MB, "every share at least min_chunk");
        }
    }

    #[test]
    fn small_files_use_fewer_sources() {
        let ests = [est("a", 10e6), est("b", 10e6), est("c", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 2 * MB, &ests, 3, MB);
        assert_eq!(plan.assignments.len(), 2, "2 MB / 1 MB min_chunk caps at 2 sources");
        let tiny = MultiSourcePlan::build("y.dat", 100, &ests, 3, MB);
        assert_eq!(tiny.assignments.len(), 1);
        assert_eq!(tiny.assignments[0].end, 100);
    }

    #[test]
    fn execution_completes_without_failures() {
        let ests = [est("a", 20e6), est("b", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 8 * MB, &ests, 2, MB);
        let mut exec = PlanExecution::new(plan);
        exec.set_predictions(&[20e6, 10e6]);
        while let Some((idx, chunk)) = exec.next_chunk() {
            let bytes = chunk.1 - chunk.0;
            let busy =
                SimDuration::from_secs_f64(bytes as f64 * 8.0 / exec.sources()[idx].predicted_bps);
            exec.chunk_succeeded(idx, chunk, busy);
            while exec.steal_for_idle() {}
        }
        assert!(exec.is_complete());
        assert!(exec.coverage_is_exact());
        assert!(exec.sources().iter().all(|s| s.bytes_fetched > 0), "both sources contributed");
        assert_eq!(exec.plan_rebuilds, 0);
    }

    #[test]
    fn assemble_orders_ranges_and_passes_a_sole_handle_on() {
        let ests = [est("a", 20e6), est("b", 10e6)];
        let image: Vec<u8> = (0..4 * MB).map(|i| (i % 251) as u8).collect();
        let held = vec![Some(Bytes::from(image.clone())), Some(Bytes::from(image.clone()))];
        let run = |max_sources| {
            let plan = MultiSourcePlan::build("x.dat", 4 * MB, &ests, max_sources, MB);
            let mut exec = PlanExecution::new(plan);
            while let Some((idx, chunk)) = exec.next_chunk() {
                exec.chunk_succeeded(idx, chunk, SimDuration::from_millis(1 + idx as u64));
            }
            exec
        };
        let striped = run(2);
        assert!(striped.completed_by().windows(2).any(|w| w[0].0 > w[1].0), "out of offset order");
        assert_eq!(striped.assemble(&held), image);
        let sole = run(1).assemble(&held);
        assert_eq!(sole, image);
        assert_eq!(sole.as_ptr(), held[0].as_ref().unwrap().as_ptr(), "handle, not a copy");
    }

    #[test]
    fn death_reassigns_orphans_and_salvages_prefix() {
        let ests = [est("a", 10e6), est("b", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 8 * MB, &ests, 2, MB);
        let mut exec = PlanExecution::new(plan);
        exec.set_predictions(&[10e6, 10e6]);
        // First chunk of source 0 dies halfway through.
        let (idx, chunk) = exec.next_chunk().unwrap();
        assert_eq!(idx, 0);
        let half = (chunk.1 - chunk.0) / 2;
        exec.chunk_failed(idx, half, SimDuration::from_secs(1));
        assert_eq!(exec.source_died(idx, SimDuration::ZERO), None, "a member survives");
        assert_eq!(exec.plan_rebuilds, 1);
        assert!(exec.ranges_reassigned >= 1);
        assert_eq!(exec.completed().covered(), half, "salvaged prefix credited");
        assert!(exec.coverage_is_exact(), "no byte lost in the reassignment");
        // The survivor finishes the whole file.
        while let Some((i, c)) = exec.next_chunk() {
            assert_eq!(i, 1, "only the survivor pulls");
            exec.chunk_succeeded(i, c, SimDuration::from_millis(100));
        }
        assert!(exec.is_complete());
    }

    #[test]
    fn one_source_plan_pulls_the_remainder_and_fails_over_to_a_standby() {
        let ests = [est("a", 10e6), est("b", 10e6), est("c", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 4 * MB, &ests, 1, MB);
        assert_eq!(plan.standbys, ["b", "c"]);
        let mut exec = PlanExecution::new(plan);
        assert_eq!(exec.next_chunk(), Some((0, (0, 4 * MB))), "the whole file in one pull");
        exec.chunk_failed(0, 3 * MB, SimDuration::from_secs(3));
        assert_eq!(exec.next_chunk(), Some((0, (3 * MB, 4 * MB))), "restart from the marker");
        assert_eq!(exec.source_died(0, SimDuration::from_secs(1)), Some(1));
        let b = &exec.sources()[1];
        assert_eq!((b.name.as_str(), b.elapsed), ("b", SimDuration::from_secs(4)));
        assert_eq!(exec.next_chunk(), Some((1, (3 * MB, 4 * MB))), "b inherits the marker");
        assert_eq!(
            (exec.plan_rebuilds, exec.ranges_reassigned),
            (0, 0),
            "a takeover is no rebuild"
        );
        assert_eq!(exec.standbys(), 1);
        exec.chunk_succeeded(1, (3 * MB, 4 * MB), SimDuration::from_secs(1));
        assert!(exec.is_complete());
        assert_eq!(exec.completed_by(), [(0, 3 * MB, 0), (3 * MB, 4 * MB, 1)]);
    }

    #[test]
    fn all_sources_dead_is_stuck() {
        let ests = [est("a", 10e6), est("b", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 4 * MB, &ests, 2, MB);
        let mut exec = PlanExecution::new(plan);
        let (i0, _) = exec.next_chunk().unwrap();
        exec.source_died(i0, SimDuration::ZERO);
        let (i1, _) = exec.next_chunk().unwrap();
        exec.source_died(i1, SimDuration::ZERO);
        assert!(exec.next_chunk().is_none());
        assert!(exec.is_stuck());
        assert!(!exec.is_complete());
        assert!(exec.coverage_is_exact(), "orphans still accounted for");
    }

    #[test]
    fn stealing_relieves_stragglers() {
        // Selection predicted equal sources, so the plan split the
        // file evenly — but one source turns out 100x slower. Stealing
        // must shift the straggler's queue to the fast source.
        let ests = [est("fast", 10e6), est("slow", 10e6)];
        let plan = MultiSourcePlan::build("x.dat", 16 * MB, &ests, 2, MB);
        let mut exec = PlanExecution::new(plan);
        exec.set_predictions(&[100e6, 1e6]);
        let drain = |exec: &mut PlanExecution| {
            while let Some((idx, chunk)) = exec.next_chunk() {
                let bps = exec.sources()[idx].predicted_bps;
                let busy = SimDuration::from_secs_f64((chunk.1 - chunk.0) as f64 * 8.0 / bps);
                exec.chunk_succeeded(idx, chunk, busy);
                while exec.steal_for_idle() {}
            }
        };
        drain(&mut exec);
        assert!(exec.is_complete());
        assert!(exec.ranges_reassigned > 0, "idle fast source must steal from the straggler");
        let fast = &exec.sources()[0];
        let slow = &exec.sources()[1];
        assert!(
            fast.bytes_fetched > slow.bytes_fetched,
            "stealing shifts bytes to the fast source: {} vs {}",
            fast.bytes_fetched,
            slow.bytes_fetched
        );
        assert!(exec.coverage_is_exact());
    }

    #[test]
    fn slow_idler_does_not_steal_from_fast_source() {
        // The slow source finishes its small share first (it is scheduled
        // in discrete-event order, so its timeline can idle while the fast
        // source still has queue) — but grabbing the fast source's tail
        // would only stretch the makespan, so the improvement check must
        // refuse the steal.
        let ests = [est("fast", 100e6), est("slow", 1e6)];
        let plan = MultiSourcePlan::build("x.dat", 16 * MB, &ests, 2, MB);
        let mut exec = PlanExecution::new(plan);
        exec.set_predictions(&[100e6, 1e6]);
        // The slow source drains its whole (single-chunk) share.
        let (idx, chunk) = {
            let slow_idx = 1;
            assert_eq!(exec.sources()[slow_idx].name, "slow");
            // Fast pulls one chunk first (index order on equal timelines).
            let (i, c) = exec.next_chunk().unwrap();
            assert_eq!(i, 0);
            exec.chunk_succeeded(i, c, SimDuration::from_millis(80));
            exec.next_chunk().unwrap()
        };
        assert_eq!(idx, 1);
        exec.chunk_succeeded(idx, chunk, SimDuration::from_secs(8));
        // Slow is now idle with the fast source's queue still loaded.
        assert!(!exec.steal_for_idle(), "a slower idler must not steal from a faster source");
        assert_eq!(exec.ranges_reassigned, 0);
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let run = || {
            let ests = [est("a", 30e6), est("b", 20e6), est("c", 10e6)];
            let plan = MultiSourcePlan::build("x.dat", 24 * MB, &ests, 3, MB);
            let mut exec = PlanExecution::new(plan);
            exec.set_predictions(&[30e6, 20e6, 10e6]);
            let mut trace = Vec::new();
            let mut step = 0u32;
            while let Some((idx, chunk)) = exec.next_chunk() {
                step += 1;
                if step == 5 {
                    exec.chunk_failed(idx, (chunk.1 - chunk.0) / 3, SimDuration::from_secs(2));
                    exec.source_died(idx, SimDuration::ZERO);
                } else {
                    let bps = exec.sources()[idx].predicted_bps;
                    let busy = SimDuration::from_secs_f64((chunk.1 - chunk.0) as f64 * 8.0 / bps);
                    exec.chunk_succeeded(idx, chunk, busy);
                }
                while exec.steal_for_idle() {}
                trace.push(format!("{step} {idx} {chunk:?}"));
            }
            (trace, exec.completed_by().to_vec(), exec.finish_elapsed())
        };
        assert_eq!(run(), run());
    }
}
