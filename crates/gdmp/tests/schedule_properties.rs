//! Property tests for the fetch plan: the plan always partitions
//! `[0, size)` exactly, execution never loses or double-counts a byte
//! under arbitrary mid-transfer failures, a promoted standby takes over
//! the leaver's timeline and ranges, the reassembled file is byte-identical
//! to the original, and the whole state machine is deterministic.

use gdmp::schedule::{MultiSourcePlan, PlanExecution};
use gdmp::selection::SourceEstimate;
use gdmp_simnet::time::SimDuration;
use proptest::prelude::*;

fn est(site: String, bps: f64) -> SourceEstimate {
    SourceEstimate {
        site,
        on_disk: true,
        est_stage: SimDuration::ZERO,
        est_transfer: SimDuration::from_secs_f64(1e9 / bps),
        predicted_bps: bps,
    }
}

/// Arbitrary ranked source lists: 1–5 sources, throughputs spanning three
/// orders of magnitude, sorted cheapest-first like `estimate_sources`.
fn arb_estimates() -> impl Strategy<Value = Vec<SourceEstimate>> {
    arb_ranked(1..6)
}

fn arb_ranked(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<SourceEstimate>> {
    proptest::collection::vec(1.0e5..1.0e8f64, len).prop_map(|mut rates| {
        rates.sort_by(|a, b| b.partial_cmp(a).unwrap());
        rates.into_iter().enumerate().map(|(i, bps)| est(format!("s{i}"), bps)).collect()
    })
}

/// A plan of up to five members plus 0–3 standbys (more when the file is
/// too small to give every wanted member a share).
fn arb_plan(
    size: std::ops::Range<u64>,
    min_chunk: std::ops::Range<u64>,
) -> impl Strategy<Value = (MultiSourcePlan, Vec<SourceEstimate>)> {
    (size, min_chunk, 1usize..6, 0usize..4).prop_flat_map(|(size, min_chunk, members, standbys)| {
        arb_ranked(members + standbys..members + standbys + 1).prop_map(move |estimates| {
            (MultiSourcePlan::build("p.dat", size, &estimates, members, min_chunk), estimates)
        })
    })
}

/// One scripted step of the driver: `kind` picks success / retry / death,
/// `salvage_pct` is how much of the in-flight chunk a failed attempt lands.
type Op = (u8, u8);

/// `(step, source index, chunk)` — one entry per `next_chunk` decision.
type ChunkTrace = Vec<(usize, usize, (u64, u64))>;

/// Drive a plan to completion (or to stuck, when the script kills every
/// source) while checking the coverage invariant after every transition.
/// Returns the execution plus the `(step, source, chunk)` trace.
fn drive(
    plan: &MultiSourcePlan,
    estimates: &[SourceEstimate],
    ops: &[Op],
) -> Result<(PlanExecution, ChunkTrace), TestCaseError> {
    let mut exec = PlanExecution::new(plan.clone());
    let preds: Vec<f64> = plan
        .assignments
        .iter()
        .map(|a| &a.source)
        .chain(&plan.standbys)
        .map(|site| estimates.iter().find(|e| &e.site == site).unwrap().predicted_bps)
        .collect();
    exec.set_predictions(&preds);
    let mut trace = Vec::new();
    let mut step = 0usize;
    while let Some((idx, chunk)) = exec.next_chunk() {
        // Past the script's end every chunk succeeds, so the loop always
        // terminates (each success strictly shrinks some queue).
        let (kind, salvage_pct) = ops.get(step).copied().unwrap_or((0, 0));
        step += 1;
        let bytes = chunk.1 - chunk.0;
        let busy =
            SimDuration::from_secs_f64(bytes as f64 * 8.0 / exec.sources()[idx].predicted_bps);
        let salvaged = bytes * u64::from(salvage_pct % 101) / 100;
        match kind % 8 {
            // Failed attempts keep their salvaged prefix and burn time; keep
            // them a minority so scripts still make progress.
            6 => exec.chunk_failed(idx, salvaged, busy),
            7 => {
                exec.chunk_failed(idx, salvaged, busy);
                let (left, standbys) = (exec.sources()[idx].clone(), exec.standbys());
                let live = exec.sources().iter().filter(|s| s.alive).count();
                match exec.source_died(idx, SimDuration::ZERO) {
                    Some(new) => {
                        prop_assert_eq!(live, 1, "only the last live member is replaced");
                        prop_assert_eq!(new, exec.sources().len() - 1);
                        prop_assert_eq!(exec.standbys(), standbys - 1);
                        let heir = &exec.sources()[new];
                        prop_assert!(heir.alive);
                        prop_assert_eq!(heir.elapsed, left.elapsed, "the leaver's timeline");
                        prop_assert_eq!(heir.pending_bytes(), left.pending_bytes(), "its orphans");
                    }
                    None => prop_assert!(live > 1 || standbys == 0, "a standby was left idle"),
                }
                prop_assert_eq!(exec.sources()[idx].alive, false);
            }
            _ => exec.chunk_succeeded(idx, chunk, busy),
        }
        while exec.steal_for_idle() {}
        trace.push((step, idx, chunk));
        prop_assert!(
            exec.coverage_is_exact(),
            "completed + pending must cover the file exactly after every step"
        );
        if exec.is_stuck() {
            prop_assert_eq!(exec.standbys(), 0, "stuck only once the standbys are exhausted");
            prop_assert!(exec.sources().iter().all(|s| !s.alive), "and every member left");
        }
    }
    Ok((exec, trace))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The initial plan is always an exact partition: contiguous, disjoint,
    /// covering `[0, size)`, every share at least `min_chunk` when the file
    /// is split at all, and the cheapest source holds the first share.
    #[test]
    fn plan_partitions_exactly(
        size in 1u64..3_000_000,
        min_chunk in 1u64..400_000,
        max_sources in 1usize..6,
        estimates in arb_estimates(),
    ) {
        let plan = MultiSourcePlan::build("p.dat", size, &estimates, max_sources, min_chunk);
        prop_assert!(!plan.assignments.is_empty());
        prop_assert!(plan.assignments.len() <= max_sources.min(estimates.len()));
        prop_assert_eq!(plan.assignments[0].start, 0);
        prop_assert_eq!(plan.assignments.last().unwrap().end, size);
        for w in plan.assignments.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "shares must be contiguous and disjoint");
        }
        if plan.assignments.len() > 1 {
            for a in &plan.assignments {
                prop_assert!(a.end - a.start >= min_chunk, "split shares respect min_chunk");
            }
        }
        prop_assert_eq!(&plan.assignments[0].source, &estimates[0].site);
    }

    /// Under arbitrary mid-transfer failures (including scripts that kill
    /// every source) no byte is ever lost or double-credited: completed
    /// attributions are disjoint, agree with the per-source byte counters,
    /// and when the fetch finishes the reassembled file is byte-identical
    /// to the original.
    #[test]
    fn execution_never_loses_bytes(
        case in arb_plan(1..2_000_000, 1..300_000),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..64),
    ) {
        let (plan, estimates) = case;
        let size = plan.size;
        let (exec, _) = drive(&plan, &estimates, &ops)?;

        // Attribution invariants hold whether or not the fetch finished.
        let mut per_source = vec![0u64; exec.sources().len()];
        let mut marks = vec![false; size as usize];
        for &(a, b, idx) in exec.completed_by() {
            prop_assert!(a < b && b <= size, "attribution stays inside the file");
            for m in &mut marks[a as usize..b as usize] {
                prop_assert!(!*m, "a byte must be credited to exactly one source");
                *m = true;
            }
            per_source[idx] += b - a;
        }
        for (s, &credited) in exec.sources().iter().zip(&per_source) {
            prop_assert_eq!(s.bytes_fetched, credited, "counter matches attribution");
        }
        let covered = marks.iter().filter(|m| **m).count() as u64;
        prop_assert_eq!(covered, exec.completed().covered());

        prop_assert!(exec.is_complete() || exec.is_stuck(), "the driver ran to a fixed point");
        if exec.is_complete() {
            // Reassemble: each source serves the same logical file, so a
            // byte's value depends only on its offset. Every offset was
            // marked exactly once above; equality with the original is then
            // the identity map over offsets.
            prop_assert!(marks.iter().all(|m| *m), "complete fetch covers every byte");
        } else {
            prop_assert!(
                exec.sources().iter().all(|s| !s.alive || s.pending_bytes() == 0),
                "stuck means no alive source has work"
            );
        }
    }

    /// Same plan, same failure script ⇒ identical chunk trace, identical
    /// attribution, identical counters, identical finish time.
    #[test]
    fn execution_is_deterministic(
        case in arb_plan(1..2_000_000, 1..300_000),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..48),
    ) {
        let (plan, estimates) = case;
        let (a, trace_a) = drive(&plan, &estimates, &ops)?;
        let (b, trace_b) = drive(&plan, &estimates, &ops)?;
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(a.completed_by(), b.completed_by());
        prop_assert_eq!(a.ranges_reassigned, b.ranges_reassigned);
        prop_assert_eq!(a.plan_rebuilds, b.plan_rebuilds);
        prop_assert_eq!(a.finish_elapsed(), b.finish_elapsed());
    }
}
