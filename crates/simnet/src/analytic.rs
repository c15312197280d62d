//! Closed-form TCP throughput models: the window-limited ceiling of one
//! flow, and the fluid window model the fast-forward path integrates over
//! lossless steady-state epochs.

use crate::packet::wire;
use crate::time::SimDuration;

/// Steady-state ceiling of one window-limited flow: `buffer / RTT`,
/// additionally capped by the link rate. Returns bits per second.
pub fn window_limited_bps(buffer_bytes: u64, rtt: SimDuration, link_rate_bps: u64) -> f64 {
    let window = (buffer_bytes / u64::from(wire::MSS)) * u64::from(wire::MSS);
    let ceiling = window as f64 * 8.0 / rtt.as_secs_f64();
    ceiling.min(link_rate_bps as f64)
}

/// One flow's state snapshot handed to [`fluid_epoch`].
#[derive(Debug, Clone)]
pub struct FluidFlow {
    /// Current congestion window, segments (already capped by `rwnd`).
    pub wnd: f64,
    /// Receive-window pin: the window stops growing here.
    pub rwnd: f64,
    /// Whether the window is climbing in congestion avoidance
    /// (+1 segment per effective RTT) or already pinned.
    pub growing: bool,
    /// Zero-load round trip: path propagation ×2 plus one full-frame
    /// serialization per hop, seconds.
    pub base_rtt: f64,
    /// Segments left to acknowledge; `None` for background flows.
    pub remaining: Option<u64>,
    /// Indices into the link table of every hop the flow crosses.
    pub path: Vec<usize>,
}

/// Link parameters seen by the fluid model.
#[derive(Debug, Clone, Copy)]
pub struct FluidLink {
    pub rate_bps: f64,
    pub bdp_bytes: f64,
}

/// Outcome of one fast-forwarded epoch.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Seconds advanced (≤ the horizon; shorter when a flow completes).
    pub duration: f64,
    /// Segments acknowledged per flow; a completing flow gets exactly its
    /// remainder, everyone else is rounded down.
    pub credits: Vec<u64>,
    /// Congestion window at the epoch end.
    pub final_wnd: Vec<f64>,
    /// Effective RTT (base + standing queue delay) at the epoch end, used
    /// to re-prime the ack clock.
    pub final_rtt: Vec<f64>,
}

/// Integrate the lossless steady-state window model forward until `horizon`
/// seconds elapse or the first flow completes, whichever is earlier.
///
/// Per step: every flow transfers `wnd / rtt_eff` segments per second, where
/// `rtt_eff` adds each crossed link's standing-queue delay
/// `max(0, Σ wnd − BDP) / rate` to the flow's zero-load RTT — the same
/// self-clocking that governs the packet-level simulator once every sender
/// is window-limited. Growing (congestion-avoidance) windows gain one
/// segment per effective RTT until they pin at `rwnd`; steps are capped at
/// the fastest growing flow's RTT so growth stays piecewise-linear. Once
/// every window is pinned the remaining span is advanced in one step.
pub fn fluid_epoch(flows: &[FluidFlow], links: &[FluidLink], horizon: f64) -> EpochPlan {
    let n = flows.len();
    let frame = f64::from(wire::FULL_FRAME);
    let mut credit = vec![0.0f64; n];
    let mut w: Vec<f64> = flows.iter().map(|f| f.wnd.max(1.0)).collect();
    let mut rtt = vec![0.0f64; n];
    let mut qdelay = vec![0.0f64; links.len()];
    let mut t = 0.0f64;
    // Far more steps than any real epoch needs (growth is bounded by
    // Σ rwnd); purely a guard against degenerate float behaviour.
    for _ in 0..200_000 {
        for (li, l) in links.iter().enumerate() {
            let standing: f64 = flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.path.contains(&li))
                .map(|(i, _)| w[i] * frame)
                .sum();
            qdelay[li] = ((standing - l.bdp_bytes) * 8.0 / l.rate_bps).max(0.0);
        }
        for (i, f) in flows.iter().enumerate() {
            rtt[i] = f.base_rtt + f.path.iter().map(|&li| qdelay[li]).sum::<f64>();
        }
        let grow_step = flows
            .iter()
            .enumerate()
            .filter(|(i, f)| f.growing && w[*i] < f.rwnd)
            .map(|(i, _)| rtt[i])
            .fold(f64::INFINITY, f64::min);
        let mut dt = grow_step.min(horizon - t);
        let mut completes = false;
        for (i, f) in flows.iter().enumerate() {
            if let Some(rem) = f.remaining {
                let left = (rem as f64 - credit[i]).max(0.0);
                let to_done = left / (w[i] / rtt[i]);
                if to_done <= dt {
                    dt = to_done;
                    completes = true;
                }
            }
        }
        if !dt.is_finite() || dt <= 0.0 {
            break;
        }
        for (i, f) in flows.iter().enumerate() {
            credit[i] += w[i] / rtt[i] * dt;
            if f.growing {
                w[i] = (w[i] + dt / rtt[i]).min(f.rwnd);
            }
        }
        t += dt;
        if completes || t >= horizon - 1e-12 {
            break;
        }
    }
    let credits: Vec<u64> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let c = credit[i].max(0.0);
            match f.remaining {
                // A hair of float slack decides "completed" — the epoch's
                // stop time was chosen to land exactly on a completion.
                Some(rem) if c >= rem as f64 - 1e-6 => rem,
                Some(rem) => (c as u64).min(rem.saturating_sub(1)),
                None => c as u64,
            }
        })
        .collect();
    EpochPlan { duration: t, credits, final_wnd: w, final_rtt: rtt }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untuned_single_stream_ceiling_is_about_4mbps() {
        let bps = window_limited_bps(64 * 1024, SimDuration::from_millis(125), 45_000_000);
        assert!((3.9e6..4.3e6).contains(&bps), "{bps}");
    }

    #[test]
    fn tuned_buffer_is_link_limited() {
        let bps = window_limited_bps(1024 * 1024, SimDuration::from_millis(125), 45_000_000);
        assert_eq!(bps, 45e6);
    }
}
