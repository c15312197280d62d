//! Hierarchical timer wheel for far-future events.
//!
//! The event population of a TCP simulation is bimodal: data/ACK events live
//! microseconds ahead of the clock, while every flow also keeps a
//! retransmission timer parked ~1 s out. A comparison heap pays `O(log n)`
//! on every operation to keep those far timers totally ordered long before
//! their order matters. The wheel instead buckets far events by arrival
//! window — `O(1)` insert — and only *cascades* a bucket into finer
//! resolution (ultimately into the caller's heap) when the clock approaches
//! it. The wheel orders nothing by itself; the caller re-arbitrates matured
//! entries, so bucketing can never perturb event order.
//!
//! Geometry: [`LEVELS`] levels of [`SLOTS`] slots. A level-0 slot spans
//! `2^SLOT_BITS` ns (~2.1 ms); each level up widens the slot by 64×, for a
//! total horizon of ~9.6 h — beyond that, entries park in the furthest
//! slot and re-cascade. Per-level occupancy bitmasks and per-slot minima
//! make "when is the next occupied slot?" a couple of trailing-zero scans.

/// log2 of the level-0 slot width in nanoseconds (~2.1 ms).
const SLOT_BITS: u32 = 21;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const LEVELS: usize = 4;

#[inline]
fn shift(level: usize) -> u32 {
    SLOT_BITS + LEVEL_BITS * level as u32
}

/// A hierarchical timer wheel holding `(deadline, payload)` entries at or
/// after its moving [`TimerWheel::boundary`].
#[derive(Clone)]
pub(crate) struct TimerWheel<T> {
    slots: Vec<Vec<(u64, T)>>,
    /// Per-level bitmask of occupied slots.
    occ: [u64; LEVELS],
    /// Minimum deadline per slot (valid only where the occupancy bit is set).
    slot_min: Vec<u64>,
    /// All stored deadlines are `>= boundary`; always level-0-slot aligned.
    boundary: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            boundary: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Deadlines before this belong in the caller's heap, not the wheel.
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// Level and physical slot for a deadline, clamping beyond-horizon
    /// entries into the furthest top-level slot (they re-cascade later).
    #[inline]
    fn place(&self, at: u64) -> (usize, usize) {
        debug_assert!(at >= self.boundary);
        for level in 0..LEVELS {
            let sh = shift(level);
            let delta = (at >> sh) - (self.boundary >> sh);
            if delta < SLOTS as u64 {
                return (level, (at >> sh) as usize & (SLOTS - 1));
            }
        }
        let top = shift(LEVELS - 1);
        (LEVELS - 1, ((self.boundary >> top) + SLOTS as u64 - 1) as usize & (SLOTS - 1))
    }

    pub fn insert(&mut self, at: u64, value: T) {
        let (level, slot) = self.place(at);
        let idx = level * SLOTS + slot;
        self.slots[idx].push((at, value));
        if self.occ[level] & (1 << slot) == 0 {
            self.occ[level] |= 1 << slot;
            self.slot_min[idx] = at;
        } else {
            self.slot_min[idx] = self.slot_min[idx].min(at);
        }
        self.len += 1;
    }

    /// Smallest stored deadline, scanning per-level slot minima.
    pub fn next_occupied_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            let mut bits = self.occ[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                best = best.min(self.slot_min[level * SLOTS + slot]);
            }
            // A lower level can only hold nearer slots than any occupied
            // higher level, but clamped overflow entries break that, so scan
            // every level; occupancy is sparse and this is off the hot path.
        }
        Some(best)
    }

    /// Advance the boundary past `at` (to the next level-0 slot edge),
    /// returning every matured entry (deadline < new boundary). Remaining
    /// entries from partially matured coarse slots re-cascade to finer
    /// levels. Matured entries arrive in arbitrary order — the caller's
    /// heap restores total order.
    pub fn advance_past(&mut self, at: u64) -> Vec<(u64, T)> {
        let new_boundary = ((at >> SLOT_BITS) + 1) << SLOT_BITS;
        debug_assert!(new_boundary > self.boundary);
        let old = self.boundary;
        self.boundary = new_boundary;
        let mut matured = Vec::new();
        let mut pending = Vec::new();
        for level in 0..LEVELS {
            let sh = shift(level);
            let cur = old >> sh;
            let new = new_boundary >> sh;
            if cur == new && level > 0 {
                break; // this and coarser levels are untouched by the move
            }
            let span = (new - cur).min(SLOTS as u64);
            for i in 0..=span {
                let slot = ((cur + i) & (SLOTS as u64 - 1)) as usize;
                let idx = level * SLOTS + slot;
                if self.occ[level] & (1 << slot) == 0 {
                    continue;
                }
                self.occ[level] &= !(1 << slot);
                self.slot_min[idx] = u64::MAX;
                let drained = std::mem::take(&mut self.slots[idx]);
                self.len -= drained.len();
                for (d, v) in drained {
                    if d < new_boundary {
                        matured.push((d, v));
                    } else {
                        pending.push((d, v));
                    }
                }
            }
        }
        for (d, v) in pending {
            self.insert(d, v);
        }
        matured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matures_everything_eventually() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // Deadlines across every level plus beyond the horizon.
        let deadlines: Vec<u64> = vec![
            1,
            1 << SLOT_BITS,
            (1 << SLOT_BITS) + 17,
            1 << (SLOT_BITS + LEVEL_BITS),
            1 << (SLOT_BITS + 2 * LEVEL_BITS),
            1 << (SLOT_BITS + 3 * LEVEL_BITS),
            u64::MAX >> 8, // far beyond the horizon: clamps + re-cascades
        ];
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(d, i as u32);
        }
        assert_eq!(w.len(), deadlines.len());
        let mut seen = Vec::new();
        let mut clock = 0;
        while let Some(next) = w.next_occupied_at() {
            assert!(next > clock || clock == 0);
            clock = next;
            // Everything matured lies below the advanced boundary (the next
            // level-0 slot edge past `next`); `next` itself always matures.
            let edge = ((next >> SLOT_BITS) + 1) << SLOT_BITS;
            for (d, v) in w.advance_past(next) {
                assert!(d < edge, "matured {d} at or past boundary {edge}");
                seen.push((d, v));
            }
            assert!(seen.iter().any(|&(d, _)| d == next), "advance past {next} missed it");
        }
        assert_eq!(w.len(), 0);
        assert_eq!(seen.len(), deadlines.len());
    }

    #[test]
    fn partial_slot_maturation_recascades() {
        let mut w: TimerWheel<&str> = TimerWheel::new();
        // Two entries in the same level-1 slot; maturing one must keep the
        // other stored (recascaded to level 0), not lose or free it early.
        let base = 1 << (SLOT_BITS + LEVEL_BITS);
        w.insert(base + 10, "first");
        w.insert(base + (1 << SLOT_BITS) + 10, "second");
        let matured = w.advance_past(base + 10);
        assert_eq!(matured.len(), 1);
        assert_eq!(matured[0].1, "first");
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_occupied_at(), Some(base + (1 << SLOT_BITS) + 10));
    }

    #[test]
    fn insert_below_next_occupied_is_found() {
        let mut w: TimerWheel<u8> = TimerWheel::new();
        w.insert(1_000_000_000, 1); // 1 s out (level ≥ 1)
        w.insert(5_000, 2); // now a nearer one
        assert_eq!(w.next_occupied_at(), Some(5_000));
    }
}
