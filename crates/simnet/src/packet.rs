//! Packets and identifiers used by the network model.

use crate::time::SimTime;

/// Identifier of a flow within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub usize);

/// Identifier of a unidirectional link within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// A data segment in flight. Sequence numbers count MSS-sized segments,
/// not bytes; the last segment of a transfer may be shorter than one MSS
/// (`wire_bytes` carries the true on-the-wire size including headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    pub flow: FlowId,
    /// Segment sequence number (0-based index into the flow's segments).
    pub seq: u64,
    /// Bytes this packet occupies on the wire (payload + header).
    pub wire_bytes: u32,
    /// True if this is a retransmission (for statistics only).
    pub retransmit: bool,
    /// When the packet was handed to the network (for queueing-delay stats;
    /// reset at each hop's queue).
    pub enqueued_at: SimTime,
    /// When the sender originally transmitted it (RTT timestamp option).
    pub sent_at: SimTime,
    /// Index of the path hop the packet is currently traversing.
    pub hop: u8,
}

/// Maximum hops a flow's path may cross (access link → backbone → access).
pub const MAX_HOPS: usize = 4;

/// A fixed-capacity, copyable path of link hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    hops: [LinkId; MAX_HOPS],
    len: u8,
}

impl Path {
    pub fn single(link: LinkId) -> Path {
        Path { hops: [link; MAX_HOPS], len: 1 }
    }

    /// Build a multi-hop path (1..=MAX_HOPS hops).
    pub fn of(hops: &[LinkId]) -> Path {
        assert!(!hops.is_empty() && hops.len() <= MAX_HOPS, "1..={MAX_HOPS} hops");
        let mut arr = [hops[0]; MAX_HOPS];
        arr[..hops.len()].copy_from_slice(hops);
        Path { hops: arr, len: hops.len() as u8 }
    }

    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    pub fn hop(&self, i: usize) -> LinkId {
        debug_assert!(i < self.len());
        self.hops[i]
    }

    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.hops[..self.len()].iter().copied()
    }
}

/// Standard Ethernet-era constants used throughout the simulator.
pub mod wire {
    /// Maximum segment size: TCP payload bytes per full segment.
    pub const MSS: u32 = 1460;
    /// IP + TCP header overhead per segment.
    pub const HEADER: u32 = 40;
    /// Full frame size of an MSS-sized segment.
    pub const FULL_FRAME: u32 = MSS + HEADER;
}

/// Number of MSS segments needed to carry `bytes` of payload.
pub fn segments_for(bytes: u64) -> u64 {
    bytes.div_ceil(u64::from(wire::MSS))
}

/// Wire size of segment `seq` in a transfer of `total_bytes`.
pub fn wire_bytes_for(seq: u64, total_bytes: u64) -> u32 {
    let nseg = segments_for(total_bytes);
    debug_assert!(seq < nseg, "segment {seq} out of range ({nseg} total)");
    if seq + 1 == nseg {
        let rem = total_bytes - seq * u64::from(wire::MSS);
        rem as u32 + wire::HEADER
    } else {
        wire::FULL_FRAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_count() {
        assert_eq!(segments_for(0), 0);
        assert_eq!(segments_for(1), 1);
        assert_eq!(segments_for(1460), 1);
        assert_eq!(segments_for(1461), 2);
        assert_eq!(segments_for(100 * 1024 * 1024), 71_821);
    }

    #[test]
    fn last_segment_is_short() {
        let total = 1460 * 2 + 100;
        assert_eq!(wire_bytes_for(0, total), wire::FULL_FRAME);
        assert_eq!(wire_bytes_for(1, total), wire::FULL_FRAME);
        assert_eq!(wire_bytes_for(2, total), 100 + wire::HEADER);
    }

    #[test]
    fn exact_multiple_has_full_last_segment() {
        let total = 1460 * 3;
        assert_eq!(wire_bytes_for(2, total), wire::FULL_FRAME);
    }
}
