//! The object model: identifiers, kinds, associations, stored objects.
//!
//! Two identifier spaces, exactly as Section 2.1 requires:
//!
//! * [`LogicalOid`] — the *experiment's* view: "the AOD object of event
//!   1234567". Objects "are supposed to simply exist" at this level;
//!   replication is invisible.
//! * [`Oid`] — the *storage* view: database / container / slot, the
//!   physical address inside one database file. Copying an object to a new
//!   file gives it a new `Oid` but the same `LogicalOid`.
//!
//! Navigational associations target logical ids; resolving one requires the
//! containing file to be attached locally — which is exactly how the
//! paper's "two files have to be treated as associated files" problem
//! arises.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// The object kinds of a HEP experiment's processing chain, with the
/// paper's size hierarchy ("100 byte to 10 MB objects").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ObjectKind {
    /// Event tag: ~100 B summary used by the first selection steps.
    Tag,
    /// Analysis Object Data: ~10 KB.
    Aod,
    /// Event Summary Data: ~100 KB reconstructed quantities.
    Esd,
    /// Raw detector readout: ~1 MB.
    Raw,
}

impl ObjectKind {
    pub const ALL: [ObjectKind; 4] =
        [ObjectKind::Tag, ObjectKind::Aod, ObjectKind::Esd, ObjectKind::Raw];

    /// Nominal object size in bytes (the Section 5.1 tiers, scaled so the
    /// simulations stay laptop-sized; ratios preserved).
    pub fn nominal_size(self) -> usize {
        match self {
            ObjectKind::Tag => 100,
            ObjectKind::Aod => 10 * 1024,
            ObjectKind::Esd => 100 * 1024,
            ObjectKind::Raw => 1024 * 1024,
        }
    }

    /// The kind this kind's objects were derived from (navigation target):
    /// TAG → AOD → ESD → RAW.
    pub fn upstream(self) -> Option<ObjectKind> {
        match self {
            ObjectKind::Tag => Some(ObjectKind::Aod),
            ObjectKind::Aod => Some(ObjectKind::Esd),
            ObjectKind::Esd => Some(ObjectKind::Raw),
            ObjectKind::Raw => None,
        }
    }

    pub fn code(self) -> u16 {
        match self {
            ObjectKind::Tag => 0,
            ObjectKind::Aod => 1,
            ObjectKind::Esd => 2,
            ObjectKind::Raw => 3,
        }
    }

    pub fn from_code(c: u16) -> Option<ObjectKind> {
        Some(match c {
            0 => ObjectKind::Tag,
            1 => ObjectKind::Aod,
            2 => ObjectKind::Esd,
            3 => ObjectKind::Raw,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Tag => "tag",
            ObjectKind::Aod => "aod",
            ObjectKind::Esd => "esd",
            ObjectKind::Raw => "raw",
        }
    }
}

/// Experiment-level object identity: (event number, kind). Unique per
/// federation and stable across replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LogicalOid {
    pub event: u64,
    pub kind: ObjectKind,
}

impl LogicalOid {
    pub fn new(event: u64, kind: ObjectKind) -> Self {
        LogicalOid { event, kind }
    }
}

/// The hasher of [`LogicalOid`] keys: a multiply-rotate fold of the
/// words the derived `Hash` writes (the event, then the kind's
/// discriminant). The keys are event numbers the grid's own producers
/// assign, read from images that arrive from authenticated sites, so
/// SipHash's keyed defence against crafted collisions is not worth its
/// cost on the object plane's per-object maps.
#[derive(Default)]
pub(crate) struct OidHasher(u64);

impl OidHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn word(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(Self::K);
    }
}

impl Hasher for OidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// The product's high bits are its best mixed; the rotation brings
    /// them down to where the table takes its bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by [`LogicalOid`], hashed with [`OidHasher`].
pub(crate) type OidMap<V> = HashMap<LogicalOid, V, BuildHasherDefault<OidHasher>>;

impl std::fmt::Display for LogicalOid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.kind.name(), self.event)
    }
}

/// Physical object address: `db::container::slot`, Objectivity-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Oid {
    pub db: u32,
    pub container: u32,
    pub slot: u64,
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}::{}", self.db, self.container, self.slot)
    }
}

/// A navigational association: a labelled link to another logical object.
/// A decoded image shares one allocation per distinct label among all its
/// objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Association {
    pub label: Arc<str>,
    pub target: LogicalOid,
}

/// One persistent object as stored in a container slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    pub logical: LogicalOid,
    /// Version: objects entrusted to replication are read-only after
    /// creation; new content means a new version (Section 2.1).
    pub version: u32,
    pub payload: Bytes,
    pub assocs: Vec<Association>,
}

impl StoredObject {
    pub fn size_bytes(&self) -> u64 {
        self.payload.len() as u64
    }
}

/// An object a producer writes fresh: version `version` of `logical`,
/// with the synthetic payload of `len` bytes ([`synth_payload`]) and the
/// standard associations ([`standard_assocs`]). A federation writes such
/// objects straight into a file's image
/// ([`Federation::produce`](crate::Federation::produce)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshObject {
    pub logical: LogicalOid,
    pub version: u32,
    pub len: usize,
}

/// Deterministic synthetic payload for `(logical, version, len)`. A cheap
/// xorshift fill: reproducible, incompressible-looking, and verifiable.
pub fn synth_payload(logical: LogicalOid, version: u32, len: usize) -> Bytes {
    let mut out = vec![0; len];
    synth_fill(logical, version, &mut out);
    Bytes::from(out)
}

/// [`synth_payload`] written in place: fills `out` with the first
/// `out.len()` bytes of the payload of `(logical, version)`.
pub fn synth_fill(logical: LogicalOid, version: u32, out: &mut [u8]) {
    let mut state = logical
        .event
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(logical.kind.code()) << 32)
        .wrapping_add(u64::from(version))
        | 1;
    for chunk in out.chunks_mut(8) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
}

/// Standard associations of a freshly produced object: a link to its
/// upstream (larger, earlier-stage) object of the same event.
pub fn standard_assocs(logical: LogicalOid) -> Vec<Association> {
    standard_link(logical)
        .map(|(label, target)| Association { label: label.into(), target })
        .into_iter()
        .collect()
}

/// The one standard association of `logical`, as `(label, target)`, if
/// its kind has an upstream.
pub(crate) fn standard_link(logical: LogicalOid) -> Option<(&'static str, LogicalOid)> {
    let up = logical.kind.upstream()?;
    Some((up.name(), LogicalOid::new(logical.event, up)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        for k in ObjectKind::ALL {
            assert_eq!(ObjectKind::from_code(k.code()), Some(k));
        }
        assert_eq!(ObjectKind::from_code(99), None);
    }

    #[test]
    fn size_hierarchy_spans_tiers() {
        assert!(ObjectKind::Tag.nominal_size() < ObjectKind::Aod.nominal_size());
        assert!(ObjectKind::Aod.nominal_size() < ObjectKind::Esd.nominal_size());
        assert!(ObjectKind::Esd.nominal_size() < ObjectKind::Raw.nominal_size());
        // Paper: four orders of magnitude between tag and raw.
        let ratio = ObjectKind::Raw.nominal_size() / ObjectKind::Tag.nominal_size();
        assert!(ratio >= 10_000, "ratio {ratio}");
    }

    #[test]
    fn upstream_chain_terminates_at_raw() {
        let mut k = ObjectKind::Tag;
        let mut hops = 0;
        while let Some(up) = k.upstream() {
            k = up;
            hops += 1;
        }
        assert_eq!(k, ObjectKind::Raw);
        assert_eq!(hops, 3);
    }

    #[test]
    fn payload_is_deterministic_and_distinct() {
        let a = synth_payload(LogicalOid::new(7, ObjectKind::Aod), 1, 256);
        let b = synth_payload(LogicalOid::new(7, ObjectKind::Aod), 1, 256);
        let c = synth_payload(LogicalOid::new(8, ObjectKind::Aod), 1, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn payload_handles_odd_lengths() {
        assert_eq!(synth_payload(LogicalOid::new(1, ObjectKind::Tag), 0, 0).len(), 0);
        assert_eq!(synth_payload(LogicalOid::new(1, ObjectKind::Tag), 0, 3).len(), 3);
        assert_eq!(synth_payload(LogicalOid::new(1, ObjectKind::Tag), 0, 101).len(), 101);
    }

    #[test]
    fn a_shorter_payload_is_a_prefix_of_a_longer_one() {
        let l = LogicalOid::new(3, ObjectKind::Esd);
        let long = synth_payload(l, 2, 37);
        for len in [0, 1, 8, 13, 36] {
            let mut short = vec![0xaa; len];
            synth_fill(l, 2, &mut short);
            assert_eq!(short, long[..len], "length {len}");
        }
    }

    #[test]
    fn standard_assocs_link_upstream() {
        let tag = LogicalOid::new(5, ObjectKind::Tag);
        let assocs = standard_assocs(tag);
        assert_eq!(assocs.len(), 1);
        assert_eq!(assocs[0].target, LogicalOid::new(5, ObjectKind::Aod));
        assert!(standard_assocs(LogicalOid::new(5, ObjectKind::Raw)).is_empty());
    }
}
