//! Database files: the unit of replication.
//!
//! "A single file will generally contain many objects" (Section 2.1): a
//! [`DatabaseFile`] holds containers of persistent objects and serializes
//! to a flat byte image — the thing GridFTP actually moves and the replica
//! catalog actually names.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};

use crate::model::{
    standard_link, synth_fill, Association, FreshObject, LogicalOid, ObjectKind, Oid, StoredObject,
};

/// Binary format magic + version.
const MAGIC: &[u8; 8] = b"GDMPODB1";

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    BadMagic,
    Truncated,
    BadKindCode(u16),
    /// Trailing garbage after a well-formed image.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a GDMP object database image"),
            CodecError::Truncated => write!(f, "image truncated"),
            CodecError::BadKindCode(c) => write!(f, "unknown object kind code {c}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after image"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A container groups related objects inside a database file (Objectivity
/// clusters pages per container; we keep the grouping, not the paging).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Container {
    pub objects: Vec<StoredObject>,
}

/// One database file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseFile {
    /// Federation-assigned database id (stable within one federation).
    pub db_id: u32,
    /// File name as known to the storage layer and replica catalog.
    pub name: String,
    /// Schema requirements: `(type name, version)` pairs the destination
    /// federation must know before this file can be attached (the
    /// pre-processing contract of Section 4.1).
    pub required_schema: Vec<(String, u32)>,
    /// Containers, keyed by container id.
    pub containers: BTreeMap<u32, Container>,
}

impl DatabaseFile {
    pub fn new(db_id: u32, name: &str) -> Self {
        DatabaseFile {
            db_id,
            name: name.to_string(),
            required_schema: Vec::new(),
            containers: BTreeMap::new(),
        }
    }

    /// Append an object to a container (created on demand). Returns the
    /// physical OID assigned.
    pub fn insert(&mut self, container: u32, obj: StoredObject) -> Oid {
        let c = self.containers.entry(container).or_default();
        let slot = c.objects.len() as u64;
        c.objects.push(obj);
        Oid { db: self.db_id, container, slot }
    }

    /// Look up an object by physical address.
    pub fn get(&self, oid: Oid) -> Option<&StoredObject> {
        if oid.db != self.db_id {
            return None;
        }
        self.containers.get(&oid.container)?.objects.get(oid.slot as usize)
    }

    /// All objects with their physical addresses.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &StoredObject)> + '_ {
        self.containers.iter().flat_map(move |(cid, c)| {
            c.objects.iter().enumerate().map(move |(slot, o)| {
                (Oid { db: self.db_id, container: *cid, slot: slot as u64 }, o)
            })
        })
    }

    pub fn object_count(&self) -> usize {
        self.containers.values().map(|c| c.objects.len()).sum()
    }

    /// Total payload bytes (the dominant term of the file size).
    pub fn payload_bytes(&self) -> u64 {
        self.containers.values().flat_map(|c| &c.objects).map(StoredObject::size_bytes).sum()
    }

    // ---- codec -------------------------------------------------------------

    /// Serialize to the flat byte image stored in disk pools and shipped by
    /// GridFTP.
    pub fn encode(&self) -> Bytes {
        self.encode_requiring(&self.required_schema)
    }

    /// [`encode`](Self::encode) with `required_schema` stamped into the
    /// image in place of the file's own — what a federation exporting a
    /// file it keeps attached needs, without copying the file first.
    pub fn encode_requiring(&self, required_schema: &[(String, u32)]) -> Bytes {
        let records: usize =
            self.iter().map(|(_, o)| record_len(o.payload.len(), links(&o.assocs))).sum();
        let mut buf =
            ImageBuf::new(self.db_id, &self.name, required_schema, self.containers.len(), records);
        for (cid, c) in &self.containers {
            buf.put_container(*cid, c.objects.len());
            for o in &c.objects {
                let fill = |out: &mut [u8]| out.copy_from_slice(&o.payload);
                buf.put_record(o.logical, o.version, o.payload.len(), fill, links(&o.assocs));
            }
        }
        buf.finish()
    }

    /// The image of file `name` holding `objects` in container 0, in
    /// order — byte for byte what storing them one by one and encoding the
    /// file would give — written in one pass, each payload synthesized in
    /// place.
    pub(crate) fn produce_image(
        db_id: u32,
        name: &str,
        required_schema: &[(String, u32)],
        objects: &[FreshObject],
    ) -> Bytes {
        let records: usize =
            objects.iter().map(|o| record_len(o.len, standard_link(o.logical).into_iter())).sum();
        let containers = usize::from(!objects.is_empty());
        let mut buf = ImageBuf::new(db_id, name, required_schema, containers, records);
        if containers == 1 {
            buf.put_container(0, objects.len());
        }
        for o in objects {
            let fill = |out: &mut [u8]| synth_fill(o.logical, o.version, out);
            buf.put_record(o.logical, o.version, o.len, fill, standard_link(o.logical).into_iter());
        }
        buf.finish()
    }

    /// Decode an image produced by [`DatabaseFile::encode`].
    pub fn decode(mut data: Bytes) -> Result<DatabaseFile, CodecError> {
        let buf = &mut data;
        if buf.remaining() < MAGIC.len() {
            return Err(CodecError::Truncated);
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let db_id = get_u32(buf)?;
        let name = get_str(buf)?;
        let nschema = get_u16(buf)?;
        let mut required_schema = Vec::with_capacity(usize::from(nschema));
        for _ in 0..nschema {
            let ty = get_str(buf)?;
            let v = get_u32(buf)?;
            required_schema.push((ty, v));
        }
        let ncont = get_u32(buf)?;
        let mut containers = BTreeMap::new();
        let mut labels = Vec::new();
        for _ in 0..ncont {
            let cid = get_u32(buf)?;
            let nobj = get_u64(buf)?;
            let mut objects = Vec::with_capacity(nobj.min(1 << 20) as usize);
            for _ in 0..nobj {
                let event = get_u64(buf)?;
                let code = get_u16(buf)?;
                let kind = ObjectKind::from_code(code).ok_or(CodecError::BadKindCode(code))?;
                let version = get_u32(buf)?;
                let plen = get_u32(buf)? as usize;
                if buf.remaining() < plen {
                    return Err(CodecError::Truncated);
                }
                let payload = buf.copy_to_bytes(plen);
                let nassoc = get_u16(buf)?;
                let mut assocs = Vec::with_capacity(usize::from(nassoc));
                for _ in 0..nassoc {
                    let label = get_label(buf, &mut labels)?;
                    let ev = get_u64(buf)?;
                    let kc = get_u16(buf)?;
                    let k = ObjectKind::from_code(kc).ok_or(CodecError::BadKindCode(kc))?;
                    assocs.push(Association { label, target: LogicalOid::new(ev, k) });
                }
                objects.push(StoredObject {
                    logical: LogicalOid::new(event, kind),
                    version,
                    payload,
                    assocs,
                });
            }
            containers.insert(cid, Container { objects });
        }
        if buf.has_remaining() {
            return Err(CodecError::TrailingBytes(buf.remaining()));
        }
        Ok(DatabaseFile { db_id, name, required_schema, containers })
    }
}

/// An image being written: the layout's one writer, shared by the encoder
/// and the producer. Sized exactly up front, so the image is written in
/// place and handed over without a copy.
struct ImageBuf {
    buf: Vec<u8>,
}

impl ImageBuf {
    /// The header of an image of `containers` containers whose container
    /// headers and records take `records` bytes besides.
    fn new(
        db_id: u32,
        name: &str,
        required_schema: &[(String, u32)],
        containers: usize,
        records: usize,
    ) -> Self {
        let schema: usize = required_schema.iter().map(|(ty, _)| 6 + ty.len()).sum();
        let len = MAGIC.len() + 4 + 2 + name.len() + 2 + schema + 4 + 12 * containers + records;
        let mut buf = Vec::with_capacity(len);
        buf.put_slice(MAGIC);
        buf.put_u32_le(db_id);
        put_str(&mut buf, name);
        buf.put_u16_le(required_schema.len() as u16);
        for (ty, v) in required_schema {
            put_str(&mut buf, ty);
            buf.put_u32_le(*v);
        }
        buf.put_u32_le(containers as u32);
        ImageBuf { buf }
    }

    fn put_container(&mut self, cid: u32, objects: usize) {
        self.buf.put_u32_le(cid);
        self.buf.put_u64_le(objects as u64);
    }

    /// One object record; `fill` writes its `len` payload bytes in place.
    fn put_record<'a>(
        &mut self,
        logical: LogicalOid,
        version: u32,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
        assocs: impl ExactSizeIterator<Item = (&'a str, LogicalOid)>,
    ) {
        let buf = &mut self.buf;
        buf.put_u64_le(logical.event);
        buf.put_u16_le(logical.kind.code());
        buf.put_u32_le(version);
        buf.put_u32_le(len as u32);
        let at = buf.len();
        buf.resize(at + len, 0);
        fill(&mut buf[at..]);
        buf.put_u16_le(assocs.len() as u16);
        for (label, target) in assocs {
            put_str(buf, label);
            buf.put_u64_le(target.event);
            buf.put_u16_le(target.kind.code());
        }
    }

    fn finish(self) -> Bytes {
        debug_assert_eq!(self.buf.len(), self.buf.capacity(), "image sized exactly");
        Bytes::from(self.buf)
    }
}

/// Bytes [`ImageBuf::put_record`] writes for a payload of `len` bytes and
/// these associations.
fn record_len<'a>(len: usize, assocs: impl Iterator<Item = (&'a str, LogicalOid)>) -> usize {
    20 + len + assocs.map(|(label, _)| 12 + label.len()).sum::<usize>()
}

/// A stored object's associations as the record writer takes them.
fn links(assocs: &[Association]) -> impl ExactSizeIterator<Item = (&str, LogicalOid)> {
    assocs.iter().map(|a| (&*a.label, a.target))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    let len = usize::from(get_u16(buf)?);
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Truncated)
}

/// Distinct labels an image's decode shares; any beyond are allocated per
/// association, which keeps the search for a seen label short whatever
/// the image holds.
const SHARED_LABELS: usize = 16;

/// An association label, shared with every earlier one of the same text
/// in `seen` (the first distinct labels of this image): an image holds
/// about one distinct label, so each is allocated once per image, not per
/// object.
fn get_label(buf: &mut Bytes, seen: &mut Vec<Arc<str>>) -> Result<Arc<str>, CodecError> {
    let len = usize::from(get_u16(buf)?);
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let raw = &buf[..len];
    let label = match seen.iter().find(|l| l.as_bytes() == raw) {
        Some(label) => label.clone(),
        None => {
            let label: Arc<str> =
                std::str::from_utf8(raw).map_err(|_| CodecError::Truncated)?.into();
            if seen.len() < SHARED_LABELS {
                seen.push(label.clone());
            }
            label
        }
    };
    buf.advance(len);
    Ok(label)
}

macro_rules! getter {
    ($name:ident, $ty:ty, $get:ident, $n:expr) => {
        fn $name(buf: &mut Bytes) -> Result<$ty, CodecError> {
            if buf.remaining() < $n {
                return Err(CodecError::Truncated);
            }
            Ok(buf.$get())
        }
    };
}

getter!(get_u16, u16, get_u16_le, 2);
getter!(get_u32, u32, get_u32_le, 4);
getter!(get_u64, u64, get_u64_le, 8);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{standard_assocs, synth_payload};

    fn sample() -> DatabaseFile {
        let mut db = DatabaseFile::new(7, "events.42.db");
        for event in 0..20 {
            let logical = LogicalOid::new(event, ObjectKind::Aod);
            db.insert(
                (event % 3) as u32,
                StoredObject {
                    logical,
                    version: 1,
                    payload: synth_payload(logical, 1, 64 + event as usize),
                    assocs: standard_assocs(logical),
                },
            );
        }
        db
    }

    #[test]
    fn insert_assigns_sequential_slots() {
        let mut db = DatabaseFile::new(1, "x.db");
        let l = LogicalOid::new(0, ObjectKind::Tag);
        let o1 = db.insert(
            0,
            StoredObject { logical: l, version: 1, payload: Bytes::new(), assocs: vec![] },
        );
        let o2 = db.insert(
            0,
            StoredObject { logical: l, version: 2, payload: Bytes::new(), assocs: vec![] },
        );
        assert_eq!((o1.slot, o2.slot), (0, 1));
        assert_eq!(db.get(o2).unwrap().version, 2);
        assert!(db.get(Oid { db: 2, container: 0, slot: 0 }).is_none());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut db = sample();
        db.required_schema = vec![("aod".into(), 2), ("jet".into(), 1)];
        let img = db.encode();
        let back = DatabaseFile::decode(img).unwrap();
        assert_eq!(db, back);
        assert_eq!(back.object_count(), 20);
        assert_eq!(back.required_schema.len(), 2);
    }

    #[test]
    fn truncated_image_rejected() {
        let img = sample().encode();
        for cut in [0, 4, 8, 20, img.len() - 1] {
            let maimed = img.slice(0..cut);
            assert!(DatabaseFile::decode(maimed).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut v = sample().encode().to_vec();
        v[0] ^= 0xff;
        assert_eq!(DatabaseFile::decode(Bytes::from(v)), Err(CodecError::BadMagic));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut v = sample().encode().to_vec();
        v.push(0);
        assert_eq!(DatabaseFile::decode(Bytes::from(v)), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn corrupted_kind_code_rejected() {
        let db = sample();
        let img = db.encode().to_vec();
        // Find the first kind code (right after magic+dbid+name+counts+event).
        // Instead of byte surgery at a fragile offset, flip every possible
        // 2-byte window and require decode to never panic.
        let mut rejected = 0;
        for i in 0..img.len().saturating_sub(1) {
            let mut v = img.clone();
            v[i] = 0xff;
            v[i + 1] = 0xff;
            if DatabaseFile::decode(Bytes::from(v)).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
    }

    #[test]
    fn iter_matches_count_and_get() {
        let db = sample();
        let mut n = 0;
        for (oid, obj) in db.iter() {
            assert_eq!(db.get(oid).unwrap(), obj);
            n += 1;
        }
        assert_eq!(n, db.object_count());
    }

    #[test]
    fn payload_bytes_sums_objects() {
        let db = sample();
        let expect: u64 = (0..20u64).map(|e| 64 + e).sum();
        assert_eq!(db.payload_bytes(), expect);
    }
}
