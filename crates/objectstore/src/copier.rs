//! The object copier tool (Section 5, Figure 2 bottom).
//!
//! "On the source site, an object copier tool is used to copy the objects
//! that need to be replicated into a new file." The copier reads selected
//! objects out of the local federation and packs them into fresh database
//! files, chunked to a maximum size so copying and wide-area transfer can
//! be pipelined (Section 5.2).
//!
//! Section 5.3 observes the copier's real cost: extra file-system I/O calls
//! and context switches per byte, i.e. more CPU and disk I/O per network
//! byte than plain file replication. The copier therefore reports a cost
//! model alongside its output.

use gdmp_simnet::time::SimDuration;

use crate::database::DatabaseFile;
use crate::federation::{FedError, Federation};
use crate::model::LogicalOid;

/// Performance model of the copier host (Section 5.3's "server powerful
/// enough in terms of disk I/O and CPU resources").
#[derive(Debug, Clone, Copy)]
pub struct CopierSpec {
    /// Sustained copy throughput, bytes/second (disk read + write + CPU).
    pub bytes_per_sec: u64,
    /// Fixed overhead per object (lookup, syscall, context switch).
    pub per_object_ns: u64,
    /// Maximum size of each produced file; larger selections are chunked.
    pub max_file_bytes: u64,
}

impl CopierSpec {
    /// A well-provisioned 2001 disk server: 30 MB/s, 20 µs per object,
    /// 1 GB chunks.
    pub fn classic() -> Self {
        CopierSpec { bytes_per_sec: 30_000_000, per_object_ns: 20_000, max_file_bytes: 1 << 30 }
    }
}

/// What one extraction run cost and produced.
#[derive(Debug, Clone, Default)]
pub struct CopyStats {
    pub objects_copied: usize,
    pub bytes_copied: u64,
    pub files_produced: usize,
    /// Modelled busy time of the copier host.
    pub cpu_time: SimDuration,
}

/// The copier tool bound to a host performance model.
#[derive(Debug, Clone, Copy)]
pub struct ObjectCopier {
    pub spec: CopierSpec,
}

impl ObjectCopier {
    pub fn new(spec: CopierSpec) -> Self {
        ObjectCopier { spec }
    }

    /// Copy `objects` (all must be resolvable in `fed`) into new database
    /// files named `{out_prefix}.{i}.db`, each at most `max_file_bytes`.
    ///
    /// The source federation is only read; the produced files are *not*
    /// attached anywhere — they are hand-off artifacts for the transfer
    /// layer (and are deleted at the source after a successful transfer).
    pub fn extract(
        &self,
        fed: &mut Federation,
        objects: &[LogicalOid],
        out_prefix: &str,
    ) -> Result<(Vec<DatabaseFile>, CopyStats), FedError> {
        let mut stats = CopyStats::default();
        let mut out: Vec<DatabaseFile> = Vec::new();
        let mut current: Option<(DatabaseFile, u64)> = None;

        for &logical in objects {
            let obj = fed.get(logical)?.clone();
            let size = obj.size_bytes();
            let need_new = match &current {
                None => true,
                Some((_, fill)) => *fill + size > self.spec.max_file_bytes && *fill > 0,
            };
            if need_new {
                if let Some((done, _)) = current.take() {
                    out.push(done);
                }
                let name = format!("{out_prefix}.{}.db", out.len());
                current = Some((DatabaseFile::new(0, &name), 0));
            }
            let (db, fill) = current.as_mut().expect("just ensured");
            db.insert(0, obj);
            *fill += size;
            stats.objects_copied += 1;
            stats.bytes_copied += size;
        }
        if let Some((done, _)) = current.take() {
            out.push(done);
        }
        for db in &mut out {
            db.required_schema = fed.schema_requirements_of(db);
        }
        stats.files_produced = out.len();
        stats.cpu_time = self.cost(stats.objects_copied, stats.bytes_copied);
        Ok((out, stats))
    }

    /// Modelled copier busy time for a given amount of work.
    pub fn cost(&self, objects: usize, bytes: u64) -> SimDuration {
        let stream = SimDuration::from_secs_f64(bytes as f64 / self.spec.bytes_per_sec as f64);
        let per_obj = SimDuration::from_nanos(objects as u64 * self.spec.per_object_ns);
        stream + per_obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{standard_assocs, synth_payload, ObjectKind, StoredObject};

    fn fed(n: u64, kind: ObjectKind, payload: usize) -> Federation {
        let mut fed = Federation::new("src");
        fed.create_database("bulk.db").unwrap();
        for e in 0..n {
            let logical = LogicalOid::new(e, kind);
            fed.store(
                "bulk.db",
                (e % 4) as u32,
                StoredObject {
                    logical,
                    version: 1,
                    payload: synth_payload(logical, 1, payload),
                    assocs: standard_assocs(logical),
                },
            )
            .unwrap();
        }
        fed
    }

    fn copier(max_file: u64) -> ObjectCopier {
        ObjectCopier::new(CopierSpec {
            bytes_per_sec: 30_000_000,
            per_object_ns: 20_000,
            max_file_bytes: max_file,
        })
    }

    #[test]
    fn extracts_exactly_the_selection() {
        let mut f = fed(100, ObjectKind::Aod, 1000);
        let wanted: Vec<_> =
            (0..100).step_by(7).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
        let (files, stats) = copier(1 << 30).extract(&mut f, &wanted, "sel").unwrap();
        assert_eq!(stats.objects_copied, wanted.len());
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].object_count(), wanted.len());
        assert_eq!(stats.bytes_copied, wanted.len() as u64 * 1000);
        // Every wanted object is present; nothing else.
        let got: Vec<_> = files[0].iter().map(|(_, o)| o.logical).collect();
        assert_eq!(got, wanted);
    }

    #[test]
    fn chunks_by_max_file_size() {
        let mut f = fed(10, ObjectKind::Aod, 1000);
        let wanted: Vec<_> = (0..10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
        let (files, stats) = copier(3500).extract(&mut f, &wanted, "sel").unwrap();
        // 3 objects of 1000 B fit under 3500; 10 objects → 4 files.
        assert_eq!(files.len(), 4);
        assert_eq!(stats.files_produced, 4);
        let total: usize = files.iter().map(DatabaseFile::object_count).sum();
        assert_eq!(total, 10);
        assert_eq!(files[0].name, "sel.0.db");
        assert_eq!(files[3].name, "sel.3.db");
    }

    #[test]
    fn oversized_object_gets_its_own_file() {
        let mut f = fed(2, ObjectKind::Aod, 5000);
        let wanted: Vec<_> = (0..2).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
        // max_file smaller than one object: each object still ships.
        let (files, _) = copier(1000).extract(&mut f, &wanted, "big").unwrap();
        assert_eq!(files.len(), 2);
    }

    #[test]
    fn missing_object_aborts() {
        let mut f = fed(5, ObjectKind::Aod, 100);
        let wanted = vec![LogicalOid::new(999, ObjectKind::Aod)];
        assert!(matches!(
            copier(1 << 30).extract(&mut f, &wanted, "x"),
            Err(FedError::UnknownObject(_))
        ));
    }

    #[test]
    fn empty_selection_produces_nothing() {
        let mut f = fed(5, ObjectKind::Aod, 100);
        let (files, stats) = copier(1 << 30).extract(&mut f, &[], "x").unwrap();
        assert!(files.is_empty());
        assert_eq!(stats.objects_copied, 0);
        assert_eq!(stats.cpu_time, SimDuration::ZERO);
    }

    #[test]
    fn cost_model_scales_with_bytes_and_objects() {
        let c = copier(1 << 30);
        let small = c.cost(10, 10_000);
        let more_bytes = c.cost(10, 10_000_000);
        let more_objs = c.cost(10_000, 10_000);
        assert!(more_bytes > small);
        assert!(more_objs > small);
        // 30 MB at 30 MB/s ≈ 1 s.
        let s = c.cost(0, 30_000_000).as_secs_f64();
        assert!((0.99..1.01).contains(&s));
    }

    #[test]
    fn extraction_files_are_access_clustered() {
        // Section 5.1's link to \[Holt98\]: the copier's output is clustered
        // by construction — the requesting analysis reads it with minimal
        // page I/O, while the same read against the source file touches
        // nearly every page.
        use crate::recluster::trace_page_reads;
        let mut f = fed(1000, ObjectKind::Aod, 100);
        let wanted: Vec<_> =
            (0..1000).step_by(10).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
        let (files, _) = copier(1 << 30).extract(&mut f, &wanted, "sel").unwrap();
        let trace = vec![wanted.clone()];
        let page = 1000; // 10 objects per page
        let source_reads = {
            let src = f.file("bulk.db").unwrap();
            trace_page_reads(src, page, &trace)
        };
        let extract_reads = trace_page_reads(&files[0], page, &trace);
        assert!(
            extract_reads * 5 <= source_reads,
            "extraction file: {extract_reads} page reads vs source: {source_reads}"
        );
    }

    #[test]
    fn produced_files_decode_after_encode() {
        let mut f = fed(20, ObjectKind::Tag, 100);
        let wanted: Vec<_> = (0..20).map(|e| LogicalOid::new(e, ObjectKind::Tag)).collect();
        let (files, _) = copier(1 << 30).extract(&mut f, &wanted, "t").unwrap();
        let img = files[0].encode();
        let back = DatabaseFile::decode(img).unwrap();
        assert_eq!(back.object_count(), 20);
    }
}
