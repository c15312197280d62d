//! The object replication service (Section 5).
//!
//! The complete cycle, exactly as the paper lists it:
//!
//! 1. objects needed at the destination are identified as a group, up
//!    front;
//! 2. the ones not yet present are resolved against the global view in
//!    one collective lookup, yielding source files and sites;
//! 3. on each source site the object copier packs them into new files,
//!    which are shipped with the ordinary wide-area file machinery —
//!    copying and transport are *pipelined*;
//! 4. the new files on the target are first-class citizens: attached to
//!    the destination federation, recorded in the object view and the
//!    replica catalog (future requests may extract from them);
//! 5. the temporary files are deleted at the source.

use std::collections::BTreeMap;

use gdmp_objectstore::{CopierSpec, LogicalOid, ObjectCopier};
use gdmp_replica_catalog::service::FileMeta;
use gdmp_simnet::time::{SimDuration, SimTime};

use crate::error::{GdmpError, Result};
use crate::grid::Grid;
use crate::message::FileNotice;

/// Knobs for one object replication request.
#[derive(Debug, Clone, Copy)]
pub struct ObjectReplicationConfig {
    pub copier: CopierSpec,
    /// Pipeline chunk copying with transport (Section 5.2) or run the two
    /// phases back-to-back (the ablation baseline).
    pub pipelined: bool,
}

impl Default for ObjectReplicationConfig {
    fn default() -> Self {
        ObjectReplicationConfig { copier: CopierSpec::classic(), pipelined: true }
    }
}

/// Outcome of one object replication cycle.
#[derive(Debug, Clone)]
pub struct ObjectReplicationReport {
    pub requested: usize,
    /// Objects skipped because the destination already had them.
    pub already_present: usize,
    pub objects_moved: usize,
    pub bytes_moved: u64,
    /// Extraction files created (now attached at the destination).
    pub chunk_files: Vec<String>,
    pub sources: Vec<String>,
    /// Total copier busy time across sources.
    pub copier_cpu: SimDuration,
    /// Total WAN data time across chunks.
    pub transfer_time: SimDuration,
    /// End-to-end wall time of the copy+transfer pipeline.
    pub makespan: SimDuration,
    pub started_at: SimTime,
    pub finished_at: SimTime,
}

impl Grid {
    /// Replicate the given objects (not files!) to `dst`.
    pub fn object_replicate(
        &mut self,
        dst: &str,
        wanted: &[LogicalOid],
        cfg: ObjectReplicationConfig,
    ) -> Result<ObjectReplicationReport> {
        let reg = self.telemetry().clone();
        let root = reg.span_start("object_replicate", self.now().nanos());
        reg.span_note(root, "dst", dst);
        reg.span_note(root, "requested", wanted.len() as u64);
        let result = self.object_replicate_flow(dst, wanted, cfg, &reg);
        match &result {
            Ok(r) => {
                reg.span_note(root, "objects_moved", r.objects_moved as u64);
                reg.span_note(root, "bytes_moved", r.bytes_moved);
                reg.counter_add("objrep_cycles", &[("result", "ok")], 1);
                reg.counter_add("objrep_objects_moved", &[], r.objects_moved as u64);
                reg.counter_add("objrep_bytes_moved", &[], r.bytes_moved);
            }
            Err(e) => {
                reg.span_note(root, "error", e.to_string());
                reg.counter_add("objrep_cycles", &[("result", "failed")], 1);
            }
        }
        reg.span_end(root, self.now().nanos());
        result
    }

    fn object_replicate_flow(
        &mut self,
        dst: &str,
        wanted: &[LogicalOid],
        cfg: ObjectReplicationConfig,
        reg: &gdmp_telemetry::Registry,
    ) -> Result<ObjectReplicationReport> {
        let started_at = self.now();
        if !self.has_site(dst) {
            return Err(GdmpError::NoSuchSite(dst.to_string()));
        }
        self.refuse_down_destination(dst)?;
        // Step 1: what is actually missing at the destination.
        let missing: Vec<LogicalOid> = {
            let dst_site = self.site(dst)?;
            wanted.iter().copied().filter(|o| !dst_site.federation.contains(*o)).collect()
        };
        let mut report = ObjectReplicationReport {
            requested: wanted.len(),
            already_present: wanted.len() - missing.len(),
            objects_moved: 0,
            bytes_moved: 0,
            chunk_files: Vec::new(),
            sources: Vec::new(),
            copier_cpu: SimDuration::ZERO,
            transfer_time: SimDuration::ZERO,
            makespan: SimDuration::ZERO,
            started_at,
            finished_at: started_at,
        };
        if missing.is_empty() {
            return Ok(report);
        }

        // Step 2: one collective lookup on the global view, assigning each
        // object to its *densest* holder: the file with the largest wanted
        // fraction. Extraction files created by earlier object replications
        // are exactly such dense sources — "they too are potential object
        // extraction sources for future requests".
        let (per_file, unresolved) = self.object_view.densest_sources(&missing);
        if !unresolved.is_empty() {
            return Err(GdmpError::ObjectsUnavailable(unresolved.len()));
        }

        // Resolve each holding file to a source site: the first replica
        // that has the file attached in its federation and that the
        // reachability gate lets `dst` reach. When every such holder is
        // refused, the first refusal is the (retryable) error.
        let mut per_source: BTreeMap<String, Vec<LogicalOid>> = BTreeMap::new();
        for (file, objects) in per_file {
            let info = self.catalog.info(&file)?;
            let mut refused = None;
            let mut source = None;
            for holder in info.replicas.iter().map(|r| r.location.as_str()) {
                let attached = self.site(holder).is_ok_and(|s| s.federation.is_attached(&file));
                if holder == dst || !attached {
                    continue;
                }
                match self.refusal(dst, holder, true) {
                    None => {
                        source = Some(holder.to_string());
                        break;
                    }
                    Some((_, e)) => {
                        refused.get_or_insert(e);
                    }
                }
            }
            let source = source
                .ok_or_else(|| refused.unwrap_or(GdmpError::ObjectsUnavailable(objects.len())))?;
            per_source.entry(source).or_default().extend(objects);
        }

        // Steps 3–5 per source; sources proceed in parallel, so the clock
        // advances by the slowest of them: the makespan.
        let copier = ObjectCopier::new(cfg.copier);
        self.objrep_seq += 1;
        let seq = self.objrep_seq;
        for (source, objects) in per_source {
            let src_span = reg.span_start("object_extract", self.now().nanos());
            reg.span_note(src_span, "source", source.as_str());
            reg.span_note(src_span, "objects", objects.len() as u64);
            let prefix = format!("objx.{seq}.{source}.to.{dst}");
            self.import_schema(&source, dst)?;
            let (chunks, stats) = {
                let src_site = self.site_mut(&source)?;
                copier.extract(&mut src_site.federation, &objects, &prefix)?
            };
            report.copier_cpu = report.copier_cpu + stats.cpu_time;
            report.objects_moved += stats.objects_copied;

            // Per-chunk copy and transfer times.
            let profile = self.profile_between(&source, dst);
            let mut copy_times = Vec::with_capacity(chunks.len());
            let mut xfer_times = Vec::with_capacity(chunks.len());
            let mut images = Vec::with_capacity(chunks.len());
            for chunk in &chunks {
                let image = chunk.encode();
                copy_times.push(copier.cost(chunk.object_count(), chunk.payload_bytes()));
                let r = self.session(&profile, image.len() as u64, false, reg);
                xfer_times.push(r.setup_time + r.data_time);
                report.transfer_time = report.transfer_time + r.data_time;
                report.bytes_moved += image.len() as u64;
                images.push(image);
            }
            let source_makespan = pipeline_makespan(&copy_times, &xfer_times, cfg.pipelined);
            report.makespan = report.makespan.max(source_makespan);

            // Step 4: first-class citizens at the destination.
            for (chunk, image) in chunks.iter().zip(images) {
                let objects_in_chunk: Vec<LogicalOid> =
                    chunk.iter().map(|(_, o)| o.logical).collect();
                let meta = FileMeta {
                    size: image.len() as u64,
                    modified: self.now().as_secs_f64() as u64,
                    crc32: gdmp_gridftp::crc::crc32(&image),
                    file_type: "objectivity".into(),
                };
                let dst_site = self.site_mut(dst)?;
                dst_site.storage.store(&chunk.name, image, false)?;
                dst_site
                    .federation
                    .attach(dst_site.storage.pool.peek(&chunk.name).expect("just stored"))?;
                let notice = FileNotice { lfn: chunk.name.clone(), meta, origin: source.clone() };
                self.register_replica(dst, notice, true)?;
                self.object_view.record_file(&chunk.name, &objects_in_chunk);
                report.chunk_files.push(chunk.name.clone());
            }
            // Step 5: nothing persists at the source — the extraction files
            // were streamed out and deleted ("the new file can be deleted
            // at the source site").
            reg.span_note(src_span, "chunks", chunks.len() as u64);
            reg.span_end(src_span, self.now().nanos());
            report.sources.push(source);
        }

        self.advance(report.makespan);
        report.finished_at = self.now();
        Ok(report)
    }

    /// What *file-level* replication would have to ship for the same set
    /// of objects (Section 5.1's comparison): the greedy whole-file cover
    /// over the global view, with file sizes from the replica catalog.
    pub fn file_level_cover(&mut self, wanted: &[LogicalOid]) -> gdmp_objectstore::FileCover {
        let catalog = &mut self.catalog;
        self.object_view.greedy_file_cover(wanted, |file| {
            catalog.info(file).map_or(UNCATALOGUED_FILE_BYTES, |info| info.meta.size)
        })
    }
}

/// What [`Grid::file_level_cover`] prices a file the replica catalog does
/// not know at: dearer than any real file, so the cover avoids it (the
/// cover's byte total saturates).
const UNCATALOGUED_FILE_BYTES: u64 = u64::MAX / 4;

impl Grid {
    /// Publish the current global object→file view as an index file
    /// (Section 5.2: "a global view of which objects exist where is
    /// maintained in a set of index files. These files are themselves
    /// maintained and replicated on demand using file-based replication by
    /// GDMP"). Returns the index file's logical name.
    pub fn publish_object_view_index(&mut self, site: &str) -> Result<String> {
        let snapshot = self.object_view.snapshot();
        let bytes = serde_json::to_vec(&snapshot).expect("snapshot serializes");
        self.objrep_seq += 1;
        let lfn = format!("gdmp.objectview.{:06}.idx", self.objrep_seq);
        self.publish_file(site, &lfn, bytes::Bytes::from(bytes), "flat")?;
        Ok(lfn)
    }

    /// Parse a replicated index file resident at `site` and rebuild the
    /// object→file view it encodes — how a late-joining site (or a
    /// recovering one) bootstraps its global view.
    pub fn load_object_view_index(
        &mut self,
        site: &str,
        lfn: &str,
    ) -> Result<gdmp_objectstore::ObjectFileCatalog> {
        let data = self
            .site(site)?
            .storage
            .pool
            .peek(lfn)
            .ok_or_else(|| GdmpError::NotPublished(lfn.to_string()))?;
        let snapshot: Vec<(String, Vec<LogicalOid>)> = serde_json::from_slice(&data)
            .map_err(|e| GdmpError::Plugin { file_type: "index".into(), message: e.to_string() })?;
        Ok(gdmp_objectstore::ObjectFileCatalog::from_snapshot(&snapshot))
    }
}

/// Two-stage pipeline makespan: chunk k's transfer starts when its copy is
/// done and the previous transfer has finished. Non-pipelined: all copies,
/// then all transfers.
fn pipeline_makespan(copy: &[SimDuration], xfer: &[SimDuration], pipelined: bool) -> SimDuration {
    if pipelined {
        let mut copy_done = SimDuration::ZERO;
        let mut xfer_done = SimDuration::ZERO;
        for (c, x) in copy.iter().zip(xfer) {
            copy_done = copy_done + *c;
            xfer_done = xfer_done.max(copy_done) + *x;
        }
        xfer_done
    } else {
        let total_copy: u64 = copy.iter().map(|d| d.nanos()).sum();
        let total_xfer: u64 = xfer.iter().map(|d| d.nanos()).sum();
        SimDuration(total_copy + total_xfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn pipeline_overlaps_stages() {
        let copy = vec![d(1.0), d(1.0), d(1.0)];
        let xfer = vec![d(2.0), d(2.0), d(2.0)];
        // Pipelined: first copy (1s) then transfers back-to-back (6s) = 7s.
        let p = pipeline_makespan(&copy, &xfer, true);
        assert!((p.as_secs_f64() - 7.0).abs() < 1e-9, "{p}");
        // Sequential: 3 + 6 = 9s.
        let s = pipeline_makespan(&copy, &xfer, false);
        assert!((s.as_secs_f64() - 9.0).abs() < 1e-9, "{s}");
        assert!(p < s);
    }

    #[test]
    fn copy_bound_pipeline() {
        // Slow copier, fast network: makespan ≈ total copy + last transfer.
        let copy = vec![d(5.0), d(5.0)];
        let xfer = vec![d(1.0), d(1.0)];
        let p = pipeline_makespan(&copy, &xfer, true);
        assert!((p.as_secs_f64() - 11.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn single_chunk_gains_nothing() {
        let copy = vec![d(3.0)];
        let xfer = vec![d(4.0)];
        assert_eq!(pipeline_makespan(&copy, &xfer, true), pipeline_makespan(&copy, &xfer, false));
    }

    #[test]
    fn empty_pipeline_is_zero() {
        assert_eq!(pipeline_makespan(&[], &[], true), SimDuration::ZERO);
        assert_eq!(pipeline_makespan(&[], &[], false), SimDuration::ZERO);
    }
}
