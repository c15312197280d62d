//! Publish and notify (Section 4.1): a producer stores and registers a
//! file and notifies its subscribers; a consumer drains its import queue
//! behind a per-file backoff. The one step that registers a new replica
//! — published, installed by the Data Mover, or extracted from objects —
//! lives here too.

use bytes::Bytes;
use gdmp_gridftp::crc::crc32;
use gdmp_intern::SiteId;
use gdmp_replica_catalog::service::FileMeta;
use gdmp_simnet::time::{SimDuration, SimTime};

use crate::error::{GdmpError, Result};
use crate::grid::{Grid, ReplicationReport};
use crate::message::{FileNotice, Request};

impl Grid {
    /// Publish a file: store it locally (disk + tape), register it in the
    /// replica catalog, and notify all subscribers.
    pub fn publish_file(
        &mut self,
        site_name: &str,
        lfn: &str,
        data: Bytes,
        file_type: &str,
    ) -> Result<FileMeta> {
        let reg = self.telemetry.clone();
        let span = reg.span_start("publish", self.clock.nanos());
        reg.span_note(span, "site", site_name);
        reg.span_note(span, "lfn", lfn);
        reg.span_note(span, "bytes", data.len() as u64);
        let meta = FileMeta {
            size: data.len() as u64,
            modified: self.gsi_now(),
            crc32: crc32(&data),
            file_type: file_type.to_string(),
        };
        let result = (|| {
            self.site_mut(site_name)?.storage.store(lfn, data, true)?;
            let notice = FileNotice {
                lfn: lfn.to_string(),
                meta: meta.clone(),
                origin: site_name.to_string(),
            };
            self.register_replica(site_name, notice.clone(), true)?;
            // Notify every subscriber (one RPC each).
            let subscribers: Vec<String> =
                self.site(site_name)?.subscribers.iter().cloned().collect();
            reg.span_note(span, "subscribers", subscribers.len() as u64);
            for sub in subscribers {
                let req = Request::Notify { notices: vec![notice.clone()] };
                match self.rpc(site_name, &sub, req) {
                    Ok(_) => {}
                    Err(e) if e.is_retryable() => {
                        // The paper's Request Manager: queue the message for
                        // the unreachable subscriber and send it on recovery.
                        reg.counter_add("notices_journaled", &[("site", site_name)], 1);
                        reg.record(
                            self.clock.nanos(),
                            "notice_journaled",
                            format!("{lfn} for {sub}: {e}"),
                        );
                        self.site_mut(site_name)?.journal.push((sub, notice.clone()));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(meta)
        })();
        if result.is_ok() {
            reg.counter_add("files_published", &[("site", site_name)], 1);
        }
        reg.span_end(span, self.clock.nanos());
        result
    }

    /// Make a new replica at `site` visible to the grid, the one way every
    /// copy is registered: in the central catalog (a new logical file
    /// when `first_copy`, else one more location of a known one), in the
    /// site's LRC when the federated catalog is on (the authoritative
    /// record; soft state reaches the RLI tree on the next rounds), and
    /// in the site's export catalog as `notice`.
    pub(crate) fn register_replica(
        &mut self,
        site: &str,
        notice: FileNotice,
        first_copy: bool,
    ) -> Result<()> {
        let url = self.site(site)?.url_prefix.clone();
        if first_copy {
            self.catalog.publish(Some(&notice.lfn), site, &url, &notice.meta)?;
        } else {
            self.catalog.add_replica(&notice.lfn, site, &url)?;
        }
        if let Some(fed) = self.federation.as_mut() {
            fed.publish(site, &notice.lfn);
        }
        self.site_mut(site)?.export_catalog.push(notice);
        Ok(())
    }

    /// Publish an Objectivity database file straight out of the site's
    /// federation, recording its objects in the global object view. A file
    /// the federation produced and has not changed is published as the
    /// image it was written as: its objects, the disk pool and the archive
    /// then share one buffer.
    pub fn publish_database(&mut self, site_name: &str, file_name: &str) -> Result<FileMeta> {
        let (image, objects) = {
            let site = self.site(site_name)?;
            let image = site.federation.export(file_name)?;
            let objects: Vec<_> = site
                .federation
                .file(file_name)
                .expect("export succeeded")
                .iter()
                .map(|(_, o)| o.logical)
                .collect();
            (image, objects)
        };
        self.object_view.record_file(file_name, &objects);
        self.publish_file(site_name, file_name, image, "objectivity")
    }

    /// Drain the destination's import queue, replicating every notified
    /// file not yet held locally.
    pub fn replicate_pending(&mut self, dst: &str) -> Result<Vec<ReplicationReport>> {
        let mut pending: Vec<FileNotice> = self.site(dst)?.import_queue.clone();
        let dst_id = self.intern_site(dst);
        // Files deferred by an earlier pass sort by their backoff deadline;
        // never-deferred files carry deadline zero and keep FIFO order up
        // front (the sort is stable). A file serving a long backoff thus
        // cannot head-of-line-block fresh work behind it. The sort key is
        // an id-pair probe — no per-notice key allocation.
        pending.sort_by_key(|notice| {
            self.lfns
                .try_id(&notice.lfn)
                .and_then(|lfn| self.defer_state.get(&(dst_id, lfn)))
                .map(|&(deadline, _)| deadline)
                .unwrap_or(SimTime::ZERO)
        });
        let reg = self.telemetry.clone();
        let span = reg.span_start("replicate_pending", self.clock.nanos());
        reg.span_note(span, "dst", dst);
        reg.span_note(span, "pending", pending.len() as u64);
        let mut out = Vec::new();
        let mut deferred: u64 = 0;
        for notice in pending {
            match self.replicate(dst, &notice.lfn) {
                Ok(r) => {
                    self.clear_defer(dst_id, &notice.lfn);
                    out.push(r);
                }
                Err(GdmpError::AlreadyReplicated { .. }) => {
                    self.clear_defer(dst_id, &notice.lfn);
                    self.site_mut(dst)?.import_queue.retain(|n| n.lfn != notice.lfn);
                }
                Err(e) if e.is_retryable() => {
                    // A down source or severed link fails one file, not the
                    // whole drain: the notice stays queued for a later pass.
                    deferred += 1;
                    self.defer(dst_id, &notice.lfn);
                    reg.counter_add("replications_deferred", &[("dst", dst)], 1);
                    reg.record(
                        self.clock.nanos(),
                        "replication_deferred",
                        format!("{} -> {dst}: {e}", notice.lfn),
                    );
                }
                Err(e) => {
                    reg.span_end(span, self.clock.nanos());
                    return Err(e);
                }
            }
        }
        if deferred > 0 {
            reg.span_note(span, "deferred", deferred);
        }
        reg.span_note(span, "replicated", out.len() as u64);
        reg.span_end(span, self.clock.nanos());
        Ok(out)
    }

    /// Put `(dst, lfn)` behind an exponentially growing backoff deadline:
    /// 0.5 s after its first defer, doubling per consecutive defer, at
    /// most 30 s.
    fn defer(&mut self, dst: SiteId, lfn: &str) {
        let lfn = self.lfns.intern(lfn);
        let entry = self.defer_state.entry((dst, lfn)).or_insert((SimTime::ZERO, 0));
        entry.1 = entry.1.saturating_add(1);
        let backoff_ns = SimDuration::from_millis(500)
            .nanos()
            .saturating_mul(1 << u64::from((entry.1 - 1).min(6)))
            .min(SimDuration::from_secs(30).nanos());
        entry.0 = self.clock + SimDuration::from_nanos(backoff_ns);
    }

    /// Drop the defer-backoff entry for `(dst, lfn)`, if any. A never-
    /// deferred lfn may not be interned; that means no entry either.
    fn clear_defer(&mut self, dst: SiteId, lfn: &str) {
        if let Some(lfn) = self.lfns.try_id(lfn) {
            self.defer_state.remove(&(dst, lfn));
        }
    }
}
