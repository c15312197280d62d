//! A replicated replica-catalog directory — the paper's future work.
//!
//! "We do not currently distribute or replicate the replica catalog but
//! instead, for simplicity, use a central replica catalog and a single
//! LDAP server... In the future, we will explore both distribution and
//! replication of the replica catalog." (Section 4.2)
//!
//! [`DirectoryCluster`] is that exploration: `n` LDAP replicas behind one
//! interface, eager primary-copy write propagation, round-robin read
//! load-sharing, replica failure and resynchronization.

use crate::ldap::{Attributes, Directory, Filter, LdapDn, LdapError, Scope, SearchResult};

/// Cluster-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    Ldap(LdapError),
    /// Every replica is down.
    NoReplicasLeft,
    /// Index out of range or replica already in that state.
    BadReplica(usize),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Ldap(e) => write!(f, "directory error: {e}"),
            ClusterError::NoReplicasLeft => write!(f, "no catalog replicas left"),
            ClusterError::BadReplica(i) => write!(f, "bad replica index {i}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<LdapError> for ClusterError {
    fn from(e: LdapError) -> Self {
        ClusterError::Ldap(e)
    }
}

/// Lifecycle of one cluster member. The dangerous transition is
/// `Down → Live`: a member that rejoins the read rotation *before* its
/// backfill completes serves pre-crash state. `Resyncing` makes the
/// window explicit — the member is back but serves no reads and takes no
/// writes until [`DirectoryCluster::complete_resync`] installs a fresh
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    Live,
    Down,
    /// Rejoined but not yet caught up: excluded from reads and writes.
    Resyncing,
}

struct Replica {
    dir: Directory,
    state: ReplicaState,
}

impl Replica {
    fn is_live(&self) -> bool {
        self.state == ReplicaState::Live
    }
}

/// `n` directory replicas: writes go to every live replica (eager,
/// primary-copy — the primary is the lowest-indexed live replica); reads
/// round-robin across live replicas.
pub struct DirectoryCluster {
    replicas: Vec<Replica>,
    /// Round-robin cursor for reads.
    cursor: usize,
    /// Writes applied (per write, each live replica pays one operation).
    pub writes: u64,
}

impl DirectoryCluster {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one replica");
        DirectoryCluster {
            replicas: (0..n)
                .map(|_| Replica { dir: Directory::new(), state: ReplicaState::Live })
                .collect(),
            cursor: 0,
            writes: 0,
        }
    }

    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    pub fn live_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_live()).count()
    }

    /// Members currently inside the resync window (rejoined, not serving).
    pub fn resyncing_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.state == ReplicaState::Resyncing).count()
    }

    fn primary_index(&self) -> Result<usize, ClusterError> {
        self.replicas.iter().position(|r| r.is_live()).ok_or(ClusterError::NoReplicasLeft)
    }

    /// Apply a write to every live replica; all must agree on the result
    /// (they hold identical state, so they do).
    fn write_all<T>(
        &mut self,
        op: impl Fn(&mut Directory) -> Result<T, LdapError>,
    ) -> Result<T, ClusterError> {
        let primary = self.primary_index()?;
        // Run on the primary first; on error nothing else is touched.
        // Resyncing members take no writes — the snapshot installed at
        // resync completion covers everything they miss in the window.
        let result = op(&mut self.replicas[primary].dir)?;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if i != primary && r.is_live() {
                op(&mut r.dir).expect("secondary replica diverged from primary");
            }
        }
        self.writes += 1;
        Ok(result)
    }

    /// Pick the next live replica round-robin. Resyncing members are NOT
    /// in the rotation: until their backfill completes they still hold
    /// pre-crash state, and a read served there could silently miss every
    /// write since the crash.
    fn next_reader(&mut self) -> Result<usize, ClusterError> {
        let n = self.replicas.len();
        for k in 0..n {
            let i = (self.cursor + k) % n;
            if self.replicas[i].is_live() {
                self.cursor = (i + 1) % n;
                return Ok(i);
            }
        }
        Err(ClusterError::NoReplicasLeft)
    }

    // ---- directory operations ------------------------------------------

    pub fn add(&mut self, dn: LdapDn, attributes: Attributes) -> Result<(), ClusterError> {
        self.write_all(|d| d.add(dn.clone(), attributes.clone()))
    }

    pub fn delete(&mut self, dn: &LdapDn) -> Result<(), ClusterError> {
        self.write_all(|d| d.delete(dn))
    }

    pub fn add_value(&mut self, dn: &LdapDn, attr: &str, value: &str) -> Result<(), ClusterError> {
        self.write_all(|d| d.add_value(dn, attr, value))
    }

    pub fn remove_value(
        &mut self,
        dn: &LdapDn,
        attr: &str,
        value: &str,
    ) -> Result<bool, ClusterError> {
        self.write_all(|d| d.remove_value(dn, attr, value))
    }

    /// Round-robin search across live replicas.
    pub fn search(
        &mut self,
        base: &LdapDn,
        scope: Scope,
        filter: &Filter,
    ) -> Result<Vec<SearchResult<'_>>, ClusterError> {
        let i = self.next_reader()?;
        Ok(self.replicas[i].dir.search(base, scope, filter))
    }

    pub fn get(&mut self, dn: &LdapDn) -> Result<Option<Attributes>, ClusterError> {
        let i = self.next_reader()?;
        Ok(self.replicas[i].dir.get(dn).cloned())
    }

    // ---- membership ------------------------------------------------------

    /// Take a replica down (crash). Reads and writes continue on the rest.
    /// A member mid-resync can crash again too.
    pub fn fail(&mut self, idx: usize) -> Result<(), ClusterError> {
        match self.replicas.get_mut(idx) {
            Some(r) if r.state != ReplicaState::Down => {
                r.state = ReplicaState::Down;
                Ok(())
            }
            _ => Err(ClusterError::BadReplica(idx)),
        }
    }

    /// Phase one of recovery: the member rejoins the cluster but enters
    /// the resync window — it serves no reads and takes no writes until
    /// [`complete_resync`](Self::complete_resync) installs its backfill.
    pub fn begin_recover(&mut self, idx: usize) -> Result<(), ClusterError> {
        match self.replicas.get_mut(idx) {
            Some(r) if r.state == ReplicaState::Down => {
                r.state = ReplicaState::Resyncing;
                Ok(())
            }
            _ => Err(ClusterError::BadReplica(idx)),
        }
    }

    /// Phase two: install a snapshot of the current primary — taken *now*,
    /// so every write that landed during the window is included — and put
    /// the member back in the read rotation.
    pub fn complete_resync(&mut self, idx: usize) -> Result<(), ClusterError> {
        let primary = self.primary_index()?;
        if primary == idx {
            return Err(ClusterError::BadReplica(idx));
        }
        let snapshot = self.replicas[primary].dir.clone();
        match self.replicas.get_mut(idx) {
            Some(r) if r.state == ReplicaState::Resyncing => {
                // The snapshot carries the primary's op counters; the
                // member keeps its own served-load history.
                let (reads, writes, examined) = (r.dir.read_ops, r.dir.write_ops, r.dir.examined);
                r.dir = snapshot;
                r.dir.read_ops = reads;
                r.dir.write_ops = writes;
                r.dir.examined = examined;
                r.state = ReplicaState::Live;
                Ok(())
            }
            _ => Err(ClusterError::BadReplica(idx)),
        }
    }

    /// Bring a replica back in one step: begin recovery and complete the
    /// resync atomically (no observable window).
    pub fn recover(&mut self, idx: usize) -> Result<(), ClusterError> {
        // Validate the primary exists before changing any state, so a
        // failed recover leaves the member Down rather than half-rejoined.
        let primary = self.primary_index()?;
        if primary == idx {
            return Err(ClusterError::BadReplica(idx));
        }
        self.begin_recover(idx)?;
        self.complete_resync(idx)
    }

    /// Consistency check: every live replica holds identical content.
    /// Members mid-resync are exempt — they are not serving.
    pub fn is_consistent(&self) -> bool {
        let mut live = self.replicas.iter().filter(|r| r.is_live());
        let Some(first) = live.next() else { return true };
        live.all(|r| r.dir.content_eq(&first.dir))
    }

    /// Per-replica read counters — the load-sharing evidence.
    pub fn read_load(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.dir.read_ops).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldap::attrs;

    fn seeded(n: usize) -> DirectoryCluster {
        let mut c = DirectoryCluster::new(n);
        c.add(LdapDn::parse("rc=GDMP").unwrap(), attrs(&[("objectclass", "root")])).unwrap();
        for i in 0..6 {
            c.add(
                LdapDn::parse(&format!("lc=c{i},rc=GDMP")).unwrap(),
                attrs(&[("objectclass", "col"), ("n", &i.to_string())]),
            )
            .unwrap();
        }
        c
    }

    #[test]
    fn writes_reach_every_replica() {
        let c = seeded(3);
        assert!(c.is_consistent());
        assert_eq!(c.live_count(), 3);
    }

    #[test]
    fn reads_round_robin_share_load() {
        let mut c = seeded(3);
        for _ in 0..30 {
            c.search(&LdapDn::ROOT, Scope::Subtree, &Filter::True).unwrap();
        }
        let load = c.read_load();
        assert_eq!(load.iter().sum::<u64>(), 30);
        for l in &load {
            assert_eq!(*l, 10, "uneven load: {load:?}");
        }
    }

    #[test]
    fn failure_redirects_reads_and_writes() {
        let mut c = seeded(3);
        c.fail(0).unwrap();
        c.add(LdapDn::parse("lc=late,rc=GDMP").unwrap(), attrs(&[("objectclass", "col")])).unwrap();
        for _ in 0..10 {
            c.search(&LdapDn::ROOT, Scope::Subtree, &Filter::True).unwrap();
        }
        assert!(c.is_consistent());
        let load = c.read_load();
        assert_eq!(load[0], 0, "failed replica served reads");
        assert_eq!(c.live_count(), 2);
    }

    #[test]
    fn recovery_resynchronizes() {
        let mut c = seeded(3);
        c.fail(2).unwrap();
        // Writes happen while replica 2 is down.
        c.add(LdapDn::parse("lc=missed,rc=GDMP").unwrap(), attrs(&[("objectclass", "col")]))
            .unwrap();
        c.delete(&LdapDn::parse("lc=c0,rc=GDMP").unwrap()).unwrap();
        c.recover(2).unwrap();
        assert!(c.is_consistent(), "recovered replica must resync");
        // It serves reads again and sees the missed write.
        let hit = c.get(&LdapDn::parse("lc=missed,rc=GDMP").unwrap()).unwrap();
        assert!(hit.is_some());
    }

    /// Regression: a member inside the resync window must serve NO reads.
    /// Under the old single-`alive`-flag design, a rejoining member was
    /// back in the round-robin rotation before its backfill installed, so
    /// one read in three would observe pre-crash state (here: miss a key
    /// written while the member was down).
    #[test]
    fn resync_window_reads_never_observe_pre_crash_state() {
        let mut c = seeded(3);
        c.fail(2).unwrap();
        // This write lands while replica 2 is down — its pre-crash state
        // does not contain it.
        let missed = LdapDn::parse("lc=missed,rc=GDMP").unwrap();
        c.add(missed.clone(), attrs(&[("objectclass", "col")])).unwrap();
        // Replica 2 rejoins but its resync has not completed.
        c.begin_recover(2).unwrap();
        assert_eq!(c.resyncing_count(), 1);
        // Every read during the window must see the missed key; with the
        // member prematurely in rotation, one in three returns None.
        for _ in 0..9 {
            assert!(
                c.get(&missed).unwrap().is_some(),
                "read observed pre-crash state during the resync window"
            );
        }
        assert_eq!(c.read_load()[2], 0, "resyncing member served reads");
        // Writes during the window are covered by the completion snapshot.
        let late = LdapDn::parse("lc=late,rc=GDMP").unwrap();
        c.add(late.clone(), attrs(&[("objectclass", "col")])).unwrap();
        c.complete_resync(2).unwrap();
        assert!(c.is_consistent(), "snapshot at completion covers window writes");
        assert_eq!(c.live_count(), 3);
        assert_eq!(c.resyncing_count(), 0);
        // The member still reports only its own served load, not the
        // primary's counters smuggled in by the snapshot.
        assert_eq!(c.read_load()[2], 0);
    }

    #[test]
    fn resync_member_can_crash_again() {
        let mut c = seeded(3);
        c.fail(1).unwrap();
        c.begin_recover(1).unwrap();
        c.fail(1).unwrap();
        assert_eq!(c.live_count(), 2);
        assert!(matches!(c.complete_resync(1), Err(ClusterError::BadReplica(1))));
        c.recover(1).unwrap();
        assert!(c.is_consistent());
    }

    #[test]
    fn all_replicas_down_is_an_error() {
        let mut c = seeded(2);
        c.fail(0).unwrap();
        c.fail(1).unwrap();
        assert_eq!(
            c.search(&LdapDn::ROOT, Scope::Subtree, &Filter::True),
            Err(ClusterError::NoReplicasLeft)
        );
        assert!(matches!(
            c.add(LdapDn::parse("lc=x,rc=GDMP").unwrap(), Attributes::new()),
            Err(ClusterError::NoReplicasLeft)
        ));
    }

    #[test]
    fn failed_write_leaves_cluster_consistent() {
        let mut c = seeded(3);
        // Duplicate add fails on the primary and must not touch secondaries.
        let err = c.add(LdapDn::parse("lc=c0,rc=GDMP").unwrap(), Attributes::new());
        assert!(err.is_err());
        assert!(c.is_consistent());
    }

    #[test]
    fn double_fail_and_bad_recover_rejected() {
        let mut c = seeded(2);
        c.fail(0).unwrap();
        assert!(matches!(c.fail(0), Err(ClusterError::BadReplica(0))));
        assert!(matches!(c.recover(1), Err(ClusterError::BadReplica(1))), "replica 1 is alive");
        assert!(matches!(c.fail(9), Err(ClusterError::BadReplica(9))));
    }
}
