//! The gridmap file: authorization of authenticated identities.
//!
//! GSI separates authentication (who are you, globally) from authorization
//! (what may you do here). Each GDMP site holds a gridmap mapping grid DNs
//! to local accounts, plus per-operation access control for the four GDMP
//! client services (subscribe, publish, fetch catalog, transfer files).

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::name::DistinguishedName;

/// The operations a GDMP site authorizes individually (Section 4.1 lists
/// the four client services; `Admin` covers catalog repair and deletion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operation {
    Subscribe,
    Publish,
    FetchCatalog,
    Transfer,
    Admin,
    /// Liveness probe. Any identity with a gridmap entry may ping — see
    /// [`GridMap::authorize`] — so health checks work even against peers
    /// restricted to a single operation (the chaos layer's reachability
    /// probes depend on this).
    Ping,
}

impl Operation {
    pub const ALL: [Operation; 6] = [
        Operation::Subscribe,
        Operation::Publish,
        Operation::FetchCatalog,
        Operation::Transfer,
        Operation::Admin,
        Operation::Ping,
    ];
}

/// Authorization outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthzError {
    UnknownIdentity(DistinguishedName),
    Denied { who: DistinguishedName, op: Operation },
}

impl std::fmt::Display for AuthzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthzError::UnknownIdentity(dn) => write!(f, "no gridmap entry for {dn}"),
            AuthzError::Denied { who, op } => write!(f, "{who} not authorized for {op:?}"),
        }
    }
}

impl std::error::Error for AuthzError {}

#[derive(Debug, Clone)]
struct Entry {
    local_user: String,
    /// One bit per [`Operation`], indexed by its discriminant.
    allowed: u8,
}

impl Entry {
    fn new(local_user: &str, ops: &[Operation]) -> Entry {
        let allowed = ops.iter().fold(0, |mask, &op| mask | (1 << op as u8));
        Entry { local_user: local_user.to_string(), allowed }
    }
}

/// The grants a virtual organisation shares: every member's DN mapped to
/// its account with every operation allowed. Built once and held by every
/// member's [`GridMap`] by reference.
#[derive(Debug, Default)]
pub struct VoGrants {
    /// DN → the grant of the last member (in build order) with that DN.
    grants: HashMap<DistinguishedName, Entry>,
    /// DN → the grant of the member before the last, for DNs members share.
    shadowed: HashMap<DistinguishedName, Entry>,
}

impl VoGrants {
    /// Full grants for `members`, in order: of two members sharing a DN,
    /// the later one's account wins.
    pub fn full<'a>(
        members: impl ExactSizeIterator<Item = (&'a DistinguishedName, &'a str)>,
    ) -> VoGrants {
        let mut vo =
            VoGrants { grants: HashMap::with_capacity(members.len()), ..VoGrants::default() };
        for (dn, local_user) in members {
            if let Some(earlier) =
                vo.grants.insert(dn.clone(), Entry::new(local_user, &Operation::ALL))
            {
                vo.shadowed.insert(dn.clone(), earlier);
            }
        }
        vo
    }
}

/// A site's gridmap: DN → (local account, allowed operations).
///
/// The entries are the shared [`VoGrants`] the site joined, if any, under
/// the site's own overrides: an explicit grant (`Some`) or a removal of a
/// VO grant (`None`). Edits write only to the overrides, so one site's
/// edit never reaches another site.
#[derive(Debug, Clone, Default)]
pub struct GridMap {
    vo: Option<Arc<VoGrants>>,
    /// Invariant: a `None` override names a DN the VO grants.
    overrides: HashMap<DistinguishedName, Option<Entry>>,
}

impl GridMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Map `dn` to `local_user` with the given operations.
    pub fn add(&mut self, dn: DistinguishedName, local_user: &str, ops: &[Operation]) {
        self.overrides.insert(dn, Some(Entry::new(local_user, ops)));
    }

    /// Map `dn` with every operation allowed.
    pub fn add_full(&mut self, dn: DistinguishedName, local_user: &str) {
        self.add(dn, local_user, &Operation::ALL);
    }

    pub fn remove(&mut self, dn: &DistinguishedName) -> bool {
        let mapped = self.entry(dn).is_some();
        if self.vo_grant(dn).is_some() {
            self.overrides.insert(dn.clone(), None);
        } else {
            self.overrides.remove(dn);
        }
        mapped
    }

    /// Join `vo` as the member `member` with account `local_user`: every
    /// DN `vo` grants maps to its VO grant, replacing any earlier entry,
    /// except the member's own DN, which keeps what it held unless another
    /// member shares it. Entries for DNs outside `vo`, including those of
    /// a VO joined earlier, stay.
    pub fn join(&mut self, vo: &Arc<VoGrants>, member: &DistinguishedName, local_user: &str) {
        let own = match vo.grants.get(member) {
            Some(last) if last.local_user == local_user => {
                Some(vo.shadowed.get(member).or(self.entry(member)).cloned())
            }
            _ => None,
        };
        if let Some(old) = self.vo.take().filter(|old| !Arc::ptr_eq(old, vo)) {
            for (dn, grant) in &old.grants {
                if !vo.grants.contains_key(dn) {
                    self.overrides.entry(dn.clone()).or_insert_with(|| Some(grant.clone()));
                }
            }
        }
        self.overrides.retain(|dn, entry| entry.is_some() && !vo.grants.contains_key(dn));
        if let Some(entry) = own {
            self.overrides.insert(member.clone(), entry);
        }
        self.vo = Some(Arc::clone(vo));
    }

    fn vo_grant(&self, dn: &DistinguishedName) -> Option<&Entry> {
        self.vo.as_ref().and_then(|vo| vo.grants.get(dn))
    }

    fn entry(&self, dn: &DistinguishedName) -> Option<&Entry> {
        match self.overrides.get(dn) {
            Some(entry) => entry.as_ref(),
            None => self.vo_grant(dn),
        }
    }

    /// Authorize `dn` for `op`; on success return the local account name.
    ///
    /// [`Operation::Ping`] is granted to *every* mapped identity: a
    /// liveness probe reveals nothing a catalog-restricted peer should not
    /// see, and reachability checks must not depend on per-operation
    /// grants. Unknown identities are still rejected.
    pub fn authorize(&self, dn: &DistinguishedName, op: Operation) -> Result<&str, AuthzError> {
        let entry = self.entry(dn).ok_or_else(|| AuthzError::UnknownIdentity(dn.clone()))?;
        if op == Operation::Ping || entry.allowed & (1 << op as u8) != 0 {
            Ok(&entry.local_user)
        } else {
            Err(AuthzError::Denied { who: dn.clone(), op })
        }
    }

    /// The number of mapped DNs.
    pub fn len(&self) -> usize {
        let vo = self.vo.as_ref().map_or(0, |vo| vo.grants.len());
        // A removal names a VO grant, so the count never drops below zero.
        self.overrides.iter().fold(vo, |n, (dn, entry)| match (entry, self.vo_grant(dn)) {
            (Some(_), None) => n + 1,
            (Some(_), Some(_)) => n,
            (None, _) => n - 1,
        })
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alice() -> DistinguishedName {
        DistinguishedName::user("cern.ch", "alice")
    }

    #[test]
    fn authorize_known_user() {
        let mut gm = GridMap::new();
        gm.add(alice(), "alice_local", &[Operation::Subscribe, Operation::Transfer]);
        assert_eq!(gm.authorize(&alice(), Operation::Transfer), Ok("alice_local"));
    }

    #[test]
    fn deny_missing_operation() {
        let mut gm = GridMap::new();
        gm.add(alice(), "alice_local", &[Operation::Subscribe]);
        assert!(matches!(
            gm.authorize(&alice(), Operation::Publish),
            Err(AuthzError::Denied { .. })
        ));
    }

    #[test]
    fn unknown_identity_rejected() {
        let gm = GridMap::new();
        assert!(matches!(
            gm.authorize(&alice(), Operation::Subscribe),
            Err(AuthzError::UnknownIdentity(_))
        ));
    }

    #[test]
    fn removal_revokes() {
        let mut gm = GridMap::new();
        gm.add_full(alice(), "alice_local");
        assert!(gm.authorize(&alice(), Operation::Admin).is_ok());
        assert!(gm.remove(&alice()));
        assert!(gm.authorize(&alice(), Operation::Admin).is_err());
        assert!(!gm.remove(&alice()));
    }

    #[test]
    fn full_access_covers_all_ops() {
        let mut gm = GridMap::new();
        gm.add_full(alice(), "a");
        for op in Operation::ALL {
            assert!(gm.authorize(&alice(), op).is_ok());
        }
    }

    #[test]
    fn a_vo_member_maps_the_others_but_not_itself() {
        let (cern, anl) = (alice(), DistinguishedName::user("anl.gov", "bob"));
        let vo = Arc::new(VoGrants::full([(&cern, "cern_svc"), (&anl, "anl_svc")].into_iter()));
        let (mut at_cern, mut at_anl) = (GridMap::new(), GridMap::new());
        at_cern.join(&vo, &cern, "cern_svc");
        at_anl.join(&vo, &anl, "anl_svc");
        assert_eq!(at_cern.authorize(&anl, Operation::Admin), Ok("anl_svc"));
        assert!(matches!(
            at_cern.authorize(&cern, Operation::Ping),
            Err(AuthzError::UnknownIdentity(_))
        ));
        assert_eq!((at_cern.len(), at_anl.len()), (1, 1));
        // An edit stays on its own site.
        at_cern.add(anl.clone(), "anl_ro", &[Operation::FetchCatalog]);
        assert!(at_anl.remove(&cern));
        assert_eq!(
            at_cern.authorize(&anl, Operation::Admin).unwrap_err().to_string(),
            "/O=Grid/OU=anl.gov/CN=bob not authorized for Admin"
        );
        assert_eq!((at_cern.len(), at_anl.len()), (1, 0));
        let mut fresh = GridMap::new();
        fresh.join(&vo, &cern, "cern_svc");
        assert_eq!(fresh.authorize(&anl, Operation::Admin), Ok("anl_svc"));
    }

    #[test]
    fn ping_allowed_for_any_known_identity() {
        let mut gm = GridMap::new();
        // Catalog-only peer: can still be liveness-probed...
        gm.add(alice(), "a", &[Operation::FetchCatalog]);
        assert_eq!(gm.authorize(&alice(), Operation::Ping), Ok("a"));
        // ...even with an empty grant set.
        let bob = DistinguishedName::user("anl.gov", "bob");
        gm.add(bob.clone(), "b", &[]);
        assert_eq!(gm.authorize(&bob, Operation::Ping), Ok("b"));
        // But unknown identities are rejected outright.
        let eve = DistinguishedName::user("evil.org", "eve");
        assert!(matches!(gm.authorize(&eve, Operation::Ping), Err(AuthzError::UnknownIdentity(_))));
    }
}
