//! Proxy certificates and credential chains — GSI's single sign-on.
//!
//! A user signs a short-lived *proxy* certificate with their long-lived
//! credential once per session; the proxy (whose private key lives
//! unencrypted on disk for the session) then authenticates every subsequent
//! operation, and can itself delegate further proxies to remote services
//! (e.g. a GDMP server acting on the user's behalf), down to a bounded
//! depth.

use serde::{Deserialize, Serialize};

use crate::cert::{Certificate, KeyPair, ValidationError};
use crate::name::DistinguishedName;
use crate::GsiTime;

/// Errors specific to proxy handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyError {
    Validation(ValidationError),
    /// The chain does not start at a trusted CA-issued end-entity cert.
    BrokenChain(&'static str),
    /// Delegation depth exhausted.
    DepthExceeded,
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::Validation(e) => write!(f, "proxy validation: {e}"),
            ProxyError::BrokenChain(why) => write!(f, "broken credential chain: {why}"),
            ProxyError::DepthExceeded => write!(f, "delegation depth exceeded"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<ValidationError> for ProxyError {
    fn from(e: ValidationError) -> Self {
        ProxyError::Validation(e)
    }
}

/// A credential: a certificate chain `[end-entity, proxy1, proxy2, ...]`
/// plus the key pair of the leaf, which is what actually signs traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CredentialChain {
    /// `chain[0]` is the CA-issued end-entity certificate.
    pub chain: Vec<Certificate>,
    /// Key pair matching the leaf certificate's public key.
    pub leaf_keys: KeyPair,
}

impl CredentialChain {
    /// A credential holding just a long-lived end-entity certificate.
    pub fn end_entity(cert: Certificate, keys: KeyPair) -> Self {
        assert_eq!(cert.public_key, keys.public, "keys do not match certificate");
        CredentialChain { chain: vec![cert], leaf_keys: keys }
    }

    /// The identity this credential speaks for: the end-entity subject,
    /// regardless of proxy depth.
    pub fn identity(&self) -> &DistinguishedName {
        &self.chain[0].subject
    }

    /// The leaf certificate (what signs traffic right now).
    pub fn leaf(&self) -> &Certificate {
        self.chain.last().expect("chain is never empty")
    }

    /// `grid-proxy-init`: create a new proxy signed by the current leaf.
    ///
    /// * `lifetime` — validity in simulated seconds (12 h ≈ 43 200 is the
    ///   classic default).
    /// * `delegation_limit` — how many further proxies the new proxy may
    ///   itself create.
    pub fn delegate(
        &self,
        seed: u64,
        now: GsiTime,
        lifetime: GsiTime,
        delegation_limit: u32,
    ) -> Result<CredentialChain, ProxyError> {
        let leaf = self.leaf();
        if leaf.is_proxy && leaf.delegation_limit == 0 {
            return Err(ProxyError::DepthExceeded);
        }
        let proxy_keys = KeyPair::from_seed(seed);
        let mut cert = Certificate {
            subject: leaf.subject.with_component("CN", "proxy"),
            issuer: leaf.subject.clone(),
            public_key: proxy_keys.public,
            valid_from: now,
            // A proxy may never outlive its signer.
            valid_to: (now + lifetime).min(leaf.valid_to),
            is_proxy: true,
            delegation_limit: if leaf.is_proxy {
                delegation_limit.min(leaf.delegation_limit - 1)
            } else {
                delegation_limit
            },
            signature: 0,
        };
        cert.signature = self.leaf_keys.sign(&cert.tbs_bytes());
        let mut chain = self.chain.clone();
        chain.push(cert);
        Ok(CredentialChain { chain, leaf_keys: proxy_keys })
    }

    /// Validate the whole chain at time `now` against the CA's public key
    /// (the end-entity must be CA-signed, every proxy signed by its parent,
    /// subjects must extend properly, windows must all cover `now`, and
    /// delegation limits must be respected), then check that `leaf_keys`
    /// belong to the leaf certificate.
    pub fn validate(&self, ca_public: u64, now: GsiTime) -> Result<(), ProxyError> {
        validate_chain(&self.chain, ca_public, now)?;
        if self.leaf().public_key != self.leaf_keys.public {
            return Err(ProxyError::BrokenChain("leaf keys do not match leaf certificate"));
        }
        Ok(())
    }

    /// The window in which every certificate of the chain is valid: the
    /// latest `valid_from` and the earliest `valid_to`. The only part of
    /// [`CredentialChain::validate`] that depends on `now` is this window,
    /// so a chain that validated once under a CA key validates under it at
    /// any `now` inside it.
    pub fn validity_window(&self) -> (GsiTime, GsiTime) {
        self.chain.iter().fold((0, GsiTime::MAX), |(from, to), cert| {
            (from.max(cert.valid_from), to.min(cert.valid_to))
        })
    }
}

/// Validate a certificate chain `[end-entity, proxy1, ...]` at time `now`
/// against the CA's public key: the end-entity must be CA-signed, every
/// proxy signed by its parent, subjects must extend properly, windows must
/// all cover `now`, and delegation limits must be respected. Possession of
/// the leaf's private key is not checked here.
pub(crate) fn validate_chain(
    chain: &[Certificate],
    ca_public: u64,
    now: GsiTime,
) -> Result<(), ProxyError> {
    let first = chain.first().ok_or(ProxyError::BrokenChain("empty chain"))?;
    if first.is_proxy {
        return Err(ProxyError::BrokenChain("chain must start at an end-entity cert"));
    }
    first.validate(ca_public, now)?;
    let identity = &first.subject;
    let mut remaining_depth = u32::MAX;
    for window in chain.windows(2) {
        let (parent, child) = (&window[0], &window[1]);
        if !child.is_proxy {
            return Err(ProxyError::BrokenChain("non-proxy above an end-entity cert"));
        }
        if child.issuer != parent.subject {
            return Err(ProxyError::BrokenChain("issuer does not match parent subject"));
        }
        if !child.subject.is_proxy_of(identity) {
            return Err(ProxyError::Validation(ValidationError::SubjectMismatch));
        }
        if parent.is_proxy {
            if remaining_depth == 0 {
                return Err(ProxyError::DepthExceeded);
            }
            remaining_depth = remaining_depth.min(parent.delegation_limit);
            if remaining_depth == 0 {
                return Err(ProxyError::DepthExceeded);
            }
            remaining_depth -= 1;
        }
        child.validate(parent.public_key, now)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    fn setup() -> (CertificateAuthority, CredentialChain) {
        let ca = CertificateAuthority::new(
            DistinguishedName::user("cern.ch", "CERN CA"),
            1,
            0,
            1_000_000,
        );
        let keys = KeyPair::from_seed(2);
        let cert = ca.issue(DistinguishedName::user("cern.ch", "alice"), keys.public, 0, 900_000);
        (ca, CredentialChain::end_entity(cert, keys))
    }

    #[test]
    fn single_proxy_validates() {
        let (ca, cred) = setup();
        let proxy = cred.delegate(3, 100, 43_200, 4).unwrap();
        assert_eq!(proxy.validate(ca.public_key(), 200), Ok(()));
        assert_eq!(proxy.identity().common_name(), Some("alice"));
        assert!(proxy.leaf().is_proxy);
    }

    #[test]
    fn proxy_expires_before_parent() {
        let (ca, cred) = setup();
        let proxy = cred.delegate(3, 100, 43_200, 4).unwrap();
        assert!(matches!(
            proxy.validate(ca.public_key(), 100 + 43_201),
            Err(ProxyError::Validation(ValidationError::Expired { .. }))
        ));
        // But the long-lived credential itself is still fine.
        assert_eq!(cred.validate(ca.public_key(), 100 + 43_201), Ok(()));
    }

    #[test]
    fn validity_window_is_exactly_where_the_chain_validates() {
        let (ca, cred) = setup();
        assert_eq!(cred.validity_window(), (0, 900_000));
        let p1 = cred.delegate(3, 100, 1_000, 2).unwrap();
        // Signed before its parent's window opens; capped by its parent's end.
        let p2 = p1.delegate(4, 50, 2_000, 1).unwrap();
        assert_eq!(p2.validity_window(), (100, 1_100));
        for now in [0, 99, 100, 1_100, 1_101] {
            let inside = (100..=1_100).contains(&now);
            assert_eq!(p2.validate(ca.public_key(), now).is_ok(), inside, "now={now}");
        }
    }

    #[test]
    fn delegation_chain_of_three() {
        let (ca, cred) = setup();
        let p1 = cred.delegate(3, 0, 1000, 2).unwrap();
        let p2 = p1.delegate(4, 0, 1000, 2).unwrap();
        let p3 = p2.delegate(5, 0, 1000, 2).unwrap();
        assert_eq!(p3.validate(ca.public_key(), 10), Ok(()));
        assert_eq!(p3.chain.len(), 4);
        assert_eq!(p3.identity().common_name(), Some("alice"));
    }

    #[test]
    fn depth_limit_blocks_further_delegation() {
        let (_, cred) = setup();
        let p1 = cred.delegate(3, 0, 1000, 0).unwrap(); // no further delegation
        assert_eq!(p1.delegate(4, 0, 1000, 5).unwrap_err(), ProxyError::DepthExceeded);
    }

    #[test]
    fn tampered_chain_rejected() {
        let (ca, cred) = setup();
        let mut proxy = cred.delegate(3, 0, 1000, 1).unwrap();
        // Swap in a different leaf key pair (stolen-key scenario).
        proxy.leaf_keys = KeyPair::from_seed(99);
        assert!(matches!(proxy.validate(ca.public_key(), 10), Err(ProxyError::BrokenChain(_))));
    }

    #[test]
    fn chain_must_start_at_end_entity() {
        let (ca, cred) = setup();
        let proxy = cred.delegate(3, 0, 1000, 1).unwrap();
        let headless =
            CredentialChain { chain: proxy.chain[1..].to_vec(), leaf_keys: proxy.leaf_keys };
        assert!(matches!(headless.validate(ca.public_key(), 10), Err(ProxyError::BrokenChain(_))));
    }

    #[test]
    fn proxy_for_wrong_identity_rejected() {
        let (ca, cred) = setup();
        let mallory_keys = KeyPair::from_seed(66);
        let mallory = ca.issue(
            DistinguishedName::user("cern.ch", "mallory"),
            mallory_keys.public,
            0,
            900_000,
        );
        let mut proxy = cred.delegate(3, 0, 1000, 1).unwrap();
        // Graft alice's proxy onto mallory's end-entity cert.
        proxy.chain[0] = mallory;
        assert!(proxy.validate(ca.public_key(), 10).is_err());
    }
}
