//! Certificates, key pairs, and certificate authorities.
//!
//! The signature scheme is a toy keyed digest (see crate docs): a
//! certificate is "signed" by digesting its canonical encoding with the
//! issuer's private key, and "verified" by recomputing that digest from the
//! issuer's *verification key*, which in this simulation equals a hash of
//! the private key that the issuer publishes. Structure over strength.

use serde::{Deserialize, Serialize};

use crate::hash::{concat_fields, keyed_digest};
use crate::name::DistinguishedName;
use crate::GsiTime;

/// A signing key pair. `public` is derived from `private` and is what
/// relying parties use to check signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    private: u64,
    pub public: u64,
}

impl KeyPair {
    /// Derive a key pair from seed material (deterministic).
    pub fn from_seed(seed: u64) -> Self {
        let private = keyed_digest(seed, b"gsi-keygen");
        KeyPair { private, public: keyed_digest(private, b"gsi-public") }
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> u64 {
        // Toy scheme: signature binds the *public* key and message via the
        // private key, and verification recomputes via the public key. Both
        // sides use `keyed_digest(public, message)` — the private key only
        // gates *who is supposed to* produce it. See crate-level warning.
        let _ = self.private;
        keyed_digest(self.public, message)
    }

    /// Verify a signature against a public key.
    pub fn verify(public: u64, message: &[u8], signature: u64) -> bool {
        keyed_digest(public, message) == signature
    }
}

/// Why certificate validation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    BadSignature,
    NotYetValid { now: GsiTime, from: GsiTime },
    Expired { now: GsiTime, to: GsiTime },
    UntrustedIssuer(DistinguishedName),
    SubjectMismatch,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BadSignature => write!(f, "signature check failed"),
            ValidationError::NotYetValid { now, from } => {
                write!(f, "not yet valid (now={now}, from={from})")
            }
            ValidationError::Expired { now, to } => write!(f, "expired (now={now}, to={to})"),
            ValidationError::UntrustedIssuer(dn) => write!(f, "untrusted issuer {dn}"),
            ValidationError::SubjectMismatch => write!(f, "subject does not match issuer chain"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// An end-entity, CA, or proxy certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    pub subject: DistinguishedName,
    pub issuer: DistinguishedName,
    /// The subject's verification key.
    pub public_key: u64,
    pub valid_from: GsiTime,
    pub valid_to: GsiTime,
    /// True for proxy certificates (single sign-on credentials).
    pub is_proxy: bool,
    /// How many further proxy delegations this certificate permits.
    pub delegation_limit: u32,
    /// Issuer's signature over the canonical encoding.
    pub signature: u64,
}

impl Certificate {
    /// Canonical byte encoding of all signed fields.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        concat_fields(&[
            &self.subject.to_bytes(),
            &self.issuer.to_bytes(),
            &self.public_key.to_le_bytes(),
            &self.valid_from.to_le_bytes(),
            &self.valid_to.to_le_bytes(),
            &[u8::from(self.is_proxy)],
            &self.delegation_limit.to_le_bytes(),
        ])
    }

    /// Check the signature against the issuer's public key and the validity
    /// window against `now`.
    pub fn validate(&self, issuer_public: u64, now: GsiTime) -> Result<(), ValidationError> {
        if !KeyPair::verify(issuer_public, &self.tbs_bytes(), self.signature) {
            return Err(ValidationError::BadSignature);
        }
        if now < self.valid_from {
            return Err(ValidationError::NotYetValid { now, from: self.valid_from });
        }
        if now > self.valid_to {
            return Err(ValidationError::Expired { now, to: self.valid_to });
        }
        Ok(())
    }
}

/// A certificate authority: a self-signed root that issues end-entity
/// certificates.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    pub name: DistinguishedName,
    keys: KeyPair,
    pub cert: Certificate,
}

impl CertificateAuthority {
    /// Create a root CA valid over `[valid_from, valid_to]`.
    pub fn new(name: DistinguishedName, seed: u64, valid_from: GsiTime, valid_to: GsiTime) -> Self {
        let keys = KeyPair::from_seed(seed);
        let mut cert = Certificate {
            subject: name.clone(),
            issuer: name.clone(),
            public_key: keys.public,
            valid_from,
            valid_to,
            is_proxy: false,
            delegation_limit: 0,
            signature: 0,
        };
        cert.signature = keys.sign(&cert.tbs_bytes());
        CertificateAuthority { name, keys, cert }
    }

    /// Issue a long-lived end-entity certificate to `subject`, whose key
    /// pair the subject generated itself.
    pub fn issue(
        &self,
        subject: DistinguishedName,
        subject_public: u64,
        valid_from: GsiTime,
        valid_to: GsiTime,
    ) -> Certificate {
        let mut cert = Certificate {
            subject,
            issuer: self.name.clone(),
            public_key: subject_public,
            valid_from,
            valid_to,
            is_proxy: false,
            // End-entity certs may create proxies; depth is bounded later
            // by each proxy's own limit.
            delegation_limit: u32::MAX,
            signature: 0,
        };
        cert.signature = self.keys.sign(&cert.tbs_bytes());
        cert
    }

    pub fn public_key(&self) -> u64 {
        self.keys.public
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new(DistinguishedName::user("cern.ch", "CERN CA"), 42, 0, 1_000_000)
    }

    #[test]
    fn keypair_sign_verify() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"msg");
        assert!(KeyPair::verify(kp.public, b"msg", sig));
        assert!(!KeyPair::verify(kp.public, b"msG", sig));
        assert!(!KeyPair::verify(kp.public + 1, b"msg", sig));
    }

    #[test]
    fn issued_cert_validates() {
        let ca = ca();
        let user_keys = KeyPair::from_seed(9);
        let cert = ca.issue(DistinguishedName::user("cern.ch", "alice"), user_keys.public, 10, 500);
        assert_eq!(cert.validate(ca.public_key(), 100), Ok(()));
    }

    #[test]
    fn tampered_cert_fails() {
        let ca = ca();
        let user_keys = KeyPair::from_seed(9);
        let mut cert =
            ca.issue(DistinguishedName::user("cern.ch", "alice"), user_keys.public, 10, 500);
        cert.subject = DistinguishedName::user("cern.ch", "mallory");
        assert_eq!(cert.validate(ca.public_key(), 100), Err(ValidationError::BadSignature));
    }

    #[test]
    fn validity_window_enforced() {
        let ca = ca();
        let cert = ca.issue(DistinguishedName::user("cern.ch", "alice"), 1, 10, 500);
        assert!(matches!(
            cert.validate(ca.public_key(), 5),
            Err(ValidationError::NotYetValid { .. })
        ));
        assert!(matches!(
            cert.validate(ca.public_key(), 501),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn ca_root_is_self_signed() {
        let ca = ca();
        assert_eq!(ca.cert.validate(ca.public_key(), 1), Ok(()));
        assert_eq!(ca.cert.subject, ca.cert.issuer);
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        let ca1 = ca();
        let ca2 = CertificateAuthority::new(
            DistinguishedName::user("anl.gov", "ANL CA"),
            43,
            0,
            1_000_000,
        );
        let cert = ca1.issue(DistinguishedName::user("cern.ch", "alice"), 1, 0, 500);
        assert_eq!(cert.validate(ca2.public_key(), 100), Err(ValidationError::BadSignature));
    }
}
