//! GSS-API-style mutual authentication and per-message protection.
//!
//! GDMP's Request Manager and GridFTP's control channel both establish a
//! security context before any command flows: each side presents its
//! credential chain, validates the peer's against the trusted CAs, and
//! proves possession of its leaf key by signing a challenge. The
//! established [`SecurityContext`] then provides message integrity codes
//! (MICs) for the session.

use serde::{Deserialize, Serialize};

use crate::cert::{Certificate, KeyPair};
use crate::hash::{concat_fields, keyed_digest};
use crate::name::DistinguishedName;
use crate::proxy::{validate_chain, CredentialChain, ProxyError};
use crate::GsiTime;

/// Errors during context establishment or message verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecError {
    Proxy(ProxyError),
    ChallengeFailed,
    BadMic,
}

impl std::fmt::Display for SecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecError::Proxy(e) => write!(f, "credential rejected: {e}"),
            SecError::ChallengeFailed => write!(f, "peer failed proof-of-possession challenge"),
            SecError::BadMic => write!(f, "message integrity check failed"),
        }
    }
}

impl std::error::Error for SecError {}

impl From<ProxyError> for SecError {
    fn from(e: ProxyError) -> Self {
        SecError::Proxy(e)
    }
}

/// The token one side sends during the handshake: its chain plus a signed
/// response to the peer's challenge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuthToken {
    pub chain: Vec<crate::cert::Certificate>,
    pub challenge_response: u64,
}

/// Produce the handshake token: prove possession of the leaf key by signing
/// the peer's challenge nonce.
pub fn make_token(cred: &CredentialChain, peer_challenge: u64) -> AuthToken {
    AuthToken { chain: cred.chain.clone(), challenge_response: respond(cred, peer_challenge) }
}

/// Verify a peer's token: check the challenge response against the leaf
/// public key, then validate the chain against the CA. Returns the peer's
/// grid identity (the end-entity DN, not the proxy DN).
pub fn verify_token(
    token: &AuthToken,
    my_challenge: u64,
    ca_public: u64,
    now: GsiTime,
) -> Result<DistinguishedName, SecError> {
    check_response(&token.chain, my_challenge, token.challenge_response)?;
    // The leaf keys are the peer's secret; the challenge proved possession,
    // so the chain is validated for structure only.
    validate_chain(&token.chain, ca_public, now)?;
    Ok(token.chain[0].subject.clone())
}

/// Both challenge/response legs of a handshake, under `nonce_seed`, with
/// no chain validation: the per-call part of
/// [`SecurityContext::establish`] for two credentials whose chains the
/// caller has already validated under the current CA and clock.
pub fn challenge_legs(
    initiator: &CredentialChain,
    acceptor: &CredentialChain,
    nonce_seed: u64,
) -> Result<(), SecError> {
    let (challenge_i, challenge_a) = challenges(nonce_seed);
    challenge_leg(initiator, challenge_a)?;
    challenge_leg(acceptor, challenge_i)
}

/// The initiator's and the acceptor's challenge for one handshake.
fn challenges(nonce_seed: u64) -> (u64, u64) {
    (
        keyed_digest(nonce_seed, b"initiator-challenge"),
        keyed_digest(nonce_seed, b"acceptor-challenge"),
    )
}

/// One leg: `prover` answers `challenge` with its leaf key, and the answer
/// is checked against its leaf certificate.
fn challenge_leg(prover: &CredentialChain, challenge: u64) -> Result<(), SecError> {
    check_response(&prover.chain, challenge, respond(prover, challenge))
}

fn respond(cred: &CredentialChain, challenge: u64) -> u64 {
    cred.leaf_keys.sign(&challenge.to_le_bytes())
}

fn check_response(chain: &[Certificate], challenge: u64, response: u64) -> Result<(), SecError> {
    let leaf = chain.last().ok_or(SecError::Proxy(ProxyError::BrokenChain("empty chain")))?;
    if KeyPair::verify(leaf.public_key, &challenge.to_le_bytes(), response) {
        Ok(())
    } else {
        Err(SecError::ChallengeFailed)
    }
}

/// An established, mutually authenticated session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityContext {
    /// Grid identity of the local party.
    pub local: DistinguishedName,
    /// Grid identity of the authenticated peer.
    pub peer: DistinguishedName,
    /// Shared session key for MICs (derived from both challenges).
    session_key: u64,
}

impl SecurityContext {
    /// Run both halves of the handshake in one call (the simulation has no
    /// separate transport for handshake tokens): each side's challenge leg,
    /// then its chain against the CA, the initiator first. Returns the two
    /// contexts `(initiator, acceptor)`.
    pub fn establish(
        initiator: &CredentialChain,
        acceptor: &CredentialChain,
        ca_public: u64,
        now: GsiTime,
        nonce_seed: u64,
    ) -> Result<(SecurityContext, SecurityContext), SecError> {
        let (challenge_i, challenge_a) = challenges(nonce_seed);
        challenge_leg(initiator, challenge_a)?;
        validate_chain(&initiator.chain, ca_public, now)?;
        challenge_leg(acceptor, challenge_i)?;
        validate_chain(&acceptor.chain, ca_public, now)?;

        let session_key = keyed_digest(challenge_i ^ challenge_a, b"session");
        Ok((
            SecurityContext {
                local: initiator.identity().clone(),
                peer: acceptor.identity().clone(),
                session_key,
            },
            SecurityContext {
                local: acceptor.identity().clone(),
                peer: initiator.identity().clone(),
                session_key,
            },
        ))
    }

    /// Message integrity code over `message`.
    pub fn mic(&self, message: &[u8]) -> u64 {
        keyed_digest(self.session_key, &concat_fields(&[self.local.to_bytes().as_slice(), message]))
    }

    /// Verify a MIC produced by the peer for `message`.
    pub fn verify_mic(&self, message: &[u8], mic: u64) -> Result<(), SecError> {
        let expect = keyed_digest(
            self.session_key,
            &concat_fields(&[self.peer.to_bytes().as_slice(), message]),
        );
        if expect == mic {
            Ok(())
        } else {
            Err(SecError::BadMic)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertificateAuthority, ValidationError};

    fn grid() -> (CertificateAuthority, CredentialChain, CredentialChain) {
        let ca = CertificateAuthority::new(
            DistinguishedName::user("cern.ch", "CERN CA"),
            1,
            0,
            1_000_000,
        );
        let ak = KeyPair::from_seed(2);
        let alice = CredentialChain::end_entity(
            ca.issue(DistinguishedName::user("cern.ch", "alice"), ak.public, 0, 900_000),
            ak,
        );
        let sk = KeyPair::from_seed(3);
        let server = CredentialChain::end_entity(
            ca.issue(DistinguishedName::host("anl.gov", "gdmp.anl.gov"), sk.public, 0, 900_000),
            sk,
        );
        (ca, alice, server)
    }

    #[test]
    fn mutual_auth_succeeds_with_proxies() {
        let (ca, alice, server) = grid();
        let proxy = alice.delegate(10, 50, 43_200, 3).unwrap();
        let (ctx_i, ctx_a) = SecurityContext::establish(&proxy, &server, ca.public_key(), 100, 7)
            .expect("handshake");
        // The server sees alice, not the proxy DN.
        assert_eq!(ctx_a.peer.common_name(), Some("alice"));
        assert_eq!(ctx_i.peer.common_name(), Some("host/gdmp.anl.gov"));
    }

    #[test]
    fn mic_roundtrip_and_tamper() {
        let (ca, alice, server) = grid();
        let (ctx_i, ctx_a) =
            SecurityContext::establish(&alice, &server, ca.public_key(), 100, 7).unwrap();
        let mic = ctx_i.mic(b"GET lfn://higgs/file1");
        assert_eq!(ctx_a.verify_mic(b"GET lfn://higgs/file1", mic), Ok(()));
        assert_eq!(ctx_a.verify_mic(b"GET lfn://higgs/file2", mic), Err(SecError::BadMic));
    }

    #[test]
    fn expired_proxy_fails_handshake() {
        let (ca, alice, server) = grid();
        let proxy = alice.delegate(10, 0, 100, 3).unwrap();
        let err = SecurityContext::establish(&proxy, &server, ca.public_key(), 500, 7).unwrap_err();
        assert!(matches!(err, SecError::Proxy(_)));
    }

    #[test]
    fn foreign_ca_rejected() {
        let (_, alice, server) = grid();
        let other = CertificateAuthority::new(
            DistinguishedName::user("evil.org", "Evil CA"),
            99,
            0,
            1_000_000,
        );
        let err =
            SecurityContext::establish(&alice, &server, other.public_key(), 100, 7).unwrap_err();
        assert!(matches!(err, SecError::Proxy(_)));
    }

    #[test]
    fn challenge_legs_prove_possession_without_validating_chains() {
        let (_, alice, server) = grid();
        // Expired long ago: the legs do not look at validity windows.
        let expired = alice.delegate(10, 0, 100, 3).unwrap();
        assert_eq!(challenge_legs(&expired, &server, 7), Ok(()));
        let mut stolen = server.clone();
        stolen.leaf_keys = KeyPair::from_seed(99);
        assert_eq!(challenge_legs(&expired, &stolen, 7), Err(SecError::ChallengeFailed));
        assert_eq!(challenge_legs(&stolen, &expired, 7), Err(SecError::ChallengeFailed));
    }

    #[test]
    fn each_side_is_challenged_before_its_chain_is_validated() {
        let (ca, alice, server) = grid();
        let mut expired = alice.delegate(10, 0, 100, 3).unwrap();
        let challenge = 42;
        let token = make_token(&expired, challenge);
        assert!(matches!(
            verify_token(&token, challenge, ca.public_key(), 500),
            Err(SecError::Proxy(ProxyError::Validation(ValidationError::Expired { .. })))
        ));
        assert_eq!(
            verify_token(&token, challenge + 1, ca.public_key(), 500),
            Err(SecError::ChallengeFailed)
        );
        // In `establish`, the initiator's defects come before the acceptor's.
        let mut stolen = server.clone();
        stolen.leaf_keys = KeyPair::from_seed(99);
        assert!(matches!(
            SecurityContext::establish(&expired, &stolen, ca.public_key(), 500, 7),
            Err(SecError::Proxy(_))
        ));
        expired.leaf_keys = KeyPair::from_seed(98);
        assert_eq!(
            SecurityContext::establish(&expired, &server, ca.public_key(), 500, 7).unwrap_err(),
            SecError::ChallengeFailed
        );
    }

    #[test]
    fn mic_direction_matters() {
        let (ca, alice, server) = grid();
        let (ctx_i, _ctx_a) =
            SecurityContext::establish(&alice, &server, ca.public_key(), 100, 7).unwrap();
        // A context cannot verify its *own* MIC as if it came from the peer.
        let mic = ctx_i.mic(b"hello");
        assert_eq!(ctx_i.verify_mic(b"hello", mic), Err(SecError::BadMic));
    }
}
