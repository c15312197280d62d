//! X.509-style distinguished names: `/O=Grid/OU=cern.ch/CN=alice`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A distinguished name as an ordered list of `attribute=value` components.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DistinguishedName {
    components: Vec<(String, String)>,
}

/// Errors from parsing a DN string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnError {
    Empty,
    MissingEquals(String),
    EmptyComponent,
}

impl fmt::Display for DnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnError::Empty => write!(f, "empty distinguished name"),
            DnError::MissingEquals(c) => write!(f, "component without '=': {c:?}"),
            DnError::EmptyComponent => write!(f, "empty component"),
        }
    }
}

impl std::error::Error for DnError {}

impl DistinguishedName {
    /// Parse `/O=Grid/OU=cern.ch/CN=alice`.
    pub fn parse(s: &str) -> Result<Self, DnError> {
        let body = s.strip_prefix('/').unwrap_or(s);
        if body.is_empty() {
            return Err(DnError::Empty);
        }
        let mut components = Vec::new();
        for part in body.split('/') {
            if part.is_empty() {
                return Err(DnError::EmptyComponent);
            }
            let (k, v) =
                part.split_once('=').ok_or_else(|| DnError::MissingEquals(part.to_string()))?;
            components.push((k.trim().to_string(), v.trim().to_string()));
        }
        Ok(DistinguishedName { components })
    }

    /// Convenience constructor for grid users: `/O=Grid/OU={org}/CN={cn}`.
    pub fn user(org: &str, cn: &str) -> Self {
        DistinguishedName {
            components: vec![
                ("O".into(), "Grid".into()),
                ("OU".into(), org.into()),
                ("CN".into(), cn.into()),
            ],
        }
    }

    /// Convenience constructor for host services: adds a `CN=host/{fqdn}`.
    pub fn host(org: &str, fqdn: &str) -> Self {
        DistinguishedName {
            components: vec![
                ("O".into(), "Grid".into()),
                ("OU".into(), org.into()),
                ("CN".into(), format!("host/{fqdn}")),
            ],
        }
    }

    /// The common name (last CN component), if any.
    pub fn common_name(&self) -> Option<&str> {
        self.components.iter().rev().find(|(k, _)| k == "CN").map(|(_, v)| v.as_str())
    }

    /// Append a component, used for proxy naming (`CN=proxy`).
    pub fn with_component(&self, key: &str, value: &str) -> Self {
        let mut components = self.components.clone();
        components.push((key.to_string(), value.to_string()));
        DistinguishedName { components }
    }

    /// True if `self` names a proxy derived from `base` (same components
    /// plus one or more trailing `CN=proxy`).
    pub fn is_proxy_of(&self, base: &DistinguishedName) -> bool {
        self.components.len() > base.components.len()
            && self.components[..base.components.len()] == base.components[..]
            && self.components[base.components.len()..]
                .iter()
                .all(|(k, v)| k == "CN" && v == "proxy")
    }

    pub fn components(&self) -> &[(String, String)] {
        &self.components
    }

    /// Canonical byte encoding for signing.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.components {
            write!(f, "/{k}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let dn = DistinguishedName::parse("/O=Grid/OU=cern.ch/CN=alice").unwrap();
        assert_eq!(dn.to_string(), "/O=Grid/OU=cern.ch/CN=alice");
        assert_eq!(dn.common_name(), Some("alice"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(DistinguishedName::parse(""), Err(DnError::Empty));
        assert_eq!(DistinguishedName::parse("/"), Err(DnError::Empty));
        assert_eq!(DistinguishedName::parse("/O=Grid//CN=x"), Err(DnError::EmptyComponent));
        assert!(matches!(
            DistinguishedName::parse("/O=Grid/CNalice"),
            Err(DnError::MissingEquals(_))
        ));
    }

    #[test]
    fn proxy_naming() {
        let alice = DistinguishedName::user("cern.ch", "alice");
        let p1 = alice.with_component("CN", "proxy");
        let p2 = p1.with_component("CN", "proxy");
        assert!(p1.is_proxy_of(&alice));
        assert!(p2.is_proxy_of(&alice));
        assert!(!alice.is_proxy_of(&p1));
        let bob = DistinguishedName::user("cern.ch", "bob");
        assert!(!p1.is_proxy_of(&bob));
    }

    #[test]
    fn host_names() {
        let h = DistinguishedName::host("anl.gov", "ftp.anl.gov");
        assert_eq!(h.common_name(), Some("host/ftp.anl.gov"));
    }

    #[test]
    fn whitespace_is_trimmed() {
        let dn = DistinguishedName::parse("/O= Grid /CN= alice ").unwrap();
        assert_eq!(dn.to_string(), "/O=Grid/CN=alice");
    }
}
