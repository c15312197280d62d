//! The in-memory file store a GridFTP server serves from.
//!
//! The loopback server, its tests and the whole-stack test keep their
//! files here; the simulated grid's sites keep theirs in their own
//! `gdmp-mass-storage` disk pools, which never reach a socket.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bytes::Bytes;

/// In-memory store, shared across server threads: clones see the same
/// files.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    files: Arc<RwLock<HashMap<String, Bytes>>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with(files: &[(&str, Bytes)]) -> Self {
        let s = Self::new();
        for (n, d) in files {
            s.put(n, d.clone());
        }
        s
    }

    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn get(&self, name: &str) -> Option<Bytes> {
        self.read().get(name).cloned()
    }

    pub fn put(&self, name: &str, data: Bytes) {
        self.write().insert(name.to_string(), data);
    }

    pub fn delete(&self, name: &str) -> Result<(), String> {
        self.write().remove(name).map(|_| ()).ok_or_else(|| format!("no such file: {name}"))
    }

    pub fn size(&self, name: &str) -> Option<u64> {
        self.read().get(name).map(|d| d.len() as u64)
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Bytes>> {
        self.files.read().expect("a session thread panicked while holding the store lock")
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, Bytes>> {
        self.files.write().expect("a session thread panicked while holding the store lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_crud() {
        let s = MemStore::new();
        assert!(s.get("a").is_none());
        s.put("a", Bytes::from_static(b"hello"));
        assert_eq!(s.size("a"), Some(5));
        assert_eq!(s.get("a").unwrap(), Bytes::from_static(b"hello"));
        s.delete("a").unwrap();
        assert!(s.delete("a").is_err());
    }

    #[test]
    fn memstore_is_shared_across_clones() {
        let s = MemStore::new();
        let s2 = s.clone();
        s.put("x", Bytes::from_static(b"1"));
        assert!(s2.get("x").is_some());
    }
}
