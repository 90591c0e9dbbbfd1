//! Object-store abstraction: the interface "real cloud storage" exposes
//! (§3.2) — whole objects, byte-range gets, no notion of blocks or files.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::{Result, StorageError};

/// Byte-level access statistics an object store keeps — the basis of the
/// Query-As-A-Service billing model ("these systems charge for the amount
/// of data read from storage", §3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectStoreStats {
    /// Bytes written via `put`.
    pub bytes_written: u64,
    /// Bytes returned by `get`/`get_range`.
    pub bytes_read: u64,
    /// Number of GET operations (each has a request cost in the cloud).
    pub get_ops: u64,
    /// Number of PUT operations.
    pub put_ops: u64,
}

/// An object store: flat keys, immutable-ish values, range reads.
pub trait ObjectStore: Send + Sync {
    /// Store `data` under `key`, replacing any previous object.
    fn put(&self, key: &str, data: Vec<u8>) -> Result<()>;

    /// Fetch a whole object.
    fn get(&self, key: &str) -> Result<Vec<u8>>;

    /// Fetch `len` bytes starting at `offset`.
    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>>;

    /// Size of an object in bytes.
    fn size(&self, key: &str) -> Result<u64>;

    /// Keys with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Delete an object (idempotent).
    fn delete(&self, key: &str);

    /// Access statistics so far.
    fn stats(&self) -> ObjectStoreStats;

    /// Reset statistics (between experiment repetitions).
    fn reset_stats(&self);
}

/// Shared handle to an object store.
pub type ObjectStoreRef = Arc<dyn ObjectStore>;

/// An in-memory object store. Cost/latency of access is modelled by the
/// fabric layer, not here; this type provides correct semantics plus exact
/// byte accounting.
///
/// A read holds the lock only to find the object, clone its `Arc` and
/// count the read; it copies the bytes after releasing it. Every update
/// under the lock is a single insert, remove or counter bump that leaves
/// the store valid, so a poisoned lock is recovered, not propagated.
#[derive(Debug, Default)]
pub struct MemObjectStore {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    objects: BTreeMap<String, Arc<Vec<u8>>>,
    stats: ObjectStoreStats,
}

impl Inner {
    /// The object under `key`, shared.
    fn object(&self, key: &str) -> Result<Arc<Vec<u8>>> {
        self.objects
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }
}

impl MemObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        MemObjectStore::default()
    }

    /// An empty store behind an `Arc<dyn ObjectStore>`.
    pub fn shared() -> ObjectStoreRef {
        Arc::new(MemObjectStore::new())
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ObjectStore for MemObjectStore {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<()> {
        let mut inner = self.write();
        inner.stats.bytes_written += data.len() as u64;
        inner.stats.put_ops += 1;
        inner.objects.insert(key.to_string(), Arc::new(data));
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let obj = {
            let mut inner = self.write();
            let obj = inner.object(key)?;
            inner.stats.bytes_read += obj.len() as u64;
            inner.stats.get_ops += 1;
            obj
        };
        Ok(obj.as_ref().clone())
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let (obj, end) = {
            let mut inner = self.write();
            let obj = inner.object(key)?;
            let size = obj.len() as u64;
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= size)
                .ok_or(StorageError::BadRange { offset, len, size })?;
            inner.stats.bytes_read += len;
            inner.stats.get_ops += 1;
            (obj, end)
        };
        Ok(obj[offset as usize..end as usize].to_vec())
    }

    fn size(&self, key: &str) -> Result<u64> {
        Ok(self.read().object(key)?.len() as u64)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.read()
            .objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn delete(&self, key: &str) {
        self.write().objects.remove(key);
    }

    fn stats(&self) -> ObjectStoreStats {
        self.read().stats
    }

    fn reset_stats(&self) {
        self.write().stats = ObjectStoreStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = MemObjectStore::new();
        store.put("a/b", vec![1, 2, 3]).unwrap();
        assert_eq!(store.get("a/b").unwrap(), vec![1, 2, 3]);
        assert_eq!(store.size("a/b").unwrap(), 3);
    }

    #[test]
    fn missing_key_errors() {
        let store = MemObjectStore::new();
        assert!(matches!(store.get("nope"), Err(StorageError::NotFound(_))));
        assert!(store.size("nope").is_err());
    }

    #[test]
    fn range_reads() {
        let store = MemObjectStore::new();
        store.put("k", (0u8..100).collect()).unwrap();
        assert_eq!(
            store.get_range("k", 10, 5).unwrap(),
            vec![10, 11, 12, 13, 14]
        );
        assert_eq!(store.get_range("k", 95, 5).unwrap().len(), 5);
        assert!(matches!(
            store.get_range("k", 95, 6),
            Err(StorageError::BadRange { .. })
        ));
        assert!(store.get_range("k", u64::MAX, 2).is_err());
    }

    #[test]
    fn list_by_prefix_sorted() {
        let store = MemObjectStore::new();
        for key in ["t1/seg2", "t1/seg1", "t2/seg1"] {
            store.put(key, vec![]).unwrap();
        }
        assert_eq!(store.list("t1/"), vec!["t1/seg1", "t1/seg2"]);
        assert_eq!(store.list(""), vec!["t1/seg1", "t1/seg2", "t2/seg1"]);
    }

    #[test]
    fn stats_account_bytes() {
        let store = MemObjectStore::new();
        store.put("k", vec![0; 100]).unwrap();
        store.get("k").unwrap();
        store.get_range("k", 0, 10).unwrap();
        let stats = store.stats();
        assert_eq!(stats.bytes_written, 100);
        assert_eq!(stats.bytes_read, 110);
        assert_eq!(stats.get_ops, 2);
        assert_eq!(stats.put_ops, 1);
        store.reset_stats();
        assert_eq!(store.stats(), ObjectStoreStats::default());
    }

    #[test]
    fn concurrent_reads_count_every_byte_and_operation() {
        let store = MemObjectStore::new();
        store.put("a", vec![1; 1000]).unwrap();
        store.put("b", vec![2; 300]).unwrap();
        let start = std::sync::Barrier::new(2);
        const ROUNDS: u64 = 500;
        std::thread::scope(|scope| {
            for key in ["a", "b"] {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..ROUNDS {
                        assert_eq!(store.get_range(key, i % 100, 7).unwrap().len(), 7);
                        store.get(key).unwrap();
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.get_ops, 4 * ROUNDS);
        assert_eq!(stats.bytes_read, ROUNDS * (7 + 1000 + 7 + 300));
        assert_eq!((stats.put_ops, stats.bytes_written), (2, 1300));
    }

    #[test]
    fn overwrite_replaces() {
        let store = MemObjectStore::new();
        store.put("k", vec![1]).unwrap();
        store.put("k", vec![2, 3]).unwrap();
        assert_eq!(store.get("k").unwrap(), vec![2, 3]);
    }

    #[test]
    fn delete_is_idempotent() {
        let store = MemObjectStore::new();
        store.put("k", vec![1]).unwrap();
        store.delete("k");
        store.delete("k");
        assert!(store.get("k").is_err());
    }
}
