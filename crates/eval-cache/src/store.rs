//! The content-addressed store: an in-memory LRU of typed entries in
//! front of an optional on-disk tier.
//!
//! Keys are [`CacheKey`] — a static `kind` tag plus three 64-bit
//! digests (`a` the reference side, `b` the generated side, `p` the
//! parameter hash). The split matters operationally: entries whose
//! value depends only on the reference set use `b = 0`, so one warm
//! reference block serves *every* generated-set comparison.
//!
//! Correctness contract: a cached value must be **bit-identical** to
//! recomputing it — every producer in `tsgb-eval` is a deterministic
//! pure function of the digested inputs, so hit-vs-miss can never
//! change a score (pinned by the golden-suite verify leg running with
//! `TSGB_EVAL_CACHE=on`). The cache therefore never needs
//! invalidation: a changed input is a different key.
//!
//! Concurrency: lookups take one mutex; builds run outside it, so two
//! threads racing on a cold key may both build — they insert equal
//! values and one wins. That trade keeps the suite's parallel jobs
//! from serializing on the cache.

use std::any::Any;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::disk::{DiskSkip, DiskTier};

/// A content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// What kind of intermediate this is (`"pairwise.xx"`,
    /// `"suite.MDD"`, ...). Static so keys are cheap to copy.
    pub kind: &'static str,
    /// Digest of the reference (real) side.
    pub a: u64,
    /// Digest of the generated side; `0` for reference-only entries.
    pub b: u64,
    /// Hash of every parameter that affects the value (config, seed,
    /// band, ...).
    pub p: u64,
}

impl CacheKey {
    /// A key from its four parts.
    pub fn new(kind: &'static str, a: u64, b: u64, p: u64) -> Self {
        Self { kind, a, b, p }
    }

    /// The disk-tier file stem: kind with path-hostile characters
    /// mapped away, plus the three digests in fixed-width hex.
    pub fn file_stem(&self) -> String {
        let kind: String = self
            .kind
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("{kind}-{:016x}-{:016x}-{:016x}", self.a, self.b, self.p)
    }
}

/// Values that can cross the process boundary through the disk tier.
pub trait Codable: Send + Sync + Sized + 'static {
    /// Serializes the value. The encoding must be self-contained —
    /// [`Codable::decode_bytes`] gets exactly these bytes back.
    fn encode_bytes(&self) -> Vec<u8>;
    /// Deserializes, returning `None` on any malformed input (the
    /// store treats `None` as a corrupt entry and rebuilds).
    fn decode_bytes(bytes: &[u8]) -> Option<Self>;
    /// Approximate in-memory footprint, for LRU accounting.
    fn approx_bytes(&self) -> usize;
}

impl Codable for f64 {
    fn encode_bytes(&self) -> Vec<u8> {
        self.to_bits().to_le_bytes().to_vec()
    }
    fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(arr)))
    }
    fn approx_bytes(&self) -> usize {
        8
    }
}

struct Entry {
    val: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    bytes: usize,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// In-memory lookup hits.
    pub hits: u64,
    /// Lookups that had to build (or fall through to disk).
    pub misses: u64,
    /// Misses satisfied by the disk tier without rebuilding.
    pub disk_hits: u64,
    /// Entries evicted by the LRU.
    pub evictions: u64,
    /// Current in-memory footprint.
    pub bytes: u64,
}

/// The content-addressed eval cache. See the module docs for the
/// keying and bit-identity contract.
pub struct EvalCache {
    inner: Mutex<Inner>,
    disk: Option<DiskTier>,
    cap_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
}

/// Default in-memory capacity: generous for the benchmark's window
/// sets (a pooled 2000×2000 distance block is 32 MB) without letting a
/// long-running monitor grow unbounded.
pub const DEFAULT_CAP_BYTES: usize = 256 * 1024 * 1024;

impl Default for EvalCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl EvalCache {
    /// A memory-only cache with the default capacity.
    pub fn in_memory() -> Self {
        Self::with_capacity(DEFAULT_CAP_BYTES)
    }

    /// A memory-only cache with an explicit LRU byte capacity.
    pub fn with_capacity(cap_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            disk: None,
            cap_bytes: cap_bytes.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Attaches an on-disk tier rooted at `dir` (created if missing).
    /// Codable entries written by other processes become warm starts;
    /// corrupt files are skipped with a recorded reason, never fatal.
    pub fn with_disk(dir: &Path) -> std::io::Result<Self> {
        let mut c = Self::in_memory();
        c.disk = Some(DiskTier::new(dir)?);
        Ok(c)
    }

    /// Whether a disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// Disk entries skipped as corrupt since construction, with
    /// reasons — the checkpoint-registry pattern: report, don't die.
    pub fn disk_skips(&self) -> Vec<DiskSkip> {
        self.disk.as_ref().map(DiskTier::skips).unwrap_or_default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.inner.lock().expect("evalcache poisoned").bytes as u64,
        }
    }

    /// Looks up `key`, building (and caching) the value on a miss.
    /// Memory tier only — for values that are cheap to rebuild across
    /// processes or have no stable byte encoding (fitted models, pool
    /// structures). `size_of` feeds the LRU accounting.
    pub fn get_or_insert_with<T, S, F>(&self, key: CacheKey, size_of: S, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        S: FnOnce(&T) -> usize,
        F: FnOnce() -> T,
    {
        if let Some(v) = self.lookup::<T>(&key) {
            return v;
        }
        self.record_miss(&key);
        let val = Arc::new(build());
        let bytes = size_of(&val);
        self.insert(key, val.clone(), bytes);
        val
    }

    /// Like [`EvalCache::get_or_insert_with`], but for [`Codable`]
    /// values: misses fall through to the disk tier before building,
    /// and built values are spilled back to disk.
    pub fn get_or_insert_codable<T, F>(&self, key: CacheKey, build: F) -> Arc<T>
    where
        T: Codable,
        F: FnOnce() -> T,
    {
        if let Some(v) = self.lookup::<T>(&key) {
            return v;
        }
        self.record_miss(&key);
        if let Some(disk) = &self.disk {
            if let Some(bytes) = disk.load(&key) {
                if let Some(val) = T::decode_bytes(&bytes) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    tsgb_obs::counter_add("evalcache.disk_hits", 1);
                    let val = Arc::new(val);
                    let b = val.approx_bytes();
                    self.insert(key, val.clone(), b);
                    return val;
                }
                disk.record_skip(&key, "payload decoded to no value");
            }
        }
        let val = Arc::new(build());
        if let Some(disk) = &self.disk {
            disk.store(&key, &val.encode_bytes());
        }
        let b = val.approx_bytes();
        self.insert(key, val.clone(), b);
        val
    }

    fn lookup<T: Send + Sync + 'static>(&self, key: &CacheKey) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().expect("evalcache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(key) {
            e.last_used = tick;
            if let Ok(v) = e.val.clone().downcast::<T>() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tsgb_obs::counter_add("evalcache.hits", 1);
                return Some(v);
            }
        }
        None
    }

    fn record_miss(&self, _key: &CacheKey) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        tsgb_obs::counter_add("evalcache.misses", 1);
    }

    fn insert(&self, key: CacheKey, val: Arc<dyn Any + Send + Sync>, bytes: usize) {
        let mut inner = self.inner.lock().expect("evalcache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                val,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        // LRU eviction down to capacity; never evict the entry just
        // inserted (the caller holds an Arc to it anyway).
        while inner.bytes > self.cap_bytes && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = inner.map.remove(&k) {
                        inner.bytes -= e.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        tsgb_obs::counter_add("evalcache.evictions", 1);
                    }
                }
                None => break,
            }
        }
        tsgb_obs::gauge_set("evalcache.bytes", inner.bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_stem_is_path_safe_and_unique_per_key() {
        let a = CacheKey::new("pairwise.xx", 1, 2, 3);
        let b = CacheKey::new("pairwise.xx", 1, 2, 4);
        assert_ne!(a.file_stem(), b.file_stem());
        assert!(a
            .file_stem()
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'));
    }

    #[test]
    fn f64_codable_roundtrips_bits() {
        for v in [0.0f64, -0.0, 1.5, -1e300, f64::MIN_POSITIVE, 0.1] {
            let back = f64::decode_bytes(&v.encode_bytes()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(f64::decode_bytes(&[1, 2, 3]).is_none());
    }
}
