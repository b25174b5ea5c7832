//! The optional on-disk cache tier.
//!
//! One file per entry under the configured directory, named by the
//! key's [`file_stem`](crate::CacheKey::file_stem) with a `.tsgbec`
//! extension. Writes are atomic (unique temp file + `rename`, the
//! checkpoint writer's idiom), so a crashed or concurrent process can
//! never leave a half-written entry visible. Reads validate a magic
//! header, an embedded key echo, a length, and an FNV checksum; any
//! mismatch skips the entry with a recorded reason — the
//! checkpoint-registry pattern: one corrupt file must not take down
//! the cache, it just costs one rebuild.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tsgb_wire::digest::fnv1a64;

use crate::store::CacheKey;

/// File format magic + version.
const MAGIC: &[u8; 8] = b"TSGBEC01";

/// Disk entry file extension.
pub const DISK_EXT: &str = "tsgbec";

/// One disk entry skipped as corrupt, with the reason.
#[derive(Debug, Clone)]
pub struct DiskSkip {
    /// File name inside the cache directory.
    pub file: String,
    /// Why it was skipped.
    pub reason: String,
}

/// The on-disk tier: a directory of checksummed entry files.
pub struct DiskTier {
    dir: PathBuf,
    skips: Mutex<Vec<DiskSkip>>,
}

impl DiskTier {
    /// Opens (creating if needed) the tier rooted at `dir`.
    pub fn new(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            skips: Mutex::new(Vec::new()),
        })
    }

    fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.{DISK_EXT}", key.file_stem()))
    }

    /// Records a skipped entry (also counted in
    /// `evalcache.disk_skipped`).
    pub fn record_skip(&self, key: &CacheKey, reason: &str) {
        tsgb_obs::counter_add("evalcache.disk_skipped", 1);
        self.skips.lock().expect("skips poisoned").push(DiskSkip {
            file: format!("{}.{DISK_EXT}", key.file_stem()),
            reason: reason.to_string(),
        });
    }

    /// Entries skipped so far.
    pub fn skips(&self) -> Vec<DiskSkip> {
        self.skips.lock().expect("skips poisoned").clone()
    }

    /// Loads the payload for `key`, or `None` if absent or corrupt
    /// (corruption is recorded, never fatal).
    pub fn load(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.record_skip(key, &format!("read failed: {e}"));
                return None;
            }
        };
        match Self::parse(key, &bytes) {
            Ok(payload) => Some(payload.to_vec()),
            Err(reason) => {
                self.record_skip(key, &reason);
                None
            }
        }
    }

    fn parse<'a>(key: &CacheKey, bytes: &'a [u8]) -> Result<&'a [u8], String> {
        let header = 8 + 8 + 8 + 8 + 8; // magic, a, b, p, payload len
        if bytes.len() < header + 8 {
            return Err(format!("truncated header ({} bytes)", bytes.len()));
        }
        if &bytes[..8] != MAGIC {
            return Err("bad magic".into());
        }
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        if (u64_at(8), u64_at(16), u64_at(24)) != (key.a, key.b, key.p) {
            return Err("key echo mismatch".into());
        }
        let len = u64_at(32) as usize;
        if bytes.len() != header + len + 8 {
            return Err(format!(
                "length mismatch (declared {len}, file {})",
                bytes.len()
            ));
        }
        let payload = &bytes[header..header + len];
        let checksum = u64_at(header + len);
        if fnv1a64(payload) != checksum {
            return Err("checksum mismatch".into());
        }
        Ok(payload)
    }

    /// Writes the payload for `key` atomically. Failures are recorded
    /// and swallowed — the disk tier is an accelerator, not a
    /// dependency.
    pub fn store(&self, key: &CacheKey, payload: &[u8]) {
        let mut bytes = Vec::with_capacity(48 + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&key.a.to_le_bytes());
        bytes.extend_from_slice(&key.b.to_le_bytes());
        bytes.extend_from_slice(&key.p.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        // unique temp name per writer, then atomic rename
        let tmp = self.dir.join(format!(
            ".{}.tmp.{}.{:?}",
            key.file_stem(),
            std::process::id(),
            std::thread::current().id()
        ));
        let outcome =
            std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, self.path_for(key)));
        if let Err(e) = outcome {
            let _ = std::fs::remove_file(&tmp);
            self.record_skip(key, &format!("write failed: {e}"));
        } else {
            tsgb_obs::counter_add("evalcache.disk_writes", 1);
        }
    }
}
