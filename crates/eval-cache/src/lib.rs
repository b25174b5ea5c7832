#![warn(missing_docs)]

//! `tsgb-evalcache`: the content-addressed cache behind incremental
//! evaluation.
//!
//! TSGBench's twelve-measure suite re-derives everything from scratch
//! on every run — pairwise-distance blocks, reference embeddings,
//! DTW-NN pool structures — even when the reference side has not
//! changed by a byte. This crate makes "unchanged input" cost a
//! digest lookup:
//!
//! * [`encoding`] — canonical, bit-exact window-set encodings through
//!   the `tsgb-wire` JSON codec, digested with the shared
//!   FNV-1a/splitmix64 hash ([`tsgb_wire::digest`]).
//! * [`store`] — the [`EvalCache`]: typed in-memory LRU keyed on
//!   `(kind, reference digest, generated digest, parameter hash)`,
//!   with reference-only entries (`b = 0`) shared across every
//!   generated-set comparison.
//! * [`disk`] — an optional on-disk tier (atomic tmp+rename writes,
//!   checksummed reads, corrupt entries skipped with reasons) so warm
//!   state survives the process.
//!
//! The consuming layer is `tsgb-eval`: every producer a key maps to is
//! a deterministic pure function of the digested inputs, so cached
//! and recomputed values are bit-identical — the property the golden
//! suite re-run under `TSGB_EVAL_CACHE=on` pins.
//!
//! # Configuration
//!
//! | env variable          | default | meaning                                  |
//! |-----------------------|---------|------------------------------------------|
//! | `TSGB_EVAL_CACHE`     | off     | `on`/`1`/`true` enables the global cache |
//! | `TSGB_EVAL_CACHE_DIR` | unset   | directory for the on-disk tier           |
//!
//! Observability (`TSGB_OBS=1`): `evalcache.hits`, `evalcache.misses`,
//! `evalcache.evictions`, `evalcache.disk_hits`,
//! `evalcache.disk_writes`, `evalcache.disk_skipped` counters and an
//! `evalcache.bytes` gauge.

pub mod disk;
pub mod encoding;
pub mod store;

pub use disk::{DiskSkip, DiskTier, DISK_EXT};
pub use encoding::{
    decode_tensor, digest_matrix, digest_tensor, digest_tensor_unordered, digest_window,
    encode_tensor, tensor_to_json,
};
pub use store::{CacheKey, CacheStats, Codable, EvalCache};
// Re-exported so consumers hash parameter blocks with the same
// function the keys use, without a direct tsgb-wire dependency.
pub use tsgb_wire::digest::Fnv64;

use std::sync::OnceLock;

/// Whether the env-gated global cache is enabled (`TSGB_EVAL_CACHE`
/// set to `on`, `1`, or `true`; default off). Read per call — tests
/// and the verify matrix flip it per process.
pub fn enabled() -> bool {
    std::env::var("TSGB_EVAL_CACHE")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "on" || v == "1" || v == "true"
        })
        .unwrap_or(false)
}

/// The process-global cache, constructed on first use: disk tier at
/// `TSGB_EVAL_CACHE_DIR` when set (falling back to memory-only if the
/// directory cannot be created), memory-only otherwise.
pub fn global() -> &'static EvalCache {
    static GLOBAL: OnceLock<EvalCache> = OnceLock::new();
    GLOBAL.get_or_init(|| match std::env::var("TSGB_EVAL_CACHE_DIR") {
        Ok(dir) if !dir.trim().is_empty() => EvalCache::with_disk(std::path::Path::new(dir.trim()))
            .unwrap_or_else(|_| EvalCache::in_memory()),
        _ => EvalCache::in_memory(),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_by_default_in_a_clean_env() {
        // the test runner does not set TSGB_EVAL_CACHE for unit tests
        if std::env::var("TSGB_EVAL_CACHE").is_err() {
            assert!(!super::enabled());
        }
    }
}
