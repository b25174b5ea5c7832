//! Store behavior: hit/miss accounting, LRU eviction, the disk tier's
//! warm starts and its corrupt-entry tolerance.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use tsgb_evalcache::{CacheKey, EvalCache};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tsgb_ec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn memory_hits_return_the_same_arc_and_count() {
    let c = EvalCache::in_memory();
    let key = CacheKey::new("test.v", 1, 2, 3);
    let builds = AtomicUsize::new(0);
    let a = c.get_or_insert_with(
        key,
        |v: &Vec<f64>| v.len() * 8,
        || {
            builds.fetch_add(1, Ordering::SeqCst);
            vec![1.0, 2.0]
        },
    );
    let b = c.get_or_insert_with(
        key,
        |v: &Vec<f64>| v.len() * 8,
        || {
            builds.fetch_add(1, Ordering::SeqCst);
            vec![9.0]
        },
    );
    assert_eq!(builds.load(Ordering::SeqCst), 1, "second lookup must hit");
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    let s = c.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    assert_eq!(s.bytes, 16);
}

#[test]
fn lru_evicts_the_coldest_entry() {
    // capacity for two 8-byte floats; inserting a third evicts the
    // least recently used
    let c = EvalCache::with_capacity(16);
    let k1 = CacheKey::new("test.f", 1, 0, 0);
    let k2 = CacheKey::new("test.f", 2, 0, 0);
    let k3 = CacheKey::new("test.f", 3, 0, 0);
    c.get_or_insert_codable(k1, || 1.0f64);
    c.get_or_insert_codable(k2, || 2.0f64);
    // touch k1 so k2 becomes the coldest
    c.get_or_insert_codable(k1, || -> f64 { unreachable!("k1 must be warm") });
    c.get_or_insert_codable(k3, || 3.0f64);
    assert_eq!(c.stats().evictions, 1);
    // k2 was evicted: looking it up rebuilds
    let rebuilt = AtomicUsize::new(0);
    c.get_or_insert_codable(k2, || {
        rebuilt.fetch_add(1, Ordering::SeqCst);
        2.0f64
    });
    assert_eq!(rebuilt.load(Ordering::SeqCst), 1);
    // re-inserting k2 evicted the then-coldest entry (k1); the most
    // recently used key (k2 itself) must be resident
    c.get_or_insert_codable(k2, || -> f64 {
        unreachable!("k2 evicted right after insert")
    });
    assert_eq!(c.stats().evictions, 2);
}

#[test]
fn disk_tier_warms_a_fresh_cache() {
    let dir = tmpdir("warm");
    let key = CacheKey::new("test.xx", 7, 0, 9);
    {
        let c = EvalCache::with_disk(&dir).unwrap();
        c.get_or_insert_codable(key, || 42.5f64);
        assert_eq!(c.stats().disk_hits, 0);
    }
    // a new cache instance (fresh process, conceptually) loads from
    // disk without building
    let c2 = EvalCache::with_disk(&dir).unwrap();
    let v = c2.get_or_insert_codable(key, || -> f64 { unreachable!("must come from disk") });
    assert_eq!(v.to_bits(), 42.5f64.to_bits());
    assert_eq!(c2.stats().disk_hits, 1);
    assert!(c2.disk_skips().is_empty());
    // no temp litter
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "temp files left behind: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_disk_entries_are_skipped_with_reasons() {
    let dir = tmpdir("corrupt");
    let key = CacheKey::new("test.xx", 11, 0, 13);
    {
        let c = EvalCache::with_disk(&dir).unwrap();
        c.get_or_insert_codable(key, || 7.25f64);
    }
    // garble every entry file in the directory
    let mut garbled = 0;
    for e in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
        let p = e.path();
        if p.extension().and_then(|x| x.to_str()) == Some("tsgbec") {
            let mut bytes = std::fs::read(&p).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff; // break the checksum
            std::fs::write(&p, &bytes).unwrap();
            garbled += 1;
        }
    }
    assert_eq!(garbled, 1);
    let c2 = EvalCache::with_disk(&dir).unwrap();
    let rebuilt = AtomicUsize::new(0);
    let v = c2.get_or_insert_codable(key, || {
        rebuilt.fetch_add(1, Ordering::SeqCst);
        7.25f64
    });
    assert_eq!(*v, 7.25);
    assert_eq!(
        rebuilt.load(Ordering::SeqCst),
        1,
        "corrupt entry must rebuild"
    );
    let skips = c2.disk_skips();
    assert_eq!(skips.len(), 1);
    assert!(
        skips[0].reason.contains("checksum"),
        "reason should name the failure: {:?}",
        skips[0]
    );
    // the rebuild rewrote the entry; a third instance warms cleanly
    let c3 = EvalCache::with_disk(&dir).unwrap();
    c3.get_or_insert_codable(key, || -> f64 { unreachable!("rewritten entry must load") });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_wrong_magic_files_are_skipped() {
    let dir = tmpdir("magic");
    let key = CacheKey::new("test.xx", 21, 0, 0);
    let c = EvalCache::with_disk(&dir).unwrap();
    // plant a wrong file where the entry would live
    let path = dir.join(format!("{}.tsgbec", key.file_stem()));
    std::fs::write(&path, b"not an entry").unwrap();
    let v = c.get_or_insert_codable(key, || 1.5f64);
    assert_eq!(*v, 1.5);
    let skips = c.disk_skips();
    assert_eq!(skips.len(), 1);
    assert!(
        skips[0].reason.contains("truncated") || skips[0].reason.contains("magic"),
        "{:?}",
        skips[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reference_only_keys_are_shared_across_generated_sides() {
    // the xx-block pattern: b = 0 keys hit regardless of which
    // generated set the caller is comparing against
    let c = EvalCache::in_memory();
    let ref_digest = 0xabcdu64;
    let key = CacheKey::new("pairwise.xx", ref_digest, 0, 0);
    let builds = AtomicUsize::new(0);
    for _generated in 0..5 {
        c.get_or_insert_with(
            key,
            |_: &Vec<f64>| 8,
            || {
                builds.fetch_add(1, Ordering::SeqCst);
                vec![1.0]
            },
        );
    }
    assert_eq!(builds.load(Ordering::SeqCst), 1);
    assert_eq!(c.stats().hits, 4);
}
