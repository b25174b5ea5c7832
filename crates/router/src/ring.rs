//! The consistent-hash ring that assigns model ids to worker slots.
//!
//! Each worker slot contributes [`VNODES_PER_WORKER`] virtual nodes —
//! FNV-1a points on a `u64` circle — and a key is owned by the first
//! `R` *distinct* slots clockwise from the key's own hash. Two
//! properties are load-bearing and pinned by the unit tests:
//!
//! * **balance** — vnodes smear each worker around the circle, so even
//!   a handful of keys (the 14 benchmark method ids) spreads within a
//!   constant factor of ideal;
//! * **minimal remapping** — adding or removing one worker moves only
//!   the keys whose nearest points changed, ~`1/N` of the keyspace,
//!   so a respawned tier reshuffles almost nothing.
//!
//! The assignment is a pure function of `(worker count, key)` — no
//! state, no RNG — which is what makes shard layout reproducible
//! across router restarts (see `Registry::scan_model_names` for the
//! equally deterministic key universe).

// FNV-1a, 64-bit, with a splitmix64-style finalizer — the hash the
// eval cache's content addressing shares. Bare FNV mixes a trailing
// counter byte through a single multiply, which clusters the vnode
// points of sequential labels badly enough to break the remapping
// bound; the finalizer's xor-shift-multiply cascade spreads them
// uniformly.
use tsgb_wire::digest::fnv1a64;

/// Virtual nodes per worker slot. 64 keeps the balance bound tight
/// without making ring construction or lookup measurable.
pub const VNODES_PER_WORKER: usize = 64;

/// The ring: hash points sorted clockwise, each tagged with its
/// worker slot.
#[derive(Debug, Clone)]
pub struct Ring {
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl Ring {
    /// A ring over worker slots `0..workers`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a ring needs at least one worker");
        let mut points = Vec::with_capacity(workers * VNODES_PER_WORKER);
        for slot in 0..workers {
            for vnode in 0..VNODES_PER_WORKER {
                let label = format!("worker-{slot}-vnode-{vnode}");
                points.push((fnv1a64(label.as_bytes()), slot));
            }
        }
        points.sort_unstable();
        Self { points, workers }
    }

    /// How many worker slots the ring covers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The first `r` distinct worker slots clockwise from `key`'s
    /// hash, in preference order. `r` is clamped to the worker count,
    /// so asking for more replicas than workers degrades gracefully.
    pub fn replicas(&self, key: &str, r: usize) -> Vec<usize> {
        let r = r.clamp(1, self.workers);
        let h = fnv1a64(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut slots = Vec::with_capacity(r);
        for i in 0..self.points.len() {
            let (_, slot) = self.points[(start + i) % self.points.len()];
            if !slots.contains(&slot) {
                slots.push(slot);
                if slots.len() == r {
                    break;
                }
            }
        }
        slots
    }

    /// The key's primary owner (first replica).
    pub fn primary(&self, key: &str) -> usize {
        self.replicas(key, 1)[0]
    }
}

/// The shard each worker loads: `shards[slot]` lists every model name
/// whose replica set includes `slot`, in the input order of `names`.
/// With `replicas > 1` a model appears in several shards — replicas
/// are interchangeable because generation is a pure function of
/// `(checkpoint, n, seed)`.
pub fn shard_assignment(names: &[String], ring: &Ring, replicas: usize) -> Vec<Vec<String>> {
    let mut shards = vec![Vec::new(); ring.workers()];
    for name in names {
        for slot in ring.replicas(name, replicas) {
            shards[slot].push(name.clone());
        }
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_methods::MethodId;

    /// The benchmark's 14 method ids — the realistic key universe.
    fn method_names() -> Vec<String> {
        MethodId::ALL
            .iter()
            .chain(MethodId::EXTENDED.iter())
            .map(|m| m.name().to_string())
            .collect()
    }

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let names = method_names();
        assert_eq!(names.len(), 14);
        for workers in [1, 2, 3, 5, 8] {
            let ring = Ring::new(workers);
            for name in &names {
                let a = ring.replicas(name, 2);
                let b = Ring::new(workers).replicas(name, 2);
                assert_eq!(a, b, "assignment must be a pure function");
                assert!(a.iter().all(|&s| s < workers));
                let mut dedup = a.clone();
                dedup.dedup();
                assert_eq!(a.len(), dedup.len(), "replicas must be distinct slots");
                assert_eq!(a.len(), 2.min(workers));
            }
        }
    }

    #[test]
    fn fourteen_methods_balance_across_small_fleets() {
        let names = method_names();
        for workers in [2usize, 3, 5] {
            let ring = Ring::new(workers);
            let shards = shard_assignment(&names, &ring, 1);
            let loads: Vec<usize> = shards.iter().map(Vec::len).collect();
            assert_eq!(loads.iter().sum::<usize>(), names.len());
            let ideal = names.len().div_ceil(workers);
            for (slot, &load) in loads.iter().enumerate() {
                assert!(
                    load >= 1,
                    "{workers} workers: slot {slot} got no models ({loads:?})"
                );
                assert!(
                    load <= 2 * ideal,
                    "{workers} workers: slot {slot} got {load} > 2×ideal({ideal}) ({loads:?})"
                );
            }
        }
    }

    #[test]
    fn replication_multiplies_shard_volume_without_hotspots() {
        let names = method_names();
        let ring = Ring::new(3);
        let shards = shard_assignment(&names, &ring, 2);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(
            total,
            names.len() * 2,
            "every model gets exactly 2 replicas"
        );
        for (slot, shard) in shards.iter().enumerate() {
            let mut sorted = shard.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), shard.len(), "slot {slot} loads a model twice");
        }
    }

    #[test]
    fn worker_join_moves_about_one_over_n_of_the_keys() {
        let keys: Vec<String> = (0..1000).map(|i| format!("model-{i}")).collect();
        for n in [2usize, 4, 8] {
            let before = Ring::new(n);
            let after = Ring::new(n + 1);
            let moved = keys
                .iter()
                .filter(|k| before.primary(k) != after.primary(k))
                .count();
            let ideal = keys.len() / (n + 1);
            // tolerance band: consistent hashing promises ~1/(n+1),
            // naive modulo would move ~n/(n+1) — an order of magnitude
            // more. The band proves we are on the right side.
            assert!(
                moved <= 2 * ideal,
                "join {n}->{}: moved {moved}, ideal {ideal}",
                n + 1
            );
            assert!(
                moved >= ideal / 3,
                "join {n}->{}: moved only {moved} — suspiciously static ring",
                n + 1
            );
        }
    }

    #[test]
    fn worker_leave_only_reassigns_the_departed_slots_keys() {
        let keys: Vec<String> = (0..1000).map(|i| format!("model-{i}")).collect();
        let big = Ring::new(5);
        let small = Ring::new(4);
        // keys whose primary in the 5-ring was NOT slot 4 must keep
        // their primary in the 4-ring: removal only re-homes the
        // departed worker's keys
        for k in &keys {
            let p5 = big.primary(k);
            if p5 < 4 {
                assert_eq!(
                    small.primary(k),
                    p5,
                    "{k}: survived worker's key moved on unrelated leave"
                );
            } else {
                assert!(small.primary(k) < 4);
            }
        }
    }

    #[test]
    fn fnv_spreads_the_method_names() {
        let names = method_names();
        let mut hashes: Vec<u64> = names.iter().map(|n| fnv1a64(n.as_bytes())).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), names.len(), "hash collision among method ids");
    }
}
