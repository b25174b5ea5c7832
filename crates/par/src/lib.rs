#![warn(missing_docs)]

//! `tsgb-par`: a std-only parallel execution runtime for the benchmark.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Every primitive is index-addressed: task `i`
//!    always computes the same value and lands in slot `i` of the
//!    output, so results are bit-identical no matter how many worker
//!    threads run — including one (inline execution). Work is
//!    *claimed*, not pre-split: every thread, the caller included,
//!    takes the next unclaimed index from a shared cursor, so timing
//!    decides which thread runs an index but never which slot its
//!    result lands in. Uneven work therefore balances itself — a few
//!    expensive indices no longer pin one thread while the rest idle.
//!    Reductions over parallel results must fold the returned `Vec` in
//!    index order, which callers get for free from [`parallel_map`].
//! 2. **Zero dependencies.** Built on [`std::thread::scope`]; worker
//!    threads borrow the caller's data directly, no channels or arcs.
//! 3. **No oversubscription.** Claimed work runs with the pool size
//!    forced to 1 — on workers and on the calling thread alike — so
//!    nested parallel calls (e.g. a parallel matmul inside a parallel
//!    eval measure) degrade to inline execution instead of multiplying
//!    threads.
//!
//! A panic in claimed work stops every thread from claiming more and
//! is re-raised on the caller with its original payload, whichever
//! thread ran the panicking index.
//!
//! Pool sizing: the `TSGB_THREADS` environment variable when set (a
//! positive integer; `1` disables threading entirely), otherwise
//! [`std::thread::available_parallelism`]. [`with_threads`] overrides
//! the size for the current thread's dynamic scope, which tests use to
//! compare thread counts without touching the process environment.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// 0 = no override; otherwise the forced pool size for this thread.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };

    /// Cached environment-derived pool size; 0 = not read yet. An
    /// `std::env::var` lookup takes a process-global lock, far too
    /// expensive for the hot path (`max_threads` runs on every matmul
    /// dispatch), so each thread reads the environment once.
    static ENV_CACHE: Cell<usize> = const { Cell::new(0) };
}

/// The pool size the next parallel call on this thread will use:
/// the [`with_threads`] override if active, else `TSGB_THREADS`, else
/// the machine's available parallelism.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.with(|c| c.get());
    if o > 0 {
        return o;
    }
    env_threads()
}

/// The environment-derived pool size (ignoring [`with_threads`]),
/// read once per thread: a change to `TSGB_THREADS` is observed by
/// threads spawned after it, not by threads that already sized their
/// pool.
fn env_threads() -> usize {
    ENV_CACHE.with(|c| {
        let cached = c.get();
        if cached > 0 {
            return cached;
        }
        let n = read_env_threads();
        c.set(n);
        n
    })
}

/// Uncached environment read behind [`env_threads`].
fn read_env_threads() -> usize {
    if let Ok(v) = std::env::var("TSGB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the pool size forced to `n` on the current thread
/// (restored afterwards, also on panic). `with_threads(1, f)` proves
/// the serial path: every parallel primitive inside runs inline.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// The claiming core behind every primitive: the calling thread and
/// `threads - 1` scoped workers each take the next item from the
/// shared `items` cursor until it runs dry, passing it to `work` with
/// nested parallelism forced to 1. Returns every thread's results, each
/// in its own claim order; which thread got which item is a matter of
/// timing, so callers must address results by the item, never by
/// position.
///
/// A panic in `work` abandons the cursor, so the other threads stop
/// after their current item, and is re-raised here with its original
/// payload once every thread has stopped.
fn claim_loops<W, R: Send>(
    threads: usize,
    items: impl Iterator<Item = W> + Send,
    work: impl Fn(W) -> R + Sync,
) -> Vec<Vec<R>> {
    // the lock is held only to advance or drop the iterator, never
    // across `work`, and either step leaves the cursor valid, so a
    // poisoned lock is safe to take over
    let cursor = Mutex::new(Some(items));
    let claim = || {
        let mut items = cursor.lock().unwrap_or_else(PoisonError::into_inner);
        items.as_mut()?.next()
    };
    let run = || {
        with_threads(1, || {
            let _abandon = AbandonOnPanic(&cursor);
            let mut out = Vec::new();
            while let Some(item) = claim() {
                out.push(work(item));
            }
            out
        })
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(run)).collect();
        let mut parts = Vec::with_capacity(threads);
        parts.push(run());
        for w in workers {
            parts.push(
                w.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        parts
    })
}

/// Drops the shared cursor when its thread unwinds, so a panic ends
/// the whole parallel call instead of waiting out the remaining items.
struct AbandonOnPanic<'a, I>(&'a Mutex<Option<I>>);

impl<I> Drop for AbandonOnPanic<'_, I> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// Output slot `i` always holds `f(i)`; with the pool sized at 1 (or
/// `n <= 1`) the whole map runs inline on the calling thread.
/// Otherwise the caller and the workers claim indices one at a time
/// and run `f` with nested parallelism disabled.
pub fn parallel_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = max_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let parts = claim_loops(threads, 0..n, |i| (i, f(i)));
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// Runs `f(i)` for every `i` in `0..n`, in parallel. Use only for
/// side-effect-free-per-index work (e.g. filling disjoint interior
/// state through `&self`); for output collection use [`parallel_map`],
/// for disjoint mutation use [`parallel_chunks_mut`].
pub fn parallel_for(n: usize, f: impl Fn(usize) + Sync) {
    parallel_map(n, f);
}

/// Splits `data` into consecutive `chunk_len`-sized pieces (the last
/// may be shorter) and calls `f(chunk_index, chunk)` on each, in
/// parallel. Chunk `i` always covers `data[i*chunk_len ..]` — the
/// partition is independent of the thread count and of which thread
/// claims which chunk, so writes land in identical places no matter
/// how the chunks are scheduled.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = max_threads().min(n_chunks);
    if threads <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    claim_loops(threads, data.chunks_mut(chunk_len).enumerate(), |(i, c)| {
        f(i, c)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Condvar};
    use std::time::Duration;

    /// The three primitives behind one index-addressed signature, so
    /// every scheduling property is checked on each of them.
    #[derive(Debug, Clone, Copy)]
    enum Prim {
        Map,
        For,
        ChunksMut,
    }

    const PRIMS: [Prim; 3] = [Prim::Map, Prim::For, Prim::ChunksMut];

    /// Runs `f(i)` for `i` in `0..n` through `prim` and returns the
    /// results in index order (chunks of length 1, so chunk `i` is
    /// index `i`).
    fn run<R: Send + Default>(prim: Prim, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        match prim {
            Prim::Map => parallel_map(n, f),
            Prim::For => {
                let slots: Vec<Mutex<R>> = (0..n).map(|_| Mutex::default()).collect();
                parallel_for(n, |i| *slots[i].lock().unwrap() = f(i));
                slots.into_iter().map(|m| m.into_inner().unwrap()).collect()
            }
            Prim::ChunksMut => {
                let mut out: Vec<R> = (0..n).map(|_| R::default()).collect();
                parallel_chunks_mut(&mut out, 1, |i, c| c[0] = f(i));
                out
            }
        }
    }

    /// The panic payload's message, for `&str` and `String` payloads.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || parallel_map(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
        let mut empty: [u8; 0] = [];
        parallel_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks to visit"));
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let ids = with_threads(1, || parallel_map(8, |_| std::thread::current().id()));
        assert!(
            ids.iter().all(|&id| id == caller),
            "pool of 1 must not spawn"
        );
    }

    #[test]
    fn multi_thread_actually_spawns() {
        // two indices that each wait for the other force both threads
        // to claim one, so a worker must have run
        let caller = std::thread::current().id();
        let both = Barrier::new(2);
        let ids = with_threads(2, || {
            parallel_map(2, |_| {
                both.wait();
                std::thread::current().id()
            })
        });
        assert!(ids.contains(&caller) && ids.iter().any(|&id| id != caller));
    }

    /// The caller claims work too, and wherever an index runs — on a
    /// worker or on the calling thread — nested parallelism is off.
    #[test]
    fn claimed_work_disables_nested_parallelism_on_every_thread() {
        let caller = std::thread::current().id();
        let before = max_threads();
        for prim in PRIMS {
            let both = Barrier::new(2);
            let seen = with_threads(4, || {
                run(prim, 2, |_| {
                    both.wait();
                    Some((std::thread::current().id() == caller, max_threads()))
                })
            });
            let seen: Vec<(bool, usize)> = seen.into_iter().map(Option::unwrap).collect();
            assert!(
                seen.iter().any(|&(on_caller, _)| on_caller),
                "{prim:?}: {seen:?}"
            );
            assert!(
                seen.iter().any(|&(on_caller, _)| !on_caller),
                "{prim:?}: {seen:?}"
            );
            assert!(seen.iter().all(|&(_, t)| t == 1), "{prim:?}: {seen:?}");
        }
        with_threads(3, || {
            parallel_for(6, |_| {});
            assert_eq!(max_threads(), 3, "the caller's pool size is restored");
        });
        assert_eq!(max_threads(), before);
    }

    /// No thread idles while work is left: index 0 blocks until every
    /// other index has run. A static split at 2 threads deadlocks here
    /// (the thread holding index 0 also owns indices 1..n/2); claiming
    /// lets the other thread drain them all.
    #[test]
    fn no_thread_idles_while_work_remains() {
        const N: usize = 16;
        for prim in PRIMS {
            let done = Mutex::new(0usize);
            let all_others = Condvar::new();
            with_threads(2, || {
                run(prim, N, |i| {
                    let mut count = done.lock().unwrap();
                    if i == 0 {
                        let (count, wait) = all_others
                            .wait_timeout_while(count, Duration::from_secs(10), |c| *c < N - 1)
                            .unwrap();
                        assert!(
                            !wait.timed_out(),
                            "{prim:?}: index 0 waited 10 s with {} of {} other indices run",
                            *count,
                            N - 1
                        );
                    } else {
                        *count += 1;
                        all_others.notify_all();
                    }
                })
            });
        }
    }

    /// Skewed per-index cost reorders which thread finishes what, but
    /// never a bit of the output; and every index runs exactly once.
    #[test]
    fn skewed_work_is_bit_identical_and_runs_each_index_once() {
        const N: usize = 61;
        let work = |i: usize| -> f64 {
            // a few indices cost ~100x the rest
            let iters = if i % 17 == 3 {
                40_000
            } else {
                1 + (i * 37) % 400
            };
            (0..iters).fold(i as f64 * 0.1 + 1.0, |acc, k| {
                (acc * 1.000_001 + (k as f64).sqrt()).sin() + acc * 0.5
            })
        };
        for prim in PRIMS {
            let serial: Vec<u64> = with_threads(1, || run(prim, N, work))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for threads in [1, 2, 3, 8] {
                let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let bits: Vec<u64> = with_threads(threads, || {
                    run(prim, N, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        work(i)
                    })
                })
                .iter()
                .map(|v| v.to_bits())
                .collect();
                assert_eq!(bits, serial, "{prim:?} at {threads} threads");
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{prim:?} at {threads} threads ran an index other than once"
                );
            }
        }
    }

    /// A panicking index re-raises its own payload on the caller,
    /// whether the index ran on a worker or on the calling thread.
    #[test]
    fn panics_keep_their_message_on_either_thread() {
        let caller = std::thread::current().id();
        for prim in PRIMS {
            for panic_on_caller in [true, false] {
                let both = Barrier::new(2);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    with_threads(2, || {
                        run(prim, 2, |i| {
                            // both indices in flight at once: one per thread
                            both.wait();
                            if (std::thread::current().id() == caller) == panic_on_caller {
                                panic!("index {i} failed on purpose");
                            }
                        })
                    })
                }));
                let payload = result.expect_err("the panic must propagate");
                let msg = panic_message(payload.as_ref());
                assert!(
                    msg.starts_with("index ") && msg.ends_with(" failed on purpose"),
                    "{prim:?} (panic on caller: {panic_on_caller}) lost its message: {msg:?}"
                );
            }
        }
    }

    /// After a panic the remaining indices are abandoned, not drained.
    #[test]
    fn a_panic_stops_further_claims() {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                parallel_for(10_000, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 0 {
                        panic!("stop");
                    }
                    std::thread::sleep(Duration::from_micros(50));
                })
            })
        }));
        assert!(result.is_err());
        assert!(ran.load(Ordering::Relaxed) < 10_000);
    }

    #[test]
    fn tsgb_threads_env_forces_inline() {
        // process-global env var: this is the only test that touches
        // it. The value is cached per thread at first use, so each
        // assertion runs on a freshly spawned thread.
        std::env::set_var("TSGB_THREADS", "1");
        std::thread::spawn(|| {
            let caller = std::thread::current().id();
            let ids = parallel_map(16, |_| std::thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "TSGB_THREADS=1 must degrade to inline execution"
            );
        })
        .join()
        .unwrap();
        std::env::set_var("TSGB_THREADS", "3");
        std::thread::spawn(|| assert_eq!(max_threads(), 3))
            .join()
            .unwrap();
        std::env::remove_var("TSGB_THREADS");
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = max_threads();
        with_threads(2, || assert_eq!(max_threads(), 2));
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn chunks_mut_partitions_identically() {
        let fill = |idx: usize, c: &mut [usize]| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = idx * 1000 + j;
            }
        };
        let mut serial = vec![0usize; 103];
        with_threads(1, || parallel_chunks_mut(&mut serial, 10, fill));
        for threads in [2, 5, 16] {
            let mut par = vec![0usize; 103];
            with_threads(threads, || parallel_chunks_mut(&mut par, 10, fill));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }
}
