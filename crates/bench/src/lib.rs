#![warn(missing_docs)]

//! `tsgb-bench`: the benchmark harness.
//!
//! The `reproduce` binary (`cargo run -p tsgb-bench --release --bin
//! reproduce -- --all`) regenerates every table and figure of the
//! paper at reduced scale, printing the same row/column structure and
//! writing CSV artifacts under `results/`. Beside it, `perf_baseline`
//! times the kernels, `loadgen` probes the serving tier and `ps_probe`
//! diagnoses PS convergence.
//!
//! The library part hosts the experiment code ([`experiments`]), so
//! `reproduce` and the benchmark in `perfbench/` share one
//! orchestration.

pub mod experiments;

pub use experiments::{ExperimentCtx, Scale};

/// Heap-allocation counting for the perf probes (opt-in).
///
/// Compiled with `--features alloc-count`, this installs a global
/// allocator that counts every `alloc`/`realloc` call, letting
/// `perf_baseline` report allocations per recycled train step. Off by
/// default so ordinary builds keep the system allocator untouched.
#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocation calls.
    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the counter is a relaxed
    // atomic with no allocation of its own.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Total allocation calls since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Allocation calls so far, or `None` when the `alloc-count` feature
/// (and its counting global allocator) is not compiled in.
pub fn allocations() -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    {
        Some(alloc_count::allocations())
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}
