//! Packed cache-blocked GEMM microkernels.
//!
//! The band kernels in [`crate::matrix`] walk the operands in their
//! natural row-major layout, which caps throughput on two fronts: the
//! `B` rows are re-streamed from L2 for every output row, and the
//! per-element accumulator chains are too short for the CPU's
//! floating-point pipes to overlap. This module is the classic
//! Goto-style answer — *pack* panels of `A` and `B` into contiguous
//! tile-major buffers once, then drive a register-tile microkernel
//! over the packed panels — implemented under one hard constraint:
//! the result must be **bit-identical** to the band kernels.
//!
//! # Packing layout
//!
//! * `A` is packed in row panels of [`MR`]: panel `p` holds rows
//!   `p*MR .. p*MR+MR`, stored `k`-major — `apack[p*k*MR + kk*MR + i]`
//!   is `A[p*MR+i][kk]`. Rows past `m` are padded with `0.0`.
//! * `B` is packed in column panels of [`NR`]: panel `q` holds columns
//!   `q*NR .. q*NR+NR`, stored `k`-major — `bpack[q*k*NR + kk*NR + j]`
//!   is `B[kk][q*NR+j]`. Columns past `n` are padded with `0.0`.
//!
//! The microkernel then reads both panels *sequentially*: one `MR`-row
//! sliver of `A` and one `NR`-column sliver of `B` advance together
//! through `k`, so every cache line fetched is fully consumed. The
//! `k` loop is additionally blocked by [`KC`] so the active `A` sliver
//! (`MR x KC` doubles) and `B` sliver (`KC x NR`) stay L1-resident.
//!
//! # Why the packed path is bit-identical
//!
//! Every output element is produced by exactly one accumulator chain:
//! it starts from the existing `C` value, then adds `a(i,kk)*b(kk,j)`
//! terms in strictly ascending `kk`, one multiply-then-add at a time —
//! precisely the chain the band kernels build (their 4-way unroll adds
//! terms one at a time into the same fold). The `KC` blocking stores
//! the partial sum to `C` between blocks and reloads it, which is
//! exact for `f64`. Rust never contracts `a*b + c` into a fused
//! multiply-add on its own, so both paths round every term
//! identically. Tile shape, panel order and thread banding only change
//! *which* chain runs when — never the order within a chain — so the
//! packed path equals the band path bit for bit, at every thread
//! count.
//!
//! Padding never skips work: padded lanes *compute* (against `0.0`
//! operands) but are never written back, and real zero terms are still
//! added, so IEEE propagation (`0.0 * NaN = NaN`) is preserved.

use crate::matrix::{dispatch_row_bands, PAR_WORK_THRESHOLD};
use crate::{Matrix, MatrixPool};
use std::cell::{Cell, RefCell};

/// Microkernel row-tile height: each microkernel invocation produces
/// an `MR x NR` block of `C` held in registers.
pub const MR: usize = 8;

/// Microkernel column-tile width — one AVX-512 `f64` vector, so a row
/// of the register tile is exactly one vector register on the wide
/// path and a pair of 256-bit (or quad of 128-bit) lanes for the
/// autovectorized fallback.
pub const NR: usize = 8;

/// `k`-direction cache block: the active `A` sliver (`MR * KC`
/// doubles = 16 KB) plus the `B` sliver (`KC * NR` = 16 KB) stay
/// within L1. Partial sums are parked in `C` between blocks, which is
/// exact (see the module docs).
pub const KC: usize = 256;

/// Which GEMM implementation the dispatch layer selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmMode {
    /// Packed tile-major microkernel path (the default).
    Packed,
    /// The original row-band kernels.
    Band,
}

thread_local! {
    /// The [`with_gemm_mode`] override active on this thread, if any.
    static MODE_OVERRIDE: Cell<Option<GemmMode>> = const { Cell::new(None) };

    /// Per-thread recycling pool for pack buffers. On the caller's
    /// thread (the serial path, and the B-pack of the parallel path)
    /// buffers are reused across matmuls; short-lived band workers
    /// simply allocate and drop.
    static PACK_POOL: RefCell<MatrixPool> = RefCell::new(MatrixPool::new());
}

/// The GEMM path the next matmul on this thread will take: the
/// [`with_gemm_mode`] override if active, else packed.
pub fn gemm_mode() -> GemmMode {
    MODE_OVERRIDE.with(Cell::get).unwrap_or(GemmMode::Packed)
}

/// Runs `f` with the GEMM mode forced on the current thread (restored
/// afterwards, also on panic). Tests and benches use this to run the
/// band kernel as the packed path's reference.
pub fn with_gemm_mode<R>(mode: GemmMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<GemmMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(MODE_OVERRIDE.with(|c| c.replace(Some(mode))));
    f()
}

/// Whether an `m x n x k` product should take the packed path: mode
/// says packed and the multiply work clears the same threshold that
/// gates parallel dispatch — below it the pack traffic costs more than
/// the kernel saves, and sub-threshold products are latency-bound
/// anyway.
pub(crate) fn packed_enabled(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= PAR_WORK_THRESHOLD && gemm_mode() == GemmMode::Packed
}

/// Borrows a zero-initialized-by-caller pack buffer of `len` doubles
/// from the thread's pool.
fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = PACK_POOL.with(|p| p.borrow_mut().take_uninit(1, len));
    let out = f(buf.as_mut_slice());
    PACK_POOL.with(|p| p.borrow_mut().put(buf));
    out
}

/// `out += a * b` through the packed path.
pub(crate) fn matmul_packed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (ad, bd) = (a.as_slice(), b.as_slice());
    gemm_packed(
        m,
        n,
        k,
        |i, kk| ad[i * k + kk],
        |kk, j| bd[kk * n + j],
        out.as_mut_slice(),
    );
}

/// `out += a^T * b` through the packed path.
pub(crate) fn t_matmul_packed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let (ad, bd) = (a.as_slice(), b.as_slice());
    gemm_packed(
        m,
        n,
        k,
        |i, kk| ad[kk * m + i],
        |kk, j| bd[kk * n + j],
        out.as_mut_slice(),
    );
}

/// `out += a * b^T` through the packed path.
pub(crate) fn matmul_t_packed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let (ad, bd) = (a.as_slice(), b.as_slice());
    gemm_packed(
        m,
        n,
        k,
        |i, kk| ad[i * k + kk],
        |kk, j| bd[j * k + kk],
        out.as_mut_slice(),
    );
}

/// The shared packed driver: `out[i*n+j] += sum_kk a_at(i,kk) *
/// b_at(kk,j)` with `kk` ascending per element.
///
/// `B` is packed once on the calling thread; the output rows are then
/// dispatched in bands (parallel above [`PAR_WORK_THRESHOLD`]), each
/// band packing its own `A` rows. Band boundaries never alter a chain,
/// so parallel == serial bit for bit.
fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a_at: impl Fn(usize, usize) -> f64 + Sync,
    b_at: impl Fn(usize, usize) -> f64 + Sync,
    out: &mut [f64],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let n_panels = n.div_ceil(NR);
    with_pack_buf(n_panels * k * NR, |bpack| {
        pack_b(n, k, &b_at, bpack);
        dispatch_row_bands(m, n, k, out, |r0, band| {
            packed_band(r0, band, n, k, bpack, &a_at)
        });
    });
}

/// Packs `B` into `NR`-column `k`-major panels, zero-padding columns
/// past `n`. Every slot is overwritten, so recycled buffers are fine.
fn pack_b(n: usize, k: usize, b_at: &impl Fn(usize, usize) -> f64, bpack: &mut [f64]) {
    for (q, panel) in bpack.chunks_exact_mut(k * NR).enumerate() {
        let j0 = q * NR;
        let width = NR.min(n - j0);
        for (kk, slot) in panel.chunks_exact_mut(NR).enumerate() {
            for (jj, s) in slot.iter_mut().enumerate() {
                *s = if jj < width { b_at(kk, j0 + jj) } else { 0.0 };
            }
        }
    }
}

/// Computes one row band of the output from packed panels: packs the
/// band's `A` rows, then sweeps `KC` blocks x `B` panels x `A` panels
/// with the register-tile microkernel.
fn packed_band(
    r0: usize,
    band: &mut [f64],
    n: usize,
    k: usize,
    bpack: &[f64],
    a_at: &impl Fn(usize, usize) -> f64,
) {
    let rc = band.len() / n;
    let m_panels = rc.div_ceil(MR);
    with_pack_buf(m_panels * k * MR, |apack| {
        for (p, panel) in apack.chunks_exact_mut(k * MR).enumerate() {
            let i0 = p * MR;
            let height = MR.min(rc - i0);
            for (kk, slot) in panel.chunks_exact_mut(MR).enumerate() {
                for (ii, s) in slot.iter_mut().enumerate() {
                    *s = if ii < height {
                        a_at(r0 + i0 + ii, kk)
                    } else {
                        0.0
                    };
                }
            }
        }
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KC).min(k);
            for q in 0..n.div_ceil(NR) {
                let bp = &bpack[q * k * NR + kb * NR..q * k * NR + ke * NR];
                let j0 = q * NR;
                let nr = NR.min(n - j0);
                for p in 0..m_panels {
                    let ap = &apack[p * k * MR + kb * MR..p * k * MR + ke * MR];
                    let i0 = p * MR;
                    let mr = MR.min(rc - i0);
                    // Park the running sums in C between k-blocks:
                    // store + reload of an f64 is exact, so the chain
                    // is unbroken. Padded lanes start at 0.0 and are
                    // never written back.
                    let mut acc = [[0.0f64; NR]; MR];
                    for (i, row) in acc.iter_mut().enumerate().take(mr) {
                        row[..nr].copy_from_slice(&band[(i0 + i) * n + j0..(i0 + i) * n + j0 + nr]);
                    }
                    microkernel(ap, bp, &mut acc);
                    for (i, row) in acc.iter().enumerate().take(mr) {
                        band[(i0 + i) * n + j0..(i0 + i) * n + j0 + nr].copy_from_slice(&row[..nr]);
                    }
                }
            }
            kb = ke;
        }
    });
}

/// The register tile: `acc[i][j] += ap[kk*MR+i] * bp[kk*NR+j]` for
/// every `kk` in the block, ascending. `MR * NR` independent
/// accumulator chains give the FP pipes enough parallelism to
/// saturate, while each individual chain keeps the strict
/// multiply-then-add left-fold order the band kernels use.
///
/// Dispatches to the AVX-512 kernel when the CPU has it; the portable
/// kernel computes the identical chains through autovectorized scalar
/// code. Both round every `a*b` product before the add (no FMA
/// contraction anywhere), so the choice never changes a single bit.
#[inline]
fn microkernel(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if cpu_has_avx512() {
        // SAFETY: the feature check above guarantees the instructions
        // exist; the kernel itself only requires `ap` / `bp` to be
        // whole panels (`len` multiples of MR / NR with equal k), which
        // the packers produce by construction.
        unsafe { microkernel_avx512(ap, bp, acc) };
        return;
    }
    microkernel_portable(ap, bp, acc);
}

#[inline]
fn microkernel_portable(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (i, row) in acc.iter_mut().enumerate() {
            let a = av[i];
            for (j, c) in row.iter_mut().enumerate() {
                *c += a * bv[j];
            }
        }
    }
}

/// Whether this CPU runs AVX-512F, detected once per process.
#[cfg(target_arch = "x86_64")]
fn cpu_has_avx512() -> bool {
    use std::sync::OnceLock;
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// AVX-512 register tile: each accumulator row is one `f64x8` vector,
/// and each `kk` step issues one packed multiply then one packed add
/// per row — `vmulpd` + `vaddpd`, deliberately **not** `vfmadd` — so
/// every lane's chain rounds exactly like the scalar left fold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(ap.len() / MR, bp.len() / NR);
    let mut c: [__m512d; MR] = [_mm512_setzero_pd(); MR];
    for (i, row) in acc.iter().enumerate() {
        c[i] = _mm512_loadu_pd(row.as_ptr());
    }
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let b = _mm512_loadu_pd(bv.as_ptr());
        for (i, ci) in c.iter_mut().enumerate() {
            let a = _mm512_set1_pd(av[i]);
            *ci = _mm512_add_pd(*ci, _mm512_mul_pd(a, b));
        }
    }
    for (i, row) in acc.iter_mut().enumerate() {
        _mm512_storeu_pd(row.as_mut_ptr(), c[i]);
    }
}

// ---------------------------------------------------------------------------
// Prepacked-B API
// ---------------------------------------------------------------------------
//
// The compiled training plan (`tsgb-nn::plan`) multiplies against the
// same weight matrices hundreds of times per step — every timestep's
// `h @ U` shares one `U`. The general entry points above re-pack `B`
// per call because they cannot know the operand will recur; these
// entry points let a caller that *does* know pack once and replay the
// microkernel against the frozen panels. Same panels, same kernel,
// same chains: bit-identical to the band path at any size, so they
// are safe below [`packed_enabled`]'s threshold where the general
// path would decline.

/// Length in doubles of the packed-panel buffer for a `k x n` right
/// operand (`NR`-column panels, `k`-major, zero-padded).
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs a `k x n` matrix into `B` panels for
/// [`matmul_prepacked_acc_into`]. Every slot of `out` is overwritten.
pub fn pack_b_panels(b: &Matrix, out: &mut [f64]) {
    let (k, n) = b.shape();
    assert_eq!(out.len(), packed_b_len(k, n), "pack buffer length");
    let bd = b.as_slice();
    pack_b(n, k, &|kk, j| bd[kk * n + j], out);
}

/// Packs the *transpose* of an `n x k` matrix into `B` panels — the
/// panels of `bᵀ` (`k x n`) — without materializing the transpose.
pub fn pack_bt_panels(b: &Matrix, out: &mut [f64]) {
    let (n, k) = b.shape();
    assert_eq!(out.len(), packed_b_len(k, n), "pack buffer length");
    let bd = b.as_slice();
    pack_b(n, k, &|kk, j| bd[j * k + kk], out);
}

/// `out += a * B` where `bpack` holds `B`'s packed panels (`B` being
/// `a.cols() x n`). Runs the microkernel serially over one band: the
/// plan's per-timestep products sit far below the parallel threshold,
/// and band boundaries never alter an accumulator chain anyway.
pub fn matmul_prepacked_acc_into(a: &Matrix, bpack: &[f64], n: usize, out: &mut Matrix) {
    let (m, k) = a.shape();
    assert_eq!(out.shape(), (m, n), "output shape");
    assert_eq!(bpack.len(), packed_b_len(k, n), "pack buffer length");
    let ad = a.as_slice();
    packed_band(0, out.as_mut_slice(), n, k, bpack, &|i, kk| ad[i * k + kk]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = crate::rng::seeded(seed);
        Matrix::from_fn(rows, cols, |_, _| crate::rng::randn(&mut rng))
    }

    #[test]
    fn mode_override_restores() {
        let before = gemm_mode();
        with_gemm_mode(GemmMode::Band, || assert_eq!(gemm_mode(), GemmMode::Band));
        with_gemm_mode(GemmMode::Packed, || {
            assert_eq!(gemm_mode(), GemmMode::Packed)
        });
        assert_eq!(gemm_mode(), before);
    }

    #[test]
    fn packed_matches_band_on_square() {
        let a = mat(96, 96, 1);
        let b = mat(96, 96, 2);
        let band = with_gemm_mode(GemmMode::Band, || a.matmul(&b));
        let mut out = Matrix::zeros(96, 96);
        matmul_packed(&a, &b, &mut out);
        assert_eq!(out, band);
    }

    #[test]
    fn prepacked_matches_band_at_plan_shapes() {
        // The plan's GEMM shapes are tiny (batch x hidden against
        // hidden x hidden) — far below the general packed threshold —
        // and ragged against the 8x8 tile. Prepacked must equal the
        // band kernels bit for bit from a warm accumulator.
        for (m, k, n, seed) in [(16, 32, 32, 10u64), (5, 7, 11, 11), (8, 32, 16, 12)] {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed + 100);
            let warm = mat(m, n, seed + 200);
            let mut pre = warm.clone();
            let mut panels = vec![0.0f64; packed_b_len(k, n)];
            pack_b_panels(&b, &mut panels);
            matmul_prepacked_acc_into(&a, &panels, n, &mut pre);
            let mut band = warm.clone();
            with_gemm_mode(GemmMode::Band, || a.matmul_acc_into(&b, &mut band));
            assert_eq!(pre, band, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_transpose_matches_band_matmul_t() {
        // pack_bt_panels(b) followed by a prepacked multiply must equal
        // `a * bᵀ` on the band path — the backward plan's `dz @ Uᵀ`.
        for (m, k, n, seed) in [(16, 32, 32, 20u64), (9, 13, 6, 21)] {
            let a = mat(m, k, seed);
            let b = mat(n, k, seed + 100); // n x k, logically transposed
            let warm = mat(m, n, seed + 200);
            let mut pre = warm.clone();
            let mut panels = vec![0.0f64; packed_b_len(k, n)];
            pack_bt_panels(&b, &mut panels);
            matmul_prepacked_acc_into(&a, &panels, n, &mut pre);
            let mut band = warm.clone();
            with_gemm_mode(GemmMode::Band, || a.matmul_t_acc_into(&b, &mut band));
            assert_eq!(pre, band, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_accumulates_from_warm_output() {
        let a = mat(24, 40, 3);
        let b = mat(40, 16, 4);
        let warm = mat(24, 16, 5);
        let mut packed = warm.clone();
        matmul_packed(&a, &b, &mut packed);
        let mut band = warm.clone();
        with_gemm_mode(GemmMode::Band, || a.matmul_acc_into(&b, &mut band));
        assert_eq!(packed, band);
    }
}
