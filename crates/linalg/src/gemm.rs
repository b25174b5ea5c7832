//! GEMM kernels: one AVX-512 register tile behind every product, fed
//! by packed panels above the parallel threshold and by the operands
//! in place below it.
//!
//! The band kernels in [`crate::matrix`] walk the operands in their
//! natural row-major layout, which caps throughput on two fronts: the
//! `B` rows are re-streamed from L2 for every output row, and the
//! per-element accumulator chains are too short for the CPU's
//! floating-point pipes to overlap. This module answers both with a
//! register tile — `MR x NR` accumulator chains held in vector
//! registers — implemented under one hard constraint: the result must
//! be **bit-identical** to the band kernels.
//!
//! # Dispatch
//!
//! `kernel_for` picks one kernel per product from its multiply work
//! `m * n * k` and its row count `m`, under the default
//! [`GemmMode::Packed`]:
//!
//! * at or above [`PAR_WORK_THRESHOLD`], *pack* panels of `A` and `B`
//!   into contiguous tile-major buffers, then drive the tile over the
//!   panels (Goto-style; the row bands run in parallel). Not when `A`
//!   fits one row panel (`m <= MR`) and the tile reads `B` in place
//!   (`matmul`, `t_matmul`): the tile then streams `B` once either
//!   way, so packing would copy all of `B` for no reuse. `matmul_t`
//!   packs at any `m`, since its tile reads `B` through a transposed
//!   copy, whose strided writes cost more than packing;
//! * otherwise, on a CPU with AVX-512F, run the tile on the operands in
//!   place: `A` through its row and column strides (so `t_matmul`
//!   reads `aᵀ` without copying it), `B` by its rows, `k` in blocks of
//!   16 so `B`'s rows stream through the cache. `matmul_t` first
//!   transposes its `B` into a per-thread buffer, an exact copy, and
//!   with one output column runs the band kernel instead (a tile
//!   filling one lane loses to its dot products). Below the
//!   threshold packing would cost more than the kernel saves;
//! * otherwise on any other CPU, the band kernels.
//!
//! [`GemmMode::Band`] (set through [`with_gemm_mode`]) forces the band
//! kernels everywhere: tests and benches compare the tile against them.
//! A CPU without AVX-512F runs the packed panels through
//! `microkernel_portable`, which computes the same chains.
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
//! The tile then reads both panels *sequentially*: one `MR`-row sliver
//! of `A` and one `NR`-column sliver of `B` advance together through
//! `k`, so every cache line fetched is fully consumed. The `k` loop is
//! additionally blocked by [`KC`] so the active `A` sliver (`MR x KC`
//! doubles) and `B` sliver (`KC x NR`) stay L1-resident.
//!
//! # Why every path is bit-identical
//!
//! Every output element is produced by exactly one accumulator chain:
//! it starts from the existing `C` value, then adds `a(i,kk)*b(kk,j)`
//! terms in strictly ascending `kk`, one multiply-then-add at a time —
//! precisely the chain the band kernels build (their 4-way unroll adds
//! terms one at a time into the same fold). The `KC` blocking stores
//! the partial sum to `C` between blocks and reloads it, which is
//! exact for `f64`. The tile issues a separate multiply and add, never
//! an FMA, and Rust never contracts `a*b + c` on its own, so every
//! path rounds every term identically. Tile shape, panel order, row
//! and column masks and thread banding only change *which* chain runs
//! when — never the order within a chain — so each path equals the
//! band path bit for bit, at every thread count.
//!
//! Masked and padded lanes never skip work: they are never written
//! back, and real zero terms are still added, so IEEE propagation
//! (`0.0 * NaN = NaN`) is preserved.

use crate::matrix::{dispatch_row_bands, PAR_WORK_THRESHOLD};
use crate::{Matrix, MatrixPool};
use std::cell::{Cell, RefCell};

/// Register-tile row height: one tile call produces up to `MR` rows
/// of `C`, one vector register per row.
pub const MR: usize = 8;

/// Register-tile column width — one AVX-512 `f64` vector, so a row
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
    /// The default: the register tile, over packed panels at and above
    /// [`PAR_WORK_THRESHOLD`] (bar single-row-panel `matmul` and
    /// `t_matmul`) and on the operands in place otherwise (band
    /// kernels there on a CPU without AVX-512F).
    Packed,
    /// The original row-band kernels, at every size.
    Band,
}

thread_local! {
    /// The [`with_gemm_mode`] override active on this thread, if any.
    static MODE_OVERRIDE: Cell<Option<GemmMode>> = const { Cell::new(None) };

    /// Per-thread recycling pool for pack and transpose buffers. On the
    /// caller's thread (the serial path, and the B-pack of the parallel
    /// path) buffers are reused across matmuls; short-lived band
    /// workers simply allocate and drop.
    static PACK_POOL: RefCell<MatrixPool> = RefCell::new(MatrixPool::new());
}

/// The GEMM path the next matmul on this thread will take: the
/// [`with_gemm_mode`] override if active, else packed.
pub fn gemm_mode() -> GemmMode {
    MODE_OVERRIDE.with(Cell::get).unwrap_or(GemmMode::Packed)
}

/// Runs `f` with the GEMM mode forced on the current thread (restored
/// afterwards, also on panic). Tests and benches use this to run the
/// band kernel as the tile's reference.
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

/// The kernel one product runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The row-band kernels in [`crate::matrix`].
    Band,
    /// Packed panels through the register tile.
    Packed,
    /// The register tile on the operands in place.
    Tile,
}

/// The kernel for an `m x n x k` product (see the module docs): band
/// when the mode says so; packed once the multiply work clears the
/// threshold that also gates parallel dispatch, unless `A` fits one
/// row panel and the tile reads `B` in place (`b_in_place`); and
/// otherwise the in-place tile wherever the CPU runs AVX-512F.
pub(crate) fn kernel_for(m: usize, n: usize, k: usize, b_in_place: bool) -> Kernel {
    let one_panel = m <= MR && b_in_place;
    match gemm_mode() {
        GemmMode::Band => Kernel::Band,
        GemmMode::Packed if !one_panel && m * n * k >= PAR_WORK_THRESHOLD => Kernel::Packed,
        GemmMode::Packed if cpu_has_avx512() => Kernel::Tile,
        GemmMode::Packed => Kernel::Band,
    }
}

/// Borrows a pack buffer of `len` doubles from the thread's pool; its
/// contents are stale, so the caller overwrites every slot it reads.
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

/// `out += a * b` through the register tile, on the operands in place.
pub(crate) fn matmul_tile(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let lay = Layout {
        a_rs: k,
        a_cs: 1,
        b_rs: n,
        c_rs: n,
    };
    tile_in_place(m, n, k, a.as_slice(), b.as_slice(), out.as_mut_slice(), lay);
}

/// `out += a^T * b` through the register tile, reading `a^T` through
/// the strides.
pub(crate) fn t_matmul_tile(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let lay = Layout {
        a_rs: 1,
        a_cs: m,
        b_rs: n,
        c_rs: n,
    };
    tile_in_place(m, n, k, a.as_slice(), b.as_slice(), out.as_mut_slice(), lay);
}

/// `out += a * b^T` through the register tile: `b` is first transposed
/// into a per-thread buffer (an exact copy), then multiplied as in
/// [`matmul_tile`].
pub(crate) fn matmul_t_tile(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    with_pack_buf(k * n, |bt| {
        for (j, row) in b.rows_iter().enumerate() {
            for (kk, &v) in row.iter().enumerate() {
                bt[kk * n + j] = v;
            }
        }
        let lay = Layout {
            a_rs: k,
            a_cs: 1,
            b_rs: n,
            c_rs: n,
        };
        tile_in_place(m, n, k, a.as_slice(), bt, out.as_mut_slice(), lay);
    });
}

/// `k`-direction block of the in-place tile. Each tile call walks
/// `KB_IN_PLACE` rows of `B`, and the next column strip continues
/// along the same rows, so every row streams through the cache as the
/// band kernels stream it. Walking all `k` rows per strip instead made
/// a one-row `1 x 384 x 1024` product (a served TimeVAE decode) about
/// 40% slower than the band kernels, cold or warm; with blocks of 8
/// to 24 rows it ties or beats them (2-vCPU host, scratch A/B).
const KB_IN_PLACE: usize = 16;

/// The in-place driver: [`tile_block`] over `k` in blocks of
/// [`KB_IN_PLACE`], the running sums parked in `C` between blocks
/// (exact, as for [`KC`]).
fn tile_in_place(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64], lay: Layout) {
    if m == 0 || n == 0 {
        return;
    }
    let mut kb = 0;
    while kb < k {
        let ke = (kb + KB_IN_PLACE).min(k);
        let (a, b) = (&a[kb * lay.a_cs..], &b[kb * lay.b_rs..]);
        tile_block(m, n, ke - kb, a, b, c, lay);
        kb = ke;
    }
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
/// with the register tile.
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
                    // The running sums park in C between k-blocks:
                    // store + reload of an f64 is exact, so the chain
                    // is unbroken.
                    microkernel(mr, nr, ap, bp, &mut band[i0 * n + j0..], n);
                }
            }
            kb = ke;
        }
    });
}

/// One `mr x nr` block of `C` (rows `c_rs` apart) from an `MR`-row `A`
/// panel sliver and an `NR`-column `B` panel sliver over the same `k`
/// range: `C[i][j] += ap[kk*MR+i] * bp[kk*NR+j]` for every `kk`,
/// ascending.
///
/// Runs the AVX-512 tile when the CPU has it; the portable kernel
/// computes the identical chains through autovectorized scalar code
/// on a register-sized copy of the block. Both round every `a*b`
/// product before the add (no FMA contraction anywhere), so the choice
/// never changes a single bit.
#[inline]
fn microkernel(mr: usize, nr: usize, ap: &[f64], bp: &[f64], c: &mut [f64], c_rs: usize) {
    let k = ap.len() / MR;
    if cpu_has_avx512() {
        let lay = Layout {
            a_rs: 1,
            a_cs: MR,
            b_rs: NR,
            c_rs,
        };
        return tile_block(mr, nr, k, ap, bp, c, lay);
    }
    // Padded lanes start at 0.0 and are never written back.
    let mut acc = [[0.0f64; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[i * c_rs..i * c_rs + nr]);
    }
    microkernel_portable(ap, bp, &mut acc);
    for (i, row) in acc.iter().enumerate().take(mr) {
        c[i * c_rs..i * c_rs + nr].copy_from_slice(&row[..nr]);
    }
}

/// The portable register tile over packed panels: `acc[i][j] +=
/// ap[kk*MR+i] * bp[kk*NR+j]` for every `kk` in the block, ascending.
/// `MR * NR` independent accumulator chains give the FP pipes enough
/// parallelism to saturate, while each individual chain keeps the
/// strict multiply-then-add left-fold order the band kernels use.
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
pub(crate) fn cpu_has_avx512() -> bool {
    use std::sync::OnceLock;
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// Whether this CPU runs AVX-512F: never, off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn cpu_has_avx512() -> bool {
    false
}

/// Where one tile call reads and writes: `A(i, kk)` is `a[i * a_rs +
/// kk * a_cs]`, `B(kk, j)` is `b[kk * b_rs + j]` and `C(i, j)` is
/// `c[i * c_rs + j]`.
#[derive(Clone, Copy)]
struct Layout {
    a_rs: usize,
    a_cs: usize,
    b_rs: usize,
    c_rs: usize,
}

/// `C += A * B` over an `m x n` block with `k` terms per element, in
/// register tiles of `MR` rows (then 4, 2 and 1 for the remainder)
/// and `NR` columns (the last one masked). Panics unless the CPU runs
/// AVX-512F and every index the tiles touch lies inside its slice.
#[cfg(target_arch = "x86_64")]
fn tile_block(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64], lay: Layout) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(cpu_has_avx512(), "the register tile needs AVX-512F");
    // The furthest element of each operand the tiles touch.
    assert!(
        (m - 1) * lay.a_rs + (k - 1) * lay.a_cs < a.len(),
        "tile reads past A"
    );
    assert!((k - 1) * lay.b_rs + n <= b.len(), "tile reads past B");
    assert!((m - 1) * lay.c_rs + n <= c.len(), "tile writes past C");
    let mut i0 = 0;
    while i0 < m {
        let rows = match m - i0 {
            r if r >= MR => MR,
            r if r >= 4 => 4,
            r if r >= 2 => 2,
            _ => 1,
        };
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            let mask = (0xFFu32 >> (NR - nr)) as u8;
            // SAFETY: the CPU runs AVX-512F (asserted above). The tile
            // touches A(i, kk), B(kk, j) and C(i, j) for i0 <= i <
            // i0 + rows <= m, kk < k and j0 <= j < j0 + nr <= n (lanes
            // past nr are masked off), and the asserts above bound
            // every such index by its slice's length.
            unsafe {
                let ap = a.as_ptr().add(i0 * lay.a_rs);
                let bp = b.as_ptr().add(j0);
                let cp = c.as_mut_ptr().add(i0 * lay.c_rs + j0);
                match rows {
                    MR => tile_rows::<MR>(k, ap, bp, cp, lay, mask),
                    4 => tile_rows::<4>(k, ap, bp, cp, lay, mask),
                    2 => tile_rows::<2>(k, ap, bp, cp, lay, mask),
                    _ => tile_rows::<1>(k, ap, bp, cp, lay, mask),
                }
            }
            j0 += nr;
        }
        i0 += rows;
    }
}

/// Off x86-64 [`kernel_for`] never picks the tile, and the packed path
/// takes the portable kernel.
#[cfg(not(target_arch = "x86_64"))]
fn tile_block(_: usize, _: usize, _: usize, _: &[f64], _: &[f64], _: &mut [f64], _: Layout) {
    unreachable!("the register tile runs only on AVX-512F CPUs")
}

/// [`microkernel_avx512`] for `R` rows, with `A`'s row stride fixed at
/// 1 where it is 1 (packed panels, `t_matmul`'s `aᵀ`): the rows'
/// operands are then immediate offsets from one pointer, where a
/// run-time stride costs the packed 256 x 256 products about 4%.
///
/// # Safety
///
/// As for [`microkernel_avx512`].
#[cfg(target_arch = "x86_64")]
unsafe fn tile_rows<const R: usize>(
    k: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    lay: Layout,
    mask: u8,
) {
    if lay.a_rs == 1 {
        microkernel_avx512::<R, true>(k, a, b, c, lay, mask)
    } else {
        microkernel_avx512::<R, false>(k, a, b, c, lay, mask)
    }
}

/// The AVX-512 register tile: an `R x 8` block of `C`, each row one
/// `f64x8` vector loaded from `C` and stored back under `mask` (bit
/// `j` set for each live column). Each `kk` step issues one packed
/// multiply then one packed add per row — `vmulpd` + `vaddpd`,
/// deliberately **not** `vfmadd` — so every lane's chain rounds
/// exactly like the scalar left fold.
///
/// # Safety
///
/// The CPU must run AVX-512F, and for every `i < R`, `kk < k` and
/// every `j < 8` whose `mask` bit is set, `a.add(i * a_rs + kk *
/// a_cs)` and `b.add(kk * b_rs + j)` must be valid for reads and
/// `c.add(i * c_rs + j)` for reads and writes. With `UNIT_A_RS`,
/// `a_rs` must be 1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512<const R: usize, const UNIT_A_RS: bool>(
    k: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    lay: Layout,
    mask: u8,
) {
    use std::arch::x86_64::*;
    let a_rs = if UNIT_A_RS { 1 } else { lay.a_rs };
    let mut acc = [_mm512_setzero_pd(); R];
    for (i, ci) in acc.iter_mut().enumerate() {
        *ci = _mm512_maskz_loadu_pd(mask, c.add(i * lay.c_rs));
    }
    for kk in 0..k {
        let bv = _mm512_maskz_loadu_pd(mask, b.add(kk * lay.b_rs));
        let ak = a.add(kk * lay.a_cs);
        for (i, ci) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ak.add(i * a_rs));
            *ci = _mm512_add_pd(*ci, _mm512_mul_pd(av, bv));
        }
    }
    for (i, ci) in acc.iter().enumerate() {
        _mm512_mask_storeu_pd(c.add(i * lay.c_rs), mask, *ci);
    }
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
