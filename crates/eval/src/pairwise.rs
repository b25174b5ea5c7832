//! Pooled pairwise-distance cache shared across the kernel measures.
//!
//! MMD needs every pairwise squared distance twice — once pooled for
//! the median-heuristic bandwidth, once per block for the kernel sums.
//! [`PairwiseCache`] computes the pooled `(nx+ny)^2` distance matrix
//! exactly once (rows filled in parallel through `tsgb-par`) and
//! serves both consumers, plus an explicit RBF Gram matrix for callers
//! that want the kernel itself.
//!
//! Determinism: every distance is computed by one feature-ascending
//! summation per (i, j) pair and every reduction folds per-row partial
//! sums in row order, so results are bit-identical for any thread
//! count.

use tsgb_linalg::Matrix;

/// Squared Euclidean distance between two equally-long rows, summed in
/// feature order.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The pooled pairwise squared-distance matrix over the rows of two
/// sample sets `x` (first `nx` pooled indices) and `y` (the next `ny`).
#[derive(Debug, Clone)]
pub struct PairwiseCache {
    nx: usize,
    ny: usize,
    /// Row-major `(nx+ny) x (nx+ny)`, exactly symmetric, zero diagonal.
    d2: Vec<f64>,
}

/// The reference set's own `nx × nx` distance block — the quadrant of
/// the pooled matrix that depends only on `x`. The eval cache stores
/// it keyed on the reference digest alone, so one warm block serves
/// every generated-set comparison
/// ([`PairwiseCache::pooled_with_xx`]).
#[derive(Debug, Clone, PartialEq)]
pub struct XxBlock {
    n: usize,
    /// Row-major `n × n`, symmetric, zero diagonal.
    d2: Vec<f64>,
}

impl XxBlock {
    /// Computes the block — upper triangle in parallel, mirrored —
    /// with the same per-element [`sq_dist`] call the pooled build
    /// makes, so copied and recomputed cells are bit-equal.
    pub fn build(x: &Matrix) -> Self {
        let n = x.rows();
        let tails = tsgb_par::parallel_map(n, |i| {
            let ri = x.row(i);
            (i..n).map(|j| sq_dist(ri, x.row(j))).collect::<Vec<f64>>()
        });
        Self {
            n,
            d2: mirror_tails(n, 0, &tails),
        }
    }

    /// Rows in the block.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The squared distance between rows `i` and `j` of the reference.
    pub fn d2(&self, i: usize, j: usize) -> f64 {
        self.d2[i * self.n + j]
    }
}

impl tsgb_evalcache::Codable for XxBlock {
    fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.d2.len() * 8);
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        for v in &self.d2 {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 || !(bytes.len() - 8).is_multiple_of(8) {
            return None;
        }
        let n = u64::from_le_bytes(bytes[..8].try_into().ok()?) as usize;
        let expected = n
            .checked_mul(n)
            .and_then(|nn| nn.checked_mul(8))
            .and_then(|b| b.checked_add(8))?;
        if bytes.len() != expected {
            return None;
        }
        let d2 = bytes[8..]
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        Some(Self { n, d2 })
    }

    fn approx_bytes(&self) -> usize {
        8 + self.d2.len() * 8
    }
}

/// Assembles a full symmetric `n × n` matrix from per-row upper
/// triangle tails (`tails[i - first_row]` holds row `i`'s entries for
/// columns `i..n`). Rows `0..first_row` are left untouched zeros for
/// the caller to fill.
fn mirror_tails(n: usize, first_row: usize, tails: &[Vec<f64>]) -> Vec<f64> {
    let mut d2 = vec![0.0f64; n * n];
    for (off, tail) in tails.iter().enumerate() {
        let i = first_row + off;
        for (k, &v) in tail.iter().enumerate() {
            let j = i + k;
            d2[i * n + j] = v;
            d2[j * n + i] = v;
        }
    }
    d2
}

impl PairwiseCache {
    /// Computes the pooled distance matrix: the upper triangle's rows
    /// are filled in parallel through `tsgb-par` and mirrored — half
    /// the [`sq_dist`] calls of the full build, bit-identical to it
    /// because `(a-b)^2 == (b-a)^2` term by term (pinned by
    /// `upper_triangle_build_matches_full_build`).
    pub fn pooled(x: &Matrix, y: &Matrix) -> Self {
        assert_eq!(x.cols(), y.cols(), "pairwise feature mismatch");
        tsgb_obs::counter_add("eval.pairwise.builds", 1);
        let (nx, ny) = (x.rows(), y.rows());
        let n = nx + ny;
        let row = |i: usize| {
            if i < nx {
                x.row(i)
            } else {
                y.row(i - nx)
            }
        };
        let tails = tsgb_par::parallel_map(n, |i| {
            let ri = row(i);
            (i..n).map(|j| sq_dist(ri, row(j))).collect::<Vec<f64>>()
        });
        Self {
            nx,
            ny,
            d2: mirror_tails(n, 0, &tails),
        }
    }

    /// [`PairwiseCache::pooled`] with the real×real quadrant supplied
    /// by a precomputed (typically cache-served) [`XxBlock`]: only the
    /// `x×y` and `y×y` cells are computed. Bit-identical to the full
    /// pooled build because the block was produced by the identical
    /// per-element computation.
    pub fn pooled_with_xx(x: &Matrix, y: &Matrix, xx: &XxBlock) -> Self {
        assert_eq!(x.cols(), y.cols(), "pairwise feature mismatch");
        assert_eq!(xx.n(), x.rows(), "xx block shape mismatch");
        tsgb_obs::counter_add("eval.pairwise.builds", 1);
        let (nx, ny) = (x.rows(), y.rows());
        let n = nx + ny;
        let row = |i: usize| {
            if i < nx {
                x.row(i)
            } else {
                y.row(i - nx)
            }
        };
        // upper-triangle tails restricted to cells outside the xx
        // quadrant: row i's tail starts at max(i, nx)
        let tails = tsgb_par::parallel_map(n, |i| {
            let ri = row(i);
            (i.max(nx)..n)
                .map(|j| sq_dist(ri, row(j)))
                .collect::<Vec<f64>>()
        });
        let mut d2 = vec![0.0f64; n * n];
        for i in 0..nx {
            d2[i * n..i * n + nx].copy_from_slice(&xx.d2[i * xx.n..(i + 1) * xx.n]);
        }
        for (i, tail) in tails.iter().enumerate() {
            let start = i.max(nx);
            for (k, &v) in tail.iter().enumerate() {
                let j = start + k;
                d2[i * n + j] = v;
                d2[j * n + i] = v;
            }
        }
        Self { nx, ny, d2 }
    }

    /// Pooled sample count `nx + ny`.
    pub fn n(&self) -> usize {
        self.nx + self.ny
    }

    /// Rows contributed by the first (`x`) set.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Rows contributed by the second (`y`) set.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cached squared distance between pooled rows `i` and `j`.
    #[inline]
    pub fn d2(&self, i: usize, j: usize) -> f64 {
        self.d2[i * self.n() + j]
    }

    /// Median of the strict-upper-triangle distances — the median
    /// heuristic's bandwidth denominator, floored away from zero.
    pub fn median_sq_dist(&self) -> f64 {
        tsgb_obs::counter_add("eval.pairwise.serves", 1);
        let n = self.n();
        let mut tri = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                tri.push(self.d2(i, j));
            }
        }
        tsgb_linalg::stats::quantile(&tri, 0.5).max(1e-12)
    }

    /// The full RBF Gram matrix `exp(-gamma * d2)` over the pooled
    /// rows, filled in parallel.
    pub fn rbf_gram(&self, gamma: f64) -> Matrix {
        tsgb_obs::counter_add("eval.pairwise.serves", 1);
        let n = self.n();
        let mut g = Matrix::zeros(n, n);
        tsgb_par::parallel_chunks_mut(g.as_mut_slice(), n.max(1), |i, out| {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = (-gamma * self.d2(i, j)).exp();
            }
        });
        g
    }

    /// Unbiased squared MMD under the RBF kernel with bandwidth
    /// parameter `gamma`. Per-row kernel sums run in parallel and are
    /// folded in row order, so the value is thread-count independent.
    pub fn rbf_mmd2(&self, gamma: f64) -> f64 {
        tsgb_obs::counter_add("eval.pairwise.serves", 1);
        let (nx, ny) = (self.nx, self.ny);
        assert!(
            nx >= 2 && ny >= 2,
            "unbiased MMD needs at least two samples per side"
        );
        let k = |i: usize, j: usize| (-gamma * self.d2(i, j)).exp();
        let kxx: f64 = tsgb_par::parallel_map(nx, |i| {
            (0..nx).filter(|&j| j != i).map(|j| k(i, j)).sum::<f64>()
        })
        .into_iter()
        .sum();
        let kyy: f64 = tsgb_par::parallel_map(ny, |i| {
            (0..ny)
                .filter(|&j| j != i)
                .map(|j| k(nx + i, nx + j))
                .sum::<f64>()
        })
        .into_iter()
        .sum();
        let kxy: f64 = tsgb_par::parallel_map(nx, |i| (0..ny).map(|j| k(i, nx + j)).sum::<f64>())
            .into_iter()
            .sum();
        kxx / (nx * (nx - 1)) as f64 + kyy / (ny * (ny - 1)) as f64 - 2.0 * kxy / (nx * ny) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::{seeded, uniform_matrix};

    /// The pre-optimization full build: every cell computed directly.
    /// Kept as the reference the upper-triangle build is pinned
    /// against.
    fn pooled_full(x: &Matrix, y: &Matrix) -> Vec<f64> {
        let (nx, ny) = (x.rows(), y.rows());
        let n = nx + ny;
        let row = |i: usize| if i < nx { x.row(i) } else { y.row(i - nx) };
        let mut d2 = vec![0.0f64; n * n];
        tsgb_par::parallel_chunks_mut(&mut d2, n.max(1), |i, out| {
            let ri = row(i);
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = sq_dist(ri, row(j));
            }
        });
        d2
    }

    #[test]
    fn upper_triangle_build_matches_full_build() {
        // seeded property corpus: assorted shapes, the mirrored build
        // must reproduce the full build bit-for-bit
        for (seed, nx, ny, d) in [
            (1u64, 7usize, 5usize, 4usize),
            (2, 1, 9, 3),
            (3, 16, 16, 8),
            (4, 2, 2, 1),
            (5, 31, 7, 6),
        ] {
            let mut rng = seeded(seed);
            let x = uniform_matrix(nx, d, -2.0, 2.0, &mut rng);
            let y = uniform_matrix(ny, d, -2.0, 2.0, &mut rng);
            let mirrored = PairwiseCache::pooled(&x, &y);
            let full = pooled_full(&x, &y);
            assert_eq!(mirrored.d2.len(), full.len());
            for (i, (a, b)) in mirrored.d2.iter().zip(&full).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, cell {i}");
            }
        }
    }

    #[test]
    fn pooled_with_xx_is_bit_identical_to_pooled() {
        for (seed, nx, ny) in [(6u64, 8usize, 6usize), (7, 3, 11), (8, 20, 20)] {
            let mut rng = seeded(seed);
            let x = uniform_matrix(nx, 5, -1.0, 1.0, &mut rng);
            let y = uniform_matrix(ny, 5, -1.0, 1.0, &mut rng);
            let xx = XxBlock::build(&x);
            let with_xx = PairwiseCache::pooled_with_xx(&x, &y, &xx);
            let direct = PairwiseCache::pooled(&x, &y);
            for (i, (a, b)) in with_xx.d2.iter().zip(&direct.d2).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, cell {i}");
            }
            // and the xx block itself matches the top-left quadrant
            for i in 0..nx {
                for j in 0..nx {
                    assert_eq!(xx.d2(i, j).to_bits(), direct.d2(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn xx_block_codable_roundtrip_is_bit_exact() {
        use tsgb_evalcache::Codable;
        let mut rng = seeded(9);
        let x = uniform_matrix(6, 4, -3.0, 3.0, &mut rng);
        let xx = XxBlock::build(&x);
        let back = XxBlock::decode_bytes(&xx.encode_bytes()).unwrap();
        assert_eq!(back, xx);
        assert!(XxBlock::decode_bytes(&[0u8; 7]).is_none());
        assert!(XxBlock::decode_bytes(&[9u8; 16]).is_none());
    }

    #[test]
    fn cache_is_symmetric_with_zero_diagonal() {
        let mut rng = seeded(1);
        let x = uniform_matrix(7, 4, -1.0, 1.0, &mut rng);
        let y = uniform_matrix(5, 4, -1.0, 1.0, &mut rng);
        let c = PairwiseCache::pooled(&x, &y);
        assert_eq!(c.n(), 12);
        for i in 0..12 {
            assert_eq!(c.d2(i, i), 0.0);
            for j in 0..12 {
                assert_eq!(c.d2(i, j), c.d2(j, i), "({i},{j})");
                assert!(c.d2(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn cached_distances_match_direct_computation() {
        let mut rng = seeded(2);
        let x = uniform_matrix(6, 3, -2.0, 2.0, &mut rng);
        let y = uniform_matrix(4, 3, -2.0, 2.0, &mut rng);
        let c = PairwiseCache::pooled(&x, &y);
        for i in 0..6 {
            for j in 0..4 {
                assert_eq!(c.d2(i, 6 + j), sq_dist(x.row(i), y.row(j)));
            }
        }
    }

    #[test]
    fn gram_matches_kernel_of_cached_distances() {
        let mut rng = seeded(3);
        let x = uniform_matrix(5, 3, -1.0, 1.0, &mut rng);
        let y = uniform_matrix(5, 3, -1.0, 1.0, &mut rng);
        let c = PairwiseCache::pooled(&x, &y);
        let g = c.rbf_gram(0.7);
        for i in 0..10 {
            assert_eq!(g[(i, i)], 1.0);
            for j in 0..10 {
                assert_eq!(g[(i, j)], (-0.7 * c.d2(i, j)).exp());
            }
        }
    }

    #[test]
    fn parallel_cache_and_mmd_bit_identical_to_serial() {
        let mut rng = seeded(4);
        let x = uniform_matrix(30, 8, -1.0, 1.0, &mut rng);
        let y = uniform_matrix(25, 8, -1.0, 1.0, &mut rng);
        let (serial_d2, serial_mmd) = tsgb_par::with_threads(1, || {
            let c = PairwiseCache::pooled(&x, &y);
            let m = c.rbf_mmd2(1.0 / c.median_sq_dist());
            (c.d2.clone(), m)
        });
        for threads in [2, 4, 8] {
            let (par_d2, par_mmd) = tsgb_par::with_threads(threads, || {
                let c = PairwiseCache::pooled(&x, &y);
                let m = c.rbf_mmd2(1.0 / c.median_sq_dist());
                (c.d2.clone(), m)
            });
            assert_eq!(par_d2, serial_d2, "{threads} threads");
            assert_eq!(par_mmd.to_bits(), serial_mmd.to_bits(), "{threads} threads");
        }
    }
}
