//! M9 — t-SNE (van der Maaten & Hinton, 2008) for the visualization
//! measure.
//!
//! The benchmark embeds the original and generated windows (flattened)
//! into 2-D with one joint t-SNE run, so overlap in the plane reflects
//! distributional overlap. The gradient is the exact O(n^2)-per-
//! iteration one, computed serially, so the embedding is trivially
//! thread-count independent.

use tsgb_linalg::rng::randn;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_rand::rngs::SmallRng;

/// t-SNE hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TsneConfig {
    /// Target perplexity (effective neighbor count).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Early-exaggeration factor applied for the first quarter.
    pub exaggeration: f64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 30.0,
            iterations: 250,
            learning_rate: 100.0,
            exaggeration: 4.0,
        }
    }
}

/// The 2-D embedding of a joint real+generated run.
#[derive(Debug, Clone)]
pub struct TsneEmbedding {
    /// `(points, 2)` coordinates; the first `n_real` rows are the
    /// original windows.
    pub points: Matrix,
    /// How many leading rows belong to the original data.
    pub n_real: usize,
}

/// Runs t-SNE jointly on the original and generated windows.
pub fn tsne_joint(
    real: &Tensor3,
    generated: &Tensor3,
    cfg: &TsneConfig,
    rng: &mut SmallRng,
) -> TsneEmbedding {
    let a = real.flatten_samples();
    let b = generated.flatten_samples();
    let x = a.vcat(&b);
    let points = tsne(&x, cfg, rng);
    TsneEmbedding {
        points,
        n_real: real.samples(),
    }
}

/// t-SNE of the rows of `x` into 2-D: perplexity calibration, a seeded
/// random initialization, then the exact gradient loop.
pub fn tsne(x: &Matrix, cfg: &TsneConfig, rng: &mut SmallRng) -> Matrix {
    let _total = tsgb_obs::span("eval.tsne");
    let n = x.rows();
    assert!(n >= 4, "t-SNE needs at least four points");
    let perplexity = cfg.perplexity.min((n as f64 - 1.0) / 3.0).max(2.0);

    let pj = {
        let _affinity = tsgb_obs::span("eval.tsne.affinities");
        joint_affinities(x, perplexity)
    };

    // init and optimize
    let mut y: Vec<[f64; 2]> = (0..n)
        .map(|_| [randn(rng) * 1e-2, randn(rng) * 1e-2])
        .collect();
    {
        let _optimize = tsgb_obs::span("eval.tsne.optimize");
        optimize(&pj, &mut y, cfg);
    }

    Matrix::from_fn(n, 2, |r, c| y[r][c])
}

/// The symmetrized input-space affinity matrix `pj` (row-major
/// `n * n`): per-point sigmas from a binary search matching
/// `log(perplexity)`, then symmetrization.
fn joint_affinities(x: &Matrix, perplexity: f64) -> Vec<f64> {
    let n = x.rows();
    // pairwise squared distances in input space
    let mut d2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let dist: f64 = x
                .row(i)
                .iter()
                .zip(x.row(j))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            d2[i * n + j] = dist;
            d2[j * n + i] = dist;
        }
    }

    // per-point sigma via binary search to match log(perplexity)
    let target_entropy = perplexity.ln();
    let mut p = vec![0.0f64; n * n];
    for i in 0..n {
        let mut beta = 1.0; // 1 / (2 sigma^2)
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        for _ in 0..50 {
            let mut sum = 0.0;
            let mut sum_dp = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let pij = (-beta * d2[i * n + j]).exp();
                sum += pij;
                sum_dp += pij * d2[i * n + j];
            }
            let sum = sum.max(1e-300);
            let entropy = beta * sum_dp / sum + sum.ln();
            let diff = entropy - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                lo = beta;
                beta = if hi.is_finite() {
                    (beta + hi) / 2.0
                } else {
                    beta * 2.0
                };
            } else {
                hi = beta;
                beta = (beta + lo) / 2.0;
            }
        }
        let mut sum = 0.0;
        for j in 0..n {
            if j != i {
                let v = (-beta * d2[i * n + j]).exp();
                p[i * n + j] = v;
                sum += v;
            }
        }
        let sum = sum.max(1e-300);
        for j in 0..n {
            p[i * n + j] /= sum;
        }
    }
    // symmetrize
    let mut pj = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            pj[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }
    pj
}

/// The exact O(n^2) gradient loop with momentum, early exaggeration
/// for the first quarter of the iterations, and recentring.
fn optimize(pj: &[f64], y: &mut [[f64; 2]], cfg: &TsneConfig) {
    let n = y.len();
    let mut vel = vec![[0.0f64; 2]; n];
    let exag_until = cfg.iterations / 4;
    for iter in 0..cfg.iterations {
        let exag = if iter < exag_until {
            cfg.exaggeration
        } else {
            1.0
        };
        // low-dim affinities q (student-t kernel)
        let mut num = vec![0.0f64; n * n];
        let mut z = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let dx = y[i][0] - y[j][0];
                let dy = y[i][1] - y[j][1];
                let v = 1.0 / (1.0 + dx * dx + dy * dy);
                num[i * n + j] = v;
                num[j * n + i] = v;
                z += 2.0 * v;
            }
        }
        let z = z.max(1e-300);
        // gradient
        let momentum = if iter < 20 { 0.5 } else { 0.8 };
        for i in 0..n {
            let mut g = [0.0f64; 2];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = (num[i * n + j] / z).max(1e-12);
                let mult = (exag * pj[i * n + j] - q) * num[i * n + j];
                g[0] += 4.0 * mult * (y[i][0] - y[j][0]);
                g[1] += 4.0 * mult * (y[i][1] - y[j][1]);
            }
            for d in 0..2 {
                vel[i][d] = momentum * vel[i][d] - cfg.learning_rate * g[d];
            }
        }
        for i in 0..n {
            y[i][0] += vel[i][0];
            y[i][1] += vel[i][1];
        }
        // recentre
        let cx: f64 = y.iter().map(|p| p[0]).sum::<f64>() / n as f64;
        let cy: f64 = y.iter().map(|p| p[1]).sum::<f64>() / n as f64;
        for pt in y.iter_mut() {
            pt[0] -= cx;
            pt[1] -= cy;
        }
    }
}

/// A crude overlap statistic for a joint embedding: the fraction of
/// generated points whose nearest neighbor is a real point. Values
/// near the real-data fraction indicate well-mixed clouds; values near
/// 0 indicate separated clouds. Used by tests and the reproduce report
/// to quantify what the t-SNE plot shows.
///
/// Each generated point's nearest neighbor is the other point with
/// the smallest `(d², index)`, found by a serial O(n²) scan; the
/// Figure-6 clouds hold at most 120 points.
pub fn nn_overlap(embedding: &TsneEmbedding) -> f64 {
    let p = &embedding.points;
    let (n, n_real) = (p.rows(), embedding.n_real);
    if n_real == 0 || n_real == n {
        return 0.0;
    }
    let mut hits = 0usize;
    for i in n_real..n {
        let mut best = (f64::INFINITY, usize::MAX);
        for j in (0..n).filter(|&j| j != i) {
            let dx = p[(i, 0)] - p[(j, 0)];
            let dy = p[(i, 1)] - p[(j, 1)];
            let d = dx * dx + dy * dy;
            if d < best.0 {
                best = (d, j);
            }
        }
        if best.1 < n_real {
            hits += 1;
        }
    }
    hits as f64 / (n - n_real) as f64
}

impl TsneEmbedding {
    /// ASCII scatter of the joint embedding: `.` real, `o` generated,
    /// `@` overlapping cells — the terminal rendering of Figure 6's
    /// top rows.
    pub fn ascii(&self, width: usize, height: usize) -> String {
        assert!(width >= 2 && height >= 2);
        let p = &self.points;
        let (mut lo_x, mut hi_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo_y, mut hi_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for r in 0..p.rows() {
            lo_x = lo_x.min(p[(r, 0)]);
            hi_x = hi_x.max(p[(r, 0)]);
            lo_y = lo_y.min(p[(r, 1)]);
            hi_y = hi_y.max(p[(r, 1)]);
        }
        let sx = (hi_x - lo_x).max(1e-9);
        let sy = (hi_y - lo_y).max(1e-9);
        let mut grid = vec![vec![' '; width]; height];
        for r in 0..p.rows() {
            let cx = (((p[(r, 0)] - lo_x) / sx) * (width - 1) as f64).round() as usize;
            let cy = (((p[(r, 1)] - lo_y) / sy) * (height - 1) as f64).round() as usize;
            let mark = if r < self.n_real { '.' } else { 'o' };
            let cell = &mut grid[height - 1 - cy][cx];
            *cell = match (*cell, mark) {
                (' ', m) => m,
                (a, m) if a == m => m,
                _ => '@',
            };
        }
        let mut out = String::with_capacity((width + 1) * height);
        for row in grid {
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    #[test]
    fn separates_two_gaussian_blobs() {
        let mut rng = seeded(1);
        // blob A around 0, blob B around 10
        let x = Matrix::from_fn(40, 5, |r, c| {
            let center = if r < 20 { 0.0 } else { 10.0 };
            center + ((r * 13 + c * 7) % 10) as f64 * 0.05
        });
        let cfg = TsneConfig {
            iterations: 150,
            ..TsneConfig::default()
        };
        let y = tsne(&x, &cfg, &mut rng);
        assert_eq!(y.shape(), (40, 2));
        // between-cluster distance should dominate within-cluster spread
        let centroid = |lo: usize, hi: usize| {
            let mut c = [0.0f64; 2];
            for r in lo..hi {
                c[0] += y[(r, 0)];
                c[1] += y[(r, 1)];
            }
            [c[0] / (hi - lo) as f64, c[1] / (hi - lo) as f64]
        };
        let ca = centroid(0, 20);
        let cb = centroid(20, 40);
        let between = ((ca[0] - cb[0]).powi(2) + (ca[1] - cb[1]).powi(2)).sqrt();
        let mut within = 0.0;
        for r in 0..20 {
            within += ((y[(r, 0)] - ca[0]).powi(2) + (y[(r, 1)] - ca[1]).powi(2)).sqrt();
        }
        within /= 20.0;
        assert!(between > 2.0 * within, "between {between}, within {within}");
    }

    #[test]
    fn joint_embedding_tracks_origin() {
        let mut rng = seeded(2);
        let real = Tensor3::from_fn(15, 6, 1, |s, t, _| ((s + t) as f64 * 0.3).sin());
        let generated = Tensor3::from_fn(10, 6, 1, |s, t, _| ((s + t) as f64 * 0.3).cos());
        let cfg = TsneConfig {
            iterations: 60,
            ..TsneConfig::default()
        };
        let e = tsne_joint(&real, &generated, &cfg, &mut rng);
        assert_eq!(e.points.rows(), 25);
        assert_eq!(e.n_real, 15);
        assert!(e.points.all_finite());
    }

    #[test]
    fn ascii_scatter_marks_both_populations() {
        let mut rng = seeded(4);
        let real = Tensor3::from_fn(10, 5, 1, |s, t, _| ((s * 3 + t) % 7) as f64);
        let gen = Tensor3::from_fn(8, 5, 1, |s, t, _| ((s * 5 + t) % 9) as f64 + 10.0);
        let cfg = TsneConfig {
            iterations: 40,
            ..TsneConfig::default()
        };
        let e = tsne_joint(&real, &gen, &cfg, &mut rng);
        let art = e.ascii(30, 12);
        assert_eq!(art.lines().count(), 12);
        assert!(art.lines().all(|l| l.chars().count() == 30));
        assert!(art.contains('.'), "real points missing");
        assert!(
            art.contains('o') || art.contains('@'),
            "generated points missing"
        );
    }

    #[test]
    fn nn_overlap_matches_brute_force_scan() {
        let mut rng = seeded(11);
        let real = Tensor3::from_fn(18, 5, 1, |s, t, _| ((s * 3 + t) % 11) as f64 / 11.0);
        let gen = Tensor3::from_fn(14, 5, 1, |s, t, _| ((s * 5 + t) % 9) as f64 / 9.0);
        let cfg = TsneConfig {
            iterations: 60,
            ..TsneConfig::default()
        };
        let e = tsne_joint(&real, &gen, &cfg, &mut rng);
        // the reference statistic: min by (d², index), scanned inline
        let (n, n_real) = (e.points.rows(), e.n_real);
        let mut hits = 0usize;
        for i in n_real..n {
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dx = e.points[(i, 0)] - e.points[(j, 0)];
                let dy = e.points[(i, 1)] - e.points[(j, 1)];
                let d = dx * dx + dy * dy;
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            if best < n_real {
                hits += 1;
            }
        }
        let brute = hits as f64 / (n - n_real) as f64;
        assert_eq!(nn_overlap(&e).to_bits(), brute.to_bits());
    }

    #[test]
    fn overlap_statistic_ranges() {
        let mut rng = seeded(3);
        // identical distributions: overlap should be substantial
        let real = Tensor3::from_fn(20, 5, 1, |s, t, _| ((s * 7 + t) % 13) as f64 / 13.0);
        let gen = Tensor3::from_fn(20, 5, 1, |s, t, _| ((s * 7 + t + 5) % 13) as f64 / 13.0);
        let cfg = TsneConfig {
            iterations: 80,
            ..TsneConfig::default()
        };
        let e = tsne_joint(&real, &gen, &cfg, &mut rng);
        let o = nn_overlap(&e);
        assert!((0.0..=1.0).contains(&o));
    }
}
