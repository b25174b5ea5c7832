//! The representation encoder backing Contextual-FID (M3).
//!
//! The paper uses ts2vec (Franceschi et al.) embeddings; training the
//! full hierarchical-contrastive ts2vec is out of budget here, so the
//! documented substitution is a **GRU sequence autoencoder**: the
//! encoder's last hidden state is the window embedding, trained so a
//! dense decoder can reconstruct the window. Embeddings that blend
//! with local context — the property C-FID scores — are exactly what
//! a reconstruction bottleneck learns; the FID computation on top is
//! unchanged.

use tsgb_linalg::{Matrix, Tensor3};
use tsgb_methods::common::minibatch;
use tsgb_nn::layers::{Activation, GruCell, Linear, Mlp};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::Params;
use tsgb_nn::tape::Tape;
use tsgb_rand::rngs::SmallRng;

use crate::model_based::feed_steps;

/// A trained window-embedding model.
pub struct Ts2Vec {
    params: Params,
    cell: GruCell,
    proj: Linear,
    decoder: Mlp,
    embed_dim: usize,
}

impl Ts2Vec {
    /// Trains an embedding model on the given windows.
    pub fn fit(data: &Tensor3, embed_dim: usize, epochs: usize, rng: &mut SmallRng) -> Ts2Vec {
        let (r, l, n) = data.shape();
        let hidden = (embed_dim * 2).max(8);
        let mut params = Params::new();
        let cell = GruCell::new(&mut params, "t2v.gru", n, hidden, rng);
        let proj = Linear::new(&mut params, "t2v.proj", hidden, embed_dim, rng);
        let decoder = Mlp::new(
            &mut params,
            "t2v.dec",
            &[embed_dim, hidden * 2, l * n],
            Activation::Relu,
            Activation::Sigmoid,
            rng,
        );
        let mut model = Ts2Vec {
            params,
            cell,
            proj,
            decoder,
            embed_dim,
        };
        let mut opt = Adam::new(2e-3);
        let flat = data.flatten_samples();
        // one tape for the whole fit, replaying its first step's plan
        let mut t = Tape::new();
        for _ in 0..epochs {
            let idx = minibatch(r, 32, rng);
            let target = flat.select_rows(&idx);
            t.begin_step();
            let b = model.params.bind(&mut t);
            let xs = feed_steps(&mut t, data, &idx);
            let hs = model.cell.run(&mut t, &b, &xs, idx.len());
            let last = *hs.last().expect("non-empty");
            let z = model.proj.forward_act(&mut t, &b, last, Activation::Tanh);
            let rec = model.decoder.forward(&mut t, &b, z);
            let l2 = loss::mse_mean(&mut t, rec, &target);
            t.backward(l2);
            model.params.absorb_grads(&t, &b);
            model.params.clip_grad_norm(5.0);
            opt.step(&mut model.params);
        }
        model
    }

    /// Embeds every window into a `(samples, embed_dim)` matrix.
    pub fn embed(&self, data: &Tensor3) -> Matrix {
        let r = data.samples();
        let idx: Vec<usize> = (0..r).collect();
        let mut t = Tape::new();
        let b = self.params.bind(&mut t);
        let xs = feed_steps(&mut t, data, &idx);
        let hs = self.cell.run(&mut t, &b, &xs, r);
        let last = *hs.last().expect("non-empty");
        let z = self.proj.forward_act(&mut t, &b, last, Activation::Tanh);
        t.value(z).clone()
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    #[test]
    fn embeddings_have_right_shape_and_are_bounded() {
        let mut rng = seeded(1);
        let data = Tensor3::from_fn(20, 8, 2, |s, t, _| 0.5 + 0.4 * ((s + t) as f64 * 0.5).sin());
        let model = Ts2Vec::fit(&data, 6, 10, &mut rng);
        let e = model.embed(&data);
        assert_eq!(e.shape(), (20, 6));
        assert!(e.as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn distinct_patterns_embed_apart() {
        let mut rng = seeded(2);
        // class A: slow sine; class B: fast sine
        let data = Tensor3::from_fn(40, 12, 1, |s, t, _| {
            let freq = if s < 20 { 0.3 } else { 1.5 };
            0.5 + 0.4 * (freq * t as f64).sin()
        });
        let model = Ts2Vec::fit(&data, 4, 200, &mut rng);
        let e = model.embed(&data);
        // centroid distance between classes should dominate the
        // within-class spread
        let centroid = |lo: usize, hi: usize| -> Vec<f64> {
            let mut c = [0.0; 4];
            for s in lo..hi {
                for d in 0..4 {
                    c[d] += e[(s, d)];
                }
            }
            c.iter().map(|v| v / (hi - lo) as f64).collect()
        };
        let ca = centroid(0, 20);
        let cb = centroid(20, 40);
        let between: f64 = ca
            .iter()
            .zip(&cb)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(between > 0.05, "classes should separate: {between}");
    }
}
