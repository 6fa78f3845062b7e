//! Shared variational machinery: Gaussian heads, the reparameterization
//! trick (Eq. 12), and the closed-form KL divergence (Eqs. 24–25).

use autograd::{Graph, ParamRef, Var};
use nn::{Linear, Module};
use rand::rngs::StdRng;
use tensor::{init, Tensor};

/// Samples `ε ~ N(0, I)` with the shape of `dims`.
pub fn standard_normal_like(dims: &[usize], rng: &mut StdRng) -> Tensor {
    standard_normal_rows(dims, |_| true, rng)
}

/// Samples `ε ~ N(0, I)` with the shape of `dims` on the rows `read`
/// selects, and `+0.0` everywhere else. Rows are those of the `[rows, w]`
/// view of `dims`, `w` its last extent.
///
/// Every entry is drawn in row-major order, read or not: an unread one
/// advances `rng` by its two uniforms and skips the transform. So each
/// read row holds the bits [`standard_normal_like`] gives it, and the
/// generator ends where that full draw leaves it.
pub fn standard_normal_rows(
    dims: &[usize],
    read: impl Fn(usize) -> bool,
    rng: &mut StdRng,
) -> Tensor {
    let mut t = Tensor::zeros(dims.to_vec());
    let w = dims.last().copied().unwrap_or(1).max(1);
    for (r, row) in t.data_mut().chunks_mut(w).enumerate() {
        if read(r) {
            for x in row {
                *x = init::sample_standard_normal(rng);
            }
        } else {
            for _ in row {
                init::skip_standard_normal(rng);
            }
        }
    }
    t
}

/// Reparameterization trick: `z = μ + σ ⊙ ε` with `σ = exp(½·logvar)`.
///
/// When `deterministic` is true (inference), returns `μ` unchanged.
pub fn reparameterize(mu: &Var, logvar: &Var, rng: &mut StdRng, deterministic: bool) -> Var {
    if deterministic {
        return mu.clone();
    }
    let sigma = logvar.scale(0.5).exp();
    let eps = standard_normal_like(&mu.dims(), rng);
    mu.add(&sigma.mul_const(&eps))
}

/// Closed-form Gaussian KL to the standard normal prior (Eq. 24):
/// `½ (σ² + μ² − 1 − log σ²)`, *averaged* over every element (including the
/// latent dimension). Always ≥ 0.
///
/// Averaging rather than summing over the latent dimension keeps the KL
/// magnitude comparable to the per-token cross-entropy at any `d`, so the
/// paper's β range (0.1–0.5) transfers to the reproduction scale.
pub fn gaussian_kl(mu: &Var, logvar: &Var) -> Var {
    let term = logvar.exp().add(&mu.square()).add_scalar(-1.0).sub(logvar);
    term.scale(0.5).mean_all()
}

/// Per-term decomposition of one batch's VAE-family objective.
///
/// `total` stays on the tape and is what callers backpropagate through; the
/// per-term scalars are plain `item()` reads of already-computed forward
/// values, recorded *unweighted* (before β/α scaling) so telemetry shows the
/// raw magnitude of each term. Terms a model does not have — a second-view
/// KL for single-view models, InfoNCE when the batch is too small for
/// in-batch negatives — are `None`.
pub struct LossTerms {
    /// The full weighted objective, on the tape.
    pub total: Var,
    /// Reconstruction cross-entropy.
    pub recon: f64,
    /// KL of the first latent view (`Enc_σ`).
    pub kl_a: f64,
    /// KL of the second latent view, when the model has one.
    pub kl_b: Option<f64>,
    /// Unweighted InfoNCE contrastive term, when present.
    pub info_nce: Option<f64>,
}

/// A Gaussian posterior head: two linear maps producing `μ` and `log σ²`
/// from encoder features (the paper's `Enc_μ` and `Enc_σ`, Eq. 11).
pub struct VaeHead {
    enc_mu: Linear,
    enc_logvar: Linear,
}

impl VaeHead {
    /// Creates the two linear heads `dim → dim`.
    ///
    /// The log-variance bias starts at −4 (σ ≈ 0.14) so early training is
    /// not drowned by reparameterization noise; the KL term pulls σ toward
    /// the prior as training progresses.
    pub fn new(rng: &mut StdRng, name: &str, dim: usize) -> Self {
        let enc_logvar = Linear::new(rng, &format!("{name}.logvar"), dim, dim, true);
        enc_logvar.parameters()[1].borrow_mut().value = Tensor::full(vec![dim], -4.0);
        VaeHead {
            enc_mu: Linear::new(rng, &format!("{name}.mu"), dim, dim, true),
            enc_logvar,
        }
    }

    /// Computes `(μ, logvar)` from features `h`.
    pub fn forward(&self, g: &Graph, h: &Var) -> (Var, Var) {
        // Clamp logvar for numerical stability of exp().
        (
            self.enc_mu.forward(g, h),
            self.enc_logvar.forward(g, h).clamp(-8.0, 8.0),
        )
    }

    /// The `μ` head's parameters.
    pub fn mu_parameters(&self) -> Vec<ParamRef> {
        self.enc_mu.parameters()
    }

    /// The `log σ²` head's parameters.
    pub fn logvar_parameters(&self) -> Vec<ParamRef> {
        self.enc_logvar.parameters()
    }
}

impl Module for VaeHead {
    fn parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.enc_mu.parameters();
        ps.extend(self.enc_logvar.parameters());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kl_zero_at_prior() {
        let g = Graph::new();
        let mu = g.constant(Tensor::zeros(vec![4, 8]));
        let logvar = g.constant(Tensor::zeros(vec![4, 8]));
        assert!(gaussian_kl(&mu, &logvar).item().abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let g = Graph::new();
        let mu = g.constant(Tensor::full(vec![4, 8], 1.0));
        let logvar = g.constant(Tensor::zeros(vec![4, 8]));
        // ½·(1+1−1−0) = ½ per element.
        let kl = gaussian_kl(&mu, &logvar).item();
        assert!((kl - 0.5).abs() < 1e-5, "kl {kl}");
    }

    #[test]
    fn kl_known_value_for_variance() {
        let g = Graph::new();
        let mu = g.constant(Tensor::zeros(vec![1, 1]));
        let logvar = g.constant(Tensor::full(vec![1, 1], 2.0f32.ln()));
        // ½(σ² − 1 − ln σ²) = ½(2 − 1 − ln 2) ≈ 0.1534
        let kl = gaussian_kl(&mu, &logvar).item();
        assert!((kl - 0.5 * (2.0 - 1.0 - 2.0f32.ln())).abs() < 1e-5);
    }

    #[test]
    fn reparameterize_statistics() {
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mu = g.constant(Tensor::full(vec![1000, 4], 2.0));
        let logvar = g.constant(Tensor::full(vec![1000, 4], (0.25f32).ln())); // σ = 0.5
        let z = reparameterize(&mu, &logvar, &mut rng, false).value();
        let mean = z.mean_all();
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        let var = z
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / (z.numel() - 1) as f32;
        assert!((var - 0.25).abs() < 0.03, "var {var}");
        // Deterministic mode returns μ.
        let zd = reparameterize(&mu, &logvar, &mut rng, true).value();
        assert!(zd.data().iter().all(|&x| x == 2.0));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// `dims` drawn one sample at a time, in row-major order.
    fn drawn_one_by_one(dims: &[usize], rng: &mut StdRng) -> Vec<u32> {
        let numel: usize = dims.iter().product();
        (0..numel)
            .map(|_| init::sample_standard_normal(rng).to_bits())
            .collect()
    }

    #[test]
    fn reading_every_row_is_the_full_draw() {
        for dims in [vec![3, 5, 4], vec![7, 1], vec![6], vec![0, 3], vec![]] {
            let want = drawn_one_by_one(&dims, &mut StdRng::seed_from_u64(9));
            let full = standard_normal_like(&dims, &mut StdRng::seed_from_u64(9));
            let rows = standard_normal_rows(&dims, |_| true, &mut StdRng::seed_from_u64(9));
            assert_eq!(full.dims(), &dims[..]);
            assert_eq!(bits(&full), want, "{dims:?}");
            assert_eq!(bits(&rows), want, "{dims:?}");
        }
    }

    #[test]
    fn read_rows_match_the_full_draw_and_the_stream_is_preserved() {
        let (dims, w) = ([4, 5, 3], 3);
        let reads: [fn(usize) -> bool; 4] = [
            |_| false,
            |r| r % 5 == 4,
            |r| r % 3 != 1,
            |r| r == 0 || r == 19,
        ];
        for read in reads {
            let mut full_rng = StdRng::seed_from_u64(11);
            let full = drawn_one_by_one(&dims, &mut full_rng);
            let mut rng = StdRng::seed_from_u64(11);
            let got = standard_normal_rows(&dims, read, &mut rng);
            assert_eq!(got.dims(), &dims[..]);
            for (r, (g, f)) in bits(&got).chunks(w).zip(full.chunks(w)).enumerate() {
                let want = if read(r) {
                    f.to_vec()
                } else {
                    vec![0.0f32.to_bits(); w]
                };
                assert_eq!(g, want, "row {r}: read rows as drawn, the rest +0.0");
            }
            assert_eq!(
                rng.state_words(),
                full_rng.state_words(),
                "the generator ends where the full draw leaves it"
            );
            assert_eq!(
                init::sample_standard_normal(&mut rng).to_bits(),
                init::sample_standard_normal(&mut full_rng).to_bits(),
                "the next draw is the full draw's next"
            );
        }
    }

    #[test]
    fn head_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let head = VaeHead::new(&mut rng, "vae", 6);
        let g = Graph::new();
        let h = g.constant(init::randn(&mut rng, vec![3, 6], 0.0, 1.0));
        let (mu, logvar) = head.forward(&g, &h);
        assert_eq!(mu.dims(), vec![3, 6]);
        assert_eq!(logvar.dims(), vec![3, 6]);
        let loss = gaussian_kl(&mu, &logvar);
        loss.backward();
        for p in head.parameters() {
            assert!(p.borrow().grad.norm() > 0.0);
        }
        assert_eq!(head.mu_parameters().len(), 2);
        assert_eq!(head.logvar_parameters().len(), 2);
    }
}
