//! Seeded random tensor initialisation.
//!
//! All initialisers take an explicit `&mut StdRng` so experiments are
//! reproducible end-to-end from a single seed.

use rand::rngs::StdRng;
use rand::Rng;

use crate::Tensor;

/// Samples from a standard normal via the Box–Muller transform.
///
/// We avoid `rand_distr` to keep the dependency set minimal; Box–Muller is
/// exact and plenty fast for initialisation and reparameterization noise.
pub fn sample_standard_normal(rng: &mut StdRng) -> f32 {
    // u1 in (0, 1] so ln is finite.
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Advances `rng` past one [`sample_standard_normal`] draw (its two
/// uniforms) without the transform, so a caller that discards a sample
/// leaves the generator where drawing it would have.
pub fn skip_standard_normal(rng: &mut StdRng) {
    let _: f32 = rng.gen();
    let _: f32 = rng.gen();
}

/// Tensor with i.i.d. `N(mean, std²)` entries.
pub fn randn(rng: &mut StdRng, dims: impl Into<Vec<usize>>, mean: f32, std: f32) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = mean + std * sample_standard_normal(rng);
    }
    t
}

/// Tensor with i.i.d. `U(low, high)` entries.
pub fn uniform(rng: &mut StdRng, dims: impl Into<Vec<usize>>, low: f32, high: f32) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = rng.gen_range(low..high);
    }
    t
}

/// Xavier/Glorot uniform initialisation for a weight of shape
/// `[fan_in, fan_out]` (or higher rank, using the last two dims).
pub fn xavier_uniform(rng: &mut StdRng, dims: impl Into<Vec<usize>>) -> Tensor {
    let dims = dims.into();
    let nd = dims.len();
    let (fan_in, fan_out) = if nd >= 2 {
        (dims[nd - 2], dims[nd - 1])
    } else {
        (dims[0], dims[0])
    };
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, dims, -bound, bound)
}

/// Truncated-normal-ish initialisation used for embedding tables
/// (std 0.02, matching the SASRec/BERT convention).
pub fn embedding_init(rng: &mut StdRng, dims: impl Into<Vec<usize>>) -> Tensor {
    randn(rng, dims, 0.0, 0.02)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = randn(&mut rng, vec![20_000], 1.0, 2.0);
        let mean = t.mean_all();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / (t.numel() - 1) as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = uniform(&mut rng, vec![10_000], -0.5, 0.5);
        assert!(t.max_all() < 0.5);
        assert!(t.min_all() >= -0.5);
        assert!(t.mean_all().abs() < 0.02);
    }

    #[test]
    fn xavier_bound_respects_fans() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = xavier_uniform(&mut rng, vec![100, 200]);
        let bound = (6.0f32 / 300.0).sqrt();
        assert!(t.max_all() <= bound);
        assert!(t.min_all() >= -bound);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            randn(&mut a, vec![8], 0.0, 1.0),
            randn(&mut b, vec![8], 0.0, 1.0)
        );
    }
}
