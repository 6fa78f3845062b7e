//! Inverted dropout.

use autograd::{Ctx, Value, Var};
use rand::rngs::StdRng;
use rand::Rng;
use tensor::Tensor;

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1−p)`; at evaluation it is identity.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout { p }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout. `training = false` or `p == 0` is identity.
    pub fn forward(&self, x: &Var, rng: &mut StdRng, training: bool) -> Var {
        self.apply(&x.ctx(), x.clone(), rng, training)
    }

    /// [`Dropout::forward`] in any execution context. Identity records
    /// nothing and, taking `x` by value, copies nothing.
    pub fn apply<C: Ctx>(&self, c: &C, x: C::V, rng: &mut StdRng, training: bool) -> C::V {
        if !training || self.p == 0.0 {
            return x;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(c.dims(&x));
        for m in mask.data_mut() {
            *m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
        c.mul_const(&x, &mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Graph;
    use rand::SeedableRng;

    #[test]
    fn eval_mode_is_identity() {
        let d = Dropout::new(0.5);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![10]));
        let mut rng = StdRng::seed_from_u64(0);
        let y = d.forward(&x, &mut rng, false);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn zero_p_is_identity_in_training() {
        let d = Dropout::new(0.0);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![10]));
        let mut rng = StdRng::seed_from_u64(0);
        let y = d.forward(&x, &mut rng, true);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn expectation_preserved() {
        let d = Dropout::new(0.3);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![20_000]));
        let mut rng = StdRng::seed_from_u64(7);
        let y = d.forward(&x, &mut rng, true).value();
        assert!((y.mean_all() - 1.0).abs() < 0.02, "mean {}", y.mean_all());
        // Survivors are scaled by 1/keep.
        let max = y.max_all();
        assert!((max - 1.0 / 0.7).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
