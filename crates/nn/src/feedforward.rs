//! Position-wise feed-forward network (Eq. 8).

use autograd::{Ctx, ParamRef};
use rand::rngs::StdRng;

use crate::{Dropout, Linear, Module, Packing};

/// Activation used inside [`FeedForward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice, Eq. 8).
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

/// `FFN(x) = act(x·W₁ + b₁)·W₂ + b₂` applied position-wise.
pub struct FeedForward {
    pub(crate) l1: Linear,
    pub(crate) l2: Linear,
    pub(crate) activation: Activation,
    pub(crate) dropout: Dropout,
}

impl FeedForward {
    /// Creates an FFN `dim → hidden → dim`.
    pub fn new(
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        hidden: usize,
        activation: Activation,
        dropout: f32,
    ) -> Self {
        FeedForward {
            l1: Linear::new(rng, &format!("{name}.l1"), dim, hidden, true),
            l2: Linear::new(rng, &format!("{name}.l2"), hidden, dim, true),
            activation,
            dropout: Dropout::new(dropout),
        }
    }

    /// Applies the FFN (no residual; the caller adds it per Eq. 8).
    pub fn forward<C: Ctx>(&self, c: &C, x: &C::V, rng: &mut StdRng, training: bool) -> C::V {
        self.forward_rows(c, x, None, rng, training)
    }

    /// [`forward`](Self::forward) over rows that may be the packed rows of
    /// a padded batch (see [`Dropout::apply_rows`]).
    pub(crate) fn forward_rows<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        rows: Option<&Packing>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let h = self.l1.forward(c, x);
        let h = match self.activation {
            Activation::Relu => c.relu(&h),
            Activation::Gelu => c.gelu(&h),
        };
        let h = self.dropout.apply_rows(c, h, rows, rng, training);
        let y = self.l2.forward(c, &h);
        self.dropout.apply_rows(c, y, rows, rng, training)
    }
}

impl Module for FeedForward {
    fn parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.l1.parameters();
        ps.extend(self.l2.parameters());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Graph;
    use rand::SeedableRng;
    use tensor::{init, Tensor};

    #[test]
    fn shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(&mut rng, "ffn", 6, 12, Activation::Relu, 0.0);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![2, 4, 6], 0.0, 1.0));
        assert_eq!(ffn.forward(&g, &x, &mut rng, false).dims(), vec![2, 4, 6]);
        assert_eq!(ffn.parameters().len(), 4);
    }

    #[test]
    fn relu_zeroes_negatives_internally() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(&mut rng, "ffn", 2, 2, Activation::Relu, 0.0);
        // Force l1 output strongly negative: weights -1, bias 0.
        ffn.l1.parameters()[0].borrow_mut().value = Tensor::full(vec![2, 2], -1.0);
        ffn.l2.parameters()[1].borrow_mut().value = Tensor::zeros(vec![2]);
        let g = Graph::new();
        let y = ffn.forward(&g, &g.constant(Tensor::ones(vec![1, 2])), &mut rng, false);
        // relu(-2) = 0 → output is just l2 bias (zero).
        assert_eq!(y.value().data(), &[0.0, 0.0]);
    }

    #[test]
    fn gradcheck_ffn() {
        use autograd::numeric::assert_grads_close;
        let mut rng = StdRng::seed_from_u64(3);
        let ffn = FeedForward::new(&mut rng, "ffn", 3, 5, Activation::Gelu, 0.0);
        let x = init::uniform(&mut rng, vec![2, 3], -1.0, 1.0);
        let params = ffn.parameters();
        assert_grads_close(&params, 1e-2, 3e-2, move |g| {
            let mut r = StdRng::seed_from_u64(0);
            ffn.forward(g, &g.constant(x.clone()), &mut r, false)
                .square()
                .sum_all()
        });
    }
}
