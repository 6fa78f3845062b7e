//! Fully-connected (affine) layer.

use autograd::{Ctx, ParamRef, Parameter, Store, Train};
use rand::rngs::StdRng;
use tensor::{init, Tensor};

use crate::Module;

/// `y = x · W (+ b)` for inputs of shape `[.., in_dim]` (rank 2 or 3).
pub struct Linear<S: Store = Train> {
    pub(crate) weight: S::Weight,
    pub(crate) bias: Option<S::Weight>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(rng: &mut StdRng, name: &str, in_dim: usize, out_dim: usize, bias: bool) -> Self {
        let weight = Parameter::shared(
            format!("{name}.weight"),
            init::xavier_uniform(rng, vec![in_dim, out_dim]),
        );
        let bias =
            bias.then(|| Parameter::shared(format!("{name}.bias"), Tensor::zeros(vec![out_dim])));
        Linear { weight, bias }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.borrow().value.dim(0)
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.borrow().value.dim(1)
    }
}

impl<S: Store> Linear<S> {
    /// Applies the layer. `x` has shape `[.., in_dim]` (rank 2 or 3).
    pub fn forward<C: Ctx<S = S>>(&self, c: &C, x: &C::V) -> C::V {
        let y = c.matmul_w(x, &self.weight);
        match &self.bias {
            Some(b) => c.add_w(&y, b),
            None => y,
        }
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<ParamRef> {
        let mut out = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            out.push(b.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Graph;
    use rand::SeedableRng;

    #[test]
    fn shapes_2d_and_3d() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, "l", 4, 3, true);
        assert_eq!((l.in_dim(), l.out_dim()), (4, 3));
        let g = Graph::new();
        let x2 = g.constant(Tensor::ones(vec![2, 4]));
        assert_eq!(l.forward(&g, &x2).dims(), vec![2, 3]);
        let x3 = g.constant(Tensor::ones(vec![2, 5, 4]));
        assert_eq!(l.forward(&g, &x3).dims(), vec![2, 5, 3]);
    }

    #[test]
    fn bias_is_added() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, "l", 2, 2, true);
        l.parameters()[1].borrow_mut().value = Tensor::from_vec(vec![10.0, 20.0], vec![2]);
        l.parameters()[0].borrow_mut().value = Tensor::zeros(vec![2, 2]);
        let g = Graph::new();
        let y = l.forward(&g, &g.constant(Tensor::ones(vec![1, 2])));
        assert_eq!(y.value().data(), &[10.0, 20.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Linear::new(&mut rng, "l", 4, 3, true).num_parameters(), 15);
        assert_eq!(Linear::new(&mut rng, "l", 4, 3, false).num_parameters(), 12);
    }

    #[test]
    fn gradients_flow() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, "l", 3, 2, true);
        let g = Graph::new();
        let y = l
            .forward(&g, &g.constant(Tensor::ones(vec![2, 3])))
            .sum_all();
        y.backward();
        for p in l.parameters() {
            assert!(
                p.borrow().grad.norm() > 0.0,
                "no grad for {}",
                p.borrow().name
            );
        }
    }
}
