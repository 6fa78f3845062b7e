//! Layer normalization over the last axis.

use autograd::{Ctx, ParamRef, Parameter};
use tensor::Tensor;

use crate::Module;

/// LayerNorm with learnable gain `γ` and bias `β`.
///
/// Composed from autograd primitives, so its gradient is exact by
/// construction (covered by the composite gradient checks).
pub struct LayerNorm {
    pub(crate) gamma: ParamRef,
    pub(crate) beta: ParamRef,
    pub(crate) eps: f32,
}

impl LayerNorm {
    /// Creates a LayerNorm over a last axis of size `dim` (γ=1, β=0).
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: Parameter::shared(format!("{name}.gamma"), Tensor::ones(vec![dim])),
            beta: Parameter::shared(format!("{name}.beta"), Tensor::zeros(vec![dim])),
            eps: 1e-5,
        }
    }

    /// Normalizes the last axis of `x` and applies the affine transform.
    pub fn forward<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        let last = c.dims(x).len() - 1;
        let mean = c.mean_axis(x, last, true);
        let centered = c.sub(x, &mean);
        let var = c.mean_axis(&c.square(&centered), last, true);
        let inv_std = c.sqrt(&c.add_scalar(&var, self.eps));
        let normed = c.div(&centered, &inv_std);
        c.add_w(&c.mul_w(&normed, &self.gamma), &self.beta)
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<ParamRef> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Graph;

    #[test]
    fn output_is_standardized() {
        let ln = LayerNorm::new("ln", 4);
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0],
            vec![2, 4],
        ));
        let y = ln.forward(&g, &x).value();
        for row in y.data().chunks_exact(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn affine_params_apply() {
        let ln = LayerNorm::new("ln", 2);
        ln.parameters()[0].borrow_mut().value = Tensor::from_vec(vec![2.0, 2.0], vec![2]);
        ln.parameters()[1].borrow_mut().value = Tensor::from_vec(vec![1.0, 1.0], vec![2]);
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![-1.0, 1.0], vec![1, 2]));
        let y = ln.forward(&g, &x).value();
        // normalized = [-1, 1] (approximately), so y ≈ [-1, 3]
        assert!((y.data()[0] + 1.0).abs() < 1e-2);
        assert!((y.data()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn gradcheck_layernorm() {
        use autograd::numeric::assert_grads_close;
        use rand::{rngs::StdRng, SeedableRng};
        use tensor::init;
        let ln = LayerNorm::new("ln", 3);
        let mut rng = StdRng::seed_from_u64(5);
        let x = init::uniform(&mut rng, vec![2, 3], -1.0, 1.0);
        let params = ln.parameters();
        let w = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        assert_grads_close(&params, 1e-3, 2e-2, move |g| {
            ln.forward(g, &g.constant(x.clone()))
                .mul_const(&w)
                .sum_all()
        });
    }
}
