//! Inverted dropout.

use autograd::{Ctx, Value, Var};
use rand::rngs::StdRng;
use rand::Rng;
use tensor::Tensor;

use crate::Packing;

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
        let dims = c.dims(&x);
        let n = dims.iter().product();
        let mask = Tensor::from_vec(self.draw(rng, n, 0..n), dims);
        c.mul_const(&x, &mask)
    }

    /// [`Dropout::apply`] to rows of `x` (`[rows, w]`). With a packing the
    /// rows are its real rows: the mask is drawn at the padded
    /// `[b·n, w]` shape, in `apply`'s order, and only the real rows'
    /// entries are kept, so the RNG stream is the padded batch's.
    pub fn apply_rows<C: Ctx>(
        &self,
        c: &C,
        x: C::V,
        rows: Option<&Packing>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let Some(pack) = rows else {
            return self.apply(c, x, rng, training);
        };
        if !training || self.p == 0.0 {
            return x;
        }
        let dims = c.dims(&x);
        let w = dims[dims.len() - 1];
        let total = pack.batch() * pack.window() * w;
        let kept = pack
            .cells()
            .iter()
            .flat_map(|&cell| cell * w..(cell + 1) * w);
        let mask = Tensor::from_vec(self.draw(rng, total, kept), dims);
        c.mul_const(&x, &mask)
    }

    /// The keep-mask over the attention weights a segmented attention
    /// over `pack` with `heads` heads keeps, drawn at the padded
    /// `[b·heads, n, n]` shape. `None` when dropout is off.
    pub fn attention_keep(
        &self,
        pack: &Packing,
        heads: usize,
        rng: &mut StdRng,
        training: bool,
    ) -> Option<Tensor> {
        if !training || self.p == 0.0 {
            return None;
        }
        let cells = pack.attention_cells(heads);
        let total = pack.batch() * heads * pack.window() * pack.window();
        let len = cells.len();
        Some(Tensor::from_vec(self.draw(rng, total, cells), vec![len]))
    }

    /// Draws `total` mask entries in order and keeps those at the
    /// ascending indices `kept`.
    fn draw(
        &self,
        rng: &mut StdRng,
        total: usize,
        kept: impl IntoIterator<Item = usize>,
    ) -> Vec<f32> {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let kept = kept.into_iter();
        let mut out = Vec::with_capacity(kept.size_hint().0);
        let mut next = 0;
        for idx in kept {
            while next < idx {
                let _: f32 = rng.gen();
                next += 1;
            }
            out.push(if rng.gen::<f32>() < keep { scale } else { 0.0 });
            next += 1;
        }
        while next < total {
            let _: f32 = rng.gen();
            next += 1;
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
