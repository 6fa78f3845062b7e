//! Multi-head self-attention (Eqs. 5–7 of the paper).

use autograd::{Ctx, ParamRef};
use rand::rngs::StdRng;
use tensor::Tensor;

use crate::{Dropout, Linear, Module};

/// Additive causal mask of shape `[n, n]`: position `i` may attend to
/// positions `j ≤ i`; future positions receive `−1e9` ("we block all items
/// after the current moment to avoid information leakage").
pub fn causal_mask(n: usize) -> Tensor {
    let mut m = Tensor::zeros(vec![n, n]);
    for i in 0..n {
        let row = &mut m.data_mut()[i * n..(i + 1) * n];
        for (j, v) in row.iter_mut().enumerate() {
            if j > i {
                *v = -1e9;
            }
        }
    }
    m
}

/// Multi-head scaled dot-product self-attention with fused `d×d`
/// query/key/value projections (equivalent to the paper's per-head
/// `d × d/h` matrices `W_i^Q, W_i^K, W_i^V`) and an output projection.
pub struct MultiHeadSelfAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) heads: usize,
    pub(crate) dim: usize,
    pub(crate) dropout: Dropout,
}

impl MultiHeadSelfAttention {
    /// Creates an attention block. `dim` must be divisible by `heads`.
    pub fn new(rng: &mut StdRng, name: &str, dim: usize, heads: usize, dropout: f32) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "dim {dim} not divisible by heads {heads}"
        );
        MultiHeadSelfAttention {
            wq: Linear::new(rng, &format!("{name}.wq"), dim, dim, false),
            wk: Linear::new(rng, &format!("{name}.wk"), dim, dim, false),
            wv: Linear::new(rng, &format!("{name}.wv"), dim, dim, false),
            wo: Linear::new(rng, &format!("{name}.wo"), dim, dim, false),
            heads,
            dim,
            dropout: Dropout::new(dropout),
        }
    }

    fn split_heads<C: Ctx>(&self, c: &C, x: &C::V, b: usize, n: usize) -> C::V {
        let dh = self.dim / self.heads;
        let x = c.reshape(x, vec![b, n, self.heads, dh]);
        let x = c.permute(&x, &[0, 2, 1, 3]);
        c.reshape(&x, vec![b * self.heads, n, dh])
    }

    /// The query projections of rows `xq`, and the key and value
    /// projections of rows `x`.
    pub(crate) fn qkv<C: Ctx>(&self, c: &C, xq: &C::V, x: &C::V) -> (C::V, C::V, C::V) {
        (
            self.wq.forward(c, xq),
            self.wk.forward(c, x),
            self.wv.forward(c, x),
        )
    }

    /// Mixes projected `q, k, v: [b, n, dim]` densely, under an additive
    /// logits mask broadcastable to `[b·heads, n, n]`. Returns the
    /// context, before `W^O`.
    pub(crate) fn mix_dense<C: Ctx>(
        &self,
        c: &C,
        (q, k, v): (&C::V, &C::V, &C::V),
        mask: Option<&Tensor>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let dims = c.dims(q);
        let (b, n) = (dims[0], dims[1]);
        debug_assert_eq!(dims[2], self.dim);
        let dh = self.dim / self.heads;
        let (q, k, v) = (
            self.split_heads(c, q, b, n),
            self.split_heads(c, k, b, n),
            self.split_heads(c, v, b, n),
        );
        let mut scores = c.scale(&c.matmul_transb(&q, &k), 1.0 / (dh as f32).sqrt());
        if let Some(m) = mask {
            scores = c.add_const(&scores, m);
        }
        let attn = self
            .dropout
            .apply(c, c.softmax_last(&scores), rng, training);
        let ctx = c.reshape(&c.matmul(&attn, &v), vec![b, self.heads, n, dh]);
        c.reshape(&c.permute(&ctx, &[0, 2, 1, 3]), vec![b, n, self.dim])
    }

    /// Applies self-attention to `x: [b, n, dim]` under an additive logits
    /// mask broadcastable to `[b·heads, n, n]` (e.g. [`causal_mask`]);
    /// `None` means full bidirectional attention. This dense form is the
    /// reference the packed forward is tested against.
    pub fn forward<C: Ctx>(
        &self,
        c: &C,
        x: &C::V,
        mask: Option<&Tensor>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let (q, k, v) = self.qkv(c, x, x);
        let ctx = self.mix_dense(c, (&q, &k, &v), mask, rng, training);
        self.wo.forward(c, &ctx)
    }
}

impl Module for MultiHeadSelfAttention {
    fn parameters(&self) -> Vec<ParamRef> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Graph;
    use rand::SeedableRng;
    use tensor::init;

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert_eq!(m.at(&[0, 0]), 0.0);
        assert_eq!(m.at(&[0, 1]), -1e9);
        assert_eq!(m.at(&[2, 1]), 0.0);
        assert_eq!(m.at(&[1, 2]), -1e9);
    }

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadSelfAttention::new(&mut rng, "mha", 8, 2, 0.0);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![3, 5, 8], 0.0, 1.0));
        let y = mha.forward(&g, &x, Some(&causal_mask(5)), &mut rng, false);
        assert_eq!(y.dims(), vec![3, 5, 8]);
        assert_eq!(mha.parameters().len(), 4);
    }

    #[test]
    fn causality_first_position_ignores_rest() {
        // With a causal mask, output at position 0 must not change when
        // later inputs change.
        let mut rng = StdRng::seed_from_u64(1);
        let mha = MultiHeadSelfAttention::new(&mut rng, "mha", 8, 2, 0.0);
        let base = init::randn(&mut rng, vec![1, 4, 8], 0.0, 1.0);
        let mut altered = base.clone();
        for i in 8..32 {
            altered.data_mut()[i] += 5.0; // change positions 1..4
        }
        let g = Graph::new();
        let m = causal_mask(4);
        let y0 = mha
            .forward(&g, &g.constant(base), Some(&m), &mut rng, false)
            .value();
        let y1 = mha
            .forward(&g, &g.constant(altered), Some(&m), &mut rng, false)
            .value();
        for j in 0..8 {
            assert!((y0.at(&[0, 0, j]) - y1.at(&[0, 0, j])).abs() < 1e-5);
        }
        // Later positions do change.
        assert!((y0.at(&[0, 3, 0]) - y1.at(&[0, 3, 0])).abs() > 1e-4);
    }

    #[test]
    fn gradcheck_attention() {
        use autograd::numeric::assert_grads_close;
        let mut rng = StdRng::seed_from_u64(2);
        let mha = MultiHeadSelfAttention::new(&mut rng, "mha", 4, 2, 0.0);
        let x = init::uniform(&mut rng, vec![2, 3, 4], -1.0, 1.0);
        let params = mha.parameters();
        let m = causal_mask(3);
        assert_grads_close(&params, 1e-2, 3e-2, move |g| {
            let mut r = StdRng::seed_from_u64(0);
            mha.forward(g, &g.constant(x.clone()), Some(&m), &mut r, false)
                .square()
                .sum_all()
        });
    }
}
