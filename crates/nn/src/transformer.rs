//! Stacked self-attention blocks (Eqs. 9–10): the paper's `SAN(·)`.

use autograd::{Ctx, ParamRef, Store, Train};
use rand::rngs::StdRng;
use tensor::Tensor;

use crate::{Activation, Dropout, FeedForward, LayerNorm, Module, MultiHeadSelfAttention};

/// One SAN block: attention + residual + LayerNorm, FFN + residual +
/// LayerNorm (post-norm, SASRec style).
pub struct TransformerLayer<S: Store = Train> {
    pub(crate) mha: MultiHeadSelfAttention<S>,
    pub(crate) ffn: FeedForward<S>,
    pub(crate) ln1: LayerNorm<S>,
    pub(crate) ln2: LayerNorm<S>,
    pub(crate) dropout: Dropout,
}

impl TransformerLayer {
    /// Creates one encoder layer with FFN hidden size `4·dim`… scaled down:
    /// the paper uses hidden = dim (SASRec convention), which we follow.
    pub fn new(rng: &mut StdRng, name: &str, dim: usize, heads: usize, dropout: f32) -> Self {
        TransformerLayer {
            mha: MultiHeadSelfAttention::new(rng, &format!("{name}.mha"), dim, heads, dropout),
            ffn: FeedForward::new(
                rng,
                &format!("{name}.ffn"),
                dim,
                dim,
                Activation::Relu,
                dropout,
            ),
            ln1: LayerNorm::new(&format!("{name}.ln1"), dim),
            ln2: LayerNorm::new(&format!("{name}.ln2"), dim),
            dropout: Dropout::new(dropout),
        }
    }
}

impl<S: Store> TransformerLayer<S> {
    /// Applies the block to `x: [b, n, dim]` with an optional additive
    /// attention mask.
    pub fn forward<C: Ctx<S = S>>(
        &self,
        c: &C,
        x: &C::V,
        mask: Option<&Tensor>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        self.forward_kv(c, x, mask, rng, training).0
    }

    /// [`forward`](Self::forward), also returning the attention block's
    /// split-head keys and values.
    pub(crate) fn forward_kv<C: Ctx<S = S>>(
        &self,
        c: &C,
        x: &C::V,
        mask: Option<&Tensor>,
        rng: &mut StdRng,
        training: bool,
    ) -> (C::V, C::V, C::V) {
        let (attn, k, v) = self.mha.forward_kv(c, x, mask, rng, training);
        let attn = self.dropout.apply(c, attn, rng, training);
        (self.residual_ffn(c, x, &attn, rng, training), k, v)
    }

    /// Everything after attention: `ln2(h + FFN(h))` with
    /// `h = ln1(x + attn)`.
    pub(crate) fn residual_ffn<C: Ctx<S = S>>(
        &self,
        c: &C,
        x: &C::V,
        attn: &C::V,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let h = self.ln1.forward(c, &c.add(x, attn));
        let ff = self.ffn.forward(c, &h, rng, training);
        self.ln2.forward(c, &c.add(&h, &ff))
    }
}

impl Module for TransformerLayer {
    fn parameters(&self) -> Vec<ParamRef> {
        let mut ps = self.mha.parameters();
        ps.extend(self.ffn.parameters());
        ps.extend(self.ln1.parameters());
        ps.extend(self.ln2.parameters());
        ps
    }
}

/// A stack of [`TransformerLayer`]s: `F^(l) = SAN(F^(l−1))` (Eq. 10).
pub struct TransformerEncoder<S: Store = Train> {
    pub(crate) layers: Vec<TransformerLayer<S>>,
}

impl TransformerEncoder {
    /// Creates `n_layers` stacked blocks.
    pub fn new(
        rng: &mut StdRng,
        name: &str,
        n_layers: usize,
        dim: usize,
        heads: usize,
        dropout: f32,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| TransformerLayer::new(rng, &format!("{name}.layer{i}"), dim, heads, dropout))
            .collect();
        TransformerEncoder { layers }
    }
}

impl<S: Store> TransformerEncoder<S> {
    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the stack over `x: [b, n, dim]`.
    ///
    /// `timeline` is an optional `[b, n, 1]`-broadcastable multiplicative
    /// mask (1 for real positions, 0 for padding) applied after every layer
    /// so padded positions stay zero, as in SASRec.
    pub fn forward<C: Ctx<S = S>>(
        &self,
        c: &C,
        x: &C::V,
        mask: Option<&Tensor>,
        timeline: Option<&Tensor>,
        rng: &mut StdRng,
        training: bool,
    ) -> C::V {
        let mut h = match timeline {
            Some(t) => c.mul_const(x, t),
            None => x.clone(),
        };
        for layer in &self.layers {
            h = layer.forward(c, &h, mask, rng, training);
            if let Some(t) = timeline {
                h = c.mul_const(&h, t);
            }
        }
        h
    }
}

impl Module for TransformerEncoder {
    fn parameters(&self) -> Vec<ParamRef> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal_mask;
    use autograd::Graph;
    use rand::SeedableRng;
    use tensor::init;

    #[test]
    fn encoder_shape_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(&mut rng, "enc", 2, 8, 2, 0.1);
        assert_eq!(enc.n_layers(), 2);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![2, 5, 8], 0.0, 1.0));
        let y = enc.forward(&g, &x, Some(&causal_mask(5)), None, &mut rng, false);
        assert_eq!(y.dims(), vec![2, 5, 8]);
        // per layer: 4 attn mats + 4 ffn tensors + 2×2 layernorm = 12
        assert_eq!(enc.parameters().len(), 24);
    }

    #[test]
    fn timeline_mask_zeroes_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(&mut rng, "enc", 1, 4, 1, 0.0);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![1, 3, 4], 0.0, 1.0));
        let mut timeline = Tensor::ones(vec![1, 3, 1]);
        timeline.data_mut()[0] = 0.0; // first position is padding
        let y = enc
            .forward(
                &g,
                &x,
                Some(&causal_mask(3)),
                Some(&timeline),
                &mut rng,
                false,
            )
            .value();
        for j in 0..4 {
            assert_eq!(y.at(&[0, 0, j]), 0.0);
        }
        assert!(y.at(&[0, 1, 0]).abs() > 0.0);
    }

    #[test]
    fn training_with_dropout_differs_from_eval() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(&mut rng, "enc", 1, 4, 2, 0.5);
        let g = Graph::new();
        let xt = init::randn(&mut rng, vec![1, 3, 4], 0.0, 1.0);
        let x = g.constant(xt);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let ytrain = enc.forward(&g, &x, None, None, &mut r1, true).value();
        let yeval = enc.forward(&g, &x, None, None, &mut r2, false).value();
        assert_ne!(ytrain.data(), yeval.data());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let e1 = TransformerEncoder::new(&mut rng1, "e", 1, 4, 2, 0.0);
        let e2 = TransformerEncoder::new(&mut rng2, "e", 1, 4, 2, 0.0);
        let g = Graph::new();
        let x = Tensor::ones(vec![1, 2, 4]);
        let y1 = e1
            .forward(&g, &g.constant(x.clone()), None, None, &mut rng1, false)
            .value();
        let y2 = e2
            .forward(&g, &g.constant(x), None, None, &mut rng2, false)
            .value();
        assert_eq!(y1.data(), y2.data());
    }
}
