//! Property-based tests for nn layers: shape preservation, determinism,
//! masking semantics, and gradient flow across random configurations.

use autograd::Graph;
use nn::{
    causal_mask, Activation, Dropout, Embedding, FeedForward, LayerNorm, Module,
    MultiHeadSelfAttention, Packing, TransformerEncoder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn attention_preserves_shape_for_any_config(
        b in 1usize..4,
        n in 1usize..6,
        heads_pow in 0u32..3,
        seed in 0u64..100,
    ) {
        let heads = 1usize << heads_pow; // 1, 2, 4
        let dim = heads * 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let mha = MultiHeadSelfAttention::new(&mut rng, "mha", dim, heads, 0.0);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![b, n, dim], 0.0, 1.0));
        let y = mha.forward(&g, &x, Some(&causal_mask(n)), &mut rng, false);
        prop_assert_eq!(y.dims(), vec![b, n, dim]);
        prop_assert!(!y.value().has_non_finite());
    }

    #[test]
    fn layernorm_output_always_standardized(rows in 1usize..6, dim in 2usize..10,
                                            seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ln = LayerNorm::new("ln", dim);
        let g = Graph::new();
        let x = g.constant(init::randn(&mut rng, vec![rows, dim], 3.0, 5.0));
        let y = ln.forward(&g, &x).value();
        for row in y.data().chunks_exact(dim) {
            let mean: f32 = row.iter().sum::<f32>() / dim as f32;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        }
    }

    #[test]
    fn encoder_deterministic_in_eval_mode(n in 2usize..6, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = TransformerEncoder::new(&mut rng, "enc", 1, 8, 2, 0.3);
        let g = Graph::new();
        let x = init::randn(&mut rng, vec![2 * n, 8], 0.0, 1.0);
        let pack = Packing::new(&[vec![false; n], vec![false; n]], false);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(999); // different rng: eval ignores it
        let y1 = enc.forward(&g, &g.constant(x.clone()), &pack, &mut r1, false).value();
        let y2 = enc.forward(&g, &g.constant(x), &pack, &mut r2, false).value();
        prop_assert_eq!(y1.data(), y2.data());
    }

    #[test]
    fn dropout_mask_is_binary_scaled(p in 0.05f32..0.8, seed in 0u64..100) {
        let d = Dropout::new(p);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(vec![500]));
        let mut rng = StdRng::seed_from_u64(seed);
        let y = d.forward(&x, &mut rng, true).value();
        let scale = 1.0 / (1.0 - p);
        for &v in y.data() {
            prop_assert!(v == 0.0 || (v - scale).abs() < 1e-5, "unexpected value {v}");
        }
    }

    #[test]
    fn embedding_gradients_only_touch_selected_rows(
        vocab in 4usize..12,
        picks in prop::collection::vec(0usize..4, 1..6),
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = Embedding::new(&mut rng, "e", vocab, 3);
        let g = Graph::new();
        let loss = e.forward_flat(&g, &picks).sum_all();
        loss.backward();
        let grad = e.table().borrow().grad.clone();
        for row in 0..vocab {
            let touched = picks.contains(&row);
            let nonzero = grad.row(row).iter().any(|&x| x != 0.0);
            prop_assert_eq!(touched, nonzero, "row {} touched={} nonzero={}", row, touched, nonzero);
        }
    }

    #[test]
    fn ffn_gradcheck_random_dims(dim in 2usize..5, hidden in 2usize..6, seed in 0u64..50) {
        use autograd::numeric::max_grad_rel_error;
        let mut rng = StdRng::seed_from_u64(seed);
        let ffn = FeedForward::new(&mut rng, "ffn", dim, hidden, Activation::Gelu, 0.0);
        let x = init::uniform(&mut rng, vec![2, dim], -1.0, 1.0);
        let params = ffn.parameters();
        let err = max_grad_rel_error(&params, 1e-2, move |g| {
            let mut r = StdRng::seed_from_u64(0);
            ffn.forward(g, &g.constant(x.clone()), &mut r, false).square().sum_all()
        });
        prop_assert!(err < 5e-2, "rel err {err}");
    }
}
