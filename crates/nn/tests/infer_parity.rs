//! Bitwise parity gates: every module's eager forward must reproduce its
//! recorded eval-mode forward on the same weights exactly (`==` on the raw
//! f32 data), and the incremental attention/GRU paths must reproduce the
//! full re-encode exactly at every prefix length.

use autograd::{Eager, Graph};
use nn::{
    causal_mask, Activation, FeedForward, Gru, LayerNorm, Linear, Module, MultiHeadSelfAttention,
    Packing, TopRows, TransformerEncoder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, ops, Tensor};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn linear_parity() {
    let mut r = rng(1);
    for bias in [true, false] {
        let l = Linear::new(&mut r, "l", 6, 4, bias);
        let x = init::randn(&mut r, vec![3, 6], 0.0, 1.0);
        let g = Graph::new();
        let want = l.forward(&g, &g.constant(x.clone())).value();
        assert_eq!(l.forward(&Eager, &x).data(), want.data());
        // Rank-3 inputs too.
        let x3 = init::randn(&mut r, vec![2, 5, 6], 0.0, 1.0);
        let want3 = l.forward(&g, &g.constant(x3.clone())).value();
        assert_eq!(l.forward(&Eager, &x3).data(), want3.data());
    }
}

#[test]
fn layernorm_parity() {
    let mut r = rng(2);
    let ln = LayerNorm::new("ln", 5);
    // Non-trivial affine params.
    ln.parameters()[0].borrow_mut().value = init::randn(&mut r, vec![5], 1.0, 0.3);
    ln.parameters()[1].borrow_mut().value = init::randn(&mut r, vec![5], 0.0, 0.2);
    let x = init::randn(&mut r, vec![2, 3, 5], 0.0, 2.0);
    let g = Graph::new();
    let want = ln.forward(&g, &g.constant(x.clone())).value();
    assert_eq!(ln.forward(&Eager, &x).data(), want.data());
}

#[test]
fn feedforward_parity_both_activations() {
    let mut r = rng(3);
    for act in [Activation::Relu, Activation::Gelu] {
        let ffn = FeedForward::new(&mut r, "ffn", 6, 9, act, 0.3);
        let x = init::randn(&mut r, vec![2, 4, 6], 0.0, 1.0);
        let g = Graph::new();
        let want = ffn
            .forward(&g, &g.constant(x.clone()), &mut rng(0), false)
            .value();
        assert_eq!(
            ffn.forward(&Eager, &x, &mut rng(0), false).data(),
            want.data()
        );
    }
}

#[test]
fn attention_parity_with_mask() {
    let mut r = rng(4);
    let mha = MultiHeadSelfAttention::new(&mut r, "mha", 8, 2, 0.2);
    let x = init::randn(&mut r, vec![3, 5, 8], 0.0, 1.0);
    let m = causal_mask(5);
    let g = Graph::new();
    let want = mha
        .forward(&g, &g.constant(x.clone()), Some(&m), &mut rng(0), false)
        .value();
    assert_eq!(
        mha.forward(&Eager, &x, Some(&m), &mut rng(0), false).data(),
        want.data()
    );
    let want_nomask = mha
        .forward(&g, &g.constant(x.clone()), None, &mut rng(0), false)
        .value();
    assert_eq!(
        mha.forward(&Eager, &x, None, &mut rng(0), false).data(),
        want_nomask.data()
    );
}

#[test]
fn encoder_parity_packed() {
    let mut r = rng(5);
    let enc = TransformerEncoder::new(&mut r, "enc", 2, 8, 2, 0.1);
    // Two sequences of a 4-cell window; the first starts with padding.
    let pack = Packing::new(&[vec![true, false, false, false], vec![false; 4]], true);
    let x = init::randn(&mut r, vec![pack.rows(), 8], 0.0, 1.0);
    let g = Graph::new();
    let want = enc
        .forward(&g, &g.constant(x.clone()), &pack, &mut rng(0), false)
        .value();
    assert_eq!(
        enc.forward(&Eager, &x, &pack, &mut rng(0), false).data(),
        want.data()
    );
}

/// The incremental K/V path must equal the full causal re-encode at every
/// prefix length: appending never recomputes (or changes) cached rows.
#[test]
fn incremental_attention_equals_full_reencode() {
    let mut r = rng(6);
    let enc = TransformerEncoder::new(&mut r, "enc", 2, 8, 2, 0.0);
    let n = 7;
    let rows = init::randn(&mut r, vec![n, 8], 0.0, 1.0);

    // Build incrementally: encode the first 3 rows in one shot (keeping
    // K/V), then append the rest one at a time.
    let seed_len = 3;
    let x0 = Tensor::from_vec(rows.data()[..seed_len * 8].to_vec(), vec![seed_len, 8]);
    let (mut state, h0) = enc.begin_top(&x0, &Packing::left_aligned(seed_len), n, TopRows::All);
    let mut incr_last = h0.row(seed_len - 1).to_vec();

    for t in seed_len..n {
        // Full re-encode of the prefix 0..=t (the oracle).
        let xt = Tensor::from_vec(rows.data()[..(t + 1) * 8].to_vec(), vec![t + 1, 8]);
        let (_, full) = enc.begin_top(&xt, &Packing::left_aligned(t + 1), n, TopRows::All);
        let full_last = full.row(t).to_vec();

        // Incremental append of row t.
        let xrow = Tensor::from_vec(rows.row(t).to_vec(), vec![1, 8]);
        let mut states = [&mut state];
        let out = enc.append(&xrow, &mut states);
        incr_last = out.row(0).to_vec();

        assert_eq!(incr_last, full_last, "prefix len {} diverged", t + 1);
        assert_eq!(state.len(), t + 1);
    }
    assert_eq!(incr_last.len(), 8);
}

/// Batched appends across independent sequences must match one-at-a-time
/// appends bitwise (GEMM row chains are independent of batch size).
#[test]
fn batched_append_equals_single_appends() {
    let mut r = rng(7);
    let enc = TransformerEncoder::new(&mut r, "enc", 1, 8, 2, 0.0);

    // Two sequences with different cached lengths.
    let a_rows = init::randn(&mut r, vec![4, 8], 0.0, 1.0);
    let b_rows = init::randn(&mut r, vec![2, 8], 0.0, 1.0);
    let mk = |rows: &Tensor, n: usize| {
        let x = Tensor::from_vec(rows.data()[..n * 8].to_vec(), vec![n, 8]);
        enc.begin_top(&x, &Packing::left_aligned(n), n + 1, TopRows::All)
            .0
    };
    let (mut sa, mut sb) = (mk(&a_rows, 4), mk(&b_rows, 2));
    let (mut sa2, mut sb2) = (mk(&a_rows, 4), mk(&b_rows, 2));

    let new_a = init::randn(&mut r, vec![1, 8], 0.0, 1.0);
    let new_b = init::randn(&mut r, vec![1, 8], 0.0, 1.0);

    // One at a time.
    let oa = enc.append(&new_a, &mut [&mut sa]);
    let ob = enc.append(&new_b, &mut [&mut sb]);

    // Batched.
    let stacked = ops::concat(&[&new_a, &new_b], 0).unwrap();
    let both = enc.append(&stacked, &mut [&mut sa2, &mut sb2]);

    assert_eq!(both.row(0), oa.row(0));
    assert_eq!(both.row(1), ob.row(0));
}

#[test]
fn gru_parity_and_incremental() {
    let mut r = rng(8);
    let gru = Gru::new(&mut r, "gru", 6);
    let x = init::randn(&mut r, vec![2, 5, 6], 0.0, 1.0);
    let g = Graph::new();

    // step parity
    let x1 = init::randn(&mut r, vec![3, 6], 0.0, 1.0);
    let h1 = init::randn(&mut r, vec![3, 6], 0.0, 0.5);
    let want = gru
        .step(&g, &g.constant(x1.clone()), &g.constant(h1.clone()))
        .value();
    assert_eq!(gru.step(&Eager, &x1, &h1).data(), want.data());

    // last-hidden parity vs the training sequence loop
    let hs = gru.forward_sequence(&g, &g.constant(x.clone())).value();
    let mut want_last: Vec<f32> = Vec::new();
    for b in 0..2 {
        for j in 0..6 {
            want_last.push(hs.at(&[b, 4, j]));
        }
    }
    assert_eq!(gru.forward_sequence_last(&Eager, &x).data(), &want_last[..]);

    // incremental recurrence equals the full loop at every prefix
    let mut h = Tensor::zeros(vec![1, 6]);
    for t in 0..5 {
        let xt = Tensor::from_vec(x.data()[t * 6..(t + 1) * 6].to_vec(), vec![1, 6]);
        h = gru.step(&Eager, &xt, &h);
        let prefix = Tensor::from_vec(x.data()[..(t + 1) * 6].to_vec(), vec![1, t + 1, 6]);
        assert_eq!(h.data(), gru.forward_sequence_last(&Eager, &prefix).data());
    }
}
