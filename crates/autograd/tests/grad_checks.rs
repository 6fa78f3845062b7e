//! Finite-difference gradient checks for every autograd op.
//!
//! Each test builds a small scalar loss exercising one op and compares the
//! analytic gradient to central differences via
//! [`autograd::numeric::assert_grads_close`].

use autograd::numeric::assert_grads_close;
use autograd::{Graph, ParamRef, Parameter, Var, IGNORE_INDEX};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn p(name: &str, dims: Vec<usize>, seed: u64) -> ParamRef {
    let mut rng = StdRng::seed_from_u64(seed);
    Parameter::shared(name, init::uniform(&mut rng, dims, 0.2, 1.2))
}

fn p_signed(name: &str, dims: Vec<usize>, seed: u64) -> ParamRef {
    let mut rng = StdRng::seed_from_u64(seed);
    Parameter::shared(name, init::uniform(&mut rng, dims, -1.0, 1.0))
}

#[test]
fn grad_add_broadcast() {
    let a = p_signed("a", vec![2, 3], 1);
    let b = p_signed("b", vec![3], 2);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).add(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_sub_broadcast_col() {
    let a = p_signed("a", vec![2, 3], 3);
    let b = p_signed("b", vec![2, 1], 4);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).sub(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_mul_broadcast() {
    let a = p_signed("a", vec![2, 3], 5);
    let b = p_signed("b", vec![3], 6);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).mul(&g.param(&b)).sum_all()
    });
}

#[test]
fn grad_div() {
    let a = p("a", vec![2, 3], 7);
    let b = p("b", vec![2, 3], 8); // positive denominators
    assert_grads_close(&[a.clone(), b.clone()], 1e-3, TOL, |g| {
        g.param(&a).div(&g.param(&b)).sum_all()
    });
}

#[test]
fn grad_scalar_ops() {
    let a = p_signed("a", vec![4], 9);
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a)
            .scale(3.0)
            .add_scalar(1.0)
            .neg()
            .square()
            .sum_all()
    });
}

#[test]
fn grad_exp_log() {
    let a = p("a", vec![5], 10);
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).exp().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).log().sum_all()
    });
}

#[test]
fn grad_sqrt_square() {
    let a = p("a", vec![5], 11);
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).sqrt().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).square().sum_all()
    });
}

#[test]
fn grad_activations() {
    // Keep values away from the ReLU kink for finite differences.
    let a = p("a", vec![6], 12);
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).relu().square().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).tanh().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).sigmoid().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).gelu().sum_all()
    });
}

#[test]
fn grad_clamp_interior() {
    let a = p("a", vec![5], 13); // in (0.2, 1.2), clamp to [0, 10] is interior
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).clamp(0.0, 10.0).square().sum_all()
    });
}

#[test]
fn grad_add_mul_const() {
    let a = p_signed("a", vec![2, 3], 14);
    let c = Tensor::from_vec(vec![0.5, -1.0, 2.0], vec![3]);
    let cc = c.clone();
    let ac = a.clone();
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, move |g| {
        g.param(&ac).add_const(&cc).square().sum_all()
    });
    let a2 = p_signed("a2", vec![2, 3], 15);
    let a2c = a2.clone();
    assert_grads_close(std::slice::from_ref(&a2), EPS, TOL, move |g| {
        g.param(&a2c).mul_const(&c).square().sum_all()
    });
}

#[test]
fn grad_matmul_2d() {
    let a = p_signed("a", vec![3, 4], 16);
    let b = p_signed("b", vec![4, 2], 17);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_batched() {
    let a = p_signed("a", vec![2, 3, 4], 18);
    let b = p_signed("b", vec![2, 4, 2], 19);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_broadcast_rhs() {
    let a = p_signed("a", vec![2, 3, 4], 20);
    let b = p_signed("b", vec![4, 2], 21);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_transb_2d() {
    let a = p_signed("a", vec![3, 4], 40);
    let b = p_signed("b", vec![5, 4], 41);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul_transb(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_transb_batched() {
    let a = p_signed("a", vec![2, 3, 4], 42);
    let b = p_signed("b", vec![2, 5, 4], 43);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul_transb(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_transb_shared_rhs() {
    // [b, n, d] · [V, d]ᵀ — the tied-softmax logits shape.
    let a = p_signed("a", vec![2, 3, 4], 44);
    let b = p_signed("b", vec![6, 4], 45);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul_transb(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_transa_2d() {
    let a = p_signed("a", vec![4, 3], 46);
    let b = p_signed("b", vec![4, 5], 47);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul_transa(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn grad_matmul_transa_batched() {
    let a = p_signed("a", vec![2, 4, 3], 48);
    let b = p_signed("b", vec![2, 4, 5], 49);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        g.param(&a).matmul_transa(&g.param(&b)).square().sum_all()
    });
}

#[test]
fn fused_matmuls_match_transpose_composition_bitwise() {
    // Forward values AND gradients of the fused ops must agree bitwise
    // with the transpose-then-matmul composition: both run the same
    // strict k-order accumulation chains.
    let a = p_signed("a", vec![5, 7], 50);
    let b = p_signed("b", vec![9, 7], 51);

    let fused_out;
    {
        let g = Graph::new();
        let loss = g.param(&a).matmul_transb(&g.param(&b)).square().sum_all();
        fused_out = loss.value();
        loss.backward();
    }
    let (ga_fused, gb_fused) = (a.borrow().grad.clone(), b.borrow().grad.clone());
    a.borrow_mut().zero_grad();
    b.borrow_mut().zero_grad();

    let composed_out;
    {
        let g = Graph::new();
        let loss = g
            .param(&a)
            .matmul(&g.param(&b).transpose_last2())
            .square()
            .sum_all();
        composed_out = loss.value();
        loss.backward();
    }
    assert_eq!(fused_out.data(), composed_out.data());
    assert_eq!(ga_fused.data(), a.borrow().grad.data());
    // gB of the composition flows through transpose_last2's backward and
    // lands in the same [n, k] layout as the fused op's direct gradient.
    let gb_composed = b.borrow().grad.clone();
    assert_eq!(gb_fused.dims(), gb_composed.dims());
    assert_eq!(gb_fused.data(), gb_composed.data());
}

#[test]
fn grad_reshape_transpose_permute() {
    let a = p_signed("a", vec![2, 3, 4], 22);
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).reshape(vec![6, 4]).square().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).transpose_last2().square().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        let v = g.param(&a).permute(&[2, 0, 1]);
        // Weight each position differently so permutation errors surface.
        let w = Tensor::arange(24).reshape(vec![4, 2, 3]).unwrap();
        v.mul_const(&w).sum_all()
    });
}

#[test]
fn grad_concat() {
    let a = p_signed("a", vec![2, 2], 23);
    let b = p_signed("b", vec![2, 3], 24);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g| {
        let va = g.param(&a);
        let vb = g.param(&b);
        Var::concat(&[&va, &vb], 1).square().sum_all()
    });
}

#[test]
fn grad_slice() {
    let a = p_signed("a", vec![2, 4, 3], 25);
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).slice_axis(1, 1, 3).square().sum_all()
    });
}

#[test]
fn grad_index_select_rows() {
    let a = p_signed("a", vec![5, 3], 26);
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        // Repeated index 4 exercises gradient accumulation.
        g.param(&a)
            .index_select_rows(&[4, 0, 4, 2])
            .square()
            .sum_all()
    });
}

#[test]
fn grad_sum_mean_axis() {
    let a = p_signed("a", vec![2, 3, 4], 27);
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).sum_axis(1, false).square().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).mean_axis(2, true).square().sum_all()
    });
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        g.param(&a).mean_all()
    });
}

#[test]
fn grad_softmax() {
    let a = p_signed("a", vec![3, 4], 28);
    let w = Tensor::arange(12).reshape(vec![3, 4]).unwrap();
    let ac = a.clone();
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, move |g| {
        g.param(&ac).softmax_last().mul_const(&w).sum_all()
    });
}

#[test]
fn grad_log_softmax() {
    let a = p_signed("a", vec![3, 4], 29);
    let w = Tensor::arange(12).reshape(vec![3, 4]).unwrap();
    let ac = a.clone();
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, move |g| {
        g.param(&ac).log_softmax_last().mul_const(&w).sum_all()
    });
}

#[test]
fn grad_cross_entropy() {
    let a = p_signed("a", vec![4, 5], 30);
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a).cross_entropy_with_logits(&[1, 0, 4, 2])
    });
}

#[test]
fn grad_cross_entropy_with_ignored_rows() {
    let a = p_signed("a", vec![4, 5], 31);
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, |g| {
        g.param(&a)
            .cross_entropy_with_logits(&[1, IGNORE_INDEX, 4, IGNORE_INDEX])
    });
    // Ignored rows get exactly zero gradient.
    a.borrow_mut().zero_grad();
    let g = Graph::new();
    let loss = g
        .param(&a)
        .cross_entropy_with_logits(&[1, IGNORE_INDEX, 4, IGNORE_INDEX]);
    loss.backward();
    let grad = a.borrow().grad.clone();
    assert!(grad.row(1).iter().all(|&x| x == 0.0));
    assert!(grad.row(3).iter().all(|&x| x == 0.0));
    assert!(grad.row(0).iter().any(|&x| x != 0.0));
}

#[test]
fn grad_l2_normalize() {
    let a = p_signed("a", vec![3, 4], 32);
    let w = Tensor::arange(12).reshape(vec![3, 4]).unwrap();
    let ac = a.clone();
    assert_grads_close(std::slice::from_ref(&a), 1e-3, TOL, move |g| {
        g.param(&ac).l2_normalize_last(1e-8).mul_const(&w).sum_all()
    });
}

#[test]
fn grad_composite_mlp() {
    // A small end-to-end MLP: exercises interactions between ops.
    let w1 = p_signed("w1", vec![3, 8], 33);
    let b1 = p_signed("b1", vec![8], 34);
    let w2 = p_signed("w2", vec![8, 2], 35);
    let x = {
        let mut rng = StdRng::seed_from_u64(99);
        init::uniform(&mut rng, vec![4, 3], -1.0, 1.0)
    };
    assert_grads_close(&[w1.clone(), b1.clone(), w2.clone()], 1e-3, TOL, move |g| {
        g.constant(x.clone())
            .matmul(&g.param(&w1))
            .add(&g.param(&b1))
            .tanh()
            .matmul(&g.param(&w2))
            .cross_entropy_with_logits(&[0, 1, 1, 0])
    });
}

#[test]
fn grad_value_reused_twice() {
    // A var consumed by two branches must receive both gradient
    // contributions (fan-out accumulation).
    let a = p_signed("a", vec![3], 36);
    assert_grads_close(std::slice::from_ref(&a), EPS, TOL, |g| {
        let v = g.param(&a);
        let left = v.square();
        let right = v.scale(2.0);
        left.add(&right).sum_all()
    });
}

#[test]
fn detach_stops_gradient_flow() {
    let a = Parameter::shared("a", Tensor::from_vec(vec![2.0, 3.0], vec![2]));
    let g = Graph::new();
    let v = g.param(&a);
    let loss = v.detach().mul(&v).sum_all(); // d/da (c·a) = c = value of a
    loss.backward();
    assert_eq!(a.borrow().grad.data(), &[2.0, 3.0]);
}

#[test]
fn backward_is_bitwise_identical_across_simd_dispatch() {
    // The backward pass runs the same FixedOrder GEMM and elementwise
    // kernels as the forward; the SIMD kill switch must not change a
    // single gradient bit. Shapes cover the packed stripe kernel, the
    // small-m row kernel, and ragged tails.
    let run = |simd: bool| -> Vec<Vec<f32>> {
        let was = tensor::tuning::simd_enabled();
        tensor::tuning::set_simd_enabled(simd);
        let a = p_signed("a", vec![5, 19], 60);
        let b = p_signed("b", vec![33, 19], 61);
        let g = Graph::new();
        let loss = g.param(&a).matmul_transb(&g.param(&b)).square().sum_all();
        loss.backward();
        tensor::tuning::set_simd_enabled(was);
        let out = vec![
            loss.value().data().to_vec(),
            a.borrow().grad.data().to_vec(),
            b.borrow().grad.data().to_vec(),
        ];
        out
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn grad_seg_attention() {
    // Three segments (one empty), two heads of width 2, causal and
    // bidirectional, with and without a dropout keep-mask.
    for causal in [true, false] {
        let segs = tensor::Segments::new(vec![0, 3, 3, 5], causal);
        let cells = segs.cells(2);
        for keep in [
            None,
            Some(Tensor::from_vec(
                (0..cells)
                    .map(|i| if i % 3 == 1 { 0.0 } else { 1.5 })
                    .collect(),
                vec![cells],
            )),
        ] {
            let q = p_signed("q", vec![5, 4], 70);
            let k = p_signed("k", vec![5, 4], 71);
            let v = p_signed("v", vec![5, 4], 72);
            let w = init::uniform(&mut StdRng::seed_from_u64(73), vec![5, 4], -1.0, 1.0);
            let segs = segs.clone();
            assert_grads_close(&[q.clone(), k.clone(), v.clone()], 1e-3, TOL, move |g| {
                g.param(&q)
                    .seg_attention(&g.param(&k), &g.param(&v), &segs, 2, keep.as_ref())
                    .mul_const(&w)
                    .sum_all()
            });
        }
    }
}
