//! Property-based tests for tensor algebra.

use proptest::prelude::*;
use tensor::{ops, tuning, Tensor};

fn vec_tensor(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, vec![n])
    })
}

fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c..=r * c)
            .prop_map(move |v| Tensor::from_vec(v, vec![r, c]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn add_zero_is_identity(a in vec_tensor(64)) {
        let z = Tensor::zeros(a.dims().to_vec());
        let out = ops::add(&a, &z).unwrap();
        prop_assert_eq!(out.data(), a.data());
    }

    #[test]
    fn mul_distributes_over_add(a in vec_tensor(32)) {
        let b = a.map(|x| x * 0.5 + 1.0);
        let c = a.map(|x| -x + 2.0);
        // a*(b+c) == a*b + a*c (within f32 tolerance)
        let lhs = ops::mul(&a, &ops::add(&b, &c).unwrap()).unwrap();
        let rhs = ops::add(&ops::mul(&a, &b).unwrap(), &ops::mul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_associates_with_scalar(a in matrix(6), s in -3.0f32..3.0) {
        let b = ops::transpose_last2(&a).unwrap();
        // (s·A)·Aᵀ == s·(A·Aᵀ)
        let mut sa = a.clone();
        sa.scale_inplace(s);
        let lhs = ops::matmul(&sa, &b).unwrap();
        let mut rhs = ops::matmul(&a, &b).unwrap();
        rhs.scale_inplace(s);
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn sum_axis_totals_match_sum_all(a in matrix(8)) {
        let s0 = ops::sum_axis(&a, 0, false).unwrap().sum_all();
        let s1 = ops::sum_axis(&a, 1, false).unwrap().sum_all();
        let total = a.sum_all();
        prop_assert!((s0 - total).abs() < 1e-2 * (1.0 + total.abs()));
        prop_assert!((s1 - total).abs() < 1e-2 * (1.0 + total.abs()));
    }

    #[test]
    fn max_axis_bounded_by_global_max(a in matrix(8)) {
        let m = ops::max_axis(&a, 0, false).unwrap();
        prop_assert!(m.max_all() <= a.max_all() + 1e-6);
        prop_assert!(m.max_all() >= a.max_all() - 1e-6, "global max must appear in some column");
    }

    #[test]
    fn softmax_invariant_to_shift(a in matrix(6)) {
        let shifted = a.map(|x| x + 7.5);
        let s1 = ops::softmax_last(&a);
        let s2 = ops::softmax_last(&shifted);
        for (x, y) in s1.data().iter().zip(s2.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_then_slice_round_trips(a in matrix(6), b_cols in 1usize..6) {
        let r = a.dim(0);
        let b = Tensor::full(vec![r, b_cols], 3.25);
        let cat = ops::concat(&[&a, &b], 1).unwrap();
        let back = ops::slice_axis(&cat, 1, 0, a.dim(1)).unwrap();
        prop_assert_eq!(back.data(), a.data());
        let tail = ops::slice_axis(&cat, 1, a.dim(1), a.dim(1) + b_cols).unwrap();
        prop_assert_eq!(tail.data(), b.data());
    }

    #[test]
    fn permute_inverse_round_trips(a in matrix(6)) {
        let t = a.reshape(vec![a.dim(0), a.dim(1), 1]).unwrap();
        let p = ops::permute(&t, &[2, 0, 1]).unwrap();
        let back = ops::permute(&p, &[1, 2, 0]).unwrap();
        prop_assert_eq!(back.data(), t.data());
    }

    // The fused NT/TN kernels promise *bitwise* agreement with the naive
    // transpose-then-matmul composition: every output element is the same
    // strict k-order f32 accumulation chain. Shapes range past the packed
    // kernel's block sizes (4×8) and below its small-m fallback threshold,
    // so all code paths (packed, ragged tail stripes, dot fallback) are hit.

    #[test]
    fn matmul_transb_bitwise_equals_composition(
        m in 1usize..40, k in 1usize..20, n in 1usize..40, seed in 0u64..1000
    ) {
        let fill = |len: usize, s: u64| -> Vec<f32> {
            let mut x = s.wrapping_mul(6364136223846793005).wrapping_add(seed);
            (0..len).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 20.0 - 10.0
            }).collect()
        };
        let a = Tensor::from_vec(fill(m * k, 1), vec![m, k]);
        let b = Tensor::from_vec(fill(n * k, 2), vec![n, k]);
        let fused = ops::matmul_transb(&a, &b).unwrap();
        let composed = ops::matmul(&a, &ops::transpose_last2(&b).unwrap()).unwrap();
        prop_assert_eq!(fused.dims(), composed.dims());
        // Bitwise, not approximate.
        prop_assert_eq!(fused.data(), composed.data());
    }

    #[test]
    fn matmul_transa_bitwise_equals_composition(
        m in 1usize..40, k in 1usize..20, n in 1usize..40, seed in 0u64..1000
    ) {
        let fill = |len: usize, s: u64| -> Vec<f32> {
            let mut x = s.wrapping_mul(6364136223846793005).wrapping_add(seed);
            (0..len).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 20.0 - 10.0
            }).collect()
        };
        let a = Tensor::from_vec(fill(k * m, 3), vec![k, m]);
        let b = Tensor::from_vec(fill(k * n, 4), vec![k, n]);
        let fused = ops::matmul_transa(&a, &b).unwrap();
        let composed = ops::matmul(&ops::transpose_last2(&a).unwrap(), &b).unwrap();
        prop_assert_eq!(fused.dims(), composed.dims());
        prop_assert_eq!(fused.data(), composed.data());
    }

    #[test]
    fn batched_fused_matmuls_bitwise_equal_composition(
        bs in 1usize..4, m in 1usize..12, k in 1usize..10, n in 1usize..12
    ) {
        let ramp = |len: usize, off: f32| -> Vec<f32> {
            (0..len).map(|i| ((i * 7 + 3) % 23) as f32 * 0.37 - 4.0 + off).collect()
        };
        let a = Tensor::from_vec(ramp(bs * m * k, 0.25), vec![bs, m, k]);
        let b = Tensor::from_vec(ramp(bs * n * k, -1.5), vec![bs, n, k]);
        let nt = ops::matmul_transb(&a, &b).unwrap();
        let nt_ref = ops::matmul(&a, &ops::transpose_last2(&b).unwrap()).unwrap();
        prop_assert_eq!(nt.data(), nt_ref.data());

        // Shared right operand: (bs,m,k) · (n,k)ᵀ.
        let shared = Tensor::from_vec(ramp(n * k, 2.0), vec![n, k]);
        let nt_s = ops::matmul_transb(&a, &shared).unwrap();
        let nt_s_ref = ops::matmul(&a, &ops::transpose_last2(&shared).unwrap()).unwrap();
        prop_assert_eq!(nt_s.data(), nt_s_ref.data());

        let at = Tensor::from_vec(ramp(bs * k * m, 0.5), vec![bs, k, m]);
        let bt = Tensor::from_vec(ramp(bs * k * n, 1.0), vec![bs, k, n]);
        let tn = ops::matmul_transa(&at, &bt).unwrap();
        let tn_ref = ops::matmul(&ops::transpose_last2(&at).unwrap(), &bt).unwrap();
        prop_assert_eq!(tn.data(), tn_ref.data());
    }

    #[test]
    fn masked_matmul_bitwise_equals_dense(a in matrix(10), zero_stride in 2usize..5) {
        // Sparsify a deterministically, then check the zero-skip kernel
        // agrees bitwise with the dense one.
        let mut av = a.data().to_vec();
        for (i, x) in av.iter_mut().enumerate() {
            if i % zero_stride != 0 {
                *x = 0.0;
            }
        }
        let a = Tensor::from_vec(av, a.dims().to_vec());
        let b = Tensor::from_vec(
            (0..a.dim(1) * 6).map(|i| (i % 11) as f32 - 5.0).collect::<Vec<_>>(),
            vec![a.dim(1), 6],
        );
        let masked = ops::matmul2d_masked(&a, &b).unwrap();
        let dense = ops::matmul2d(&a, &b).unwrap();
        prop_assert_eq!(masked.data(), dense.data());
    }

    // SIMD dispatch parity: every vectorised op is declared
    // `SimdPath::OrderPreserving`, so flipping the kill switch must never
    // change a single bit — the vector kernels keep one accumulation
    // chain per output element in the same k-order as the scalar loop.
    // (No ReassocSafe op currently has a SIMD path; if one gains a
    // reassociating kernel the registry audit in `analysis` fires and a
    // ULP-bounded variant of these tests is the right follow-up.)

    #[test]
    fn simd_gemms_bitwise_equal_scalar(
        m in 1usize..48, k in 1usize..24, n in 1usize..48, seed in 0u64..1000
    ) {
        let fill = |len: usize, s: u64| -> Vec<f32> {
            let mut x = s.wrapping_mul(6364136223846793005).wrapping_add(seed);
            (0..len).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 20.0 - 10.0
            }).collect()
        };
        let a = Tensor::from_vec(fill(m * k, 1), vec![m, k]);
        let b = Tensor::from_vec(fill(n * k, 2), vec![n, k]);
        let bt = ops::transpose_last2(&b).unwrap();
        let at = ops::transpose_last2(&a).unwrap();
        let was = tuning::simd_enabled();
        tuning::set_simd_enabled(true);
        let nt_simd = ops::matmul_transb(&a, &b).unwrap();
        let nn_simd = ops::matmul(&a, &bt).unwrap();
        let tn_simd = ops::matmul_transa(&at, &bt).unwrap();
        tuning::set_simd_enabled(false);
        let nt_scalar = ops::matmul_transb(&a, &b).unwrap();
        let nn_scalar = ops::matmul(&a, &bt).unwrap();
        let tn_scalar = ops::matmul_transa(&at, &bt).unwrap();
        tuning::set_simd_enabled(was);
        prop_assert_eq!(nt_simd.data(), nt_scalar.data());
        prop_assert_eq!(nn_simd.data(), nn_scalar.data());
        prop_assert_eq!(tn_simd.data(), tn_scalar.data());
    }

    #[test]
    fn simd_elementwise_bitwise_equals_scalar(a in vec_tensor(600)) {
        // Lengths past the vector width force the SIMD main loop plus a
        // ragged tail; tiny lengths exercise the scalar-only fallback.
        let b = a.map(|x| x * 0.75 - 2.0);
        let was = tuning::simd_enabled();
        tuning::set_simd_enabled(true);
        let simd: Vec<Tensor> = [ops::add, ops::sub, ops::mul, ops::div]
            .iter()
            .map(|op| op(&a, &b).unwrap())
            .collect();
        tuning::set_simd_enabled(false);
        let scalar: Vec<Tensor> = [ops::add, ops::sub, ops::mul, ops::div]
            .iter()
            .map(|op| op(&a, &b).unwrap())
            .collect();
        tuning::set_simd_enabled(was);
        for (s, c) in simd.iter().zip(scalar.iter()) {
            prop_assert_eq!(s.data(), c.data());
        }
    }

    #[test]
    fn simd_min_n_threshold_does_not_change_bits(
        m in 1usize..6, k in 1usize..24, n in 1usize..48
    ) {
        // `simd_min_n` gates the small-m row kernel; any threshold must
        // produce identical bits since both sides are order-preserving.
        let ramp = |len: usize, off: f32| -> Vec<f32> {
            (0..len).map(|i| ((i * 13 + 5) % 31) as f32 * 0.21 - 3.0 + off).collect()
        };
        let a = Tensor::from_vec(ramp(m * k, 0.5), vec![m, k]);
        let b = Tensor::from_vec(ramp(n * k, -1.25), vec![n, k]);
        let (was, min0) = (tuning::simd_enabled(), tuning::simd_min_n());
        tuning::set_simd_enabled(true);
        tuning::set_simd_min_n(1);
        let lo = ops::matmul_transb(&a, &b).unwrap();
        tuning::set_simd_min_n(usize::MAX);
        let hi = ops::matmul_transb(&a, &b).unwrap();
        tuning::set_simd_enabled(was);
        tuning::set_simd_min_n(min0);
        prop_assert_eq!(lo.data(), hi.data());
    }

    #[test]
    fn index_select_then_scatter_is_count_weighted(rows in 2usize..6, cols in 1usize..5) {
        let table = Tensor::ones(vec![rows, cols]);
        let indices: Vec<usize> = (0..rows).chain(0..rows).collect(); // each row twice
        let picked = ops::index_select_rows(&table, &indices).unwrap();
        let mut grad = Tensor::zeros(vec![rows, cols]);
        ops::scatter_add_rows(&mut grad, &indices, &picked);
        // Every row selected twice with value 1 ⇒ gradient 2 everywhere.
        prop_assert!(grad.data().iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }
}

// Row-wise fast paths against independent references. Each fast path
// (packed NN GEMM, row-wise broadcast, last-axis reduce, run-copy permute)
// promises the exact f32 chain of the element-at-a-time definition, so the
// references below are plain index arithmetic and serial folds, and every
// comparison is bitwise.

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(17);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 20.0 - 10.0
        })
        .collect()
}

/// `(bs·m×k) · (k×n)` per batch, one strict `k`-order chain from +0.0 per
/// element; `b_stride` is 0 for a shared right operand.
fn nn_reference(
    a: &[f32],
    b: &[f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
    b_stride: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; bs * m * n];
    for p in 0..bs {
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s += a[(p * m + i) * k + kk] * b[p * b_stride + kk * n + j];
                }
                out[(p * m + i) * n + j] = s;
            }
        }
    }
    out
}

/// Runs `f` with SIMD forced on/off and the GEMM rayon cutoffs forced low or
/// left at their defaults, restoring every knob afterwards.
fn under_gemm_modes(mut f: impl FnMut()) {
    let (simd, rows, work) = (
        tuning::simd_enabled(),
        tuning::gemm_par_rows(),
        tuning::gemm_par_row_work(),
    );
    for (simd_on, par) in [(true, false), (false, false), (true, true), (false, true)] {
        tuning::set_simd_enabled(simd_on);
        tuning::set_gemm_par_rows(if par { 1 } else { rows });
        tuning::set_gemm_par_row_work(if par { 1 } else { work });
        f();
    }
    tuning::set_simd_enabled(simd);
    tuning::set_gemm_par_rows(rows);
    tuning::set_gemm_par_row_work(work);
}

/// `out[idx] = f(a[bcast(idx)], b[bcast(idx)])` by unravelling every output
/// index and re-ravelling it into each input (extent-1 axes read index 0).
fn broadcast_reference(a: &Tensor, b: &Tensor, f: ElemOp) -> Vec<f32> {
    let nd = a.ndim().max(b.ndim());
    let pad = |d: &[usize]| [vec![1; nd - d.len()], d.to_vec()].concat();
    let (da, db) = (pad(a.dims()), pad(b.dims()));
    let out: Vec<usize> = da.iter().zip(&db).map(|(&x, &y)| x.max(y)).collect();
    let ravel = |d: &[usize], idx: &[usize]| {
        d.iter()
            .zip(idx)
            .fold(0, |acc, (&e, &i)| acc * e + if e == 1 { 0 } else { i })
    };
    (0..out.iter().product::<usize>())
        .map(|lin| {
            let mut idx = vec![0; nd];
            let mut rem = lin;
            for ax in (0..nd).rev() {
                idx[ax] = rem % out[ax];
                rem /= out[ax];
            }
            f(a.data()[ravel(&da, &idx)], b.data()[ravel(&db, &idx)])
        })
        .collect()
}

/// A broadcasting binary op from `tensor::ops`, and its per-element rule.
type BinOp = fn(&Tensor, &Tensor) -> tensor::Result<Tensor>;
type ElemOp = fn(f32, f32) -> f32;

fn broadcast_case() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (1usize..4, 1usize..7, 1usize..20, 0usize..6).prop_map(|(p, r, c, kind)| match kind {
        0 => (vec![r, c], vec![c]),          // row
        1 => (vec![r, c], vec![r, 1]),       // column
        2 => (vec![p, r, c], vec![]),        // scalar
        3 => (vec![p, r, c], vec![r, c]),    // leading axis
        4 => (vec![p, r, c], vec![p, 1, c]), // middle axis
        _ => (vec![p, 1, c], vec![p, r, 1]), // both sides broadcast
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nn_gemm_bitwise_equals_triple_loop(
        bs in 1usize..4,
        m in 1usize..=40,
        k_pick in 0usize..8,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Degenerate inner dimensions (0, 1) get a quarter of the cases.
        let k = [0usize, 1, 2, 5, 8, 9, 16, 23][k_pick];
        let a2 = Tensor::from_vec(fill(m * k, seed), vec![m, k]);
        let a3 = Tensor::from_vec(fill(bs * m * k, seed + 1), vec![bs, m, k]);
        let b2 = Tensor::from_vec(fill(k * n, seed + 2), vec![k, n]);
        let b3 = Tensor::from_vec(fill(bs * k * n, seed + 3), vec![bs, k, n]);
        let want_2d = nn_reference(a2.data(), b2.data(), 1, m, k, n, 0);
        let want_3d = nn_reference(a3.data(), b3.data(), bs, m, k, n, k * n);
        let want_shared = nn_reference(a3.data(), b2.data(), bs, m, k, n, 0);
        let mut got = Vec::new();
        under_gemm_modes(|| {
            got.push(ops::matmul(&a2, &b2).unwrap());
            got.push(ops::matmul(&a3, &b3).unwrap());
            got.push(ops::matmul(&a3, &b2).unwrap());
        });
        for trio in got.chunks_exact(3) {
            prop_assert_eq!(trio[0].dims(), &[m, n]);
            prop_assert_eq!(trio[0].data(), &want_2d[..]);
            prop_assert_eq!(trio[1].dims(), &[bs, m, n]);
            prop_assert_eq!(trio[1].data(), &want_3d[..]);
            prop_assert_eq!(trio[2].dims(), &[bs, m, n]);
            prop_assert_eq!(trio[2].data(), &want_shared[..]);
        }
    }

    #[test]
    fn row_broadcast_bitwise_equals_index_reference(
        (da, db) in broadcast_case(), swap in 0u8..2, block in 1usize..40, seed in 0u64..1000
    ) {
        let (da, db) = if swap == 1 { (db, da) } else { (da, db) };
        let a = Tensor::from_vec(fill(da.iter().product(), seed), da);
        let b = Tensor::from_vec(fill(db.iter().product(), seed + 1), db);
        let ops_and_fns: [(BinOp, ElemOp); 5] = [
            (ops::add, |x, y| x + y),
            (ops::sub, |x, y| x - y),
            (ops::mul, |x, y| x * y),
            (ops::div, |x, y| x / y),
            (ops::maximum, f32::max),
        ];
        let (min, blk) = (tuning::par_min_elems(), tuning::par_block());
        for (op, f) in ops_and_fns {
            let want = broadcast_reference(&a, &b, f);
            let serial = op(&a, &b).unwrap();
            // Tiny parallel blocks start and end mid-row.
            tuning::set_par_min_elems(1);
            tuning::set_par_block(block);
            let parallel = op(&a, &b).unwrap();
            tuning::set_par_min_elems(min);
            tuning::set_par_block(blk);
            prop_assert_eq!(serial.data(), &want[..]);
            prop_assert_eq!(parallel.data(), &want[..]);
        }
    }

    #[test]
    fn last_axis_reduce_bitwise_equals_serial_fold(
        p in 1usize..4, r in 1usize..9, red in 0usize..30, keep in 0u8..2, seed in 0u64..1000
    ) {
        let keepdim = keep == 1;
        let t = Tensor::from_vec(fill(p * r * red, seed), vec![p, r, red]);
        let sum_ref: Vec<f32> = (0..p * r)
            .map(|o| t.data()[o * red..(o + 1) * red].iter().fold(0.0f32, |s, &x| s + x))
            .collect();
        let max_ref: Vec<f32> = (0..p * r)
            .map(|o| t.data()[o * red..(o + 1) * red].iter().fold(f32::NEG_INFINITY, |s, &x| s.max(x)))
            .collect();
        let dims = if keepdim { vec![p, r, 1] } else { vec![p, r] };
        let min = tuning::par_min_elems();
        for par_min in [min, 1] {
            tuning::set_par_min_elems(par_min);
            let s = ops::sum_axis(&t, 2, keepdim).unwrap();
            let mx = ops::max_axis(&t, 2, keepdim).unwrap();
            tuning::set_par_min_elems(min);
            prop_assert_eq!(s.dims(), &dims[..]);
            prop_assert_eq!(s.data(), &sum_ref[..]);
            prop_assert_eq!(mx.data(), &max_ref[..]);
        }
    }

    #[test]
    fn last_axis_fixed_permute_equals_index_reference(
        d in prop::collection::vec(1usize..6, 4), which in 0usize..5, seed in 0u64..1000
    ) {
        let perm: &[usize] = [&[0, 2, 1, 3][..], &[2, 0, 1, 3], &[1, 2, 0, 3], &[2, 1, 0, 3], &[0, 1, 2, 3]][which];
        let t = Tensor::from_vec(fill(d.iter().product(), seed), d.clone());
        let out = ops::permute(&t, perm).unwrap();
        let od: Vec<usize> = perm.iter().map(|&p| d[p]).collect();
        prop_assert_eq!(out.dims(), &od[..]);
        let mut src = [0usize; 4];
        for (lin, &v) in out.data().iter().enumerate() {
            let mut rem = lin;
            for ax in (0..4).rev() {
                src[perm[ax]] = rem % od[ax];
                rem /= od[ax];
            }
            prop_assert_eq!(v.to_bits(), t.at(&src).to_bits());
        }
    }
}
