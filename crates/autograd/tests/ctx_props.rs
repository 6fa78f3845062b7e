//! Per-op context parity: every [`Ctx`] op, run eagerly, gives the same
//! bits as the value the recording context puts on the tape.
//!
//! Module forwards are written once against `Ctx`, so this op-level check
//! is what keeps the served (eager) forwards bitwise equal to the trained
//! (recorded) ones.

use autograd::{Ctx, Eager, Graph, ParamRef, Parameter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::{init, Segments, Tensor};

/// One case's operands. `x`, `y` and `pos` are `[.., m, k]`.
struct Case {
    x: Tensor,
    y: Tensor,
    /// Strictly positive, for `sqrt` and `div`.
    pos: Tensor,
    /// `[k]`, broadcast along every leading axis.
    row: Tensor,
    /// `[.., m, 1]`, broadcast along the last axis.
    col: Tensor,
    /// `[m, k]` additive mask of `0` / `-1e9` (attention masks).
    add_mask: Tensor,
    /// `[.., m, 1]` multiplicative mask of `0` / `1` (timeline masks).
    mul_mask: Tensor,
    /// `[.., k, n]` and `[.., n, k]` right operands.
    rhs: Tensor,
    rhs_t: Tensor,
    /// `[k, n]` weight and `[vocab, k]` table.
    weight: Tensor,
    table: Tensor,
    indices: Vec<usize>,
}

impl Case {
    fn new(rng: &mut StdRng, lead: &[usize], m: usize, k: usize, n: usize) -> Case {
        let dims = |tail: &[usize]| [lead, tail].concat();
        let mut bits = |dims: Vec<usize>, on: f32, off: f32| {
            let numel = dims.iter().product();
            let data = (0..numel)
                .map(|_| if rng.gen::<f32>() < 0.3 { on } else { off })
                .collect();
            Tensor::from_vec(data, dims)
        };
        let add_mask = bits(vec![m, k], -1e9, 0.0);
        let mul_mask = bits(dims(&[m, 1]), 0.0, 1.0);
        let vocab = k + 3;
        Case {
            x: init::uniform(rng, dims(&[m, k]), -2.0, 2.0),
            y: init::uniform(rng, dims(&[m, k]), -2.0, 2.0),
            pos: init::uniform(rng, dims(&[m, k]), 0.1, 3.0),
            row: init::uniform(rng, vec![k], -1.0, 1.0),
            col: init::uniform(rng, dims(&[m, 1]), -1.0, 1.0),
            add_mask,
            mul_mask,
            rhs: init::uniform(rng, dims(&[k, n]), -1.0, 1.0),
            rhs_t: init::uniform(rng, dims(&[n, k]), -1.0, 1.0),
            weight: init::uniform(rng, vec![k, n], -1.0, 1.0),
            table: init::uniform(rng, vec![vocab, k], -1.0, 1.0),
            indices: (0..m).map(|_| rng.gen_range(0..vocab)).collect(),
        }
    }
}

/// Every op of the trait on `case`, labelled, in one context.
fn run_ops<C: Ctx>(
    c: &C,
    case: &Case,
    weight: &ParamRef,
    table: &ParamRef,
    row: &ParamRef,
) -> Vec<(&'static str, C::V)> {
    let enter = |t: &Tensor| c.constant(t.clone());
    let (x, y, pos) = (enter(&case.x), enter(&case.y), enter(&case.pos));
    let (row_v, col) = (enter(&case.row), enter(&case.col));
    let nd = case.x.ndim();
    let reversed: Vec<usize> = (0..nd).rev().collect();
    let masked = c.add_const(&x, &case.add_mask);
    vec![
        ("constant", x.clone()),
        ("gather", c.gather(table, &case.indices)),
        ("matmul_w", c.matmul_w(&x, weight)),
        ("matmul_transb_w", c.matmul_transb_w(&x, table)),
        ("add_w", c.add_w(&x, row)),
        ("mul_w", c.mul_w(&x, row)),
        ("add", c.add(&x, &y)),
        ("add broadcast row", c.add(&x, &row_v)),
        ("sub broadcast col", c.sub(&x, &col)),
        ("mul", c.mul(&x, &y)),
        ("mul broadcast row", c.mul(&x, &row_v)),
        ("div broadcast col", c.div(&pos, &col)),
        ("div", c.div(&x, &pos)),
        ("add_const", masked.clone()),
        ("mul_const", c.mul_const(&x, &case.mul_mask)),
        ("scale", c.scale(&x, 0.37)),
        ("add_scalar", c.add_scalar(&x, -1.5)),
        ("square", c.square(&x)),
        ("sqrt", c.sqrt(&pos)),
        ("relu", c.relu(&x)),
        ("gelu", c.gelu(&x)),
        ("sigmoid", c.sigmoid(&x)),
        ("tanh", c.tanh(&x)),
        ("exp", c.exp(&x)),
        ("clamp", c.clamp(&x, -0.8, 1.1)),
        ("sum_axis last", c.sum_axis(&x, nd - 1, true)),
        ("sum_axis first", c.sum_axis(&x, 0, false)),
        ("mean_axis", c.mean_axis(&x, nd - 1, true)),
        ("softmax_last", c.softmax_last(&masked)),
        ("matmul", c.matmul(&x, &enter(&case.rhs))),
        ("matmul_transb", c.matmul_transb(&x, &enter(&case.rhs_t))),
        ("reshape", c.reshape(&x, vec![case.x.numel()])),
        ("permute", c.permute(&x, &reversed)),
        ("slice_axis", c.slice_axis(&x, nd - 2, 0, 1)),
        ("concat", c.concat(&[&x, &y], nd - 2)),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_op_is_bitwise_equal_across_contexts(
        rank3 in 0usize..2,
        b in 1usize..4,
        m in 1usize..6,
        k in 1usize..9,
        n in 1usize..7,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lead = if rank3 == 1 { vec![b] } else { vec![] };
        let case = Case::new(&mut rng, &lead, m, k, n);

        let weight = Parameter::shared("w", case.weight.clone());
        let table = Parameter::shared("table", case.table.clone());
        let row = Parameter::shared("row", case.row.clone());
        let g = Graph::new();
        let recorded = run_ops(&g, &case, &weight, &table, &row);
        let eager = run_ops(&Eager, &case, &weight, &table, &row);

        prop_assert_eq!(recorded.len(), eager.len());
        for ((name, var), (_, t)) in recorded.iter().zip(&eager) {
            let want = var.value();
            prop_assert_eq!(want.dims(), t.dims(), "{name}: shape");
            prop_assert!(bits(&want) == bits(t), "{name}: eager bits differ from the tape");
            prop_assert_eq!(g.dims(var), Eager.dims(t), "{name}: dims");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed-row ops: a segmented attention over ragged segments
    /// (empty ones included), causal or not, with or without a dropout
    /// keep-mask, and a row gather.
    #[test]
    fn segmented_ops_are_bitwise_equal_across_contexts(
        l0 in 0usize..7,
        l1 in 0usize..7,
        l2 in 0usize..7,
        heads in 1usize..3,
        head_dim in 1usize..5,
        causal in 0usize..2,
        dropout in 0usize..2,
        seed in 0u64..100_000,
    ) {
        let (causal, dropout) = (causal == 1, dropout == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = vec![0];
        for len in [l0, l1, l2] {
            offsets.push(offsets[offsets.len() - 1] + len);
        }
        let segs = Segments::new(offsets, causal);
        let (r, d) = (segs.rows(), heads * head_dim);
        let qkv: Vec<Tensor> = (0..3)
            .map(|_| init::uniform(&mut rng, vec![r, d], -2.0, 2.0))
            .collect();
        let keep = dropout.then(|| {
            let cells = segs.cells(heads);
            let data = (0..cells).map(|_| if rng.gen::<f32>() < 0.3 { 0.0 } else { 1.25 });
            Tensor::from_vec(data.collect(), vec![cells])
        });
        let picks: Vec<usize> = (0..4).map(|_| rng.gen_range(0..r.max(1))).collect();

        let g = Graph::new();
        let [q, k, v] = [0, 1, 2].map(|i| g.constant(qkv[i].clone()));
        let recorded = g.seg_attention(&q, &k, &v, &segs, heads, keep.as_ref()).value();
        let eager = Eager.seg_attention(&qkv[0], &qkv[1], &qkv[2], &segs, heads, keep.as_ref());
        prop_assert_eq!(recorded.dims(), &[r, d]);
        prop_assert!(bits(&recorded) == bits(&eager), "seg_attention");
        if r > 0 {
            let recorded = g.select_rows(&q, &picks).value();
            prop_assert!(bits(&recorded) == bits(&Eager.select_rows(&qkv[0], &picks)), "select_rows");
        }
    }
}
