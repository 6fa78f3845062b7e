//! Segmented self-attention over packed rows.
//!
//! A packed batch keeps only its sequences' real rows, `[Σ L_s, d]`, with
//! segment `s` at rows `offsets[s]..offsets[s+1]`. [`seg_attention`] runs
//! multi-head scaled dot-product attention inside each segment: per head,
//! `softmax(Q·Kᵀ/√d_h)·V` over the segment's own rows, causal (row `i`
//! attends to rows `≤ i`) or bidirectional. Heads are column groups of
//! width `d / heads`, so the output has the input's layout and no head
//! split or merge is materialised.
//!
//! The attention weights are kept per segment and head in one flat buffer:
//! row `i` of a segment of length `L` holds its weights over keys
//! `0..i+1` (causal) or `0..L` (bidirectional), rows back to back. A
//! dropout keep-mask, when given, has the same layout.
//!
//! # Bitwise contract
//!
//! Each score is a strict `d_h`-order dot product from `+0.0`, each softmax
//! row folds its maximum and its denominator over the row's keys in order,
//! and each context, query, key and value gradient entry is one strict
//! chain from `+0.0` over keys (or queries) in row order. These are the
//! chains a padded `[b·h, n, n]` attention (`matmul_transb`, `scale`,
//! additive mask, `softmax_last`, dropout, `matmul`) computes for the same
//! real rows, minus terms that are exactly `±0`: a masked key's weight is
//! `exp(−1e9 − m) = 0`, and a padded query's gradient is `±0`. Adding `±0`
//! to a chain that started at `+0.0` never changes it, so the two agree bit
//! for bit.
//!
//! Telemetry counts the op as the products a padded attention runs (two
//! forward, four backward) in `tensor.gemm.calls`/`tensor.gemm.cells`,
//! with one cell per kept weight or per output element.

use crate::ops::gemm_telemetry;
use crate::{Result, Tensor, TensorError};

/// Segment layout of a packed batch, plus the attention pattern inside
/// each segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    offsets: Vec<usize>,
    causal: bool,
}

impl Segments {
    /// Segments `offsets[s]..offsets[s+1]`. `offsets` starts at 0 and never
    /// decreases; an empty segment is a sequence with no real row.
    pub fn new(offsets: Vec<usize>, causal: bool) -> Segments {
        assert_eq!(offsets.first(), Some(&0), "segment offsets start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "segment offsets never decrease"
        );
        Segments { offsets, causal }
    }

    /// The segment offsets (one more than the number of segments).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Total packed rows.
    pub fn rows(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// `(first row, length)` of every segment.
    pub fn spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.offsets.windows(2).map(|w| (w[0], w[1] - w[0]))
    }

    /// The last row of every segment; panics on an empty segment, which
    /// has none.
    pub fn last_rows(&self) -> Vec<usize> {
        self.spans()
            .map(|(start, len)| {
                assert!(len > 0, "an empty segment has no last row");
                start + len - 1
            })
            .collect()
    }

    /// Attention weights one head of a segment of `len` rows keeps.
    pub fn block_cells(&self, len: usize) -> usize {
        if self.causal {
            len * (len + 1) / 2
        } else {
            len * len
        }
    }

    /// Attention weights over every segment and head.
    pub fn cells(&self, heads: usize) -> usize {
        self.spans()
            .map(|(_, len)| heads * self.block_cells(len))
            .sum()
    }

    /// `(offset in the block, key count)` of row `i` in a segment of `len`.
    fn row_span(&self, i: usize, len: usize) -> (usize, usize) {
        if self.causal {
            (i * (i + 1) / 2, i + 1)
        } else {
            (i * len, len)
        }
    }

    /// Calls `f(segment, head, row, key)` for every kept weight, in buffer
    /// order; rows and keys are indices within the segment.
    pub fn for_each_cell(&self, heads: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
        for (s, (_, len)) in self.spans().enumerate() {
            for h in 0..heads {
                for i in 0..len {
                    let (_, cnt) = self.row_span(i, len);
                    for j in 0..cnt {
                        f(s, h, i, j);
                    }
                }
            }
        }
    }
}

fn check(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    segs: &Segments,
    heads: usize,
    keep: Option<&Tensor>,
) -> Result<(usize, usize)> {
    let err = || TensorError::ShapeMismatch {
        op: "seg_attention",
        lhs: q.dims().to_vec(),
        rhs: k.dims().to_vec(),
    };
    if q.ndim() != 2 || k.dims() != q.dims() || v.dims() != q.dims() {
        return Err(err());
    }
    let (r, d) = (q.dim(0), q.dim(1));
    if heads == 0 || !d.is_multiple_of(heads) || r != segs.rows() {
        return Err(err());
    }
    if keep.is_some_and(|m| m.numel() != segs.cells(heads)) {
        return Err(err());
    }
    Ok((d, d / heads))
}

/// Segmented multi-head attention: `q, k, v` are `[R, d]` packed rows.
/// Returns the context `[R, d]` and the attention weights (before the
/// keep-mask), laid out as the module docs describe. `keep`, when given,
/// multiplies the weights before they mix the values (inverted dropout).
pub fn seg_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    segs: &Segments,
    heads: usize,
    keep: Option<&Tensor>,
) -> Result<(Tensor, Tensor)> {
    let (d, dh) = check(q, k, v, segs, heads, keep)?;
    // Counted as the two products a padded attention runs: scores, context.
    gemm_telemetry(segs.cells(heads) as u64);
    gemm_telemetry(q.numel() as u64);
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Tensor::pooled_zeros(q.dims().to_vec());
    let mut probs = Tensor::pooled_zeros(vec![segs.cells(heads)]);
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let od = out.data_mut();
    let pd = probs.data_mut();
    let mut base = 0;
    for (o0, len) in segs.spans() {
        let (ks, vs) = (&kd[o0 * d..], &vd[o0 * d..]);
        for h in 0..heads {
            let col = h * dh;
            for i in 0..len {
                let (start, cnt) = segs.row_span(i, len);
                let at = base + start;
                let r = (o0 + i) * d + col;
                let keep = keep.map(|m| &m.data()[at..at + cnt]);
                let kv = (ks, vs, d, col);
                attend_row(
                    &qd[r..r + dh],
                    kv,
                    scale,
                    &mut pd[at..at + cnt],
                    keep,
                    &mut od[r..r + dh],
                );
            }
            base += segs.block_cells(len);
        }
    }
    Ok((out, probs))
}

/// One query row `qi` of one head over the first `prow.len()` key rows:
/// the scaled scores, their softmax (left in `prow`), and the context,
/// added into `out`. `kv` is `(keys, values, d, col)`: row-major rows of
/// width `d`, of which the head reads columns `col..col + qi.len()`.
/// `keep` scales each weight before it mixes the values (inverted dropout).
#[inline]
fn attend_row(
    qi: &[f32],
    (k, v, d, col): (&[f32], &[f32], usize, usize),
    scale: f32,
    prow: &mut [f32],
    keep: Option<&[f32]>,
    out: &mut [f32],
) {
    let dh = qi.len();
    for (j, p) in prow.iter_mut().enumerate() {
        let kj = &k[j * d + col..j * d + col + dh];
        let mut s = 0.0f32;
        for (a, b) in qi.iter().zip(kj) {
            s += a * b;
        }
        *p = s * scale;
    }
    // `ops::softmax_last`'s row body.
    let m = prow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in prow.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in prow.iter_mut() {
        *x *= inv;
    }
    for (j, &p) in prow.iter().enumerate() {
        let w = keep.map_or(p, |kp| p * kp[j]);
        let vj = &v[j * d + col..j * d + col + dh];
        for (o, b) in out.iter_mut().zip(vj) {
            *o += w * b;
        }
    }
}

/// One last row for each of `b` segments whose keys and values are kept
/// elsewhere: row `s` of `q: [b, d]` attends over every row of `kv[s] =
/// (keys, values)`, each `[L_s, d]` row-major with the last row's own key
/// and value last. Returns the context `[b, d]`: bit for bit the last row
/// of a [`seg_attention`] over each whole segment, since it runs the same
/// row body over the same keys, read where they are kept. A last row
/// attends over every row of its segment, causal or not.
pub fn append_attention(q: &Tensor, kv: &[(&[f32], &[f32])], heads: usize) -> Result<Tensor> {
    let d = q.dims().last().copied().unwrap_or(0);
    let fits = |&(k, v): &(&[f32], &[f32])| {
        !k.is_empty() && k.len() == v.len() && k.len().is_multiple_of(d)
    };
    let batch = q.ndim() == 2 && q.dim(0) == kv.len();
    if !batch || heads == 0 || !d.is_multiple_of(heads) || !kv.iter().all(fits) {
        return Err(TensorError::ShapeMismatch {
            op: "append_attention",
            lhs: q.dims().to_vec(),
            rhs: kv.iter().map(|(k, _)| k.len()).collect(),
        });
    }
    let dh = d / heads;
    let keys = kv.iter().map(|(k, _)| k.len() / d);
    gemm_telemetry((heads * keys.clone().sum::<usize>()) as u64);
    gemm_telemetry(q.numel() as u64);
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Tensor::pooled_zeros(q.dims().to_vec());
    let mut probs = vec![0.0f32; keys.max().unwrap_or(0)];
    let od = out.data_mut();
    for (s, &(k, v)) in kv.iter().enumerate() {
        for col in (0..d).step_by(dh) {
            let r = s * d + col;
            let prow = &mut probs[..k.len() / d];
            attend_row(
                &q.data()[r..r + dh],
                (k, v, d, col),
                scale,
                prow,
                None,
                &mut od[r..r + dh],
            );
        }
    }
    Ok(out)
}

/// Adjoint of [`seg_attention`]: given the context gradient `g` (`[R, d]`)
/// and the forward's weights, returns `(dq, dk, dv)`.
#[allow(clippy::too_many_arguments)]
pub fn seg_attention_backward(
    g: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    probs: &Tensor,
    segs: &Segments,
    heads: usize,
    keep: Option<&Tensor>,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (d, dh) = check(q, k, v, segs, heads, keep)?;
    if g.dims() != q.dims() || probs.numel() != segs.cells(heads) {
        return Err(TensorError::ShapeMismatch {
            op: "seg_attention-back",
            lhs: g.dims().to_vec(),
            rhs: q.dims().to_vec(),
        });
    }
    // The four adjoint products: weights, values, queries, keys.
    gemm_telemetry(segs.cells(heads) as u64);
    for _ in 0..3 {
        gemm_telemetry(q.numel() as u64);
    }
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = Tensor::pooled_zeros(q.dims().to_vec());
    let mut dk = Tensor::pooled_zeros(q.dims().to_vec());
    let mut dv = Tensor::pooled_zeros(q.dims().to_vec());
    let (gd, qd, kd, vd, pd) = (g.data(), q.data(), k.data(), v.data(), probs.data());
    let keep = keep.map(Tensor::data);
    let (dqd, dkd, dvd) = (dq.data_mut(), dk.data_mut(), dv.data_mut());
    let widest = segs.spans().map(|(_, len)| len).max().unwrap_or(0);
    let mut ds = vec![0.0f32; widest];
    let mut base = 0;
    for (o0, len) in segs.spans() {
        for h in 0..heads {
            let col = h * dh;
            let row = |i: usize| (o0 + i) * d + col;
            for i in 0..len {
                let (start, cnt) = segs.row_span(i, len);
                let at = base + start;
                let prow = &pd[at..at + cnt];
                let gi = &gd[row(i)..row(i) + dh];
                // Context `A·V`: dA = g·Vᵀ, dV += Aᵀ·g (query order).
                for (j, ds_j) in ds[..cnt].iter_mut().enumerate() {
                    let a = keep.map_or(prow[j], |kp| prow[j] * kp[at + j]);
                    let vj = &vd[row(j)..row(j) + dh];
                    let mut s = 0.0f32;
                    for (x, y) in gi.iter().zip(vj) {
                        s += x * y;
                    }
                    for (o, x) in dvd[row(j)..row(j) + dh].iter_mut().zip(gi) {
                        *o += a * x;
                    }
                    // Dropout's adjoint: the keep-mask again.
                    *ds_j = keep.map_or(s, |kp| s * kp[at + j]);
                }
                // Softmax's adjoint, `(dP − Σ dP·P)·P`, then the scale's.
                let mut dot = 0.0f32;
                for (x, p) in ds[..cnt].iter().zip(prow) {
                    dot += x * p;
                }
                for (x, p) in ds[..cnt].iter_mut().zip(prow) {
                    *x = (*x - dot) * p * scale;
                }
                // Scores `Q·Kᵀ`: dQ = dS·K, dK += dSᵀ·Q (query order).
                let qi = &qd[row(i)..row(i) + dh];
                for (j, &s) in ds[..cnt].iter().enumerate() {
                    let kj = &kd[row(j)..row(j) + dh];
                    for (o, y) in dqd[row(i)..row(i) + dh].iter_mut().zip(kj) {
                        *o += s * y;
                    }
                    for (o, x) in dkd[row(j)..row(j) + dh].iter_mut().zip(qi) {
                        *o += s * x;
                    }
                }
            }
            base += segs.block_cells(len);
        }
    }
    Ok((dq, dk, dv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn lcg(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    /// One segment, one head, bidirectional, no dropout: the plain
    /// `softmax(Q·Kᵀ/√d)·V` from the dense kernels, bit for bit.
    #[test]
    fn one_dense_segment_matches_the_dense_kernels() {
        let (n, d) = (5, 4);
        let q = Tensor::from_vec(lcg(n * d, 1), vec![n, d]);
        let k = Tensor::from_vec(lcg(n * d, 2), vec![n, d]);
        let v = Tensor::from_vec(lcg(n * d, 3), vec![n, d]);
        let segs = Segments::new(vec![0, n], false);
        let (out, probs) = seg_attention(&q, &k, &v, &segs, 1, None).unwrap();
        let s = ops::matmul_transb(&q, &k).unwrap().map(|x| x * 0.5);
        let p = ops::softmax_last(&s);
        assert_eq!(probs.data(), p.data());
        assert_eq!(out.data(), ops::matmul(&p, &v).unwrap().data());
    }

    /// An appended row over kept keys is the last row of the causal
    /// segmented attention over the whole segment, bit for bit.
    #[test]
    fn append_is_the_last_causal_row() {
        let (d, heads) = (6, 2);
        let segs = Segments::new(vec![0, 3, 8], true);
        let r = segs.rows();
        let q = Tensor::from_vec(lcg(r * d, 4), vec![r, d]);
        let k = Tensor::from_vec(lcg(r * d, 5), vec![r, d]);
        let v = Tensor::from_vec(lcg(r * d, 6), vec![r, d]);
        let (want, _) = seg_attention(&q, &k, &v, &segs, heads, None).unwrap();
        let last = [2, 7];
        let mut qa = Vec::new();
        for &i in &last {
            qa.extend_from_slice(q.row(i));
        }
        let qa = Tensor::from_vec(qa, vec![2, d]);
        let kv: Vec<(&[f32], &[f32])> = segs
            .spans()
            .map(|(o, len)| {
                let rows = o * d..(o + len) * d;
                (&k.data()[rows.clone()], &v.data()[rows])
            })
            .collect();
        let got = append_attention(&qa, &kv, heads).unwrap();
        for (s, &i) in last.iter().enumerate() {
            assert_eq!(got.row(s), want.row(i), "segment {s}");
        }
        assert!(append_attention(&qa, &kv[..1], heads).is_err());
        assert!(append_attention(&qa, &[kv[0], (&[], &[])], heads).is_err());
    }

    #[test]
    fn cells_count_triangles_or_squares() {
        let causal = Segments::new(vec![0, 3, 3, 5], true);
        assert_eq!(causal.rows(), 5);
        // Triangles of 3, 0 and 2 rows: 6 + 0 + 3 weights per head.
        assert_eq!(causal.cells(2), 2 * 9);
        let full = Segments::new(vec![0, 3, 3, 5], false);
        // Squares: 9 + 0 + 4 weights per head.
        assert_eq!(full.cells(2), 2 * 13);
        let mut seen = 0;
        causal.for_each_cell(2, |_, _, i, j| {
            assert!(j <= i);
            seen += 1;
        });
        assert_eq!(seen, causal.cells(2));
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let q = Tensor::zeros(vec![3, 4]);
        let segs = Segments::new(vec![0, 2], true);
        assert!(seg_attention(&q, &q, &q, &segs, 2, None).is_err());
        let segs = Segments::new(vec![0, 3], true);
        assert!(seg_attention(&q, &q, &q, &segs, 3, None).is_err());
        let bad_keep = Tensor::zeros(vec![5]);
        assert!(seg_attention(&q, &q, &q, &segs, 2, Some(&bad_keep)).is_err());
        assert!(seg_attention(&q, &q, &q, &segs, 2, None).is_ok());
    }
}
