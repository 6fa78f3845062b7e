//! Tensor operations: broadcasting elementwise math, matrix multiplication,
//! reductions, softmax, and shape manipulation.
//!
//! All functions are free functions taking `&Tensor` and returning owned
//! results. Errors are reported via [`crate::TensorError`]; shape panics are
//! reserved for internal invariant violations.

use rayon::prelude::*;

use std::sync::OnceLock;

use crate::shape::{broadcast_shapes, broadcast_strides, Shape};
use crate::{pool, simd, tuning, Result, Tensor, TensorError};

/// Telemetry: one call + one output-cell count per GEMM-family entry point
/// (batched products count once with their total output size). Both are pure
/// functions of the executed work (shard partitioning never changes *what*
/// is multiplied), so they are deterministic across thread counts. Handles
/// are interned once and the hot-path cost is a relaxed atomic load when
/// telemetry is disabled.
pub(crate) fn gemm_telemetry(out_cells: u64) {
    static CALLS: OnceLock<&'static telemetry::Counter> = OnceLock::new();
    static CELLS: OnceLock<&'static telemetry::Counter> = OnceLock::new();
    CALLS
        .get_or_init(|| telemetry::metrics::counter("tensor.gemm.calls", true))
        .inc();
    CELLS
        .get_or_init(|| telemetry::metrics::counter("tensor.gemm.cells", true))
        .add(out_cells);
}

// ---------------------------------------------------------------------------
// Elementwise binary ops with broadcasting
// ---------------------------------------------------------------------------
//
// Serial/parallel dispatch cutoffs live in [`crate::tuning`]. Each output
// element is computed independently of the partitioning, so the parallel
// paths are bitwise identical to the serial ones for any cutoff values.

fn binary_broadcast(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    simd_kind: Option<simd::BinKind>,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Result<Tensor> {
    let par_min = tuning::par_min_elems();
    let blk = tuning::par_block();
    if a.dims() == b.dims() {
        // Fast path: identical shapes. Ops declared in
        // `determinism::SIMD_OPS` take the explicit SIMD kernel here; it is
        // lane-pure (one lane = one output element), so serial, parallel,
        // and SIMD variants all agree bitwise for any cutoffs.
        let (ad, bd) = (a.data(), b.data());
        let n = ad.len();
        let mut data = pool::fresh(n);
        let level = match simd_kind {
            Some(_) if n >= tuning::simd_min_n() => simd::active(),
            _ => simd::Level::Scalar,
        };
        if n >= par_min {
            data.par_chunks_mut(blk)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let s = ci * blk;
                    match simd_kind {
                        Some(kind) if level != simd::Level::Scalar => {
                            simd::binary(
                                level,
                                kind,
                                &ad[s..s + chunk.len()],
                                &bd[s..s + chunk.len()],
                                chunk,
                            );
                        }
                        _ => {
                            for (i, o) in chunk.iter_mut().enumerate() {
                                *o = f(ad[s + i], bd[s + i]);
                            }
                        }
                    }
                });
        } else {
            match simd_kind {
                Some(kind) if level != simd::Level::Scalar => {
                    simd::binary(level, kind, ad, bd, &mut data);
                }
                _ => {
                    for (i, o) in data.iter_mut().enumerate() {
                        *o = f(ad[i], bd[i]);
                    }
                }
            }
        }
        return Ok(Tensor::from_vec(data, a.dims().to_vec()));
    }
    let out_dims =
        broadcast_shapes(a.dims(), b.dims()).map_err(|_| TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        })?;
    let sa = broadcast_strides(a.dims(), &out_dims);
    let sb = broadcast_strides(b.dims(), &out_dims);
    let n = Shape::new(out_dims.clone()).numel();
    let mut data = pool::fresh(n);
    if n >= par_min {
        data.par_chunks_mut(blk)
            .enumerate()
            .for_each(|(ci, chunk)| {
                broadcast_fill(chunk, ci * blk, a.data(), b.data(), &sa, &sb, &out_dims, &f);
            });
    } else if n > 0 {
        broadcast_fill(&mut data, 0, a.data(), b.data(), &sa, &sb, &out_dims, &f);
    }
    Ok(Tensor::from_vec(data, out_dims))
}

/// Fills `out` with `f(a, b)` for the non-empty linear output range starting
/// at `start`, one innermost row at a time: an odometer over the leading axes
/// finds each row's two input offsets, and the row itself is a flat loop
/// specialised on the inputs' innermost strides (contiguous, or a per-row
/// scalar). Seeding the odometer from an arbitrary `start` lets parallel
/// blocks begin (and end) mid-row.
#[allow(clippy::too_many_arguments)]
fn broadcast_fill(
    out: &mut [f32],
    start: usize,
    ad: &[f32],
    bd: &[f32],
    sa: &[usize],
    sb: &[usize],
    dims: &[usize],
    f: &(impl Fn(f32, f32) -> f32 + Sync),
) {
    let lead = dims.len() - 1;
    let (row, ra, rb) = (dims[lead], sa[lead], sb[lead]);
    let mut idx = vec![0usize; lead];
    let (mut off_a, mut off_b) = (0usize, 0usize);
    let mut rem = start / row;
    for axis in (0..lead).rev() {
        idx[axis] = rem % dims[axis];
        rem /= dims[axis];
        off_a += idx[axis] * sa[axis];
        off_b += idx[axis] * sb[axis];
    }
    let mut col = start % row;
    let mut pos = 0;
    while pos < out.len() {
        let len = (row - col).min(out.len() - pos);
        let dst = &mut out[pos..pos + len];
        let (oa, ob) = (off_a + col * ra, off_b + col * rb);
        match (ra, rb) {
            (1, 1) => {
                for ((o, &x), &y) in dst.iter_mut().zip(&ad[oa..oa + len]).zip(&bd[ob..ob + len]) {
                    *o = f(x, y);
                }
            }
            (1, 0) => {
                let y = bd[ob];
                for (o, &x) in dst.iter_mut().zip(&ad[oa..oa + len]) {
                    *o = f(x, y);
                }
            }
            (0, 1) => {
                let x = ad[oa];
                for (o, &y) in dst.iter_mut().zip(&bd[ob..ob + len]) {
                    *o = f(x, y);
                }
            }
            _ => {
                for (j, o) in dst.iter_mut().enumerate() {
                    *o = f(ad[oa + j * ra], bd[ob + j * rb]);
                }
            }
        }
        pos += len;
        col = 0;
        for axis in (0..lead).rev() {
            idx[axis] += 1;
            off_a += sa[axis];
            off_b += sb[axis];
            if idx[axis] < dims[axis] {
                break;
            }
            off_a -= sa[axis] * dims[axis];
            off_b -= sb[axis] * dims[axis];
            idx[axis] = 0;
        }
    }
}

/// Elementwise `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_broadcast("add", a, b, Some(simd::BinKind::Add), |x, y| x + y)
}

/// Elementwise `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_broadcast("sub", a, b, Some(simd::BinKind::Sub), |x, y| x - y)
}

/// Elementwise `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_broadcast("mul", a, b, Some(simd::BinKind::Mul), |x, y| x * y)
}

/// Elementwise `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_broadcast("div", a, b, Some(simd::BinKind::Div), |x, y| x / y)
}

/// Elementwise maximum with broadcasting (no SIMD path declared — scalar
/// only until it earns an entry in `determinism::SIMD_OPS`).
pub fn maximum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_broadcast("maximum", a, b, None, f32::max)
}

/// Reduces `grad` (shaped like the broadcast output) back to `target_dims`
/// by summing over broadcast axes. This is the adjoint of broadcasting and
/// the workhorse of autograd for elementwise ops.
pub fn unbroadcast(grad: &Tensor, target_dims: &[usize]) -> Tensor {
    if grad.dims() == target_dims {
        return grad.clone();
    }
    let gdims = grad.dims().to_vec();
    let ndim = gdims.len();
    let offset = ndim - target_dims.len();
    let mut out = Tensor::zeros(target_dims.to_vec());
    let t_strides = Shape::new(target_dims.to_vec()).strides();
    // Stride-0 mapping from output-space axes into the target buffer.
    let mut map = vec![0usize; ndim];
    for i in 0..target_dims.len() {
        map[offset + i] = if target_dims[i] == 1 && gdims[offset + i] != 1 {
            0
        } else {
            t_strides[i]
        };
    }
    let mut idx = vec![0usize; ndim];
    let mut off_t = 0usize;
    let gd = grad.data();
    let od = out.data_mut();
    for &g in gd.iter() {
        od[off_t] += g;
        for axis in (0..ndim).rev() {
            idx[axis] += 1;
            off_t += map[axis];
            if idx[axis] < gdims[axis] {
                break;
            }
            off_t -= map[axis] * gdims[axis];
            idx[axis] = 0;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Matrix multiplication
// ---------------------------------------------------------------------------

/// `C = A · B` for 2-D matrices `(m,k)·(k,n) → (m,n)`.
///
/// Runs on the same packed, register-tiled driver as [`matmul_transb`] /
/// [`matmul_transa`] (B gathered column-wise into stripes, row blocks fanned
/// out over rayon when large enough); skinny products with fewer than
/// `GEMM_MIN_PACK_ROWS` rows use the row-axpy kernel instead. Both keep one
/// strict `k`-order chain per output element, so the choice never changes
/// bits.
pub fn matmul2d(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.ndim() != 2 || b.ndim() != 2 || a.dim(1) != b.dim(0) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul2d",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    gemm_telemetry((m * n) as u64);
    let mut out = Tensor::zeros(vec![m, n]);
    gemm_nn_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// True when a GEMM with `m` output rows and `k·n` per-row work should take
/// the row-parallel rayon path (see [`crate::tuning`] for the knobs). Both
/// paths are bitwise identical — each output row is an independent strict
/// `k`-order accumulation.
fn gemm_parallel(m: usize, k: usize, n: usize) -> bool {
    m >= tuning::gemm_par_rows() && k * n >= tuning::gemm_par_row_work()
}

/// Dense row kernel: unconditional multiply-accumulate over rows of `b`.
///
/// Deliberately branch-free: a per-`k`-step `aik == 0.0` test costs a
/// compare+branch in the hot loop and only pays off when `a` is mostly
/// zero. Skipping a zero `aik` is bitwise-identical to accumulating it for
/// finite `b` (the accumulator starts at `+0.0` and IEEE-754 addition can
/// never turn it into `-0.0`), so sparse callers can use
/// [`matmul2d_masked`] without changing results.
///
/// Wide enough rows dispatch to the SIMD axpy kernel, which keeps the same
/// strict `kk`-outer order with one lane per output column — bitwise
/// identical to the scalar loop (see `crate::simd`).
#[inline]
fn gemm_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
    if n >= tuning::simd_min_n() {
        let level = simd::active();
        if level != simd::Level::Scalar {
            return simd::gemm_row(level, a_row, b, out_row, k, n);
        }
    }
    for (kk, &aik) in a_row.iter().enumerate().take(k) {
        let b_row = &b[kk * n..(kk + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += aik * bv;
        }
    }
}

/// Row kernel that skips exact-zero `a` entries. Only worthwhile when a
/// large fraction of `a` is exactly zero (padded/masked rows); see
/// [`gemm_row`] for why both kernels agree bitwise on finite data.
#[inline]
fn gemm_row_zskip(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
    for (kk, &aik) in a_row.iter().enumerate().take(k) {
        if aik == 0.0 {
            continue;
        }
        let b_row = &b[kk * n..(kk + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += aik * bv;
        }
    }
}

/// `A · B` for 2-D matrices where `A` is expected to contain many exact
/// zeros (padded or masked rows): each zero entry of `A` skips a whole
/// row-of-`B` multiply-accumulate.
///
/// For finite inputs the result is bitwise identical to [`matmul2d`]; on a
/// dense `A` it is slower (one extra branch per `k` step), which is why the
/// dense path no longer carries the test.
pub fn matmul2d_masked(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.ndim() != 2 || b.ndim() != 2 || a.dim(1) != b.dim(0) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul2d_masked",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    gemm_telemetry((m * n) as u64);
    let mut out = Tensor::zeros(vec![m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    if gemm_parallel(m, k, n) {
        od.par_chunks_mut(n).enumerate().for_each(|(i, out_row)| {
            gemm_row_zskip(&ad[i * k..(i + 1) * k], bd, out_row, k, n);
        });
    } else {
        for i in 0..m {
            gemm_row_zskip(
                &ad[i * k..(i + 1) * k],
                bd,
                &mut od[i * n..(i + 1) * n],
                k,
                n,
            );
        }
    }
    Ok(out)
}

/// Batched matmul.
///
/// Supported operand ranks:
/// * `(m,k) · (k,n)` — plain 2-D.
/// * `(b,m,k) · (b,k,n)` — per-batch product.
/// * `(b,m,k) · (k,n)` — shared right operand broadcast over the batch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    match (a.ndim(), b.ndim()) {
        (2, 2) => matmul2d(a, b),
        (3, 3) => {
            let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
            if b.dim(0) != bs || b.dim(1) != k {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul",
                    lhs: a.dims().to_vec(),
                    rhs: b.dims().to_vec(),
                });
            }
            let n = b.dim(2);
            gemm_telemetry((bs * m * n) as u64);
            let mut out = Tensor::zeros(vec![bs, m, n]);
            let (ad, bd) = (a.data(), b.data());
            let od = out.data_mut();
            for i in 0..bs {
                gemm_nn_into(
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * k * n..(i + 1) * k * n],
                    &mut od[i * m * n..(i + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            Ok(out)
        }
        (3, 2) => {
            let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
            if b.dim(0) != k {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul",
                    lhs: a.dims().to_vec(),
                    rhs: b.dims().to_vec(),
                });
            }
            let n = b.dim(1);
            // Collapse the batch into rows: (b·m, k) · (k, n). The data is
            // already contiguous, so no reshape copy is needed.
            gemm_telemetry((bs * m * n) as u64);
            let mut out = Tensor::zeros(vec![bs, m, n]);
            gemm_nn_into(a.data(), b.data(), out.data_mut(), bs * m, k, n);
            Ok(out)
        }
        _ => Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Packed GEMM driver (NN / NT / TN)
// ---------------------------------------------------------------------------
//
// `matmul` (A·B), `matmul_transb` (A·Bᵀ) and `matmul_transa` (Aᵀ·B) never
// materialize a transpose. All three run one driver, [`gemm_packed`], over
// packed panels; they differ only in how B is packed (`pack_b`) and how the
// effective left operand is read (`get_a`):
//
// * B is packed ONCE per call into kk-major, `GEMM_NR`-wide stripes, reused
//   across every row block (for NT this *is* the transpose, amortised into
//   the pack; for NN and TN it is a simple column gather).
// * Each `GEMM_MR`-row block of A is packed kk-major and compact
//   (`apanel[kk·MR + r]`), so each micro-kernel step broadcasts one A value
//   per row from a contiguous 4-float group.
// * The micro-kernel keeps a `GEMM_MR × GEMM_NR` accumulator block in
//   registers and dispatches per stripe pair to `crate::simd` (AVX2 /
//   NEON / scalar — all bitwise-identical by construction).
//
// Bitwise contract: every output element is one strict `k`-order f32
// accumulation chain starting at +0.0 — exactly the chain a naive
// `s += a·b` triple loop produces, and the chain of the row-axpy kernel the
// skinny NN fallback uses — and zero-padded dead lanes are never copied out.
// `tests/proptests.rs` asserts bitwise equality against an independent
// triple loop on randomized shapes.

/// Rows per register micro-tile in the packed kernels.
const GEMM_MR: usize = 4;
/// Columns per register micro-tile (one packed stripe of B).
const GEMM_NR: usize = 8;
/// Below this many output rows the packed kernels fall back to direct
/// loops: the B pack is O(k·n) and cannot be amortised over few rows.
const GEMM_MIN_PACK_ROWS: usize = 8;

/// Packs rows `j..j+jb` of `b` (`n×k` row-major, the NT right operand) into
/// one kk-major stripe: `panel[kk·NR + c] = b[(j+c)·k + kk]`. Dead lanes
/// (`c >= jb`) are zeroed; they only feed accumulator lanes that are never
/// copied out.
fn pack_b_nt(b: &[f32], panel: &mut [f32], j: usize, jb: usize, k: usize) {
    if jb == GEMM_NR {
        for kk in 0..k {
            let dst = &mut panel[kk * GEMM_NR..(kk + 1) * GEMM_NR];
            for (c, d) in dst.iter_mut().enumerate() {
                *d = b[(j + c) * k + kk];
            }
        }
    } else {
        for kk in 0..k {
            let dst = &mut panel[kk * GEMM_NR..(kk + 1) * GEMM_NR];
            for (c, d) in dst.iter_mut().enumerate() {
                *d = if c < jb { b[(j + c) * k + kk] } else { 0.0 };
            }
        }
    }
}

/// Packs columns `j..j+jb` of `b` (`k×n` row-major, the NN and TN right
/// operand) into one kk-major stripe: `panel[kk·NR + c] = b[kk·n + j + c]`.
fn pack_b_tn(b: &[f32], panel: &mut [f32], j: usize, jb: usize, k: usize, n: usize) {
    for kk in 0..k {
        let src = &b[kk * n..(kk + 1) * n];
        let dst = &mut panel[kk * GEMM_NR..(kk + 1) * GEMM_NR];
        for (c, d) in dst.iter_mut().enumerate() {
            *d = if c < jb { src[j + c] } else { 0.0 };
        }
    }
}

/// Packs one `GEMM_MR`-row block of the effective left operand kk-major and
/// compact: `apanel[kk·MR + r] = get(r, kk)` (dead rows `r >= ib` are
/// zero). Every micro-kernel level broadcasts one value per row, so no
/// replication is needed and the pack moves 4× less data than the old rep4
/// layout.
fn pack_a_quad(apanel: &mut [f32], ib: usize, k: usize, get: impl Fn(usize, usize) -> f32) {
    for kk in 0..k {
        let dst = &mut apanel[kk * GEMM_MR..(kk + 1) * GEMM_MR];
        for (r, d) in dst.iter_mut().enumerate() {
            *d = if r < ib { get(r, kk) } else { 0.0 };
        }
    }
}

/// Register-tiled micro-kernel: multiplies one packed `GEMM_MR`-row block of
/// A (`apanel`, kk-major, compact) against every packed stripe of B (`bstore`),
/// overwriting `ib` rows of `out_block` (row-major, row stride `n`).
///
/// `acc[r][c]` accumulates its products in strict `kk` order, so each output
/// element is bitwise identical to a scalar dot product over `k`.
///
/// The per-stripe accumulation dispatches to `crate::simd::stripe_acc`
/// (AVX2: one 8-lane vector per row; NEON: two 4-lane vectors per row;
/// scalar otherwise). Every level keeps one lane per output column with
/// separate multiply/add, so the dispatch level never changes output bits.
fn gemm_micro_block(
    apanel: &[f32],
    bstore: &[f32],
    out_block: &mut [f32],
    ib: usize,
    k: usize,
    n: usize,
) {
    let nstripes = n.div_ceil(GEMM_NR);
    let level = simd::active();
    let ap = &apanel[..k * GEMM_MR];
    let copy_out = |acc: &[[f32; GEMM_NR]; GEMM_MR], s: usize, out_block: &mut [f32]| {
        let j = s * GEMM_NR;
        let jb = (n - j).min(GEMM_NR);
        for (r, accr) in acc.iter().enumerate().take(ib) {
            out_block[r * n + j..r * n + j + jb].copy_from_slice(&accr[..jb]);
        }
    };
    let mut s = 0;
    // Stripe pairs share the A broadcasts (dual-stripe kernel); the odd
    // remainder stripe runs the single-stripe kernel. Pairing never changes
    // bits — each output element's chain is per-stripe-independent.
    while s + 2 <= nstripes {
        let b0 = &bstore[s * k * GEMM_NR..(s + 1) * k * GEMM_NR];
        let b1 = &bstore[(s + 1) * k * GEMM_NR..(s + 2) * k * GEMM_NR];
        let mut acc0 = [[0.0f32; GEMM_NR]; GEMM_MR];
        let mut acc1 = [[0.0f32; GEMM_NR]; GEMM_MR];
        simd::stripe_acc2(level, ap, b0, b1, &mut acc0, &mut acc1);
        copy_out(&acc0, s, out_block);
        copy_out(&acc1, s + 1, out_block);
        s += 2;
    }
    if s < nstripes {
        let bpanel = &bstore[s * k * GEMM_NR..(s + 1) * k * GEMM_NR];
        let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
        simd::stripe_acc(level, ap, bpanel, &mut acc);
        copy_out(&acc, s, out_block);
    }
}

/// The one packed GEMM driver: `out[m×n] = A·B` for `m ≥ GEMM_MIN_PACK_ROWS`,
/// overwriting `out`. `pack_b(panel, j, jb)` fills the kk-major stripe for
/// output columns `j..j+jb` (dead lanes zeroed); `get_a(i, kk)` reads the
/// effective left operand. B is packed once into pooled scratch; `GEMM_MR`-row
/// blocks of A are packed and run through [`gemm_micro_block`], fanned out
/// over rayon when [`gemm_parallel`] says so (bitwise identical either way —
/// blocks never share an output element).
fn gemm_packed(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    mut pack_b: impl FnMut(&mut [f32], usize, usize),
    get_a: impl Fn(usize, usize) -> f32 + Sync,
) {
    let nstripes = n.div_ceil(GEMM_NR);
    let mut bstore = pool::take_raw(nstripes * k * GEMM_NR);
    for s in 0..nstripes {
        let j = s * GEMM_NR;
        pack_b(
            &mut bstore[s * k * GEMM_NR..(s + 1) * k * GEMM_NR],
            j,
            (n - j).min(GEMM_NR),
        );
    }
    if gemm_parallel(m, k, n) {
        out.par_chunks_mut(GEMM_MR * n)
            .enumerate()
            .for_each(|(blk, out_block)| {
                let i = blk * GEMM_MR;
                let ib = (m - i).min(GEMM_MR);
                let mut apanel = vec![0.0f32; k * GEMM_MR];
                pack_a_quad(&mut apanel, ib, k, |r, kk| get_a(i + r, kk));
                gemm_micro_block(&apanel, &bstore, out_block, ib, k, n);
            });
    } else {
        let mut apanel = pool::take_raw(k * GEMM_MR);
        let mut i = 0;
        while i < m {
            let ib = (m - i).min(GEMM_MR);
            pack_a_quad(&mut apanel, ib, k, |r, kk| get_a(i + r, kk));
            gemm_micro_block(&apanel, &bstore, &mut out[i * n..(i + ib) * n], ib, k, n);
            i += ib;
        }
        pool::recycle(apanel);
    }
    pool::recycle(bstore);
}

/// Fused NT fallback for skinny outputs (`m < GEMM_MIN_PACK_ROWS`): both
/// operand rows are contiguous, so each output element is a plain dot
/// product; four independent columns run at once for ILP. Overwrites `out`.
fn gemm_nt_small(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (kk, &av) in arow.iter().enumerate() {
                s0 += av * b0[kk];
                s1 += av * b1[kk];
                s2 += av * b2[kk];
                s3 += av * b3[kk];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        while j < n {
            let brow = &b[j * k..(j + 1) * k];
            let mut s = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                s += av * bv;
            }
            orow[j] = s;
            j += 1;
        }
    }
}

/// Fused TN fallback for skinny outputs: per output row, accumulate
/// `a[kk·m + i] · b_row(kk)` in strict `kk` order. Requires zeroed `out`.
fn gemm_tn_small(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let av = a[kk * m + i];
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// NN GEMM: `out[m×n] = a[m×k] · b[k×n]`. `out` must be zeroed by the
/// caller (the skinny fallback accumulates into it).
fn gemm_nn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if m < GEMM_MIN_PACK_ROWS {
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            gemm_row(&a[i * k..(i + 1) * k], b, out_row, k, n);
        }
        return;
    }
    gemm_packed(
        out,
        m,
        k,
        n,
        |panel, j, jb| pack_b_tn(b, panel, j, jb, k, n),
        |i, kk| a[i * k + kk],
    );
}

/// Fused NT GEMM: `out[m×n] = a[m×k] · b[n×k]ᵀ`, no transpose materialized.
/// `out` must be zeroed by the caller.
fn gemm_nt_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if m < GEMM_MIN_PACK_ROWS {
        return gemm_nt_small(a, b, out, m, k, n);
    }
    gemm_packed(
        out,
        m,
        k,
        n,
        |panel, j, jb| pack_b_nt(b, panel, j, jb, k),
        |i, kk| a[i * k + kk],
    );
}

/// Fused TN GEMM: `out[m×n] = a[k×m]ᵀ · b[k×n]`, no transpose materialized.
/// `out` must be zeroed by the caller.
fn gemm_tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if m < GEMM_MIN_PACK_ROWS {
        return gemm_tn_small(a, b, out, m, k, n);
    }
    gemm_packed(
        out,
        m,
        k,
        n,
        |panel, j, jb| pack_b_tn(b, panel, j, jb, k, n),
        |i, kk| a[kk * m + i],
    );
}

/// `A · Bᵀ` without materializing the transpose.
///
/// Supported operand ranks (B is always stored "transposed", i.e. its rows
/// are the columns of the effective right operand):
/// * `(m,k) · (n,k)ᵀ → (m,n)` — plain 2-D.
/// * `(b,m,k) · (b,n,k)ᵀ → (b,m,n)` — per-batch product.
/// * `(b,m,k) · (n,k)ᵀ → (b,m,n)` — shared right operand (e.g. full-vocab
///   logits against the embedding table).
///
/// Bitwise identical to `matmul(a, transpose_last2(b))`.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mismatch = || TensorError::ShapeMismatch {
        op: "matmul_transb",
        lhs: a.dims().to_vec(),
        rhs: b.dims().to_vec(),
    };
    match (a.ndim(), b.ndim()) {
        (2, 2) => {
            if a.dim(1) != b.dim(1) {
                return Err(mismatch());
            }
            let (m, k, n) = (a.dim(0), a.dim(1), b.dim(0));
            gemm_telemetry((m * n) as u64);
            let mut out = Tensor::pooled_zeros(vec![m, n]);
            gemm_nt_into(a.data(), b.data(), out.data_mut(), m, k, n);
            Ok(out)
        }
        (3, 3) => {
            let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
            if b.dim(0) != bs || b.dim(2) != k {
                return Err(mismatch());
            }
            let n = b.dim(1);
            gemm_telemetry((bs * m * n) as u64);
            let mut out = Tensor::pooled_zeros(vec![bs, m, n]);
            let (ad, bd) = (a.data(), b.data());
            let od = out.data_mut();
            for i in 0..bs {
                gemm_nt_into(
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * n * k..(i + 1) * n * k],
                    &mut od[i * m * n..(i + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            Ok(out)
        }
        (3, 2) => {
            let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
            if b.dim(1) != k {
                return Err(mismatch());
            }
            let n = b.dim(0);
            // Collapse the batch into rows: (b·m, k) · (n, k)ᵀ. The data is
            // already contiguous, so no reshape copy is needed.
            gemm_telemetry((bs * m * n) as u64);
            let mut out = Tensor::pooled_zeros(vec![bs, m, n]);
            gemm_nt_into(a.data(), b.data(), out.data_mut(), bs * m, k, n);
            Ok(out)
        }
        _ => Err(mismatch()),
    }
}

/// `Aᵀ · B` without materializing the transpose. The shared inner dimension
/// is `a.dim(-2) == b.dim(-2)`.
///
/// Supported operand ranks:
/// * `(k,m)ᵀ · (k,n) → (m,n)` — plain 2-D.
/// * `(b,k,m)ᵀ · (b,k,n) → (b,m,n)` — per-batch product.
///
/// Bitwise identical to `matmul(transpose_last2(a), b)`.
pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mismatch = || TensorError::ShapeMismatch {
        op: "matmul_transa",
        lhs: a.dims().to_vec(),
        rhs: b.dims().to_vec(),
    };
    match (a.ndim(), b.ndim()) {
        (2, 2) => {
            if a.dim(0) != b.dim(0) {
                return Err(mismatch());
            }
            let (k, m, n) = (a.dim(0), a.dim(1), b.dim(1));
            gemm_telemetry((m * n) as u64);
            let mut out = Tensor::pooled_zeros(vec![m, n]);
            gemm_tn_into(a.data(), b.data(), out.data_mut(), m, k, n);
            Ok(out)
        }
        (3, 3) => {
            let (bs, k, m) = (a.dim(0), a.dim(1), a.dim(2));
            if b.dim(0) != bs || b.dim(1) != k {
                return Err(mismatch());
            }
            let n = b.dim(2);
            gemm_telemetry((bs * m * n) as u64);
            let mut out = Tensor::pooled_zeros(vec![bs, m, n]);
            let (ad, bd) = (a.data(), b.data());
            let od = out.data_mut();
            for i in 0..bs {
                gemm_tn_into(
                    &ad[i * k * m..(i + 1) * k * m],
                    &bd[i * k * n..(i + 1) * k * n],
                    &mut od[i * m * n..(i + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            Ok(out)
        }
        _ => Err(mismatch()),
    }
}

// ---------------------------------------------------------------------------
// Transpose / permute
// ---------------------------------------------------------------------------

/// Swaps the last two axes of a rank-≥2 tensor.
pub fn transpose_last2(t: &Tensor) -> Result<Tensor> {
    let nd = t.ndim();
    if nd < 2 {
        return Err(TensorError::InvalidAxis { axis: 1, ndim: nd });
    }
    let dims = t.dims();
    let (r, c) = (dims[nd - 2], dims[nd - 1]);
    let batch: usize = dims[..nd - 2].iter().product();
    let mut out_dims = dims.to_vec();
    out_dims.swap(nd - 2, nd - 1);
    let mut out = vec![0.0f32; t.numel()];
    let src = t.data();
    for bi in 0..batch {
        let so = bi * r * c;
        for i in 0..r {
            for j in 0..c {
                out[so + j * r + i] = src[so + i * c + j];
            }
        }
    }
    Ok(Tensor::from_vec(out, out_dims))
}

/// Reorders axes according to `perm` (a permutation of `0..ndim`).
pub fn permute(t: &Tensor, perm: &[usize]) -> Result<Tensor> {
    let nd = t.ndim();
    if perm.len() != nd {
        return Err(TensorError::InvalidAxis {
            axis: perm.len(),
            ndim: nd,
        });
    }
    let mut seen = vec![false; nd];
    for &p in perm {
        if p >= nd || seen[p] {
            return Err(TensorError::InvalidAxis { axis: p, ndim: nd });
        }
        seen[p] = true;
    }
    let in_dims = t.dims();
    let out_dims: Vec<usize> = perm.iter().map(|&p| in_dims[p]).collect();
    let in_strides = t.shape().strides();
    let permuted_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let n = t.numel();
    // When the innermost axis stays put, every output row is a contiguous
    // run of the input: copy runs, walking only the leading axes.
    let lead = if nd > 0 && perm[nd - 1] == nd - 1 {
        nd - 1
    } else {
        nd
    };
    let run: usize = out_dims[lead..].iter().product();
    let mut data = Vec::with_capacity(n);
    let mut idx = vec![0usize; lead];
    let mut off = 0usize;
    let src = t.data();
    for _ in 0..n.checked_div(run).unwrap_or(0) {
        data.extend_from_slice(&src[off..off + run]);
        for axis in (0..lead).rev() {
            idx[axis] += 1;
            off += permuted_strides[axis];
            if idx[axis] < out_dims[axis] {
                break;
            }
            off -= permuted_strides[axis] * out_dims[axis];
            idx[axis] = 0;
        }
    }
    Ok(Tensor::from_vec(data, out_dims))
}

// ---------------------------------------------------------------------------
// Reductions along an axis
// ---------------------------------------------------------------------------

fn axis_reduce(
    t: &Tensor,
    axis: usize,
    keepdim: bool,
    init: f32,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Result<Tensor> {
    let nd = t.ndim();
    if axis >= nd {
        return Err(TensorError::InvalidAxis { axis, ndim: nd });
    }
    let dims = t.dims();
    let outer: usize = dims[..axis].iter().product();
    let red = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let mut out = vec![init; outer * inner];
    let src = t.data();
    let mut out_dims: Vec<usize> = dims.to_vec();
    if keepdim {
        out_dims[axis] = 1;
    } else {
        out_dims.remove(axis);
    }
    if inner == 1 {
        // Last-axis (or trailing-singleton) reduce: each output is one
        // contiguous row folded from `init` in the same `r` order as the
        // general path below, so the result is bitwise identical.
        let fold_rows = |o0: usize, chunk: &mut [f32]| {
            for (o, v) in chunk.iter_mut().enumerate() {
                let base = (o0 + o) * red;
                *v = src[base..base + red].iter().fold(init, |acc, &x| f(acc, x));
            }
        };
        if outer >= 2 && outer * red >= tuning::par_min_elems() {
            let rows = (tuning::par_block() / red.max(1)).max(1);
            out.par_chunks_mut(rows)
                .enumerate()
                .for_each(|(c, chunk)| fold_rows(c * rows, chunk));
        } else {
            fold_rows(0, &mut out);
        }
        return Ok(Tensor::from_vec(out, out_dims));
    }
    // Each outer slice reduces in the same fixed `r` order regardless of
    // partitioning, so serial and parallel results are bitwise identical.
    let reduce_outer = |o: usize, out_chunk: &mut [f32]| {
        for r in 0..red {
            let base = (o * red + r) * inner;
            for (i, v) in out_chunk.iter_mut().enumerate() {
                *v = f(*v, src[base + i]);
            }
        }
    };
    if outer >= 2 && inner > 0 && outer * red * inner >= tuning::par_min_elems() {
        out.par_chunks_mut(inner)
            .enumerate()
            .for_each(|(o, chunk)| reduce_outer(o, chunk));
    } else {
        for o in 0..outer {
            reduce_outer(o, &mut out[o * inner..(o + 1) * inner]);
        }
    }
    Ok(Tensor::from_vec(out, out_dims))
}

/// Sum along `axis`.
pub fn sum_axis(t: &Tensor, axis: usize, keepdim: bool) -> Result<Tensor> {
    axis_reduce(t, axis, keepdim, 0.0, |a, b| a + b)
}

/// Mean along `axis`.
pub fn mean_axis(t: &Tensor, axis: usize, keepdim: bool) -> Result<Tensor> {
    let n = t.dim(axis) as f32;
    let mut s = sum_axis(t, axis, keepdim)?;
    s.scale_inplace(1.0 / n);
    Ok(s)
}

/// Max along `axis`.
pub fn max_axis(t: &Tensor, axis: usize, keepdim: bool) -> Result<Tensor> {
    axis_reduce(t, axis, keepdim, f32::NEG_INFINITY, f32::max)
}

/// Index of the maximum along the last axis, one result per leading row.
pub fn argmax_last(t: &Tensor) -> Vec<usize> {
    let nd = t.ndim();
    assert!(nd >= 1);
    let last = t.dim(nd - 1);
    t.data()
        .chunks_exact(last)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Softmax family (last axis)
// ---------------------------------------------------------------------------

/// Applies `row_fn` to every `last`-sized row of `out`, in parallel when the
/// tensor is large enough. Rows never straddle a chunk boundary, so the
/// result is independent of the partitioning.
fn for_each_row(out: &mut Tensor, last: usize, row_fn: impl Fn(&mut [f32]) + Sync) {
    let n = out.numel();
    if last > 0 && n >= tuning::par_min_elems() && n / last >= 2 {
        out.data_mut().par_chunks_mut(last).for_each(row_fn);
    } else {
        for row in out.data_mut().chunks_exact_mut(last) {
            row_fn(row);
        }
    }
}

/// Numerically stable softmax along the last axis.
pub fn softmax_last(t: &Tensor) -> Tensor {
    let last = t.dim(t.ndim() - 1);
    let mut out = t.clone();
    for_each_row(&mut out, last, |row| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - m).exp();
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    });
    out
}

/// Numerically stable log-softmax along the last axis.
pub fn log_softmax_last(t: &Tensor) -> Tensor {
    let last = t.dim(t.ndim() - 1);
    let mut out = t.clone();
    for_each_row(&mut out, last, |row| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
        for x in row.iter_mut() {
            *x -= lse;
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Concatenation / slicing / gather
// ---------------------------------------------------------------------------

/// Concatenates tensors along `axis`. All other dimensions must match.
pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor> {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let first = parts[0];
    let nd = first.ndim();
    if axis >= nd {
        return Err(TensorError::InvalidAxis { axis, ndim: nd });
    }
    let mut axis_total = 0usize;
    for p in parts {
        if p.ndim() != nd {
            return Err(TensorError::ShapeMismatch {
                op: "concat",
                lhs: first.dims().to_vec(),
                rhs: p.dims().to_vec(),
            });
        }
        for d in 0..nd {
            if d != axis && p.dim(d) != first.dim(d) {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
        }
        axis_total += p.dim(axis);
    }
    let outer: usize = first.dims()[..axis].iter().product();
    let inner: usize = first.dims()[axis + 1..].iter().product();
    let mut out_dims = first.dims().to_vec();
    out_dims[axis] = axis_total;
    let mut data = Vec::with_capacity(outer * axis_total * inner);
    for o in 0..outer {
        for p in parts {
            let pa = p.dim(axis);
            let chunk = pa * inner;
            data.extend_from_slice(&p.data()[o * chunk..(o + 1) * chunk]);
        }
    }
    Ok(Tensor::from_vec(data, out_dims))
}

/// Slices `[start, end)` along `axis`.
pub fn slice_axis(t: &Tensor, axis: usize, start: usize, end: usize) -> Result<Tensor> {
    let nd = t.ndim();
    if axis >= nd {
        return Err(TensorError::InvalidAxis { axis, ndim: nd });
    }
    if end > t.dim(axis) || start > end {
        return Err(TensorError::IndexOutOfRange {
            index: end,
            bound: t.dim(axis),
        });
    }
    let dims = t.dims();
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let len = end - start;
    let mut out_dims = dims.to_vec();
    out_dims[axis] = len;
    let mut data = Vec::with_capacity(outer * len * inner);
    let src = t.data();
    let axis_dim = dims[axis];
    for o in 0..outer {
        let base = (o * axis_dim + start) * inner;
        data.extend_from_slice(&src[base..base + len * inner]);
    }
    Ok(Tensor::from_vec(data, out_dims))
}

/// Selects rows of a rank-2 tensor: `out[i] = t[indices[i]]`.
pub fn index_select_rows(t: &Tensor, indices: &[usize]) -> Result<Tensor> {
    assert_eq!(t.ndim(), 2, "index_select_rows requires a rank-2 tensor");
    let (rows, cols) = (t.dim(0), t.dim(1));
    let mut data = Vec::with_capacity(indices.len() * cols);
    for &ix in indices {
        if ix >= rows {
            return Err(TensorError::IndexOutOfRange {
                index: ix,
                bound: rows,
            });
        }
        data.extend_from_slice(t.row(ix));
    }
    Ok(Tensor::from_vec(data, vec![indices.len(), cols]))
}

/// Scatter-add rows: `out[indices[i]] += grad[i]`. Adjoint of
/// [`index_select_rows`], used for embedding gradients.
pub fn scatter_add_rows(out: &mut Tensor, indices: &[usize], grad: &Tensor) {
    assert_eq!(out.ndim(), 2);
    assert_eq!(grad.ndim(), 2);
    assert_eq!(grad.dim(0), indices.len());
    assert_eq!(grad.dim(1), out.dim(1));
    let cols = out.dim(1);
    for (i, &ix) in indices.iter().enumerate() {
        let g = grad.row(i);
        let o = &mut out.row_mut(ix)[..cols];
        for (ov, gv) in o.iter_mut().zip(g.iter()) {
            *ov += gv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: Vec<usize>) -> Tensor {
        Tensor::from_vec(v, d)
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1.0, 2.0], vec![2]);
        let b = t(vec![10.0, 20.0], vec![2]);
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        let b = t(vec![10.0, 20.0, 30.0], vec![3]);
        let c = add(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn mul_broadcast_col() {
        let a = Tensor::ones(vec![2, 3]);
        let b = t(vec![2.0, 3.0], vec![2, 1]);
        let c = mul(&a, &b).unwrap();
        assert_eq!(c.data(), &[2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = Tensor::arange(3);
        let s = Tensor::scalar(2.0);
        assert_eq!(mul(&a, &s).unwrap().data(), &[0.0, 2.0, 4.0]);
        assert_eq!(sub(&s, &a).unwrap().data(), &[2.0, 1.0, 0.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::ones(vec![2, 3]);
        let b = Tensor::ones(vec![4, 3]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn unbroadcast_sums_expanded_axes() {
        let g = Tensor::ones(vec![2, 3]);
        assert_eq!(unbroadcast(&g, &[3]).data(), &[2.0, 2.0, 2.0]);
        assert_eq!(unbroadcast(&g, &[2, 1]).data(), &[3.0, 3.0]);
        assert_eq!(unbroadcast(&g, &[]).data(), &[6.0]);
        assert_eq!(unbroadcast(&g, &[2, 3]).data(), g.data());
    }

    #[test]
    fn matmul_2d_known() {
        let a = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        let b = Tensor::arange(6).reshape(vec![3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[10.0, 13.0, 28.0, 40.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(4).reshape(vec![2, 2]).unwrap();
        let eye = t(vec![1.0, 0.0, 0.0, 1.0], vec![2, 2]);
        assert_eq!(matmul(&a, &eye).unwrap().data(), a.data());
    }

    #[test]
    fn matmul_batched() {
        let a = Tensor::arange(12).reshape(vec![2, 2, 3]).unwrap();
        let b = Tensor::ones(vec![2, 3, 1]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2, 1]);
        assert_eq!(c.data(), &[3.0, 12.0, 21.0, 30.0]);
    }

    #[test]
    fn matmul_broadcast_rhs() {
        let a = Tensor::arange(12).reshape(vec![2, 2, 3]).unwrap();
        let b = Tensor::ones(vec![3, 1]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2, 1]);
        assert_eq!(c.data(), &[3.0, 12.0, 21.0, 30.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::ones(vec![2, 3]);
        let b = Tensor::ones(vec![2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn transpose_2d_and_batched() {
        let a = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        let at = transpose_last2(&a).unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);

        let b = Tensor::arange(12).reshape(vec![2, 2, 3]).unwrap();
        let bt = transpose_last2(&b).unwrap();
        assert_eq!(bt.dims(), &[2, 3, 2]);
        assert_eq!(bt.at(&[1, 2, 0]), b.at(&[1, 0, 2]));
    }

    #[test]
    fn permute_3d() {
        let a = Tensor::arange(24).reshape(vec![2, 3, 4]).unwrap();
        let p = permute(&a, &[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), a.at(&[1, 2, 3]));
        assert!(permute(&a, &[0, 0, 1]).is_err());
    }

    #[test]
    fn axis_reductions() {
        let a = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        assert_eq!(sum_axis(&a, 0, false).unwrap().data(), &[3.0, 5.0, 7.0]);
        assert_eq!(sum_axis(&a, 1, false).unwrap().data(), &[3.0, 12.0]);
        assert_eq!(sum_axis(&a, 1, true).unwrap().dims(), &[2, 1]);
        assert_eq!(mean_axis(&a, 1, false).unwrap().data(), &[1.0, 4.0]);
        assert_eq!(max_axis(&a, 0, false).unwrap().data(), &[3.0, 4.0, 5.0]);
        assert!(sum_axis(&a, 2, false).is_err());
    }

    #[test]
    fn argmax_rows() {
        let a = t(vec![1.0, 5.0, 2.0, 9.0, 0.0, 3.0], vec![2, 3]);
        assert_eq!(argmax_last(&a), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], vec![2, 3]);
        let s = softmax_last(&a);
        for row in s.data().chunks_exact(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large inputs stay finite (stability).
        assert!(!s.has_non_finite());
        // Uniform row.
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = t(vec![0.5, -1.0, 2.0], vec![1, 3]);
        let ls = log_softmax_last(&a);
        let s = softmax_last(&a);
        for (l, p) in ls.data().iter().zip(s.data().iter()) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = Tensor::arange(4).reshape(vec![2, 2]).unwrap();
        let b = Tensor::ones(vec![1, 2]);
        let c = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 2.0, 3.0, 1.0, 1.0]);

        let d = concat(&[&a, &a], 1).unwrap();
        assert_eq!(d.dims(), &[2, 4]);
        assert_eq!(d.data(), &[0.0, 1.0, 0.0, 1.0, 2.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn slice_middle_axis() {
        let a = Tensor::arange(24).reshape(vec![2, 3, 4]).unwrap();
        let s = slice_axis(&a, 1, 1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), a.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), a.at(&[1, 2, 3]));
        assert!(slice_axis(&a, 1, 2, 4).is_err());
    }

    #[test]
    fn parallel_paths_match_serial_reference() {
        // 64·600 = 38_400 elements crosses PAR_MIN_ELEMS, so these calls
        // take the rayon paths; spot-check them against scalar arithmetic.
        let (r, c) = (64usize, 600usize);
        let a = t(
            (0..r * c).map(|i| (i % 17) as f32 - 8.0).collect(),
            vec![r, c],
        );
        let row = t((0..c).map(|j| (j % 5) as f32).collect(), vec![c]);

        // Same-shape fast path.
        let sq = mul(&a, &a).unwrap();
        for (x, y) in a.data().iter().zip(sq.data().iter()) {
            assert_eq!(x * x, *y);
        }

        // Broadcast odometer path (blocks start mid-tensor).
        let s = add(&a, &row).unwrap();
        for i in (0..r).step_by(7) {
            for j in (0..c).step_by(13) {
                assert_eq!(s.at(&[i, j]), a.at(&[i, j]) + row.at(&[j]));
            }
        }

        // Row-parallel softmax.
        let sm = softmax_last(&a);
        for srow in sm.data().chunks_exact(c) {
            assert!((srow.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }

        // Outer-parallel axis reduction (axis 1: outer = 64 rows).
        let sums = sum_axis(&a, 1, false).unwrap();
        for (i, arow) in a.data().chunks_exact(c).enumerate() {
            assert_eq!(sums.data()[i], arow.iter().fold(0.0f32, |acc, &x| acc + x));
        }
    }

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn matmul_transb_matches_composition_bitwise() {
        // Cover: packed path (m >= 8), small-m fallback, ragged n (partial
        // stripe), and the batched / shared-B ranks.
        for &(m, k, n) in &[
            (32usize, 32usize, 361usize),
            (3, 16, 21),
            (9, 5, 8),
            (1, 7, 13),
        ] {
            let a = t(pseudo(m * k, 1), vec![m, k]);
            let b = t(pseudo(n * k, 2), vec![n, k]);
            let fused = matmul_transb(&a, &b).unwrap();
            let reference = matmul(&a, &transpose_last2(&b).unwrap()).unwrap();
            assert_eq!(fused.dims(), &[m, n]);
            assert_eq!(fused.data(), reference.data(), "NT m={m} k={k} n={n}");
        }

        let a = t(pseudo(2 * 9 * 6, 3), vec![2, 9, 6]);
        let b = t(pseudo(2 * 11 * 6, 4), vec![2, 11, 6]);
        let fused = matmul_transb(&a, &b).unwrap();
        let reference = matmul(&a, &transpose_last2(&b).unwrap()).unwrap();
        assert_eq!(fused.dims(), &[2, 9, 11]);
        assert_eq!(fused.data(), reference.data());

        let shared = t(pseudo(11 * 6, 5), vec![11, 6]);
        let fused = matmul_transb(&a, &shared).unwrap();
        let reference = matmul(&a, &transpose_last2(&shared).unwrap()).unwrap();
        assert_eq!(fused.dims(), &[2, 9, 11]);
        assert_eq!(fused.data(), reference.data());

        assert!(matmul_transb(&t(pseudo(6, 0), vec![2, 3]), &t(pseudo(8, 0), vec![2, 4])).is_err());
    }

    #[test]
    fn matmul_transa_matches_composition_bitwise() {
        for &(m, k, n) in &[(32usize, 24usize, 19usize), (3, 40, 17), (12, 4, 4)] {
            let a = t(pseudo(k * m, 6), vec![k, m]);
            let b = t(pseudo(k * n, 7), vec![k, n]);
            let fused = matmul_transa(&a, &b).unwrap();
            let reference = matmul(&transpose_last2(&a).unwrap(), &b).unwrap();
            assert_eq!(fused.dims(), &[m, n]);
            assert_eq!(fused.data(), reference.data(), "TN m={m} k={k} n={n}");
        }

        let a = t(pseudo(2 * 5 * 9, 8), vec![2, 5, 9]);
        let b = t(pseudo(2 * 5 * 7, 9), vec![2, 5, 7]);
        let fused = matmul_transa(&a, &b).unwrap();
        let reference = matmul(&transpose_last2(&a).unwrap(), &b).unwrap();
        assert_eq!(fused.dims(), &[2, 9, 7]);
        assert_eq!(fused.data(), reference.data());

        assert!(
            matmul_transa(&t(pseudo(6, 0), vec![2, 3]), &t(pseudo(12, 0), vec![3, 4])).is_err()
        );
    }

    #[test]
    fn fused_parallel_path_matches_serial() {
        // Force the rayon row-block path and check it against the serial
        // result (which the composition test already pins down).
        let (m, k, n) = (48usize, 16usize, 33usize);
        let a = t(pseudo(m * k, 10), vec![m, k]);
        let b = t(pseudo(n * k, 11), vec![n, k]);
        let serial = matmul_transb(&a, &b).unwrap();
        let (rows, work) = (
            crate::tuning::gemm_par_rows(),
            crate::tuning::gemm_par_row_work(),
        );
        crate::tuning::set_gemm_par_rows(1);
        crate::tuning::set_gemm_par_row_work(1);
        let parallel = matmul_transb(&a, &b).unwrap();
        let at = t(pseudo(k * m, 12), vec![k, m]);
        let bt = t(pseudo(k * n, 13), vec![k, n]);
        crate::tuning::set_gemm_par_rows(rows);
        crate::tuning::set_gemm_par_row_work(work);
        let serial_tn = matmul_transa(&at, &bt).unwrap();
        crate::tuning::set_gemm_par_rows(1);
        crate::tuning::set_gemm_par_row_work(1);
        let parallel_tn = matmul_transa(&at, &bt).unwrap();
        crate::tuning::set_gemm_par_rows(rows);
        crate::tuning::set_gemm_par_row_work(work);
        assert_eq!(serial.data(), parallel.data());
        assert_eq!(serial_tn.data(), parallel_tn.data());
    }

    #[test]
    fn masked_matmul_matches_dense_on_padded_input() {
        let (m, k, n) = (6usize, 10usize, 9usize);
        let mut av = pseudo(m * k, 14);
        // Zero out most of `a`, as a padded batch would.
        for (i, x) in av.iter_mut().enumerate() {
            if i % 4 != 0 {
                *x = 0.0;
            }
        }
        let a = t(av, vec![m, k]);
        let b = t(pseudo(k * n, 15), vec![k, n]);
        let masked = matmul2d_masked(&a, &b).unwrap();
        let dense = matmul2d(&a, &b).unwrap();
        assert_eq!(masked.data(), dense.data());
        assert!(matmul2d_masked(&a, &t(pseudo(8, 0), vec![2, 4])).is_err());
    }

    #[test]
    fn gather_scatter_round_trip() {
        let table = Tensor::arange(8).reshape(vec![4, 2]).unwrap();
        let picked = index_select_rows(&table, &[3, 0, 3]).unwrap();
        assert_eq!(picked.data(), &[6.0, 7.0, 0.0, 1.0, 6.0, 7.0]);

        let mut grad = Tensor::zeros(vec![4, 2]);
        let upstream = Tensor::ones(vec![3, 2]);
        scatter_add_rows(&mut grad, &[3, 0, 3], &upstream);
        assert_eq!(grad.row(3), &[2.0, 2.0]);
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);

        assert!(index_select_rows(&table, &[4]).is_err());
    }
}
