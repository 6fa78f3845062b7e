//! Runtime-dispatched SIMD kernels for the GEMM micro-layer.
//!
//! This is the only module in the crate that uses `unsafe` (the crate is
//! `#![deny(unsafe_code)]` with a scoped allow here): `std::arch` intrinsics
//! take raw pointers, and `#[target_feature]` functions are unsafe to call
//! on stable Rust. Every unsafe block is bounded by slice lengths checked
//! (or `debug_assert!`ed) at the function head, and no kernel ever reads or
//! writes outside its argument slices.
//!
//! # Determinism contract
//!
//! The PR 7 determinism classifier (`crate::determinism`) pins every GEMM
//! and reduction op `ReassocClass::FixedOrder`: each output element must be
//! one strict, serial accumulation chain in `kk` order starting at `+0.0`.
//! The SIMD kernels here respect that by vectorising **across output
//! elements, never across the reduction axis**:
//!
//! * one vector lane == one output column, so each lane carries exactly the
//!   scalar kernel's chain for that element;
//! * multiply and add are issued as *separate* intrinsics (`mul_ps` then
//!   `add_ps`, `vmulq` then `vaddq`) — never FMA, which would skip the
//!   intermediate rounding and change bits vs the scalar `a * b + c`;
//! * lane order is fixed by the load/store addressing, so results are
//!   bitwise-identical to the scalar micro-kernel, on every input,
//!   including NaN/Inf payloads.
//!
//! `ReassocSafe` ops are allowed wider, reassociating accumulators; the only
//! such kernel here is [`max_abs`] (order-independent for finite inputs),
//! used to derive int8 quantisation scales outside any tape op. The
//! elementwise binary kernels are lane-pure (no reduction at all) and are
//! bitwise-identical to scalar trivially.
//!
//! Every op with a SIMD path must be declared in
//! `crate::determinism::SIMD_OPS`; `analysis::determinism` fails `msgc
//! check` for any op that gains a kernel here without a declared class.
//!
//! # Dispatch
//!
//! [`active`] combines a one-time hardware probe
//! (`is_x86_feature_detected!("avx2")`, cached in a `OnceLock`; NEON is
//! baseline on aarch64) with the `META_SGCL_SIMD` kill switch read from
//! `crate::tuning` on every call (one relaxed atomic load), so tests can
//! flip paths in-process. `META_SGCL_SIMD=0` restores the
//! exact scalar PR 3 behaviour. Whole loops live inside the
//! `#[target_feature]` functions: calls across the feature boundary do not
//! inline, so the boundary is crossed once per kernel, not once per step.

#![allow(unsafe_code)]

/// Which kernel family [`active`] resolved to for this call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable scalar fallback (also the `META_SGCL_SIMD=0` path).
    Scalar,
    /// AVX2 8-lane f32 kernels (x86_64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// NEON 4-lane f32 kernels (aarch64 baseline).
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::Scalar => write!(f, "scalar"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => write!(f, "avx2"),
            #[cfg(target_arch = "aarch64")]
            Level::Neon => write!(f, "neon"),
        }
    }
}

/// One-time hardware capability probe, independent of the kill switch.
pub fn hardware_level() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        if *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2")) {
            Level::Avx2
        } else {
            Level::Scalar
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline ISA; no runtime probe needed.
        Level::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Level::Scalar
    }
}

/// The dispatch level for this call: hardware capability gated by the
/// `META_SGCL_SIMD` kill switch (one relaxed atomic load).
#[inline]
pub fn active() -> Level {
    if !crate::tuning::simd_enabled() {
        return Level::Scalar;
    }
    hardware_level()
}

/// Elementwise binary kernels with a SIMD path (same-shape fast path only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

// ---------------------------------------------------------------------------
// Portable scalar kernels (the fallback AND the reference semantics).
// ---------------------------------------------------------------------------

/// Scalar 4×8 stripe accumulator — the PR 3 micro-kernel inner loop,
/// extracted so the SIMD variants have one definition to be bitwise-equal
/// to. `apanel` is kk-major and compact: `apanel[kk*4 + r]` is the A value
/// for row `r` at step `kk`; `bpanel` is kk-major 8-wide
/// (`bpanel[kk*8 + c]`). Accumulates `k = bpanel.len()/8` steps into `acc`
/// in strict `kk` order.
pub fn stripe_acc_scalar(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; 8]; 4]) {
    for (bpanel_row, apanel_row) in bpanel.chunks_exact(8).zip(apanel.chunks_exact(4)) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = apanel_row[r];
            for (o, &bv) in accr.iter_mut().zip(bpanel_row) {
                *o += av * bv;
            }
        }
    }
}

fn gemm_row_scalar(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
    for (kk, &aik) in a_row.iter().take(k).enumerate() {
        let b_row = &b[kk * n..kk * n + n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += aik * bv;
        }
    }
}

fn binary_scalar(kind: BinKind, a: &[f32], b: &[f32], out: &mut [f32]) {
    match kind {
        BinKind::Add => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x + y;
            }
        }
        BinKind::Sub => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x - y;
            }
        }
        BinKind::Mul => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x * y;
            }
        }
        BinKind::Div => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x / y;
            }
        }
    }
}

fn dequant_bf16_scalar(src: &[u16], dst: &mut [f32]) {
    for (d, &bits) in dst.iter_mut().zip(src) {
        *d = f32::from_bits((bits as u32) << 16);
    }
}

fn max_abs_scalar(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BinKind;
    use std::arch::x86_64::*;

    /// AVX2 stripe accumulator: 4 rows × 8 columns, one `__m256` per row,
    /// whole `k` loop inside the feature boundary. One lane == one output
    /// column; separate `mul_ps`/`add_ps` (no FMA) keeps each lane's chain
    /// bitwise-identical to [`super::stripe_acc_scalar`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `bpanel.len() % 8 == 0`, and
    /// `apanel.len() >= (bpanel.len()/8) * 4`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn stripe_acc(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; 8]; 4]) {
        let k = bpanel.len() / 8;
        debug_assert!(apanel.len() >= k * 4);
        let ap = apanel.as_ptr();
        let bp = bpanel.as_ptr();
        let mut r0 = _mm256_setzero_ps();
        let mut r1 = _mm256_setzero_ps();
        let mut r2 = _mm256_setzero_ps();
        let mut r3 = _mm256_setzero_ps();
        for kk in 0..k {
            let bv = _mm256_loadu_ps(bp.add(kk * 8));
            let a = ap.add(kk * 4);
            r0 = _mm256_add_ps(r0, _mm256_mul_ps(_mm256_broadcast_ss(&*a), bv));
            r1 = _mm256_add_ps(r1, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(1)), bv));
            r2 = _mm256_add_ps(r2, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(2)), bv));
            r3 = _mm256_add_ps(r3, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(3)), bv));
        }
        _mm256_storeu_ps(acc[0].as_mut_ptr(), r0);
        _mm256_storeu_ps(acc[1].as_mut_ptr(), r1);
        _mm256_storeu_ps(acc[2].as_mut_ptr(), r2);
        _mm256_storeu_ps(acc[3].as_mut_ptr(), r3);
    }

    /// Dual-stripe AVX2 accumulator: one 4×8 block against two adjacent B
    /// stripes at once. Each A broadcast is reused for both stripes, halving
    /// the load traffic per FLOP, and the 8 independent accumulator chains
    /// hide `add_ps` latency. Per output element the chain is identical to
    /// the single-stripe kernel (same `kk` order, separate mul/add), so the
    /// stripe pairing never changes bits.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `b0.len() == b1.len()`,
    /// `b0.len() % 8 == 0`, and `apanel.len() >= (b0.len()/8) * 4`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn stripe_acc2(
        apanel: &[f32],
        b0: &[f32],
        b1: &[f32],
        acc0: &mut [[f32; 8]; 4],
        acc1: &mut [[f32; 8]; 4],
    ) {
        let k = b0.len() / 8;
        debug_assert!(b1.len() == b0.len() && apanel.len() >= k * 4);
        let ap = apanel.as_ptr();
        let (p0, p1) = (b0.as_ptr(), b1.as_ptr());
        let mut s00 = _mm256_setzero_ps();
        let mut s01 = _mm256_setzero_ps();
        let mut s02 = _mm256_setzero_ps();
        let mut s03 = _mm256_setzero_ps();
        let mut s10 = _mm256_setzero_ps();
        let mut s11 = _mm256_setzero_ps();
        let mut s12 = _mm256_setzero_ps();
        let mut s13 = _mm256_setzero_ps();
        for kk in 0..k {
            let bv0 = _mm256_loadu_ps(p0.add(kk * 8));
            let bv1 = _mm256_loadu_ps(p1.add(kk * 8));
            let a = ap.add(kk * 4);
            let a0 = _mm256_broadcast_ss(&*a);
            let a1 = _mm256_broadcast_ss(&*a.add(1));
            let a2 = _mm256_broadcast_ss(&*a.add(2));
            let a3 = _mm256_broadcast_ss(&*a.add(3));
            s00 = _mm256_add_ps(s00, _mm256_mul_ps(a0, bv0));
            s10 = _mm256_add_ps(s10, _mm256_mul_ps(a0, bv1));
            s01 = _mm256_add_ps(s01, _mm256_mul_ps(a1, bv0));
            s11 = _mm256_add_ps(s11, _mm256_mul_ps(a1, bv1));
            s02 = _mm256_add_ps(s02, _mm256_mul_ps(a2, bv0));
            s12 = _mm256_add_ps(s12, _mm256_mul_ps(a2, bv1));
            s03 = _mm256_add_ps(s03, _mm256_mul_ps(a3, bv0));
            s13 = _mm256_add_ps(s13, _mm256_mul_ps(a3, bv1));
        }
        _mm256_storeu_ps(acc0[0].as_mut_ptr(), s00);
        _mm256_storeu_ps(acc0[1].as_mut_ptr(), s01);
        _mm256_storeu_ps(acc0[2].as_mut_ptr(), s02);
        _mm256_storeu_ps(acc0[3].as_mut_ptr(), s03);
        _mm256_storeu_ps(acc1[0].as_mut_ptr(), s10);
        _mm256_storeu_ps(acc1[1].as_mut_ptr(), s11);
        _mm256_storeu_ps(acc1[2].as_mut_ptr(), s12);
        _mm256_storeu_ps(acc1[3].as_mut_ptr(), s13);
    }

    /// AVX2 dense axpy row: `out_row[j] += a_row[kk] * b[kk*n + j]` in
    /// strict `kk`-outer order, 8 columns per step, scalar tail in the same
    /// left-to-right column order.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `a_row.len() >= k`,
    /// `b.len() >= k*n`, `out_row.len() >= n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        debug_assert!(a_row.len() >= k && b.len() >= k * n && out_row.len() >= n);
        let op = out_row.as_mut_ptr();
        for kk in 0..k {
            let aik = *a_row.get_unchecked(kk);
            let av = _mm256_set1_ps(aik);
            let brow = b.as_ptr().add(kk * n);
            let mut j = 0;
            while j + 8 <= n {
                let bv = _mm256_loadu_ps(brow.add(j));
                let ov = _mm256_loadu_ps(op.add(j));
                _mm256_storeu_ps(op.add(j), _mm256_add_ps(ov, _mm256_mul_ps(av, bv)));
                j += 8;
            }
            while j < n {
                *op.add(j) += aik * *brow.add(j);
                j += 1;
            }
        }
    }

    /// AVX2 same-shape elementwise binary kernel (lane-pure, bitwise equal
    /// to scalar for every kind).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and
    /// `a.len() == b.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn binary(kind: BinKind, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert!(a.len() == out.len() && b.len() == out.len());
        let n = out.len();
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        macro_rules! run {
            ($vop:ident, $sop:tt) => {{
                let mut i = 0;
                while i + 8 <= n {
                    let av = _mm256_loadu_ps(ap.add(i));
                    let bv = _mm256_loadu_ps(bp.add(i));
                    _mm256_storeu_ps(op.add(i), $vop(av, bv));
                    i += 8;
                }
                while i < n {
                    *op.add(i) = *ap.add(i) $sop *bp.add(i);
                    i += 1;
                }
            }};
        }
        match kind {
            BinKind::Add => run!(_mm256_add_ps, +),
            BinKind::Sub => run!(_mm256_sub_ps, -),
            BinKind::Mul => run!(_mm256_mul_ps, *),
            BinKind::Div => run!(_mm256_div_ps, /),
        }
    }

    /// AVX2 bf16 → f32 widening (exact: shift into the high mantissa bits).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `src.len() == dst.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequant_bf16(src: &[u16], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let half = _mm_loadu_si128(sp.add(i) as *const __m128i);
            let wide = _mm256_cvtepu16_epi32(half);
            let bits = _mm256_slli_epi32(wide, 16);
            _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(bits));
            i += 8;
        }
        while i < n {
            *dp.add(i) = f32::from_bits((*sp.add(i) as u32) << 16);
            i += 1;
        }
    }

    /// AVX2 reassociating max-abs reduction (order-independent for finite
    /// inputs; NaN inputs are ignored like `f32::max`).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs(xs: &[f32]) -> f32 {
        let n = xs.len();
        let p = xs.as_ptr();
        let sign_mask = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(p.add(i)));
            acc = _mm256_max_ps(acc, v);
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &x| m.max(x));
        while i < n {
            m = m.max((*p.add(i)).abs());
            i += 1;
        }
        m
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::BinKind;
    use std::arch::aarch64::*;

    /// NEON stripe accumulator: two `float32x4` per row (columns 0..4 and
    /// 4..8), separate `vmulq`/`vaddq` (no fused `vfmaq`), strict `kk`
    /// order — bitwise-identical to [`super::stripe_acc_scalar`].
    ///
    /// # Safety
    /// Caller must ensure `bpanel.len() % 8 == 0` and
    /// `apanel.len() >= (bpanel.len()/8) * 4`.
    #[target_feature(enable = "neon")]
    pub unsafe fn stripe_acc(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; 8]; 4]) {
        let k = bpanel.len() / 8;
        debug_assert!(apanel.len() >= k * 4);
        let ap = apanel.as_ptr();
        let bp = bpanel.as_ptr();
        let mut lo = [vdupq_n_f32(0.0); 4];
        let mut hi = [vdupq_n_f32(0.0); 4];
        for kk in 0..k {
            let blo = vld1q_f32(bp.add(kk * 8));
            let bhi = vld1q_f32(bp.add(kk * 8 + 4));
            for r in 0..4 {
                let av = vdupq_n_f32(*ap.add(kk * 4 + r));
                lo[r] = vaddq_f32(lo[r], vmulq_f32(av, blo));
                hi[r] = vaddq_f32(hi[r], vmulq_f32(av, bhi));
            }
        }
        for r in 0..4 {
            vst1q_f32(acc[r].as_mut_ptr(), lo[r]);
            vst1q_f32(acc[r].as_mut_ptr().add(4), hi[r]);
        }
    }

    /// Dual-stripe NEON accumulator (see the AVX2 twin for the rationale;
    /// bitwise-identical to two single-stripe calls by construction).
    ///
    /// # Safety
    /// Caller must ensure `b0.len() == b1.len()`, `b0.len() % 8 == 0`, and
    /// `apanel.len() >= (b0.len()/8) * 4`.
    #[target_feature(enable = "neon")]
    pub unsafe fn stripe_acc2(
        apanel: &[f32],
        b0: &[f32],
        b1: &[f32],
        acc0: &mut [[f32; 8]; 4],
        acc1: &mut [[f32; 8]; 4],
    ) {
        let k = b0.len() / 8;
        debug_assert!(b1.len() == b0.len() && apanel.len() >= k * 4);
        let ap = apanel.as_ptr();
        let (p0, p1) = (b0.as_ptr(), b1.as_ptr());
        let mut s0 = [[vdupq_n_f32(0.0); 4]; 4];
        let mut s1 = [[vdupq_n_f32(0.0); 4]; 4];
        for kk in 0..k {
            let b0lo = vld1q_f32(p0.add(kk * 8));
            let b0hi = vld1q_f32(p0.add(kk * 8 + 4));
            let b1lo = vld1q_f32(p1.add(kk * 8));
            let b1hi = vld1q_f32(p1.add(kk * 8 + 4));
            for r in 0..4 {
                let av = vdupq_n_f32(*ap.add(kk * 4 + r));
                s0[r][0] = vaddq_f32(s0[r][0], vmulq_f32(av, b0lo));
                s0[r][1] = vaddq_f32(s0[r][1], vmulq_f32(av, b0hi));
                s1[r][0] = vaddq_f32(s1[r][0], vmulq_f32(av, b1lo));
                s1[r][1] = vaddq_f32(s1[r][1], vmulq_f32(av, b1hi));
            }
        }
        for r in 0..4 {
            vst1q_f32(acc0[r].as_mut_ptr(), s0[r][0]);
            vst1q_f32(acc0[r].as_mut_ptr().add(4), s0[r][1]);
            vst1q_f32(acc1[r].as_mut_ptr(), s1[r][0]);
            vst1q_f32(acc1[r].as_mut_ptr().add(4), s1[r][1]);
        }
    }

    /// NEON dense axpy row (`kk`-outer, 4 columns per step, scalar tail).
    ///
    /// # Safety
    /// Caller must ensure `a_row.len() >= k`, `b.len() >= k*n`,
    /// `out_row.len() >= n`.
    #[target_feature(enable = "neon")]
    pub unsafe fn gemm_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        debug_assert!(a_row.len() >= k && b.len() >= k * n && out_row.len() >= n);
        let op = out_row.as_mut_ptr();
        for kk in 0..k {
            let aik = *a_row.get_unchecked(kk);
            let av = vdupq_n_f32(aik);
            let brow = b.as_ptr().add(kk * n);
            let mut j = 0;
            while j + 4 <= n {
                let bv = vld1q_f32(brow.add(j));
                let ov = vld1q_f32(op.add(j));
                vst1q_f32(op.add(j), vaddq_f32(ov, vmulq_f32(av, bv)));
                j += 4;
            }
            while j < n {
                *op.add(j) += aik * *brow.add(j);
                j += 1;
            }
        }
    }

    /// NEON same-shape elementwise binary kernel.
    ///
    /// # Safety
    /// Caller must ensure `a.len() == b.len() == out.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn binary(kind: BinKind, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert!(a.len() == out.len() && b.len() == out.len());
        let n = out.len();
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        macro_rules! run {
            ($vop:ident, $sop:tt) => {{
                let mut i = 0;
                while i + 4 <= n {
                    let av = vld1q_f32(ap.add(i));
                    let bv = vld1q_f32(bp.add(i));
                    vst1q_f32(op.add(i), $vop(av, bv));
                    i += 4;
                }
                while i < n {
                    *op.add(i) = *ap.add(i) $sop *bp.add(i);
                    i += 1;
                }
            }};
        }
        match kind {
            BinKind::Add => run!(vaddq_f32, +),
            BinKind::Sub => run!(vsubq_f32, -),
            BinKind::Mul => run!(vmulq_f32, *),
            BinKind::Div => run!(vdivq_f32, /),
        }
    }

    /// NEON bf16 → f32 widening (exact).
    ///
    /// # Safety
    /// Caller must ensure `src.len() == dst.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dequant_bf16(src: &[u16], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let half = vld1_u16(sp.add(i));
            let wide = vshll_n_u16::<16>(half);
            vst1q_f32(dp.add(i), vreinterpretq_f32_u32(wide));
            i += 4;
        }
        while i < n {
            *dp.add(i) = f32::from_bits((*sp.add(i) as u32) << 16);
            i += 1;
        }
    }

    /// NEON reassociating max-abs reduction.
    ///
    /// # Safety
    /// Always safe to call on aarch64 (NEON is baseline); marked unsafe for
    /// symmetry with the AVX2 twin.
    #[target_feature(enable = "neon")]
    pub unsafe fn max_abs(xs: &[f32]) -> f32 {
        let n = xs.len();
        let p = xs.as_ptr();
        let mut acc = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 4 <= n {
            acc = vmaxq_f32(acc, vabsq_f32(vld1q_f32(p.add(i))));
            i += 4;
        }
        let mut m = vmaxvq_f32(acc);
        while i < n {
            m = m.max((*p.add(i)).abs());
            i += 1;
        }
        m
    }
}

// ---------------------------------------------------------------------------
// Dispatch wrappers (safe API used by `ops` and `qmat`).
// ---------------------------------------------------------------------------

/// 4×8 stripe accumulation at the given dispatch level (see
/// [`stripe_acc_scalar`] for the panel layout). Bitwise-identical across
/// levels by construction.
#[inline]
pub fn stripe_acc(level: Level, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; 8]; 4]) {
    debug_assert_eq!(bpanel.len() % 8, 0);
    debug_assert!(apanel.len() >= (bpanel.len() / 8) * 4);
    match level {
        Level::Scalar => stripe_acc_scalar(apanel, bpanel, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Level::Avx2 is only constructed after a successful
        // is_x86_feature_detected!("avx2") probe; panel bounds checked above.
        Level::Avx2 => unsafe { avx2::stripe_acc(apanel, bpanel, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; panel bounds checked above.
        Level::Neon => unsafe { neon::stripe_acc(apanel, bpanel, acc) },
    }
}

/// Dual-stripe 4×8 accumulation: one A block against two adjacent B
/// stripes, reusing each A broadcast across both. Falls back to two
/// [`stripe_acc`] calls at scalar level. Bitwise-identical to the
/// single-stripe kernel per output element at every level.
#[inline]
pub fn stripe_acc2(
    level: Level,
    apanel: &[f32],
    b0: &[f32],
    b1: &[f32],
    acc0: &mut [[f32; 8]; 4],
    acc1: &mut [[f32; 8]; 4],
) {
    debug_assert!(b0.len() == b1.len() && b0.len().is_multiple_of(8));
    debug_assert!(apanel.len() >= (b0.len() / 8) * 4);
    match level {
        Level::Scalar => {
            stripe_acc_scalar(apanel, b0, acc0);
            stripe_acc_scalar(apanel, b1, acc1);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Level::Avx2 implies a successful AVX2 probe; stripe pair
        // and panel bounds checked above.
        Level::Avx2 => unsafe { avx2::stripe_acc2(apanel, b0, b1, acc0, acc1) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; bounds checked above.
        Level::Neon => unsafe { neon::stripe_acc2(apanel, b0, b1, acc0, acc1) },
    }
}

/// Dense axpy GEMM row (`out_row += a_row ⋅ B`), strict `kk`-outer order at
/// every level. Bitwise-identical across levels by construction.
#[inline]
pub fn gemm_row(level: Level, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
    debug_assert!(a_row.len() >= k && b.len() >= k * n && out_row.len() >= n);
    match level {
        Level::Scalar => gemm_row_scalar(a_row, b, out_row, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Level::Avx2 implies a successful AVX2 probe; slice bounds
        // checked above.
        Level::Avx2 => unsafe { avx2::gemm_row(a_row, b, out_row, k, n) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; slice bounds checked above.
        Level::Neon => unsafe { neon::gemm_row(a_row, b, out_row, k, n) },
    }
}

/// Same-shape elementwise binary op at the given level (lane-pure; bitwise
/// equal to scalar at every level).
#[inline]
pub fn binary(level: Level, kind: BinKind, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() == out.len() && b.len() == out.len());
    match level {
        Level::Scalar => binary_scalar(kind, a, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Level::Avx2 implies a successful AVX2 probe; equal lengths
        // asserted above.
        Level::Avx2 => unsafe { avx2::binary(kind, a, b, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; equal lengths asserted above.
        Level::Neon => unsafe { neon::binary(kind, a, b, out) },
    }
}

/// Widens bf16 (stored as raw `u16` bit patterns) to f32. The conversion is
/// exact — bf16 is the top half of the f32 bit pattern — so every level
/// produces identical bytes.
#[inline]
pub fn dequant_bf16(dst: &mut [f32], src: &[u16]) {
    assert_eq!(src.len(), dst.len());
    match active() {
        Level::Scalar => dequant_bf16_scalar(src, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Level::Avx2 implies a successful AVX2 probe; equal lengths
        // asserted above.
        Level::Avx2 => unsafe { avx2::dequant_bf16(src, dst) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; equal lengths asserted above.
        Level::Neon => unsafe { neon::dequant_bf16(src, dst) },
    }
}

/// Maximum absolute value (reassociating wide accumulator — classified
/// `ReassocSafe` usage only; identical to the scalar fold for all finite
/// inputs because `max` is order-independent). Used for int8 quantisation
/// scales; never inside a `FixedOrder` tape op.
#[inline]
pub fn max_abs(xs: &[f32]) -> f32 {
    match active() {
        Level::Scalar => max_abs_scalar(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Level::Avx2 implies a successful AVX2 probe.
        Level::Avx2 => unsafe { avx2::max_abs(xs) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        Level::Neon => unsafe { neon::max_abs(xs) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn kill_switch_forces_scalar() {
        crate::tuning::set_simd_enabled(false);
        assert_eq!(active(), Level::Scalar);
        crate::tuning::set_simd_enabled(true);
        assert_eq!(active(), hardware_level());
    }

    #[test]
    fn stripe_acc_levels_bitwise_equal() {
        for k in [1usize, 3, 7, 32, 65] {
            // The A panel is kk-major compact: apanel[kk*4 + r], exactly as
            // `ops::pack_a_quad` lays it out.
            let apanel = pseudo(k * 4, 11 + k as u32);
            let bpanel = pseudo(k * 8, 23 + k as u32);
            let mut want = [[0.0f32; 8]; 4];
            stripe_acc_scalar(&apanel, &bpanel, &mut want);
            let mut got = [[0.0f32; 8]; 4];
            stripe_acc(hardware_level(), &apanel, &bpanel, &mut got);
            for r in 0..4 {
                for c in 0..8 {
                    assert_eq!(
                        want[r][c].to_bits(),
                        got[r][c].to_bits(),
                        "stripe acc[{r}][{c}] differs at k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn dual_stripe_matches_two_single_stripes_bitwise() {
        for k in [1usize, 5, 32, 63] {
            let apanel = pseudo(k * 4, 41 + k as u32);
            let b0 = pseudo(k * 8, 43);
            let b1 = pseudo(k * 8, 47);
            let (mut w0, mut w1) = ([[0.0f32; 8]; 4], [[0.0f32; 8]; 4]);
            stripe_acc_scalar(&apanel, &b0, &mut w0);
            stripe_acc_scalar(&apanel, &b1, &mut w1);
            let (mut g0, mut g1) = ([[0.0f32; 8]; 4], [[0.0f32; 8]; 4]);
            stripe_acc2(hardware_level(), &apanel, &b0, &b1, &mut g0, &mut g1);
            for r in 0..4 {
                for c in 0..8 {
                    assert_eq!(
                        w0[r][c].to_bits(),
                        g0[r][c].to_bits(),
                        "acc0[{r}][{c}] k={k}"
                    );
                    assert_eq!(
                        w1[r][c].to_bits(),
                        g1[r][c].to_bits(),
                        "acc1[{r}][{c}] k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_row_levels_bitwise_equal() {
        for (k, n) in [(1usize, 1usize), (5, 7), (8, 8), (13, 33), (32, 361)] {
            let a_row = pseudo(k, 3);
            let b = pseudo(k * n, 5);
            let mut want = vec![0.0f32; n];
            gemm_row(Level::Scalar, &a_row, &b, &mut want, k, n);
            let mut got = vec![0.0f32; n];
            gemm_row(hardware_level(), &a_row, &b, &mut got, k, n);
            for j in 0..n {
                assert_eq!(
                    want[j].to_bits(),
                    got[j].to_bits(),
                    "gemm_row[{j}] differs at k={k} n={n}"
                );
            }
        }
    }

    #[test]
    fn binary_levels_bitwise_equal() {
        for n in [1usize, 4, 8, 9, 31, 256] {
            let a = pseudo(n, 7);
            let b: Vec<f32> = pseudo(n, 9).iter().map(|x| x + 1.5).collect();
            for kind in [BinKind::Add, BinKind::Sub, BinKind::Mul, BinKind::Div] {
                let mut want = vec![0.0f32; n];
                binary(Level::Scalar, kind, &a, &b, &mut want);
                let mut got = vec![0.0f32; n];
                binary(hardware_level(), kind, &a, &b, &mut got);
                for j in 0..n {
                    assert_eq!(
                        want[j].to_bits(),
                        got[j].to_bits(),
                        "{kind:?}[{j}] at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn dequant_bf16_is_exact_shift() {
        let bits: Vec<u16> = (0..1000u32)
            .map(|i| (i.wrapping_mul(40503) & 0xFFFF) as u16)
            .collect();
        let mut out = vec![0.0f32; bits.len()];
        dequant_bf16(&mut out, &bits);
        for (o, &b) in out.iter().zip(&bits) {
            assert_eq!(o.to_bits(), (b as u32) << 16);
        }
    }

    #[test]
    fn max_abs_matches_scalar_fold() {
        for n in [0usize, 1, 7, 8, 100] {
            let xs = pseudo(n, 31);
            let want = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            assert_eq!(max_abs(&xs), want);
        }
    }
}
