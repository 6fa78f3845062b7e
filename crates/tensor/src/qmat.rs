//! Quantised storage for frozen (inference-only) weight matrices.
//!
//! `msgc serve` can halve (bf16) or quarter (int8) the resident bytes of
//! frozen module weights. A [`QuantMatrix`] wraps one rank-2 row-major
//! weight in one of three stores:
//!
//! * **f32** — the original [`Tensor`], untouched. This is the default
//!   serving mode; every kernel delegates to the exact PR 3/PR 6 f32 path,
//!   so frozen-forward parity stays bitwise.
//! * **bf16** — the top 16 bits of each f32, rounded to nearest-even.
//!   Dequantisation (`(bits as u32) << 16`) is exact, so the served model
//!   behaves identically to one whose weights were rounded once at load.
//! * **int8** — symmetric per-row scales (`scale = max|row| / 127`),
//!   `q = round(x / scale)` clamped to ±127.
//!
//! Quantised stores are decoded *inside the GEMM packing step*
//! (`ops::matmul_transb_q` / `ops::matmul_q`): the packed stripe panels are
//! filled straight from the compressed bytes via the SIMD bf16 widening
//! kernel, so no full-size f32 copy of a quantised matrix is ever resident.
//! Scale/zero-point derivation uses the reassociating [`crate::simd::max_abs`]
//! reduction — legal because quantisation happens once at load, outside any
//! `FixedOrder` tape op.

use crate::bug::OrBug;
use crate::{simd, Tensor, TensorError};

/// Storage precision for a frozen weight matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Keep the original f32 tensor (bitwise-identical serving).
    F32,
    /// bf16: upper 16 bits of f32, round-to-nearest-even. 2 bytes/weight.
    Bf16,
    /// int8 with a per-row symmetric scale. 1 byte/weight + 4 bytes/row.
    Int8,
}

impl QuantMode {
    /// Parses a CLI spelling (`none`/`f32`, `bf16`, `int8`).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "none" | "f32" => Some(QuantMode::F32),
            "bf16" => Some(QuantMode::Bf16),
            "int8" => Some(QuantMode::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantMode::F32 => write!(f, "f32"),
            QuantMode::Bf16 => write!(f, "bf16"),
            QuantMode::Int8 => write!(f, "int8"),
        }
    }
}

/// Rounds an f32 to bf16 (round-to-nearest-even), returning the raw bits.
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Preserve NaN-ness: keep the sign/exponent, force a quiet payload
        // bit so truncation cannot produce Inf.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bias = 0x7FFF + ((bits >> 16) & 1);
    (bits.wrapping_add(round_bias) >> 16) as u16
}

/// Widens bf16 raw bits back to f32 (exact).
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

#[derive(Debug, Clone)]
pub(crate) enum Store {
    F32(Tensor),
    Bf16(Vec<u16>),
    Int8 { q: Vec<i8>, scales: Vec<f32> },
}

/// A rank-2 row-major weight matrix in f32, bf16, or int8 storage.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    pub(crate) store: Store,
}

impl QuantMatrix {
    /// Wraps `t` (must be rank 2) in the requested storage mode. `F32`
    /// moves the tensor in without copying; the quantised modes encode once
    /// and drop the f32 data.
    pub fn from_tensor(t: Tensor, mode: QuantMode) -> crate::Result<QuantMatrix> {
        if t.shape().dims().len() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "quantize",
                lhs: t.shape().dims().to_vec(),
                rhs: vec![],
            });
        }
        let rows = t.shape().dims()[0];
        let cols = t.shape().dims()[1];
        let store = match mode {
            QuantMode::F32 => Store::F32(t),
            QuantMode::Bf16 => Store::Bf16(t.data().iter().map(|&x| f32_to_bf16(x)).collect()),
            QuantMode::Int8 => {
                let data = t.data();
                let mut q = Vec::with_capacity(rows * cols);
                let mut scales = Vec::with_capacity(rows);
                for r in 0..rows {
                    let row = &data[r * cols..(r + 1) * cols];
                    let m = simd::max_abs(row);
                    let scale = if m > 0.0 { m / 127.0 } else { 1.0 };
                    scales.push(scale);
                    for &x in row {
                        q.push((x / scale).round().clamp(-127.0, 127.0) as i8);
                    }
                }
                Store::Int8 { q, scales }
            }
        };
        Ok(QuantMatrix { rows, cols, store })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The storage mode this matrix currently holds.
    pub fn mode(&self) -> QuantMode {
        match &self.store {
            Store::F32(_) => QuantMode::F32,
            Store::Bf16(_) => QuantMode::Bf16,
            Store::Int8 { .. } => QuantMode::Int8,
        }
    }

    /// Bytes resident for the weight payload (excludes struct overhead).
    pub fn resident_bytes(&self) -> usize {
        match &self.store {
            Store::F32(_) => self.rows * self.cols * 4,
            Store::Bf16(_) => self.rows * self.cols * 2,
            Store::Int8 { .. } => self.rows * self.cols + self.rows * 4,
        }
    }

    /// Borrow of the original tensor when stored as f32 (the bitwise path).
    pub fn as_f32(&self) -> Option<&Tensor> {
        match &self.store {
            Store::F32(t) => Some(t),
            _ => None,
        }
    }

    /// Decodes `dst.len()` elements of row `row` starting at column
    /// `col_start` — the primitive the GEMM packing step uses, so quantised
    /// weights never materialise a full f32 copy.
    pub fn write_row_segment(&self, row: usize, col_start: usize, dst: &mut [f32]) {
        debug_assert!(row < self.rows && col_start + dst.len() <= self.cols);
        let start = row * self.cols + col_start;
        match &self.store {
            Store::F32(t) => dst.copy_from_slice(&t.data()[start..start + dst.len()]),
            Store::Bf16(bits) => simd::dequant_bf16(dst, &bits[start..start + dst.len()]),
            Store::Int8 { q, scales } => {
                let scale = scales[row];
                let src = &q[start..start + dst.len()];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = v as f32 * scale;
                }
            }
        }
    }

    /// Decodes the whole matrix row-major into `dst`
    /// (`dst.len() == rows·cols`). For bf16 this is one SIMD widening pass
    /// over the contiguous payload.
    pub fn decode_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.rows * self.cols);
        match &self.store {
            Store::F32(t) => dst.copy_from_slice(t.data()),
            Store::Bf16(bits) => simd::dequant_bf16(dst, bits),
            Store::Int8 { .. } => {
                for r in 0..self.rows {
                    self.write_row_segment(r, 0, &mut dst[r * self.cols..(r + 1) * self.cols]);
                }
            }
        }
    }

    /// Decodes the full matrix to a dense f32 tensor (`[rows, cols]`).
    pub fn dequantize(&self) -> Tensor {
        match &self.store {
            Store::F32(t) => t.clone(),
            _ => {
                let mut data = vec![0.0f32; self.rows * self.cols];
                self.decode_into(&mut data);
                Tensor::from_vec(data, vec![self.rows, self.cols])
            }
        }
    }

    /// Re-encodes the matrix in place to `mode` (no-op when already
    /// there). F32 → quantised is the intended one-shot load-time path;
    /// quantised → quantised round-trips through f32 and compounds
    /// rounding, so callers should quantise from the f32 original.
    pub fn requantize(&mut self, mode: QuantMode) {
        if self.mode() == mode {
            return;
        }
        let dense = self.dequantize();
        *self = QuantMatrix::from_tensor(dense, mode).or_bug("requantize keeps rank 2");
    }

    /// Gathers the given rows into a dense `[indices.len(), cols]` tensor,
    /// decoding quantised rows on the fly (the frozen-embedding lookup).
    pub fn select_rows(&self, indices: &[usize]) -> crate::Result<Tensor> {
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfRange {
                    index: i,
                    bound: self.rows,
                });
            }
        }
        let mut data = vec![0.0f32; indices.len() * self.cols];
        for (slot, &r) in indices.iter().enumerate() {
            self.write_row_segment(r, 0, &mut data[slot * self.cols..(slot + 1) * self.cols]);
        }
        Ok(Tensor::from_vec(data, vec![indices.len(), self.cols]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect();
        Tensor::from_vec(data, vec![rows, cols])
    }

    #[test]
    fn bf16_round_trip_is_nearest_even() {
        // Values exactly representable in bf16 survive unchanged.
        for x in [0.0f32, -0.0, 1.0, -1.5, 0.25, 240.0, f32::INFINITY] {
            assert_eq!(bf16_to_f32(f32_to_bf16(x)).to_bits(), x.to_bits());
        }
        // Rounding is to nearest (error bounded by half a ulp of bf16).
        for i in 0..1000u32 {
            let x = f32::from_bits(0x3F80_0000 + i * 77);
            let back = bf16_to_f32(f32_to_bf16(x));
            assert!((back - x).abs() <= x.abs() * (1.0 / 256.0));
        }
        // NaN stays NaN.
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn f32_mode_is_zero_copy_passthrough() {
        let t = sample(5, 8, 1);
        let want = t.data().to_vec();
        let q = QuantMatrix::from_tensor(t, QuantMode::F32).unwrap();
        assert_eq!(q.mode(), QuantMode::F32);
        assert_eq!(q.resident_bytes(), 5 * 8 * 4);
        assert_eq!(q.as_f32().unwrap().data(), &want[..]);
        assert_eq!(q.dequantize().data(), &want[..]);
    }

    #[test]
    fn bf16_halves_bytes_and_bounds_error() {
        let t = sample(16, 32, 2);
        let want = t.data().to_vec();
        let q = QuantMatrix::from_tensor(t, QuantMode::Bf16).unwrap();
        assert_eq!(q.resident_bytes(), 16 * 32 * 2);
        let d = q.dequantize();
        for (&got, &x) in d.data().iter().zip(&want) {
            assert!((got - x).abs() <= x.abs() * (1.0 / 256.0) + 1e-30);
        }
    }

    #[test]
    fn int8_quarter_bytes_and_bounds_error() {
        let t = sample(16, 32, 3);
        let want = t.data().to_vec();
        let q = QuantMatrix::from_tensor(t, QuantMode::Int8).unwrap();
        assert_eq!(q.resident_bytes(), 16 * 32 + 16 * 4);
        let d = q.dequantize();
        for (r, row) in want.chunks(32).enumerate() {
            let maxabs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            for (c, &x) in row.iter().enumerate() {
                let got = d.data()[r * 32 + c];
                assert!(
                    (got - x).abs() <= maxabs / 127.0 * 0.5 + 1e-30,
                    "int8 error too large at ({r},{c}): {got} vs {x}"
                );
            }
        }
    }

    #[test]
    fn row_segments_match_dequantize() {
        for mode in [QuantMode::F32, QuantMode::Bf16, QuantMode::Int8] {
            let q = QuantMatrix::from_tensor(sample(7, 13, 4), mode).unwrap();
            let full = q.dequantize();
            let mut seg = vec![0.0f32; 5];
            q.write_row_segment(3, 6, &mut seg);
            assert_eq!(&full.data()[3 * 13 + 6..3 * 13 + 11], &seg[..]);
            let sel = q.select_rows(&[6, 0, 3]).unwrap();
            assert_eq!(&sel.data()[..13], &full.data()[6 * 13..7 * 13]);
            assert_eq!(&sel.data()[26..], &full.data()[3 * 13..4 * 13]);
        }
    }

    #[test]
    fn select_rows_bounds_checked() {
        let q = QuantMatrix::from_tensor(sample(4, 4, 5), QuantMode::Bf16).unwrap();
        assert!(q.select_rows(&[4]).is_err());
    }
}
