//! Dense `f32` tensor library used by the Meta-SGCL reproduction.
//!
//! Tensors are contiguous, row-major, and owned. The design favours
//! simplicity and predictable performance on a single CPU core:
//!
//! * [`Tensor`] — the core container with shape metadata.
//! * [`ops`] — elementwise (with NumPy-style broadcasting), matmul
//!   (2-D and batched 3-D), reductions, softmax, concat/slice/gather.
//! * [`init`] — seeded random initialisation (normal, uniform, Xavier).
//!
//! The crate is `#![deny(unsafe_code)]`; the only exemption is the [`simd`]
//! module, which wraps `std::arch` intrinsics behind runtime feature
//! detection with a documented bitwise-parity contract. Everywhere else,
//! hot loops are written so the compiler can auto-vectorise (slice
//! iteration, no bounds checks in the inner loop thanks to `chunks_exact`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod shape;
mod tensor;

pub mod bug;
pub mod determinism;
pub mod init;
pub mod ops;
pub mod pool;
pub mod qmat;
pub mod rules;
pub mod segment;
pub mod simd;
pub mod tuning;

pub use crate::bug::OrBug;
pub use crate::determinism::{reassoc_class, simd_path, ReassocClass, SimdPath};
pub use crate::qmat::{QuantMatrix, QuantMode};
pub use crate::segment::Segments;
pub use crate::shape::{broadcast_shapes, Shape};
pub use crate::tensor::Tensor;

/// Error type for tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Operation name, e.g. `"matmul"`.
        op: &'static str,
        /// Left-hand-side (or sole) shape.
        lhs: Vec<usize>,
        /// Right-hand-side shape, if the op is binary.
        rhs: Vec<usize>,
    },
    /// An axis argument was out of range for the tensor's rank.
    InvalidAxis {
        /// The requested axis.
        axis: usize,
        /// The tensor's rank.
        ndim: usize,
    },
    /// An index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The valid bound (exclusive).
        bound: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::InvalidAxis { axis, ndim } => {
                write!(f, "axis {axis} out of range for rank-{ndim} tensor")
            }
            TensorError::IndexOutOfRange { index, bound } => {
                write!(f, "index {index} out of range (bound {bound})")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
