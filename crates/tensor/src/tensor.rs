//! The core [`Tensor`] container.

use crate::shape::Shape;
use crate::{Result, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` owns its data. Operations produce new tensors; in-place variants
/// are provided where they matter for performance (optimizer updates,
/// gradient accumulation).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Builds a tensor from raw data and a shape. The data length must equal
    /// the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: impl Into<Vec<usize>>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape.dims()
        );
        Tensor { data, shape }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(Vec::new()),
        }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: impl Into<Vec<usize>>) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// All-zeros tensor whose storage is drawn from the process-wide
    /// [`crate::pool`] when a recycled buffer of the right size exists.
    ///
    /// Bitwise-equivalent to [`Tensor::zeros`]: the buffer is always zeroed
    /// before it is returned, so callers cannot observe whether the
    /// allocation was recycled.
    pub fn pooled_zeros(dims: impl Into<Vec<usize>>) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: crate::pool::take_zeroed(shape.numel()),
            shape,
        }
    }

    /// Consumes the tensor and returns its storage to the [`crate::pool`]
    /// for reuse by a later [`Tensor::pooled_zeros`].
    pub fn recycle(self) {
        crate::pool::recycle(self.data);
    }

    /// All-ones tensor of the given shape.
    pub fn ones(dims: impl Into<Vec<usize>>) -> Self {
        Self::full(dims, 1.0)
    }

    /// Tensor of the given shape filled with `value`.
    pub fn full(dims: impl Into<Vec<usize>>, value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// `[0, 1, 2, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), vec![n])
    }

    /// The shape's dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The shape object.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Element at multi-dimensional index.
    ///
    /// # Contract
    ///
    /// `index.len()` must equal [`Tensor::ndim`] and every coordinate must be
    /// in range for its axis. The arity check is a `debug_assert_eq!` only: in
    /// release builds a short index silently reads a *valid but wrong* offset
    /// (missing trailing coordinates act as zeros), and a long index may read
    /// out of bounds or panic on the flat buffer access. Callers that cannot
    /// statically guarantee the arity (e.g. the graph auditor walking
    /// user-provided shapes) must use [`Tensor::try_at`] instead.
    pub fn at(&self, index: &[usize]) -> f32 {
        debug_assert_eq!(index.len(), self.ndim());
        let strides = self.shape.strides();
        let off: usize = index.iter().zip(strides.iter()).map(|(i, s)| i * s).sum();
        self.data[off]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// Same contract as [`Tensor::at`]: arity is only checked in debug
    /// builds. Use [`Tensor::try_set`] for a fully checked variant.
    pub fn set(&mut self, index: &[usize], value: f32) {
        debug_assert_eq!(index.len(), self.ndim());
        let strides = self.shape.strides();
        let off: usize = index.iter().zip(strides.iter()).map(|(i, s)| i * s).sum();
        self.data[off] = value;
    }

    /// Validates a multi-dimensional index (arity and per-axis bounds) and
    /// returns its flat row-major offset.
    fn checked_offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.ndim() {
            return Err(TensorError::InvalidAxis {
                axis: index.len(),
                ndim: self.ndim(),
            });
        }
        for (&i, &bound) in index.iter().zip(self.dims().iter()) {
            if i >= bound {
                return Err(TensorError::IndexOutOfRange { index: i, bound });
            }
        }
        let strides = self.shape.strides();
        Ok(index.iter().zip(strides.iter()).map(|(i, s)| i * s).sum())
    }

    /// Fully checked variant of [`Tensor::at`]: verifies index arity *and*
    /// per-axis bounds in all build profiles.
    pub fn try_at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.checked_offset(index)?])
    }

    /// Fully checked variant of [`Tensor::set`]: verifies index arity *and*
    /// per-axis bounds in all build profiles.
    pub fn try_set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.checked_offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape of equal element
    /// count.
    pub fn reshape(&self, dims: impl Into<Vec<usize>>) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.dims().to_vec(),
                rhs: shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = crate::pool::with_capacity(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combine with an identically-shaped tensor.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// `self += other` (same shape), the hot path for gradient accumulation.
    ///
    /// Panics on shape mismatch; see [`Tensor::try_add_assign`] for the
    /// non-panicking variant whose error carries both dim vectors.
    pub fn add_assign(&mut self, other: &Tensor) {
        if let Err(e) = self.try_add_assign(other) {
            panic!("{e}");
        }
    }

    /// `self += other` (same shape), reporting a structured
    /// [`TensorError::ShapeMismatch`] (with both dim vectors) instead of
    /// panicking when shapes differ.
    pub fn try_add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// `self += alpha * other` (same shape).
    ///
    /// Panics on shape mismatch; see [`Tensor::try_axpy`] for the
    /// non-panicking variant.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        if let Err(e) = self.try_axpy(alpha, other) {
            panic!("{e}");
        }
    }

    /// `self += alpha * other` (same shape), reporting a structured
    /// [`TensorError::ShapeMismatch`] instead of panicking.
    pub fn try_axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero (reuses the allocation).
    pub fn zero_(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Row `i` of a rank-2 tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a rank-2 tensor");
        let cols = self.dim(1);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.dim(1);
        &mut self.data[i * cols..(i + 1) * cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.sum_all(), 0.0);

        let t = Tensor::full(vec![4], 2.5);
        assert_eq!(t.sum_all(), 10.0);

        let t = Tensor::arange(4);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);

        let s = Tensor::scalar(7.0);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], vec![3]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert!(t.reshape(vec![4]).is_err());
    }

    #[test]
    fn inplace_math() {
        let mut a = Tensor::ones(vec![3]);
        let b = Tensor::arange(3);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[1.0, 3.0, 5.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.data(), &[0.5, 1.5, 2.5]);
        a.zero_();
        assert_eq!(a.sum_all(), 0.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], vec![3]);
        assert_eq!(t.sum_all(), 2.0);
        assert_eq!(t.max_all(), 3.0);
        assert_eq!(t.min_all(), -2.0);
        assert!((t.mean_all() - 2.0 / 3.0).abs() < 1e-6);
        assert!((t.norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn rows() {
        let t = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn structured_shape_errors() {
        let mut a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![3, 2]);
        match a.try_add_assign(&b) {
            Err(TensorError::ShapeMismatch { op, lhs, rhs }) => {
                assert_eq!(op, "add_assign");
                assert_eq!(lhs, vec![2, 3]);
                assert_eq!(rhs, vec![3, 2]);
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        match a.try_axpy(0.5, &b) {
            Err(TensorError::ShapeMismatch { op, .. }) => assert_eq!(op, "axpy"),
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        // Matching shapes still work through the fallible path.
        let c = Tensor::ones(vec![2, 3]);
        a.try_add_assign(&c).unwrap();
        assert_eq!(a.sum_all(), 6.0);
    }

    #[test]
    #[should_panic(expected = "add_assign: incompatible shapes")]
    fn add_assign_panics_with_dims() {
        let mut a = Tensor::zeros(vec![2]);
        a.add_assign(&Tensor::zeros(vec![3]));
    }

    #[test]
    fn checked_accessors() {
        let mut t = Tensor::arange(6).reshape(vec![2, 3]).unwrap();
        assert_eq!(t.try_at(&[1, 2]).unwrap(), 5.0);
        t.try_set(&[0, 1], 9.0).unwrap();
        assert_eq!(t.at(&[0, 1]), 9.0);
        // Wrong arity is reported in all build profiles, unlike `at`/`set`.
        assert_eq!(
            t.try_at(&[1]),
            Err(TensorError::InvalidAxis { axis: 1, ndim: 2 })
        );
        assert_eq!(
            t.try_at(&[1, 3]),
            Err(TensorError::IndexOutOfRange { index: 3, bound: 3 })
        );
        assert!(t.try_set(&[2, 0], 0.0).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::ones(vec![2]);
        assert!(!t.has_non_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
