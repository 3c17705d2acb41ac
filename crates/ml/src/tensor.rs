//! Dense row-major `f32` tensors.
//!
//! A deliberately small tensor type: contiguous storage, up to 4 dimensions
//! (NCHW for the CNN path, NK for dense layers), explicit indexing helpers,
//! and the handful of element-wise operations the layers need. No broadcast
//! machinery — layers write their own loops, which keeps backprop legible.

use serde::{Deserialize, Serialize};

/// A dense row-major tensor of `f32`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Tensor from existing data; `data.len()` must equal the shape product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} incompatible with {} elements",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// The shape slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable raw data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of identical volume.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "reshape {:?} -> {shape:?} changes volume",
            self.shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Flat offset of 2-D index `(i, j)`.
    #[inline]
    pub fn idx2(&self, i: usize, j: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 2);
        i * self.shape[1] + j
    }

    /// Flat offset of 4-D index `(n, c, h, w)`.
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Element at 2-D index.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        self.data[self.idx2(i, j)]
    }

    /// Mutable element at 2-D index.
    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        let idx = self.idx2(i, j);
        &mut self.data[idx]
    }

    /// Element at 4-D index.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Row `i` of a 2-D tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Sets every element to zero (for gradient buffers).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// In-place `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self *= scalar`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (NaN-free data assumed); `None` when empty.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_and_indexing() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect());
        assert_eq!(t.at2(0, 0), 0.0);
        assert_eq!(t.at2(1, 2), 5.0);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn four_d_indexing_is_row_major() {
        let t = Tensor::from_vec(&[2, 2, 2, 2], (0..16).map(|v| v as f32).collect());
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 0, 1), 1.0);
        assert_eq!(t.at4(0, 0, 1, 0), 2.0);
        assert_eq!(t.at4(0, 1, 0, 0), 4.0);
        assert_eq!(t.at4(1, 0, 0, 0), 8.0);
        assert_eq!(t.at4(1, 1, 1, 1), 15.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.at2(2, 1), 6.0);
    }

    #[test]
    #[should_panic(expected = "changes volume")]
    fn reshape_rejects_volume_change() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        a.add_assign(&b);
        assert_eq!(a.sum(), 12.0);
        a.scale(0.5);
        assert_eq!(a.sum(), 6.0);
        a.fill_zero();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn max_and_norm() {
        let t = Tensor::from_vec(&[1, 4], vec![3.0, -4.0, 0.0, 1.0]);
        assert_eq!(t.max(), Some(3.0));
        assert!((t.norm() - (9.0f32 + 16.0 + 1.0).sqrt()).abs() < 1e-6);
        assert_eq!(Tensor::zeros(&[0]).max(), None);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn from_vec_rejects_bad_shape() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }
}
