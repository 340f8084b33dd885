//! The dense `f32` tensor type.

use crate::Shape;
use rand::distr::{Distribution, Uniform};
use rand::{Rng, RngExt as _};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major, owned `f32` tensor.
///
/// All numerical state in the reproduction (weights, activations, errors,
/// partial derivatives) is stored in `Tensor`s. The type favours clarity over
/// generality: no views, no broadcasting, explicit shapes everywhere.
///
/// # Example
///
/// ```
/// use pipelayer_tensor::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 2]);
/// t[[0, 1]] = 3.0;
/// assert_eq!(t.sum(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor whose element at multi-index `i` is `f(i)`, calling
    /// `f` once per element in row-major order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        // An odometer over the multi-indices, the last one turning fastest:
        // the order of `Shape::unravel(0..n)` without a buffer per element.
        let mut idx = vec![0usize; shape.rank()];
        for _ in 0..n {
            data.push(f(&idx));
            for (i, &d) in idx.iter_mut().zip(shape.dims()).rev() {
                *i += 1;
                if *i < d {
                    break;
                }
                *i = 0;
            }
        }
        Tensor { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {shape} ({} elements)",
            data.len(),
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// [`from_vec`](Self::from_vec) for shapes and buffers that come from
    /// outside input: `None` where `from_vec` would panic (no dimensions, a
    /// zero dimension, a buffer length that does not match) or where the
    /// element count overflows `usize`.
    pub fn try_from_vec(dims: &[usize], data: Vec<f32>) -> Option<Self> {
        let shape = Shape::try_new(dims)?;
        (data.len() == shape.numel()).then_some(Tensor { shape, data })
    }

    /// Creates a tensor with elements sampled uniformly from `[lo, hi)`.
    #[expect(clippy::expect_used, reason = "caller bug: empty or inverted range")]
    pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let dist = Uniform::new(lo, hi).expect("invalid uniform range");
        let shape = Shape::new(dims);
        let n = shape.numel();
        let data = (0..n).map(|_| dist.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with approximately standard-normal elements
    /// (Irwin–Hall sum of 12 uniforms, exact enough for weight init), scaled
    /// by `std`.
    pub fn randn(dims: &[usize], std: f32, rng: &mut impl Rng) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let data = (0..n)
            .map(|_| {
                let s: f32 = (0..12).map(|_| rng.random::<f32>()).sum::<f32>() - 6.0;
                s * std
            })
            .collect();
        Tensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into {shape}",
            self.numel()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Hadamard (element-wise) product.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `other * s` to `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy_inplace(&mut self, s: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += s * y;
        }
    }

    /// Sets all elements to zero.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` only for NaN-filled input.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element in the flattened buffer (first if tied).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Mean of all elements.
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// `true` if every pairwise difference is within `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, .., {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1]
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

impl<const N: usize> Index<[usize; N]> for Tensor {
    type Output = f32;
    fn index(&self, idx: [usize; N]) -> &f32 {
        &self.data[self.shape.offset(&idx)]
    }
}

impl<const N: usize> IndexMut<[usize; N]> for Tensor {
    fn index_mut(&mut self, idx: [usize; N]) -> &mut f32 {
        let off = self.shape.offset(&idx);
        &mut self.data[off]
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy_inplace(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full(&[4], 0.5).sum(), 2.0);
    }

    #[test]
    fn from_fn_indexing() {
        let t = Tensor::from_fn(&[2, 3], |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(t[[1, 2]], 12.0);
        assert_eq!(t.at(&[0, 1]), 1.0);
    }

    /// The odometer visits every multi-index once, in `Shape::unravel`
    /// order, at ranks 1–4 and with unit dimensions.
    #[test]
    fn from_fn_visits_indices_in_unravel_order() {
        for dims in [
            &[5][..],
            &[1],
            &[3, 4],
            &[4, 1],
            &[2, 3, 4],
            &[1, 7, 1],
            &[2, 3, 1, 5],
            &[3, 1, 2, 2],
        ] {
            let shape = Shape::new(dims);
            let mut seen = Vec::new();
            let t = Tensor::from_fn(dims, |i| {
                seen.push(i.to_vec());
                seen.len() as f32
            });
            let want: Vec<Vec<usize>> = (0..shape.numel()).map(|k| shape.unravel(k)).collect();
            assert_eq!(seen, want, "{dims:?}");
            let counts: Vec<f32> = (1..=shape.numel()).map(|k| k as f32).collect();
            assert_eq!(t.as_slice(), counts.as_slice(), "{dims:?}");
        }
    }

    #[test]
    fn index_mut_writes() {
        let mut t = Tensor::zeros(&[3, 3]);
        t[[2, 2]] = 7.0;
        *t.at_mut(&[0, 0]) = 1.0;
        assert_eq!(t.sum(), 8.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| (i[0] * 6 + i[1]) as f32);
        let r = t.reshape(&[3, 4]);
        assert_eq!(r[[2, 3]], 11.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_mismatch() {
        Tensor::zeros(&[2, 3]).reshape(&[5]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::full(&[4], 2.0);
        let b = Tensor::full(&[4], 3.0);
        assert_eq!((&a + &b).sum(), 20.0);
        assert_eq!((&a - &b).sum(), -4.0);
        assert_eq!((&a * 2.0).sum(), 16.0);
        assert_eq!(a.hadamard(&b).sum(), 24.0);
    }

    #[test]
    fn axpy() {
        let mut a = Tensor::full(&[3], 1.0);
        let b = Tensor::full(&[3], 2.0);
        a.axpy_inplace(0.5, &b);
        assert!(a.allclose(&Tensor::full(&[3], 2.0), 1e-6));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![1.0, -5.0, 3.0, 2.0]);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -5.0);
        assert_eq!(t.abs_max(), 5.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.mean(), 0.25);
        assert_eq!(t.norm_sq(), 1.0 + 25.0 + 9.0 + 4.0);
    }

    #[test]
    fn random_constructors_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let u = Tensor::uniform(&[100], -1.0, 1.0, &mut rng);
        assert!(u.max() < 1.0 && u.min() >= -1.0);
        let n = Tensor::randn(&[1000], 0.1, &mut rng);
        assert!(n.mean().abs() < 0.05, "mean {}", n.mean());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::full(&[2], 1.0);
        let b = Tensor::full(&[2], 1.0005);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(&[3], vec![1.0, 2.0]);
    }

    #[test]
    fn try_from_vec_returns_none_where_from_vec_panics() {
        assert!(Tensor::try_from_vec(&[], vec![1.0]).is_none());
        assert!(Tensor::try_from_vec(&[3, 0], vec![]).is_none());
        assert!(Tensor::try_from_vec(&[3], vec![1.0, 2.0]).is_none());
        assert!(Tensor::try_from_vec(&[usize::MAX, 2], vec![]).is_none());
        let t = Tensor::try_from_vec(&[1, 2], vec![1.0, 2.0]);
        assert_eq!(t, Some(Tensor::from_vec(&[1, 2], vec![1.0, 2.0])));
    }
}
