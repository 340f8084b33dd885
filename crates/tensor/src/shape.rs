//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// The shape of a [`Tensor`](crate::Tensor): an ordered list of dimension
/// sizes, row-major (the last dimension is contiguous).
///
/// # Example
///
/// ```
/// use pipelayer_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.offset(&[1, 2, 3]), 23);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: degenerate shape")]
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "all dimensions must be non-zero, got {dims:?}"
        );
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// [`new`](Self::new) for dimensions that come from outside input:
    /// `None` where `new` would panic (no dimensions, a zero dimension) or
    /// where the element count overflows `usize`.
    pub(crate) fn try_new(dims: &[usize]) -> Option<Self> {
        let numel = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
        (!dims.is_empty() && numel > 0).then(|| Shape {
            dims: dims.to_vec(),
        })
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Row-major strides: `strides()[i]` is the linear-offset step when
    /// index `i` increases by one.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear (row-major) offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of bounds.
    #[expect(clippy::disallowed_macros, reason = "caller bug: index out of shape")]
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.dims.len()
        );
        let mut off = 0usize;
        for (d, (&i, &n)) in idx.iter().zip(&self.dims).enumerate() {
            assert!(
                i < n,
                "index {i} out of bounds for dimension {d} (size {n})"
            );
            off = off * n + i;
        }
        off
    }

    /// Inverse of [`offset`](Self::offset): the multi-index of a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if `off >= numel()`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: offset out of shape")]
    pub fn unravel(&self, mut off: usize) -> Vec<usize> {
        assert!(off < self.numel(), "offset {off} out of bounds");
        let mut idx = vec![0usize; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            idx[d] = off % self.dims[d];
            off /= self.dims[d];
        }
        idx
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[3, 5, 7]);
        for off in 0..s.numel() {
            let idx = s.unravel(off);
            assert_eq!(s.offset(&idx), off);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[28, 28]).to_string(), "28x28");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_bounds() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_dim() {
        Shape::new(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        Shape::new(&[]);
    }
}
