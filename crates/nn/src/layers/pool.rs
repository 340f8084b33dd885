//! Pooling layers (Eq. 2, Fig. 10b).

use crate::layer::{Layer, LayerKind, ParamsMut};
use pipelayer_tensor::{ops, Tensor};

/// Max pooling over `k×k` windows with stride `stride`.
///
/// The backward pass copies each error element to the position that held the
/// window maximum — exactly the routing of Fig. 10(b), which PipeLayer
/// performs in the activation component using the stored `d_l`.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    indices: Option<ops::PoolIndices>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: zero window/stride")]
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "invalid pooling geometry");
        MaxPool2d {
            k,
            stride,
            indices: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool{}", self.k)
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out, idx) = ops::maxpool2d(input, self.k, self.stride);
        self.indices = Some(idx);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        ops::maxpool2d(input, self.k, self.stride).0
    }

    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let idx = self
            .indices
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        ops::maxpool2d_backward(delta, idx)
    }

    fn apply_update(&mut self, _lr: f32, _batch: usize) {}
    fn zero_grad(&mut self) {}
    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        None
    }

    fn kind(&self) -> LayerKind {
        LayerKind::MaxPool {
            k: self.k,
            stride: self.stride,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d::new(self.k, self.stride))
    }
}

/// Average pooling over `k×k` windows (Eq. 2). The paper notes the `1/K²`
/// scaling can be a shift when `K²` is a power of two.
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    stride: usize,
    input_hw: Option<(usize, usize)>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: zero window/stride")]
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "invalid pooling geometry");
        AvgPool2d {
            k,
            stride,
            input_hw: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("avgpool{}", self.k)
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.input_hw = Some((input.dims()[1], input.dims()[2]));
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        ops::avgpool2d(input, self.k, self.stride)
    }

    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let hw = self
            .input_hw
            .expect("AvgPool2d::backward called before forward");
        ops::avgpool2d_backward(delta, hw, self.k, self.stride)
    }

    fn apply_update(&mut self, _lr: f32, _batch: usize) {}
    fn zero_grad(&mut self) {}
    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        None
    }

    fn kind(&self) -> LayerKind {
        LayerKind::AvgPool {
            k: self.k,
            stride: self.stride,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(AvgPool2d::new(self.k, self.stride))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_roundtrip() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as f32);
        let y = p.forward(&x);
        assert_eq!(y.dims(), &[1, 2, 2]);
        let dx = p.backward(&y);
        assert_eq!(dx.dims(), &[1, 4, 4]);
        // Errors land only on window maxima (bottom-right corners here).
        assert_eq!(dx[[0, 3, 3]], 15.0);
        assert_eq!(dx[[0, 0, 0]], 0.0);
    }

    #[test]
    fn avgpool_roundtrip() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[2, 4, 4]);
        let y = p.forward(&x);
        assert!(y.allclose(&Tensor::ones(&[2, 2, 2]), 1e-6));
        let dx = p.backward(&Tensor::ones(&[2, 2, 2]));
        assert!(dx.allclose(&Tensor::full(&[2, 4, 4], 0.25), 1e-6));
    }

    #[test]
    fn pools_are_parameterless() {
        assert_eq!(MaxPool2d::new(2, 2).param_count(), 0);
        assert_eq!(AvgPool2d::new(2, 2).param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid pooling geometry")]
    fn rejects_zero_window() {
        MaxPool2d::new(0, 1);
    }
}
