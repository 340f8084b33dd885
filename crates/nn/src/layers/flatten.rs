//! Shape adapter between spatial `[C,H,W]` layers and vector layers — the
//! paper's convention that "the values in the data cube of `l` are considered
//! as a vector" when an inner-product layer follows (Sec. 2.1).

use crate::layer::{Layer, LayerKind, ParamsMut};
use pipelayer_tensor::Tensor;

/// Flattens any input tensor into a rank-1 vector, restoring the original
/// shape on the backward path.
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_string()
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.input_dims = Some(input.dims().to_vec());
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.reshape(&[input.numel()])
    }

    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("Flatten::backward called before forward");
        delta.reshape(dims)
    }

    fn apply_update(&mut self, _lr: f32, _batch: usize) {}
    fn zero_grad(&mut self) {}
    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        None
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Flatten
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4], |i| (i[0] + i[1] + i[2]) as f32);
        let y = f.forward(&x);
        assert_eq!(y.dims(), &[24]);
        let dx = f.backward(&y);
        assert_eq!(dx.dims(), &[2, 3, 4]);
        assert!(dx.allclose(&x, 0.0));
    }
}
