//! Rectified linear unit, the activation PipeLayer's activation component
//! implements by LUT (Sec. 4.2.3).

use crate::layer::{Layer, LayerKind, ParamsMut};
use pipelayer_tensor::Tensor;

/// Element-wise ReLU: `max(0, x)`.
///
/// The backward pass exploits the same identity the paper does (Sec. 4.3):
/// with ReLU, `f'(u_l) = f'(d_l)` — the derivative mask can be recovered from
/// the *outputs* `d_l`, so no pre-activation `u_l` needs to be stored. We
/// cache only the output sign mask.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Tensor>, // 1.0 where output > 0
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_string()
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        // f'(d): derivative recovered from the output, per Sec. 4.3.
        self.mask = Some(out.map(|x| if x > 0.0 { 1.0 } else { 0.0 }));
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| x.max(0.0))
    }

    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward called before forward");
        // δ_l = δ_{l+1} ∘ f'(d_l): an AND with the 0/1 mask (Fig. 10a).
        delta.hadamard(mask)
    }

    fn apply_update(&mut self, _lr: f32, _batch: usize) {}

    fn zero_grad(&mut self) {}

    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        None
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Relu
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Relu::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_by_output_sign() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_vec(&[4], vec![-1.0, 0.5, 2.0, -3.0]));
        let dx = r.backward(&Tensor::from_vec(&[4], vec![10.0, 10.0, 10.0, 10.0]));
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 10.0, 0.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // f'(0) = 0 in this implementation (mask requires output > 0).
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[2]));
        let dx = r.backward(&Tensor::ones(&[2]));
        assert_eq!(dx.sum(), 0.0);
    }

    #[test]
    fn has_no_params() {
        let mut r = Relu::new();
        assert!(r.params_mut().is_none());
        assert_eq!(r.param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        Relu::new().backward(&Tensor::ones(&[1]));
    }
}
