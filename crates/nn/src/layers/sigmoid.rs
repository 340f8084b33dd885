//! Sigmoid activation — the other function the paper's activation
//! component supports ("configurable by different LUTs", Sec. 4.2.3).

use crate::layer::{Layer, LayerKind, ParamsMut};
use pipelayer_tensor::Tensor;

/// Element-wise logistic sigmoid `σ(x) = 1/(1+e^{-x})`.
///
/// The backward pass uses `σ'(x) = σ(x)(1−σ(x))`, recovered — like ReLU's
/// derivative — from the cached *output*, so no pre-activation storage is
/// needed.
#[derive(Debug, Default)]
pub struct Sigmoid {
    cached_out: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation layer.
    pub fn new() -> Self {
        Sigmoid { cached_out: None }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> String {
        "sigmoid".to_string()
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.cached_out = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let out = self
            .cached_out
            .as_ref()
            .expect("Sigmoid::backward called before forward");
        delta.zip_map(out, |d, o| d * o * (1.0 - o))
    }

    fn apply_update(&mut self, _lr: f32, _batch: usize) {}
    fn zero_grad(&mut self) {}
    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        None
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Sigmoid
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Sigmoid::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_range_and_midpoint() {
        let s = Sigmoid::new();
        let y = s.infer(&Tensor::from_vec(&[3], vec![-10.0, 0.0, 10.0]));
        assert!(y.as_slice()[0] < 0.01);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 0.99);
    }

    #[test]
    fn gradient_check() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[4], vec![-1.5, -0.2, 0.3, 2.0]);
        let y = s.forward(&x);
        let dx = s.backward(&y); // L = 0.5||σ(x)||²
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let lp = s.infer(&xp).norm_sq() * 0.5;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lm = s.infer(&xm).norm_sq() * 0.5;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[i]).abs() < 1e-3,
                "at {i}: {num} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn matches_activation_unit_lut() {
        // The circuit-side LUT (pipelayer-reram) and this layer implement
        // the same function; spot-check agreement.
        let s = Sigmoid::new();
        let xs = [-3.0f32, -0.7, 0.0, 1.2, 3.5];
        for &x in &xs {
            let soft = s.infer(&Tensor::from_vec(&[1], vec![x])).as_slice()[0];
            let lut = 1.0 / (1.0 + (-x).exp());
            assert!((soft - lut).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        Sigmoid::new().backward(&Tensor::ones(&[1]));
    }
}
