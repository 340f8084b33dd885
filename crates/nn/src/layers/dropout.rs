//! Dropout regularisation (inverted dropout).
//!
//! AlexNet — one of the paper's evaluation networks — trains with dropout
//! on its large FC layers; the layer exists so those recipes can be
//! expressed. Dropout is a host-side training aid: at inference time it is
//! the identity (nothing maps to arrays), and during training it zeroes a
//! random mask of activations and rescales the survivors by `1/(1−p)`.

use crate::layer::{Layer, LayerKind, ParamsMut};
use pipelayer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Inverted dropout with drop probability `p`.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: p ∉ [0, 1)")]
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("dropout{:.2}", self.p)
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        if self.p == 0.0 {
            self.mask = Some(Tensor::ones(input.dims()));
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask = Tensor::from_fn(input.dims(), |_| {
            if self.rng.random::<f32>() < keep {
                scale
            } else {
                0.0
            }
        });
        let out = input.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        // Identity at test time (inverted dropout pre-scales in training).
        input.clone()
    }

    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Dropout::backward called before forward");
        delta.hadamard(mask)
    }

    fn apply_update(&mut self, _lr: f32, _batch: usize) {}
    fn zero_grad(&mut self) {}
    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        None
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dropout { p: self.p }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        // Each replica restarts from the current RNG state, so a network
        // containing dropout is deterministic for a FIXED thread count but
        // not ACROSS thread counts (replicas draw overlapping streams). The
        // paper's evaluation networks reproduced here train without dropout;
        // the bitwise thread-count-invariance guarantee applies to them.
        Box::new(Dropout {
            p: self.p,
            rng: self.rng.clone(),
            mask: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let d = Dropout::new(0.5, 1);
        let x = Tensor::from_fn(&[32], |i| i[0] as f32);
        assert!(d.infer(&x).allclose(&x, 0.0));
    }

    #[test]
    fn training_preserves_expectation() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x);
        // Inverted dropout: E[y] = 1.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Dropped fraction near p.
        let dropped = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!((dropped as f32 / 10_000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 3);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x);
        let g = d.backward(&Tensor::ones(&[64]));
        // Gradient flows exactly where the forward survived.
        for (yo, go) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    fn zero_p_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_fn(&[8], |i| i[0] as f32);
        assert!(d.forward(&x).allclose(&x, 0.0));
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_p_one() {
        Dropout::new(1.0, 5);
    }
}
