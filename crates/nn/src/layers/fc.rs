//! Inner-product (fully-connected) layer, Eq. (3) of the paper.

use crate::init;
use crate::layer::{GradsMut, Layer, LayerKind, ParamsMut};
use pipelayer_tensor::{ops, Tensor};
use rand::Rng;

/// An inner-product layer: `d_{l+1} = W d_l + b` with `W: [n_out × n_in]`.
///
/// This is the layer type that maps *directly* onto ReRAM crossbars — the
/// paper notes (Sec. 6.3) that MLPs such as Mnist-C achieve higher speedups
/// than AlexNet precisely because "weights are all matrices and can be
/// directly mapped to ReRAM arrays".
pub struct Linear {
    weight: Tensor, // [n_out, n_in]
    bias: Tensor,   // [n_out]
    dweight: Tensor,
    dbias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates an inner-product layer with Xavier-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: zero-width layer")]
    pub fn new(n_in: usize, n_out: usize, rng: &mut impl Rng) -> Self {
        assert!(n_in > 0 && n_out > 0, "invalid linear geometry");
        Linear {
            weight: init::xavier_uniform(&[n_out, n_in], rng),
            bias: Tensor::zeros(&[n_out]),
            dweight: Tensor::zeros(&[n_out, n_in]),
            dbias: Tensor::zeros(&[n_out]),
            cached_input: None,
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Read-only weight access.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Adds the weight and bias gradients of `delta` to the accumulators;
    /// returns `delta` as a vector and the cached input's shape.
    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn accumulate_grads(&mut self, delta: &Tensor) -> (Tensor, Vec<usize>) {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        let x = input.reshape(&[self.n_in()]);
        let d = delta.reshape(&[self.n_out()]);
        // ∂J/∂W = δ · dᵀ (Sec. 2.2); ∂J/∂b = δ.
        self.dweight += &ops::outer(&d, &x);
        self.dbias += &d;
        let dims = input.dims().to_vec();
        (d, dims)
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("ip{}-{}", self.n_in(), self.n_out())
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.numel(),
            self.n_in(),
            "linear input size {} != {}",
            input.numel(),
            self.n_in()
        );
        let x = input.reshape(&[self.n_in()]);
        let mut y = ops::matvec(&self.weight, &x);
        y += &self.bias;
        y
    }

    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let (d, input_dims) = self.accumulate_grads(delta);
        // δ_l = Wᵀ δ_{l+1}, reshaped back to the cached input's shape.
        let dx = ops::matvec_transposed(&self.weight, &d);
        dx.reshape(&input_dims)
    }

    fn backward_params(&mut self, delta: &Tensor) {
        self.accumulate_grads(delta);
    }

    #[expect(clippy::disallowed_macros, reason = "caller bug: zero batch")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    fn apply_update(&mut self, lr: f32, batch: usize) {
        assert!(batch > 0, "batch must be non-zero");
        let scale = -lr / batch as f32;
        self.weight.axpy_inplace(scale, &self.dweight);
        self.bias.axpy_inplace(scale, &self.dbias);
        self.zero_grad();
    }

    fn zero_grad(&mut self) {
        self.dweight.fill(0.0);
        self.dbias.fill(0.0);
    }

    fn params_mut(&mut self) -> Option<ParamsMut<'_>> {
        Some(ParamsMut {
            weight: &mut self.weight,
            bias: &mut self.bias,
        })
    }

    fn grads_mut(&mut self) -> Option<GradsMut<'_>> {
        Some(GradsMut {
            weight: &mut self.weight,
            bias: &mut self.bias,
            dweight: &mut self.dweight,
            dbias: &mut self.dbias,
        })
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Affine
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            dweight: Tensor::zeros(self.dweight.dims()),
            dbias: Tensor::zeros(self.dbias.dims()),
            cached_input: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probe_layer() -> Linear {
        let mut rng = StdRng::seed_from_u64(11);
        Linear::new(3, 2, &mut rng)
    }

    #[test]
    fn forward_is_affine() {
        let mut l = probe_layer();
        let zero = l.forward(&Tensor::zeros(&[3]));
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let y = l.forward(&x);
        let x2 = &x * 2.0;
        let y2 = l.forward(&x2);
        // f(2x) - f(0) == 2(f(x) - f(0)) for affine f.
        let lhs = &y2 - &zero;
        let rhs = &(&y - &zero) * 2.0;
        assert!(lhs.allclose(&rhs, 1e-5));
    }

    #[test]
    fn backward_gradient_check() {
        let mut l = probe_layer();
        let x = Tensor::from_vec(&[3], vec![0.5, -1.0, 2.0]);
        let y = l.forward(&x);
        let dx = l.backward(&y); // L = 0.5||y||²
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let lp = l.infer(&xp).norm_sq() * 0.5;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lm = l.infer(&xm).norm_sq() * 0.5;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[i]).abs() < 1e-2,
                "grad check failed at {i}: {num} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn accepts_spatial_input_and_restores_shape() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut l = Linear::new(12, 4, &mut rng);
        let x = Tensor::ones(&[3, 2, 2]);
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[4]);
        let dx = l.backward(&y);
        assert_eq!(dx.dims(), &[3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "input size")]
    fn rejects_wrong_input_size() {
        let mut l = probe_layer();
        l.forward(&Tensor::zeros(&[4]));
    }

    #[test]
    fn update_reduces_quadratic_loss() {
        let mut l = probe_layer();
        let x = Tensor::from_vec(&[3], vec![1.0, -1.0, 0.5]);
        for _ in 0..20 {
            let y = l.forward(&x);
            l.backward(&y);
            l.apply_update(0.1, 1);
        }
        assert!(l.infer(&x).norm_sq() < 1e-2, "should converge towards 0");
    }
}
