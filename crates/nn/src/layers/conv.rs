//! Convolution layer (Eq. 1 of the paper).

use crate::init;
use crate::layer::{GradsMut, Layer, LayerKind, ParamsMut};
use pipelayer_tensor::{ops, Tensor};
use rand::Rng;

/// A 2-D convolution layer with `C_out` kernels of size `C_in×K×K`.
///
/// Forward computes the im2col lowering's product (the same kernel-window
/// serialisation PipeLayer feeds its crossbars, Fig. 4); backward produces
/// the input error via `conv2(δ, rot180(K), 'full')` (Fig. 11) and the
/// weight gradient via the data-as-kernels convolution (Fig. 12). All three
/// are the implicit-GEMM kernels of `pipelayer-tensor`, bitwise equal to
/// the lowered GEMMs without building the patch matrix.
///
/// # Example
///
/// ```
/// use pipelayer_nn::layers::Conv2d;
/// use pipelayer_nn::Layer;
/// use pipelayer_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(1, 20, 5, 1, 0, &mut rng);
/// let out = conv.forward(&Tensor::zeros(&[1, 28, 28]));
/// assert_eq!(out.dims(), &[20, 24, 24]);
/// ```
pub struct Conv2d {
    weight: Tensor, // [C_out, C_in, K, K]
    bias: Tensor,   // [C_out]
    dweight: Tensor,
    dbias: Tensor,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor>,
    // Padded-input and regrouped-kernel buffers reused across every sample
    // that flows through this layer instance.
    scratch: ops::ConvScratch,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal initialised kernels.
    ///
    /// # Panics
    ///
    /// Panics if any of `c_in`, `c_out`, `k` or `stride` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: bad conv geometry")]
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && k > 0 && stride > 0,
            "invalid conv geometry"
        );
        Conv2d {
            weight: init::he_normal(&[c_out, c_in, k, k], rng),
            bias: Tensor::zeros(&[c_out]),
            dweight: Tensor::zeros(&[c_out, c_in, k, k]),
            dbias: Tensor::zeros(&[c_out]),
            stride,
            pad,
            cached_input: None,
            scratch: ops::ConvScratch::new(),
        }
    }

    /// Kernel spatial size.
    pub fn kernel(&self) -> usize {
        self.weight.dims()[2]
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Read-only weight access.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Adds the weight and bias gradients of `delta` (Fig. 12) to the
    /// accumulators; returns the cached input's spatial size.
    #[expect(clippy::expect_used, reason = "caller bug: backward before forward")]
    fn accumulate_grads(&mut self, delta: &Tensor) -> (usize, usize) {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let k = self.kernel();
        let (dw, db) = ops::conv2d_backward_weights_with(
            input,
            delta,
            (k, k),
            self.stride,
            self.pad,
            &mut self.scratch,
        );
        self.dweight += &dw;
        self.dbias += &db;
        (input.dims()[1], input.dims()[2])
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv{}x{}", // paper notation: ConvKxC
            self.kernel(),
            self.weight.dims()[0]
        )
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = ops::conv2d_im2col_with(
            input,
            &self.weight,
            &self.bias,
            self.stride,
            self.pad,
            &mut self.scratch,
        );
        self.cached_input = Some(input.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        ops::conv2d_im2col(input, &self.weight, &self.bias, self.stride, self.pad)
    }

    fn backward(&mut self, delta: &Tensor) -> Tensor {
        let (h, w) = self.accumulate_grads(delta);
        ops::conv2d_backward_input_with(
            delta,
            &self.weight,
            (h, w),
            self.stride,
            self.pad,
            &mut self.scratch,
        )
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
        Box::new(Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            dweight: Tensor::zeros(self.dweight.dims()),
            dbias: Tensor::zeros(self.dbias.dims()),
            stride: self.stride,
            pad: self.pad,
            cached_input: None,
            scratch: ops::ConvScratch::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let out = conv.forward(&Tensor::zeros(&[3, 10, 10]));
        assert_eq!(out.dims(), &[8, 10, 10]);
    }

    #[test]
    fn update_moves_against_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        let x = Tensor::ones(&[1, 3, 3]);
        let y = conv.forward(&x);
        let before: f32 = y.norm_sq();
        // L = 0.5||y||² — gradient step should reduce it.
        conv.backward(&y);
        conv.apply_update(0.05, 1);
        let after = conv.infer(&x).norm_sq();
        assert!(after < before, "loss should drop: {after} !< {before}");
    }

    #[test]
    fn grads_accumulate_across_batch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        let x = Tensor::ones(&[1, 2, 2]);
        let d = Tensor::ones(&[1, 1, 1]);
        conv.forward(&x);
        conv.backward(&d);
        let g1 = conv.dweight.clone();
        conv.forward(&x);
        conv.backward(&d);
        assert!(conv.dweight.allclose(&(&g1 * 2.0), 1e-6));
        // Averaging over batch=2 must equal a single-sample step.
        let w_before = conv.weight.clone();
        conv.apply_update(1.0, 2);
        let expected = &w_before - &g1;
        assert!(conv.weight.allclose(&expected, 1e-5));
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        conv.backward(&Tensor::zeros(&[1, 1, 1]));
    }

    #[test]
    fn name_uses_paper_notation() {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::new(1, 20, 5, 1, 0, &mut rng);
        assert_eq!(conv.name(), "conv5x20");
    }
}
