//! The [`Layer`] trait: forward, backward and the accumulate-then-average
//! weight-update protocol that mirrors PipeLayer's training support.
//!
//! PipeLayer stores the partial derivatives `ΔW_l` produced by each image of
//! a batch in memory subarrays and applies the *averaged* update only at the
//! end of the batch (Sec. 3.1, 4.4.2). The trait below encodes the same
//! protocol: `backward` accumulates gradients, `apply_update(lr, batch)`
//! divides by the batch size and writes the new weights.

use pipelayer_tensor::Tensor;

/// Mutable references to a layer's learnable state, used by the optimizer
/// and by the quantization stack (which overwrites weights with their
/// fixed-point images).
pub struct ParamsMut<'a> {
    /// Weight tensor (kernels or inner-product matrix).
    pub weight: &'a mut Tensor,
    /// Bias vector.
    pub bias: &'a mut Tensor,
}

/// Mutable references to a layer's parameters *and* their accumulated
/// gradients, for external update rules (momentum, weight decay — see
/// [`Optimizer`](crate::Optimizer)). The caller is responsible for
/// clearing the accumulators afterwards via [`Layer::zero_grad`].
pub struct GradsMut<'a> {
    /// Weight tensor.
    pub weight: &'a mut Tensor,
    /// Bias vector.
    pub bias: &'a mut Tensor,
    /// Accumulated weight gradient (sum over the batch so far).
    pub dweight: &'a mut Tensor,
    /// Accumulated bias gradient.
    pub dbias: &'a mut Tensor,
}

/// Structural classification of a layer for static analysis.
///
/// The interval abstract interpreter in `pipelayer-check` needs to know
/// which transfer function a layer applies — not how it is implemented.
/// Every concrete layer reports its kind; anything the analysis has no
/// sound transfer function for must report [`LayerKind::Opaque`], which
/// makes the analysis refuse (soundly) rather than guess.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerKind {
    /// A weighted affine map (inner product or convolution): bounds follow
    /// from ±Σ|w| aggregates over the parameter tensors.
    Affine,
    /// Element-wise `max(0, x)`.
    Relu,
    /// Element-wise logistic sigmoid.
    Sigmoid,
    /// Max pooling over `k×k` windows with stride `stride`.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling over `k×k` windows with stride `stride`.
    AvgPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Pure shape change, values untouched.
    Flatten,
    /// Inverted dropout with drop probability `p` (training-mode forward
    /// scales survivors by `1/(1−p)`).
    Dropout {
        /// Drop probability.
        p: f32,
    },
    /// No sound transfer function is known; range analysis must give up.
    Opaque,
}

/// A differentiable network layer operating on single-image tensors.
///
/// Batching is performed by the [`Network`](crate::Network) driver, matching
/// the paper's architecture where one image flows through the pipeline per
/// logical cycle and batch effects exist only at weight-update time.
///
/// Implementations cache whatever forward state the backward pass needs
/// (inputs, pre-activations, pooling argmaxes), so `forward` must be called
/// before the matching `backward`.
///
/// The `Send + Sync` bounds let the data-parallel trainer share a template
/// network across worker threads and move per-thread replicas (created via
/// [`clone_box`](Self::clone_box)) into them.
pub trait Layer: Send + Sync {
    /// Human-readable layer kind, e.g. `"conv5x20"`.
    fn name(&self) -> String;

    /// Forward pass for one input sample; caches state for `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Inference-only forward pass: does not cache state.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// Backward pass: consumes the error w.r.t. this layer's output and
    /// returns the error w.r.t. its input, accumulating any weight/bias
    /// gradients internally.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, delta: &Tensor) -> Tensor;

    /// The gradient half of [`backward`](Self::backward): accumulates the
    /// weight/bias gradients for `delta` without returning the error
    /// w.r.t. the input — the first layer's backward in a training pass,
    /// whose input error nothing reads. The default runs `backward` and
    /// drops the result; layers whose input error costs real work skip it.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward_params(&mut self, delta: &Tensor) {
        self.backward(delta);
    }

    /// Applies the accumulated gradient: `W ← W − lr · (ΣΔW)/batch`, then
    /// clears the accumulator. No-op for parameterless layers.
    fn apply_update(&mut self, lr: f32, batch: usize);

    /// Clears accumulated gradients without applying them.
    fn zero_grad(&mut self);

    /// Learnable parameters, if any.
    fn params_mut(&mut self) -> Option<ParamsMut<'_>>;

    /// Parameters plus accumulated gradients, if any (for external
    /// optimizers). Default: none.
    fn grads_mut(&mut self) -> Option<GradsMut<'_>> {
        None
    }

    /// Number of learnable scalars.
    fn param_count(&self) -> usize {
        0
    }

    /// Structural classification for static analysis. The default is
    /// [`LayerKind::Opaque`] — the sound refusal — so a new layer type is
    /// never silently analysed with the wrong transfer function.
    fn kind(&self) -> LayerKind {
        LayerKind::Opaque
    }

    /// Creates an independent replica of this layer for a worker thread:
    /// learnable parameters are copied, gradient accumulators are zeroed and
    /// forward caches are fresh. Replicas of the same layer produce bitwise
    /// identical forward/backward results (stateful exceptions such as
    /// dropout's RNG document their behaviour).
    fn clone_box(&self) -> Box<dyn Layer>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_mut_exposes_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(4, 2, &mut rng);
        let p = l.params_mut().expect("linear has params");
        assert_eq!(p.weight.dims(), &[2, 4]);
        assert_eq!(p.bias.dims(), &[2]);
        assert_eq!(l.param_count(), 10);
    }
}
