//! Optimizer configuration beyond plain SGD.
//!
//! The paper's update rule is plain mini-batch gradient descent (the
//! averaged `ΔW` of Sec. 4.4.2), which is what [`Layer::apply_update`]
//! implements. Real training recipes (the AlexNet/VGG baselines the paper
//! compares against) use momentum and weight decay; this module adds both
//! while keeping the accumulate-then-average batch protocol intact, so the
//! accelerator-side semantics are unchanged — momentum and decay fold into
//! the host-visible update value that gets written back to the arrays.
//!
//! [`Layer::apply_update`]: crate::Layer::apply_update

use pipelayer_tensor::Tensor;

/// Hyper-parameters of the update rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizer {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient `μ` (0 = plain SGD).
    pub momentum: f32,
    /// L2 weight decay `λ` (applied to weights, not biases).
    pub weight_decay: f32,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }
}

impl Optimizer {
    /// Plain SGD at the given rate.
    pub fn sgd(lr: f32) -> Self {
        Optimizer {
            lr,
            ..Optimizer::default()
        }
    }

    /// SGD with momentum.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1`.
    #[expect(clippy::disallowed_macros, reason = "caller bug: momentum ∉ [0, 1)")]
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Optimizer {
            lr,
            momentum,
            ..Optimizer::default()
        }
    }

    /// Adds weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `wd` is negative.
    #[expect(clippy::disallowed_macros, reason = "caller bug: negative decay")]
    pub fn and_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }
}

/// Per-parameter-tensor optimizer state (the velocity buffer).
#[derive(Debug, Clone, Default)]
pub struct ParamState {
    velocity: Option<Tensor>,
}

impl ParamState {
    /// Creates empty state.
    pub fn new() -> Self {
        ParamState::default()
    }

    /// The velocity buffer, if any update has materialised it.
    pub fn velocity(&self) -> Option<&Tensor> {
        self.velocity.as_ref()
    }

    /// Replaces the velocity buffer (checkpoint restore).
    pub fn set_velocity(&mut self, v: Option<Tensor>) {
        self.velocity = v;
    }

    /// Computes and applies the update for one parameter tensor given its
    /// accumulated gradient and the batch size; mutates the parameter in
    /// place. `decay` is applied only when the caller says so (weights yes,
    /// biases no).
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or `batch` is zero.
    #[expect(clippy::disallowed_macros, reason = "caller bug: zero batch")]
    #[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
    pub fn apply(
        &mut self,
        opt: &Optimizer,
        param: &mut Tensor,
        grad_acc: &Tensor,
        batch: usize,
        decay: bool,
    ) {
        assert!(batch > 0, "batch must be non-zero");
        assert_eq!(param.dims(), grad_acc.dims(), "shape mismatch");
        // Mean gradient plus optional L2 term.
        let mut g = grad_acc.map(|x| x / batch as f32);
        if decay && opt.weight_decay > 0.0 {
            g.axpy_inplace(opt.weight_decay, param);
        }
        if opt.momentum > 0.0 {
            let v = self
                .velocity
                .get_or_insert_with(|| Tensor::zeros(param.dims()));
            v.scale_inplace(opt.momentum);
            *v += &g;
            param.axpy_inplace(-opt.lr, v);
        } else {
            param.axpy_inplace(-opt.lr, &g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = ½‖w‖² (gradient = w) and compare convergence.
    fn run(opt: Optimizer, steps: usize) -> f32 {
        let mut w = Tensor::full(&[4], 1.0);
        let mut state = ParamState::new();
        for _ in 0..steps {
            let g = w.clone(); // batch of 1, gradient = w
            state.apply(&opt, &mut w, &g, 1, false);
        }
        w.norm_sq()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run(Optimizer::sgd(0.1), 50) < 1e-3);
    }

    #[test]
    fn momentum_accelerates_small_lr() {
        let plain = run(Optimizer::sgd(0.02), 40);
        let fast = run(Optimizer::with_momentum(0.02, 0.9), 40);
        assert!(
            fast < plain,
            "momentum should converge faster: {fast} vs {plain}"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut w = Tensor::full(&[3], 1.0);
        let mut state = ParamState::new();
        let opt = Optimizer::sgd(0.1).and_weight_decay(0.5);
        // Zero task gradient: only decay acts.
        let zero = Tensor::zeros(&[3]);
        for _ in 0..10 {
            state.apply(&opt, &mut w, &zero, 1, true);
        }
        assert!(w.norm_sq() < 3.0 * 0.6, "decay should shrink: {:?}", w);
    }

    #[test]
    fn decay_skipped_for_biases() {
        let mut b = Tensor::full(&[3], 1.0);
        let mut state = ParamState::new();
        let opt = Optimizer::sgd(0.1).and_weight_decay(0.5);
        let zero = Tensor::zeros(&[3]);
        state.apply(&opt, &mut b, &zero, 1, false);
        assert!(b.allclose(&Tensor::full(&[3], 1.0), 1e-6));
    }

    #[test]
    fn averaged_update_uses_batch_size() {
        let mut w = Tensor::zeros(&[1]);
        let mut state = ParamState::new();
        let grad_sum = Tensor::full(&[1], 8.0); // accumulated over batch 4
        state.apply(&Optimizer::sgd(1.0), &mut w, &grad_sum, 4, false);
        assert!((w.as_slice()[0] + 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_bad_momentum() {
        Optimizer::with_momentum(0.1, 1.5);
    }
}
