//! Loss functions (Sec. 2.2): the L2-norm loss `J = ½‖y−t‖²` and the softmax
//! cross-entropy loss, both returning the output-layer error `δ_L` needed to
//! start the backward pass.

use pipelayer_tensor::Tensor;

/// Loss function selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Loss {
    /// `J(W,b) = ½‖y − t‖²` — the paper's L2-norm loss. `δ_L = y − t`
    /// (the `f'(u_L)` factor is applied by the preceding activation layer).
    L2,
    /// Softmax + cross-entropy, `J = −Σ 1(y_i = t) log p_i`. The combined
    /// gradient is the numerically stable `softmax(y) − onehot(t)`.
    #[default]
    SoftmaxCrossEntropy,
}

impl Loss {
    /// Computes the scalar loss and the error `δ` w.r.t. the network output
    /// for a single sample with class label `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target >= output.numel()` (through the slice bounds
    /// check).
    pub fn loss_and_delta(&self, output: &Tensor, target: usize) -> (f32, Tensor) {
        match self {
            Loss::L2 => {
                let mut delta = output.clone();
                delta.as_mut_slice()[target] -= 1.0;
                let loss = 0.5 * delta.norm_sq();
                (loss, delta)
            }
            Loss::SoftmaxCrossEntropy => {
                let p = softmax(output);
                let loss = -(p.as_slice()[target].max(1e-12)).ln();
                let mut delta = p;
                delta.as_mut_slice()[target] -= 1.0;
                (loss, delta)
            }
        }
    }
}

/// Numerically stable softmax over a rank-1 tensor.
pub fn softmax(x: &Tensor) -> Tensor {
    let m = x.max();
    let exps = x.map(|v| (v - m).exp());
    let z = exps.sum();
    exps.map(|v| v / z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]));
        assert!((p.sum() - 1.0).abs() < 1e-6);
        assert!(p.as_slice()[2] > p.as_slice()[1]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax(&Tensor::from_vec(&[2], vec![1000.0, 1001.0]));
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn l2_loss_and_delta() {
        let y = Tensor::from_vec(&[3], vec![0.2, 0.5, 0.3]);
        let (loss, delta) = Loss::L2.loss_and_delta(&y, 1);
        // t = (0,1,0); delta = y - t
        assert!(delta.allclose(&Tensor::from_vec(&[3], vec![0.2, -0.5, 0.3]), 1e-6));
        assert!((loss - 0.5 * (0.04 + 0.25 + 0.09)).abs() < 1e-6);
    }

    #[test]
    fn ce_delta_gradient_check() {
        let y = Tensor::from_vec(&[4], vec![0.1, -0.3, 0.7, 0.0]);
        let (_, delta) = Loss::SoftmaxCrossEntropy.loss_and_delta(&y, 2);
        let eps = 1e-3;
        for i in 0..4 {
            let mut yp = y.clone();
            yp.as_mut_slice()[i] += eps;
            let (lp, _) = Loss::SoftmaxCrossEntropy.loss_and_delta(&yp, 2);
            let mut ym = y.clone();
            ym.as_mut_slice()[i] -= eps;
            let (lm, _) = Loss::SoftmaxCrossEntropy.loss_and_delta(&ym, 2);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - delta.as_slice()[i]).abs() < 1e-3,
                "at {i}: {num} vs {}",
                delta.as_slice()[i]
            );
        }
    }

    #[test]
    fn ce_loss_lower_for_correct_prediction() {
        let confident = Tensor::from_vec(&[3], vec![5.0, 0.0, 0.0]);
        let (l_right, _) = Loss::SoftmaxCrossEntropy.loss_and_delta(&confident, 0);
        let (l_wrong, _) = Loss::SoftmaxCrossEntropy.loss_and_delta(&confident, 1);
        assert!(l_right < l_wrong);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn rejects_bad_target() {
        Loss::L2.loss_and_delta(&Tensor::zeros(&[3]), 3);
    }
}
