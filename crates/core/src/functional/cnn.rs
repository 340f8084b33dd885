//! Convolutional networks executing on the modelled ReRAM crossbars.

use super::mlp::transpose_no_bias;
use pipelayer_nn::loss::Loss;
use pipelayer_nn::spec::{LayerSpec, NetSpec, PoolKind};
use pipelayer_reram::{ReramMatrix, ReramParams};
use pipelayer_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One convolution layer mapped exactly as Fig. 4: the kernel matrix
/// (`C_out × (K²·C_in + 1)`, bias folded) on forward arrays, and the
/// rot180-reordered kernels (`C_in × K²·C_out`, Fig. 11) on the `A_l2`
/// backward arrays.
struct ConvStage {
    k: usize,
    pad: usize,
    c_in: usize,
    c_out: usize,
    relu: bool,
    forward: ReramMatrix,
    backward: ReramMatrix,
    grad_acc: Vec<f32>, // [c_out x (k²c_in + 1)]
    cached_input: Tensor,
    cached_patches: Tensor, // im2col of the input, the stored-d of Fig. 12
    cached_out: Tensor,
}

impl ConvStage {
    fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        pad: usize,
        params: &ReramParams,
        rng: &mut impl Rng,
    ) -> Self {
        let cols = k * k * c_in + 1;
        let a = (6.0 / (k * k * c_in + c_out) as f32).sqrt();
        let mut w: Vec<f32> = Tensor::uniform(&[c_out, cols], -a, a, rng).into_vec();
        // Zero biases (last column).
        for o in 0..c_out {
            w[o * cols + cols - 1] = 0.0;
        }
        let bw = reorder_rot180(&w, c_out, c_in, k);
        ConvStage {
            k,
            pad,
            c_in,
            c_out,
            relu: true,
            forward: ReramMatrix::program(&w, c_out, cols, params),
            backward: ReramMatrix::program(&bw, c_in, k * k * c_out, params),
            grad_acc: vec![0.0; c_out * cols],
            cached_input: Tensor::default(),
            cached_patches: Tensor::default(),
            cached_out: Tensor::default(),
        }
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.dims()[0], self.c_in, "channel mismatch");
        let (h, w) = (input.dims()[1], input.dims()[2]);
        let ho = ops::conv_output_len(h, self.k, 1, self.pad);
        let wo = ops::conv_output_len(w, self.k, 1, self.pad);
        let patches = ops::im2col(input, self.k, self.k, 1, self.pad); // [P, k²c_in]
        let p_count = ho * wo;

        let mut out = Tensor::zeros(&[self.c_out, ho, wo]);
        // The Fig. 4 window loop, fed as one multi-patch batch: every
        // patch is still its own array read phase (identical bits and
        // spike accounting), but on arrays whose reads don't perturb the
        // device one walk over each array's levels serves the whole image.
        let xs: Vec<Vec<f32>> = (0..p_count)
            .map(|p| {
                let mut x: Vec<f32> = (0..self.k * self.k * self.c_in)
                    .map(|c| patches[[p, c]])
                    .collect();
                x.push(1.0); // bias input
                x
            })
            .collect();
        for (p, y) in self.forward.matvec_batch(&xs).into_iter().enumerate() {
            for (co, &v) in y.iter().enumerate() {
                // Activation component: subtractor output through ReLU LUT.
                out[[co, p / wo, p % wo]] = if self.relu { v.max(0.0) } else { v };
            }
        }
        self.cached_input = input.clone();
        self.cached_patches = patches;
        self.cached_out = out.clone();
        out
    }

    /// Backward: masks δ by the ReLU derivative (recovered from the cached
    /// *output*, Sec. 4.3), accumulates `∂W` from the stored patches
    /// (Fig. 12) and runs the error convolution on the `A_l2` arrays
    /// (Fig. 11). Returns `δ` w.r.t. the layer input.
    fn backward(&mut self, delta: &Tensor) -> Tensor {
        assert_eq!(delta.dims(), self.cached_out.dims(), "delta shape mismatch");
        let masked = if self.relu {
            delta.zip_map(&self.cached_out, |d, o| if o > 0.0 { d } else { 0.0 })
        } else {
            delta.clone()
        };
        let (ho, wo) = (masked.dims()[1], masked.dims()[2]);
        let cols = self.k * self.k * self.c_in + 1;
        // ∂W accumulation over the stored d patches, lowered to one GEMM:
        // `dW[c_out × k²c_in] = δ[c_out × P] · patches[P × k²c_in]`
        // (Fig. 12). No zero-skip on δ — `0·NaN` must stay NaN so a
        // poisoned activation is not silently dropped from the gradient.
        let p_count = ho * wo;
        let dmat = masked.reshape(&[self.c_out, p_count]);
        let dw = ops::matmul(&dmat, &self.cached_patches); // [c_out, cols-1]
        for co in 0..self.c_out {
            let row = &mut self.grad_acc[co * cols..(co + 1) * cols];
            let dw_row = &dw.as_slice()[co * (cols - 1)..(co + 1) * (cols - 1)];
            for (r, &g) in row.iter_mut().zip(dw_row) {
                *r += g;
            }
            // Bias column: the sum of this output map's masked δ.
            let drow = &dmat.as_slice()[co * p_count..(co + 1) * p_count];
            row[cols - 1] += drow.iter().sum::<f32>();
        }
        // Error backward: full convolution with the reordered kernels,
        // executed as the same window loop against the backward arrays.
        let (h_in, w_in) = (self.cached_input.dims()[1], self.cached_input.dims()[2]);
        let bpad = self.k - 1 - self.pad;
        let dpatches = ops::im2col(&masked, self.k, self.k, 1, bpad); // [P_in, k²c_out]
        assert_eq!(
            dpatches.dims()[0],
            h_in * w_in,
            "backward geometry mismatch"
        );
        let mut dx = Tensor::zeros(&[self.c_in, h_in, w_in]);
        // Batched error convolution over the `A_l2` arrays. Hardware
        // semantics are preserved inside `matvec`: an all-zero patch
        // drives no input spikes, so its read phase never fires and
        // `read_spikes` stays untouched — the crossbar model's behaviour,
        // unlike the software zero-skips removed elsewhere.
        let xs: Vec<Vec<f32>> = (0..h_in * w_in)
            .map(|p| {
                (0..self.k * self.k * self.c_out)
                    .map(|c| dpatches[[p, c]])
                    .collect()
            })
            .collect();
        for (p, y) in self.backward.matvec_batch(&xs).into_iter().enumerate() {
            for (ci, &v) in y.iter().enumerate() {
                dx[[ci, p / w_in, p % w_in]] = v;
            }
        }
        dx
    }

    /// Fig. 14(b): read old weights from the arrays, subtract the averaged
    /// gradient, write back both the forward and reordered copies.
    fn apply_update(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch as f32;
        let mut w = self.forward.read();
        for (wi, g) in w.iter_mut().zip(&self.grad_acc) {
            *wi -= scale * g;
        }
        self.forward.write(&w);
        self.backward
            .write(&reorder_rot180(&w, self.c_out, self.c_in, self.k));
        self.grad_acc.fill(0.0);
    }
}

/// Builds the Fig. 11 backward matrix from the forward one: entry
/// `[ci][(co,ky,kx)] = W[co][(ci, K-1-ky, K-1-kx)]`, biases dropped.
fn reorder_rot180(w: &[f32], c_out: usize, c_in: usize, k: usize) -> Vec<f32> {
    let cols_fwd = k * k * c_in + 1;
    let cols_bwd = k * k * c_out;
    let mut out = vec![0.0f32; c_in * cols_bwd];
    for ci in 0..c_in {
        for co in 0..c_out {
            for ky in 0..k {
                for kx in 0..k {
                    // Forward patch order is (ci, ky, kx) — see im2col.
                    let fwd_col = (ci * k + (k - 1 - ky)) * k + (k - 1 - kx);
                    let bwd_col = (co * k + ky) * k + kx;
                    out[ci * cols_bwd + bwd_col] = w[co * cols_fwd + fwd_col];
                }
            }
        }
    }
    out
}

struct FcStage {
    n_in: usize,
    n_out: usize,
    relu: bool,
    forward: ReramMatrix,  // [n_out x (n_in + 1)]
    backward: ReramMatrix, // [n_in x n_out]
    grad_acc: Vec<f32>,
    cached_in: Vec<f32>,
    cached_out: Vec<f32>,
    cached_in_dims: Vec<usize>,
}

impl FcStage {
    fn new(
        n_in: usize,
        n_out: usize,
        relu: bool,
        params: &ReramParams,
        rng: &mut impl Rng,
    ) -> Self {
        let a = (6.0 / (n_in + n_out) as f32).sqrt();
        let mut w: Vec<f32> = Tensor::uniform(&[n_out, n_in + 1], -a, a, rng).into_vec();
        for o in 0..n_out {
            w[o * (n_in + 1) + n_in] = 0.0;
        }
        let wt = transpose_no_bias(&w, n_out, n_in);
        FcStage {
            n_in,
            n_out,
            relu,
            forward: ReramMatrix::program(&w, n_out, n_in + 1, params),
            backward: ReramMatrix::program(&wt, n_in, n_out, params),
            grad_acc: vec![0.0; n_out * (n_in + 1)],
            cached_in: Vec::new(),
            cached_out: Vec::new(),
            cached_in_dims: Vec::new(),
        }
    }

    fn forward(&mut self, input: &Tensor) -> Vec<f32> {
        assert_eq!(input.numel(), self.n_in, "fc width mismatch");
        self.cached_in_dims = input.dims().to_vec();
        let mut x = input.as_slice().to_vec();
        x.push(1.0); // bias input
        let mut y = self.forward.matvec(&x);
        if self.relu {
            for v in &mut y {
                *v = v.max(0.0);
            }
        }
        // Cache WITH the bias element: grad accumulation is then a single
        // outer product over the whole [n_out × (n_in+1)] accumulator.
        self.cached_in = x;
        self.cached_out = y.clone();
        y
    }

    fn backward(&mut self, delta: &[f32]) -> Tensor {
        let mut d = delta.to_vec();
        if self.relu {
            for (dv, &o) in d.iter_mut().zip(&self.cached_out) {
                if o <= 0.0 {
                    *dv = 0.0;
                }
            }
        }
        // Lowered to one rank-1 update; no zero-skip on δ (0·NaN = NaN
        // must propagate into the accumulated gradient).
        ops::outer_acc(&mut self.grad_acc, &d, &self.cached_in);
        let dx = self.backward.matvec(&d);
        Tensor::from_vec(&self.cached_in_dims, dx)
    }

    fn apply_update(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch as f32;
        let mut w = self.forward.read();
        for (wi, g) in w.iter_mut().zip(&self.grad_acc) {
            *wi -= scale * g;
        }
        self.forward.write(&w);
        self.backward
            .write(&transpose_no_bias(&w, self.n_out, self.n_in));
        self.grad_acc.fill(0.0);
    }
}

enum Stage {
    Conv(ConvStage),
    Pool {
        k: usize,
        stride: usize,
        indices: Option<ops::PoolIndices>,
    },
    Fc(FcStage),
}

/// A convolutional network whose every MVM — forward and backward — runs on
/// the modelled ReRAM crossbars.
///
/// Restrictions of the functional model (they do not affect the
/// timing/energy models): convolutions must have stride 1, pooling must be
/// max pooling. ReLU follows every weighted layer except the last.
///
/// # Example
///
/// ```no_run
/// use pipelayer::functional::ReramCnn;
/// use pipelayer_nn::{LayerSpec, NetSpec, spec::PoolKind};
/// use pipelayer_reram::ReramParams;
///
/// let spec = NetSpec::new("tiny", (1, 8, 8), vec![
///     LayerSpec::Conv { k: 3, c_out: 4, stride: 1, pad: 0 },
///     LayerSpec::Pool { k: 2, stride: 2, kind: PoolKind::Max },
///     LayerSpec::Fc { n_out: 10 },
/// ]);
/// let mut cnn = ReramCnn::from_spec(&spec, &ReramParams::default(), 7);
/// ```
pub struct ReramCnn {
    stages: Vec<Stage>,
    input: (usize, usize, usize),
    loss: Loss,
}

impl ReramCnn {
    /// Builds and programs a CNN from a network spec.
    ///
    /// # Panics
    ///
    /// Panics on unsupported geometry (strided conv, average pooling) or a
    /// spec with no weighted layers.
    pub fn from_spec(spec: &NetSpec, params: &ReramParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weighted = spec.weighted_layers();
        assert!(weighted > 0, "network has no weighted layers");
        let mut stages = Vec::new();
        let mut shape = spec.input;
        let mut seen = 0usize;
        for layer in &spec.layers {
            match *layer {
                LayerSpec::Conv {
                    k,
                    c_out,
                    stride,
                    pad,
                } => {
                    assert_eq!(stride, 1, "functional conv supports stride 1 only");
                    let mut st = ConvStage::new(shape.0, c_out, k, pad, params, &mut rng);
                    seen += 1;
                    st.relu = seen < weighted;
                    let ho = ops::conv_output_len(shape.1, k, 1, pad);
                    let wo = ops::conv_output_len(shape.2, k, 1, pad);
                    shape = (c_out, ho, wo);
                    stages.push(Stage::Conv(st));
                }
                LayerSpec::Pool { k, stride, kind } => {
                    assert_eq!(kind, PoolKind::Max, "functional pooling is max-only");
                    shape = (
                        shape.0,
                        ops::conv_output_len(shape.1, k, stride, 0),
                        ops::conv_output_len(shape.2, k, stride, 0),
                    );
                    stages.push(Stage::Pool {
                        k,
                        stride,
                        indices: None,
                    });
                }
                LayerSpec::Fc { n_out } => {
                    let n_in = shape.0 * shape.1 * shape.2;
                    seen += 1;
                    stages.push(Stage::Fc(FcStage::new(
                        n_in,
                        n_out,
                        seen < weighted,
                        params,
                        &mut rng,
                    )));
                    shape = (n_out, 1, 1);
                }
            }
        }
        ReramCnn {
            stages,
            input: spec.input,
            loss: Loss::SoftmaxCrossEntropy,
        }
    }

    /// Forward pass on the crossbars; caches state for training.
    ///
    /// # Panics
    ///
    /// Panics if the input shape mismatches the spec.
    pub fn forward(&mut self, image: &Tensor) -> Vec<f32> {
        assert_eq!(
            image.dims(),
            [self.input.0, self.input.1, self.input.2],
            "input shape mismatch"
        );
        let mut spatial = image.clone();
        let mut vector: Option<Vec<f32>> = None;
        for stage in &mut self.stages {
            match stage {
                Stage::Conv(conv) => {
                    spatial = conv.forward(&spatial);
                }
                Stage::Pool { k, stride, indices } => {
                    let (out, idx) = ops::maxpool2d(&spatial, *k, *stride);
                    *indices = Some(idx);
                    spatial = out;
                }
                Stage::Fc(fc) => {
                    let input = match &vector {
                        Some(v) => Tensor::from_vec(&[v.len()], v.clone()),
                        None => spatial.clone(),
                    };
                    vector = Some(fc.forward(&input));
                }
            }
        }
        vector.unwrap_or_else(|| spatial.as_slice().to_vec())
    }

    /// Predicted class.
    pub fn predict(&mut self, image: &Tensor) -> usize {
        let out = self.forward(image);
        out.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Accuracy over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched inputs.
    pub fn accuracy(&mut self, images: &[Tensor], labels: &[usize]) -> f32 {
        assert!(
            !images.is_empty() && images.len() == labels.len(),
            "bad eval set"
        );
        let correct = images
            .iter()
            .zip(labels)
            .filter(|(img, &l)| {
                let p = self.predict(img);
                p == l
            })
            .count();
        correct as f32 / images.len() as f32
    }

    fn train_sample(&mut self, image: &Tensor, label: usize) -> f32 {
        let out = self.forward(image);
        let out_t = Tensor::from_vec(&[out.len()], out);
        let (loss, delta_t) = self.loss.loss_and_delta(&out_t, label);

        let mut vec_delta: Option<Vec<f32>> = Some(delta_t.into_vec());
        let mut spatial_delta: Option<Tensor> = None;
        for stage in self.stages.iter_mut().rev() {
            match stage {
                Stage::Fc(fc) => {
                    let d = vec_delta
                        .take()
                        .unwrap_or_else(|| spatial_delta.take().expect("delta missing").into_vec());
                    let dx = fc.backward(&d);
                    if dx.shape().rank() == 1 {
                        vec_delta = Some(dx.into_vec());
                    } else {
                        spatial_delta = Some(dx);
                    }
                }
                Stage::Pool { indices, .. } => {
                    let d = spatial_delta.take().expect("pool delta missing");
                    let idx = indices.as_ref().expect("pool backward before forward");
                    spatial_delta = Some(ops::maxpool2d_backward(&d, idx));
                }
                Stage::Conv(conv) => {
                    let d = spatial_delta.take().expect("conv delta missing");
                    spatial_delta = Some(conv.backward(&d));
                }
            }
        }
        loss
    }

    /// Trains one mini-batch; applies the Fig. 14(b) update at the end.
    /// Returns the mean loss.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched batches.
    pub fn train_batch(&mut self, images: &[Tensor], labels: &[usize], lr: f32) -> f32 {
        assert!(
            !images.is_empty() && images.len() == labels.len(),
            "bad batch"
        );
        let mut total = 0.0;
        for (img, &l) in images.iter().zip(labels) {
            total += self.train_sample(img, l);
        }
        for stage in &mut self.stages {
            match stage {
                Stage::Conv(c) => c.apply_update(lr, images.len()),
                Stage::Fc(f) => f.apply_update(lr, images.len()),
                Stage::Pool { .. } => {}
            }
        }
        total / images.len() as f32
    }

    /// Total array-read spikes so far.
    pub fn read_spikes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Conv(c) => c.forward.read_spikes() + c.backward.read_spikes(),
                Stage::Fc(f) => f.forward.read_spikes() + f.backward.read_spikes(),
                Stage::Pool { .. } => 0,
            })
            .sum()
    }

    /// Total programming pulses so far.
    pub fn write_spikes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Conv(c) => c.forward.write_spikes() + c.backward.write_spikes(),
                Stage::Fc(f) => f.forward.write_spikes() + f.backward.write_spikes(),
                Stage::Pool { .. } => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::downsample;
    use pipelayer_nn::data::SyntheticMnist;

    fn tiny_spec() -> NetSpec {
        NetSpec::new(
            "tiny-cnn",
            (1, 7, 7),
            vec![
                LayerSpec::Conv {
                    k: 3,
                    c_out: 4,
                    stride: 1,
                    pad: 0,
                },
                LayerSpec::Fc { n_out: 10 },
            ],
        )
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut cnn = ReramCnn::from_spec(&tiny_spec(), &ReramParams::default(), 3);
        let x = Tensor::from_fn(&[1, 7, 7], |i| {
            ((i[1] * 7 + i[2]) as f32 * 0.02).sin().abs()
        });
        let a = cnn.forward(&x);
        let b = cnn.forward(&x);
        assert_eq!(a.len(), 10);
        assert_eq!(a, b, "inference must be deterministic");
    }

    #[test]
    fn conv_forward_matches_float_reference() {
        // Compare the crossbar conv against a float conv using the weights
        // read back from the arrays.
        let mut cnn = ReramCnn::from_spec(&tiny_spec(), &ReramParams::default(), 4);
        let x = Tensor::from_fn(&[1, 7, 7], |i| ((i[1] + 2 * i[2]) as f32 * 0.11).sin());

        let Stage::Conv(conv) = &mut cnn.stages[0] else {
            panic!("first stage should be conv")
        };
        let w = conv.forward.read(); // [4 x 10], bias last
        let cols = 10;
        let weight = Tensor::from_fn(&[4, 1, 3, 3], |i| w[i[0] * cols + (i[2] * 3 + i[3])]);
        let bias = Tensor::from_vec(&[4], (0..4).map(|o| w[o * cols + 9]).collect());
        let want = ops::conv2d(&x, &weight, &bias, 1, 0).map(|v| v.max(0.0));
        let got = conv.forward(&x);
        assert!(
            got.allclose(&want, 0.05),
            "crossbar conv deviates from float reference"
        );
    }

    #[test]
    fn rot180_reorder_matches_tensor_rot180() {
        // reorder_rot180 must agree with ops::rot180 modulo layout.
        let (c_out, c_in, k) = (3usize, 2usize, 3usize);
        let cols = k * k * c_in + 1;
        let w: Vec<f32> = (0..c_out * cols).map(|i| (i as f32 * 0.7).sin()).collect();
        let weight = Tensor::from_fn(&[c_out, c_in, k, k], |i| {
            w[i[0] * cols + (i[1] * k + i[2]) * k + i[3]]
        });
        let r = ops::rot180(&weight); // [c_in, c_out, k, k]
        let bw = reorder_rot180(&w, c_out, c_in, k);
        let cols_bwd = k * k * c_out;
        for ci in 0..c_in {
            for co in 0..c_out {
                for ky in 0..k {
                    for kx in 0..k {
                        let got = bw[ci * cols_bwd + (co * k + ky) * k + kx];
                        let want = r[[ci, co, ky, kx]];
                        assert!(
                            (got - want).abs() < 1e-6,
                            "mismatch at ci={ci} co={co} ky={ky} kx={kx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trains_on_synthetic_task() {
        let data = SyntheticMnist::generate(80, 40, 909);
        let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
        let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
        let mut cnn = ReramCnn::from_spec(&tiny_spec(), &ReramParams::default(), 5);
        let before = cnn.accuracy(&te, &data.test.labels);
        for _ in 0..3 {
            for (imgs, labs) in tr.chunks(10).zip(data.train.labels.chunks(10)) {
                cnn.train_batch(imgs, labs, 0.2);
            }
        }
        let after = cnn.accuracy(&te, &data.test.labels);
        assert!(
            after > before && after > 0.4,
            "CNN on ReRAM failed to learn: {before} -> {after}"
        );
        assert!(cnn.write_spikes() > 0 && cnn.read_spikes() > 0);
    }

    #[test]
    fn pool_layers_route_without_params() {
        let spec = NetSpec::new(
            "pooled",
            (1, 8, 8),
            vec![
                LayerSpec::Conv {
                    k: 3,
                    c_out: 2,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::Pool {
                    k: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Fc { n_out: 4 },
            ],
        );
        let mut cnn = ReramCnn::from_spec(&spec, &ReramParams::default(), 6);
        let x = Tensor::ones(&[1, 8, 8]);
        let y = cnn.forward(&x);
        assert_eq!(y.len(), 4);
        // A training step must run through pool backward without panicking.
        cnn.train_batch(&[x], &[1], 0.1);
    }

    #[test]
    #[should_panic(expected = "stride 1")]
    fn rejects_strided_conv() {
        let spec = NetSpec::new(
            "strided",
            (1, 8, 8),
            vec![
                LayerSpec::Conv {
                    k: 3,
                    c_out: 2,
                    stride: 2,
                    pad: 0,
                },
                LayerSpec::Fc { n_out: 2 },
            ],
        );
        ReramCnn::from_spec(&spec, &ReramParams::default(), 7);
    }
}
