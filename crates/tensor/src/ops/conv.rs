//! 2-D convolution: forward, backward-to-input (the `conv2(δ, rot180(K),
//! 'full')` of Sec. 4.3 / Fig. 11) and backward-to-weights (the
//! "data-as-kernels" convolution of Sec. 4.4.1 / Fig. 12).
//!
//! Layout conventions (single image, channel-major):
//! * input `d_l`:  `[C_in, H, W]`
//! * kernels `K`:  `[C_out, C_in, K_h, K_w]`
//! * bias `b`:     `[C_out]`
//! * output:       `[C_out, H_out, W_out]`

use crate::Tensor;

/// Output length along one spatial axis for a convolution/pool window.
///
/// # Panics
///
/// Panics if the window does not fit (`input + 2*pad < k`) or `stride == 0`.
#[expect(clippy::disallowed_macros, reason = "caller bug: window does not fit")]
pub fn conv_output_len(input: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be non-zero");
    assert!(
        input + 2 * pad >= k,
        "window {k} does not fit input {input} with padding {pad}"
    );
    (input + 2 * pad - k) / stride + 1
}

/// Direct (non-lowered) 2-D convolution forward pass, Eq. (1) of the paper.
///
/// # Panics
///
/// Panics on rank/size mismatches between `input`, `weight` and `bias`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (c_in, h, w) = unpack3(input, "conv2d input");
    let (c_out, c_in_w, kh, kw) = unpack4(weight, "conv2d weight");
    assert_eq!(c_in, c_in_w, "conv2d channel mismatch: {c_in} vs {c_in_w}");
    assert_eq!(bias.dims(), [c_out], "conv2d bias must be [C_out]");

    let ho = conv_output_len(h, kh, stride, pad);
    let wo = conv_output_len(w, kw, stride, pad);
    let mut out = Tensor::zeros(&[c_out, ho, wo]);

    for co in 0..c_out {
        let b = bias.as_slice()[co];
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = b;
                for ci in 0..c_in {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += weight[[co, ci, ky, kx]] * input[[ci, iy as usize, ix as usize]];
                        }
                    }
                }
                out[[co, oy, ox]] = acc;
            }
        }
    }
    out
}

/// Rotates each spatial kernel plane by 180° and swaps the in/out channel
/// axes: `[C_out, C_in, Kh, Kw] → [C_in, C_out, Kh, Kw]` with flipped `Kh,Kw`.
///
/// This is exactly the "reordered kernels" of Fig. 11: the backward pass
/// convolves the next layer's error with `rot180` of the forward kernels,
/// grouped so that each *input* channel becomes an output channel.
pub fn rot180(weight: &Tensor) -> Tensor {
    let (c_out, c_in, kh, kw) = unpack4(weight, "rot180 weight");
    Tensor::from_fn(&[c_in, c_out, kh, kw], |i| {
        weight[[i[1], i[0], kh - 1 - i[2], kw - 1 - i[3]]]
    })
}

/// Backward pass to the input: given the error `delta` w.r.t. this layer's
/// output, returns the error w.r.t. the layer's input,
/// `conv2(delta, rot180(K), 'full')` (Sec. 4.3, Fig. 11).
///
/// Runs the implicit-GEMM kernel [`conv2d_backward_input_with`], bitwise
/// equal to `col2im(δᵀ·W)`; any stride/padding combination is handled
/// natively, including the non-divisible strided geometry of AlexNet conv1.
/// For buffer reuse across batch samples call the `_with` variant directly.
///
/// # Panics
///
/// Panics on rank/size mismatches, or if `delta`'s spatial size is
/// inconsistent with `input_hw`, `stride` and `pad`.
pub fn conv2d_backward_input(
    delta: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let mut scratch = super::lowered::ConvScratch::new();
    super::lowered::conv2d_backward_input_with(delta, weight, input_hw, stride, pad, &mut scratch)
}

/// Scalar (non-lowered) reference implementation of
/// [`conv2d_backward_input`]: the scatter formulation, one multiply-add per
/// (output point × kernel tap). Kept as the ground truth the implicit-GEMM
/// kernel is tested against.
///
/// # Panics
///
/// Same conditions as [`conv2d_backward_input`].
pub fn conv2d_backward_input_scalar(
    delta: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let (c_out, dh, dw) = unpack3(delta, "conv2d_backward_input delta");
    let (c_out_w, c_in, kh, kw) = unpack4(weight, "conv2d_backward_input weight");
    assert_eq!(c_out, c_out_w, "delta/weight channel mismatch");
    let (h, w) = input_hw;
    assert_eq!(
        dh,
        conv_output_len(h, kh, stride, pad),
        "delta height mismatch"
    );
    assert_eq!(
        dw,
        conv_output_len(w, kw, stride, pad),
        "delta width mismatch"
    );

    // Scatter formulation: each output-point error contributes to the
    // receptive field that produced it. For stride == 1 and zero padding this
    // is algebraically identical to conv2(delta, rot180(K), 'full').
    let mut dx = Tensor::zeros(&[c_in, h, w]);
    for co in 0..c_out {
        for oy in 0..dh {
            for ox in 0..dw {
                // No zero-skip on `d`: `0 · NaN` must stay NaN so a diverged
                // weight poisons the gradient instead of vanishing.
                let d = delta[[co, oy, ox]];
                for ci in 0..c_in {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dx[[ci, iy as usize, ix as usize]] += d * weight[[co, ci, ky, kx]];
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Backward pass to the weights: `∂J/∂K[co,ci,ky,kx] = Σ_{oy,ox}
/// δ[co,oy,ox] · d[ci, oy·s+ky−p, ox·s+kx−p]` — the convolution of the error
/// with the forward data, where the stored data act as kernels (Fig. 12).
/// Also returns the bias gradient `∂J/∂b[co] = Σ δ[co,·,·]`.
///
/// Runs the implicit-GEMM kernel [`conv2d_backward_weights_with`], bitwise
/// equal to `δ · im2col(input)`; for buffer reuse across batch samples call
/// the `_with` variant directly.
///
/// # Panics
///
/// Panics on rank/size mismatches.
pub fn conv2d_backward_weights(
    input: &Tensor,
    delta: &Tensor,
    kernel_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let mut scratch = super::lowered::ConvScratch::new();
    super::lowered::conv2d_backward_weights_with(input, delta, kernel_hw, stride, pad, &mut scratch)
}

/// Scalar (non-lowered) reference implementation of
/// [`conv2d_backward_weights`], kept as the ground truth the implicit-GEMM
/// kernel is tested against.
///
/// # Panics
///
/// Same conditions as [`conv2d_backward_weights`].
pub fn conv2d_backward_weights_scalar(
    input: &Tensor,
    delta: &Tensor,
    kernel_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let (c_in, h, w) = unpack3(input, "conv2d_backward_weights input");
    let (c_out, dh, dw) = unpack3(delta, "conv2d_backward_weights delta");
    let (kh, kw) = kernel_hw;
    assert_eq!(
        dh,
        conv_output_len(h, kh, stride, pad),
        "delta height mismatch"
    );
    assert_eq!(
        dw,
        conv_output_len(w, kw, stride, pad),
        "delta width mismatch"
    );

    let mut dweight = Tensor::zeros(&[c_out, c_in, kh, kw]);
    let mut dbias = Tensor::zeros(&[c_out]);
    for co in 0..c_out {
        let mut bsum = 0.0;
        for oy in 0..dh {
            for ox in 0..dw {
                // No zero-skip on `d`: NaN/Inf activations must reach dW.
                let d = delta[[co, oy, ox]];
                bsum += d;
                for ci in 0..c_in {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dweight[[co, ci, ky, kx]] += d * input[[ci, iy as usize, ix as usize]];
                        }
                    }
                }
            }
        }
        dbias[[co]] = bsum;
    }
    (dweight, dbias)
}

fn unpack3(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        3,
        "{what} must be rank-3, got {:?}",
        t.shape()
    );
    (t.dims()[0], t.dims()[1], t.dims()[2])
}

fn unpack4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        4,
        "{what} must be rank-4, got {:?}",
        t.shape()
    );
    (t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks dJ/dx against finite differences where J = Σ out².
    #[test]
    fn backward_input_matches_finite_difference() {
        let mut x = Tensor::from_fn(&[2, 5, 5], |i| {
            ((i[0] * 25 + i[1] * 5 + i[2]) as f32 * 0.13).sin()
        });
        let w = Tensor::from_fn(&[3, 2, 3, 3], |i| {
            ((i[0] + 2 * i[1] + 3 * i[2] + 5 * i[3]) as f32 * 0.21).cos() * 0.3
        });
        let b = Tensor::zeros(&[3]);
        let loss = |x: &Tensor| -> f32 { conv2d(x, &w, &b, 1, 1).norm_sq() * 0.5 };

        let out = conv2d(&x, &w, &b, 1, 1);
        let dx = conv2d_backward_input(&out, &w, (5, 5), 1, 1);

        let eps = 1e-3;
        for probe in [[0usize, 0, 0], [1, 2, 3], [0, 4, 4], [1, 0, 2]] {
            let orig = x[probe];
            x[probe] = orig + eps;
            let lp = loss(&x);
            x[probe] = orig - eps;
            let lm = loss(&x);
            x[probe] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx[probe];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "at {probe:?}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn backward_weights_matches_finite_difference() {
        let x = Tensor::from_fn(&[2, 4, 4], |i| ((i[0] + i[1] + i[2]) as f32 * 0.3).sin());
        let mut w = Tensor::from_fn(&[2, 2, 3, 3], |i| {
            ((i[0] + i[1] * 2 + i[2] * 3 + i[3]) as f32 * 0.17).cos() * 0.2
        });
        let b = Tensor::zeros(&[2]);
        let loss = |w: &Tensor| -> f32 { conv2d(&x, w, &b, 1, 0).norm_sq() * 0.5 };

        let out = conv2d(&x, &w, &b, 1, 0);
        let (dw, db) = conv2d_backward_weights(&x, &out, (3, 3), 1, 0);
        assert_eq!(db.dims(), &[2]);

        let eps = 1e-3;
        for probe in [[0usize, 0, 0, 0], [1, 1, 2, 2], [0, 1, 1, 0]] {
            let orig = w[probe];
            w[probe] = orig + eps;
            let lp = loss(&w);
            w[probe] = orig - eps;
            let lm = loss(&w);
            w[probe] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw[probe];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "at {probe:?}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Finite-difference check of dJ/dx at stride 2 with non-divisible
    /// geometry — `(h + 2·pad − k) % stride = (8 + 2·pad − 3) % 2 = 1` for
    /// both pads, the AlexNet-conv1 upsampling edge case.
    #[test]
    fn backward_input_fd_strided_nondivisible() {
        for pad in [0usize, 1] {
            let mut x = Tensor::from_fn(&[2, 8, 8], |i| {
                ((i[0] * 64 + i[1] * 8 + i[2]) as f32 * 0.19).sin()
            });
            let w = Tensor::from_fn(&[3, 2, 3, 3], |i| {
                ((i[0] * 5 + i[1] * 3 + i[2] * 2 + i[3]) as f32 * 0.27).cos() * 0.3
            });
            let b = Tensor::zeros(&[3]);
            let loss = |x: &Tensor| -> f32 { conv2d(x, &w, &b, 2, pad).norm_sq() * 0.5 };

            let delta = conv2d(&x, &w, &b, 2, pad);
            let dx = conv2d_backward_input(&delta, &w, (8, 8), 2, pad);
            let dx_scalar = conv2d_backward_input_scalar(&delta, &w, (8, 8), 2, pad);
            assert!(
                dx.allclose(&dx_scalar, 1e-4),
                "GEMM and scalar paths disagree at pad={pad}"
            );

            let eps = 1e-3;
            for probe in [[0usize, 0, 0], [1, 3, 5], [0, 7, 7], [1, 4, 0]] {
                let orig = x[probe];
                x[probe] = orig + eps;
                let lp = loss(&x);
                x[probe] = orig - eps;
                let lm = loss(&x);
                x[probe] = orig;
                let num = (lp - lm) / (2.0 * eps);
                let ana = dx[probe];
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                    "pad={pad} at {probe:?}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    /// Finite-difference check of dJ/dK at stride 2 with non-divisible
    /// geometry, GEMM and scalar paths agreeing to 1e-4.
    #[test]
    fn backward_weights_fd_strided_nondivisible() {
        for pad in [0usize, 1] {
            let x = Tensor::from_fn(&[2, 8, 8], |i| {
                ((i[0] + i[1] * 2 + i[2]) as f32 * 0.21).sin()
            });
            let mut w = Tensor::from_fn(&[2, 2, 3, 3], |i| {
                ((i[0] * 7 + i[1] * 2 + i[2] * 3 + i[3]) as f32 * 0.15).cos() * 0.2
            });
            let b = Tensor::zeros(&[2]);
            let loss = |w: &Tensor| -> f32 { conv2d(&x, w, &b, 2, pad).norm_sq() * 0.5 };

            let delta = conv2d(&x, &w, &b, 2, pad);
            let (dw, _) = conv2d_backward_weights(&x, &delta, (3, 3), 2, pad);
            let (dw_scalar, db_scalar) = conv2d_backward_weights_scalar(&x, &delta, (3, 3), 2, pad);
            assert!(
                dw.allclose(&dw_scalar, 1e-4),
                "GEMM and scalar paths disagree at pad={pad}"
            );
            assert_eq!(db_scalar.dims(), &[2]);

            let eps = 1e-3;
            for probe in [[0usize, 0, 0, 0], [1, 1, 2, 2], [0, 1, 1, 0], [1, 0, 2, 1]] {
                let orig = w[probe];
                w[probe] = orig + eps;
                let lp = loss(&w);
                w[probe] = orig - eps;
                let lm = loss(&w);
                w[probe] = orig;
                let num = (lp - lm) / (2.0 * eps);
                let ana = dw[probe];
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                    "pad={pad} at {probe:?}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn forward_propagates_nan() {
        // A NaN input pixel must poison every output it participates in,
        // even under zero weights.
        let x = Tensor::from_vec(&[1, 2, 2], vec![f32::NAN, 1.0, 1.0, 1.0]);
        let w = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, 1, 0);
        assert!(y.as_slice()[0].is_nan());
    }

    #[test]
    fn backward_input_propagates_nan_through_zero_delta() {
        // Regression: the old scatter loop skipped zero delta entries, so a
        // NaN weight never reached dx.
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![f32::NAN]);
        let delta = Tensor::zeros(&[1, 2, 2]);
        for dx in [
            conv2d_backward_input(&delta, &w, (2, 2), 1, 0),
            conv2d_backward_input_scalar(&delta, &w, (2, 2), 1, 0),
        ] {
            assert!(dx.as_slice().iter().all(|v| v.is_nan()));
        }
    }

    #[test]
    fn backward_weights_propagates_nan_through_zero_delta() {
        let x = Tensor::from_vec(&[1, 1, 1], vec![f32::NAN]);
        let delta = Tensor::zeros(&[1, 1, 1]);
        for (dw, _) in [
            conv2d_backward_weights(&x, &delta, (1, 1), 1, 0),
            conv2d_backward_weights_scalar(&x, &delta, (1, 1), 1, 0),
        ] {
            assert!(dw.as_slice()[0].is_nan());
        }
    }

    #[test]
    fn forward_known_values() {
        // 1-channel 3x3 input, 2x2 kernel of ones, no padding: sliding sums.
        let x = Tensor::from_fn(&[1, 3, 3], |i| (i[1] * 3 + i[2]) as f32);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let b = Tensor::from_vec(&[1], vec![10.0]);
        let y = conv2d(&x, &w, &b, 1, 0);
        // windows: (0+1+3+4)=8, (1+2+4+5)=12, (3+4+6+7)=20, (4+5+7+8)=24; +10
        assert_eq!(y.as_slice(), &[18.0, 22.0, 30.0, 34.0]);
    }

    #[test]
    fn forward_with_stride_and_padding() {
        let x = Tensor::ones(&[1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, 2, 1);
        assert_eq!(y.dims(), &[1, 2, 2]);
        // corner window covers 2x2 ones, interior-ish windows cover more.
        assert_eq!(y[[0, 0, 0]], 4.0);
        assert_eq!(y[[0, 1, 1]], 9.0);
    }

    #[test]
    fn rot180_flips_and_swaps() {
        let w = Tensor::from_fn(&[2, 3, 2, 2], |i| {
            (i[0] * 100 + i[1] * 10 + i[2] * 2 + i[3]) as f32
        });
        let r = rot180(&w);
        assert_eq!(r.dims(), &[3, 2, 2, 2]);
        // r[ci, co, ky, kx] == w[co, ci, 1-ky, 1-kx]
        assert_eq!(r[[2, 1, 0, 0]], w[[1, 2, 1, 1]]);
        assert_eq!(r[[0, 0, 1, 0]], w[[0, 0, 0, 1]]);
    }

    #[test]
    fn backward_input_equals_full_conv_with_rot180() {
        // For stride=1, pad=0: dx == conv2(delta, rot180(K), 'full'),
        // i.e. conv2d with padding (kh-1, kw-1) over the reordered kernel.
        let x = Tensor::from_fn(&[2, 6, 6], |i| {
            ((i[0] + i[1] * 2 + i[2]) as f32 * 0.1).sin()
        });
        let w = Tensor::from_fn(&[3, 2, 3, 3], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) as f32 * 0.23).cos()
        });
        let b = Tensor::zeros(&[3]);
        let delta = conv2d(&x, &w, &b, 1, 0); // any tensor of the right shape

        let dx_scatter = conv2d_backward_input(&delta, &w, (6, 6), 1, 0);
        let dx_full = conv2d(&delta, &rot180(&w), &Tensor::zeros(&[2]), 1, 2);
        assert!(
            dx_scatter.allclose(&dx_full, 1e-3),
            "scatter and full-conv formulations disagree"
        );
    }

    #[test]
    fn output_len_formula() {
        assert_eq!(conv_output_len(224, 3, 1, 1), 224);
        assert_eq!(conv_output_len(227, 11, 4, 0), 55);
        assert_eq!(conv_output_len(28, 5, 1, 0), 24);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn output_len_rejects_oversized_window() {
        conv_output_len(2, 5, 1, 0);
    }
}
