//! Pooling layers: max pooling (with argmax routing for the backward pass,
//! Fig. 10b) and average pooling (Eq. 2).

use crate::Tensor;

pub use super::conv::conv_output_len as pool_output_len;

/// The argmax bookkeeping produced by [`maxpool2d`]: for every output point,
/// the linear offset (within the input tensor) of the input element that won
/// the window. Mirrors the paper's observation that with `d_l` stored in
/// memory subarrays, "the index for the max element in a window can be found"
/// (Sec. 4.3) — here we keep the index explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolIndices {
    indices: Vec<usize>,
    input_dims: Vec<usize>,
}

impl PoolIndices {
    /// Winning input offsets, one per output element (row-major).
    pub fn winners(&self) -> &[usize] {
        &self.indices
    }

    /// Shape of the input tensor the indices refer to.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }
}

/// Max-pool forward: `k×k` windows with stride `stride`.
///
/// Returns the pooled tensor and the argmax indices needed by
/// [`maxpool2d_backward`].
///
/// # Panics
///
/// Panics if `input` is not rank-3 or the window does not fit.
pub fn maxpool2d(input: &Tensor, k: usize, stride: usize) -> (Tensor, PoolIndices) {
    let (c, h, w) = dims3(input);
    assert_ne!(k, 0, "pooling window must be non-empty");
    let ho = pool_output_len(h, k, stride, 0);
    let wo = pool_output_len(w, k, stride, 0);
    let src = input.as_slice();
    let mut out = Vec::with_capacity(c * ho * wo);
    let mut indices = Vec::with_capacity(c * ho * wo);
    for ci in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                // Seed the argmax from the window's own first element, never a
                // sentinel: with a NEG_INFINITY/offset-0 default, an all-NaN
                // (or all -inf) window never fires `v > best` and routes its
                // gradient to linear offset 0 — the wrong channel entirely.
                let corner = (ci * h + oy * stride) * w + ox * stride;
                let (mut best, mut best_off) = (src[corner], corner);
                for row in (corner..).step_by(w).take(k) {
                    for (off, &v) in (row..).zip(&src[row..row + k]) {
                        if v > best {
                            best = v;
                            best_off = off;
                        }
                    }
                }
                out.push(best);
                indices.push(best_off);
            }
        }
    }
    (
        Tensor::from_vec(&[c, ho, wo], out),
        PoolIndices {
            indices,
            input_dims: vec![c, h, w],
        },
    )
}

/// Max-pool backward: routes each output error to the input element that won
/// its window (all other window positions receive zero), Fig. 10(b).
///
/// # Panics
///
/// Panics if `delta`'s element count differs from the recorded window count.
pub fn maxpool2d_backward(delta: &Tensor, idx: &PoolIndices) -> Tensor {
    assert_eq!(
        delta.numel(),
        idx.indices.len(),
        "delta has {} elements but pooling recorded {} windows",
        delta.numel(),
        idx.indices.len()
    );
    let mut dx = Tensor::zeros(&idx.input_dims);
    let dxs = dx.as_mut_slice();
    for (&off, &d) in idx.indices.iter().zip(delta.as_slice()) {
        dxs[off] += d;
    }
    dx
}

/// Average-pool forward, Eq. (2): non-overlapping `k×k` windows averaged.
///
/// # Panics
///
/// Panics if `input` is not rank-3 or the window does not fit.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn avgpool2d(input: &Tensor, k: usize, stride: usize) -> Tensor {
    let (c, h, w) = dims3(input);
    let ho = pool_output_len(h, k, stride, 0);
    let wo = pool_output_len(w, k, stride, 0);
    let inv = 1.0 / (k * k) as f32;
    let input = input.as_slice();
    Tensor::from_fn(&[c, ho, wo], |i| {
        let (ci, oy, ox) = (i[0], i[1], i[2]);
        let mut acc = 0.0;
        for ky in 0..k {
            let row = (ci * h + oy * stride + ky) * w + ox * stride;
            for &v in &input[row..row + k] {
                acc += v;
            }
        }
        acc * inv
    })
}

/// Average-pool backward: each output error is spread uniformly
/// (scaled by `1/k²`) over its window.
///
/// # Panics
///
/// Panics if `delta` is not rank-3 or is inconsistent with the given input
/// geometry.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn avgpool2d_backward(
    delta: &Tensor,
    input_hw: (usize, usize),
    k: usize,
    stride: usize,
) -> Tensor {
    let (c, dh, dw) = dims3(delta);
    let (h, w) = input_hw;
    assert_eq!(
        dh,
        pool_output_len(h, k, stride, 0),
        "delta height mismatch"
    );
    assert_eq!(dw, pool_output_len(w, k, stride, 0), "delta width mismatch");
    let inv = 1.0 / (k * k) as f32;
    let mut dx = Tensor::zeros(&[c, h, w]);
    for ci in 0..c {
        for oy in 0..dh {
            for ox in 0..dw {
                let d = delta[[ci, oy, ox]] * inv;
                for ky in 0..k {
                    for kx in 0..k {
                        dx[[ci, oy * stride + ky, ox * stride + kx]] += d;
                    }
                }
            }
        }
    }
    dx
}

fn dims3(t: &Tensor) -> (usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        3,
        "pooling expects rank-3 [C,H,W] tensors"
    );
    (t.dims()[0], t.dims()[1], t.dims()[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_known() {
        let x = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let (y, _) = maxpool2d(&x, 2, 2);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_winner() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 9.0, 3.0, 2.0]);
        let (_, idx) = maxpool2d(&x, 2, 2);
        let delta = Tensor::from_vec(&[1, 1, 1], vec![5.0]);
        let dx = maxpool2d_backward(&delta, &idx);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_backward_accumulates_overlaps() {
        // stride 1 with k=2 has overlapping windows; a strict max at the
        // center receives all four window errors.
        let x = Tensor::from_vec(
            &[1, 3, 3],
            vec![0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 0.0],
        );
        let (_, idx) = maxpool2d(&x, 2, 1);
        let delta = Tensor::ones(&[1, 2, 2]);
        let dx = maxpool2d_backward(&delta, &idx);
        assert_eq!(dx[[0, 1, 1]], 4.0);
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn avgpool_forward_known() {
        let x = Tensor::from_fn(&[1, 2, 2], |i| (i[1] * 2 + i[2]) as f32); // 0,1,2,3
        let y = avgpool2d(&x, 2, 2);
        assert_eq!(y.as_slice(), &[1.5]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let delta = Tensor::from_vec(&[1, 1, 1], vec![8.0]);
        let dx = avgpool2d_backward(&delta, (2, 2), 2, 2);
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradient_check() {
        let mut x = Tensor::from_fn(&[2, 4, 4], |i| {
            ((i[0] + i[1] + 2 * i[2]) as f32 * 0.37).sin()
        });
        let loss = |x: &Tensor| avgpool2d(x, 2, 2).norm_sq() * 0.5;
        let y = avgpool2d(&x, 2, 2);
        let dx = avgpool2d_backward(&y, (4, 4), 2, 2);
        let eps = 1e-3;
        for probe in [[0usize, 0, 0], [1, 3, 2], [0, 2, 1]] {
            let orig = x[probe];
            x[probe] = orig + eps;
            let lp = loss(&x);
            x[probe] = orig - eps;
            let lm = loss(&x);
            x[probe] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx[probe]).abs() < 1e-3, "at {probe:?}");
        }
    }

    #[test]
    fn maxpool_gradient_check() {
        // Perturb non-winning elements: loss must not change to first order.
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 9.0, 3.0, 2.0]);
        let (y, idx) = maxpool2d(&x, 2, 2);
        let dx = maxpool2d_backward(&y, &idx);
        // Gradient of 0.5*||maxpool(x)||^2 wrt the winner is the output value.
        assert_eq!(dx.as_slice(), &[0.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_all_nan_window_stays_in_window() {
        // Regression: channel 1's window is all-NaN. The old argmax init
        // (best = -inf, best_off = 0) never updated, so the gradient was
        // routed to linear offset 0 — channel 0's first element.
        let x = Tensor::from_vec(
            &[2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, f32::NAN, f32::NAN, f32::NAN, f32::NAN],
        );
        let (y, idx) = maxpool2d(&x, 2, 2);
        assert!(y[[1, 0, 0]].is_nan(), "all-NaN window must pool to NaN");
        let delta = Tensor::from_vec(&[2, 1, 1], vec![0.0, 7.0]);
        let dx = maxpool2d_backward(&delta, &idx);
        assert_eq!(
            dx[[0, 0, 0]],
            0.0,
            "channel-1 gradient must not leak into channel 0"
        );
        let ch1_sum: f32 = dx.as_slice()[4..8].iter().sum();
        assert_eq!(ch1_sum, 7.0, "gradient must land inside channel 1's window");
    }

    #[test]
    fn maxpool_all_neg_inf_window_stays_in_window() {
        let x = Tensor::from_vec(
            &[2, 2, 2],
            vec![
                1.0,
                2.0,
                3.0,
                4.0,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
            ],
        );
        let (y, idx) = maxpool2d(&x, 2, 2);
        assert_eq!(y[[1, 0, 0]], f32::NEG_INFINITY);
        let delta = Tensor::from_vec(&[2, 1, 1], vec![0.0, 3.0]);
        let dx = maxpool2d_backward(&delta, &idx);
        assert_eq!(dx[[0, 0, 0]], 0.0);
        let ch1_sum: f32 = dx.as_slice()[4..8].iter().sum();
        assert_eq!(ch1_sum, 3.0);
    }

    /// The per-tap `Tensor`-indexing max-pool the slice walk replaced: the
    /// same window scan, first-element seed and `v > best` rule.
    fn maxpool2d_indexed(input: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<usize>) {
        let (c, h, w) = dims3(input);
        let ho = pool_output_len(h, k, stride, 0);
        let wo = pool_output_len(w, k, stride, 0);
        let mut out = Tensor::zeros(&[c, ho, wo]);
        let mut indices = Vec::with_capacity(c * ho * wo);
        for ci in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let (iy0, ix0) = (oy * stride, ox * stride);
                    let mut best = input[[ci, iy0, ix0]];
                    let mut best_off = (ci * h + iy0) * w + ix0;
                    for ky in 0..k {
                        for kx in 0..k {
                            let (iy, ix) = (iy0 + ky, ix0 + kx);
                            let v = input[[ci, iy, ix]];
                            if v > best {
                                best = v;
                                best_off = (ci * h + iy) * w + ix;
                            }
                        }
                    }
                    out[[ci, oy, ox]] = best;
                    indices.push(best_off);
                }
            }
        }
        (out, indices)
    }

    #[test]
    fn maxpool_slice_walk_matches_indexing_bitwise() {
        // Values drawn from a small set with NaN, ±inf, signed zeros and
        // repeats, so windows tie, start on NaN or hold only -inf.
        let pool = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            1.5,
            -2.0,
        ];
        for (c, h, w) in [(2, 7, 9), (3, 6, 6), (1, 5, 8)] {
            let x = Tensor::from_fn(&[c, h, w], |i| {
                pool[(i[0] * 31 + i[1] * 7 + i[2] * 13 + i[1] * i[2]) % pool.len()]
            });
            for (k, stride) in [(2, 2), (2, 1), (3, 2), (3, 3), (1, 1)] {
                let (y, idx) = maxpool2d(&x, k, stride);
                let (y_ref, idx_ref) = maxpool2d_indexed(&x, k, stride);
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&y_ref), "k={k} s={stride} on {c}x{h}x{w}");
                assert_eq!(idx.winners(), idx_ref, "k={k} s={stride} on {c}x{h}x{w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "recorded")]
    fn maxpool_backward_rejects_mismatched_delta() {
        let x = Tensor::ones(&[1, 4, 4]);
        let (_, idx) = maxpool2d(&x, 2, 2);
        maxpool2d_backward(&Tensor::ones(&[1, 1, 1]), &idx);
    }
}
