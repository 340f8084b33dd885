//! The im2col lowering: turns convolution into a matrix product.
//!
//! This is precisely the data-input scheme of Fig. 4 of the paper: at each
//! kernel-window position the `K_x·K_y·C_l` input patch becomes one column
//! vector (the "yellow bar") that is fed to the crossbar holding the kernel
//! matrix. PipeLayer's intra-layer parallelism (Sec. 3.2) is a hardware
//! parallelisation of exactly this loop, so the lowering is shared between
//! the software reference and the accelerator's functional model.
//!
//! The float convolution kernels do not build the patch matrix: they read
//! the same patch entries in place (see `lowered`).

use super::conv::conv_output_len;
use super::lowered::{conv2d_im2col_with, ConvScratch};
use crate::Tensor;

/// Lowers `input [C,H,W]` into a patch matrix of shape
/// `[H_out·W_out, C·Kh·Kw]`: row `p` is the flattened receptive field of
/// output position `p` (row-major over `oy, ox`), column order `(c, ky, kx)`.
///
/// Contiguous `kx` runs are block-copied from the input rows; out-of-bounds
/// (padding) positions are zero-filled.
///
/// # Panics
///
/// Panics if `input` is not rank-3 or the window does not fit.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "im2col expects [C,H,W]");
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let ho = conv_output_len(h, kh, stride, pad);
    let wo = conv_output_len(w, kw, stride, pad);
    let cols = c * kh * kw;
    let rows = ho * wo;
    let mut out = vec![0.0f32; rows * cols];
    let src = input.as_slice();
    for oy in 0..ho {
        for ox in 0..wo {
            let rbase = (oy * wo + ox) * cols;
            // kx is valid where 0 <= ox·s + kx − pad < w; the valid run maps
            // to a contiguous span of the input row.
            let xbase = (ox * stride) as isize - pad as isize;
            let kx_lo = (-xbase).max(0) as usize;
            let kx_hi = ((w as isize - xbase).max(0) as usize).min(kw);
            for ci in 0..c {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                        continue; // padding row: already zero-filled
                    }
                    let dst = rbase + (ci * kh + ky) * kw;
                    let s0 = (ci * h + iy as usize) * w + (xbase + kx_lo as isize) as usize;
                    out[dst + kx_lo..dst + kx_hi].copy_from_slice(&src[s0..s0 + kx_hi - kx_lo]);
                }
            }
        }
    }
    Tensor::from_vec(&[rows, cols], out)
}

/// Inverse of [`im2col`]: scatters (accumulating) a patch matrix back into an
/// image of shape `[C,H,W]`. Overlapping patch positions sum, which makes
/// this the adjoint operator needed for gradient computations.
///
/// # Panics
///
/// Panics if `cols` is not rank-2 or its shape is inconsistent with the
/// geometry parameters.
#[expect(clippy::too_many_arguments, reason = "operands and geometry, flat")]
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    assert_eq!(
        cols.shape().rank(),
        2,
        "col2im expects a rank-2 patch matrix"
    );
    let ho = conv_output_len(h, kh, stride, pad);
    let wo = conv_output_len(w, kw, stride, pad);
    let ncols = c * kh * kw;
    assert_eq!(cols.dims()[0], ho * wo, "col2im row count mismatch");
    assert_eq!(cols.dims()[1], ncols, "col2im column count mismatch");
    let src = cols.as_slice();
    let mut img = Tensor::zeros(&[c, h, w]);
    let dst_img = img.as_mut_slice();
    for oy in 0..ho {
        for ox in 0..wo {
            let rbase = (oy * wo + ox) * ncols;
            let xbase = (ox * stride) as isize - pad as isize;
            let kx_lo = (-xbase).max(0) as usize;
            let kx_hi = ((w as isize - xbase).max(0) as usize).min(kw);
            for ci in 0..c {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                        continue;
                    }
                    let srow = rbase + (ci * kh + ky) * kw;
                    let d0 = (ci * h + iy as usize) * w + (xbase + kx_lo as isize) as usize;
                    let dst = &mut dst_img[d0..d0 + kx_hi - kx_lo];
                    for (d, &s) in dst.iter_mut().zip(&src[srow + kx_lo..srow + kx_hi]) {
                        *d += s;
                    }
                }
            }
        }
    }
    img
}

/// Convolution forward pass with the summation order of im2col + GEMM.
/// Numerically identical to [`conv2d`](super::conv2d) (up to float
/// associativity) and considerably faster for the MNIST-scale functional
/// runs.
///
/// Allocating convenience wrapper over
/// [`conv2d_im2col_with`](super::conv2d_im2col_with); hot loops should call
/// the `_with` variant with a reused [`ConvScratch`].
///
/// # Panics
///
/// Panics on the same conditions as [`conv2d`](super::conv2d).
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let mut scratch = ConvScratch::new();
    conv2d_im2col_with(input, weight, bias, stride, pad, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::super::conv::conv2d;
    use super::*;

    #[test]
    fn im2col_known_patch() {
        let x = Tensor::from_fn(&[1, 3, 3], |i| (i[1] * 3 + i[2]) as f32);
        let cols = im2col(&x, 2, 2, 1, 0);
        assert_eq!(cols.dims(), &[4, 4]);
        // First patch (top-left 2x2): 0,1,3,4
        assert_eq!(
            &cols.as_slice()[0..4],
            &[0.0, 1.0, 3.0, 4.0],
            "first patch wrong"
        );
    }

    #[test]
    fn im2col_zero_pads() {
        let x = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&x, 3, 3, 1, 1);
        // 4 output positions; each 3x3 patch has exactly 4 ones (the image).
        assert_eq!(cols.dims(), &[4, 9]);
        for p in 0..4 {
            let s: f32 = (0..9).map(|c| cols[[p, c]]).sum();
            assert_eq!(s, 4.0);
        }
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        let x = Tensor::from_fn(&[3, 7, 7], |i| {
            ((i[0] * 49 + i[1] * 7 + i[2]) as f32 * 0.11).sin()
        });
        let w = Tensor::from_fn(&[4, 3, 3, 3], |i| {
            ((i[0] * 27 + i[1] * 9 + i[2] * 3 + i[3]) as f32 * 0.07).cos()
        });
        let b = Tensor::from_vec(&[4], vec![0.1, -0.2, 0.3, 0.0]);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0)] {
            let direct = conv2d(&x, &w, &b, stride, pad);
            let lowered = conv2d_im2col(&x, &w, &b, stride, pad);
            assert!(
                direct.allclose(&lowered, 1e-4),
                "mismatch at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let x = Tensor::from_fn(&[2, 5, 5], |i| ((i[0] + i[1] + i[2]) as f32 * 0.29).sin());
        let cols = im2col(&x, 3, 3, 2, 1);
        let y = Tensor::from_fn(cols.dims(), |i| ((i[0] * 3 + i[1]) as f32 * 0.13).cos());
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let yi = col2im(&y, 2, 5, 5, 3, 3, 2, 1);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(yi.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn patch_rows_equal_kernel_window_positions() {
        // The number of sequential input vectors of Fig. 4: a 24x24x28 layer
        // produced from 5x5 kernels over 28x28 input has 576 positions.
        let x = Tensor::zeros(&[1, 28, 28]);
        let cols = im2col(&x, 5, 5, 1, 0);
        assert_eq!(cols.dims()[0], 24 * 24);
        assert_eq!(cols.dims()[1], 25);
    }
}
