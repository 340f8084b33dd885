//! Convolution as implicit GEMM: the forward pass and both backward passes
//! read a zero-padded copy of the input (or of the error) in place, without
//! a lowered patch matrix.
//!
//! The arithmetic is still the lowering PipeLayer uses to map convolutions
//! onto crossbars (Fig. 4). The weight tensor `[C_out, C_in, K_h, K_w]` is
//! row-major, so its backing slice *is* the `[C_out, C_in·K_h·K_w]` kernel
//! matrix, with columns in `(c, ky, kx)` order. With `patches[P, cols]` the
//! im2col of the input (`P = H_out·W_out`, `cols = C_in·K_h·K_w`) and `δ`
//! the output error as `[C_out, P]`:
//!
//! * forward:          `out[co, p] = patches[p] · W[co] + b[co]`
//! * backward-input:   `dx = col2im(δᵀ · W)`
//! * backward-weights: `dW = δ · patches`
//!
//! A patch entry is read straight from the padded input at a fixed tap
//! offset, so no `[P, cols]` buffer is built, no second im2col runs for the
//! weight gradient, and nothing is scattered through col2im. Every output
//! element gets exactly the float operations, in the same order, that the
//! lowered GEMMs gave it, so results are bitwise those of the lowering:
//!
//! * forward: the eight-lane dot of `gemm_nt` (tap `j` feeds lane `j mod 8`,
//!   the lanes meet in a fixed tree, then the tail taps), then `+ bias`;
//! * backward-weights: `gemm_nn`'s chain over `p` ascending from `0.0`;
//! * backward-input: each patch entry is a chain over `co` ascending from
//!   `0.0`, added into `dx` in col2im's `(oy, ox)` order.
//!
//! Padded taps are multiplied like any other, so `0 · NaN` still poisons a
//! result. The kernels hold in registers a run of [`PX`] output pixels
//! along a row times [`NC`] output channels (forward), a run of input
//! pixels along a row (backward-input), or [`CO_BLOCK`] output channels
//! times [`TAP_BLOCK`] kernel taps (backward-weights).
//!
//! [`ConvScratch`] holds the padded copies so a training loop that runs a
//! whole batch through the same layer allocates them once, not once per
//! sample per pass.

use super::conv::conv_output_len;
use crate::Tensor;

/// Pixels along a row that the forward and backward-input kernels keep in
/// registers at once.
const PX: usize = 16;
/// Lanes of `gemm_nt`'s dot product, whose per-lane order the forward
/// kernel reproduces.
const LANES: usize = 8;
/// Output channels per register block of the forward kernel.
const NC: usize = 2;
/// Output channels per register block of the backward-weights kernel.
const CO_BLOCK: usize = 8;
/// Kernel taps per register block of the backward-weights kernel.
const TAP_BLOCK: usize = 6;

/// Reusable scratch space for the convolution kernels.
///
/// Buffers grow to the largest geometry seen and are then reused
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    /// Zero-padded copy of the input, `[C_in, H + 2·pad, W + 2·pad]`.
    input: Vec<f32>,
    /// Offset of each `(c, ky, kx)` tap within the padded input.
    taps: Vec<usize>,
    /// The error, rearranged for the backward pass at hand.
    delta: Vec<f32>,
    /// The kernels, regrouped for the pass at hand.
    weight: Vec<f32>,
}

impl ConvScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One convolution's geometry.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
}

impl Geometry {
    fn new(
        c_in: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        pad: usize,
    ) -> Self {
        Geometry {
            c_in,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            ho: conv_output_len(h, kh, stride, pad),
            wo: conv_output_len(w, kw, stride, pad),
        }
    }

    /// Output pixels `P`.
    fn pixels(&self) -> usize {
        self.ho * self.wo
    }

    /// Patch length `C_in·K_h·K_w`.
    fn cols(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Width of the padded input.
    fn padded_w(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Fills `out` with a zero-padded copy of `x` (`[C_in, H, W]`) followed
    /// by `slack` zeros, and `taps` with the offset of every `(c, ky, kx)`
    /// patch entry relative to its window's top-left corner.
    fn pad_input(&self, x: &[f32], slack: usize, out: &mut Vec<f32>, taps: &mut Vec<usize>) {
        let (hp, wp) = (self.h + 2 * self.pad, self.padded_w());
        out.clear();
        out.resize(self.c_in * hp * wp + slack, 0.0);
        if self.w > 0 {
            for (row, src) in x.chunks_exact(self.w).enumerate() {
                let (ci, y) = (row / self.h, row % self.h);
                let d = (ci * hp + y + self.pad) * wp + self.pad;
                out[d..d + self.w].copy_from_slice(src);
            }
        }
        taps.clear();
        for ci in 0..self.c_in {
            for ky in 0..self.kh {
                taps.extend((0..self.kw).map(|kx| (ci * hp + ky) * wp + kx));
            }
        }
    }
}

/// Convolution forward pass, reusing `scratch` buffers.
///
/// Bitwise equal to im2col followed by `patches · Wᵀ` through `gemm_nt`
/// and `+ bias`.
///
/// # Panics
///
/// Panics on rank/size mismatches between `input`, `weight` and `bias`.
pub fn conv2d_im2col_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    scratch: &mut ConvScratch,
) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "input must be [Cin,H,W]");
    assert_eq!(weight.shape().rank(), 4, "weight must be [Cout,Cin,Kh,Kw]");
    let (c_out, c_in, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    assert_eq!(input.dims()[0], c_in, "channel mismatch");
    assert_eq!(bias.dims(), [c_out], "bias must be [C_out]");
    let g = Geometry::new(
        c_in,
        (input.dims()[1], input.dims()[2]),
        (kh, kw),
        stride,
        pad,
    );
    // The last block of a row may run up to PX − 1 pixels past its end.
    g.pad_input(
        input.as_slice(),
        (PX - 1) * stride,
        &mut scratch.input,
        &mut scratch.taps,
    );
    // The kernels of each group of NC output channels interleaved,
    // `[C_out / NC][cols][NC]`, one tap's weights of a group adjacent; an
    // odd last group is padded with a zero kernel whose sums are dropped.
    let cols = g.cols();
    scratch.weight.clear();
    scratch.weight.resize(c_out.div_ceil(NC) * NC * cols, 0.0);
    for (co, wrow) in weight.as_slice().chunks_exact(cols.max(1)).enumerate() {
        for (j, &v) in wrow.iter().enumerate() {
            scratch.weight[(co / NC * cols + j) * NC + co % NC] = v;
        }
    }
    let (xp, taps, wt) = (&scratch.input[..], &scratch.taps[..], &scratch.weight[..]);
    let (p, wp) = (g.pixels(), g.padded_w());
    let mut out = vec![0.0f32; c_out * p];
    for grp in 0..c_out.div_ceil(NC) {
        let wg = &wt[grp * cols * NC..(grp + 1) * cols * NC];
        for oy in 0..g.ho {
            for ox0 in (0..g.wo).step_by(PX) {
                let base = (oy * wp + ox0) * stride;
                let sums = if stride == 1 {
                    forward_block::<true>(xp, taps, wg, base, stride)
                } else {
                    forward_block::<false>(xp, taps, wg, base, stride)
                };
                let n = PX.min(g.wo - ox0);
                for (co, sum) in (grp * NC..c_out).zip(&sums) {
                    let at = co * p + oy * g.wo + ox0;
                    for (o, &v) in out[at..at + n].iter_mut().zip(sum) {
                        *o = v + bias.as_slice()[co];
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[c_out, g.ho, g.wo], out)
}

/// The dot products of [`NC`] output channels (weights interleaved as
/// `[cols][NC]` in `w`) with the patches of [`PX`] output pixels from
/// `base` on, before the bias. Each of `gemm_nt`'s eight lane sums is run
/// over the block with the block in registers, then the lanes meet in the
/// fixed tree and the tail taps are added. `UNIT` (stride 1) compiles the
/// pixel loads to plain vector loads.
#[inline(always)]
fn forward_block<const UNIT: bool>(
    xp: &[f32],
    taps: &[usize],
    w: &[f32],
    base: usize,
    stride: usize,
) -> [[f32; PX]; NC] {
    let stride = if UNIT { 1 } else { stride };
    let (tchunks, ttail) = taps.as_chunks::<LANES>();
    let (wtaps, _) = w[..taps.len() * NC].as_chunks::<NC>();
    let (wchunks, wtail) = wtaps.split_at(tchunks.len() * LANES);
    let mut lanes = [[[0.0f32; PX]; LANES]; NC];
    for l in 0..LANES {
        let mut acc = [[0.0f32; PX]; NC];
        for (tc, wc) in tchunks.iter().zip(wchunks.chunks_exact(LANES)) {
            let x = strided_run::<PX>(xp, base + tc[l], stride);
            for (a, &wv) in acc.iter_mut().zip(&wc[l]) {
                for px in 0..PX {
                    a[px] += x[px] * wv;
                }
            }
        }
        for (lane, a) in lanes.iter_mut().zip(acc) {
            lane[l] = a;
        }
    }
    let mut tail = [[0.0f32; PX]; NC];
    for (&t, wj) in ttail.iter().zip(wtail) {
        let x = strided_run::<PX>(xp, base + t, stride);
        for (a, &wv) in tail.iter_mut().zip(wj) {
            for px in 0..PX {
                a[px] += x[px] * wv;
            }
        }
    }
    let mut sums = [[0.0f32; PX]; NC];
    for ((sum, a), t) in sums.iter_mut().zip(&lanes).zip(&tail) {
        for px in 0..PX {
            sum[px] = ((a[0][px] + a[4][px]) + (a[2][px] + a[6][px]))
                + ((a[1][px] + a[5][px]) + (a[3][px] + a[7][px]))
                + t[px];
        }
    }
    sums
}

/// `N` values of `xp` from `at` on, `stride` apart.
#[inline(always)]
fn strided_run<const N: usize>(xp: &[f32], at: usize, stride: usize) -> [f32; N] {
    let x = &xp[at..at + (N - 1) * stride + 1];
    std::array::from_fn(|i| x[i * stride])
}

/// Backward pass to the input (`δ_l = conv2(δ, rot180(K), 'full')` of
/// Sec. 4.3), reusing `scratch` buffers.
///
/// Bitwise equal to `dcols = δᵀ · W` through `gemm_tn` scattered by
/// col2im, for any stride and padding, including the non-divisible strided
/// geometries of AlexNet conv1. Each input pixel gathers its patch entries
/// in the order col2im would add them: output rows, then output columns,
/// ascending — kernel taps descending.
///
/// # Panics
///
/// Panics on rank/size mismatches or inconsistent geometry.
pub fn conv2d_backward_input_with(
    delta: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    stride: usize,
    pad: usize,
    scratch: &mut ConvScratch,
) -> Tensor {
    assert_eq!(delta.shape().rank(), 3, "delta must be [Cout,Ho,Wo]");
    assert_eq!(weight.shape().rank(), 4, "weight must be [Cout,Cin,Kh,Kw]");
    let (c_out, dh, dw) = (delta.dims()[0], delta.dims()[1], delta.dims()[2]);
    let (c_out_w, c_in, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    assert_eq!(c_out, c_out_w, "delta/weight channel mismatch");
    let g = Geometry::new(c_in, input_hw, (kh, kw), stride, pad);
    assert_eq!(dh, g.ho, "delta height mismatch");
    assert_eq!(dw, g.wo, "delta width mismatch");

    let (s, kk, pixels) = (stride, kh * kw, g.pixels());
    // W tap-major, `[kh·kw, C_in, C_out]`: the weights one input channel
    // meets at one tap, over every output channel, are one contiguous run.
    scratch.weight.clear();
    scratch.weight.resize(kk * c_in * c_out, 0.0);
    let mut src = weight.as_slice().iter();
    for co in 0..c_out {
        for ci in 0..c_in {
            for (tap, &v) in src.by_ref().take(kk).enumerate() {
                scratch.weight[(tap * c_in + ci) * c_out + co] = v;
            }
        }
    }
    // δ behind `lead` zeros and ahead of `trail` zeros, so a run of PX
    // lanes may start left of a row or end past the map without leaving
    // the buffer.
    let lead = kw;
    let runs = g.w.div_ceil(s).div_ceil(PX) * PX;
    let trail = (runs + pad / s + 1).saturating_sub(g.wo) + PX;
    scratch.delta.clear();
    scratch.delta.resize(lead + delta.numel() + trail, 0.0);
    scratch.delta[lead..lead + delta.numel()].copy_from_slice(delta.as_slice());
    let (dp, wt) = (&scratch.delta[..], &scratch.weight[..]);

    // Each block is PX pixels `ix = rx + s·t` of one residue class
    // `rx = ix mod s` of one input row: its pixels meet each kernel tap at
    // consecutive output columns.
    let mut dx = vec![0.0f32; c_in * g.h * g.w];
    for (ci, plane) in dx.chunks_exact_mut(g.h * g.w).enumerate() {
        for (iy, row) in plane.chunks_exact_mut(g.w).enumerate() {
            // Input pixel (ny, nx) of the padded frame is tap (ky, kx) of
            // output (oy, ox) where oy·s + ky = ny and ox·s + kx = nx.
            // Output rows ascending is kernel rows descending.
            let ny = iy + pad;
            let (ky_top, kys) = congruent_taps(ny, s, (kh - 1).min(ny));
            let oy_top = (ny - ky_top) / s;
            for rx in 0..s.min(g.w) {
                let nx = rx + pad;
                let (kx_top, kxs) = congruent_taps(nx, s, kw - 1);
                // Pixel `t` of the class meets the top column tap at output
                // column `t + q`, and each tap below it one column further.
                let q = (nx as isize - kx_top as isize) / s as isize;
                let n = (g.w - rx).div_ceil(s);
                for t0 in (0..n).step_by(PX) {
                    let mut acc = [0.0f32; PX];
                    for i in 0..kys {
                        let (ky, oy) = (ky_top - i * s, oy_top + i);
                        if oy >= g.ho {
                            break;
                        }
                        for j in 0..kxs {
                            let kx = kx_top - j * s;
                            // Lane `px` reads output column `ox0 + px`.
                            let ox0 = (t0 + j) as isize + q;
                            // `lead` ≥ kw keeps lane 0 inside the buffer.
                            let mut at = (lead + oy * g.wo).wrapping_add_signed(ox0);
                            let tap = (ky * kw + kx) * c_in + ci;
                            let mut v = [0.0f32; PX];
                            for &wv in &wt[tap * c_out..(tap + 1) * c_out] {
                                let d = &dp[at..at + PX];
                                for px in 0..PX {
                                    v[px] += d[px] * wv;
                                }
                                at += pixels;
                            }
                            // A lane whose output column is off the map has
                            // no patch entry here, as in col2im; adding 0.0
                            // in its place leaves `acc` bitwise unchanged,
                            // because a sum that starts at +0.0 never holds
                            // −0.0.
                            let lo = usize::try_from(-ox0).unwrap_or(0);
                            let hi = usize::try_from(g.wo as isize - ox0).unwrap_or(0);
                            let keep: [bool; PX] = std::array::from_fn(|px| lo <= px && px < hi);
                            for px in 0..PX {
                                acc[px] += if keep[px] { v[px] } else { 0.0 };
                            }
                        }
                    }
                    for (t, &v) in (t0..n).zip(&acc) {
                        row[rx + t * s] = v;
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[c_in, g.h, g.w], dx)
}

/// The kernel positions `k ≤ limit` with `k ≡ n (mod s)`, as the largest
/// and the count; they run down from the largest in steps of `s`.
fn congruent_taps(n: usize, s: usize, limit: usize) -> (usize, usize) {
    let r = n % s;
    if limit < r {
        return (0, 0);
    }
    let top = limit - (limit - r) % s;
    (top, (top - r) / s + 1)
}

/// Backward pass to the weights (the "data-as-kernels" convolution of
/// Sec. 4.4.1 / Fig. 12), reusing `scratch` buffers.
///
/// Computes `dW = δ · patches`, bitwise equal to `gemm_nn` over the im2col
/// patches, plus the bias gradient `Σ δ[co,·,·]`.
///
/// # Panics
///
/// Panics on rank/size mismatches or inconsistent geometry.
pub fn conv2d_backward_weights_with(
    input: &Tensor,
    delta: &Tensor,
    kernel_hw: (usize, usize),
    stride: usize,
    pad: usize,
    scratch: &mut ConvScratch,
) -> (Tensor, Tensor) {
    assert_eq!(input.shape().rank(), 3, "input must be [Cin,H,W]");
    assert_eq!(delta.shape().rank(), 3, "delta must be [Cout,Ho,Wo]");
    let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (c_out, dh, dw) = (delta.dims()[0], delta.dims()[1], delta.dims()[2]);
    let (kh, kw) = kernel_hw;
    let g = Geometry::new(c_in, (h, w), (kh, kw), stride, pad);
    assert_eq!(dh, g.ho, "delta height mismatch");
    assert_eq!(dw, g.wo, "delta width mismatch");

    g.pad_input(input.as_slice(), 0, &mut scratch.input, &mut scratch.taps);
    // δᵀ as `[P, C_out]`, each row padded with zeros to whole CO_BLOCKs.
    let p = g.pixels();
    let cop = c_out.div_ceil(CO_BLOCK) * CO_BLOCK;
    scratch.delta.clear();
    scratch.delta.resize(p * cop, 0.0);
    for (co, drow) in delta.as_slice().chunks_exact(p).enumerate() {
        for (pi, &d) in drow.iter().enumerate() {
            scratch.delta[pi * cop + co] = d;
        }
    }

    let cols = g.cols();
    let mut dweight = vec![0.0f32; c_out * cols];
    for cb in (0..c_out).step_by(CO_BLOCK) {
        for j0 in (0..cols).step_by(TAP_BLOCK) {
            // Past the last tap, repeat it; those sums are dropped.
            let taps: [usize; TAP_BLOCK] =
                std::array::from_fn(|jj| scratch.taps[(j0 + jj).min(cols - 1)]);
            let acc = weight_block(&g, &scratch.input, &scratch.delta, cop, cb, taps);
            for (l, co) in (cb..c_out.min(cb + CO_BLOCK)).enumerate() {
                for (jj, j) in (j0..cols.min(j0 + TAP_BLOCK)).enumerate() {
                    dweight[co * cols + j] = acc[jj][l];
                }
            }
        }
    }
    let dbias: Vec<f32> = delta
        .as_slice()
        .chunks_exact(p)
        .map(|row| row.iter().sum())
        .collect();
    (
        Tensor::from_vec(&[c_out, c_in, kh, kw], dweight),
        Tensor::from_vec(&[c_out], dbias),
    )
}

/// `dW` of output channels `cb..cb + CO_BLOCK` at [`TAP_BLOCK`] kernel
/// taps: one chain per entry over the output pixels in raster order.
#[inline(always)]
fn weight_block(
    g: &Geometry,
    xp: &[f32],
    delta_t: &[f32],
    cop: usize,
    cb: usize,
    taps: [usize; TAP_BLOCK],
) -> [[f32; CO_BLOCK]; TAP_BLOCK] {
    let wp = g.padded_w();
    let mut acc = [[0.0f32; CO_BLOCK]; TAP_BLOCK];
    for oy in 0..g.ho {
        for ox in 0..g.wo {
            let p = oy * g.wo + ox;
            let dv = &delta_t[p * cop + cb..p * cop + cb + CO_BLOCK];
            let base = (oy * wp + ox) * g.stride;
            for (a, &t) in acc.iter_mut().zip(&taps) {
                let xv = xp[base + t];
                for (al, &d) in a.iter_mut().zip(dv) {
                    *al += d * xv;
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::super::conv::{
        conv2d, conv2d_backward_input_scalar, conv2d_backward_weights_scalar,
    };
    use super::super::gemm::{gemm_nn, gemm_nt, gemm_tn};
    use super::super::im2col::{col2im, im2col};
    use super::*;

    /// The im2col + GEMM lowering the kernels above replaced: the bitwise
    /// oracle they are held to.
    mod lowered {
        use super::*;

        pub fn forward(x: &Tensor, wt: &Tensor, b: &Tensor, stride: usize, pad: usize) -> Tensor {
            let (c_out, kh, kw) = (wt.dims()[0], wt.dims()[2], wt.dims()[3]);
            let patches = im2col(x, kh, kw, stride, pad);
            let (p, cols) = (patches.dims()[0], patches.dims()[1]);
            let mut prod = vec![0.0f32; p * c_out];
            gemm_nt(patches.as_slice(), wt.as_slice(), p, cols, c_out, &mut prod);
            let mut out = vec![0.0f32; c_out * p];
            for (pi, prow) in prod.chunks_exact(c_out).enumerate() {
                for (co, (&v, &bv)) in prow.iter().zip(b.as_slice()).enumerate() {
                    out[co * p + pi] = v + bv;
                }
            }
            let ho = conv_output_len(x.dims()[1], kh, stride, pad);
            Tensor::from_vec(&[c_out, ho, p / ho], out)
        }

        pub fn backward_input(
            delta: &Tensor,
            wt: &Tensor,
            (h, w): (usize, usize),
            stride: usize,
            pad: usize,
        ) -> Tensor {
            let (c_out, c_in, kh, kw) = (wt.dims()[0], wt.dims()[1], wt.dims()[2], wt.dims()[3]);
            let p = delta.dims()[1] * delta.dims()[2];
            let cols = c_in * kh * kw;
            let mut dcols = vec![0.0f32; p * cols];
            gemm_tn(delta.as_slice(), wt.as_slice(), c_out, p, cols, &mut dcols);
            let dcols = Tensor::from_vec(&[p, cols], dcols);
            col2im(&dcols, c_in, h, w, kh, kw, stride, pad)
        }

        pub fn backward_weights(
            x: &Tensor,
            delta: &Tensor,
            (kh, kw): (usize, usize),
            stride: usize,
            pad: usize,
        ) -> (Tensor, Tensor) {
            let patches = im2col(x, kh, kw, stride, pad);
            let (p, cols) = (patches.dims()[0], patches.dims()[1]);
            let c_out = delta.dims()[0];
            let mut dw = vec![0.0f32; c_out * cols];
            gemm_nn(
                delta.as_slice(),
                patches.as_slice(),
                c_out,
                p,
                cols,
                &mut dw,
            );
            let db: Vec<f32> = delta
                .as_slice()
                .chunks_exact(p)
                .map(|row| row.iter().sum())
                .collect();
            (
                Tensor::from_vec(&[c_out, x.dims()[0], kh, kw], dw),
                Tensor::from_vec(&[c_out], db),
            )
        }
    }

    fn test_case(c_in: usize, h: usize, w: usize, c_out: usize, k: usize) -> (Tensor, Tensor) {
        let x = Tensor::from_fn(&[c_in, h, w], |i| {
            ((i[0] * h * w + i[1] * w + i[2]) as f32 * 0.17).sin()
        });
        let wt = Tensor::from_fn(&[c_out, c_in, k, k], |i| {
            ((i[0] * 11 + i[1] * 7 + i[2] * 3 + i[3]) as f32 * 0.23).cos() * 0.4
        });
        (x, wt)
    }

    /// Bitwise equality, except that any NaN matches any NaN: which NaN
    /// payload survives an operation is not part of the kernels' contract.
    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}: shape");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:e} ({:#010x}), the lowering gives {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Runs all three kernels against the lowering on one geometry.
    #[expect(clippy::too_many_arguments, reason = "operands and geometry, flat")]
    fn check_geometry(
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        scratch: &mut ConvScratch,
    ) {
        let what = format!("{c_in}x{h}x{w} -> {c_out} k{k} s{stride} p{pad}");
        let (x, wt) = test_case(c_in, h, w, c_out, k);
        let b = Tensor::from_fn(&[c_out], |i| (i[0] as f32 * 0.7).sin() * 0.1);
        let y = conv2d_im2col_with(&x, &wt, &b, stride, pad, scratch);
        assert_same_bits(&y, &lowered::forward(&x, &wt, &b, stride, pad), &what);
        // A delta with both signs and signed zeros.
        let delta = Tensor::from_fn(y.dims(), |i| {
            let v = ((i[0] * 5 + i[1] * 3 + i[2]) as f32 * 0.41).sin();
            if (i[1] + i[2]) % 7 == 3 {
                -0.0
            } else {
                v
            }
        });
        let dx = conv2d_backward_input_with(&delta, &wt, (h, w), stride, pad, scratch);
        assert_same_bits(
            &dx,
            &lowered::backward_input(&delta, &wt, (h, w), stride, pad),
            &format!("{what} backward-input"),
        );
        let (dw, db) = conv2d_backward_weights_with(&x, &delta, (k, k), stride, pad, scratch);
        let (dw_l, db_l) = lowered::backward_weights(&x, &delta, (k, k), stride, pad);
        assert_same_bits(&dw, &dw_l, &format!("{what} backward-weights"));
        assert_same_bits(&db, &db_l, &format!("{what} bias"));
    }

    #[test]
    fn kernels_equal_the_lowering_bitwise_across_geometries() {
        let mut scratch = ConvScratch::new();
        for k in [1, 2, 3, 5] {
            for stride in [1, 2, 3] {
                for pad in [0, 1, 2] {
                    // 9 and 11 are not multiples of the pixel run; channel
                    // counts 1, 3, 5 and 12 are not lane multiples, and
                    // 1·k² < 8 for k ≤ 2 leaves only the tail of the dot.
                    for (c_in, c_out) in [(1, 3), (3, 5), (4, 8), (12, 9)] {
                        if k <= 9 + 2 * pad {
                            check_geometry(c_in, 9, 11, c_out, k, stride, pad, &mut scratch);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_equal_the_lowering_on_the_c4_layers() {
        let mut scratch = ConvScratch::new();
        for (c_in, hw, c_out) in [(1, 28, 8), (8, 28, 8), (8, 14, 16), (16, 14, 16)] {
            check_geometry(c_in, hw, hw, c_out, 3, 1, 1, &mut scratch);
        }
    }

    #[test]
    fn kernels_equal_the_lowering_on_alexnet_conv1_geometry() {
        // 11×11 windows at stride 4 over 224 pixels: (224 − 11) mod 4 = 1,
        // so the last input column and row are never read. Few channels
        // keep the test small.
        let mut scratch = ConvScratch::new();
        check_geometry(3, 224, 224, 4, 11, 4, 0, &mut scratch);
        check_geometry(3, 35, 37, 2, 11, 4, 2, &mut scratch);
    }

    #[test]
    fn lowered_forward_matches_direct() {
        let (x, wt) = test_case(3, 8, 8, 4, 3);
        let b = Tensor::from_vec(&[4], vec![0.1, -0.2, 0.3, 0.0]);
        let mut scratch = ConvScratch::new();
        for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            let direct = conv2d(&x, &wt, &b, stride, pad);
            let lowered = conv2d_im2col_with(&x, &wt, &b, stride, pad, &mut scratch);
            assert!(
                direct.allclose(&lowered, 1e-4),
                "forward mismatch at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn lowered_backward_input_matches_scalar_strided_nondivisible() {
        // (h + 2·pad − k) % stride != 0 — the AlexNet-conv1 edge geometry:
        // 8−3 = 5 ≡ 1 (mod 2) and 8+2−3 = 7 ≡ 1 (mod 2).
        let (x, wt) = test_case(2, 8, 8, 3, 3);
        let b = Tensor::zeros(&[3]);
        let mut scratch = ConvScratch::new();
        for (stride, pad) in [(1, 0), (2, 0), (2, 1), (3, 1)] {
            let delta = conv2d(&x, &wt, &b, stride, pad);
            let scalar = conv2d_backward_input_scalar(&delta, &wt, (8, 8), stride, pad);
            let lowered =
                conv2d_backward_input_with(&delta, &wt, (8, 8), stride, pad, &mut scratch);
            assert!(
                scalar.allclose(&lowered, 1e-4),
                "backward-input mismatch at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn lowered_backward_weights_matches_scalar_strided_nondivisible() {
        let (x, wt) = test_case(2, 8, 8, 3, 3);
        let b = Tensor::zeros(&[3]);
        let mut scratch = ConvScratch::new();
        for (stride, pad) in [(1, 0), (2, 0), (2, 1), (3, 1)] {
            let delta = conv2d(&x, &wt, &b, stride, pad);
            let (dw_s, db_s) = conv2d_backward_weights_scalar(&x, &delta, (3, 3), stride, pad);
            let (dw_l, db_l) =
                conv2d_backward_weights_with(&x, &delta, (3, 3), stride, pad, &mut scratch);
            assert!(
                dw_s.allclose(&dw_l, 1e-4),
                "backward-weights mismatch at stride={stride} pad={pad}"
            );
            assert!(
                db_s.allclose(&db_l, 1e-5),
                "bias mismatch at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn scratch_reuse_across_geometries() {
        // Shrinking then growing geometry must not leave stale values behind.
        let mut scratch = ConvScratch::new();
        let (x1, w1) = test_case(2, 9, 9, 3, 3);
        let (x2, w2) = test_case(1, 4, 4, 2, 2);
        let b1 = Tensor::zeros(&[3]);
        let b2 = Tensor::zeros(&[2]);
        for _ in 0..2 {
            let big = conv2d_im2col_with(&x1, &w1, &b1, 1, 1, &mut scratch);
            assert!(big.allclose(&conv2d(&x1, &w1, &b1, 1, 1), 1e-4));
            let small = conv2d_im2col_with(&x2, &w2, &b2, 2, 0, &mut scratch);
            assert!(small.allclose(&conv2d(&x2, &w2, &b2, 2, 0), 1e-4));
        }
    }

    /// The `(k, stride, pad)` geometries the NaN tests run on: a 1×1
    /// kernel without padding, and 3×3 windows that cover padding.
    const NAN_GEOMETRIES: [(usize, usize, usize); 3] = [(1, 1, 0), (3, 1, 1), (3, 2, 1)];

    #[test]
    fn lowered_backward_input_propagates_nan() {
        // A NaN weight must reach dx even when every delta entry is zero,
        // at every input pixel its tap reaches from a real output.
        let mut scratch = ConvScratch::new();
        for (k, stride, pad) in NAN_GEOMETRIES {
            let mut wt = Tensor::zeros(&[2, 1, k, k]);
            wt[[1, 0, 0, 0]] = f32::NAN;
            let ho = conv_output_len(5, k, stride, pad);
            let delta = Tensor::zeros(&[2, ho, ho]);
            let dx = conv2d_backward_input_with(&delta, &wt, (5, 5), stride, pad, &mut scratch);
            let want = lowered::backward_input(&delta, &wt, (5, 5), stride, pad);
            assert!(want.as_slice().iter().any(|v| v.is_nan()));
            assert_same_bits(&dx, &want, &format!("k{k} s{stride} p{pad}"));
        }
    }

    #[test]
    fn lowered_backward_weights_propagates_nan() {
        let mut scratch = ConvScratch::new();
        for (k, stride, pad) in NAN_GEOMETRIES {
            // A NaN activation must reach dW even when delta is zero.
            let mut x = Tensor::zeros(&[1, 5, 5]);
            x[[0, 2, 2]] = f32::NAN;
            let ho = conv_output_len(5, k, stride, pad);
            let delta = Tensor::zeros(&[1, ho, ho]);
            let (dw, db) =
                conv2d_backward_weights_with(&x, &delta, (k, k), stride, pad, &mut scratch);
            assert!(
                dw.as_slice().iter().any(|v| v.is_nan()),
                "k{k} s{stride} p{pad}"
            );
            assert_same_bits(
                &dw,
                &lowered::backward_weights(&x, &delta, (k, k), stride, pad).0,
                &format!("k{k} s{stride} p{pad}"),
            );
            assert_eq!(db.as_slice()[0], 0.0);
            // A NaN error at the corner output meets padding at every tap
            // of a padded window: all of dW must be NaN.
            let mut delta = Tensor::zeros(&[1, ho, ho]);
            delta[[0, 0, 0]] = f32::NAN;
            let (dw, _) =
                conv2d_backward_weights_with(&x, &delta, (k, k), stride, pad, &mut scratch);
            assert!(
                dw.as_slice().iter().all(|v| v.is_nan()),
                "k{k} s{stride} p{pad}"
            );
        }
    }

    #[test]
    fn lowered_forward_propagates_nan() {
        let mut scratch = ConvScratch::new();
        for (k, stride, pad) in NAN_GEOMETRIES {
            // 0-weight · NaN input must be NaN.
            let mut x = Tensor::zeros(&[1, 5, 5]);
            x[[0, 0, 0]] = f32::NAN;
            let wt = Tensor::zeros(&[1, 1, k, k]);
            let b = Tensor::zeros(&[1]);
            let y = conv2d_im2col_with(&x, &wt, &b, stride, pad, &mut scratch);
            assert!(y.as_slice()[0].is_nan(), "k{k} s{stride} p{pad}");
            // A NaN weight on the corner tap meets only padding in the
            // top-left window, and must still reach every output.
            let mut wt = Tensor::zeros(&[1, 1, k, k]);
            wt[[0, 0, 0, 0]] = f32::NAN;
            let y = conv2d_im2col_with(
                &Tensor::ones(&[1, 5, 5]),
                &wt,
                &b,
                stride,
                pad,
                &mut scratch,
            );
            assert!(
                y.as_slice().iter().all(|v| v.is_nan()),
                "k{k} s{stride} p{pad}"
            );
        }
    }
}
