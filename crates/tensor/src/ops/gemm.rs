//! Dense matrix products — the execution engine's workhorse kernels.
//!
//! A convolution lowered by im2col/col2im is one of these products, exactly
//! as PipeLayer maps kernel windows onto crossbar columns (Fig. 4). The float
//! convolution kernels (`lowered`) compute it without the patch matrix but
//! give every output element the per-element operation order of these
//! kernels, so their results are bitwise the lowered ones. The kernels are
//! cache-blocked but deliberately single-threaded: parallelism lives at the
//! batch level in `pipelayer-nn`'s trainer, which keeps every kernel's
//! per-element summation order fixed and makes training bitwise reproducible
//! at any thread count.
//!
//! None of the kernels short-circuits on zero operands. `0 · NaN` must stay
//! `NaN` so a diverged activation poisons the loss instead of vanishing into
//! a clean-looking zero — the zero-skip "fast paths" this module once had
//! silently dropped NaN/Inf propagation, a class of bug that corrupts
//! gradients without failing a single shape check.

use crate::Tensor;

/// K-panel depth for the blocked kernels: a `BLOCK_K × n` panel of `B` stays
/// hot in cache across the row sweep. Blocking only over `k` keeps the
/// per-element accumulation order identical to the naive `ikj` loop
/// (`p = 0..k`, ascending), so results are independent of the block size.
const BLOCK_K: usize = 256;

/// Column-lane width of the wide-lane microkernel behind [`gemm_nn`]. Each
/// lane owns exactly one output column, so widening needs **no cross-lane
/// reduction** — unlike [`dot`], where the lanes split one sum and a fixed
/// tree is required to stay deterministic.
const LANES: usize = 8;

/// `out ← A · B` over raw row-major slices, `A (m×k) · B (k×n) → (m×n)`.
///
/// `out` is fully overwritten. Accumulation order per output element is
/// `p = 0..k` ascending, regardless of blocking or lane width.
///
/// The inner loops are an explicitly vectorized wide-lane microkernel:
/// [`LANES`] adjacent output columns are held in a register block across the
/// whole k-panel, and each `p` step does `LANES` independent fused
/// multiply-adds the autovectorizer can lower to one vector op. Because each
/// lane is a *distinct* output element, the per-element chain of f32
/// additions is exactly the scalar `acc += a[i][p] · b[p][j]` walk — loading
/// `out` into registers first and storing once per panel performs the same
/// additions in the same order, so the result is bitwise identical to the
/// pre-lane kernel and independent of `LANES`/`BLOCK_K`. That is what keeps
/// data-parallel training bitwise reproducible at any thread count.
pub(crate) fn gemm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    let n_wide = n / LANES * LANES;
    let mut kb = 0;
    while kb < k {
        let kend = (kb + BLOCK_K).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j < n_wide {
                let mut acc = [0.0f32; LANES];
                acc.copy_from_slice(&orow[j..j + LANES]);
                for (p, &aip) in arow.iter().enumerate().take(kend).skip(kb) {
                    let bl = &b[p * n + j..p * n + j + LANES];
                    for (al, &bpj) in acc.iter_mut().zip(bl) {
                        *al += aip * bpj;
                    }
                }
                orow[j..j + LANES].copy_from_slice(&acc);
                j += LANES;
            }
            // Tail columns (n not a lane multiple): same chain, scalar lane.
            for (jt, o) in orow.iter_mut().enumerate().skip(n_wide) {
                let mut acc = *o;
                for (p, &aip) in arow.iter().enumerate().take(kend).skip(kb) {
                    acc += aip * b[p * n + jt];
                }
                *o = acc;
            }
        }
        kb = kend;
    }
}

/// Dot product with eight independent accumulator lanes (fixed reduction
/// tree, so the result is deterministic while the lanes vectorize).
fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; 8];
    let chunks = x.len() / 8;
    for c in 0..chunks {
        let xs = &x[c * 8..c * 8 + 8];
        let ys = &y[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..x.len() {
        tail += x[i] * y[i];
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7])) + tail
}

/// `out ← A · Bᵀ` over raw slices, `A (m×k) · Bᵀ (k×n) → (m×n)` where `B`
/// is stored row-major as `(n×k)`. Both operands stream row-contiguously —
/// this is the layout-friendly product for `patches · Wᵀ` in the lowered
/// convolution forward pass (no materialised transpose).
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `out ← Aᵀ · B` over raw slices, `Aᵀ (m×k) · B (k×n) → (m×n)` where `A`
/// is stored row-major as `(k×m)`. Streams rows of both operands — this is
/// the layout-friendly product for `δᵀ · W` in the lowered backward-input
/// pass.
pub(crate) fn gemm_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &api) in arow.iter().enumerate() {
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bpj) in orow.iter_mut().zip(brow) {
                *o += api * bpj;
            }
        }
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be rank-2");
    (t.dims()[0], t.dims()[1])
}

/// Matrix–matrix product `A (m×k) · B (k×n) → (m×n)`, cache-blocked.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nn(a.as_slice(), b.as_slice(), m, k, n, &mut out);
    Tensor::from_vec(&[m, n], out)
}

/// `A · Bᵀ` without materialising the transpose: `A (m×k)`, `B (n×k)`,
/// result `(m×n)`.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the shared `k` dimensions
/// disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, k2, "matmul_nt shared dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nt(a.as_slice(), b.as_slice(), m, k, n, &mut out);
    Tensor::from_vec(&[m, n], out)
}

/// `Aᵀ · B` without materialising the transpose: `A (k×m)`, `B (k×n)`,
/// result `(m×n)`.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the shared `k` dimensions
/// disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (k2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(k, k2, "matmul_tn shared dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_tn(a.as_slice(), b.as_slice(), k, m, n, &mut out);
    Tensor::from_vec(&[m, n], out)
}

/// Matrix–vector product `W (m×n) · x (n) → (m)`.
///
/// # Panics
///
/// Panics if `w` is not rank-2, `x` is not rank-1, or sizes disagree.
pub fn matvec(w: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(w.shape().rank(), 2, "matvec matrix must be rank-2");
    assert_eq!(x.shape().rank(), 1, "matvec vector must be rank-1");
    let (m, n) = (w.dims()[0], w.dims()[1]);
    assert_eq!(n, x.dims()[0], "matvec size mismatch");
    let wv = w.as_slice();
    let xv = x.as_slice();
    let out: Vec<f32> = (0..m)
        .map(|i| {
            wv[i * n..(i + 1) * n]
                .iter()
                .zip(xv)
                .map(|(&a, &b)| a * b)
                .sum()
        })
        .collect();
    Tensor::from_vec(&[m], out)
}

/// Transposed matrix–vector product `Wᵀ (n×m) · y (m) → (n)`, without
/// materialising the transpose. This is the backward-error product
/// `δ_l = Wᵀ δ_{l+1}` of Sec. 2.2.
///
/// No zero-skip: a `NaN`/`Inf` weight multiplied by a zero error must still
/// poison the result.
///
/// # Panics
///
/// Panics if `w` is not rank-2, `y` is not rank-1, or sizes disagree.
pub fn matvec_transposed(w: &Tensor, y: &Tensor) -> Tensor {
    assert_eq!(
        w.shape().rank(),
        2,
        "matvec_transposed matrix must be rank-2"
    );
    assert_eq!(
        y.shape().rank(),
        1,
        "matvec_transposed vector must be rank-1"
    );
    let (m, n) = (w.dims()[0], w.dims()[1]);
    assert_eq!(m, y.dims()[0], "matvec_transposed size mismatch");
    let wv = w.as_slice();
    let yv = y.as_slice();
    let mut out = vec![0.0f32; n];
    for i in 0..m {
        let yi = yv[i];
        for (o, &wij) in out.iter_mut().zip(&wv[i * n..(i + 1) * n]) {
            *o += wij * yi;
        }
    }
    Tensor::from_vec(&[n], out)
}

/// Outer product `y (m) · xᵀ (n) → (m×n)` — the fully-connected weight
/// gradient `∂J/∂W = δ dᵀ` of Sec. 2.2.
///
/// # Panics
///
/// Panics if either operand is not rank-1.
pub fn outer(y: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(y.shape().rank(), 1, "outer lhs must be rank-1");
    assert_eq!(x.shape().rank(), 1, "outer rhs must be rank-1");
    let (m, n) = (y.dims()[0], x.dims()[0]);
    let yv = y.as_slice();
    let xv = x.as_slice();
    let mut out = Vec::with_capacity(m * n);
    for &yi in yv {
        out.extend(xv.iter().map(|&xj| yi * xj));
    }
    Tensor::from_vec(&[m, n], out)
}

/// Accumulating rank-1 update over raw slices:
/// `out[i·n + j] += y[i] · x[j]` with `n = x.len()`.
///
/// This is the lowered partial-derivative accumulation `ΔW += δ dᵀ` used by
/// the functional ReRAM layers (Fig. 12's outer product, bias folded into
/// `x`'s last element by the caller). No zero-skip, so `NaN`s in either
/// operand reach the accumulator.
///
/// # Panics
///
/// Panics if `out.len() != y.len() * x.len()`.
pub fn outer_acc(out: &mut [f32], y: &[f32], x: &[f32]) {
    assert_eq!(
        out.len(),
        y.len() * x.len(),
        "outer_acc buffer size mismatch"
    );
    for (orow, &yi) in out.chunks_exact_mut(x.len()).zip(y) {
        for (o, &xj) in orow.iter_mut().zip(x) {
            *o += yi * xj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let i3 = Tensor::from_fn(&[3, 3], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        let a = Tensor::from_fn(&[3, 3], |i| (i[0] * 3 + i[1]) as f32);
        assert!(matmul(&i3, &a).allclose(&a, 1e-6));
        assert!(matmul(&a, &i3).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_blocked_matches_naive_on_large_k() {
        // k > BLOCK_K exercises the panel loop.
        let (m, k, n) = (3usize, 2 * super::BLOCK_K + 17, 4usize);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * k + i[1]) as f32 * 0.01).sin());
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * n + i[1]) as f32 * 0.02).cos());
        let got = matmul(&a, &b);
        let want = Tensor::from_fn(&[m, n], |i| {
            (0..k).map(|p| a[[i[0], p]] * b[[p, i[1]]]).sum::<f32>()
        });
        assert!(got.allclose(&want, 1e-2 * k as f32 * 1e-4 + 1e-3));
    }

    #[test]
    fn matmul_wide_lanes_are_bitwise_identical_to_naive_chain() {
        // The wide-lane microkernel must reproduce, bit for bit, the naive
        // per-element chain `acc = ((0 + t_0) + t_1) + …` with `p` ascending.
        // Shapes straddle both the lane tail (n % LANES != 0) and the
        // k-panel boundary (k > BLOCK_K).
        for &(m, k, n) in &[
            (3usize, 7usize, 5usize),        // tail-only columns
            (2, super::BLOCK_K + 9, 8),      // exact lane width, 2 panels
            (4, 2 * super::BLOCK_K + 1, 19), // lanes + tail, 3 panels
            (1, 1, super::LANES * 2 + 3),    // degenerate k
        ] {
            let a = Tensor::from_fn(&[m, k], |i| ((i[0] * k + i[1]) as f32 * 0.013).sin());
            let b = Tensor::from_fn(&[k, n], |i| ((i[0] * n + i[1]) as f32 * 0.029).cos());
            let got = matmul(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[[i, p]] * b[[p, j]];
                    }
                    assert_eq!(
                        got[[i, j]].to_bits(),
                        acc.to_bits(),
                        "({m}x{k}x{n}) element ({i},{j}) diverged from the naive chain"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_fn(&[3, 17], |i| ((i[0] + 2 * i[1]) as f32 * 0.1).sin());
        let b = Tensor::from_fn(&[5, 17], |i| ((i[0] * 3 + i[1]) as f32 * 0.07).cos());
        let bt = Tensor::from_fn(&[17, 5], |i| b[[i[1], i[0]]]);
        assert!(matmul_nt(&a, &b).allclose(&matmul(&a, &bt), 1e-4));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_fn(&[7, 4], |i| ((i[0] + 3 * i[1]) as f32 * 0.13).sin());
        let b = Tensor::from_fn(&[7, 6], |i| ((i[0] * 2 + i[1]) as f32 * 0.11).cos());
        let at = Tensor::from_fn(&[4, 7], |i| a[[i[1], i[0]]]);
        assert!(matmul_tn(&a, &b).allclose(&matmul(&at, &b), 1e-4));
    }

    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        // Regression: the old kernel skipped rows where a[i][p] == 0.0, so a
        // NaN in B vanished into a clean-looking 0.0 output.
        let a = Tensor::zeros(&[1, 1]);
        let b = Tensor::from_vec(&[1, 1], vec![f32::NAN]);
        assert!(matmul(&a, &b).as_slice()[0].is_nan(), "0 · NaN must be NaN");
        // And through the nt/tn variants.
        assert!(matmul_nt(&a, &b).as_slice()[0].is_nan());
        assert!(matmul_tn(&a, &b).as_slice()[0].is_nan());
    }

    #[test]
    fn matmul_propagates_inf_times_zero() {
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 1], vec![f32::INFINITY, 2.0]);
        // 0 · ∞ = NaN, NaN + 2 = NaN.
        assert!(matmul(&a, &b).as_slice()[0].is_nan());
    }

    #[test]
    fn matvec_known() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 2.0, 2.0]);
        let x = Tensor::from_vec(&[3], vec![3.0, 4.0, 5.0]);
        let y = matvec(&w, &x);
        assert_eq!(y.as_slice(), &[-2.0, 24.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let w = Tensor::from_fn(&[4, 3], |i| (i[0] as f32) - (i[1] as f32) * 0.5);
        let y = Tensor::from_vec(&[4], vec![1.0, -2.0, 0.5, 3.0]);
        let got = matvec_transposed(&w, &y);
        // Explicit transpose.
        let wt = Tensor::from_fn(&[3, 4], |i| w[[i[1], i[0]]]);
        let want = matvec(&wt, &y);
        assert!(got.allclose(&want, 1e-6));
    }

    #[test]
    fn matvec_transposed_propagates_nan_through_zero_error() {
        // Regression: a zero error row used to skip the NaN weight.
        let w = Tensor::from_vec(&[1, 1], vec![f32::NAN]);
        let y = Tensor::zeros(&[1]);
        assert!(matvec_transposed(&w, &y).as_slice()[0].is_nan());
    }

    #[test]
    fn outer_known() {
        let y = Tensor::from_vec(&[2], vec![2.0, 3.0]);
        let x = Tensor::from_vec(&[3], vec![1.0, 0.0, -1.0]);
        let o = outer(&y, &x);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[2.0, 0.0, -2.0, 3.0, 0.0, -3.0]);
    }

    #[test]
    fn outer_acc_accumulates() {
        let mut out = vec![1.0f32; 6];
        outer_acc(&mut out, &[2.0, -1.0], &[1.0, 0.0, 3.0]);
        assert_eq!(out, vec![3.0, 1.0, 7.0, 0.0, 1.0, -2.0]);
    }

    #[test]
    fn outer_acc_propagates_nan() {
        let mut out = vec![0.0f32; 2];
        outer_acc(&mut out, &[0.0], &[f32::NAN, 1.0]);
        assert!(out[0].is_nan(), "0 · NaN must reach the accumulator");
        assert_eq!(out[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn matmul_associates_with_matvec() {
        // (A·B)·x == A·(B·x)
        let a = Tensor::from_fn(&[3, 4], |i| ((i[0] + 1) * (i[1] + 2)) as f32 * 0.1);
        let b = Tensor::from_fn(&[4, 2], |i| (i[0] as f32) - (i[1] as f32));
        let x = Tensor::from_vec(&[2], vec![0.5, -1.5]);
        let lhs = matvec(&matmul(&a, &b), &x);
        let rhs = matvec(&a, &matvec(&b, &x));
        assert!(lhs.allclose(&rhs, 1e-4));
    }
}
