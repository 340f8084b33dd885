//! Criterion benchmarks for the tensor kernels behind the functional
//! simulations: direct vs implicit-GEMM convolution, both backward passes
//! on every C-4 layer shape, GEMM and pooling.

#![expect(
    clippy::cast_precision_loss,
    reason = "the library gate exempts benches, which measure rather than compute results"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use pipelayer_tensor::{ops, Tensor};
use std::hint::black_box;

/// The four C-4 convolutions, `(C_in, H = W, C_out)`: 3×3 kernels, stride
/// 1, padding 1.
const C4_LAYERS: [(usize, usize, usize); 4] = [(1, 28, 8), (8, 28, 8), (8, 14, 16), (16, 14, 16)];

fn probe_input(c_in: usize, hw: usize, c_out: usize) -> (Tensor, Tensor, Tensor) {
    let x = Tensor::from_fn(&[c_in, hw, hw], |i| {
        ((i[0] * hw * hw + i[1] * hw + i[2]) as f32 * 0.017).sin()
    });
    let w = Tensor::from_fn(&[c_out, c_in, 3, 3], |i| {
        ((i[0] * 72 + i[1] * 9 + i[2] * 3 + i[3]) as f32 * 0.093).cos() * 0.2
    });
    let b = Tensor::zeros(&[c_out]);
    (x, w, b)
}

fn bench_conv_forward(c: &mut Criterion) {
    let (x, w, b) = probe_input(8, 28, 16);
    c.bench_function("conv2d_direct_8x28x28_k3x16", |bch| {
        bch.iter(|| black_box(ops::conv2d(black_box(&x), &w, &b, 1, 1)))
    });
    for (c_in, hw, c_out) in C4_LAYERS {
        let (x, w, b) = probe_input(c_in, hw, c_out);
        let mut scratch = ops::ConvScratch::new();
        c.bench_function(
            &format!("conv2d_forward_c4_{c_in}x{hw}x{hw}_k3x{c_out}"),
            |bch| {
                bch.iter(|| {
                    black_box(ops::conv2d_im2col_with(
                        black_box(&x),
                        &w,
                        &b,
                        1,
                        1,
                        &mut scratch,
                    ))
                })
            },
        );
    }
}

fn bench_conv_backward(c: &mut Criterion) {
    for (c_in, hw, c_out) in C4_LAYERS {
        let (x, w, b) = probe_input(c_in, hw, c_out);
        let delta = ops::conv2d(&x, &w, &b, 1, 1);
        let mut scratch = ops::ConvScratch::new();
        let shape = format!("c4_{c_in}x{hw}x{hw}_k3x{c_out}");
        c.bench_function(&format!("conv2d_backward_input_{shape}"), |bch| {
            bch.iter(|| {
                black_box(ops::conv2d_backward_input_with(
                    black_box(&delta),
                    &w,
                    (hw, hw),
                    1,
                    1,
                    &mut scratch,
                ))
            })
        });
        c.bench_function(&format!("conv2d_backward_weights_{shape}"), |bch| {
            bch.iter(|| {
                black_box(ops::conv2d_backward_weights_with(
                    black_box(&x),
                    &delta,
                    (3, 3),
                    1,
                    1,
                    &mut scratch,
                ))
            })
        });
    }
}

fn bench_gemm(c: &mut Criterion) {
    let a = Tensor::from_fn(&[128, 256], |i| ((i[0] + i[1]) as f32 * 0.011).sin());
    let b = Tensor::from_fn(&[256, 128], |i| ((i[0] * 2 + i[1]) as f32 * 0.013).cos());
    c.bench_function("matmul_128x256x128", |bch| {
        bch.iter(|| black_box(ops::matmul(black_box(&a), black_box(&b))))
    });
    let w = Tensor::from_fn(&[512, 784], |i| ((i[0] + 3 * i[1]) as f32 * 0.007).sin());
    let x = Tensor::from_fn(&[784], |i| (i[0] as f32 * 0.031).cos());
    c.bench_function("matvec_512x784", |bch| {
        bch.iter(|| black_box(ops::matvec(black_box(&w), black_box(&x))))
    });
}

fn bench_pooling(c: &mut Criterion) {
    let x = Tensor::from_fn(&[16, 24, 24], |i| {
        ((i[0] + i[1] * 5 + i[2]) as f32 * 0.03).sin()
    });
    c.bench_function("maxpool2d_16x24x24", |bch| {
        bch.iter(|| black_box(ops::maxpool2d(black_box(&x), 2, 2)))
    });
}

criterion_group!(
    benches,
    bench_conv_forward,
    bench_conv_backward,
    bench_gemm,
    bench_pooling
);
criterion_main!(benches);
