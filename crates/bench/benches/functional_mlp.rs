//! Criterion benchmarks for the functional ReRAM training datapath.

#![expect(
    clippy::cast_precision_loss,
    reason = "the library gate exempts benches, which measure rather than compute results"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use pipelayer::functional::{downsample, ReramMlp};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_reram::ReramParams;
use pipelayer_tensor::Tensor;
use std::hint::black_box;

fn bench_forward(c: &mut Criterion) {
    let mut mlp = ReramMlp::new(&[49, 16, 10], &ReramParams::default(), 3);
    let x: Vec<f32> = (0..49).map(|i| (i as f32 * 0.13).sin().abs()).collect();
    c.bench_function("reram_mlp_forward_49_16_10", |b| {
        b.iter(|| black_box(mlp.forward(black_box(&x))))
    });
}

fn bench_train_batch(c: &mut Criterion) {
    let data = SyntheticMnist::generate(16, 4, 9);
    let images: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
    let mut mlp = ReramMlp::new(&[49, 16, 10], &ReramParams::default(), 4);
    c.bench_function("reram_mlp_train_batch16", |b| {
        b.iter(|| black_box(mlp.train_batch(black_box(&images), &data.train.labels, 0.1)))
    });
}

criterion_group!(benches, bench_forward, bench_train_batch);
criterion_main!(benches);
