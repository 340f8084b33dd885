//! Criterion micro-benchmarks for the ReRAM substrate: spike-coded crossbar
//! MVM at several array sizes, spike encoding, and programming.

#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    reason = "the library gate exempts benches, which measure rather than compute results"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipelayer_reram::spike::SpikeDriver;
use pipelayer_reram::{Crossbar, ReramMatrix, ReramParams};
use std::hint::black_box;

/// Row-major `rows × cols` levels.
fn levels(rows: usize, cols: usize) -> Vec<u8> {
    (0..rows * cols)
        .map(|i| ((i / cols * 31 + i % cols * 7) % 16) as u8)
        .collect()
}

fn bench_mvm(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_mvm");
    for &size in &[16usize, 64, 128] {
        let mut xbar = Crossbar::new(size, size, 4);
        xbar.program(&levels(size, size));
        let input: Vec<u32> = (0..size).map(|i| ((i * 977) % 65536) as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| black_box(xbar.mvm_spiked(black_box(&input), 16)))
        });
    }
    group.finish();
}

fn bench_spike_encoding(c: &mut Criterion) {
    let driver = SpikeDriver::new(16);
    let values: Vec<u32> = (0..1024).map(|i| (i * 63) % 65536).collect();
    c.bench_function("spike_encode_1024x16bit", |b| {
        b.iter(|| black_box(driver.encode_vector(black_box(&values))))
    });
}

fn bench_signed_matvec(c: &mut Criterion) {
    let params = ReramParams::default();
    let n = 64;
    let w: Vec<f32> = (0..n * n).map(|i| ((i as f32) * 0.37).sin()).collect();
    let mut m = ReramMatrix::program(&w, n, n, &params);
    let x: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.21).cos()).collect();
    c.bench_function("reram_matrix_matvec_64x64_16bit", |b| {
        b.iter(|| black_box(m.matvec(black_box(&x))))
    });
}

fn bench_programming(c: &mut Criterion) {
    let lv = levels(128, 128);
    c.bench_function("crossbar_program_128x128", |b| {
        b.iter(|| {
            let mut xbar = Crossbar::new(128, 128, 4);
            black_box(xbar.program(black_box(&lv)))
        })
    });
}

criterion_group!(
    benches,
    bench_mvm,
    bench_spike_encoding,
    bench_signed_matvec,
    bench_programming
);
criterion_main!(benches);
