//! Ablation bench: spike-based (bit-serial) input versus a voltage-level
//! scheme.
//!
//! PipeLayer injects an `N`-bit input over `N` weighted time slots (no DAC);
//! a voltage-level scheme (PRIME-style) injects it in one slot but needs a
//! DAC per word line. The simulated-crossbar cost scales with the slot
//! count, mirroring the architectural trade-off the paper makes: more input
//! cycles, offset by the inter-layer pipeline (Sec. 1, bullet 3).

#![expect(
    clippy::cast_possible_truncation,
    reason = "the library gate exempts benches, which measure rather than compute results"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipelayer_reram::Crossbar;
use std::hint::black_box;

fn bench_input_resolution(c: &mut Criterion) {
    let size = 64usize;
    let levels: Vec<u8> = (0..size * size)
        .map(|i| ((i / size + i % size * 3) % 16) as u8)
        .collect();
    let mut group = c.benchmark_group("mvm_by_input_bits");
    for &bits in &[1u8, 4, 8, 16] {
        let mut xbar = Crossbar::new(size, size, 4);
        xbar.program(&levels);
        let max = (1u64 << bits) as u32;
        let input: Vec<u32> = (0..size).map(|i| ((i * 977) as u32) % max).collect();
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| black_box(xbar.mvm_spiked(black_box(&input), bits)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_input_resolution);
criterion_main!(benches);
