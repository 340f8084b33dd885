//! Criterion benchmarks for the cycle-accurate pipeline simulator and the
//! analytical models built on it.

#![expect(
    clippy::unwrap_used,
    reason = "the library gate exempts benches, which measure rather than compute results"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipelayer::config::PipeLayerConfig;
use pipelayer::mapping::MappedNetwork;
use pipelayer::perf::PerfModel;
use pipelayer::pipeline::PipelineSim;
use pipelayer_nn::zoo;
use std::hint::black_box;
use std::num::{NonZeroU64, NonZeroUsize};

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn bench_training_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_sim_training");
    for &(l, b) in &[(3usize, 64usize), (8, 64), (19, 64)] {
        let sim = PipelineSim::new(nz(l), nz(b));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("L{l}_B{b}")),
            &sim,
            |bench, sim| bench.iter(|| black_box(sim.simulate_training(NonZeroUsize::MIN, 0))),
        );
    }
    group.finish();
}

fn bench_testing_sim(c: &mut Criterion) {
    let sim = PipelineSim::new(nz(8), nz(64));
    c.bench_function("pipeline_sim_testing_1000img", |b| {
        b.iter(|| black_box(sim.simulate_testing(NonZeroU64::new(1000).unwrap(), 0)))
    });
}

fn bench_mapping_and_estimates(c: &mut Criterion) {
    c.bench_function("map_vgg_e", |b| {
        let spec = zoo::vgg(zoo::VggVariant::E);
        b.iter(|| {
            black_box(
                MappedNetwork::try_from_spec(black_box(&spec), PipeLayerConfig::default()).unwrap(),
            )
        })
    });
    let net =
        MappedNetwork::try_from_spec(&zoo::vgg(zoo::VggVariant::E), PipeLayerConfig::default())
            .unwrap();
    c.bench_function("estimate_vgg_e_training", |b| {
        let perf = PerfModel::new(&net);
        b.iter(|| black_box(perf.training(640, true)))
    });
}

criterion_group!(
    benches,
    bench_training_sim,
    bench_testing_sim,
    bench_mapping_and_estimates
);
criterion_main!(benches);
