//! The paper's headline claims, checked end-to-end against the full model
//! stack (networks → mapping → timing/energy/area → baselines).

use pipelayer::Accelerator;
use pipelayer_baselines::dadiannao::{DADIANNAO, ISAAC};
use pipelayer_baselines::GpuModel;
use pipelayer_nn::zoo;
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|&x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn workloads() -> Vec<(pipelayer_nn::NetSpec, u64)> {
    zoo::evaluation_specs()
        .into_iter()
        .map(|s| {
            let n = if s.input.1 <= 32 { 6400 } else { 640 };
            (s, n)
        })
        .collect()
}

#[test]
fn every_network_speeds_up_over_gpu() {
    let gpu = GpuModel::default();
    for (spec, n) in workloads() {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        let s_train = gpu.training(&spec, n, 64).time_s / accel.estimate_training(n).time_s;
        let s_test = gpu.testing(&spec, n, 64).time_s / accel.estimate_testing(n).time_s;
        assert!(
            s_train > 1.0,
            "{} trains slower than GPU: {s_train}",
            spec.name
        );
        assert!(
            s_test > 1.0,
            "{} tests slower than GPU: {s_test}",
            spec.name
        );
    }
}

#[test]
fn speedup_geomeans_in_paper_band() {
    // Paper: overall/testing geomean 42.45x. We accept the same order of
    // magnitude (half to double).
    let gpu = GpuModel::default();
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (spec, n) in workloads() {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        train.push(gpu.training(&spec, n, 64).time_s / accel.estimate_training(n).time_s);
        test.push(gpu.testing(&spec, n, 64).time_s / accel.estimate_testing(n).time_s);
    }
    let g_test = geomean(&test);
    let g_train = geomean(&train);
    assert!(
        (21.0..85.0).contains(&g_test),
        "testing speedup geomean {g_test} outside the paper band (42.45x ±2x)"
    );
    // Sec. 6.3: training speedups are lower than testing speedups.
    assert!(
        g_train < g_test,
        "training geomean {g_train} should trail testing {g_test}"
    );
}

#[test]
fn mnist_c_beats_alexnet_in_training_speedup() {
    // Sec. 6.3: "the speedup of Mnist-C is larger than AlexNet in training
    // ... because Mnist-C is a multilayer perceptron network".
    let gpu = GpuModel::default();
    let s = |spec: pipelayer_nn::NetSpec, n: u64| {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        gpu.training(&spec, n, 64).time_s / accel.estimate_training(n).time_s
    };
    let mnist_c = s(zoo::spec_mnist_c(), 6400);
    let alexnet = s(zoo::alexnet(), 640);
    assert!(
        mnist_c > alexnet,
        "Mnist-C training speedup ({mnist_c:.1}) should exceed AlexNet's ({alexnet:.1})"
    );
}

#[test]
fn energy_savings_in_paper_band() {
    // Paper: geomean energy savings 6.52x (train) / 7.88x (test) / 7.17x
    // overall; the reproduction should land within ~2x of those and keep
    // training below testing.
    let gpu = GpuModel::default();
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (spec, n) in workloads() {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        train.push(gpu.training(&spec, n, 64).energy_j / accel.estimate_training(n).energy_j);
        test.push(gpu.testing(&spec, n, 64).energy_j / accel.estimate_testing(n).energy_j);
    }
    let (g_train, g_test) = (geomean(&train), geomean(&test));
    assert!(
        (3.0..20.0).contains(&g_train),
        "train energy geomean {g_train}"
    );
    assert!(
        (4.0..25.0).contains(&g_test),
        "test energy geomean {g_test}"
    );
    assert!(g_train < g_test, "training saving should trail testing");
    // MLPs save far more than VGGs (Fig. 16's shape).
    assert!(
        test[0] > 5.0 * test[9],
        "Mnist-A should dwarf VGG-E in saving"
    );
}

#[test]
fn area_matches_published_value() {
    let accel = Accelerator::builder(zoo::alexnet())
        .batch_size(nz(64))
        .build()
        .unwrap();
    let area = accel.training_area_mm2();
    assert!(
        (area - 82.6).abs() < 2.0,
        "calibrated AlexNet training area {area} should sit at the published 82.6 mm^2"
    );
}

#[test]
fn efficiency_orderings_hold() {
    // Sec. 6.6: computational efficiency above ISAAC and DaDianNao; power
    // efficiency below both eDRAM-buffered designs.
    use pipelayer::area::{training_area, AreaModel};
    use pipelayer::config::PipeLayerConfig;
    use pipelayer::mapping::MappedNetwork;
    use pipelayer::perf::PerfModel;

    let net = MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default()).unwrap();
    let perf = PerfModel::new(&net);
    let gops = perf.training_gops(6400);
    let area = training_area(&net, &AreaModel::default()).mm2;
    let power = perf.training(6400, true).power_w();

    let compute_eff = gops / area;
    let power_eff = gops / power;
    assert!(
        compute_eff > ISAAC.gops_per_mm2,
        "compute efficiency {compute_eff}"
    );
    assert!(compute_eff > DADIANNAO.gops_per_mm2);
    assert!(
        power_eff < DADIANNAO.gops_per_w,
        "power efficiency {power_eff}"
    );
    assert!(power_eff < ISAAC.gops_per_w);
}

#[test]
fn pipeline_beats_nonpipelined_by_large_factor() {
    // Fig. 15: pipelined PipeLayer is roughly an order of magnitude above
    // the non-pipelined variant.
    for (spec, n) in workloads() {
        let pipe = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        let nopipe = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .pipelined(false)
            .build()
            .unwrap();
        let ratio = nopipe.estimate_training(n).time_s / pipe.estimate_training(n).time_s;
        // The theoretical ceiling is (2L+1)B/(2L+B+1) (Fig. 7); require at
        // least 60% of it (the rest is the differently-timed update cycle).
        let limit = pipelayer::analysis::Analysis::new(nz(spec.weighted_layers()), nz(64))
            .training_pipeline_speedup_limit();
        assert!(
            ratio > 0.6 * limit,
            "{}: pipeline ratio {ratio} below 60% of the {limit} ceiling",
            spec.name
        );
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of each value's bit pattern.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bit-pins the whole analytic model. The claims above only check ±2×
/// bands, so a reordered `* 1e-12` or a unit conversion applied at a
/// different point would pass them; this digest covers every bit of the
/// time and energy of PipeLayer, the GPU and ISAAC on every workload
/// (training and testing), the storage-class training lifetime of each
/// network, the Sec. 6.6 efficiencies and the per-phase peripheral costs.
#[test]
fn analytic_model_is_bit_pinned() {
    use pipelayer::area::{training_area, AreaModel};
    use pipelayer::config::PipeLayerConfig;
    use pipelayer::endurance::{training_lifetime, EnduranceModel};
    use pipelayer::mapping::MappedNetwork;
    use pipelayer::perf::PerfModel;
    use pipelayer_baselines::peripherals::{PeripheralModel, PeripheralScheme};
    use pipelayer_baselines::IsaacModel;

    let gpu = GpuModel::default();
    let isaac = IsaacModel::default();
    let mut vals: Vec<f64> = Vec::new();
    for (spec, n) in workloads() {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        for pl in [accel.estimate_training(n), accel.estimate_testing(n)] {
            vals.extend([pl.cycle_ns.0, pl.time_s.0, pl.energy_j.0]);
        }
        for g in [gpu.training(&spec, n, 64), gpu.testing(&spec, n, 64)] {
            vals.extend([g.time_s.0, g.energy_j.0]);
        }
        vals.push(isaac.training_time_s(&spec, n, 64).0);
        vals.push(isaac.testing_time_s(&spec, n).0);
        let net = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::default()).unwrap();
        vals.push(
            training_lifetime(&net, &EnduranceModel::storage_class())
                .seconds
                .0,
        );
    }

    let net = MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default()).unwrap();
    let perf = PerfModel::new(&net);
    let gops = perf.training_gops(6400);
    vals.push(gops / training_area(&net, &AreaModel::default()).mm2);
    vals.push(gops / perf.training(6400, true).power_w());

    let periph = PeripheralModel::default();
    for scheme in [
        PeripheralScheme::SpikeIntegrateFire,
        PeripheralScheme::SpikeAdc,
        PeripheralScheme::DacAdc,
    ] {
        let c = periph.phase_cost(scheme, 128, 128, 16);
        vals.extend([c.latency_ns.0, c.energy_pj.0]);
        vals.push(
            periph
                .network_forward_energy_pj(&zoo::alexnet(), scheme, 128, 16)
                .0,
        );
    }

    let digest = fnv1a(vals.iter().map(|v| v.to_bits()));
    assert_eq!(
        digest,
        PINNED_ANALYTIC_DIGEST,
        "analytic model changed: digest {digest:#018x} over {} values",
        vals.len()
    );
}

const PINNED_ANALYTIC_DIGEST: u64 = 0x1472_26a7_a31a_1972;
