//! Cross-crate consistency of the architecture models: the cycle-accurate
//! simulator, the closed-form analysis, the mapping and the figure-level
//! sweeps must all agree for every evaluation network.

use pipelayer::analysis::Analysis;
use pipelayer::config::PipeLayerConfig;
use pipelayer::functional::ReramMlp;
use pipelayer::granularity::{default_granularity, scale_lambda};
use pipelayer::mapping::MappedNetwork;
use pipelayer::perf::PerfModel;
use pipelayer::pipeline::PipelineSim;
use pipelayer::Accelerator;
use pipelayer_nn::zoo;
use pipelayer_reram::tile_grid;
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

#[test]
fn simulator_matches_formula_for_every_evaluation_network() {
    for spec in zoo::evaluation_specs() {
        let l = spec.weighted_layers();
        let b = 64usize;
        let sim = PipelineSim::new(nz(l), nz(b)).simulate_training(nz(1), 0);
        let formula = Analysis::new(nz(l), nz(b)).training_cycles_pipelined(b as u64);
        assert_eq!(sim.cycles, formula, "{}", spec.name);
        assert_eq!(sim.dependency_violations(), 0, "{}", spec.name);
        assert_eq!(sim.peak_parallel_stages, 2 * l + 1, "{}", spec.name);
    }
}

#[test]
fn estimates_scale_linearly_in_workload() {
    let accel = Accelerator::builder(zoo::vgg(zoo::VggVariant::C))
        .batch_size(nz(64))
        .build()
        .unwrap();
    let t1 = accel.estimate_training(640);
    let t2 = accel.estimate_training(1280);
    assert!((t2.time_s / t1.time_s - 2.0).abs() < 0.01);
    assert!((t2.energy_j / t1.energy_j - 2.0).abs() < 1e-9);
}

#[test]
fn larger_lambda_never_slows_any_vgg() {
    for variant in zoo::VggVariant::ALL {
        let spec = zoo::vgg(variant);
        let mut last = f64::INFINITY;
        for lambda in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let accel = Accelerator::builder(spec.clone())
                .batch_size(nz(64))
                .lambda(lambda)
                .build()
                .unwrap();
            let t = accel.estimate_training(640).time_s.0;
            assert!(
                t <= last * 1.0001,
                "{} slowed down at lambda={lambda}: {t} > {last}",
                spec.name
            );
            last = t;
        }
    }
}

#[test]
fn lambda_area_and_speed_tradeoff_is_monotone() {
    let spec = zoo::vgg(zoo::VggVariant::B);
    let layers = spec.resolve();
    let g = default_granularity(&layers);
    let mut last_area = 0.0;
    for lambda in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let gl = scale_lambda(&g, lambda, &layers);
        let net =
            MappedNetwork::try_with_granularity(&spec, &gl, PipeLayerConfig::default()).unwrap();
        let area = net.total_crossbars_training();
        assert!(area as f64 >= last_area, "area must not shrink with lambda");
        last_area = area as f64;
    }
}

#[test]
fn batch_size_amortises_fill_overhead() {
    let spec = zoo::vgg(zoo::VggVariant::A);
    let mut last = f64::INFINITY;
    for batch in [8usize, 32, 128, 512] {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(batch))
            .build()
            .unwrap();
        let per_image = accel.estimate_training(4096).time_s.0 / 4096.0;
        assert!(
            per_image < last,
            "larger batch should amortise the 2L+1 fill: {per_image} !< {last}"
        );
        last = per_image;
    }
}

#[test]
fn nonpipelined_time_uses_same_cycle_length() {
    let net =
        MappedNetwork::try_from_spec(&zoo::spec_mnist_0(), PipeLayerConfig::default()).unwrap();
    let perf = PerfModel::new(&net);
    let pipe = perf.training(640, true);
    let seq = perf.training(640, false);
    assert_eq!(pipe.cycle_ns, seq.cycle_ns, "both share the hardware cycle");
    assert!(seq.cycles > pipe.cycles);
}

#[test]
fn testing_deployment_never_larger_than_training() {
    for spec in zoo::evaluation_specs() {
        let accel = Accelerator::builder(spec.clone())
            .batch_size(nz(64))
            .build()
            .unwrap();
        assert!(
            accel.testing_area_mm2() < accel.training_area_mm2(),
            "{}",
            spec.name
        );
    }
}

/// The functional network holds the arrays the mapping counts. Per layer,
/// the forward matrix `A_l` built by `ReramMlp::from_spec` has the mapped
/// kernel matrix's word lines × bit lines and tiles as `tiles`. The first
/// layer holds no error-backward matrix `A_l2` in either model, and it
/// reads no error phases. Every later layer's `A_l2` holds the layer's
/// kernel weights without the bias row. For an FC layer its tile grid is
/// the mapped `tiles_backward`. A conv layer's Fig. 11 matrix (`K²·C_out`
/// word lines × `C_in` bit lines) is packed differently from the mapping's
/// transposed count, so only its weights are compared.
#[test]
fn functional_arrays_match_the_mapping() {
    let config = PipeLayerConfig::default();
    let size = config.params.xbar_size;
    for spec in [zoo::spec_mnist_a(), zoo::spec_mnist_0(), zoo::spec_c4()] {
        let mapped = MappedNetwork::try_from_spec(&spec, config).unwrap();
        let net = ReramMlp::from_spec(&spec, &config.params, 1)
            .unwrap()
            .build();
        assert_eq!(net.depth(), mapped.layers.len(), "{}", spec.name);
        for (li, m) in mapped.layers.iter().enumerate() {
            let at = format!("{} layer {li}", spec.name);
            let ((rows, cols), backward) = net.layer_arrays(li);
            let r = &m.resolved;
            assert_eq!((rows, cols), (r.matrix_rows, r.matrix_cols), "{at}");
            let (tr, tc) = tile_grid(rows, cols, size);
            assert_eq!(tr * tc, m.tiles, "{at}");
            let Some((b_rows, b_cols)) = backward else {
                assert_eq!(li, 0, "{at}: only the first layer lacks A_l2");
                assert_eq!((m.tiles_backward, m.reads_error), (0, 0), "{at}");
                continue;
            };
            assert!(li > 0, "{at}: the first layer holds no A_l2");
            assert!(m.tiles_backward > 0 && m.reads_error > 0, "{at}");
            assert_eq!(b_rows * b_cols, (rows - 1) * cols, "{at}");
            if !r.is_conv {
                assert_eq!((b_rows, b_cols), (cols, rows - 1), "{at}");
                let (btr, btc) = tile_grid(b_rows, b_cols, size);
                assert_eq!(btr * btc, m.tiles_backward, "{at}");
            }
        }
    }
}
