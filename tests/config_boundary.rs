//! The configuration boundary: whatever a caller feeds
//! `Accelerator::builder(..).build()`, the result is either an accelerator
//! or a typed error, never a panic, and the same in every build profile.
//! An accepted configuration estimates without panicking; a rejected one
//! names the check that `PipeLayerConfig::validate` reports. Network
//! geometry crosses the same boundary once, through `NetSpec::try_resolve`,
//! and `plcheck`'s PL00x codes report exactly its errors.

use pipelayer::mapping::{MapError, MappedNetwork};
use pipelayer::{Accelerator, PipeLayerConfig, RepairPolicy, SpareBudget};
use pipelayer_check::{shape, verify};
use pipelayer_nn::spec::{LayerSpec, PoolKind, ShapeError};
use pipelayer_nn::{zoo, Loss, NetSpec};
use pipelayer_reram::{DriftModel, FaultModel, NoiseModel, VerifyPolicy, WearModel};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn networks() -> Vec<NetSpec> {
    vec![
        zoo::spec_mnist_a(),
        zoo::spec_mnist_0(),
        zoo::spec_c4(),
        NetSpec::new("no-weights", (1, 4, 4), vec![]),
    ]
}

/// One real-valued knob: a selector and a unit draw.
type Draw = (usize, f64);

fn draw() -> impl Strategy<Value = Draw> {
    (0usize..8, 0.0f64..1.0)
}

/// A tame draw lands in `0..tame_hi` (or exactly 0); a wild one lands in
/// `lo..hi`, or is zero, NaN or ±∞.
fn real((pick, u): Draw, wild: bool, tame_hi: f64, (lo, hi): (f64, f64)) -> f64 {
    match (pick, wild) {
        (0, true) => f64::NAN,
        (1, true) => f64::INFINITY,
        (2, true) => f64::NEG_INFINITY,
        (3, _) => 0.0,
        (_, true) => lo + u * (hi - lo),
        (_, false) => u * tame_hi,
    }
}

#[derive(Debug, Clone)]
struct Knobs {
    net: usize,
    batch: NonZeroUsize,
    lambda: Option<f64>,
    granularity: Option<Vec<usize>>,
    config: PipeLayerConfig,
}

fn knobs() -> impl Strategy<Value = Knobs> {
    let g = 0usize..6;
    (
        (
            0usize..6,
            0..networks().len(),
            1usize..300,
            (0usize..4, draw()),
        ),
        (0usize..12, (g.clone(), g.clone(), g.clone(), g.clone(), g)),
        (draw(), draw(), draw(), 0u32..6, draw()),
        (draw(), draw(), draw(), draw()),
        (draw(), draw(), 0u64..4),
    )
        .prop_map(
            |(
                (mode, net, batch, (set_lambda, lambda)),
                (g_len, g),
                (saz, sam, dead, attempts, write_sigma),
                (read_sigma, ir_drop, median_writes, wear_sigma),
                (nu, nu_sigma, t0_cycles),
            )| {
                // Mode 0 keeps every knob in its domain. Bit 0 makes λ
                // wild; `mode / 2` makes the device config wild (1) or only
                // its drift component (2), which `validate` checks after
                // the rest. Each check is then reached while the others
                // pass.
                let wild_lambda = mode & 1 != 0;
                let (wild, wild_drift) = (mode / 2 == 1, mode / 2 != 0);
                let rate = |d| real(d, wild, 0.3, (-0.2, 0.8));
                let sigma = |d| real(d, wild, 2.0, (-1.0, 2.0));
                let mut config = PipeLayerConfig::default().with_fault_tolerance(
                    FaultModel {
                        stuck_at_zero: rate(saz),
                        stuck_at_max: rate(sam),
                        dead: rate(dead),
                    },
                    VerifyPolicy {
                        max_attempts: if wild { attempts } else { attempts.max(1) },
                        write_sigma: sigma(write_sigma),
                    },
                    SpareBudget::none(),
                );
                config.repair = RepairPolicy::laddered();
                config.device.wear = WearModel {
                    median_writes: real(median_writes, wild, 1e7, (-10.0, 1e7)),
                    sigma: sigma(wear_sigma),
                };
                config.device.noise = NoiseModel {
                    read_sigma: sigma(read_sigma),
                    ir_drop: real(ir_drop, wild, 1.0, (-0.5, 1.5)),
                    ..NoiseModel::ideal()
                };
                let exponent = |d| real(d, wild_drift, 0.5, (-0.5, 0.5));
                config.device.drift = DriftModel {
                    nu: exponent(nu),
                    nu_sigma: exponent(nu_sigma),
                    t0_cycles: if wild_drift {
                        t0_cycles
                    } else {
                        t0_cycles.max(1)
                    },
                    disturb_per_level: 0,
                };
                Knobs {
                    net,
                    batch: NonZeroUsize::new(batch).unwrap(),
                    lambda: (set_lambda > 0).then(|| real(lambda, wild_lambda, 8.0, (-4.0, 1e3))),
                    // Lengths 0..=5 are explicit vectors; larger draws keep
                    // the default granularity.
                    granularity: (g_len <= 5).then(|| [g.0, g.1, g.2, g.3, g.4][..g_len].to_vec()),
                    config,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn build_returns_ok_or_a_typed_error(k in knobs()) {
        let spec = networks().swap_remove(k.net);
        let layers = spec.try_resolve().map_or(0, |l| l.len());
        let mut builder = Accelerator::builder(spec).config(k.config).batch_size(k.batch);
        if let Some(lambda) = k.lambda {
            builder = builder.lambda(lambda);
        }
        if let Some(g) = k.granularity.clone() {
            builder = builder.granularity(g);
        }
        match builder.build() {
            Ok(acc) => {
                prop_assert!(k.config.validate().is_ok());
                prop_assert!(k.lambda.is_none_or(|l| l.is_finite() && l >= 0.0));
                let g_ok = |g: &Vec<usize>| g.len() == layers && !g.contains(&0);
                prop_assert!(k.granularity.as_ref().is_none_or(g_ok));
                prop_assert_eq!(acc.mapped().config.batch_size, k.batch);
                prop_assert_eq!(acc.mapped().weighted_layers().get(), layers);
                let est = acc.estimate_training(k.batch.get() as u64);
                prop_assert!(est.time_s.0.is_finite() && est.time_s.0 > 0.0);
                prop_assert!(est.energy_j.0.is_finite() && est.energy_j.0 > 0.0);
            }
            Err(MapError::InvalidLambda(l)) => {
                prop_assert!(!(l.is_finite() && l >= 0.0));
            }
            Err(MapError::Config(e)) => {
                // Compared as text: NaN rates make the errors unequal under `==`.
                let expected = k.config.validate().map_err(|v| v.to_string());
                prop_assert_eq!(expected, Err(e.to_string()));
            }
            Err(MapError::Shape(e)) => {
                prop_assert_eq!(e, ShapeError::NoWeightedLayers);
                prop_assert_eq!(layers, 0);
            }
            Err(MapError::GranularityLength { expected, got }) => {
                prop_assert_eq!(expected, layers);
                prop_assert!(got != layers);
            }
            Err(MapError::ZeroGranularity { layer }) => {
                prop_assert_eq!(k.granularity.as_ref().map(|g| g[layer]), Some(0));
            }
        }
    }
}

/// The cases with a tame device config must actually reach the models:
/// count the accepted builds over the same strategy.
#[test]
fn accepted_configurations_are_exercised() {
    use rand::SeedableRng;
    let strategy = knobs();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let accepted = (0..512)
        .filter(|_| {
            let k = strategy.sample(&mut rng);
            let spec = networks().swap_remove(k.net);
            let mut builder = Accelerator::builder(spec)
                .config(k.config)
                .batch_size(k.batch);
            if let Some(lambda) = k.lambda {
                builder = builder.lambda(lambda);
            }
            if let Some(g) = k.granularity {
                builder = builder.granularity(g);
            }
            builder.build().is_ok()
        })
        .count();
    assert!(
        accepted >= 64,
        "only {accepted}/512 configurations accepted"
    );
}

/// `g_ratio` is the conductance floor of level 0. At 1 the window
/// `1 - g_ratio` is empty and every level would read back as 0, so the
/// boundary takes `[0, 1)` only; 0.02 is `NoiseModel::with_strength`'s.
#[test]
fn conductance_ratio_must_leave_a_window() {
    use pipelayer::ConfigError;
    let with_ratio = |g_ratio: f64| {
        let mut config = PipeLayerConfig::default();
        config.device.noise = NoiseModel {
            g_ratio,
            ..NoiseModel::with_strength(1.0)
        };
        config.validate()
    };
    assert_eq!(
        with_ratio(1.0),
        Err(ConfigError::InvalidConductanceRatio(1.0))
    );
    for bad in [1.5, -0.01, f64::INFINITY] {
        assert_eq!(
            with_ratio(bad),
            Err(ConfigError::InvalidConductanceRatio(bad))
        );
    }
    assert!(matches!(
        with_ratio(f64::NAN),
        Err(ConfigError::InvalidConductanceRatio(_))
    ));
    assert_eq!(with_ratio(0.999), Ok(()));
    assert_eq!(with_ratio(0.02), Ok(()));
}

/// One layer draw: a kind selector, window/kernel size, outputs, stride,
/// padding and a fault selector that zeroes one field now and then.
type LayerDraw = (usize, usize, usize, usize, usize, usize);

fn layer_draw() -> impl Strategy<Value = LayerDraw> {
    (
        0usize..8,
        1usize..=4,
        1usize..=4,
        1usize..=3,
        0usize..=2,
        0usize..32,
    )
}

fn layer((kind, k, outs, stride, pad, fault): LayerDraw) -> LayerSpec {
    let zero_if = |field: usize, v: usize| if fault == field { 0 } else { v };
    let (k, outs, stride) = (zero_if(0, k), zero_if(1, outs), zero_if(2, stride));
    match kind {
        0..=2 => LayerSpec::Conv {
            k,
            c_out: outs,
            stride,
            pad,
        },
        3 | 4 => LayerSpec::Pool {
            k,
            stride,
            kind: if kind == 3 {
                PoolKind::Max
            } else {
                PoolKind::Avg
            },
        },
        _ => LayerSpec::Fc { n_out: outs },
    }
}

/// Random conv/pool/fc stacks of 0..=5 layers over inputs of at most
/// 4×12×12 elements: windows that do not fit, zero sizes and strides,
/// leading pools, spatial layers after FC ones, empty inputs and empty
/// layer lists all come up. Half the stacks move their FC layers last, so
/// deep stacks that resolve come up as often.
fn geometry() -> impl Strategy<Value = NetSpec> {
    (
        (0usize..=4, 0usize..=12, 0usize..=12),
        (0usize..=5, 0usize..2),
        (layer_draw(), layer_draw(), layer_draw()),
        (layer_draw(), layer_draw()),
    )
        .prop_map(|(input, (len, fc_last), (a, b, c), (d, e))| {
            let mut layers: Vec<LayerSpec> =
                [a, b, c, d, e].into_iter().take(len).map(layer).collect();
            if fc_last == 1 {
                layers.sort_by_key(|l| matches!(l, LayerSpec::Fc { .. }));
            }
            NetSpec::new("random", input, layers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_geometry_is_ok_or_a_typed_error_everywhere(spec in geometry()) {
        let resolved = spec.try_resolve();
        let expected = resolved.clone().map(|_| ()).map_err(MapError::Shape);
        let mapped = MappedNetwork::try_from_spec(&spec, PipeLayerConfig::default());
        prop_assert_eq!(mapped.map(|_| ()), expected.clone());
        let built = Accelerator::builder(spec.clone()).build();
        prop_assert_eq!(built.map(|_| ()), expected);

        let diags = verify(&spec, &PipeLayerConfig::default());
        let shape_diags: Vec<_> = diags.into_iter().filter(|d| d.code.starts_with("PL00")).collect();
        let expected: Vec<_> = resolved.as_ref().err().map(|e| shape::diagnostic(&spec, e)).into_iter().collect();
        prop_assert_eq!(shape_diags, expected, "{:?}", spec);

        let Ok(layers) = resolved else { return Ok(()) };
        let weights: usize = layers.iter().map(|l| l.weights).sum();
        if weights <= 10_000 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let mut net = spec.build(Loss::SoftmaxCrossEntropy, &mut rng);
            let (c, h, w) = spec.input;
            let out = net.forward(&pipelayer_tensor::Tensor::ones(&[c, h, w]));
            let (c, h, w) = layers.last().map_or((0, 0, 0), |l| l.post_pool_shape);
            prop_assert_eq!(out.numel(), c * h * w, "{:?}", spec);
        }
    }
}

/// The geometry draws must reach both outcomes often: count the specs
/// that resolve, those the float network then runs, and those rejected
/// for a spatial layer after an FC one.
#[test]
fn random_geometry_exercises_both_outcomes() {
    use rand::SeedableRng;
    let strategy = geometry();
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let specs: Vec<NetSpec> = (0..512).map(|_| strategy.sample(&mut rng)).collect();
    let ok: Vec<&NetSpec> = specs.iter().filter(|s| s.try_resolve().is_ok()).collect();
    let runnable = ok
        .iter()
        .filter(|s| {
            s.try_resolve()
                .is_ok_and(|l| l.iter().map(|l| l.weights).sum::<usize>() <= 10_000)
        })
        .count();
    assert!(ok.len() >= 96, "only {}/512 geometries resolve", ok.len());
    assert!(ok.len() <= 416, "{}/512 geometries resolve", ok.len());
    assert!(runnable >= 64, "only {runnable}/512 geometries run forward");
    let after_fc = specs
        .iter()
        .filter(|s| matches!(s.try_resolve(), Err(ShapeError::SpatialAfterFc { .. })))
        .count();
    assert!(
        after_fc >= 24,
        "only {after_fc}/512 put a spatial layer after FC"
    );
}

/// A `(2^33, 2^33, 1)` input has 2^66 elements: the FC layer's `n_in`
/// once wrapped to 0 in release builds and panicked in debug ones.
#[test]
fn overflowing_geometry_is_a_typed_error_in_every_profile() {
    let spec = NetSpec::new(
        "huge",
        (1 << 33, 1 << 33, 1),
        vec![LayerSpec::Fc { n_out: 2 }],
    );
    assert_eq!(spec.try_resolve(), Err(ShapeError::Overflow { at: None }));
    let diags = verify(&spec, &PipeLayerConfig::default());
    assert!(diags.iter().any(|d| d.code == "PL007"), "{diags:?}");
    assert!(matches!(
        MappedNetwork::try_from_spec(&spec, PipeLayerConfig::default()),
        Err(MapError::Shape(ShapeError::Overflow { .. }))
    ));
}
