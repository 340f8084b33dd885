//! Soundness of the PL04x interval abstract interpretation: every value a
//! real forward/backward execution produces must lie inside the interval
//! the analysis predicted for that layer.
//!
//! This is the property that makes the PL040/PL041/PL043 verdicts *proofs*
//! rather than heuristics. The harness executes the exact network the
//! analysis reasoned about ([`absint::build_for_analysis`] — same seed,
//! same quantized weights) on ≥1000 random inputs across three executable
//! zoo networks, checking three quantity classes per sample:
//!
//! * forward activations (per-layer min/max from `forward_traced`),
//! * backpropagated errors (per-layer min/max from `backward_traced`),
//! * per-sample weight/bias gradient partials (the `ΔW` the accelerator
//!   buffers per image).
//!
//! Tightness (worst observed magnitude / predicted bound) is *reported*
//! via `--nocapture`, never asserted — interval arithmetic is allowed to
//! be loose, it is not allowed to be wrong.

#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use pipelayer::PipeLayerConfig;
use pipelayer_check::absint::{self, Interval};
use pipelayer_check::{diag, verify};
use pipelayer_nn::spec::NetSpec;
use pipelayer_nn::zoo;
use pipelayer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Tightness metrics for one quantity class (reported, not asserted).
#[derive(Default)]
struct Tightness {
    observed: f64,
    predicted: f64,
}

impl Tightness {
    fn update(&mut self, observed: f64, predicted: f64) {
        if observed > self.observed {
            self.observed = observed;
            self.predicted = predicted;
        }
    }

    fn ratio(&self) -> f64 {
        if self.predicted > 0.0 {
            self.observed / self.predicted
        } else {
            0.0
        }
    }
}

/// Runs `samples` random forward/backward executions of `spec`'s analysis
/// network and asserts every concrete value lies inside the predicted
/// intervals. Returns the number of executions performed.
fn assert_sound(spec: &NetSpec, samples: usize, seed: u64) -> usize {
    let cfg = PipeLayerConfig::default();
    let layers = spec.resolve();
    let mut net = absint::build_for_analysis(spec, &layers, &cfg)
        .unwrap_or_else(|| panic!("{} must be executable", spec.name));
    let report = absint::analyze_network(&mut net, &layers, Interval::UNIT, &cfg)
        .unwrap_or_else(|| panic!("{} must be analyzable", spec.name));
    assert!(report.value_domain);
    assert_eq!(report.stages.len(), net.len());

    let (c, h, w) = spec.input;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut act = Tightness::default();
    let mut del = Tightness::default();
    let mut grad = Tightness::default();

    for sample in 0..samples {
        let data: Vec<f32> = (0..c * h * w)
            .map(|_| rng.random_range(0.0f32..1.0))
            .collect();
        let input = Tensor::from_vec(&[c, h, w], data);

        let (output, fwd) = net.forward_traced(&input);
        for (i, &(lo, hi)) in fwd.iter().enumerate() {
            let stage = &report.stages[i];
            for v in [f64::from(lo), f64::from(hi)] {
                assert!(
                    stage.activation.contains(v),
                    "{} sample {sample} stage {i} ({}): activation {v} outside {}",
                    spec.name,
                    stage.name,
                    stage.activation
                );
            }
            act.update(f64::from(lo.abs().max(hi.abs())), stage.activation.mag());
        }

        let target = rng.random_range(0..output.numel());
        let (_, delta) = net.loss().loss_and_delta(&output, target);
        for layer in net.layers_mut() {
            layer.zero_grad(); // isolate this sample's ΔW partials
        }
        let (_, bwd) = net.backward_traced(&delta);
        for (i, &(lo, hi)) in bwd.iter().enumerate() {
            let stage = &report.stages[i];
            for v in [f64::from(lo), f64::from(hi)] {
                assert!(
                    stage.delta.contains(v),
                    "{} sample {sample} stage {i} ({}): delta {v} outside {}",
                    spec.name,
                    stage.name,
                    stage.delta
                );
            }
            del.update(f64::from(lo.abs().max(hi.abs())), stage.delta.mag());
        }

        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let Some(grads) = layer.grads_mut() else {
                continue;
            };
            let stage = &report.stages[i];
            for (tensor, bound, what) in [
                (&*grads.dweight, stage.dweight_mag, "dW"),
                (&*grads.dbias, stage.dbias_mag, "db"),
            ] {
                let worst = tensor
                    .as_slice()
                    .iter()
                    .fold(0f64, |m, &v| m.max(f64::from(v.abs())));
                assert!(
                    worst <= bound,
                    "{} sample {sample} stage {i} ({}): |{what}| {worst} exceeds bound {bound}",
                    spec.name,
                    stage.name,
                );
                grad.update(worst, bound);
            }
        }
    }

    println!(
        "{}: {samples} executions sound; tightness (observed/bound) \
         activations {:.3}, deltas {:.3}, gradients {:.3}",
        spec.name,
        act.ratio(),
        del.ratio(),
        grad.ratio()
    );
    samples
}

/// ≥1000 executions across three structurally different networks (MLP,
/// LeNet-style conv net, the deep C-4) with zero out-of-interval values.
#[test]
fn concrete_executions_stay_inside_predicted_intervals() {
    let mut total = 0;
    total += assert_sound(&zoo::spec_mnist_a(), 600, 0x5eed_0001);
    total += assert_sound(&zoo::spec_mnist_0(), 200, 0x5eed_0002);
    total += assert_sound(&zoo::spec_c4(), 200, 0x5eed_0003);
    assert!(total >= 1000, "only {total} executions");
}

/// The paper-default configuration range-verifies clean on the whole zoo —
/// evaluation networks (value domain where executable, geometry elsewhere)
/// plus the Fig. 13 resolution-study set.
#[test]
fn paper_default_config_is_range_clean_on_the_whole_zoo() {
    let cfg = PipeLayerConfig::default();
    let mut specs = zoo::evaluation_specs();
    specs.extend([
        zoo::spec_m1(),
        zoo::spec_m2(),
        zoo::spec_m3(),
        zoo::spec_mc(),
        zoo::spec_c4(),
    ]);
    for spec in specs {
        let diags = verify(&spec, &cfg);
        let range_errors: Vec<_> = diags
            .iter()
            .filter(|d| d.code >= "PL040" && d.code <= "PL043")
            .collect();
        assert!(range_errors.is_empty(), "{}: {range_errors:?}", spec.name);
    }
}

/// An intentionally under-width datapath (8-bit words, 20-bit accumulator,
/// ±16 activation range) is caught on C-4 with PL040 and PL042 at the
/// layers that actually overflow.
#[test]
fn under_width_datapath_is_flagged_at_the_offending_layers() {
    let mut cfg = PipeLayerConfig::default();
    cfg.params.data_bits = 8;
    cfg.datapath.accumulator_bits = 20;
    cfg.datapath.activation_absmax = 16.0;
    let diags = verify(&zoo::spec_c4(), &cfg);

    // Accumulator: conv1 (10 rows, 19 bits) fits in 20; the second conv3x8
    // (73 rows, 22 bits) is the first mapped matrix that does not.
    let pl042: Vec<_> = diags
        .iter()
        .filter(|d| d.code == diag::RANGE_ACC_TOO_NARROW)
        .collect();
    assert!(!pl042.is_empty());
    assert!(pl042[0].location.contains("stage 2 (conv3x8)"), "{pl042:?}");

    // Activation range: the second conv3x8's bound (≈±17) is the first to
    // leave ±16, and only the causing stage is reported.
    let pl040: Vec<_> = diags
        .iter()
        .filter(|d| d.code == diag::RANGE_ACTIVATION_OVERFLOW)
        .collect();
    assert_eq!(pl040.len(), 1, "{pl040:?}");
    assert!(pl040[0].location.contains("stage 2 (conv3x8)"), "{pl040:?}");
}

/// PL041: a gradient range too narrow for C-4's first-conv ΔW partials is
/// reported, and at the right place.
#[test]
fn narrow_gradient_range_is_flagged() {
    let mut cfg = PipeLayerConfig::default();
    cfg.datapath.gradient_absmax = 1024.0 * 1024.0; // 2^20 < C-4's ≈1.9e6
    let diags = verify(&zoo::spec_c4(), &cfg);
    let pl041: Vec<_> = diags
        .iter()
        .filter(|d| d.code == diag::RANGE_GRADIENT_OVERFLOW)
        .collect();
    assert!(
        pl041
            .iter()
            .any(|d| d.location.contains("stage 0 (conv3x8)")),
        "{pl041:?}"
    );
}

/// PL043: a bias pushed beyond the representable range makes an output
/// unit saturate on every input in the domain.
#[test]
fn guaranteed_saturation_is_flagged() {
    let cfg = PipeLayerConfig::default();
    let spec = zoo::spec_mnist_a();
    let layers = spec.resolve();
    let mut net = absint::build_for_analysis(&spec, &layers, &cfg).expect("executable");
    // Push one bias of the first inner product far past activation_absmax:
    // that unit's output interval lies entirely above the clip point.
    for layer in net.layers_mut() {
        if let Some(params) = layer.params_mut() {
            params.bias.as_mut_slice()[0] = 4.0e6;
            break;
        }
    }
    let report =
        absint::analyze_network(&mut net, &layers, Interval::UNIT, &cfg).expect("analyzable");
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.code == diag::RANGE_GUARANTEED_SATURATION),
        "{:?}",
        report.diags
    );
}
