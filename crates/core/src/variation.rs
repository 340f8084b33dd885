//! Network-level device-variation study: what ReRAM programming variation
//! and stuck-at faults cost in application accuracy (the error-tolerance
//! premise of Sec. 5.1, made quantitative).

use pipelayer_nn::data::Dataset;
use pipelayer_nn::trainer::BatchNoise;
use pipelayer_nn::Network;
use pipelayer_quant::{restore_params, snapshot_params};
use pipelayer_reram::{seedstream, NoiseModel, ReramParams, VariationModel};
use std::num::NonZeroUsize;

/// One point of a variation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationPoint {
    /// Write-variation σ in conductance levels.
    pub sigma: f64,
    /// Absolute test accuracy with corrupted weights.
    pub accuracy: f32,
    /// Accuracy normalised to the unperturbed baseline.
    pub normalized: f32,
}

/// The per-buffer corruption seeds for parameter-bearing layer `ordinal`:
/// `(weight_seed, bias_seed)`. Pure in `(seed, ordinal)` — the same
/// `seedstream` discipline the crossbar stack uses — so corrupting layers
/// in any order, or one layer in isolation, draws the identical streams.
pub fn layer_corruption_seeds(seed: u64, ordinal: u64) -> (u64, u64) {
    (
        seedstream::crossbar_seed(seed, 2 * ordinal),
        seedstream::crossbar_seed(seed, 2 * ordinal + 1),
    )
}

/// Applies `model` to every weight tensor in `net`, as stored on
/// `params.data_bits`-bit words of `params.cell_bits`-bit cells.
/// Biases are perturbed too — they live in the same arrays. Each layer's
/// streams come from [`layer_corruption_seeds`], so the result is
/// independent of traversal order.
pub fn corrupt_network(net: &mut Network, model: &VariationModel, params: &ReramParams, seed: u64) {
    let mut ordinal = 0u64;
    for layer in net.layers_mut() {
        let Some(p) = layer.params_mut() else {
            continue;
        };
        let (weight_seed, bias_seed) = layer_corruption_seeds(seed, ordinal);
        let w = model.perturb_weights(
            p.weight.as_slice(),
            params.data_bits,
            params.cell_bits,
            weight_seed,
        );
        p.weight.as_mut_slice().copy_from_slice(&w);
        let b = model.perturb_weights(
            p.bias.as_slice(),
            params.data_bits,
            params.cell_bits,
            bias_seed,
        );
        p.bias.as_mut_slice().copy_from_slice(&b);
        ordinal += 1;
    }
}

/// Applies the unified analog non-ideality `model` (lognormal LRS/HRS
/// spread, IR drop, read noise) to every parameter tensor in `net`, as
/// mapped onto `params.data_bits`-bit words of `params.cell_bits`-bit
/// cells. `read_epoch` selects the per-read noise draw (device draws are
/// epoch-independent, so the systematic error component repeats across
/// epochs — which is what makes it learnable). Layer streams come from
/// [`layer_corruption_seeds`]: order-independent, reproducible from `seed`.
pub fn corrupt_network_noise(
    net: &mut Network,
    model: &NoiseModel,
    params: &ReramParams,
    seed: u64,
    read_epoch: u64,
) {
    let mut ordinal = 0u64;
    for layer in net.layers_mut() {
        let Some(p) = layer.params_mut() else {
            continue;
        };
        let (weight_seed, bias_seed) = layer_corruption_seeds(seed, ordinal);
        let w = model.perturb_weights(
            p.weight.as_slice(),
            params.data_bits,
            params.cell_bits,
            weight_seed,
            read_epoch,
        );
        p.weight.as_mut_slice().copy_from_slice(&w);
        let b = model.perturb_weights(
            p.bias.as_slice(),
            params.data_bits,
            params.cell_bits,
            bias_seed,
            read_epoch,
        );
        p.bias.as_mut_slice().copy_from_slice(&b);
        ordinal += 1;
    }
}

/// Adapts [`NoiseModel`] to the trainer's [`BatchNoise`] injection point
/// for noise-aware training: each batch's forward/backward passes run on
/// weights carrying the same device draws inference will see (device
/// streams depend only on `(seed, layer)`, not on the batch), plus a
/// fresh per-batch read-noise draw. Pure in `(buffer, layer, is_bias,
/// batch)`, so kill/resume and thread-count determinism hold.
#[derive(Debug, Clone, Copy)]
pub struct ReramNoiseHook {
    model: NoiseModel,
    params: ReramParams,
    seed: u64,
}

impl ReramNoiseHook {
    /// Hook injecting `model` on weights mapped per `params`, with all
    /// streams derived from `seed`.
    pub fn new(model: NoiseModel, params: ReramParams, seed: u64) -> Self {
        ReramNoiseHook {
            model,
            params,
            seed,
        }
    }
}

impl BatchNoise for ReramNoiseHook {
    fn perturb(&self, buf: &mut [f32], layer: usize, is_bias: bool, batch: u64) {
        let (weight_seed, bias_seed) = layer_corruption_seeds(self.seed, layer as u64);
        let seed = if is_bias { bias_seed } else { weight_seed };
        let out = self.model.perturb_weights(
            buf,
            self.params.data_bits,
            self.params.cell_bits,
            seed,
            batch,
        );
        buf.copy_from_slice(&out);
    }
}

/// Evaluates a trained network under increasing write variation, restoring
/// the original weights afterwards. `trials` corruption draws are averaged
/// per σ.
///
/// # Panics
///
/// Panics if `data` is empty.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn variation_sweep(
    net: &mut Network,
    data: &Dataset,
    sigmas: &[f64],
    trials: NonZeroUsize,
    params: &ReramParams,
) -> Vec<VariationPoint> {
    let snapshot = snapshot_params(net);
    let base = net.accuracy(&data.images, &data.labels).max(1e-6);

    let mut points = Vec::with_capacity(sigmas.len());
    for (si, &sigma) in sigmas.iter().enumerate() {
        let model = VariationModel::with_sigma(sigma);
        let mut acc_sum = 0.0f32;
        for t in 0..trials.get() {
            corrupt_network(net, &model, params, (si * 1000 + t) as u64);
            acc_sum += net.accuracy(&data.images, &data.labels);
            restore_params(net, &snapshot);
        }
        let accuracy = acc_sum / trials.get() as f32;
        points.push(VariationPoint {
            sigma,
            accuracy,
            normalized: accuracy / base,
        });
    }
    points
}

/// Evaluates a trained network under the unified analog non-ideality model
/// at increasing `strength` (the [`NoiseModel::with_strength`] knob),
/// restoring the original weights afterwards. The device draws are fixed
/// by `seed` — one simulated chip instance — and each of the `trials`
/// evaluations redraws only the per-read noise, mirroring repeated reads
/// of the same hardware. Shares the [`VariationPoint`] schema with
/// [`variation_sweep`] (`sigma` carries the strength), so both ablations
/// emit one report format.
///
/// # Panics
///
/// Panics if `data` is empty.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn noise_sweep(
    net: &mut Network,
    data: &Dataset,
    strengths: &[f64],
    trials: NonZeroUsize,
    params: &ReramParams,
    seed: u64,
) -> Vec<VariationPoint> {
    let snapshot = snapshot_params(net);
    let base = net.accuracy(&data.images, &data.labels).max(1e-6);

    let mut points = Vec::with_capacity(strengths.len());
    for &strength in strengths {
        let model = NoiseModel::with_strength(strength);
        let mut acc_sum = 0.0f32;
        for t in 0..trials.get() {
            corrupt_network_noise(net, &model, params, seed, t as u64);
            acc_sum += net.accuracy(&data.images, &data.labels);
            restore_params(net, &snapshot);
        }
        let accuracy = acc_sum / trials.get() as f32;
        points.push(VariationPoint {
            sigma: strength,
            accuracy,
            normalized: accuracy / base,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::data::SyntheticMnist;
    use pipelayer_nn::trainer::{TrainConfig, Trainer};
    use pipelayer_nn::zoo;

    fn trained() -> (Network, SyntheticMnist) {
        let data = SyntheticMnist::generate(250, 100, 55);
        let mut net = zoo::m1(55);
        Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.1,
            threads: 1,
        })
        .fit(&mut net, &data);
        (net, data)
    }

    #[test]
    fn zero_sigma_preserves_accuracy() {
        let (mut net, data) = trained();
        let pts = variation_sweep(
            &mut net,
            &data.test,
            &[0.0],
            NonZeroUsize::MIN,
            &ReramParams::default(),
        );
        assert!(
            (pts[0].normalized - 1.0).abs() < 0.05,
            "σ=0 should be ~lossless, got {}",
            pts[0].normalized
        );
    }

    #[test]
    fn accuracy_degrades_with_sigma_and_weights_restore() {
        let (mut net, data) = trained();
        let before = net.accuracy(&data.test.images, &data.test.labels);
        let pts = variation_sweep(
            &mut net,
            &data.test,
            &[0.5, 8.0],
            NonZeroUsize::new(2).unwrap(),
            &ReramParams::default(),
        );
        assert!(
            pts[1].accuracy <= pts[0].accuracy + 0.05,
            "σ=8 ({}) should not beat σ=0.5 ({})",
            pts[1].accuracy,
            pts[0].accuracy
        );
        let after = net.accuracy(&data.test.images, &data.test.labels);
        assert_eq!(before, after, "sweep must restore the weights");
    }

    /// Satellite regression: `corrupt_network`'s per-layer streams must be
    /// pure in `(seed, layer ordinal)` — corrupting the layers back-to-front
    /// with [`layer_corruption_seeds`] yields bitwise-identical weights to
    /// the front-to-back `corrupt_network` pass.
    #[test]
    fn corruption_is_order_independent() {
        let params = ReramParams::default();
        let model = VariationModel::with_sigma(1.5);
        let mut net = zoo::m1(77);
        let reference: Vec<Vec<u32>> = {
            let mut n = zoo::m1(77);
            corrupt_network(&mut n, &model, &params, 99);
            n.layers_mut()
                .iter_mut()
                .filter_map(|l| l.params_mut())
                .map(|p| {
                    p.weight
                        .as_slice()
                        .iter()
                        .chain(p.bias.as_slice())
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()
        };

        // Corrupt the same network layer-by-layer in REVERSE order.
        let mut param_layers: Vec<_> = net
            .layers_mut()
            .iter_mut()
            .filter_map(|l| l.params_mut())
            .collect();
        let count = param_layers.len() as u64;
        for (rev, p) in param_layers.iter_mut().rev().enumerate() {
            let ordinal = count - 1 - rev as u64;
            let (ws, bs) = layer_corruption_seeds(99, ordinal);
            let w =
                model.perturb_weights(p.weight.as_slice(), params.data_bits, params.cell_bits, ws);
            p.weight.as_mut_slice().copy_from_slice(&w);
            let b =
                model.perturb_weights(p.bias.as_slice(), params.data_bits, params.cell_bits, bs);
            p.bias.as_mut_slice().copy_from_slice(&b);
        }
        let reversed: Vec<Vec<u32>> = param_layers
            .iter()
            .map(|p| {
                p.weight
                    .as_slice()
                    .iter()
                    .chain(p.bias.as_slice())
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(reference, reversed, "corruption depends on traversal order");
    }

    #[test]
    fn noise_sweep_zero_strength_is_lossless_and_restores() {
        let (mut net, data) = trained();
        let before = net.accuracy(&data.test.images, &data.test.labels);
        let pts = noise_sweep(
            &mut net,
            &data.test,
            &[0.0],
            NonZeroUsize::new(2).unwrap(),
            &ReramParams::default(),
            7,
        );
        assert_eq!(
            pts[0].accuracy, before,
            "strength 0 must be an exact no-op on accuracy"
        );
        let after = net.accuracy(&data.test.images, &data.test.labels);
        assert_eq!(before, after, "sweep must restore the weights");
    }

    #[test]
    fn noise_sweep_degrades_with_strength() {
        let (mut net, data) = trained();
        let pts = noise_sweep(
            &mut net,
            &data.test,
            &[0.5, 8.0],
            NonZeroUsize::new(2).unwrap(),
            &ReramParams::default(),
            7,
        );
        assert!(
            pts[1].accuracy <= pts[0].accuracy + 0.05,
            "strength 8 ({}) should not beat strength 0.5 ({})",
            pts[1].accuracy,
            pts[0].accuracy
        );
    }

    /// The training-time hook and the evaluation-time corruption must draw
    /// the same device streams: perturbing via `ReramNoiseHook` batch `b`
    /// equals `corrupt_network_noise` at read epoch `b`.
    #[test]
    fn noise_hook_matches_eval_corruption() {
        use pipelayer_nn::trainer::BatchNoise as _;
        let params = ReramParams::default();
        let model = NoiseModel::with_strength(1.0);
        let hook = ReramNoiseHook::new(model, params, 31);

        let mut via_eval = zoo::m1(13);
        corrupt_network_noise(&mut via_eval, &model, &params, 31, 5);

        let mut via_hook = zoo::m1(13);
        let mut ordinal = 0usize;
        for layer in via_hook.layers_mut() {
            let Some(p) = layer.params_mut() else {
                continue;
            };
            hook.perturb(p.weight.as_mut_slice(), ordinal, false, 5);
            hook.perturb(p.bias.as_mut_slice(), ordinal, true, 5);
            ordinal += 1;
        }

        for (a, b) in via_eval
            .layers_mut()
            .iter_mut()
            .filter_map(|l| l.params_mut())
            .zip(
                via_hook
                    .layers_mut()
                    .iter_mut()
                    .filter_map(|l| l.params_mut()),
            )
        {
            assert_eq!(
                a.weight
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.weight
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn stuck_at_faults_hurt() {
        let (mut net, data) = trained();
        let base = net.accuracy(&data.test.images, &data.test.labels);
        let harsh = VariationModel {
            write_sigma: 0.0,
            stuck_at_zero: 0.4,
            stuck_at_max: 0.1,
        };
        corrupt_network(&mut net, &harsh, &ReramParams::default(), 9);
        let corrupted = net.accuracy(&data.test.images, &data.test.labels);
        assert!(
            corrupted < base,
            "40% dead cells should cost accuracy: {base} -> {corrupted}"
        );
    }
}
