//! Quantization-aware training: keeping the weights on the fixed-point
//! grid *throughout* training.
//!
//! PipeLayer does not train in float and quantize afterwards — the weights
//! live in ReRAM at 16-bit resolution (four 4-bit segments, Fig. 14) from
//! the first batch to the last, and every update is a read-modify-write on
//! that grid. This module reproduces that regime in the software framework:
//! after every batch update the weights are snapped back to the quantizer's
//! grid.
//! At 16 bits this is indistinguishable from float training (validating the
//! paper's design point); at very low resolutions the updates vanish under
//! the quantization step and training stalls — the reason resolution
//! compensation exists at all.

use crate::fixed::Quantizer;
use crate::qnetwork::quantize_network_weights;
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::TrainConfig;
use pipelayer_nn::Network;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of a quantization-aware training run.
#[derive(Debug, Clone, PartialEq)]
pub struct QatReport {
    /// Weight resolution used throughout training.
    pub bits: u8,
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final test accuracy.
    pub final_test_accuracy: f32,
}

/// Trains `net` with its weights held at `q`'s resolution: the averaged
/// update of every batch is applied in float and immediately re-quantized
/// (the read-modify-write grid of Fig. 14b).
///
/// # Panics
///
/// Panics on a degenerate config, an empty split or a split whose images
/// and labels differ in length, before any weight changes.
#[expect(clippy::disallowed_macros, reason = "caller bug: degenerate config")]
#[expect(clippy::cast_precision_loss, reason = "counts below 2^24 are exact")]
pub fn train_at_resolution(
    net: &mut Network,
    data: &SyntheticMnist,
    cfg: &TrainConfig,
    q: Quantizer,
) -> QatReport {
    assert!(
        cfg.epochs > 0 && cfg.batch_size > 0,
        "degenerate train config"
    );
    assert!(!data.train.is_empty(), "empty training set");
    assert!(!data.test.is_empty(), "empty test set");
    assert!(
        [&data.train, &data.test]
            .iter()
            .all(|split| split.images.len() == split.labels.len()),
        "images/labels length mismatch"
    );
    // Start from on-grid weights, as Weight_load would program them.
    quantize_network_weights(net, q);

    let n = data.train.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let images: Vec<_> = chunk
                .iter()
                .map(|&i| data.train.images[i].clone())
                .collect();
            let labels: Vec<_> = chunk.iter().map(|&i| data.train.labels[i]).collect();
            loss_sum += net.train_batch(&images, &labels, cfg.lr);
            // Write-back lands on the cell grid.
            quantize_network_weights(net, q);
            batches += 1;
        }
        epoch_losses.push(loss_sum / batches as f32);
    }

    QatReport {
        bits: q.bits(),
        epoch_losses,
        final_test_accuracy: net.accuracy(&data.test.images, &data.test.labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::data::Dataset;
    use pipelayer_nn::trainer::Trainer;
    use pipelayer_nn::zoo;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn q(bits: u8) -> Quantizer {
        Quantizer::try_new(bits).unwrap()
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.1,
            threads: 1,
        }
    }

    #[test]
    fn sixteen_bit_training_matches_float() {
        let data = SyntheticMnist::generate(300, 100, 77);
        let mut float_net = zoo::m1(77);
        let float_report = Trainer::new(cfg()).fit(&mut float_net, &data);

        let mut q_net = zoo::m1(77);
        let q_report = train_at_resolution(&mut q_net, &data, &cfg(), q(16));
        assert!(
            (q_report.final_test_accuracy - float_report.final_test_accuracy).abs() < 0.08,
            "16-bit QAT should match float: {} vs {}",
            q_report.final_test_accuracy,
            float_report.final_test_accuracy
        );
    }

    #[test]
    fn two_bit_training_stalls() {
        // With a 2-bit grid the averaged SGD steps round away to nothing —
        // the failure mode resolution compensation prevents.
        let data = SyntheticMnist::generate(300, 100, 78);
        let mut hi = zoo::m1(78);
        let hi_acc = train_at_resolution(&mut hi, &data, &cfg(), q(16)).final_test_accuracy;
        let mut lo = zoo::m1(78);
        let lo_acc = train_at_resolution(&mut lo, &data, &cfg(), q(2)).final_test_accuracy;
        assert!(
            lo_acc < hi_acc - 0.1,
            "2-bit training ({lo_acc}) should clearly trail 16-bit ({hi_acc})"
        );
    }

    #[test]
    fn loss_decreases_at_workable_resolution() {
        let data = SyntheticMnist::generate(200, 50, 79);
        let mut net = zoo::m1(79);
        let report = train_at_resolution(&mut net, &data, &cfg(), q(12));
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    }

    fn weight_bits(net: &mut Network) -> Vec<u32> {
        let mut bits = Vec::new();
        for layer in net.layers_mut() {
            if let Some(p) = layer.params_mut() {
                bits.extend(p.weight.as_slice().iter().map(|v| v.to_bits()));
                bits.extend(p.bias.as_slice().iter().map(|v| v.to_bits()));
            }
        }
        bits
    }

    /// A split that could only fail after training — an empty test set
    /// (the final accuracy), or images and labels of different lengths —
    /// panics before the first weight changes, the initial quantization
    /// included.
    #[test]
    fn unusable_splits_panic_before_any_weight_changes() {
        let full = SyntheticMnist::generate(32, 8, 2);
        let mut no_test = full.clone();
        no_test.test = Dataset::default();
        let mut test_labels = full.clone();
        test_labels.test.labels.push(0);
        let mut train_labels = full;
        train_labels.train.labels.pop();
        for data in [no_test, test_labels, train_labels] {
            let mut net = zoo::m1(3);
            let before = weight_bits(&mut net);
            let run = catch_unwind(AssertUnwindSafe(|| {
                train_at_resolution(&mut net, &data, &cfg(), q(12))
            }));
            assert!(run.is_err(), "an unusable split must be rejected");
            assert_eq!(weight_bits(&mut net), before, "weights changed");
        }
    }
}
